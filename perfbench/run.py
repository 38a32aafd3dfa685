"""Benchmark of the invgamma-benford command line, end to end and per layer.

    python3 perfbench/run.py --workload {sweep,verify,high_alpha,all} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  Each workload is a closed loop with one
client that calls `invgamma_benford.cli.main(argv)` in this process, with
BLAS and OpenMP pinned to one thread and the package taken from `src/`.
Every operation's output is checked (see workloads.py) outside the timed
region.

--trace 0 measures for S seconds of operation time and reports the
end-to-end metrics named in BENCHMARK.json.  --trace 1 runs a fixed,
seed-determined list of operations twice, each in a fresh process, in
turns: once untraced and once with every public function of the
package's layers wrapped (tracing.py), and reports the per-layer
metrics.  The last line of stdout is the result object; the line before
it records the environment and the details behind the metrics.

Self-checks of the benchmark: python3 -m pytest perfbench
"""

import os

THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)  # before numpy is first imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = tuple(workloads.PASSES)
SETUP_REPEATS = 7
SETUP_CODE = """\
import time
start = time.perf_counter()
import invgamma_benford.cli as cli
cli.build_parser()
print(time.perf_counter() - start)
"""
# Passes of each workload's operations in a traced run, per second of
# --seconds: about a third of the budget at the time the benchmark was
# defined, since the run does the work twice and checks it once.
TRACE_PASSES_PER_S = {"sweep": 0.1, "verify": 0.09, "high_alpha": 0.2}
MAX_FAILURES_SHOWN = 5


def trace_ops(workload, seconds):
    passes = max(1, round(seconds * TRACE_PASSES_PER_S[workload]))
    return passes * workloads.PASS_SIZE[workload]


def call(cli, argv):
    """Run one CLI operation; (seconds, exit code, stdout, error or None)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit):
        elapsed = time.perf_counter() - start
        return elapsed, None, out.getvalue(), traceback.format_exc(limit=-3)
    return time.perf_counter() - start, code, out.getvalue(), None


class Tally:
    """Latencies, completed work and failures of a run's operations."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies = []
        self.busy_s = 0.0  # sum of latencies, kept as it grows
        self.check_s = 0.0
        self.reference_checks = 0
        self.units_done = []  # per operation: its work units, or 0 if it failed
        self.failures = []

    def run(self, cli, op):
        elapsed, code, stdout, error = call(cli, op.argv)
        self.latencies.append(elapsed)
        self.busy_s += elapsed
        if error is None:
            # the reference is costly: it may take at most as long as the
            # operations, so that a much faster program still ends in time
            against_reference = self.check_s <= self.busy_s
            self.reference_checks += against_reference
            start = time.perf_counter()
            try:
                error = workloads.check(self.workload, op, code, stdout, against_reference)
            except Exception:  # a malformed output must count as a failure, not stop the run
                error = traceback.format_exc(limit=-1)
            self.check_s += time.perf_counter() - start
        self.units_done.append(op.units if error is None else 0)
        if error is not None:
            self.failures.append(f"{' '.join(op.argv)}: {error.strip()}")
            print(self.failures[-1], file=sys.stderr)

    @property
    def units(self):
        return sum(self.units_done)

    def parts(self):
        """The run cut into up to three consecutive parts of at least 100 operations.

        Throughput and tail latency are the median over the parts, so that a
        burst of load on a shared machine that covers one part does not set
        them.  Each part is (latencies, units done).
        """
        n = len(self.latencies)
        k = max(1, min(3, n // 100))
        cuts = [i * n // k for i in range(k + 1)]
        return [(self.latencies[a:b], sum(self.units_done[a:b])) for a, b in zip(cuts, cuts[1:])]


def tail(latencies):
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def environment(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
        "pythonpath": os.environ["PYTHONPATH"],
        "seed": seed,
    }


def setup_times():
    """Import invgamma_benford.cli and build its parser in fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=os.environ,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout))
    return times


def metric_specs(kind):
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)[kind]


def measured_run(cli, workload, seed, seconds):
    """Closed loop for `seconds` of operation time; the end-to-end metrics."""
    setup = setup_times()
    warm_up = next(workloads.operations(workload, seed, stream=1))
    call(cli, warm_up.argv)  # lazy set-up inside numpy and argparse, untimed
    tally = Tally(workload)
    ops = workloads.operations(workload, seed)
    while tally.busy_s < seconds:
        tally.run(cli, next(ops))
    n = len(tally.latencies)
    parts = tally.parts()
    tails = [tail(latencies) for latencies, _ in parts]
    values = {
        "setup_s": statistics.median(setup),
        "work_per_s": statistics.median(units / sum(latencies) for latencies, units in parts),
        "op_p50_ms": 1e3 * statistics.median(tally.latencies),
        "op_tail_ms": 1e3 * statistics.median(value for value, _ in tails),
        "ok_frac": 1.0 - len(tally.failures) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "unit_of_work": workloads.UNIT[workload],
        "units": tally.units,
        "busy_s": tally.busy_s,
        "fail_frac": len(tally.failures) / n,
        "reference_checks": tally.reference_checks,
        "op_tail": {"percentile": min(pct for _, pct in tails), "samples": n,
                    "parts": len(parts), "samples_per_part": [len(lat) for lat, _ in parts]},
        "setup_samples_s": setup,
    }
    return tally, values, details


def untraced_twin(cli, workload, seed):
    """For each line on stdin, run the next operation untraced and print its time."""
    ops = workloads.operations(workload, seed)
    for _ in sys.stdin:
        print(call(cli, next(ops).argv)[0], flush=True)


def layer_values(tracer, names):
    """Per-layer metric values by name, and the spans that no longer exist.

    A name is a counter, `trace.counter_errors`, or `<layer>.<function>.<field>`
    with field calls, self_s or errors.  A function that a refactor removed
    reads 0 and is listed as absent.
    """
    values, absent = {"trace.counter_errors": tracer.counter_errors}, set()
    for name in names:
        if name in tracer.counters:
            values[name] = tracer.counters[name]
        elif name.startswith("trace."):
            continue
        else:
            span_name, field = name.rsplit(".", 1)
            span = tracer.spans.get(span_name)
            if span is None:
                absent.add(span_name)
            values[name] = 0 if span is None else getattr(span, field)
    return values, sorted(absent)


def traced_run(cli, workload, seed, seconds, twin_argv):
    """The fixed operation list, traced here and untraced in a fresh twin process.

    The two processes take turns, one operation each, so both see the same
    load on a shared machine and the difference of their times is the
    tracing overhead rather than noise.  Both start with cold caches.
    """
    tracer = tracing.Tracer()
    tally = Tally(workload)
    ops = workloads.operations(workload, seed)
    untraced_s = 0.0
    twin = subprocess.Popen(twin_argv, cwd=ROOT, env=os.environ, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    try:
        tracer.install()
        for i in range(trace_ops(workload, seconds)):
            if i % 2:
                tally.run(cli, next(ops))
            twin.stdin.write("\n")
            twin.stdin.flush()
            untraced_s += float(twin.stdout.readline())
            if not i % 2:
                tally.run(cli, next(ops))
    finally:
        twin.stdin.close()
        try:
            twin.wait(timeout=60)
        except subprocess.TimeoutExpired:
            twin.kill()
            twin.wait()
    values, absent = layer_values(tracer, [spec["name"] for spec in metric_specs("per_layer")])
    values.update({
        "trace.overhead_s": tally.busy_s - untraced_s,
        "trace.covered_frac": tracer.top_level_s / tally.busy_s,
    })
    details = {
        "unit_of_work": workloads.UNIT[workload],
        "units": tally.units,
        "reference_checks": tally.reference_checks,
        "traced_s": tally.busy_s,
        "untraced_s": untraced_s,
        "absent_spans": absent,
        "trace": tracer.dump(),
    }
    return tally, values, details


def run_all(args):
    """Each workload in its own process, so each has its own peak memory."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, env=os.environ, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        sys.stdout.write(proc.stdout)
        status = max(status, proc.returncode)
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the untraced half of a traced run, in its own process
    parser.add_argument("--untraced-twin", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "invgamma_benford" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no package sources under {SRC} or no BENCHMARK.json at {ROOT}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    import invgamma_benford.cli as cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"error: imported {cli.__file__}, not the sources under {SRC}", file=sys.stderr)
        return 2

    if args.untraced_twin:
        untraced_twin(cli, args.workload, args.seed)
        return 0
    if args.trace:
        twin_argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
                     "--untraced-twin"]
        tally, values, details = traced_run(cli, args.workload, args.seed, args.seconds, twin_argv)
        kind = "per_layer"
    else:
        tally, values, details = measured_run(cli, args.workload, args.seed, args.seconds)
        kind = "end_to_end"
    metrics = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
               for spec in metric_specs(kind)}
    details.update(workload=args.workload, seconds=args.seconds, trace=args.trace,
                   env=environment(args.seed), failures=tally.failures[:MAX_FAILURES_SHOWN])
    print(json.dumps(details))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": len(tally.latencies),
        "failed": len(tally.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
