"""Golden corpus of command-line invocations: exit code, output digests and numbers of each.

    PYTHONPATH=<tree>/src python tools/cli_corpus.py > corpus.json
    PYTHONPATH=src python tools/cli_corpus.py --compare old.json new.json

Runs a fixed list of invocations in this process through
invgamma_benford.cli.main and prints one JSON object, one entry per
line, that maps each argv, joined by spaces, to [exit code, sha256 of
stdout, sha256 of stderr, numbers of the output].  COLUMNS is pinned, so
argparse's usage text does not depend on the terminal.  The numbers map
a key path to each number of the JSON metadata and payload
("payload.max_dev[2][5]"), or of the CSV rows below the header
("row 3.F_B") together with the CSV metadata line on stderr
("metadata.cutoff_m").  Run it on two trees and diff the outputs:
identical files mean identical stdout and stderr bytes and exit codes on
every invocation.  Where the bytes change on purpose, --compare names
every invocation whose stdout or stderr digest differs and reports those
whose exit code or number keys differ.  It lists every cutoff_m and
argmax_z that moved as old -> new (a term count and a location: epsilon
bounds neither), and checks every other number against twice the
invocation's own metadata.epsilon (0 where it has none, as for
sample), plus one unit in the last printed place of a CSV cell: at most
max(1e-6, 1e-5 |x|), as the CLI prints at least 6 decimals or 6
significant digits.  It prints each number beyond that, a summary, and
the largest |difference| with its key, and exits 1 if an exit code, a
key or a number differs beyond its tolerance.  beta_canonical is
compared by the circular distance of log_B beta mod 1, so a canonical
beta that wraps from just below B to 1.0 counts as the small change of
scale that it is.  A run takes about 2 s on a 2-core machine.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys

from invgamma_benford import cli

POINTS = [("0.05", "1e-3"), ("1", "1"), ("2.7", "6.1"), ("50", "123"), ("300", "0.5"),
          ("0.01", "2e5")]


def _grid(base, alpha, beta, *extra):
    (a_lo, a_hi, a_n), (b_lo, b_hi, b_n) = alpha, beta
    return ["grid", "--alpha-min", a_lo, "--alpha-max", a_hi, "--alpha-steps", a_n,
            "--beta-min", b_lo, "--beta-max", b_hi, "--beta-steps", b_n,
            "--base", base, *extra]


def corpus():
    runs = []
    for base in ("3", "10", "16"):
        for fmt in ("json", "csv"):
            runs.append(_grid(base, ("0.05", "30", "7"), ("1e-5", "1e5", "9"), "--format", fmt))
            runs.append(_grid(base, ("0.1", "50", "5"), ("1", "9.99", "6"), "--summary",
                              "--epsilon", "1e-10", "--format", fmt))
    runs.append(_grid("2", ("0.01", "2", "5"), ("0.5", "3", "4"), "--epsilon", "1e-12"))
    runs.append(_grid("10", ("0.1", "50", "40"), ("1", "9.99", "40")))
    for alpha, beta in POINTS:
        point = ["--alpha", alpha, "--beta", beta]
        for eps in ("1e-3", "1e-8", "1e-12"):
            runs.append(["deviation", *point, "--epsilon", eps])
        runs.append(["deviation", *point, "--base", "36", "--format", "csv"])
    runs.append(["deviation", "--alpha", "2.7", "--beta", "6.1", "--grid-points", "101"])
    runs.append(["deviation", "--alpha", "2.7", "--beta", "6.1", "--grid-points", "4001",
                 "--format", "csv"])
    runs.append(["cdf", "--alpha", "0.7", "--beta", "2.5", "--points", "57",
                 "--epsilon", "1e-9"])
    runs.append(["cdf", "--alpha", "4", "--beta", "1.2", "--base", "7", "--points", "33",
                 "--epsilon", "1e-9", "--format", "json"])
    for seed in ("1", "7"):
        runs.append(["verify", "--alpha", "0.5", "--beta", "2", "--samples", "20000",
                     "--seed", seed])
    runs.append(["verify", "--alpha", "5", "--beta", "3.3", "--base", "16", "--format", "csv"])
    # benchmark-sized KS checks, a large cutoff, and a one-sample batch
    for alpha, beta, base in (("0.7", "4.2", "3"), ("12", "1.9", "16"), ("300", "2.5", "10")):
        runs.append(["verify", "--alpha", alpha, "--beta", beta, "--base", base,
                     "--samples", "250000", "--seed", "11"])
    runs.append(["verify", "--alpha", "2", "--beta", "3", "--samples", "1", "--seed", "5"])
    runs.append(["verify", "--alpha", "1e-4", "--beta", "1"])
    runs.append(["verify", "--alpha", "0.05", "--beta", "1e300"])
    runs.append(["sample", "--alpha", "2", "--beta", "3", "--n", "2000", "--seed", "3"])
    runs.append(["sample", "--alpha", "2", "--beta", "3", "--n", "200", "--seed", "3",
                 "--format", "json"])
    runs.append(_grid("10", ("2", "1", "3"), ("1", "2", "3")))
    # long cutoffs, M = 76 to 1233
    runs.append(["deviation", "--alpha", "3000", "--beta", "2.5", "--epsilon", "1e-8"])
    runs.append(["deviation", "--alpha", "1e5", "--beta", "1", "--epsilon", "1e-8"])
    runs.append(["deviation", "--alpha", "1e4", "--beta", "7", "--base", "2", "--epsilon", "1e-12"])
    runs.append(["cdf", "--alpha", "1e5", "--beta", "3", "--base", "36", "--epsilon", "1e-12",
                 "--points", "101", "--format", "json"])
    runs.append(_grid("10", ("1000", "3000", "3"), ("1", "9.99", "5"), "--epsilon", "1e-8",
                      "--format", "json"))
    # the largest cutoffs of an evaluation off the uniform grid: M = 107,515 and 627
    runs.append(["cdf", "--alpha", "1e10", "--beta", "1", "--points", "1001"])
    # the readout at the ends of the shape and base ranges
    runs.append(["cdf", "--alpha", "1e-6", "--beta", "1", "--base", "2", "--epsilon", "1e-12",
                 "--points", "65", "--format", "json"])
    runs.append(["cdf", "--alpha", "50", "--beta", "3", "--base", str(2 ** 53), "--points",
                 "33", "--format", "json"])
    runs.append(["cdf", "--alpha", "1e5", "--beta", "1", "--epsilon", "1e-8", "--format",
                 "csv"])
    runs.append(["verify", "--alpha", "1e5", "--beta", "1.7", "--samples", "250000"])
    # rows of 40 columns at M = 7, 8, 10 and 11, and a cutoff of 627 folded onto a grid
    # of N = 101 (a prime) points
    runs.append(_grid("10", ("5", "20", "4"), ("1", "9.99", "40"), "--epsilon", "1e-8",
                      "--format", "json"))
    runs.append(["deviation", "--alpha", "1e5", "--beta", "2.2", "--epsilon", "1e-8",
                 "--grid-points", "102"])
    # scales at the ends of the double range, where beta is scaled into [1, B)
    for beta, base in (("5e-324", "10"), ("1.7976931348623157e308", "10"),
                       ("9.999999999999999e-293", "10"), ("1e-291", "1000")):
        runs.append(["deviation", "--alpha", "2.7", "--beta", beta, "--base", base])
    runs.append(["cdf", "--alpha", "2.7", "--beta", "1e-300", "--base", "3", "--points", "33"])
    runs.append(["verify", "--alpha", "2.7", "--beta", "3e-310", "--base", "3"])
    runs.append(_grid("7", ("0.5", "20", "3"), ("1e-300", "1e300", "7"), "--epsilon", "1e-12"))
    runs.append(_grid("36", ("0.5", "20", "3"), ("3e-321", "7e-310", "7"), "--epsilon", "1e-12"))
    # a sweep row (M = 8) in JSON, so that every digit of its 40 maxima is compared
    runs.append(_grid("10", ("45", "45", "1"), ("1", "9.99", "40"), "--epsilon", "1e-3",
                      "--format", "json"))
    # 40-column rows at the ends of the alpha and beta ranges
    for base, eps in (("2", "1e-12"), ("36", "1e-12"), ("10", "1e-8")):
        runs.append(_grid(base, ("1e-6", "3000", "5"), ("5e-324", "1e300", "40"),
                          "--epsilon", eps, "--format", "json"))
    runs.append(["deviation", "--alpha", "1", "--beta", "1", "--epsilon", "1"])
    for base in ("1", "ten", str(2 ** 53), str(2 ** 53 + 1)):
        runs.append(["deviation", "--alpha", "2", "--beta", "3", "--base", base])
    runs.append(["verify", "--alpha", "2", "--beta", "3", "--base", "1" + "0" * 400])
    runs.append(["sample", "--alpha", "2", "--beta", "3", "--base", "1" + "0" * 400])
    runs.append(["sample", "--alpha", "1e-5", "--beta", "1", "--n", "1000"])
    # small shapes, where about half the mass of X lies beyond the double range
    runs.append(["verify", "--alpha", "1e-3", "--beta", "1"])
    runs.append(["verify", "--alpha", "1e-6", "--beta", "1", "--base", "2"])
    runs.append(["sample", "--alpha", "1e-3", "--beta", "1", "--n", "100"])
    # a shape whose cutoff is out of reach (about 1e8 terms at alpha = 1e16)
    runs.append(["deviation", "--alpha", "1e300", "--beta", "1"])
    runs.append(_grid("10", ("1e300", "1e300", "1"), ("1", "9.99", "5")))
    return runs


def _flatten(node, path):
    if isinstance(node, dict):
        for key, item in node.items():
            yield from _flatten(item, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _flatten(item, f"{path}[{i}]")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, float(node)


def _csv_numbers(stdout: str):
    lines = stdout.splitlines()
    header = lines[0].split(",") if lines else []
    for i, line in enumerate(lines[1:], start=1):
        for name, cell in zip(header, line.split(",")):
            try:
                yield f"row {i}.{name}", float(cell)
            except ValueError:
                pass


def _csv_metadata(stderr: str):
    first = stderr.partition("\n")[0]
    if first.startswith("# "):
        for key, text in re.findall(r"(\w+)=(\S+)", first):
            try:
                yield f"metadata.{key}", float(text)
            except ValueError:
                pass


def numbers(stdout: str, stderr: str = "") -> dict:
    """The numbers of one run by key path: its JSON metadata's and payload's,
    or its CSV rows' and its stderr metadata line's."""
    try:
        envelope = json.loads(stdout)
        return dict(_flatten({"metadata": envelope["metadata"],
                              "payload": envelope["payload"]}, ""))
    except (ValueError, KeyError, TypeError):
        return {**dict(_csv_metadata(stderr)), **dict(_csv_numbers(stdout))}


def compare(old_path, new_path) -> int:
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    worst, where, unmatched, moved, beyond = 0.0, None, 0, [], []
    shared = sorted(old.keys() & new.keys())
    for argv in shared:
        (code_a, out_a, err_a, xs), (code_b, out_b, err_b, ys) = old[argv], new[argv]
        if out_a != out_b:
            print(f"stdout differs: {argv}")
        if err_a != err_b:
            print(f"stderr differs: {argv}")
        if code_a != code_b or xs.keys() != ys.keys():
            unmatched += 1
            unshared = len(xs.keys() ^ ys.keys())
            print(f"differs: {argv}: exit {code_a} -> {code_b}, "
                  f"{len(xs)} -> {len(ys)} numbers, {unshared} keys in one only")
            continue
        tolerance = 2.0 * xs.get("metadata.epsilon", 0.0)
        for key, x in xs.items():
            name = key.rpartition(".")[2]
            if name in ("cutoff_m", "argmax_z"):
                if x != ys[key]:
                    moved.append(f"{name} {x:g} -> {ys[key]:g}: {argv}")
                continue
            if key == "metadata.beta_canonical":  # log_B beta mod 1, on the circle
                d = math.log(x / ys[key]) / math.log(xs["metadata.base"]) % 1.0
                gap = min(d, 1.0 - d)
            else:
                gap = abs(x - ys[key])
            printed = max(1e-6, 1e-5 * abs(x)) if key.startswith("row ") else 0.0
            if gap > tolerance + printed:
                beyond.append(f"beyond 2 epsilon: {argv}: {key}: {x!r} -> {ys[key]!r}")
            if gap > worst:
                worst, where = gap, f"{argv}: {key}"
    print("\n".join(moved + beyond))
    for argv in sorted(old.keys() ^ new.keys()):
        unmatched += 1
        print(f"in one corpus only: {argv}")
    print(f"{len(shared)} invocations: {unmatched} with a different exit code or keys, "
          f"{len(beyond)} numbers beyond 2 epsilon, {len(moved)} cutoffs or argmaxes moved")
    print(f"largest |difference| (cutoff_m and argmax_z aside): {worst!r} ({where})")
    return 1 if unmatched or beyond else 0


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main():
    if sys.argv[1:2] == ["--compare"]:
        sys.exit(compare(*sys.argv[2:4]))
    os.environ["COLUMNS"] = "100"
    entries = []
    for argv in corpus():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:  # the command would end in a traceback, exit 1
                code = 1
        text = out.getvalue()
        value = [code, _sha256(text), _sha256(err.getvalue()), numbers(text, err.getvalue())]
        entries.append(f" {json.dumps(' '.join(argv))}: {json.dumps(value)}")
    sys.stdout.write("{\n" + ",\n".join(entries) + "\n}\n")


if __name__ == "__main__":
    main()
