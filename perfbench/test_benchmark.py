"""Self-checks of the benchmark itself: exact counts, absent spans, refusal without sources.

    python3 -m pytest perfbench

The traced runs are short (--seconds 1), but each starts fresh processes
and does real work, so the module takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing

RUN = Path(__file__).with_name("run.py")
ROOT = RUN.parent.parent

# Counts that two traced runs of one seed must repeat exactly, and the
# workload on which each is nonzero.
EXACT = {
    "series.kernel_terms": ("sweep", "verify", "high_alpha"),
    "series.cutoff_m.sum": ("sweep", "verify", "high_alpha"),
    "special.complex_log_gamma.calls": ("sweep", "verify", "high_alpha"),
    "special.regularized_upper_gamma.calls": ("verify",),
    "oracle.sample_invgamma.draws": ("verify",),
}


def traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout.splitlines()[-2]
    return {name: metric["value"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["sweep", "verify", "high_alpha"])
def test_counts_repeat_exactly(workload):
    first = traced(workload, 5)
    second = traced(workload, 5)
    for name, exercised_on in EXACT.items():
        assert first[name] == second[name], name
        assert (first[name] > 0) == (workload in exercised_on), name
    assert first["trace.counter_errors"] == 0
    assert 0.9 < first["trace.covered_frac"] <= 1.0


def test_high_alpha_builds_one_gamma_entry_per_term():
    # every alpha is new, so each query's table is built from scratch:
    # sum over queries of (cutoff_m - 1) complex log-gamma evaluations
    m = traced("high_alpha", 9)
    assert m["special.complex_log_gamma.calls"] == (
        m["series.cutoff_m.sum"] - m["series.truncation_cutoff.calls"])


def test_vanished_function_reads_absent():
    tracer = tracing.Tracer()
    tracer.spans["series.fb_cdf_series_values"] = tracing.Span()
    values, absent = run.layer_values(
        tracer, ["cli.main.self_s", "series.fb_cdf_series_values.calls", "series.kernel_terms"])
    assert absent == ["cli.main"]
    assert values == {"cli.main.self_s": 0, "series.fb_cdf_series_values.calls": 0,
                      "series.kernel_terms": 0, "trace.counter_errors": 0}


def test_refuses_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(RUN.parent, tmp_path / RUN.parent.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{RUN.parent.name}/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
