"""Seeded CLI operations for each benchmark workload, and their correctness checks.

An operation is one `invgamma_benford.cli.main(argv)` call.  Inputs come
in passes: within a pass the parameters are stratified over their ranges
(each stratum jittered by the seed) and the operations are shuffled, so a
run that stops mid-pass still sees a random spread of the ranges, while
the mix of cheap and costly inputs stays steady from seed to seed.  Every
value is drawn from a continuous law, so no input repeats within a run.

The operations avoid what the planned refactors remove or reshape: base
2, --allow-uncertified, --grid-points and the `grid_points` payload key.
Checks use tolerances, not byte-identity with earlier output; see
reference.py for the independent check of the headline metric.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

import reference

SWEEP_ROWS = 40
SWEEP_ALPHA = (0.1, 50.0)
SWEEP_BETA = (1.0, 9.99)
SWEEP_EPSILON = 1e-3  # the CLI default for grid
SWEEP_ALPHA_SHIFT = 0.05
SWEEP_CHECKED_CELLS = 2

VERIFY_PASS = 12
VERIFY_ALPHA = (0.05, 20.0)
VERIFY_BASES = (3, 10, 16)
VERIFY_SAMPLES = 250_000

HIGH_ALPHA_PASS = 20
HIGH_ALPHA = (100.0, 3000.0)
HIGH_ALPHA_EPSILON = 1e-8


@dataclass(frozen=True)
class Op:
    argv: list
    units: int  # work units the operation completes: cells, verifications or queries
    check: tuple  # what the output is checked against; the layout depends on the workload


def _strata(rng, n, lo, hi, log=False):
    """n ascending values, one in each of n equal strata of [lo, hi) (log scale if asked)."""
    u = (np.arange(n) + rng.random(n)) / n
    if log:
        return np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
    return lo + u * (hi - lo)


def _sweep_pass(rng):
    base_alphas = np.linspace(*SWEEP_ALPHA, SWEEP_ROWS)
    shifts = rng.uniform(-SWEEP_ALPHA_SHIFT, SWEEP_ALPHA_SHIFT, SWEEP_ROWS)
    for row in rng.permutation(SWEEP_ROWS):
        alpha = float(base_alphas[row] + shifts[row])
        argv = ["grid", "--alpha-min", repr(alpha), "--alpha-max", repr(alpha), "--alpha-steps", "1",
                "--beta-min", repr(SWEEP_BETA[0]), "--beta-max", repr(SWEEP_BETA[1]),
                "--beta-steps", str(SWEEP_ROWS), "--format", "json"]
        cells = tuple(int(j) for j in rng.choice(SWEEP_ROWS, SWEEP_CHECKED_CELLS, replace=False))
        yield Op(argv, SWEEP_ROWS, (alpha, cells))


def _verify_pass(rng):
    alphas = _strata(rng, VERIFY_PASS, *VERIFY_ALPHA, log=True)
    betas = rng.permutation(_strata(rng, VERIFY_PASS, 1.0, 10.0))
    # bases cycle along the alpha strata, so each base sees the whole alpha range
    offset = int(rng.integers(len(VERIFY_BASES)))
    for i in rng.permutation(VERIFY_PASS):
        base = VERIFY_BASES[(i + offset) % len(VERIFY_BASES)]
        argv = ["verify", "--alpha", repr(float(alphas[i])), "--beta", repr(float(betas[i])),
                "--base", str(base), "--samples", str(VERIFY_SAMPLES),
                "--seed", str(int(rng.integers(2**31)))]
        yield Op(argv, 1, ())


def _high_alpha_pass(rng):
    alphas = _strata(rng, HIGH_ALPHA_PASS, *HIGH_ALPHA, log=True)
    betas = rng.permutation(_strata(rng, HIGH_ALPHA_PASS, 1.0, 10.0))
    for i in rng.permutation(HIGH_ALPHA_PASS):
        alpha, beta = float(alphas[i]), float(betas[i])
        argv = ["deviation", "--alpha", repr(alpha), "--beta", repr(beta),
                "--epsilon", repr(HIGH_ALPHA_EPSILON)]
        yield Op(argv, 1, (alpha, beta))


PASSES = {"sweep": _sweep_pass, "verify": _verify_pass, "high_alpha": _high_alpha_pass}
PASS_SIZE = {"sweep": SWEEP_ROWS, "verify": VERIFY_PASS, "high_alpha": HIGH_ALPHA_PASS}
UNIT = {"sweep": "cells", "verify": "verifications", "high_alpha": "queries"}
WORKLOAD_KEY = {"sweep": 1, "verify": 2, "high_alpha": 3}


def operations(workload, seed, stream=0):
    """Endless seeded stream of operations; `stream` separates warm-up from measured inputs."""
    rng = np.random.default_rng([WORKLOAD_KEY[workload], stream, seed])
    while True:
        yield from PASSES[workload](rng)


def check(workload, op, code, stdout, against_reference=True):
    """None when the operation's output is correct, else a one-line reason.

    Exit code, output shape and value ranges are always checked; the
    comparison of max_dev with the mpmath reference only when
    `against_reference` is true.
    """
    if code != 0:
        return f"exit code {code}"
    try:
        payload = json.loads(stdout)["payload"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    if workload == "verify":
        return None if payload.get("passed") is True else f"verify did not pass: {payload!r}"
    if workload == "high_alpha":
        alpha, beta = op.check
        values, betas, checked = [float(payload["max_dev"])], [beta], (0,)
        epsilon = HIGH_ALPHA_EPSILON
    else:
        alpha, checked = op.check
        rows = payload["max_dev"]
        if len(rows) != 1 or len(rows[0]) != SWEEP_ROWS:
            return f"grid shape {len(rows)}x{len(rows[0]) if rows else 0}, expected 1x{SWEEP_ROWS}"
        betas = np.linspace(*SWEEP_BETA, SWEEP_ROWS)
        if not np.allclose(payload["beta_values"], betas, rtol=1e-14, atol=0.0):
            return f"beta axis {payload['beta_values']!r} is not linspace{SWEEP_BETA + (SWEEP_ROWS,)}"
        values = [float(v) for v in rows[0]]
        epsilon = SWEEP_EPSILON
    # |F_B(z) - z| <= max(z, 1 - z) <= 1
    if not all(0.0 <= v <= 1.0 + epsilon for v in values):
        return f"max_dev outside [0, 1] at {alpha=!r}: {values!r}"
    if against_reference:
        for j in checked:
            reason = reference.check_max_dev(values[j], alpha, float(betas[j]), 10, epsilon)
            if reason is not None:
                return reason
    return None
