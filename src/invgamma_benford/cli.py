"""Command-line front end.

Subcommands: deviation, cdf, grid, verify, sample.  Data goes to stdout
(CSV or JSON per --format); diagnostics, including the parameter metadata
for CSV output, go to stderr.  Exit codes: 0 success, 1 verification
failure, 2 usage error.  Every base 2 <= B <= 2**53 is certified: the
metadata key "certified" is always true.  Every flag value is checked by
argparse with the library's own validators, so any bad value (a
non-finite epsilon, an epsilon of 1 or more, a base above 2**53 and a
negative seed included) is a usage error: exit 2 with empty stdout.
Output is buffered and deterministic: identical flags produce
byte-identical stdout.  Samples come from numpy's PCG64 and
Generator.standard_gamma.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .analysis import DEFAULT_GRID_POINTS, _MIN_GRID_POINTS, deviation_grid, max_deviation
from .benford import BaseConfig, _as_epsilon, _as_int, _as_positive_finite, log_mod_1_array
from .oracle import (
    OracleConfig,
    fb_cdf_oracle,
    ks_distance,
    oracle_window,
    sample_invgamma,
)
from .series import (
    InvGammaParams,
    canonicalize_beta,
    fb_cdf_series_values,
    truncation_cutoff,
)

__all__ = ["main", "entry", "build_parser"]

_EXIT_OK = 0
_EXIT_VERIFY_FAILED = 1
# the largest base that float(B) holds exactly; the oracle and the digit
# histogram compute with float(B)
_MAX_BASE = 2 ** 53


def _fixed(x: float, sig: int = 6) -> str:
    """Fixed-notation rendering with at least `sig` significant digits."""
    x = float(x)
    if x == 0.0 or not math.isfinite(x):
        return f"{x:.6f}"
    decimals = sig - 1 - math.floor(math.log10(abs(x)))
    decimals = min(max(decimals, 0), 20)
    return f"{x:.{decimals}f}"


def _usage_type(check):
    """argparse type from a library check: its ValueError becomes a usage error."""
    def parse(text: str):
        try:
            return check(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _positive(name: str):
    return _usage_type(lambda text: _as_positive_finite(text, name))


def _int_at_least(name: str, minimum: int):
    return _usage_type(lambda text: _as_int(int(text), name, minimum))


def _base(text: str) -> int:
    base = _as_int(int(text), "base", 2)
    if base > _MAX_BASE:
        raise ValueError(f"base must be <= 2**53, got {base}")
    return base


def _metadata(params: InvGammaParams, base: BaseConfig, epsilon: float,
              cutoff_m: int) -> dict:
    canonical, _ = canonicalize_beta(params, base)
    return {
        "alpha": params.alpha,
        "beta": params.beta,
        "beta_canonical": canonical.beta,
        "base": base.base,
        "epsilon": epsilon,
        "cutoff_m": cutoff_m,
        "certified": True,
        "tool_version": __version__,
    }


def _emit_json(metadata: dict, payload) -> None:
    envelope = {"format": "json", "metadata": metadata, "payload": payload}
    print(json.dumps(envelope, indent=2))


def _emit_metadata_stderr(metadata: dict) -> None:
    fields = " ".join(f"{k}={v}" for k, v in metadata.items())
    print(f"# {fields}", file=sys.stderr)


def _add_common(sub, epsilon_default: float | None = 0.001, params: bool = True) -> None:
    """--alpha and --beta (unless `params` is false), --base, and --epsilon
    (unless `epsilon_default` is None)."""
    if params:
        sub.add_argument("--alpha", type=_positive("alpha"), required=True,
                         help="shape parameter (> 0)")
        sub.add_argument("--beta", type=_positive("beta"), required=True,
                         help="scale parameter (> 0)")
    sub.add_argument("--base", type=_usage_type(_base), default=10,
                     help="integer base 2 <= B <= 2**53 (default 10)")
    if epsilon_default is not None:
        sub.add_argument("--epsilon", type=_usage_type(_as_epsilon), default=epsilon_default,
                         help=f"accuracy target in (0, 1) (default {epsilon_default})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invgamma-benford",
        description="First-digit-law analysis of the inverse gamma distribution",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("deviation", help="max |F_B(z) - z| for one parameter point")
    _add_common(p)
    p.add_argument("--grid-points", type=_int_at_least("grid-points", _MIN_GRID_POINTS),
                   default=DEFAULT_GRID_POINTS,
                   help=f"z-grid resolution (default {DEFAULT_GRID_POINTS})")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = subs.add_parser("cdf", help="tabulate z, F_B(z) and the deviation from z")
    _add_common(p)
    p.add_argument("--points", type=_int_at_least("points", 2), default=1001,
                   help="number of z rows (default 1001)")
    p.add_argument("--format", choices=("json", "csv"), default="csv")

    p = subs.add_parser("grid", help="sweep max deviation over an (alpha, beta) lattice")
    for axis in ("alpha", "beta"):
        p.add_argument(f"--{axis}-min", type=_positive(f"{axis}-min"), required=True)
        p.add_argument(f"--{axis}-max", type=_positive(f"{axis}-max"), required=True)
        p.add_argument(f"--{axis}-steps", type=_int_at_least(f"{axis}-steps", 1), required=True)
    _add_common(p, params=False)
    p.add_argument("--summary", action="store_true",
                   help="also print the per-alpha spread of the deviation over beta")
    p.add_argument("--format", choices=("json", "csv"), default="csv")

    p = subs.add_parser("verify", help="cross-check series vs oracle vs Monte Carlo")
    _add_common(p, epsilon_default=1e-8)
    p.add_argument("--samples", type=_int_at_least("samples", 0), default=0,
                   help="Monte Carlo sample size; 0 skips the sampling check (default 0)")
    p.add_argument("--seed", type=_int_at_least("seed", 0), default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = subs.add_parser("sample", help="dump raw draws plus a first-digit histogram")
    _add_common(p, epsilon_default=None)
    p.add_argument("--n", type=_int_at_least("n", 1), default=10000,
                   help="number of draws (default 10000)")
    p.add_argument("--seed", type=_int_at_least("seed", 0), default=0)
    p.add_argument("--format", choices=("json", "csv"), default="csv")

    return parser


def _cmd_deviation(args) -> int:
    params = InvGammaParams(args.alpha, args.beta)
    base = BaseConfig(args.base)
    report = max_deviation(params, base, args.epsilon, args.grid_points)
    metadata = _metadata(params, base, args.epsilon, report.cutoff_m)
    payload = {
        "max_dev": report.max_dev,
        "argmax_z": report.argmax_z,
        "epsilon": report.epsilon,
        "grid_points": report.grid_points,
    }
    if args.format == "json":
        _emit_json(metadata, payload)
    else:
        _emit_metadata_stderr(metadata)
        print("max_dev,argmax_z,epsilon,grid_points")
        print(f"{_fixed(report.max_dev)},{_fixed(report.argmax_z)},"
              f"{_fixed(report.epsilon)},{report.grid_points}")
    return _EXIT_OK


def _cmd_cdf(args) -> int:
    params = InvGammaParams(args.alpha, args.beta)
    base = BaseConfig(args.base)
    trunc = truncation_cutoff(params, base, args.epsilon)
    zs = np.linspace(0.0, 1.0, args.points)
    values = fb_cdf_series_values(zs, params, base, trunc)
    metadata = _metadata(params, base, args.epsilon, trunc.cutoff_m)
    if args.format == "json":
        payload = {
            "z": [float(z) for z in zs],
            "F_B": [float(v) for v in values],
            "deviation": [float(v - z) for z, v in zip(zs, values)],
        }
        _emit_json(metadata, payload)
    else:
        _emit_metadata_stderr(metadata)
        lines = ["z,F_B,deviation"]
        for z, v in zip(zs, values):
            lines.append(f"{z:.6f},{v:.6f},{v - z:.6f}")
        print("\n".join(lines))
    return _EXIT_OK


def _cmd_grid(args) -> int:
    base = BaseConfig(args.base)
    grid = deviation_grid(
        (args.alpha_min, args.alpha_max, args.alpha_steps),
        (args.beta_min, args.beta_max, args.beta_steps),
        base,
        args.epsilon,
    )
    metadata = {
        "alpha_range": [args.alpha_min, args.alpha_max, args.alpha_steps],
        "beta_range": [args.beta_min, args.beta_max, args.beta_steps],
        "base": base.base,
        "epsilon": args.epsilon,
        "certified": True,
        "tool_version": __version__,
    }
    spreads = [(float(a), float(row.max() - row.min()))
               for a, row in zip(grid.alpha_values, grid.dev)]
    if args.format == "json":
        payload = {
            "alpha_values": [float(a) for a in grid.alpha_values],
            "beta_values": [float(b) for b in grid.beta_values],
            "max_dev": [[float(v) for v in row] for row in grid.dev],
        }
        if args.summary:
            payload["row_spread"] = {str(a): s for a, s in spreads}
        _emit_json(metadata, payload)
    else:
        _emit_metadata_stderr(metadata)
        lines = ["alpha,beta,max_dev"]
        for i, a in enumerate(grid.alpha_values):
            for j, b in enumerate(grid.beta_values):
                lines.append(f"{_fixed(a)},{_fixed(b)},{_fixed(grid.dev[i, j])}")
        print("\n".join(lines))
        if args.summary:
            for a, s in spreads:
                print(f"# alpha={_fixed(a)} spread={_fixed(s)}", file=sys.stderr)
    return _EXIT_OK


def _cmd_verify(args) -> int:
    params = InvGammaParams(args.alpha, args.beta)
    base = BaseConfig(args.base)
    trunc = truncation_cutoff(params, base, args.epsilon)

    checks = {}

    zs = np.linspace(0.0, 1.0, 21)
    series = fb_cdf_series_values(zs, params, base, trunc)
    cfg = OracleConfig(k_range=oracle_window(params, base))
    oracle = [fb_cdf_oracle(float(z), params, base, cfg) for z in zs]
    gap = max(abs(float(s) - o) for s, o in zip(series, oracle))
    tol = max(2.0 * args.epsilon, 1e-7)
    checks["series_vs_oracle"] = {"value": gap, "tolerance": tol, "passed": gap <= tol}

    # zs[5], zs[10] and zs[15] are exactly 0.25, 0.5 and 0.75
    wide = OracleConfig(k_range=2 * cfg.k_range)
    residue = max(abs(oracle[i] - fb_cdf_oracle(float(zs[i]), params, base, wide))
                  for i in (5, 10, 15))
    checks["oracle_k_convergence"] = {"value": residue, "tolerance": 1e-12,
                                      "passed": residue <= 1e-12}

    if args.samples > 0:
        batch = sample_invgamma(params, args.samples, args.seed)
        ks = ks_distance(batch, base, params, trunc)
        ks_tol = max(0.005, 2.5 / math.sqrt(args.samples))
        checks["ks_distance"] = {"value": ks, "tolerance": ks_tol, "passed": ks <= ks_tol}

    all_passed = all(c["passed"] for c in checks.values())
    metadata = _metadata(params, base, args.epsilon, trunc.cutoff_m)
    if args.format == "json":
        _emit_json(metadata, {"checks": checks, "passed": all_passed})
    else:
        _emit_metadata_stderr(metadata)
        print("check,value,tolerance,passed")
        for name, c in checks.items():
            print(f"{name},{c['value']!r},{c['tolerance']!r},{c['passed']}")
    if not all_passed:
        failing = ", ".join(name for name, c in checks.items() if not c["passed"])
        print(f"verification failed: {failing}", file=sys.stderr)
        return _EXIT_VERIFY_FAILED
    return _EXIT_OK


def _cmd_sample(args) -> int:
    params = InvGammaParams(args.alpha, args.beta)
    base = BaseConfig(args.base)
    batch = sample_invgamma(params, args.n, args.seed)
    frac = log_mod_1_array(batch.values, base)
    digits = np.clip(np.floor(float(base.base) ** frac).astype(int), 1, base.base - 1)
    counts = np.bincount(digits, minlength=base.base)[1:base.base]
    metadata = {
        "alpha": params.alpha,
        "beta": params.beta,
        "base": base.base,
        "n": args.n,
        "seed": args.seed,
        "generator": "PCG64",
        "tool_version": __version__,
    }
    if args.format == "json":
        payload = {
            "values": [float(v) for v in batch.values],
            "digit_counts": [int(c) for c in counts],
            "digit_freqs": [float(c) / args.n for c in counts],
        }
        _emit_json(metadata, payload)
    else:
        _emit_metadata_stderr(metadata)
        hist = " ".join(f"{d}:{c}" for d, c in enumerate(counts, start=1))
        print(f"# digit_histogram {hist}", file=sys.stderr)
        lines = ["value"]
        lines.extend(repr(float(v)) for v in batch.values)
        print("\n".join(lines))
    return _EXIT_OK


_COMMANDS = {
    "deviation": _cmd_deviation,
    "cdf": _cmd_cdf,
    "grid": _cmd_grid,
    "verify": _cmd_verify,
    "sample": _cmd_sample,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "grid":
            for axis in ("alpha", "beta"):
                if getattr(args, f"{axis}_max") < getattr(args, f"{axis}_min"):
                    parser.error(f"{axis}-max must be >= {axis}-min")
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code) if exc.code is not None else _EXIT_OK
    return _COMMANDS[args.command](args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
