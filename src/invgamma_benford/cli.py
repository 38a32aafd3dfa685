"""Command-line front end: it parses flags, calls the library and prints.

Subcommands: deviation, cdf, grid, verify, sample.  Each one prints
through _emit: with --format json one envelope {format, metadata,
payload} on stdout and nothing on stderr; with --format csv a "# key=value
..." metadata line and any notes (the grid --summary spreads, the sample
digit histogram) on stderr, then a header and rows on stdout.  Exit codes:
0 success, 1 verification failure, 2 usage error, 3 arithmetic failure (an
ArithmeticError, OverflowError included, escaped the computation; one line
on stderr names it), 141 stdout closed early (128 + SIGPIPE, as for
`| head`).  Every base BaseConfig accepts (2 <= B <= 2**53) is certified:
the metadata key "certified" is always true.  Every flag value is checked
by argparse with the library's own validators, so any bad value (a
non-finite epsilon, an epsilon of 1 or more, a base above 2**53 and a
negative seed included) is a usage error: exit 2 with empty stdout.
Output is buffered and deterministic: identical flags produce
byte-identical stdout.  Samples come from numpy's PCG64 and
Generator.standard_gamma.
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .analysis import DEFAULT_GRID_POINTS, _MIN_GRID_POINTS, deviation_grid, max_deviation
from .benford import BaseConfig, _as_epsilon, _as_int, _as_positive_finite, log_mod_1_array
from .oracle import (
    OracleConfig,
    _mass_past_window,
    fb_cdf_oracle_values,
    ks_distance,
    oracle_window,
    sample_invgamma,
)
from .series import InvGammaParams, canonicalize_beta, certified_cutoff, fb_cdf_series_values

__all__ = ["main", "entry", "build_parser"]

_EXIT_OK = 0
_EXIT_VERIFY_FAILED = 1
_EXIT_ARITHMETIC = 3
_EXIT_CLOSED_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer killed by it


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


def _emit(fmt: str, metadata: dict, payload: dict, header: str, rows, notes=()) -> None:
    """Print one result: the JSON envelope on stdout, or the CSV `header` and
    `rows` on stdout after the metadata line and `notes` on stderr.  `rows`
    is an iterable of lines, read only for CSV."""
    if fmt == "json":
        envelope = {"format": "json", "metadata": metadata, "payload": payload}
        print(json.dumps(envelope, indent=2))
        return
    fields = " ".join(f"{k}={v}" for k, v in metadata.items())
    print(f"# {fields}", file=sys.stderr)
    for note in notes:
        print(note, file=sys.stderr)
    print("\n".join([header, *rows]))


def _add_common(sub, epsilon_default: float | None = 0.001, params: bool = True) -> None:
    """--alpha and --beta (unless `params` is false), --base, and --epsilon
    (unless `epsilon_default` is None)."""
    if params:
        sub.add_argument("--alpha", type=_positive("alpha"), required=True,
                         help="shape parameter (> 0)")
        sub.add_argument("--beta", type=_positive("beta"), required=True,
                         help="scale parameter (> 0)")
    sub.add_argument("--base", type=_usage_type(lambda text: BaseConfig(int(text))),
                     default=BaseConfig(10),
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
    report = max_deviation(params, args.base, args.epsilon, args.grid_points)
    payload = {
        "max_dev": report.max_dev,
        "argmax_z": report.argmax_z,
        "epsilon": report.epsilon,
        "grid_points": report.grid_points,
    }
    rows = (f"{_fixed(r.max_dev)},{_fixed(r.argmax_z)},{_fixed(r.epsilon)},{r.grid_points}"
            for r in [report])
    _emit(args.format, _metadata(params, args.base, args.epsilon, report.cutoff_m), payload,
          "max_dev,argmax_z,epsilon,grid_points", rows)
    return _EXIT_OK


def _cmd_cdf(args) -> int:
    params = InvGammaParams(args.alpha, args.beta)
    trunc = certified_cutoff(params.alpha, args.base, args.epsilon)
    zs = np.linspace(0.0, 1.0, args.points)
    values = fb_cdf_series_values(zs, params, args.base, trunc)
    payload = {"z": zs.tolist(), "F_B": values.tolist(), "deviation": (values - zs).tolist()}
    rows = (f"{z:.6f},{v:.6f},{v - z:.6f}" for z, v in zip(payload["z"], payload["F_B"]))
    _emit(args.format, _metadata(params, args.base, args.epsilon, trunc.cutoff_m), payload,
          "z,F_B,deviation", rows)
    return _EXIT_OK


def _cmd_grid(args) -> int:
    alpha_range = [args.alpha_min, args.alpha_max, args.alpha_steps]
    beta_range = [args.beta_min, args.beta_max, args.beta_steps]
    grid = deviation_grid(alpha_range, beta_range, args.base, args.epsilon)
    metadata = {
        "alpha_range": alpha_range,
        "beta_range": beta_range,
        "base": args.base.base,
        "epsilon": args.epsilon,
        "certified": True,
        "tool_version": __version__,
    }
    payload = {"alpha_values": grid.alpha_values.tolist(),
               "beta_values": grid.beta_values.tolist(), "max_dev": grid.dev.tolist()}
    rows = (f"{_fixed(a)},{_fixed(b)},{_fixed(v)}"
            for a, devs in zip(grid.alpha_values, grid.dev)
            for b, v in zip(grid.beta_values, devs))
    notes = ()
    if args.summary:
        spreads = list(zip(payload["alpha_values"], np.ptp(grid.dev, axis=1).tolist()))
        payload["row_spread"] = {str(a): s for a, s in spreads}
        notes = [f"# alpha={_fixed(a)} spread={_fixed(s)}" for a, s in spreads]
    _emit(args.format, metadata, payload, "alpha,beta,max_dev", rows, notes)
    return _EXIT_OK


def _cmd_verify(args) -> int:
    params = InvGammaParams(args.alpha, args.beta)
    base = args.base
    trunc = certified_cutoff(params.alpha, base, args.epsilon)

    checks = {}

    zs = np.linspace(0.0, 1.0, 21)
    series = fb_cdf_series_values(zs, params, base, trunc)
    cfg = OracleConfig(k_range=oracle_window(params, base))
    oracle = fb_cdf_oracle_values(zs, params, base, cfg)
    gap = float(np.max(np.abs(series - oracle)))
    tol = max(2.0 * args.epsilon, 1e-7)
    checks["series_vs_oracle"] = {"value": gap, "tolerance": tol, "passed": gap <= tol}

    # the mass the window leaves past K, at 0.25, 0.5 and 0.75
    residue = float(np.max(_mass_past_window([0.25, 0.5, 0.75], params, base, cfg.k_range)))
    checks["oracle_k_convergence"] = {"value": residue, "tolerance": 1e-12,
                                      "passed": residue <= 1e-12}

    if args.samples > 0:
        batch = sample_invgamma(params, args.samples, args.seed)
        ks = ks_distance(batch, base, params, trunc)
        ks_tol = max(0.005, 2.5 / math.sqrt(args.samples))
        checks["ks_distance"] = {"value": ks, "tolerance": ks_tol, "passed": ks <= ks_tol}

    all_passed = all(c["passed"] for c in checks.values())
    rows = (f"{name},{c['value']!r},{c['tolerance']!r},{c['passed']}"
            for name, c in checks.items())
    _emit(args.format, _metadata(params, base, args.epsilon, trunc.cutoff_m),
          {"checks": checks, "passed": all_passed}, "check,value,tolerance,passed", rows)
    if not all_passed:
        failing = ", ".join(name for name, c in checks.items() if not c["passed"])
        print(f"verification failed: {failing}", file=sys.stderr)
        return _EXIT_VERIFY_FAILED
    return _EXIT_OK


def _cmd_sample(args) -> int:
    params = InvGammaParams(args.alpha, args.beta)
    base = args.base
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
    payload = {"values": batch.values.tolist(), "digit_counts": counts.tolist(),
               "digit_freqs": (counts / args.n).tolist()}
    hist = " ".join(f"{d}:{c}" for d, c in enumerate(counts, start=1))
    _emit(args.format, metadata, payload, "value", map(repr, payload["values"]),
          [f"# digit_histogram {hist}"])
    return _EXIT_OK


_COMMANDS = {
    "deviation": _cmd_deviation,
    "cdf": _cmd_cdf,
    "grid": _cmd_grid,
    "verify": _cmd_verify,
    "sample": _cmd_sample,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reuses: building one costs more than a fast command runs."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "grid":
            for axis in ("alpha", "beta"):
                if getattr(args, f"{axis}_max") < getattr(args, f"{axis}_min"):
                    parser.error(f"{axis}-max must be >= {axis}-min")
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code) if exc.code is not None else _EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except ArithmeticError as exc:  # every command prints only once its result is complete
        print(f"invgamma-benford {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _EXIT_ARITHMETIC


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe shows here, inside the try
    except BrokenPipeError:
        # point stdout at devnull so the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = _EXIT_CLOSED_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry()
