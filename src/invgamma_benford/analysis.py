"""Deviation metrics and (alpha, beta) parameter sweeps.

The scalar figure of merit is max over z in [0, 1] of |F_B(z) - z|: zero
exactly when log_B X mod 1 is uniform, i.e. when X follows the reference
first-digit law.  Sweeps evaluate it over rectangular parameter grids in
deterministic row-major order (ascending alpha, then ascending beta), so
repeated runs are bit-identical.  Every evaluation uses the smallest
certified cutoff, which depends on alpha alone, so a row of the sweep (one
alpha, every beta) is one cutoff and one coefficient table.

max_deviation and deviation_grid hand series._grid_deviation a gamma-ratio
table and the phase log_B beta mod 1, or a sweep row's phases, and only
take maxima of its uniform grid z_n = n / N here: one real inverse FFT per
phase, whatever the cutoff.  first_digit_probs reads its digit edges off
the same kind of grid through fb_cdf_series_values.  |F - z| is exactly 0
at z = 0 and z = 1, and a batched transform gives each phase its
one-phase transform bit for bit, so every cell of a sweep equals
max_deviation bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .benford import BaseConfig, _as_epsilon, _as_int, log_mod_1
from .series import (
    InvGammaParams,
    _gamma_ratio_table,
    _grid_deviation,
    certified_cutoff,
    fb_cdf_series_values,
)

__all__ = [
    "DeviationReport",
    "DeviationGrid",
    "max_deviation",
    "deviation_grid",
    "first_digit_probs",
]

DEFAULT_GRID_POINTS = 1001
_MIN_GRID_POINTS = 101


@dataclass(frozen=True)
class DeviationReport:
    """Max |F_B(z) - z| over a uniform closed z grid.

    epsilon is the truncation certificate attached to every evaluated point,
    in every base, and cutoff_m the smallest cutoff that certifies it
    (certified_cutoff).  The true maximum deviation lies within epsilon of
    max_dev, plus the grid-resolution slack (the maximum may fall between
    grid points) and the rounding of the evaluation, one real inverse FFT
    measured within a few 1e-15 of a 40-digit sum of the same coefficients
    (bound in series._grid_deviation).  The deviation at z = 0 and z = 1 is set
    to exactly 0, as F_B(0) = 0 and F_B(1) = 1.
    """

    max_dev: float
    argmax_z: float
    epsilon: float
    grid_points: int
    cutoff_m: int


@dataclass(frozen=True)
class DeviationGrid:
    """Row-major deviation sweep: dev[i, j] = max_deviation(alpha_i, beta_j)."""

    alpha_values: np.ndarray
    beta_values: np.ndarray
    base: BaseConfig
    dev: np.ndarray
    epsilon: float

    def __post_init__(self):
        for name in ("alpha_values", "beta_values", "dev"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.dev.shape != (self.alpha_values.size, self.beta_values.size):
            raise ValueError("dev matrix shape does not match the axis lengths")


def max_deviation(params: InvGammaParams, base: BaseConfig, epsilon,
                  grid_points: int = DEFAULT_GRID_POINTS) -> DeviationReport:
    """Evaluate |F_B(z) - z| on a uniform closed grid and report the max.

    The cutoff comes from certified_cutoff(epsilon), so every grid value
    carries the epsilon certificate.  The reported argmax_z attains max_dev
    exactly as evaluated on the grid (series._grid_deviation).
    """
    grid_points = _as_int(grid_points, "grid_points", _MIN_GRID_POINTS)
    trunc = certified_cutoff(params.alpha, base, epsilon)
    table = _gamma_ratio_table(params.alpha, base, trunc.cutoff_m)
    dev = _grid_deviation(grid_points, table, log_mod_1(params.beta, base))
    idx = int(np.argmax(dev))
    return DeviationReport(
        max_dev=float(dev[idx]),
        argmax_z=idx / (grid_points - 1),
        epsilon=trunc.epsilon,
        grid_points=grid_points,
        cutoff_m=trunc.cutoff_m,
    )


def _axis(spec, what: str) -> np.ndarray:
    lo, hi, steps = spec
    lo = float(lo)
    hi = float(hi)
    steps = _as_int(steps, f"{what} steps", 1)
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo <= 0.0 or hi < lo:
        raise ValueError(f"{what} range must satisfy 0 < min <= max, got ({lo}, {hi})")
    return np.linspace(lo, hi, steps)


def deviation_grid(alpha_range, beta_range, base: BaseConfig, epsilon) -> DeviationGrid:
    """max_deviation at every lattice point of (min, max, steps) axis specs.

    Out-of-range beta values are fine: evaluation canonicalizes them into
    [1, B) internally, and the grid records the values as given.  The
    phases log_B beta mod 1 are computed once per grid.  The cutoff does
    not depend on beta, so each alpha row gets one cutoff and one
    coefficient table, and one series._grid_deviation call on
    max_deviation's default z grid: dev[i, j] equals
    max_deviation(alpha_i, beta_j).max_dev exactly.  A bad axis or epsilon
    is a ValueError raised before any row runs; an error of a row, such as
    the OverflowError of a cutoff out of reach, reaches the caller as it
    was raised.
    """
    eps = _as_epsilon(epsilon)
    alphas = _axis(alpha_range, "alpha")
    betas = _axis(beta_range, "beta")
    thetas = [log_mod_1(b, base) for b in betas.tolist()]
    dev = np.empty((alphas.size, betas.size))
    for i, a in enumerate(alphas.tolist()):
        table = _gamma_ratio_table(a, base, certified_cutoff(a, base, eps).cutoff_m)
        dev[i] = _grid_deviation(DEFAULT_GRID_POINTS, table, thetas).max(axis=1)
    return DeviationGrid(alpha_values=alphas, beta_values=betas, base=base,
                         dev=dev, epsilon=eps)


def first_digit_probs(params: InvGammaParams, base: BaseConfig, epsilon) -> np.ndarray:
    """Model probability of each first digit d = 1..B-1.

    Entry d-1 is F_B(log_B(d+1)) - F_B(log_B d), with the top digit closed
    at z = 1 exactly, so the entries telescope to F_B(1) - F_B(0) = 1 up to
    the per-point certificates.
    """
    trunc = certified_cutoff(params.alpha, base, epsilon)
    edges = np.log(np.arange(1, base.base + 1, dtype=float)) / base.log_base
    edges[-1] = 1.0  # log_B(B) exactly
    values = fb_cdf_series_values(edges, params, base, trunc)
    return np.diff(values)
