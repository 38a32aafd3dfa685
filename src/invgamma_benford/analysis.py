"""Deviation metrics and (alpha, beta) parameter sweeps.

The scalar figure of merit is max over z in [0, 1] of |F_B(z) - z|: zero
exactly when log_B X mod 1 is uniform, i.e. when X follows the reference
first-digit law.  Sweeps evaluate it over rectangular parameter grids in
deterministic row-major order (ascending alpha, then ascending beta), so
repeated runs are bit-identical.  Every evaluation uses the smallest
certified cutoff, which depends on alpha alone, so a row of the sweep (one
alpha, every beta) is one cutoff and one coefficient table.

max_deviation and deviation_grid evaluate the uniform grid z_n = n / N.
There F - z is a real trigonometric polynomial in the N-th roots of
unity, and one real inverse FFT per column gives it at every grid point,
whatever the cutoff and the number of columns (_grid_deviation).
F(0) = 0 and F(1) = 1 by construction, so |F - z| is set to exactly 0 at
z = 0 and z = 1.  numpy.fft starts no worker threads, and a batched
transform gives each column its one-column transform bit for bit, so
every cell of a sweep equals max_deviation bit for bit.  Points that are
not a uniform grid (first_digit_probs here) take Horner's rule.
"""

import math
from dataclasses import dataclass

import numpy as np

from .benford import BaseConfig, _as_epsilon, _as_int, log_mod_1
from .series import (
    InvGammaParams,
    _cdf_coefficients,
    certified_cutoff,
    fb_cdf_series_values,
)

__all__ = [
    "DeviationReport",
    "DeviationGrid",
    "DeviationGridError",
    "max_deviation",
    "deviation_grid",
    "first_digit_probs",
]

DEFAULT_GRID_POINTS = 1001
_MIN_GRID_POINTS = 101


class DeviationGridError(RuntimeError):
    """A sweep cell failed; the message carries the cell coordinates."""


@dataclass(frozen=True)
class DeviationReport:
    """Max |F_B(z) - z| over a uniform closed z grid.

    epsilon is the truncation certificate attached to every evaluated point,
    in every base, and cutoff_m the smallest cutoff that certifies it
    (certified_cutoff).  The true maximum deviation lies within epsilon of
    max_dev, plus the grid-resolution slack (the maximum may fall between
    grid points) and the rounding of the evaluation, one real inverse FFT
    measured within a few 1e-15 of a 40-digit sum of the same coefficients
    (bound in _grid_deviation).  The deviation at z = 0 and z = 1 is set
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
    exactly as evaluated on the grid (_grid_deviation).
    """
    grid_points = _as_int(grid_points, "grid_points", _MIN_GRID_POINTS)
    trunc = certified_cutoff(params.alpha, base, epsilon)
    c = _cdf_coefficients(params.alpha, base, [log_mod_1(params.beta, base)], trunc.cutoff_m)
    dev = _grid_deviation(grid_points, c)[0]
    idx = int(np.argmax(dev))
    return DeviationReport(
        max_dev=float(dev[idx]),
        argmax_z=float(np.linspace(0.0, 1.0, grid_points)[idx]),
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
    [1, B) internally, and the grid records the values as given.  The cutoff
    does not depend on beta, so each alpha row gets one cutoff and one
    coefficient table, and one _grid_deviation call on max_deviation's
    default z grid: dev[i, j] equals max_deviation(alpha_i, beta_j).max_dev
    exactly.  Per-cell failures are re-raised as DeviationGridError naming the cell (a failure of the row
    evaluation names the row); a bad epsilon is a ValueError raised before
    any cell runs.
    """
    eps = _as_epsilon(epsilon)
    alphas = _axis(alpha_range, "alpha")
    betas = _axis(beta_range, "beta")
    dev = np.empty((alphas.size, betas.size))
    for i, a in enumerate(alphas.tolist()):
        thetas = []
        for b in betas.tolist():
            try:
                thetas.append(log_mod_1(b, base))
            except Exception as exc:
                raise DeviationGridError(f"cell alpha={a!r}, beta={b!r}: {exc}") from exc
        try:
            c = _cdf_coefficients(a, base, thetas, certified_cutoff(a, base, eps).cutoff_m)
            dev[i] = _grid_deviation(DEFAULT_GRID_POINTS, c).max(axis=1)
        except Exception as exc:
            raise DeviationGridError(f"row alpha={a!r}: {exc}") from exc
    return DeviationGrid(alpha_values=alphas, beta_values=betas, base=base,
                         dev=dev, epsilon=eps)


def _grid_deviation(points: int, c) -> np.ndarray:
    """|F(z) - z| at z_n = n / N, n = 0..N with N = points - 1, for every
    column of the CDF coefficients c (series._cdf_coefficients): shape
    (columns, points).

    With the tail sums d_j = sum_{k>j} c_k, D = F - z = 2 Re[(w - 1)
    sum_{j<M-1} d_j w^j] = 2 Re sum_{k<M} e_k w^k, where e_0 = -d_0 and
    e_k = c_k.  On the grid, w_n = e^{2 pi i n / N} is an N-th root of
    unity, so e_k folds onto bin k mod N; as D is real, a bin b above N/2
    folds onto bin N - b conjugated, and bins 0 and N/2 (N even), their
    own conjugates, are doubled in real part.  D_n is then one
    np.fft.irfft of length N per column, whatever M is.  A column's values
    do not depend on the other columns: numpy.fft (pocketfft) starts no
    worker threads, and its batched transform along the last axis gives
    each column bit for bit its one-column transform (a module test).
    F(0) = 0 and F(1) = 1 by construction, so D is set to exactly 0 at
    z = 0 and z = 1.

    Rounding.  Let S = sum_k |e_k|, u = 2^-53, gamma_n = n u / (1 - n u),
    f = ceil(M / N) the most e_k of one residue mod N, and gamma = t eta
    / (1 - t eta) with eta = 8 u and t = 2 ceil(log2 N) + 2.  At 0 < n < N
    each computed |D| is within

        e = 2 (sqrt(N) gamma + (1 + sqrt(N) gamma) gamma_{2f}) S

    of |D| at z = n / N exactly, with D from the computed e_k.  A bin sums
    at most 2 f of the e_k, so the bins X_b are within gamma_{2f} S in
    total of their exact sums (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 4); the doubling is exact, and as D_n =
    2 Re sum_{b<=N/2} X_b w_n^b, that moves D by at most 2 gamma_{2f} S.  For a radix-2 transform of length 2^t, Higham
    (Thm 24.2) bounds the 2-norm error of y_n = sum_b X~_b w_n^b, with X~
    the Hermitian extension of the bins to length N, by gamma ||y||_2,
    where ||y||_2 = sqrt(N) ||X~||_2 <= 2 sqrt(N) (1 + gamma_{2f}) S and
    eta = mu + gamma_4 (sqrt(2) + mu) <= 8 u for twiddle factors within
    mu <= 2 u.  pocketfft's real mixed-radix and Bluestein plans are taken
    to have the same form with the stage count doubled plus two, which is
    stated, not proven.  The absolute value is exact.  At N = 1000, e is
    about 1.2e-12 S.  Measured against 40-digit sums of the same table
    entries and phase (tests/mp_reference.py) at 51 of the 1001 points,
    for alpha from 0.1 to 1e5 (M = 1 to 975) in bases 2, 10 and 36, the
    error is at most 1.5e-15.
    """
    n = points - 1
    half = n // 2
    e = np.concatenate((np.zeros((1,) + c.shape[1:]), c))
    e[0] = -np.cumsum(e[::-1], axis=0)[-1]  # -d_0, summed as series._cdf_tails sums it
    e = np.ascontiguousarray(e.transpose(2, 0, 1)).view(complex)[..., 0]  # (columns, M)
    # bins from min(M, N/2 + 1) on are 0, and irfft pads them itself
    x = np.zeros((len(e), min(e.shape[1], half + 1)), complex)
    for s in range(0, e.shape[1], n):  # w_n^N = 1: e_k goes to bin k mod N
        part = e[:, s:s + n]
        low = part[:, :half + 1]
        x[:, :low.shape[1]] += low
        # bins half + 1, half + 2, ... go, conjugated, to N - half - 1, N - half - 2, ...
        x[:, n + 1 - part.shape[1]:n - half][:, ::-1] += part[:, half + 1:].conj()
    x.real[:, 0] *= 2.0
    if n % 2 == 0 and x.shape[1] > half:
        x.real[:, half] *= 2.0
    dev = np.empty((len(x), points))
    np.fft.irfft(x, n, norm="forward", out=dev[:, :n])
    dev[:, 0] = dev[:, n] = 0.0
    return np.abs(dev, out=dev)


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
