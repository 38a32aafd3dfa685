"""Deviation metrics and (alpha, beta) parameter sweeps.

The scalar figure of merit is max over z in [0, 1] of |F_B(z) - z|: zero
exactly when log_B X mod 1 is uniform, i.e. when X follows the reference
first-digit law.  Sweeps evaluate it over rectangular parameter grids in
deterministic row-major order (ascending alpha, then ascending beta), so
repeated runs are bit-identical.  Every evaluation uses the smallest
certified cutoff, which depends on alpha alone, so a row of the sweep (one
alpha, every beta) is one cutoff and one coefficient table, and
w = e^{2 pi i z} is computed once for the whole grid.

The grid z_n = n / N is uniform, so w_n are the N-th roots of unity and
the series at every grid point is one inverse DFT of the tail sums.  The
method follows from the cutoff M alone (_grid_deviation): M >= _FFT_CUTOFF
(10) takes one inverse FFT per column, smaller M Horner's rule.  numpy.fft
starts no worker threads, and a batched transform gives each column its
one-column transform bit for bit.  A sweep row below _FFT_CUTOFF brackets
its maxima: the kernel runs on every _BRACKET_STRIDE-th z, the slope
bound L = 2 sum_k |r_k| bounds |F - z| inside each block between them,
and a second call evaluates only the blocks whose bound, plus a derived
rounding slack, can beat the column's best value: about a fifth of the
points at sweep settings.  Either way every cell equals max_deviation
bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .benford import BaseConfig, _as_epsilon, _as_int, log_mod_1
from .series import (
    InvGammaParams,
    _cdf_points,
    _cdf_tails,
    _unit_points,
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
# A sweep row first evaluates every _BRACKET_STRIDE-th grid point (the
# stride divides DEFAULT_GRID_POINTS - 1, so the last point is one of
# them), then only the blocks between them that can hold the maximum.
_BRACKET_STRIDE = 10
# Rows with a cutoff of at least _FFT_CUTOFF evaluate every grid point by an
# inverse FFT, smaller ones by Horner's rule.  A 40-column row costs about
# 0.5 ms by FFT at any M; bracketed Horner costs as much near M = 6 to 8
# and about a quarter more at M = 9 (BENCH_21.json).  One column costs less
# by FFT from M = 2 on.  Below M = 10 the FFT saves at most a fifth of a
# 40-column row, and Horner keeps those rows' values as they were, bit for
# bit.
_FFT_CUTOFF = 10
_UNIT_ROUNDOFF = 2.0 ** -53


class DeviationGridError(RuntimeError):
    """A sweep cell failed; the message carries the cell coordinates."""


@dataclass(frozen=True)
class DeviationReport:
    """Max |F_B(z) - z| over a uniform closed z grid.

    epsilon is the truncation certificate attached to every evaluated point,
    in every base, and cutoff_m the smallest cutoff that certifies it
    (certified_cutoff).  The true maximum deviation lies within epsilon of
    max_dev, plus the grid-resolution slack (the maximum may fall between
    grid points) and the rounding of the evaluation: Horner's rule below
    cutoff_m = _FFT_CUTOFF, one inverse FFT from there on, each
    measured within a few 1e-15 of a 40-digit sum of the same coefficients
    (bounds in _block_bounds and _grid_deviation).
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
    zs = np.linspace(0.0, 1.0, grid_points)
    d, _ = _cdf_tails(params.alpha, base, [log_mod_1(params.beta, base)], trunc.cutoff_m)
    dev = _grid_deviation(zs, *_unit_points(zs), d)[0]
    idx = int(np.argmax(dev))
    return DeviationReport(
        max_dev=float(dev[idx]),
        argmax_z=float(zs[idx]),
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
    coefficient table, and its maxima come from _row_maxima on
    max_deviation's default z grid: dev[i, j] equals
    max_deviation(alpha_i, beta_j).max_dev exactly.  Per-cell failures are
    re-raised as DeviationGridError naming the cell (a failure of the row
    evaluation names the row); a bad epsilon is a ValueError raised before
    any cell runs.
    """
    eps = _as_epsilon(epsilon)
    alphas = _axis(alpha_range, "alpha")
    betas = _axis(beta_range, "beta")
    zs = np.linspace(0.0, 1.0, DEFAULT_GRID_POINTS)
    w, v = _unit_points(zs)
    dev = np.empty((alphas.size, betas.size))
    for i, a in enumerate(alphas.tolist()):
        thetas = []
        for b in betas.tolist():
            try:
                thetas.append(log_mod_1(b, base))
            except Exception as exc:
                raise DeviationGridError(f"cell alpha={a!r}, beta={b!r}: {exc}") from exc
        try:
            tails = _cdf_tails(a, base, thetas, certified_cutoff(a, base, eps).cutoff_m)
            dev[i] = _row_maxima(zs, w, v, *tails)
        except Exception as exc:
            raise DeviationGridError(f"row alpha={a!r}: {exc}") from exc
    return DeviationGrid(alpha_values=alphas, beta_values=betas, base=base,
                         dev=dev, epsilon=eps)


def _row_maxima(zs, w, v, d, lipschitz: float) -> np.ndarray:
    """max_z |F(z) - z| for every phase of a row, from the grid zs with its
    unit points w, v and the row's tail sums d with their slope bound L
    (series._cdf_tails).

    Rows with a cutoff M >= _FFT_CUTOFF, and rows with L = 0 (F = z
    exactly), take the maximum of _grid_deviation.  Other rows bracket it:
    the maximum is taken over exactly the values that Horner's rule at
    every z gives, so it is that evaluation's bit for bit; most of them
    are never computed.  D = F - z has |D'| = |F' - 1| <= L = 2 sum_k |r_k|
    for every phase, so inside a block of width h between two evaluated
    points, |D| <= (|D_a| + |D_b| + L h) / 2 (_block_bounds).  Blocks whose
    bound cannot beat the column's largest end value are skipped.  As
    |r_k| <= 1, L < 2 (M - 1) < 2 _FFT_CUTOFF, so L h / 2 < 1 on the
    default grid (h = 1/100), as _block_bounds assumes.
    """
    if len(d) + 1 >= _FFT_CUTOFF or lipschitz == 0.0:
        return _grid_deviation(zs, w, v, d).max(axis=1)
    return _bracketed_maxima(zs, w, v, d, lipschitz)


def _bracketed_maxima(zs, w, v, d, lipschitz: float) -> np.ndarray:
    """_row_maxima from every _BRACKET_STRIDE-th point and the blocks between them."""
    ends = np.arange(0, zs.size, _BRACKET_STRIDE)
    width = float(np.diff(zs[ends]).max())  # exact: differences of nearby doubles
    coarse = _deviation(zs[ends], w[:, None, ends], v[:, ends], d[..., None])
    best = coarse.max(axis=1)
    col, block = np.nonzero(_block_bounds(coarse, lipschitz, width, d) > best[:, None])
    # one kept block per column of pts: the coefficients broadcast down each
    # block, and the long axis of every elementwise call is the blocks'
    pts = ends[block] + np.arange(1, _BRACKET_STRIDE)[:, None]
    inner = _deviation(zs[pts], w[:, pts], v[:, pts], d[:, :, None, col])
    np.maximum.at(best, col, inner.max(axis=0))
    return best


def _grid_deviation(zs, w, v, d) -> np.ndarray:
    """|F(z) - z| at every point of the uniform closed grid zs, with its unit
    points w, v (series._unit_points), for every column of the tail sums d
    (series._cdf_tails): shape (columns, points).

    The method follows from the cutoff M = len(d) + 1 alone, so a column's
    values do not depend on the other columns.  Below _FFT_CUTOFF it is
    Horner's rule (series._cdf_points).  From there on, z_n = n / N with
    N = points - 1 makes w_n = e^{2 pi i n / N} the N-th roots of unity,
    and p_n = sum_j d_j w_n^j is the unnormalised inverse DFT of the d_j
    folded onto j mod N: one np.fft.ifft of length N per column, whatever
    M is.  D = 2 Re(v p) is formed directly, so it is exactly 0 at z = 0
    and z = 1, where v = 0.  numpy.fft (pocketfft) starts no worker
    threads, and its batched transform along the last axis gives each
    column bit for bit its one-column transform (a module test).

    Rounding.  Let S = sum_j |d_j|, u = 2^-53, k = ceil((M - 1) / N) the
    most terms folded into one bin, and gamma = t eta / (1 - t eta) with
    eta = 8 u and t = 2 ceil(log2 N) + 2.  Each computed D is within

        e = (4 sqrt(N) gamma + (102 + 4 k) u) S

    of 2 Re(v p) at z = n / N exactly, with p from the computed d_j.  For
    a radix-2 transform of length 2^t, Higham (Accuracy and Stability of
    Numerical Algorithms, Thm 24.2) bounds the 2-norm error of p by
    t eta / (1 - t eta) times ||p||_2 = sqrt(N) ||d||_2 <= sqrt(N) S, where
    eta = mu + gamma_4 (sqrt(2) + mu) <= 8 u for twiddle factors within
    mu <= 2 u.  pocketfft's mixed-radix and Bluestein plans are taken to
    have the same form with the stage count doubled plus two, which is
    stated, not proven.  |2 v| <= 4 turns that into the first term.  The
    folding adds 4 k u S; v = w - 1 at the rounded z is within 47 u of its
    value at n / N (94 u S); the products with v, the difference and the
    factor 2 add 8 u S.  At N = 1000, e is about 2.5e-12 S.  Measured against
    40-digit sums of the same table entries and phase (tests/mp_reference.py)
    at 143 of the 1001 points, for alpha 100, 3000 and 1e5 in bases 2, 10
    and 36 at epsilon 1e-8, the error is at most 1.8e-15.
    """
    if len(d) + 1 < _FFT_CUTOFF:
        return _deviation(zs, w[:, None], v, d[..., None])
    n = zs.size - 1
    x = np.ascontiguousarray(d.transpose(2, 0, 1)).view(complex)[..., 0]  # (columns, M - 1)
    for s in range(n, x.shape[1], n):  # w_n^N = 1: fold d_j onto j mod N
        part = x[:, s:s + n]
        x[:, :part.shape[1]] += part
    p = np.fft.ifft(x[:, :n], n, norm="forward")
    # in place: fresh temporaries of this size cost more in page faults than
    # the arithmetic
    np.multiply(p.real, v[0, :n], out=p.real)
    np.multiply(p.imag, v[1, :n], out=p.imag)
    dev = np.zeros((len(p), zs.size))  # z = 1 (n = N) has v = 0, as z = 0 does
    np.subtract(p.real, p.imag, out=dev[:, :n])
    dev *= 2.0
    return np.abs(dev, out=dev)


def _deviation(z, w, v, d) -> np.ndarray:
    """|F(z) - z| in the layouts of series._cdf_points."""
    values = _cdf_points(z, w, v, d)
    np.subtract(values, z, out=values)
    return np.abs(values, out=values)


def _block_bounds(coarse, lipschitz: float, width: float, d) -> np.ndarray:
    """Upper bounds on the computed |F - z| inside each block between the
    columns' evaluated points coarse[:, b] and coarse[:, b + 1].

    Let G be F with the computed tail sums d_j taken as exact, M the
    cutoff and S the row's largest sum_j |d_j|.  By the gamma_n analysis
    of Higham (Accuracy and Stability of Numerical Algorithms, ch. 5),
    with gamma_n = n u / (1 - n u) and u = 2^-53, every computed |F - z|
    is within e = gamma_{44 M + 25} (1 + 4 S) of |G - z| at its point:
    the Horner steps give gamma_{4M} S, w = e^{2 pi i z} and v = w - 1
    are within 40 u of exact (pi, sin and cos to one ulp), which moves
    sum_j d_j w^j by at most 40 u M S, and the products with v, the
    factor 2 and the sums with z add a few u S more.  |G' - 1| is at most
    L (1 + gamma_{M+9}) + 18 u M S (L sums M terms, and the cumulative
    sums move each c_k by at most sqrt(2) u |d_{k-1}|), so a block's
    computed values are at most (|D_a| + |D_b| + L h) / 2 + 2 e
    + gamma_{M+9} + 9 h u M S, as L h / 2 < 1 where blocks are bounded.
    With gamma_4 (1 + 4 S) for this bound's own arithmetic, all of it
    lies within the slack gamma_{48 M + 40} (3 + 8 S).  At sweep settings
    that is at most 5e-13, and every block it keeps is one that a bound
    without slack keeps too.
    """
    n = 48 * (len(d) + 1) + 40
    gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    slack = gamma * (3.0 + 8.0 * float(np.abs(d).sum(axis=(0, 1)).max()))
    return (coarse[:, :-1] + coarse[:, 1:] + lipschitz * width) / 2.0 + slack


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
