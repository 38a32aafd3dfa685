"""Two independent ground-truth channels for the series evaluation.

The first channel sums the defining probability identity directly,
F_B(z) = sum_k [Q(a, beta/B^(z+k)) - Q(a, beta/B^k)], over a window
k in [-K, K] wide enough that both tails underflow.  The second channel
draws reproducible inverse gamma samples and compares empirical
distributions.  Neither the sum nor the sampler uses the gamma-coefficient
series, so either can arbitrate it; ks_distance measures samples against it.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .benford import (
    BaseConfig,
    _as_int,
    _as_unit_interval,
    decompose_significand,
    log_mod_1,
    log_mod_1_array,
)
from .series import InvGammaParams, TruncationSpec, _cdf_residual, _cdf_tails, _cdf_values
from .special import regularized_upper_gamma

__all__ = [
    "OracleConfig",
    "SampleBatch",
    "OracleTailWarning",
    "oracle_window",
    "fb_cdf_oracle",
    "fb_cdf_oracle_values",
    "sample_invgamma",
    "ks_distance",
]

# beta/G can overflow when a gamma variate underflows; variates this small
# are redrawn (probability is already negligible for the supported shapes).
_MIN_VARIATE = 1e-290

# Stopping tolerance of the incomplete-gamma evaluations in fb_cdf_oracle.
_QUAD_TOL = 1e-12

# ks_distance brackets its statistic in blocks of this many sorted samples.
_KS_BLOCK = 16

# oracle_window makes the window's boundary terms smaller than this.
_WINDOW_TAIL = 1e-16

# B^-k overflows once -k ln B exceeds _LOG_HUGE and rounds to 0 once k ln B
# exceeds _LOG_TINY (below half the smallest subnormal, 2^-1075).
_LOG_HUGE = 709.0
_LOG_TINY = 1075 * math.log(2.0)


class OracleTailWarning(UserWarning):
    """The summation window [-K, K] left visible tail mass uncovered."""


@dataclass(frozen=True)
class OracleConfig:
    """Window half-width K of the direct summation.

    The default K = 60 makes both window tails smaller than 1e-300 for
    base 10 with beta in [1, 10) only at shapes alpha >= 5.1: the k = +K
    boundary term is at most (beta * B^-K)^alpha / Gamma(alpha + 1), and at
    alpha = 0.1 it reaches 2.2e-7 for beta = 1 and 2.7e-7 for beta = 9.9.
    oracle_window gives the K a shape and base need (a tail warning fires
    if the window is too small).
    """

    k_range: int = 60

    def __post_init__(self):
        object.__setattr__(self, "k_range", _as_int(self.k_range, "k_range", 1))


def oracle_window(params: InvGammaParams, base: BaseConfig) -> int:
    """Smallest window half-width K (>= 60) whose boundary terms fall below 1e-16.

    The k -> +inf boundary terms scale like (beta * B^-K)^alpha / Gamma(alpha+1),
    which for small shapes decays slowly enough that the default K = 60 is not
    converged.  beta is the canonical scale in [1, B), as in fb_cdf_oracle.
    """
    a = params.alpha
    b = decompose_significand(params.beta, base).significand
    lb = base.log_base
    k_pos = (math.log(b) - (math.log(_WINDOW_TAIL) + math.lgamma(a + 1.0)) / a) / lb
    return max(60, math.ceil(k_pos) + 2)


def fb_cdf_oracle(z, params: InvGammaParams, base: BaseConfig,
                  cfg: OracleConfig = OracleConfig()) -> float:
    """Direct incomplete-gamma summation of F_B(z) over k in [-K, K].

    Every term is a probability mass P(X in [B^k, B^(z+k)]), so the sum is
    increasing in z with total 1 at z = 1.  Warns if the boundary terms at
    |k| = K exceed 1e-15 (window too narrow for the given scale).  Terms
    where B^-k overflows or underflows the double range are exactly zero;
    the loop stops one such term past each end of that range, so the
    result equals the full-window sum and the boundary check reads the
    same terms.  beta is first scaled into [1, B), which leaves the law of
    log_B X mod 1 unchanged and keeps beta * B^-k a double wherever B^-k
    is one, so no mass near X ~ beta is lost to underflow.  Equal, bit for
    bit, to fb_cdf_oracle_values at the one point z.
    """
    return float(_oracle_sums([z], params, base, cfg)[0])


def fb_cdf_oracle_values(zs, params: InvGammaParams, base: BaseConfig,
                         cfg: OracleConfig = OracleConfig()) -> np.ndarray:
    """fb_cdf_oracle at every z of zs, bit for bit, sharing one lower-edge pass.

    The lower-edge masses Q(a, beta B^-k) do not depend on z, so they are
    computed once for all the points; each point warns on its own if its
    boundary terms are too large.
    """
    return np.array(_oracle_sums(zs, params, base, cfg))


def _oracle_sums(zs, params: InvGammaParams, base: BaseConfig, cfg: OracleConfig) -> list:
    """The oracle sums of the public entry points, which call it directly so
    that stacklevel=3 names their caller in the tail warning."""
    fzs = [_as_unit_interval(z) for z in zs]
    a = params.alpha
    b = decompose_significand(params.beta, base).significand
    bb = float(base.base)
    lb = base.log_base
    k_max = cfg.k_range
    k_lo = max(-k_max, -math.floor(_LOG_HUGE / lb) - 1)
    k_hi = min(k_max, math.ceil(_LOG_TINY / lb) + 1)
    # lower edges b B^-k, None where B^-k would overflow: both masses sit
    # above any double and the term is Q = 0 - 0; past _LOG_TINY the scale
    # underflows to 0 and the term is Q(a, 0) - Q(a, 0)
    lows = [None if -k * lb > _LOG_HUGE else b * bb ** float(-k)
            for k in range(k_lo, k_hi + 1)]
    q_lo = [0.0 if lo is None else regularized_upper_gamma(a, lo, tol=_QUAD_TOL)
            for lo in lows]
    sums = []
    for fz in fzs:
        shrink = bb ** (-fz)
        terms = [0.0 if lo is None
                 else regularized_upper_gamma(a, lo * shrink, tol=_QUAD_TOL) - q
                 for lo, q in zip(lows, q_lo)]
        edge = max(abs(terms[0]), abs(terms[-1]))
        if edge > 1e-15:
            warnings.warn(
                f"oracle window K={k_max} leaves boundary mass {edge:.3g}; increase k_range",
                OracleTailWarning,
                stacklevel=3,
            )
        sums.append(math.fsum(terms))
    return sums


@dataclass(frozen=True)
class SampleBatch:
    """Reproducible draws from an inverse gamma law.

    Regenerating with the same seed reproduces values bit-for-bit.  For
    parallel generation use distinct seeds derived as seed + batch index.
    """

    values: np.ndarray
    seed: int
    params: InvGammaParams

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.size < 1:
            raise ValueError("batch must contain at least one value")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise ValueError("all batch values must be positive and finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "seed", _as_int(self.seed, "seed"))


def _gamma_variates(rng: np.random.Generator, shape: float, n: int) -> np.ndarray:
    out = rng.standard_gamma(shape, n)
    for _ in range(500):
        tiny = out < _MIN_VARIATE
        if not tiny.any():
            return out
        out[tiny] = rng.standard_gamma(shape, int(tiny.sum()))
    # only reachable for shapes so small that 1/G routinely exceeds the
    # double range, i.e. the law itself is not representable
    raise ArithmeticError(f"cannot sample finite variates at shape {shape}")


def sample_invgamma(params: InvGammaParams, n, seed) -> SampleBatch:
    """Draw n reproducible inverse gamma variates as beta / Gamma(alpha, 1).

    The generator is numpy's PCG64 seeded explicitly (no global RNG state);
    gamma variates come from its Generator.standard_gamma.
    """
    n = _as_int(n, "n", 1)
    seed = _as_int(seed, "seed", 0)
    rng = np.random.Generator(np.random.PCG64(seed))
    g = _gamma_variates(rng, params.alpha, n)
    return SampleBatch(values=params.beta / g, seed=seed, params=params)


def ks_distance(batch: SampleBatch, base: BaseConfig, params: InvGammaParams,
                trunc: TruncationSpec) -> float:
    """Two-sided sup distance between the empirical CDF of log_B x mod 1
    and the truncated series CDF, evaluated at the sorted sample points
    (both one-sided gaps, i/n - F and F - (i-1)/n, are taken).

    F is evaluated only where the supremum can lie.  The sorted samples
    x_i are cut into blocks lo <= i < hi of _KS_BLOCK samples, and F is
    first evaluated at the first sample of every block and at the last
    sample; their exact gaps bound the statistic from below.  F rises
    across a block, up to its value at the next evaluated sample, so the
    block's gaps are at most hi/n - F(x_lo) and F(x_hi) - lo/n (F at x_n-1
    for the last block).  Every sample of every block whose upper bound
    reaches the lower bound is then evaluated.  Blocks of sorted samples
    keep the rise of F across a block near _KS_BLOCK/n at every alpha,
    where a uniform grid in z prunes almost nothing once the law is
    concentrated (alpha in the thousands).  One coefficient table serves
    both passes, and the series is computed elementwise, so every value,
    and the returned statistic, is the one that evaluating F at all n
    samples gives, bit for bit.
    """
    frac = np.sort(log_mod_1_array(batch.values, base))
    n = frac.size
    d = _cdf_tails(params.alpha, base, [log_mod_1(params.beta, base)], trunc.cutoff_m)
    ends = np.append(np.arange(0, n, _KS_BLOCK), n - 1)
    f_ends = _cdf_values(frac[ends], d)[0]
    best = _largest_gap(ends, f_ends, n)
    # The truncated F falls below monotone by at most twice its truncation
    # error.  The floor covers the rounding of F and of the gaps, and the
    # error of the gamma coefficients (about 1e-13 up to alpha = 1e5) with
    # room to spare; against a statistic of about 1e-3 it costs almost no pruning.
    slack = 2.0 * _cdf_residual(params.alpha, base, trunc.cutoff_m) + 1e-8
    lo = ends[:-1]
    hi = np.minimum(lo + _KS_BLOCK, n)
    upper = np.maximum(hi / n - f_ends[:-1], f_ends[1:] - lo / n) + slack
    idx = np.flatnonzero(np.repeat(upper >= best, hi - lo))
    return max(best, _largest_gap(idx, _cdf_values(frac[idx], d)[0], n))


def _largest_gap(idx, model, n: int) -> float:
    """The largest of i/n - F and F - (i-1)/n at the sorted sample indices idx
    (0-based, so the step is (idx + 1)/n, as np.arange(1, n + 1) / n)."""
    steps = (idx + 1) / n
    return max(float(np.max(steps - model)), float(np.max(model - (steps - 1.0 / n))))
