"""Two independent ground-truth channels for the series evaluation.

The first channel sums the defining probability identity directly,
F_B(z) = sum_k [Q(a, beta/B^(z+k)) - Q(a, beta/B^k)], over a window
k in [-K, K] wide enough that both tails fall below 1e-16; the part of the
window where P(a, x) is a pure power of x is summed in closed form.  The
second channel
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
    _as_unit_interval_array,
    decompose_significand,
    log_mod_1,
    log_mod_1_array,
)
from .series import InvGammaParams, TruncationSpec, _cdf_residual, _cdf_values, _gamma_ratio_table
from .special import _EXP_UNDERFLOW, regularized_upper_gamma

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

# beta/G can overflow when a gamma variate is this small; sample_invgamma
# fails rather than redraw (about 3e-15 per draw at shape 0.05).
_MIN_VARIATE = 1e-290

# Stopping tolerance of the incomplete-gamma evaluations in fb_cdf_oracle.
_QUAD_TOL = 1e-12

# ks_distance brackets its statistic in blocks of this many sorted samples.
_KS_BLOCK = 16

# oracle_window makes the window's boundary terms smaller than this.
_WINDOW_TAIL = 1e-16

# Below x = _POWER_LAW (a + 1) / a, P(a, x) is x^a / Gamma(a + 1) to within
# _POWER_LAW relative, and fb_cdf_oracle sums those terms in closed form.
_POWER_LAW = 2.0 ** -53


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
    if the window is too small).  K truncates: every k in [-K, K] counts,
    and none past it, however far B^-K lies outside the double range (K
    is about 5.3e7 at alpha = 1e-6 in base 2).  The cost does not grow
    with K: past about 44 / ln B terms the window is summed in closed form.
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
    |k| = K exceed 1e-15 (window too narrow for the given scale).  beta is
    first scaled into [1, B), which leaves the law of log_B X mod 1
    unchanged.  Terms that are exact zeros on the large-X side are
    skipped, the transition range goes through regularized_upper_gamma,
    and the terms where P(a, x) = x^a / Gamma(a + 1) to double precision
    are summed as a geometric series (_oracle_sums), so no mass is lost
    where B^-k leaves the double range.  Against a 40-digit direct sum
    (tests/mp_reference.py) the value agrees to within 1e-12 for alpha up
    to 100; that error is the incomplete gamma function's, and the closed
    form adds under 3e-16.  Equal, bit for bit, to fb_cdf_oracle_values at
    the one point z.
    """
    return float(_oracle_sums([z], params, base, cfg)[0])


def fb_cdf_oracle_values(zs, params: InvGammaParams, base: BaseConfig,
                         cfg: OracleConfig = OracleConfig()) -> np.ndarray:
    """fb_cdf_oracle at every z of zs, bit for bit, in one incomplete-gamma call.

    The lower-edge masses Q(a, beta B^-k) do not depend on z, so they are
    computed once for all the points, in the same elementwise
    regularized_upper_gamma call as every point's upper edges; each point
    warns on its own if its boundary terms are too large.
    """
    return _oracle_sums(zs, params, base, cfg)


def _oracle_sums(zs, params: InvGammaParams, base: BaseConfig, cfg: OracleConfig) -> np.ndarray:
    """The oracle sums of the public entry points, which call it directly so
    that stacklevel=3 names their caller in the tail warning.

    Term k is Q(a, y_k) - Q(a, x_k), with lower edge x_k = b B^-k and upper
    edge y_k = x_k B^-z.  The window falls into three parts.

    * k < k_lo, where x_(k+1) >= 2 X0 with
      X0 = max(a + 1, 2 (745 - ln Gamma(a) + a ln(2a) - a)): the tangent of
      a ln x at x = 2a gives x - a ln x >= 745 - ln Gamma(a) from X0 on, so
      regularized_upper_gamma returns an exact 0.0 at both edges and the
      term, exactly 0, is skipped.
    * k_lo <= k < k0: the lower edges and every point's upper edges go to
      one elementwise regularized_upper_gamma call, about
      (ln X0 - ln(2^-53 (a + 1)/a)) / ln B terms, whatever K is.
    * k0 <= k <= K, where x_k <= 2^-53 (a + 1)/a: P(a, x) = (x^a/Gamma(a+1))
      e^-x 1F1(1; a + 1; x) (DLMF 8.7.1) lies within
      [1 - (a x + x^2)/(a + 1), 1] of x^a/Gamma(a + 1), so these terms are
      (b^a/Gamma(a + 1)) B^-ka (1 - B^-za), summed in closed form as a
      finite geometric series, with expm1 for 1 - B^-za and 1 - B^-a so
      that tiny shapes keep their digits.  Their relative deviations fall
      by B per k from 2^-53 (1 + 2^-53 (a + 1)/a^2) at k0, so the closed
      form is off the exact terms by under 3e-16 for alpha >= 1e-6.
    """
    zs = _as_unit_interval_array(zs)
    a = params.alpha
    b = decompose_significand(params.beta, base).significand
    bb = float(base.base)
    lb = base.log_base
    k_max = cfg.k_range
    log_b, lgamma_1 = math.log(b), math.lgamma(a + 1.0)
    x_zero = max(a + 1.0, 2.0 * (-_EXP_UNDERFLOW - math.lgamma(a) + a * math.log(2.0 * a) - a))
    log_x_power = math.log(_POWER_LAW) + math.log1p(a) - math.log(a)
    k_lo = max(-k_max, math.floor((log_b - math.log(x_zero)) / lb) - 1)
    k0 = min(k_max + 1, math.ceil((log_b - log_x_power) / lb))
    x = b * bb ** -np.arange(k_lo, k0, dtype=float)
    q = regularized_upper_gamma(a, np.vstack([x, np.outer(bb ** -zs, x)]), tol=_QUAD_TOL)
    explicit = q[1:] - q[0]
    share = -np.expm1(-a * lb * zs)  # 1 - B^-za
    head = math.exp(a * (log_b - k0 * lb) - lgamma_1)  # b^a B^(-k0 a) / Gamma(a + 1)
    power = head * (math.expm1(-(k_max - k0 + 1) * a * lb) / math.expm1(-a * lb)) * share
    first = explicit[:, 0] if k_lo == -k_max else 0.0
    last = (explicit[:, -1] if k0 > k_max
            else math.exp(a * (log_b - k_max * lb) - lgamma_1) * share)
    edge = np.maximum(np.abs(first), np.abs(last))
    for mass in edge[edge > 1e-15]:
        warnings.warn(
            f"oracle window K={k_max} leaves boundary mass {mass:.3g}; increase k_range",
            OracleTailWarning,
            stacklevel=3,
        )
    return np.array([math.fsum(terms) for terms in np.column_stack([explicit, power]).tolist()])


def _mass_past_window(zs, params: InvGammaParams, base: BaseConfig, k_range: int) -> np.ndarray:
    """The mass b^a B^-(K+1)a (1 - B^-za) / (Gamma(a + 1) (1 - B^-a)) that the
    window [-K, K] leaves out at every z of zs, b the canonical scale.

    For every K >= 60, as oracle_window returns, the terms k > K lie in
    _oracle_sums' power-law regime (k0 <= 1 + 53 ln 2 / ln B <= 54) and sum
    to this geometric tail, and the terms k < -K are exact zeros: their
    edges lie above B^K >= 2^60, past 2 X0 for every alpha below 1e17
    (certified_cutoff refuses alpha from 1e15 on)."""
    a, lb = params.alpha, base.log_base
    b = decompose_significand(params.beta, base).significand
    head = math.exp(a * (math.log(b) - (k_range + 1) * lb) - math.lgamma(a + 1.0))
    return head * np.expm1(-a * lb * np.asarray(zs, dtype=float)) / math.expm1(-a * lb)


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
    tiny = np.count_nonzero(out < _MIN_VARIATE)
    if tiny:
        # beta / G could leave the double range; dropping these draws would
        # condition the sample on X < beta / _MIN_VARIATE
        raise ArithmeticError(f"{tiny / n:.3g} of the gamma variates at shape {shape} fall "
                              f"below {_MIN_VARIATE:g}, so beta / G leaves the double range")
    return out


def sample_invgamma(params: InvGammaParams, n, seed) -> SampleBatch:
    """Draw n reproducible inverse gamma variates as beta / Gamma(alpha, 1).

    The generator is numpy's PCG64 seeded explicitly (no global RNG state);
    gamma variates come from its Generator.standard_gamma.

    Raises:
        ArithmeticError: if a gamma variate falls below 1e-290, where
            beta / G could leave the double range; at alpha = 1e-3 about
            half of the draws do, at alpha = 0.05 about 3e-15 of them.
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
    table = _gamma_ratio_table(params.alpha, base, trunc.cutoff_m)
    theta = log_mod_1(params.beta, base)
    ends = np.append(np.arange(0, n, _KS_BLOCK), n - 1)
    f_ends = _cdf_values(frac[ends], table, theta)
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
    return max(best, _largest_gap(idx, _cdf_values(frac[idx], table, theta), n))


def _largest_gap(idx, model, n: int) -> float:
    """The largest of i/n - F and F - (i-1)/n at the sorted sample indices idx
    (0-based, so the step is (idx + 1)/n, as np.arange(1, n + 1) / n)."""
    steps = (idx + 1) / n
    return max(float(np.max(steps - model)), float(np.max(model - (steps - 1.0 / n))))
