"""Two independent ground-truth channels for the series evaluation.

The first channel sums the defining probability identity directly,
F_B(z) = sum_k [Q(a, beta/B^(z+k)) - Q(a, beta/B^k)], over a window
k in [-K, K] wide enough that both tails underflow.  The second channel
draws reproducible inverse gamma samples and compares empirical
distributions.  Neither touches the gamma-coefficient series, so either
can arbitrate its correctness.
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
    log_mod_1_array,
)
from .series import InvGammaParams, TruncationSpec, fb_cdf_series_values
from .special import regularized_upper_gamma

__all__ = [
    "OracleConfig",
    "SampleBatch",
    "OracleTailWarning",
    "oracle_window",
    "fb_cdf_oracle",
    "sample_invgamma",
    "ks_distance",
]

# beta/G can overflow when a gamma variate underflows; variates this small
# are redrawn (probability is already negligible for the supported shapes).
_MIN_VARIATE = 1e-290

# Stopping tolerance of the incomplete-gamma evaluations in fb_cdf_oracle.
_QUAD_TOL = 1e-12

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
    is one, so no mass near X ~ beta is lost to underflow.
    """
    fz = _as_unit_interval(z)
    a = params.alpha
    b = decompose_significand(params.beta, base).significand
    bb = float(base.base)
    lb = base.log_base
    k_max = cfg.k_range
    k_lo = max(-k_max, -math.floor(_LOG_HUGE / lb) - 1)
    k_hi = min(k_max, math.ceil(_LOG_TINY / lb) + 1)
    terms = []
    for k in range(k_lo, k_hi + 1):
        if -k * lb > _LOG_HUGE:
            # B^-k would overflow: both masses sit above any double, Q = 0 - 0
            terms.append(0.0)
            continue
        # past _LOG_TINY, scale underflows to 0 and the term is Q(a, 0) - Q(a, 0)
        scale = bb ** float(-k)
        hi = b * scale * bb ** (-fz)
        lo = b * scale
        terms.append(regularized_upper_gamma(a, hi, tol=_QUAD_TOL)
                     - regularized_upper_gamma(a, lo, tol=_QUAD_TOL))
    edge = max(abs(terms[0]), abs(terms[-1]))
    if edge > 1e-15:
        warnings.warn(
            f"oracle window K={k_max} leaves boundary mass {edge:.3g}; increase k_range",
            OracleTailWarning,
            stacklevel=2,
        )
    return math.fsum(terms)


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
    (both one-sided gaps, i/n - F and F - (i-1)/n, are taken)."""
    frac = np.sort(log_mod_1_array(batch.values, base))
    model = fb_cdf_series_values(frac, params, base, trunc)
    n = frac.size
    steps = np.arange(1, n + 1, dtype=float) / n
    d_plus = float(np.max(steps - model))
    d_minus = float(np.max(model - (steps - 1.0 / n)))
    return max(d_plus, d_minus)
