"""Soundness of the DLMF 5.8.3 tail bound behind every cutoff and residual:
against 30-digit coefficient tails, and as a property of random inputs."""

import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invgamma_benford.benford import BaseConfig
from invgamma_benford.series import (
    InvGammaParams,
    TruncationSpec,
    _tail_bound,
    fb_cdf_series,
    fb_cdf_series_values,
    fb_prime_series,
    fb_prime_series_values,
    truncation_cutoff,
)
from mp_reference import gamma_ratio

CUTOFFS = (1, 2, 5, 20)


def coefficient_tails(alpha, base, ms):
    """sum_{k>=m} |r_k| for each m in ms, at 30 digits, never below the true value.

    |r_k| = |Gamma(alpha + 2 pi i k / ln B)| / Gamma(alpha) decreases in k, so
    from k = 1000 on a block of 64 terms is counted as 64 times its first
    term.  The sum stops once a block adds less than 1e-32 of the total.
    """
    with mpmath.workdps(30):
        lb = mpmath.log(base)
        terms = []
        total = mpmath.mpf(0)
        k = 1
        while True:
            stride = 1 if k < 1000 else 64
            t = stride * abs(gamma_ratio(alpha, 2 * mpmath.pi * k / lb))
            terms.append(t)
            total += t
            k += stride
            if k > max(ms) and t < total * mpmath.mpf(10) ** -32:
                break
        return {m: float(mpmath.fsum(terms[m - 1:])) for m in ms}


@pytest.mark.parametrize("base_int", [2, 3, 10, 36, 10**6, 10**100])
@pytest.mark.parametrize("alpha", [1e-6, 0.1, 1.0, 5.0, 50.0, 1e3, 1e5])
def test_tail_bound_dominates_exact_tails(alpha, base_int):
    # the bound reads only ln B, so a stand-in carries the bases above 2**53
    # that BaseConfig refuses
    base = (BaseConfig(base_int) if base_int <= 2 ** 53
            else SimpleNamespace(log_base=math.log(base_int)))
    for m, exact in coefficient_tails(alpha, base_int, CUTOFFS).items():
        assert _tail_bound(alpha, base, m) >= exact, m


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def _paper_cutoff(alpha, beta, base, eps):
    lb = base.log_base
    t = -(math.log(eps) + math.lgamma(alpha) - math.log(2.0) - alpha * lb - math.log(beta)) / lb
    return math.floor(max(alpha + 1.0, t)) + 1


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(alpha=_log_uniform(1e-6, 300.0), base_int=st.integers(2, 36),
       beta_exp=st.floats(0.0, 1.0, exclude_max=True), eps=_log_uniform(1e-12, 1e-1))
@example(alpha=0.31622776601683794, base_int=36, beta_exp=0.0, eps=1e-12)  # paper's M is short
def test_cutoff_and_residuals_are_sound(alpha, base_int, beta_exp, eps):
    base = BaseConfig(base_int)
    beta = min(base_int ** beta_exp, math.nextafter(base_int, 0.0))
    p = InvGammaParams(alpha, beta)
    trunc = truncation_cutoff(p, base, eps)
    m = trunc.cutoff_m
    more = TruncationSpec(eps, m + 40)
    zs = np.linspace(0.0, 1.0, 2001)
    # the gaps below are truncation error plus a few ulps of summation rounding
    for series, values in ((fb_cdf_series, fb_cdf_series_values),
                           (fb_prime_series, fb_prime_series_values)):
        ref = values(zs, p, base, more)
        gap = float(np.max(np.abs(values(zs, p, base, trunc) - ref)))
        rounding = 8.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(ref))))
        assert gap <= series(0.0, p, base, trunc).residual_bound + rounding
    assert fb_cdf_series(0.0, p, base, trunc).residual_bound <= eps
    if m > _paper_cutoff(alpha, beta, base, eps):
        short = TruncationSpec(eps, m - 1)
        assert fb_cdf_series(0.0, p, base, short).residual_bound > eps
