"""Tests for the log-significand series, the truncation cutoffs and the
tail expressions."""

import cmath
import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invgamma_benford.analysis import max_deviation
from invgamma_benford.benford import BaseConfig, log_mod_1
from invgamma_benford.oracle import OracleConfig, fb_cdf_oracle, oracle_window
from invgamma_benford.series import (
    InvGammaParams,
    SeriesEvaluation,
    TruncationSpec,
    _cdf_residual,
    _cdf_values,
    _gamma_ratio_table,
    _phase_coefficients,
    _readout_plan,
    _tail_bound,
    canonicalize_beta,
    certified_cutoff,
    cutoff_alpha1,
    fb_cdf_series,
    fb_cdf_series_values,
    fb_prime_series,
    fb_prime_series_values,
    tail_bound_alpha1,
    tail_bound_general,
    truncation_cutoff,
)
from invgamma_benford.special import complex_log_gamma
import mp_reference

B10 = BaseConfig(10)


def test_params_validation():
    with pytest.raises(ValueError):
        InvGammaParams(0.0, 1.0)
    with pytest.raises(ValueError):
        InvGammaParams(1.0, -1.0)
    with pytest.raises(ValueError):
        InvGammaParams(math.inf, 1.0)


class TestCanonicalize:
    def test_already_canonical(self):
        p, m = canonicalize_beta(InvGammaParams(1.0, 1.0), B10)
        assert p.beta == 1.0 and m == 0

    def test_one_decade(self):
        p, m = canonicalize_beta(InvGammaParams(1.0, 40.0), B10)
        assert p.beta == 4.0 and m == 1

    def test_three_decades_up(self):
        p, m = canonicalize_beta(InvGammaParams(1.0, 0.004), B10)
        assert p.beta == pytest.approx(4.0, rel=1e-12) and m == -3

    def test_range_and_reconstruction(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            beta = math.exp(rng.uniform(-200.0, 200.0))
            p, m = canonicalize_beta(InvGammaParams(2.0, beta), B10)
            assert 1.0 <= p.beta < 10.0
            assert math.log10(beta) == pytest.approx(m + math.log10(p.beta), abs=1e-10)


class TestTruncationCutoff:
    def test_hand_value_milli(self):
        assert truncation_cutoff(InvGammaParams(1.0, 1.0), B10, 0.001).cutoff_m == 5

    def test_hand_value_half(self):
        # the paper's threshold is 1.60 here, so alpha + 1 = 2 sets M = 3
        assert truncation_cutoff(InvGammaParams(1.0, 1.0), B10, 0.5).cutoff_m == 3

    @pytest.mark.parametrize("epsilon", [1.0, 7.0, 1e300])
    def test_epsilon_at_or_above_one_refused(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be below 1"):
            truncation_cutoff(InvGammaParams(1.0, 1.0), B10, epsilon)

    def test_hand_built_spec_keeps_any_positive_epsilon(self):
        assert TruncationSpec(7.0, 3).epsilon == 7.0

    def test_strictly_exceeds_threshold(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            alpha = rng.uniform(0.05, 60.0)
            beta = rng.uniform(1.0, 10.0)
            eps = 10.0 ** rng.uniform(-10, -1)
            m = truncation_cutoff(InvGammaParams(alpha, beta), B10, eps).cutoff_m
            lb = B10.log_base
            threshold = max(alpha + 1.0,
                            -(math.log(eps) + math.lgamma(alpha) - math.log(2.0)
                              - alpha * lb - math.log(beta)) / lb)
            assert m > threshold

    def test_monotone_in_epsilon(self):
        p = InvGammaParams(2.0, 3.0)
        cuts = [truncation_cutoff(p, B10, eps).cutoff_m for eps in (1e-2, 1e-4, 1e-6, 1e-8)]
        assert all(a <= b for a, b in zip(cuts, cuts[1:]))

    def test_base_two_refused(self):
        """Base 2 is accepted and certified; the paper's M = 12 already meets epsilon."""
        b2 = BaseConfig(2)
        trunc = truncation_cutoff(InvGammaParams(1.0, 1.0), b2, 0.001)
        assert trunc.cutoff_m == 12  # least integer above log2(4 / 0.001)
        assert _cdf_residual(1.0, b2, 12) <= 0.001

    def test_large_base_tight_epsilon_meets_epsilon(self):
        # the paper's rule gives M = 8 here, whose sup error is 9.9e-12
        b36 = BaseConfig(36)
        p = InvGammaParams(0.31622776601683794, 1.0)
        eps = 1e-12
        zs = np.linspace(0.0, 1.0, 20001)
        got = fb_cdf_series_values(zs, p, b36, truncation_cutoff(p, b36, eps))
        ref = fb_cdf_series_values(zs, p, b36, TruncationSpec(eps, 100))
        assert float(np.max(np.abs(got - ref))) <= eps

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            truncation_cutoff(InvGammaParams(1.0, 1.0), B10, 0.0)


class TestCertifiedCutoff:
    def test_hand_values(self):
        assert certified_cutoff(1.0, B10, 0.001).cutoff_m == 2  # the paper's rule gives 5
        cuts = [certified_cutoff(a, B10, 1e-8).cutoff_m for a in (1.0, 5.0, 50.0, 1e3, 1e5)]
        assert cuts == [5, 7, 16, 64, 627]

    @pytest.mark.parametrize("base_int", [2, 10, 36])
    @pytest.mark.parametrize("alpha", [1e-6, 0.1, 1.0, 50.0, 3000.0, 1e5])
    def test_least_cutoff_meeting_epsilon(self, alpha, base_int):
        base = BaseConfig(base_int)
        for eps in 10.0 ** -np.arange(3, 13):
            trunc = certified_cutoff(alpha, base, eps)
            m = trunc.cutoff_m
            assert trunc.epsilon == eps
            assert _cdf_residual(alpha, base, m) <= eps
            assert m == 1 or _cdf_residual(alpha, base, m - 1) > eps

    @pytest.mark.parametrize("base_int", [2, 10, 36])
    def test_one_cutoff_for_every_beta_never_above_the_paper(self, base_int):
        base = BaseConfig(base_int)
        for alpha in (0.01, 0.7, 4.0, 120.0):
            for eps in (1e-3, 1e-8, 1e-12):
                m = certified_cutoff(alpha, base, eps).cutoff_m
                for beta in (1e-300, 0.3, 1.0, 2.5, base_int - 0.01, 7e5, 1e300):
                    p = InvGammaParams(alpha, beta)
                    assert max_deviation(p, base, eps, 101).cutoff_m == m
                    assert m <= truncation_cutoff(p, base, eps).cutoff_m

    def test_max_deviation_holds_at_eight_times_the_cutoff(self):
        zs = np.linspace(0.0, 1.0, 1001)
        for alpha, beta, base_int, eps in [(0.05, 1.0, 10, 1e-3), (0.8, 3.3, 2, 1e-6),
                                           (3.0, 7.7, 36, 1e-8), (40.0, 1.5, 10, 1e-10),
                                           (300.0, 2.2, 16, 1e-8), (2000.0, 9.1, 3, 1e-12)]:
            p, base = InvGammaParams(alpha, beta), BaseConfig(base_int)
            report = max_deviation(p, base, eps)
            wide = fb_cdf_series_values(zs, p, base, TruncationSpec(eps, 8 * report.cutoff_m))
            assert abs(report.max_dev - float(np.max(np.abs(wide - zs)))) <= eps

    def test_large_alpha_is_fast(self):
        p = InvGammaParams(1e5, 3.0)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            max_deviation(p, B10, 1e-8)
            times.append(time.perf_counter() - start)
        assert min(times) < 0.1

    def test_validation(self):
        for alpha in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="alpha"):
                certified_cutoff(alpha, B10, 1e-3)
        for eps in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError, match="epsilon"):
                certified_cutoff(1.0, B10, eps)

    def test_cutoff_out_of_reach_refused(self):
        """At alpha = 1e16 the cutoff for epsilon 1e-3 would be about 1.1e8
        terms; the search stops at 2**20 and names alpha, base and epsilon."""
        with pytest.raises(OverflowError, match=r"alpha=1e\+16 in base 10 .* epsilon=0\.001"):
            certified_cutoff(1e16, B10, 1e-3)

    @pytest.mark.parametrize("base_int", [2, 10, 36, 2 ** 53])
    def test_one_search_serves_the_paper_rule(self, base_int):
        """truncation_cutoff is the paper's start raised to certified_cutoff, which
        is the least M >= start meeting epsilon because the bound never rises in M."""
        base = BaseConfig(base_int)
        lb = base.log_base
        for alpha in np.logspace(-6, 5, 12):
            residuals = [_cdf_residual(alpha, base, m) for m in range(1, 3001)]
            assert all(a >= b for a, b in zip(residuals, residuals[1:])), alpha
            for eps in (0.5, 1e-3, 1e-8, 1e-12, 1e-15):
                m = certified_cutoff(alpha, base, eps).cutoff_m
                for beta in (5e-324, 1.0, 9.99, 1e300):
                    p = InvGammaParams(alpha, beta)
                    canonical, _ = canonicalize_beta(p, base)
                    t = -(math.log(eps) + math.lgamma(alpha) - math.log(2.0) - alpha * lb
                          - math.log(canonical.beta)) / lb
                    start = math.floor(max(alpha + 1.0, t)) + 1
                    got = truncation_cutoff(p, base, eps).cutoff_m
                    assert got == max(start, m)
                    assert _cdf_residual(alpha, base, got) <= eps
                    assert got == start or _cdf_residual(alpha, base, got - 1) > eps


class TestReadout:
    """Every F_B and F_B' value off the uniform grid is read off the grid of an
    inverse FFT by a Taylor step (series._readout)."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(log_alpha=st.floats(math.log(1e-6), math.log(1e5)),
           base=st.sampled_from([2, 3, 7, 10, 16, 36, 2 ** 53]),
           log_beta=st.floats(math.log(1e-300), math.log(1e300)),
           eps=st.sampled_from([1e-3, 1e-8, 1e-12]),
           zs=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
    @example(log_alpha=math.log(1e5), base=36, log_beta=0.0, eps=1e-12, zs=[0.3, 0.61, 0.97])
    @example(log_alpha=math.log(1e-6), base=2, log_beta=0.0, eps=1e-12, zs=[0.0, 0.5, 1.0])
    def test_off_grid_against_mpmath(self, log_alpha, base, log_beta, eps, zs):
        """F within 2e-15 and F' within 2^-50 (1 + 2 sum_k |r_k|) of 40-digit
        sums of the same phased coefficients a_k, at any z, so that only the
        readout's error is measured (at most 4.5e-16 and 2.2e-16 (1 + 2 sum_k
        |r_k|) over 300 random cases); the rounding of the phases k theta
        comes on top."""
        alpha = math.exp(log_alpha)
        if base == 2 ** 53:
            alpha = min(alpha, 50.0)  # the cutoff grows fast in this base
        b, p = BaseConfig(base), InvGammaParams(alpha, math.exp(log_beta))
        trunc = certified_cutoff(alpha, b, eps)
        table = _gamma_ratio_table(alpha, b, trunc.cutoff_m)
        a = _phase_coefficients(table, log_mod_1(p.beta, b), prime=True)
        got = fb_cdf_series_values(zs, p, b, trunc)
        assert np.all(np.abs(got - mp_reference.series_sum(a, 0.0, zs)) <= 2e-15)
        got = fb_prime_series_values(zs, p, b, trunc)
        exact = mp_reference.series_sum(a, 0.0, zs, prime=True)
        assert np.all(np.abs(got - exact) <= 2.0 ** -50 * (1.0 + 2.0 * np.abs(table).sum()))

    @pytest.mark.parametrize("alpha", [1.0, 1e7])
    def test_one_transform_per_order(self, monkeypatch, alpha):
        """A call takes p + 1 inverse FFTs of length n, one (n,) transform per
        Taylor order, whatever the number of points: at most 17, as p <= 16
        for every cutoff (M = 5 and 6,262 here)."""
        calls, real = [], np.fft.irfft

        def counting(*args, **kwargs):
            calls.append(kwargs["out"].shape)
            return real(*args, **kwargs)

        trunc = certified_cutoff(alpha, B10, 1e-8)
        table = _gamma_ratio_table(alpha, B10, trunc.cutoff_m)
        kept, n, p = _readout_plan(np.abs(table) / (2.0 * math.pi * np.arange(1.0, trunc.cutoff_m)))
        monkeypatch.setattr(np.fft, "irfft", counting)
        _cdf_values(np.linspace(0.0, 1.0, 5001), table, 0.3)
        assert calls == [(n,)] * (p + 1)
        assert kept == trunc.cutoff_m - 1 and p + 1 <= 17 and n >= 4 * trunc.cutoff_m

    def test_cutoff_one_sums_no_terms(self):
        """At cutoff 1 no term is summed: F_B is exactly z and F_B' exactly 1."""
        zs = np.linspace(0.0, 1.0, 301)
        b16, trunc = BaseConfig(16), TruncationSpec(1.0, 1)
        for beta in (1.0, 1.4, 4.0, 8.5, 15.9):
            p = InvGammaParams(0.4, beta)
            assert np.array_equal(fb_cdf_series_values(zs, p, b16, trunc), zs)
            assert np.array_equal(fb_prime_series_values(zs, p, b16, trunc), np.ones(301))


class TestTailBounds:
    def test_general_hand_value(self):
        # 10 * (Gamma(1, 10^5) + 10^-5) with the incomplete term fully underflowed
        got = tail_bound_general(InvGammaParams(1.0, 1.0), B10, 5)
        assert got == pytest.approx(1e-4, rel=1e-12)

    def test_general_z_maximized_at_zero(self):
        p = InvGammaParams(2.0, 3.0)
        uniform = tail_bound_general(p, B10, 3)
        for z in np.linspace(0.0, 1.0, 21):
            assert tail_bound_general(p, B10, 3, z=float(z)) <= uniform * (1 + 1e-15)

    def test_general_decreasing_in_cutoff(self):
        p = InvGammaParams(0.7, 2.0)
        vals = [tail_bound_general(p, B10, m) for m in range(1, 12)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_general_requires_canonical_beta(self):
        with pytest.raises(ValueError):
            tail_bound_general(InvGammaParams(1.0, 40.0), B10, 3)

    def test_alpha1_hand_value(self):
        lb = math.log(10.0)
        expected = 4.0 * (math.pi ** 2 + lb) / (math.pi * math.sqrt(lb)) \
            * math.exp(-math.pi ** 2 / lb)
        assert tail_bound_alpha1(B10, 1) == pytest.approx(expected, rel=1e-13)

    def test_alpha1_decreasing(self):
        vals = [tail_bound_alpha1(B10, m) for m in range(1, 40)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-60

    def test_alpha1_below_validity_floor(self):
        with pytest.raises(ValueError):
            tail_bound_alpha1(B10, 0)

    def test_alpha1_sound_against_partial_sums(self):
        # richer partial sum as the oracle for the dropped tail, at shape 1
        rng = np.random.default_rng(31)
        for _ in range(10):
            beta = rng.uniform(1.0, 10.0)
            z = rng.uniform(0.0, 1.0)
            p = InvGammaParams(1.0, beta)
            for m in (3, 5, 8):
                small = fb_prime_series(z, p, B10, TruncationSpec(1.0, m)).value
                big = fb_prime_series(z, p, B10, TruncationSpec(1.0, 8 * m)).value
                assert abs(small - big) <= tail_bound_alpha1(B10, m)


class TestCutoffAlpha1:
    def test_hand_value(self):
        assert cutoff_alpha1(B10, 0.001) == 3

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-8])
    @pytest.mark.parametrize("base", [3, 10, 16])
    def test_forces_tail_below_epsilon(self, eps, base):
        cfg = BaseConfig(base)
        m = cutoff_alpha1(cfg, eps)
        assert tail_bound_alpha1(cfg, m) <= eps

    def test_monotone_in_epsilon(self):
        cuts = [cutoff_alpha1(B10, eps) for eps in (1e-1, 1e-3, 1e-6, 1e-10)]
        assert all(a <= b for a, b in zip(cuts, cuts[1:]))

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            cutoff_alpha1(B10, -1.0)


class TestPrimeSeries:
    def test_cutoff_one_is_exactly_one(self):
        ev = fb_prime_series(0.37, InvGammaParams(2.0, 3.0), B10, TruncationSpec(1.0, 1))
        assert ev.value == 1.0

    def test_trapezoid_integral_is_one(self):
        p = InvGammaParams(1.0, 1.0)
        trunc = truncation_cutoff(p, B10, 1e-8)
        zs = np.linspace(0.0, 1.0, 2001)
        vals = fb_prime_series_values(zs, p, B10, trunc)
        integral = (np.trapezoid if hasattr(np, "trapezoid") else np.trapz)(vals, zs)
        assert abs(integral - 1.0) <= 2e-8 + 1e-6

    def test_matches_finite_difference_of_oracle(self):
        # centered difference at z = 0 through the periodic extension
        p = InvGammaParams(1.0, 1.0)
        trunc = truncation_cutoff(p, B10, 1e-8)
        h = 1e-4
        cfg = OracleConfig()
        upper = fb_cdf_oracle(h, p, B10, cfg)
        lower = fb_cdf_oracle(1.0 - h, p, B10, cfg) - 1.0
        fd = (upper - lower) / (2.0 * h)
        assert fb_prime_series(0.0, p, B10, trunc).value == pytest.approx(fd, abs=1e-5)

    def test_residual_uses_tighter_alpha1_bound(self):
        """At shape 1 the residual is the DLMF bound 2 S, not a paper tail expression."""
        p = InvGammaParams(1.0, 1.0)
        trunc = truncation_cutoff(p, B10, 0.001)
        ev = fb_prime_series(0.2, p, B10, trunc)
        assert ev.residual_bound == 2.0 * _tail_bound(1.0, B10, trunc.cutoff_m)
        zs = np.linspace(0.0, 1.0, 201)
        big = fb_prime_series_values(zs, p, B10, TruncationSpec(1.0, 8 * trunc.cutoff_m))
        gap = float(np.max(np.abs(fb_prime_series_values(zs, p, B10, trunc) - big)))
        assert gap <= ev.residual_bound

    def test_uncertified_for_base_two(self):
        """Base 2 density values carry a residual bound like every other base."""
        b2 = BaseConfig(2)
        p = InvGammaParams(1.0, 1.0)
        ev = fb_prime_series(0.2, p, b2, TruncationSpec(0.001, 9))
        big = fb_prime_series(0.2, p, b2, TruncationSpec(0.001, 72))
        assert ev.residual_bound == 2.0 * _tail_bound(1.0, b2, 9)
        assert abs(ev.value - big.value) <= ev.residual_bound

    def test_residual_bounds_observed_error(self):
        # the paper's tail_bound_general claims 2.5e-37 here; the error is 3.0e-10
        p = InvGammaParams(5.0, 3.0)
        trunc = truncation_cutoff(p, B10, 1e-3)
        zs = np.linspace(0.0, 1.0, 201)
        big = fb_prime_series_values(zs, p, B10, TruncationSpec(1e-3, 8 * trunc.cutoff_m))
        gap = float(np.max(np.abs(fb_prime_series_values(zs, p, B10, trunc) - big)))
        assert gap <= fb_prime_series(0.0, p, B10, trunc).residual_bound

    def test_scalar_matches_vectorized_bitwise(self):
        p = InvGammaParams(2.7, 6.1)
        trunc = truncation_cutoff(p, B10, 1e-8)
        zs = np.linspace(0.0, 1.0, 101)
        vec = fb_prime_series_values(zs, p, B10, trunc)
        scal = np.array([fb_prime_series(float(z), p, B10, trunc).value for z in zs])
        assert np.array_equal(vec, scal)


class TestCdfSeries:
    def test_endpoints_exact(self):
        for alpha, beta in ((0.3, 1.0), (1.0, 1.0), (7.0, 4.2), (50.0, 8.0)):
            p = InvGammaParams(alpha, beta)
            trunc = truncation_cutoff(p, B10, 1e-6)
            assert fb_cdf_series(0.0, p, B10, trunc).value == 0.0
            assert fb_cdf_series(1.0, p, B10, trunc).value == 1.0

    def test_against_direct_summation(self):
        p = InvGammaParams(1.0, 1.0)
        trunc = truncation_cutoff(p, B10, 1e-8)
        oracle = fb_cdf_oracle(0.5, p, B10, OracleConfig(k_range=100))
        assert fb_cdf_series(0.5, p, B10, trunc).value == pytest.approx(oracle, abs=1e-7)

    def test_beta_scale_invariance(self):
        p = InvGammaParams(2.0, 3.0)
        q = InvGammaParams(2.0, 30.0)
        trunc = truncation_cutoff(p, B10, 1e-8)
        for z in np.linspace(0.0, 1.0, 11):
            a = fb_cdf_series(float(z), p, B10, trunc).value
            b = fb_cdf_series(float(z), q, B10, trunc).value
            assert abs(a - b) <= 2e-8

    def test_certification_sound_against_oracle(self):
        # residual_bound + oracle tolerance dominates the observed gap
        rng = np.random.default_rng(41)
        for _ in range(30):
            alpha = rng.uniform(0.01, 50.0)
            beta = rng.uniform(1.0, 10.0)
            z = rng.uniform(0.0, 1.0)
            p = InvGammaParams(alpha, beta)
            trunc = truncation_cutoff(p, B10, 1e-8)
            ev = fb_cdf_series(z, p, B10, trunc)
            oracle = fb_cdf_oracle(z, p, B10, OracleConfig(k_range=oracle_window(p, B10)))
            assert abs(ev.value - oracle) <= ev.residual_bound + 1e-9

    def test_realness_of_paired_terms(self):
        # assemble the two-sided sum in complex arithmetic; the imaginary
        # residue must vanish to rounding
        p = InvGammaParams(3.0, 2.0)
        lb = B10.log_base
        theta = math.log(2.0) / lb
        lg = math.lgamma(3.0)
        for z in (0.1, 0.37, 0.81):
            total = 0j
            for k in range(1, 12):
                for sign in (1.0, -1.0):
                    g = cmath.exp(complex_log_gamma(complex(3.0, sign * 2.0 * math.pi * k / lb)) - lg)
                    phase = cmath.exp(complex(0.0, -sign * 2.0 * math.pi * k * theta))
                    w = cmath.exp(complex(0.0, sign * 2.0 * math.pi * k * z)) - 1.0
                    total += g * phase * w / complex(0.0, sign * 2.0 * math.pi * k)
            assert abs(total.imag) <= 1e-12

    def test_monotone_on_grid_within_slack(self):
        eps = 1e-8
        for alpha, beta in ((0.5, 1.0), (5.0, 4.0)):
            p = InvGammaParams(alpha, beta)
            trunc = truncation_cutoff(p, B10, eps)
            vals = fb_cdf_series_values(np.linspace(0.0, 1.0, 1001), p, B10, trunc)
            assert float(np.min(np.diff(vals))) >= -2.0 * eps

    def test_scalar_matches_vectorized_bitwise(self):
        p = InvGammaParams(2.7, 6.1)
        trunc = truncation_cutoff(p, B10, 1e-8)
        zs = np.linspace(0.0, 1.0, 101)
        vec = fb_cdf_series_values(zs, p, B10, trunc)
        scal = np.array([fb_cdf_series(float(z), p, B10, trunc).value for z in zs])
        assert np.array_equal(vec, scal)

    @pytest.mark.parametrize("alpha", [0.05, 5.0, 300.0, 3000.0])
    def test_kernel_rounding_against_mpmath(self, alpha):
        """Against a 40-digit sum of the same truncated series, built from the same
        table entries and phase, so that only the kernel's rounding is measured."""
        zs = np.array([0.0, 0.03, 0.2, 0.37, 0.5, 0.61, 0.8, 0.97, 1.0])
        for base_int in (2, 10, 36):
            base = BaseConfig(base_int)
            p = InvGammaParams(alpha, 2.9)
            trunc = truncation_cutoff(p, base, 1e-12)
            got = fb_cdf_series_values(zs, p, base, trunc)
            table = _gamma_ratio_table(alpha, base, trunc.cutoff_m)
            exact = mp_reference.series_sum(table, log_mod_1(p.beta, base), zs)
            for z, value, ref in zip(zs, got, exact):
                assert abs(value - ref) <= 1e-14, (base_int, z)

    @pytest.mark.parametrize("base_int, alpha", [(10, 3e3), (10, 1e4), (10, 1e5), (2, 1e4),
                                                 (36, 1e4), (2, 1e5), (36, 1e5), (10, 1e-6),
                                                 (10, 0.05)])
    def test_certificate_against_mpmath(self, base_int, alpha):
        """At epsilon 1e-12, F_B is within its residual bound of a 40-digit
        sum of the whole series, out to alpha = 1e5."""
        base = BaseConfig(base_int)
        trunc = certified_cutoff(alpha, base, 1e-12)
        zs = np.linspace(0.0, 1.0, 9)
        betas = (1.0, 3.3, 7.7)
        for beta, ref in zip(betas, mp_reference.cdf(alpha, base_int, betas, zs)):
            p = InvGammaParams(alpha, beta)
            got = fb_cdf_series_values(zs, p, base, trunc)
            residual = fb_cdf_series(0.0, p, base, trunc).residual_bound
            assert float(np.max(np.abs(got - ref))) <= residual, beta

    @pytest.mark.parametrize("base_int", [3, 16])
    def test_other_bases_match_oracle(self, base_int):
        cfg = BaseConfig(base_int)
        p = InvGammaParams(2.5, 1.4)
        trunc = truncation_cutoff(p, cfg, 1e-8)
        oracle_cfg = OracleConfig(k_range=oracle_window(p, cfg))
        for z in (0.2, 0.55, 0.9):
            got = fb_cdf_series(z, p, cfg, trunc).value
            assert got == pytest.approx(fb_cdf_oracle(z, p, cfg, oracle_cfg), abs=1e-9)

    def test_concurrent_evaluation_matches_serial(self):
        # all evaluation is pure; shared coefficient tables are read-only
        from concurrent.futures import ThreadPoolExecutor

        p = InvGammaParams(3.0, 2.0)
        trunc = truncation_cutoff(p, B10, 1e-8)
        zs = [float(z) for z in np.linspace(0.0, 1.0, 64)]
        serial = [fb_cdf_series(z, p, B10, trunc).value for z in zs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda z: fb_cdf_series(z, p, B10, trunc).value, zs))
        assert serial == threaded

    def test_uncertified_for_base_two(self):
        """Base 2 CDF values carry a residual bound within the requested epsilon."""
        b2 = BaseConfig(2)
        p = InvGammaParams(1.0, 1.0)
        ev = fb_cdf_series(0.5, p, b2, truncation_cutoff(p, b2, 0.001))
        assert ev.residual_bound <= 0.001
        assert 0.0 <= ev.value <= 1.0

    def test_residual_is_requested_epsilon(self):
        """The residual is the bound at the chosen cutoff, at most the requested epsilon."""
        p = InvGammaParams(4.0, 2.0)
        trunc = truncation_cutoff(p, B10, 1e-5)
        ev = fb_cdf_series(0.3, p, B10, trunc)
        assert ev.residual_bound == _cdf_residual(4.0, B10, trunc.cutoff_m)
        assert ev.residual_bound <= 1e-5

    def test_residual_follows_cutoff_not_request(self):
        # a cutoff of 1 drops every term, whatever epsilon the spec records
        p = InvGammaParams(1.0, 1.0)
        ev = fb_cdf_series(0.5, p, B10, TruncationSpec(1e-12, 1))
        full = fb_cdf_series(0.5, p, B10, TruncationSpec(1e-12, 40))
        assert ev.residual_bound >= abs(ev.value - full.value)  # 0.025

    def test_z_domain(self):
        p = InvGammaParams(1.0, 1.0)
        trunc = TruncationSpec(1e-3, 5)
        with pytest.raises(ValueError):
            fb_cdf_series(-0.1, p, B10, trunc)
        with pytest.raises(ValueError):
            fb_cdf_series(1.1, p, B10, trunc)


class TestGammaRatioTable:
    @pytest.mark.parametrize("base_int", [2, 10, 36])
    @pytest.mark.parametrize("alpha", [1e-6, 1e-3, 0.05, 1.49, 1.5, 50.0, 3e3, 1e4, 1e5])
    def test_first_entries_against_mpmath(self, alpha, base_int):
        """r_1..r_7 against 40-digit log-gamma differences at the same y_k.

        The error is taken relative to the largest entry, the scale a sum
        over the table sees.  Entry by entry, the tiny late coefficients at
        small alpha carry the ~2e-13 error of the 9-term Lanczos form near
        Im w = 60, and in base 2 a phase of ~500 rad is 1e-13 per ulp.
        """
        base = BaseConfig(base_int)
        table = _gamma_ratio_table(alpha, base, 8)
        ys = 2.0 * math.pi * np.arange(1.0, 8.0) / base.log_base
        with mpmath.workdps(40):
            ref = np.array([complex(mp_reference.gamma_ratio(alpha, float(y))) for y in ys])
        assert float(np.max(np.abs(table - ref))) <= 1e-13 * float(np.max(np.abs(ref)))


def test_truncation_spec_validation():
    with pytest.raises(ValueError):
        TruncationSpec(0.0, 5)
    with pytest.raises(ValueError):
        TruncationSpec(1e-3, 0)
    with pytest.raises(TypeError):
        TruncationSpec(1e-3, 2.5)


def test_series_evaluation_certified_flag():
    """Every evaluation, in every base, carries a finite float residual bound."""
    p = InvGammaParams(2.0, 3.0)
    for base_int in (2, 3, 10, 36):
        cfg = BaseConfig(base_int)
        trunc = truncation_cutoff(p, cfg, 1e-6)
        for ev in (fb_cdf_series(0.4, p, cfg, trunc), fb_prime_series(0.4, p, cfg, trunc)):
            assert isinstance(ev, SeriesEvaluation)
            assert type(ev.residual_bound) is float and math.isfinite(ev.residual_bound)
