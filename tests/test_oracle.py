"""Tests for the direct-summation oracle and the Monte Carlo channel."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import mp_reference
from invgamma_benford.benford import BaseConfig, log_mod_1_array
from invgamma_benford.oracle import (
    OracleConfig,
    OracleTailWarning,
    SampleBatch,
    fb_cdf_oracle,
    fb_cdf_oracle_values,
    ks_distance,
    oracle_window,
    sample_invgamma,
)
from invgamma_benford.series import (
    InvGammaParams,
    TruncationSpec,
    certified_cutoff,
    fb_cdf_series,
    fb_cdf_series_values,
    truncation_cutoff,
)
from invgamma_benford.special import regularized_upper_gamma

B10 = BaseConfig(10)


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(k_range=0)


class TestOracle:
    def test_full_period_total_probability(self):
        got = fb_cdf_oracle(1.0, InvGammaParams(2.0, 3.0), B10, OracleConfig())
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_window_shift_matches_beta_scaling(self):
        p = InvGammaParams(2.0, 3.0)
        scaled = InvGammaParams(2.0, 30.0)
        a = fb_cdf_oracle(0.3, p, B10, OracleConfig(k_range=60))
        b = fb_cdf_oracle(0.3, scaled, B10, OracleConfig(k_range=61))
        assert a == pytest.approx(b, abs=1e-12)
        # scales far outside [1, B): the oracle sums over the canonical beta,
        # so no mass near X ~ beta is lost where B^-k underflows
        for alpha, factor in ((0.05, 1e300), (0.2, 1e300), (0.05, 1e-300)):
            p = InvGammaParams(alpha, 3.0)
            scaled = InvGammaParams(alpha, 3.0 * factor)
            a = fb_cdf_oracle(0.3, p, B10, OracleConfig(k_range=oracle_window(p, B10)))
            b = fb_cdf_oracle(0.3, scaled, B10,
                              OracleConfig(k_range=oracle_window(scaled, B10)))
            assert a == pytest.approx(b, abs=1e-12), (alpha, factor)

    def test_self_convergence(self):
        p = InvGammaParams(1.0, 1.0)
        a = fb_cdf_oracle(0.5, p, B10, OracleConfig(k_range=50))
        b = fb_cdf_oracle(0.5, p, B10, OracleConfig(k_range=100))
        assert abs(a - b) <= 1e-12

    def test_increasing_in_z(self):
        p = InvGammaParams(0.8, 2.0)
        cfg = OracleConfig()
        vals = [fb_cdf_oracle(z, p, B10, cfg) for z in np.linspace(0.0, 1.0, 21)]
        assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))
        assert all(-1e-12 <= v <= 1.0 + 1e-10 for v in vals)

    def test_narrow_window_warns(self):
        with pytest.warns(OracleTailWarning):
            fb_cdf_oracle(0.5, InvGammaParams(0.1, 1.0), B10, OracleConfig(k_range=5))

    def test_z_domain(self):
        with pytest.raises(ValueError):
            fb_cdf_oracle(1.5, InvGammaParams(1.0, 1.0), B10, OracleConfig())

    def test_window_helper_silences_small_shapes(self):
        import warnings

        p = InvGammaParams(0.1, 8.0)
        k = oracle_window(p, B10)
        assert k > 60  # the default window is not converged here
        with warnings.catch_warnings():
            warnings.simplefilter("error", OracleTailWarning)
            fb_cdf_oracle(0.5, p, B10, OracleConfig(k_range=k))

    def test_window_helper_defaults_to_sixty(self):
        assert oracle_window(InvGammaParams(2.0, 3.0), B10) == 60

    def test_incomplete_gamma_elements_stay_few_at_tiny_shapes(self, monkeypatch):
        """At alpha = 1e-6 in base 2 the window has ~5e7 k on each side, but
        only the transition range, 46 k, reaches the incomplete gamma
        function: past it the terms are exact zeros or summed in closed form."""
        import invgamma_benford.oracle as oracle_mod

        real = oracle_mod.regularized_upper_gamma
        elements = []

        def counted(alpha, x, **kwargs):
            elements.append(np.size(x))
            return real(alpha, x, **kwargs)

        monkeypatch.setattr(oracle_mod, "regularized_upper_gamma", counted)
        p = InvGammaParams(1e-6, 1.0)
        b2 = BaseConfig(2)
        k = oracle_window(p, b2)
        assert k > 5 * 10 ** 7
        for zs in ([0.5], np.linspace(0.0, 1.0, 21)):
            elements.clear()
            fb_cdf_oracle_values(zs, p, b2, OracleConfig(k_range=k))
            assert len(elements) == 1
            assert 0 < elements[0] <= 200 * len(zs)

    def test_window_past_the_double_range_agrees(self):
        """B^-1603 underflows, but the terms past it still carry mass
        (10^(-16 z) at alpha = 0.01) and are summed, not dropped."""
        p = InvGammaParams(0.01, 1.0)
        assert oracle_window(p, B10) == 1603
        for z in (0.0, 0.3, 0.7, 1.0):
            a = fb_cdf_oracle(z, p, B10, OracleConfig(k_range=1603))
            b = fb_cdf_oracle(z, p, B10, OracleConfig(k_range=4000))
            assert abs(a - b) <= 1e-15
            assert b - a >= 0.0

    @pytest.mark.parametrize("alpha,beta,base,k1,k2", [
        (0.05, 2.5, 10, 30, 300), (0.01, 1.0, 2, 60, 1000), (1e-3, 7.0, 16, 80, 250)])
    def test_closed_form_part_matches_explicit_terms(self, alpha, beta, base, k1, k2):
        """Widening the window from K1 to K2, both past the transition range
        and with B^-K2 still a normal double, adds only closed-form terms.
        Their sum must match the same k summed one by one through
        regularized_upper_gamma, within the closed form's bound (3e-16) plus
        the rounding of each explicit Q difference (four units of 2^-53
        each, as Q = 1 - P rounds to an ulp of 1)."""
        p, b = InvGammaParams(alpha, beta), BaseConfig(base)
        bb = float(base)
        x = beta * bb ** -np.arange(k1 + 1, k2 + 1, dtype=float)
        for z in (0.3, 0.7, 1.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", OracleTailWarning)
                added = (fb_cdf_oracle(z, p, b, OracleConfig(k_range=k2))
                         - fb_cdf_oracle(z, p, b, OracleConfig(k_range=k1)))
            terms = (regularized_upper_gamma(alpha, x * bb ** -z, tol=1e-15)
                     - regularized_upper_gamma(alpha, x, tol=1e-15))
            explicit = math.fsum(terms.tolist())
            assert explicit > 1e-3
            bound = 3e-16 + (k2 - k1) * 4 * 2.0 ** -53 + 4 * 2.0 ** -53
            assert abs(added - explicit) <= bound

    def test_truncated_window_shows_its_tail_mass(self):
        """At alpha = 1e-3 in base 10 about half the mass lies past k = 300,
        where B^-k is still a double but the old sum stopped at its range;
        K = 300 must now read visibly below the converged window."""
        p = InvGammaParams(1e-3, 1.0)
        with pytest.warns(OracleTailWarning):
            narrow = fb_cdf_oracle(0.5, p, B10, OracleConfig(k_range=300))
        full = fb_cdf_oracle(0.5, p, B10, OracleConfig(k_range=oracle_window(p, B10)))
        assert full - narrow > 1e-3
        assert full == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("alpha", [1e-6, 1e-5, 1e-3, 0.01])
    @pytest.mark.parametrize("base", [2, 10])
    def test_matches_series_at_small_shapes(self, alpha, base):
        """At epsilon = 1e-12 the series and the oracle at its window agree
        to 1e-10 at verify's 21 points."""
        p, b = InvGammaParams(alpha, 1.0), BaseConfig(base)
        zs = np.linspace(0.0, 1.0, 21)
        series = fb_cdf_series_values(zs, p, b, certified_cutoff(alpha, b, 1e-12))
        with warnings.catch_warnings():
            warnings.simplefilter("error", OracleTailWarning)
            oracle = fb_cdf_oracle_values(zs, p, b, OracleConfig(k_range=oracle_window(p, b)))
        assert np.max(np.abs(series - oracle)) <= 1e-10

    @pytest.mark.parametrize("alpha,beta,base,z,k_range", [
        (1e-3, 1.0, 10, 0.5, 300),  # closed form: k in [13, 300], 0.235 of 0.250
        (0.017, 3.7, 10, 0.3, None),  # closed form about half of F
        (0.017, 1.0, 2, 0.7, 600),
        (0.5, 2.0, 10, 0.4, None),
    ])
    def test_matches_40_digit_direct_sum(self, alpha, beta, base, z, k_range):
        """Against mpmath's regularized incomplete gamma summed term by term
        over the same window; 1e-12 is the oracle's stated accuracy."""
        p, b = InvGammaParams(alpha, beta), BaseConfig(base)
        k = k_range or oracle_window(p, b)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OracleTailWarning)
            got = fb_cdf_oracle(z, p, b, OracleConfig(k_range=k))
        assert abs(got - mp_reference.oracle_sum(alpha, beta, base, z, k)) <= 1e-12

    def test_matches_series_within_certificate_on_acceptance_grid(self):
        eps = 1e-8
        for a in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
            for b in (1.0, 2.0, 4.0, 8.0):
                p = InvGammaParams(a, b)
                trunc = truncation_cutoff(p, B10, eps)
                cfg = OracleConfig(k_range=oracle_window(p, B10))
                for z in (0.0, 0.3, 0.7, 1.0):
                    ev = fb_cdf_series(z, p, B10, trunc)
                    gap = abs(ev.value - fb_cdf_oracle(z, p, B10, cfg))
                    assert gap <= ev.residual_bound + 1e-9


class TestOracleValues:
    @pytest.mark.parametrize("alpha,beta,base", [(0.05, 1.0, 10), (1.0, 3.0, 10),
                                                 (2.7, 6.1, 3), (40.0, 0.2, 16)])
    def test_matches_one_point_calls_bit_for_bit(self, alpha, beta, base):
        p, b = InvGammaParams(alpha, beta), BaseConfig(base)
        cfg = OracleConfig(k_range=oracle_window(p, b))
        zs = np.linspace(0.0, 1.0, 21)
        got = fb_cdf_oracle_values(zs, p, b, cfg)
        assert [float(v).hex() for v in got] == [fb_cdf_oracle(z, p, b, cfg).hex() for z in zs]

    def test_narrow_window_warns_once_per_point(self):
        p, cfg = InvGammaParams(0.1, 1.0), OracleConfig(k_range=5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fb_cdf_oracle_values([0.0, 0.25, 0.5, 1.0], p, B10, cfg)
            fb_cdf_oracle(0.5, p, B10, cfg)
        # every term is exactly zero at z = 0, so three of the four points warn,
        # and the one-point call once
        assert len(caught) == 4
        assert all(issubclass(w.category, OracleTailWarning) for w in caught)
        assert all(w.filename == __file__ for w in caught)  # the caller is named


class TestSampler:
    def test_mean_for_shape_three(self):
        batch = sample_invgamma(InvGammaParams(3.0, 2.0), 10 ** 6, 123)
        # mean is beta/(alpha-1) = 1 for alpha 3, beta 2
        assert float(batch.values.mean()) == pytest.approx(1.0, abs=0.01)

    def test_reproducible_bit_for_bit(self):
        p = InvGammaParams(2.5, 1.5)
        a = sample_invgamma(p, 5000, 42)
        b = sample_invgamma(p, 5000, 42)
        assert np.array_equal(a.values, b.values)
        c = sample_invgamma(p, 5000, 43)
        assert not np.array_equal(a.values, c.values)

    def test_tiny_variates_fail_loudly(self):
        """At alpha = 1e-3 about half the gamma variates fall below 1e-290;
        the sampler fails instead of conditioning the sample on X < beta 1e290."""
        with pytest.raises(ArithmeticError, match=r"of the gamma variates at shape 0\.001"):
            sample_invgamma(InvGammaParams(1e-3, 1.0), 1000, 1)

    def test_stream_is_plain_standard_gamma(self):
        """At alpha = 0.05 a tiny draw has probability about 3e-15, and the
        batch is beta / G for the generator's first n variates."""
        p = InvGammaParams(0.05, 2.0)
        g = np.random.Generator(np.random.PCG64(8)).standard_gamma(0.05, 100_000)
        assert np.array_equal(sample_invgamma(p, 100_000, 8).values, 2.0 / g)

    def test_empirical_cdf_shape_one(self):
        batch = sample_invgamma(InvGammaParams(1.0, 1.0), 10 ** 5, 7)
        frac_below = float(np.mean(batch.values <= 1.0))
        assert frac_below == pytest.approx(math.exp(-1.0), abs=0.005)

    @pytest.mark.parametrize("alpha,beta", [(0.5, 2.0), (1.0, 1.0), (5.0, 4.0)])
    def test_reciprocal_is_gamma_distributed(self, alpha, beta):
        batch = sample_invgamma(InvGammaParams(alpha, beta), 10 ** 5, 77)
        res = stats.kstest(beta / batch.values, "gamma", args=(alpha,))
        assert res.pvalue >= 1e-3

    def test_all_values_positive_finite(self):
        batch = sample_invgamma(InvGammaParams(0.05, 1.0), 20000, 5)
        assert np.all(np.isfinite(batch.values)) and np.all(batch.values > 0)

    def test_batch_is_read_only(self):
        batch = sample_invgamma(InvGammaParams(1.0, 1.0), 10, 1)
        with pytest.raises(ValueError):
            batch.values[0] = 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_invgamma(InvGammaParams(1.0, 1.0), 0, 1)
        with pytest.raises(TypeError):
            sample_invgamma(InvGammaParams(1.0, 1.0), 2.5, 1)


def _ks_brute(batch, base, params, trunc):
    """The statistic from F at every sorted sample, the reference for ks_distance."""
    frac = np.sort(log_mod_1_array(batch.values, base))
    model = fb_cdf_series_values(frac, params, base, trunc)
    n = frac.size
    steps = np.arange(1, n + 1, dtype=float) / n
    return max(float(np.max(steps - model)), float(np.max(model - (steps - 1.0 / n))))


class TestKsDistance:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(log_alpha=st.floats(math.log(1e-2), math.log(1e5)),
           beta=st.floats(1e-3, 1e3), base=st.integers(2, 36),
           log_n=st.floats(0.0, math.log(3e5)), seed=st.integers(0, 2 ** 32),
           epsilon=st.sampled_from([1e-3, 1e-8, 1e-12]))
    @example(log_alpha=math.log(1e5), beta=1.0, base=10, log_n=math.log(3e5), seed=1,
             epsilon=1e-8)
    @example(log_alpha=0.0, beta=1.0, base=10, log_n=0.0, seed=3, epsilon=1e-8)
    def test_bit_identical_to_all_points(self, log_alpha, beta, base, log_n, seed, epsilon):
        p, b = InvGammaParams(math.exp(log_alpha), beta), BaseConfig(base)
        trunc = certified_cutoff(p.alpha, b, epsilon)
        batch = sample_invgamma(p, round(math.exp(log_n)), seed)
        assert ks_distance(batch, b, p, trunc).hex() == _ks_brute(batch, b, p, trunc).hex()

    @pytest.mark.parametrize("values", [[2.5] * 64, [1.0], [10.0] * 5 + [3.0, 0.01, 7.0],
                                        [1.0, 1e-3, 100.0] * 100,
                                        [math.nextafter(1.0, 0.0)] * 3 + [2.0]])
    def test_bit_identical_on_hand_built_batches(self, values):
        """Constant batches, one sample, samples at exactly z = 0, and samples whose
        log_B x mod 1 rounds to 1.0 (x just below 1 in base 10); each at the
        certified cutoff and at a hand-built cutoff 2, whose truncation error
        of about 6e-4 widens every bound."""
        p = InvGammaParams(1.0, 1.0)
        batch = SampleBatch(values=np.array(values), seed=0, params=p)
        for trunc in (certified_cutoff(1.0, B10, 1e-8), TruncationSpec(1e-8, cutoff_m=2)):
            assert (ks_distance(batch, B10, p, trunc).hex()
                    == _ks_brute(batch, B10, p, trunc).hex())

    @pytest.mark.parametrize("alpha,base", [(0.4, 10), (3.0, 3), (60.0, 16)])
    def test_bit_identical_on_near_ties(self, alpha, base):
        """Samples at F^-1((i - 1/2)/n): every gap is near 1/(2n), so the cells
        compete to within rounding and only the bound decides what is pruned."""
        p, b = InvGammaParams(alpha, 1.0), BaseConfig(base)
        trunc = certified_cutoff(alpha, b, 1e-8)
        z = np.linspace(0.0, 1.0, 200_001)
        n = 20_000
        frac = np.interp((np.arange(n) + 0.5) / n, fb_cdf_series_values(z, p, b, trunc), z)
        batch = SampleBatch(values=float(base) ** frac, seed=0, params=p)
        assert ks_distance(batch, b, p, trunc).hex() == _ks_brute(batch, b, p, trunc).hex()

    def test_bit_identical_with_cutoff_two(self):
        """A slack near the statistic keeps many more blocks than the certified
        cutoff does."""
        p, b = InvGammaParams(0.3, 2.0), BaseConfig(16)
        batch = sample_invgamma(p, 20000, 4)
        trunc = TruncationSpec(1e-8, cutoff_m=2)
        assert ks_distance(batch, b, p, trunc).hex() == _ks_brute(batch, b, p, trunc).hex()

    def test_model_samples_are_close(self):
        p = InvGammaParams(5.0, 4.0)
        trunc = truncation_cutoff(p, B10, 1e-8)
        batch = sample_invgamma(p, 200000, 99)
        assert ks_distance(batch, B10, p, trunc) <= 0.005

    def test_constant_batch(self):
        from invgamma_benford.benford import log_mod_1
        from invgamma_benford.series import fb_cdf_series

        p = InvGammaParams(1.0, 1.0)
        trunc = truncation_cutoff(p, B10, 1e-8)
        c = 2.5
        batch = SampleBatch(values=np.full(64, c), seed=0, params=p)
        z_c = log_mod_1(c, B10)
        f = fb_cdf_series(z_c, p, B10, trunc).value
        assert ks_distance(batch, B10, p, trunc) == pytest.approx(max(f, 1.0 - f), abs=1e-12)

    @pytest.mark.parametrize("alpha, beta, base", [(4.081514860683259, 1.4031827778033448, 16),
                                                   (0.05, 1.0, 3), (12.0, 1.9, 16)])
    def test_statistic_follows_kolmogorov_law_over_seeds(self, alpha, beta, base):
        """Over 300 seeds, the statistics of n model samples follow the exact
        one-sample law of the KS statistic for n.  The first setting is a
        verify operation whose statistic exceeded 2.5 / sqrt(n)."""
        p, b, n = InvGammaParams(alpha, beta), BaseConfig(base), 2000
        trunc = certified_cutoff(alpha, b, 1e-8)
        ds = [ks_distance(sample_invgamma(p, n, s), b, p, trunc) for s in range(300)]
        assert stats.kstest(ds, stats.kstwo(n).cdf).pvalue >= 1e-3

    def test_invariant_under_base_scaling(self):
        p = InvGammaParams(2.0, 3.0)
        trunc = truncation_cutoff(p, B10, 1e-8)
        batch = sample_invgamma(p, 5000, 11)
        scaled = SampleBatch(values=batch.values * 10.0, seed=11, params=p)
        a = ks_distance(batch, B10, p, trunc)
        b = ks_distance(scaled, B10, p, trunc)
        assert a == pytest.approx(b, abs=1e-9)


def test_sample_batch_validation():
    p = InvGammaParams(1.0, 1.0)
    with pytest.raises(ValueError):
        SampleBatch(values=np.array([]), seed=0, params=p)
    with pytest.raises(ValueError):
        SampleBatch(values=np.array([1.0, -1.0]), seed=0, params=p)
