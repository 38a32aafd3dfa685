"""Tests for deviation metrics and parameter-grid sweeps."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import invgamma_benford.analysis as analysis_mod
from invgamma_benford import cli
from invgamma_benford.analysis import deviation_grid, first_digit_probs, max_deviation
from invgamma_benford.benford import BaseConfig, benford_digit_prob, log_mod_1
from invgamma_benford.series import (
    InvGammaParams,
    _gamma_ratio_table,
    _grid_deviation,
    _phase_coefficients,
    certified_cutoff,
    fb_prime_series_values,
    truncation_cutoff,
)
import mp_reference

B10 = BaseConfig(10)

# Locked once against the direct-summation oracle on a 10001-point z grid
# (max_z |sum_k [Q(a, b*10^-(z+k)) - Q(a, b*10^-k)] - z| at alpha = beta = 1).
ORACLE_MAX_DEV_1_1_10 = 0.030532986852751076
# Locked once against the oracle evaluated at z = log10(2).
ORACLE_DIGIT1_1_1_10 = 0.29725359443239374


class TestMaxDeviation:
    def test_regression_against_oracle_constant(self):
        report = max_deviation(InvGammaParams(1.0, 1.0), B10, 1e-6, grid_points=10001)
        assert report.max_dev == pytest.approx(ORACLE_MAX_DEV_1_1_10, abs=2e-6)
        assert report.argmax_z == pytest.approx(0.6252, abs=2e-4)

    def test_near_benford_at_unit_shape(self):
        report = max_deviation(InvGammaParams(1.0, 1.0), B10, 1e-6)
        assert report.max_dev < 0.04  # visually near the diagonal

    def test_alpha_trend(self):
        eps = 1e-6
        d1 = max_deviation(InvGammaParams(1.0, 1.0), B10, eps).max_dev
        d5 = max_deviation(InvGammaParams(5.0, 1.0), B10, eps).max_dev
        d50 = max_deviation(InvGammaParams(50.0, 1.0), B10, eps).max_dev
        assert d50 - d5 > 2 * eps
        assert d5 - d1 > 2 * eps

    def test_beta_decade_invariance(self):
        eps = 1e-6
        ref = max_deviation(InvGammaParams(10.0, 1.0), B10, eps).max_dev
        for m in (-2, -1, 1, 2):
            other = max_deviation(InvGammaParams(10.0, 10.0 ** m), B10, eps).max_dev
            assert abs(ref - other) <= 2 * eps

    def test_grid_refinement_stability(self):
        eps = 1e-6
        p = InvGammaParams(2.0, 3.0)
        coarse = max_deviation(p, B10, eps, grid_points=1001)
        fine = max_deviation(p, B10, eps, grid_points=2001)
        trunc = truncation_cutoff(p, B10, eps)
        slope = fb_prime_series_values(np.linspace(0.0, 1.0, 4001), p, B10, trunc)
        lipschitz = float(np.max(np.abs(slope - 1.0))) + 10 * eps
        assert abs(fine.max_dev - coarse.max_dev) <= eps + lipschitz / 1000.0

    def test_base_two_uncertified(self):
        """Base 2 reports carry the requested epsilon as their certificate."""
        p = InvGammaParams(1.0, 1.0)
        b2 = BaseConfig(2)
        report = max_deviation(p, b2, 0.001)
        assert report.epsilon == 0.001
        assert report.cutoff_m == certified_cutoff(p.alpha, b2, 0.001).cutoff_m
        assert report.max_dev >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            max_deviation(InvGammaParams(1.0, 1.0), B10, 1e-6, grid_points=50)
        with pytest.raises(ValueError):
            max_deviation(InvGammaParams(1.0, 1.0), B10, 0.0)


class TestDeviationGrid:
    def test_degenerate_grid_matches_point_evaluation(self):
        grid = deviation_grid((2.0, 2.0, 1), (3.0, 3.0, 1), B10, 0.001)
        point = max_deviation(InvGammaParams(2.0, 3.0), B10, 0.001)
        assert grid.dev.shape == (1, 1)
        assert grid.dev[0, 0] == point.max_dev

    def test_one_step_axis_takes_its_minimum(self):
        grid = deviation_grid((2.0, 5.0, 1), (3.0, 4.0, 2), B10, 0.001)
        assert grid.alpha_values.tolist() == [2.0]
        point = max_deviation(InvGammaParams(2.0, 3.0), B10, 0.001)
        assert grid.dev[0, 0] == point.max_dev

    def test_row_major_shape_and_certificates(self):
        grid = deviation_grid((0.1, 1.0, 4), (1.0, 9.0, 5), B10, 0.001)
        assert grid.dev.shape == (4, 5)
        assert np.all(grid.dev >= 0.0)
        assert grid.epsilon == 0.001
        assert np.all(np.diff(grid.alpha_values) > 0)
        assert np.all(np.diff(grid.beta_values) > 0)

    def test_bit_identical_reruns(self):
        a = deviation_grid((0.1, 1.0, 5), (1.0, 9.0, 5), B10, 0.001)
        b = deviation_grid((0.1, 1.0, 5), (1.0, 9.0, 5), B10, 0.001)
        assert np.array_equal(a.dev, b.dev)

    def test_beta_spread_smaller_than_alpha_span(self):
        # per-alpha spread over beta stays below the overall alpha effect
        eps = 0.001
        grid = deviation_grid((1.0, 50.0, 4), (1.0, 8.0, 5), B10, eps)
        span = max_deviation(InvGammaParams(50.0, 1.0), B10, eps).max_dev \
            - max_deviation(InvGammaParams(1.0, 1.0), B10, eps).max_dev
        for row in grid.dev:
            assert float(row.max() - row.min()) < span

    def test_row_errors_keep_their_type(self, monkeypatch, capsys):
        """An ArithmeticError of a row reaches the caller as it was raised, and
        grid turns it into exit 3 with one stderr line and empty stdout."""

        class Synthetic(ArithmeticError):
            pass

        real, rows = analysis_mod._grid_deviation, []

        def boom(points, table, thetas):
            rows.append(points)
            if len(rows) == 2:
                raise Synthetic("synthetic row failure")
            return real(points, table, thetas)

        monkeypatch.setattr(analysis_mod, "_grid_deviation", boom)
        with pytest.raises(Synthetic, match="synthetic row failure"):
            deviation_grid((1.0, 2.0, 2), (1.0, 2.0, 2), B10, 0.001)
        rows.clear()
        code = cli.main(["grid", "--alpha-min", "1", "--alpha-max", "2", "--alpha-steps", "2",
                         "--beta-min", "1", "--beta-max", "2", "--beta-steps", "2"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err == "invgamma-benford grid: Synthetic: synthetic row failure\n"

    def test_one_phase_per_beta(self, monkeypatch):
        """The phases log_B beta mod 1 are computed once per grid, not per row."""
        real, betas = analysis_mod.log_mod_1, []

        def counting(x, base):
            betas.append(x)
            return real(x, base)

        monkeypatch.setattr(analysis_mod, "log_mod_1", counting)
        grid = deviation_grid((0.02, 3.0, 4), (1e-4, 5e3, 7), BaseConfig(16), 1e-10)
        assert betas == grid.beta_values.tolist()

    def test_validation(self):
        with pytest.raises(ValueError):
            deviation_grid((0.0, 1.0, 3), (1.0, 2.0, 3), B10, 0.001)
        with pytest.raises(ValueError):
            deviation_grid((1.0, 2.0, 0), (1.0, 2.0, 3), B10, 0.001)
        with pytest.raises(ValueError):
            deviation_grid((2.0, 1.0, 3), (1.0, 2.0, 3), B10, 0.001)
        with pytest.raises(ValueError, match="epsilon"):
            deviation_grid((1.0, 2.0, 3), (1.0, 2.0, 3), B10, 0.0)

    @pytest.mark.parametrize("epsilon", [1.0, 7.0])
    def test_epsilon_at_or_above_one_refused(self, epsilon):
        # |F_B(z) - z| <= 1 always, so such a certificate bounds nothing
        with pytest.raises(ValueError, match="epsilon"):
            deviation_grid((1.0, 2.0, 3), (1.0, 2.0, 3), B10, epsilon)
        with pytest.raises(ValueError, match="epsilon"):
            max_deviation(InvGammaParams(1.0, 1.0), B10, epsilon)

    @pytest.mark.parametrize("base_int", [3, 10, 16])
    @pytest.mark.parametrize("eps", [1e-3, 1e-10])
    def test_every_cell_equals_max_deviation_bitwise(self, base_int, eps):
        # betas lie outside [1, B); the rows' cutoffs differ, each row has one.
        # The second grid has 40 columns, as in a sweep operation, and
        # cutoffs from a few terms to hundreds: a batched inverse FFT gives
        # each column its one-column transform bit for bit
        base = BaseConfig(base_int)
        for alpha_range, beta_range in (((0.02, 3.0, 4), (1e-4, 5e3, 7)),
                                        ((1.0, 1e4, 5), (1e-4, 5e3, 40))):
            grid = deviation_grid(alpha_range, beta_range, base, eps)
            for i, a in enumerate(grid.alpha_values):
                for j, b in enumerate(grid.beta_values):
                    assert grid.dev[i, j] == max_deviation(InvGammaParams(a, b), base,
                                                           eps).max_dev

    def test_one_cutoff_per_row(self, monkeypatch):
        import invgamma_benford.analysis as analysis_mod

        real, alphas = analysis_mod.certified_cutoff, []

        def counting(alpha, base, epsilon):
            alphas.append(alpha)
            return real(alpha, base, epsilon)

        monkeypatch.setattr(analysis_mod, "certified_cutoff", counting)
        grid = deviation_grid((0.02, 3.0, 4), (1e-4, 5e3, 7), BaseConfig(16), 1e-10)
        assert alphas == grid.alpha_values.tolist()

    def test_row_builds_one_table(self, monkeypatch):
        """Each row builds one gamma-ratio table, at its one certified cutoff."""
        base, eps = BaseConfig(16), 1e-10
        real, calls = analysis_mod._gamma_ratio_table, []

        def counting(alpha, base, cutoff_m):
            calls.append((alpha, cutoff_m))
            return real(alpha, base, cutoff_m)

        monkeypatch.setattr(analysis_mod, "_gamma_ratio_table", counting)
        grid = deviation_grid((0.02, 3.0, 4), (1e-4, 5e3, 7), base, eps)
        assert calls == [(a, certified_cutoff(a, base, eps).cutoff_m) for a in grid.alpha_values]

    @pytest.mark.parametrize("alpha, base_int, m_big", [(0.02, 3, 9), (1.7, 10, 30),
                                                        (40.0, 36, 60)])
    def test_table_prefix_equals_smaller_table(self, alpha, base_int, m_big):
        from invgamma_benford.series import _gamma_ratio_table

        base = BaseConfig(base_int)
        big = _gamma_ratio_table(alpha, base, m_big)
        for m in (1, 2, m_big // 2, m_big - 1):
            assert big[:m - 1].tobytes() == _gamma_ratio_table(alpha, base, m).tobytes()


_ZS = np.linspace(0.0, 1.0, 1001)
_U = 2.0 ** -53


def _gamma_n(n):
    return n * _U / (1 - n * _U)


def _fft_rounding_bound(c, n):
    """The bound e of series._grid_deviation on each computed |D|, per
    phase of the CDF coefficients c (_phase_coefficients), for a grid of
    n + 1 points."""
    t = 2 * math.ceil(math.log2(n)) + 2
    gamma = _gamma_n(8 * t)  # t eta / (1 - t eta) with eta = 8 u
    fold = _gamma_n(2 * math.ceil((c.shape[-1] + 1) / n))
    s = np.abs(c.sum(axis=-1)) + np.abs(c).sum(axis=-1)  # |d_0| + sum |c_k|
    return 2 * (math.sqrt(n) * gamma + (1 + math.sqrt(n) * gamma) * fold) * s


class TestFftRows:
    """max_deviation and every deviation_grid row evaluate the grid by one real
    inverse FFT per column, whatever the cutoff."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(log_alpha=st.floats(math.log(1e-6), math.log(1e5)),
           base=st.sampled_from([2, 3, 10, 16, 36, 2 ** 53]),
           log_betas=st.lists(st.floats(math.log(1e-300), math.log(1e300)),
                              min_size=11, max_size=11),
           columns=st.integers(1, 14),
           eps=st.sampled_from([1e-3, 1e-8, 1e-12]))
    @example(log_alpha=math.log(1e-6), base=2, log_betas=[0.0] * 11, columns=14, eps=1e-12)
    @example(log_alpha=math.log(45.0), base=2 ** 53, log_betas=[0.0] * 11, columns=14,
             eps=1e-3)
    @example(log_alpha=math.log(0.1), base=10, log_betas=[0.0] * 11, columns=1, eps=1e-3)
    @example(log_alpha=math.log(1e-3), base=10, log_betas=[0.0] * 11, columns=5, eps=1e-3)
    def test_row_columns_bitwise_and_near_mpmath(self, log_alpha, base, log_betas, columns,
                                                 eps):
        """Each column of a batched row is its one-phase call bit for bit, is
        exactly 0 at z = 0 and z = 1, and lies within the FFT's rounding bound
        of a 40-digit sum of D = F - z from the same table entries and phase
        at z = n / 1000, rounded once."""
        alpha = math.exp(log_alpha)
        if base == 2 ** 53:
            alpha = min(alpha, 50.0)  # the cutoff grows fast in this base
        b = BaseConfig(base)
        betas = [5e-324, 1e300, math.nextafter(float(base), 0.0)]
        betas = (betas + [math.exp(x) for x in log_betas])[:columns]
        thetas = [log_mod_1(beta, b) for beta in betas]
        m = certified_cutoff(alpha, b, eps).cutoff_m
        table = _gamma_ratio_table(alpha, b, m)
        got = _grid_deviation(_ZS.size, table, thetas)
        for theta, row in zip(thetas, got):
            assert _grid_deviation(_ZS.size, table, theta).tobytes() == row.tobytes()
        assert not got[:, [0, -1]].any()  # F(0) = 0 and F(1) = 1 exactly
        if m == 1:  # no terms: F = z
            assert not got.any()
        ns = (137, 500, 863)
        bound = _fft_rounding_bound(_phase_coefficients(table, thetas), _ZS.size - 1)
        for theta, row, e in zip(thetas, got, bound):
            exact = mp_reference.series_sum(table, theta, [f"{n}e-3" for n in ns], deviation=True)
            assert all(abs(row[n] - abs(ref)) <= e for n, ref in zip(ns, exact))

    @pytest.mark.parametrize("alpha", [0.5, 10.0, 45.0, 1e5])
    def test_sweep_row_is_one_transform(self, monkeypatch, alpha):
        """A 40-column sweep row (M = 3, 5, 9 and 341) is one batched real
        inverse FFT."""
        shapes, real = [], np.fft.irfft

        def counting(*args, **kwargs):
            out = real(*args, **kwargs)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(np.fft, "irfft", counting)
        deviation_grid((alpha, alpha, 1), (1.0, 9.99, 40), B10, 1e-3)
        assert shapes == [(40, 1000)]

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 45.0, 100.0, 3000.0, 1e5])
    @pytest.mark.parametrize("base_int", [2, 10, 36])
    def test_rounding_against_mpmath(self, alpha, base_int):
        """|D| against a 40-digit sum of D = F - z from the same table entries
        and phase at z = n / 1000 exactly: at the sweep's epsilon 1e-3 below alpha = 100
        (M = 1 to 12, every sweep row's kernel) and at epsilon 1e-8 from
        there on (M = 7 to 975)."""
        base = BaseConfig(base_int)
        eps = 1e-3 if alpha < 100.0 else 1e-8
        theta = log_mod_1(2.9, base)
        m = certified_cutoff(alpha, base, eps).cutoff_m
        table = _gamma_ratio_table(alpha, base, m)
        got = _grid_deviation(_ZS.size, table, theta)
        ns = range(0, 1001, 20)
        exact = mp_reference.series_sum(table, theta, [f"{n}e-3" for n in ns], deviation=True)
        err = max(abs(got[n] - abs(ref)) for n, ref in zip(ns, exact))
        assert err <= 4e-15
        assert err <= _fft_rounding_bound(_phase_coefficients(table, theta), 1000)

    @pytest.mark.parametrize("alpha", [3.3, 3000.0, 1e5])
    def test_argmax_attains_max_exactly_as_evaluated(self, alpha):
        p = InvGammaParams(alpha, 2.2)
        report = max_deviation(p, B10, 1e-8)
        assert report.cutoff_m == certified_cutoff(alpha, B10, 1e-8).cutoff_m
        table = _gamma_ratio_table(alpha, B10, report.cutoff_m)
        dev = _grid_deviation(report.grid_points, table, log_mod_1(p.beta, B10))
        idx = int(np.argmax(dev))
        assert report.argmax_z == idx / (report.grid_points - 1)
        assert dev[idx] == report.max_dev

    @pytest.mark.parametrize("grid_points", [101, 102])
    def test_folded_cutoff_above_grid_length(self, grid_points):
        """At alpha = 1e5 (M = 627) the coefficients fold onto N = 100 and
        N = 101 (a prime) bins.  The same points from an unfolded transform of
        length 7 N agree within both transforms' stated bounds, and a 40-digit
        sum of D = F - z from the same table entries and phase at z = n / N
        within the folded transform's bound."""
        n = grid_points - 1
        m = certified_cutoff(1e5, B10, 1e-8).cutoff_m
        assert m > n
        thetas = [log_mod_1(beta, B10) for beta in (1.0, 2.2, 7.7)]
        table = _gamma_ratio_table(1e5, B10, m)
        c = _phase_coefficients(table, thetas)
        folded = _grid_deviation(grid_points, table, thetas)
        unfolded = _grid_deviation(7 * n + 1, table, thetas)[:, ::7]
        fft_bound = _fft_rounding_bound(c, n)[:, None]
        assert np.all(np.abs(folded - unfolded) <= fft_bound + _fft_rounding_bound(c, 7 * n)[:, None])
        ns = range(1, n, 9)
        for theta, row, e in zip(thetas, folded, fft_bound[:, 0]):
            exact = mp_reference.series_sum(table, theta, [f"{j}/{n}" for j in ns],
                                            deviation=True)
            assert all(abs(row[j] - abs(ref)) <= e for j, ref in zip(ns, exact))
        report = max_deviation(InvGammaParams(1e5, 2.2), B10, 1e-8, grid_points)
        assert report.max_dev == folded[1].max()


class TestFirstDigitProbs:
    def test_entries_sum_to_one(self):
        eps = 1e-6
        probs = first_digit_probs(InvGammaParams(2.0, 3.0), B10, eps)
        assert probs.shape == (9,)
        assert float(probs.sum()) == pytest.approx(1.0, abs=2 * 9 * eps)

    def test_regression_first_digit(self):
        probs = first_digit_probs(InvGammaParams(1.0, 1.0), B10, 1e-8)
        assert float(probs[0]) == pytest.approx(ORACLE_DIGIT1_1_1_10, abs=2e-8)

    def test_small_shape_close_to_reference(self):
        eps = 1e-6
        p = InvGammaParams(0.5, 1.0)
        probs = first_digit_probs(p, B10, eps)
        dev = max_deviation(p, B10, eps).max_dev
        worst = max(abs(float(probs[d - 1]) - benford_digit_prob(d, B10)) for d in range(1, 10))
        assert worst <= 2.0 * dev

    def test_validation(self):
        with pytest.raises(ValueError):
            first_digit_probs(InvGammaParams(1.0, 1.0), B10, -1.0)
