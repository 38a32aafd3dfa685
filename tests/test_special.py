"""Accuracy and contract tests for the gamma-function building blocks."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaincc
from scipy.special import loggamma as scipy_loggamma

from invgamma_benford.special import complex_log_gamma, regularized_upper_gamma


class TestComplexLogGamma:
    def test_gamma_of_one_is_one(self):
        assert complex_log_gamma(1 + 0j) == pytest.approx(0.0, abs=1e-14)

    def test_gamma_of_half_is_sqrt_pi(self):
        got = complex_log_gamma(0.5 + 0j)
        assert got.real == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-14)
        assert got.imag == 0.0

    def test_abs_gamma_one_plus_i(self):
        # |Gamma(1+ix)|^2 = pi*x/sinh(pi*x), evaluated at x = 1
        got = abs(cmath.exp(complex_log_gamma(1 + 1j))) ** 2
        assert got == pytest.approx(math.pi / math.sinh(math.pi), rel=1e-12)

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
    def test_imaginary_axis_identity(self, x):
        lg = complex_log_gamma(complex(1.0, x))
        lhs = math.exp(2.0 * lg.real) * math.sinh(math.pi * x) / (math.pi * x)
        assert abs(lhs - 1.0) <= 1e-10

    @pytest.mark.parametrize("re", [0.05, 0.1, 0.7, 1.3, 5.0, 20.0, 80.0])
    @pytest.mark.parametrize("im", [0.0, 0.5, 3.0, 41.0, 137.0])
    def test_recurrence(self, re, im):
        w = complex(re, im)
        lhs = cmath.exp(complex_log_gamma(w + 1))
        rhs = w * cmath.exp(complex_log_gamma(w))
        assert abs(lhs - rhs) <= 1e-11 * abs(rhs)

    @pytest.mark.parametrize(
        "w",
        [
            0.05 + 0.3j,
            0.3 - 2.73j,
            1.0 + 1.0j,
            2.0 + 50.0j,
            7.7 - 455.1j,
            88.5 + 492.3j,
            200.0 + 500.0j,
            150.0 - 0.1j,
        ],
    )
    def test_matches_reference_log_gamma(self, w):
        # 12+ significant digits of Gamma means ~1e-12 absolute in log space
        delta = complex_log_gamma(w) - scipy_loggamma(w)
        assert abs(delta) <= 1e-12

    @pytest.mark.parametrize("w", [1e-200 + 1j, 1 + 1e200j, 0.3 + 1e160j, 1e-300 + 1e-300j])
    def test_extremes_stay_finite_and_accurate(self, w):
        # a huge y / Re w or (y / Re w)^2 must not overflow, nor an infinite
        # part meet a zero inside a complex product
        got = complex_log_gamma(w)
        assert math.isfinite(got.real) and math.isfinite(got.imag)
        with mpmath.workdps(40):
            ref = mpmath.loggamma(mpmath.mpc(w.real, w.imag))
            assert abs(mpmath.mpc(got) - ref) <= 1e-12 * abs(ref)

    def test_conjugate_symmetry_is_bitwise(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            w = complex(math.exp(rng.uniform(math.log(0.05), math.log(200))),
                        rng.uniform(-500.0, 500.0))
            a = complex_log_gamma(w)
            b = complex_log_gamma(w.conjugate())
            assert a.real == b.real
            assert a.imag == -b.imag

    @pytest.mark.parametrize("w", [0j, -1 + 2j, complex(-0.5, 0), complex(math.nan, 1),
                                   complex(1, math.inf)])
    def test_domain_errors(self, w):
        with pytest.raises(ValueError):
            complex_log_gamma(w)


class TestRegularizedUpperGamma:
    def test_at_zero(self):
        assert regularized_upper_gamma(2.0, 0.0) == 1.0

    def test_shape_one_closed_form(self):
        assert regularized_upper_gamma(1.0, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_shape_two_closed_form(self):
        assert regularized_upper_gamma(2.0, 1.0) == pytest.approx(2.0 * math.exp(-1.0), abs=1e-12)

    def test_monotone_in_x(self):
        for alpha in (0.05, 0.7, 3.0, 42.0):
            xs = np.linspace(0.0, 30.0, 400)
            qs = [regularized_upper_gamma(alpha, float(x)) for x in xs]
            assert all(a >= b for a, b in zip(qs, qs[1:]))
            assert qs[0] == 1.0

    def test_limit_at_infinity(self):
        assert regularized_upper_gamma(3.0, math.inf) == 0.0

    def test_hard_underflow_is_exact_zero(self):
        assert regularized_upper_gamma(1.0, 1000.0) == 0.0

    def test_matches_adaptive_quadrature(self):
        # Q(a, x) = e^-x * integral_0^inf e^-u (x+u)^(a-1) du / Gamma(a),
        # a substitution that keeps the quadrature well-scaled.
        rng = np.random.default_rng(7)
        for _ in range(20):
            alpha = rng.uniform(0.05, 50.0)
            x = rng.uniform(0.05, 100.0)
            val, _err = quad(lambda u: math.exp(-u) * (x + u) ** (alpha - 1.0),
                             0.0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=400)
            expected = math.exp(-x + math.log(val) - math.lgamma(alpha))
            got = regularized_upper_gamma(alpha, x)
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-300)

    @pytest.mark.parametrize("alpha,x", [(0.0, 1.0), (-2.0, 1.0), (1.0, -0.5),
                                         (math.nan, 1.0), (1.0, math.nan)])
    def test_domain_errors(self, alpha, x):
        with pytest.raises(ValueError):
            regularized_upper_gamma(alpha, x)


class TestRegularizedUpperGammaArrays:
    @settings(max_examples=60, deadline=None)
    @given(log_alpha=st.floats(math.log(0.05), math.log(200.0)),
           log_ratios=st.lists(st.floats(-30.0, 6.0), min_size=1, max_size=40))
    def test_matches_scipy_and_its_scalar_calls(self, log_alpha, log_ratios):
        """Relative error within 1e-13 plus the rounding of the exponent
        alpha ln x - x - ln Gamma(alpha), and every element equal to its own
        scalar call bit for bit."""
        alpha = math.exp(log_alpha)
        x = alpha * np.exp(log_ratios)
        got = regularized_upper_gamma(alpha, x)
        ref = gammaincc(alpha, x)
        exponent = np.abs(alpha * np.log(x)) + x + abs(math.lgamma(alpha))
        assert np.all(np.abs(got - ref) <= ref * (1e-13 + 2.0 ** -52 * exponent) + 1e-300)
        assert [regularized_upper_gamma(alpha, v) for v in x.tolist()] == got.tolist()

    def test_one_shape_over_an_array(self):
        x = np.array([[0.0, 0.5, 1.5], [3.0, 40.0, math.inf]])
        got = regularized_upper_gamma(1.0, x)
        assert got.shape == (2, 3)
        assert got[0, 0] == 1.0 and got[1, 2] == 0.0
        assert np.allclose(got.ravel()[1:5], np.exp(-x.ravel()[1:5]), rtol=1e-14)
        assert [regularized_upper_gamma(1.0, v) for v in x.ravel().tolist()] == got.ravel().tolist()

    def test_scalars_give_a_float(self):
        assert type(regularized_upper_gamma(2.0, 1.0)) is float
        assert type(regularized_upper_gamma(np.float64(2.0), np.array(1.0))) is float
        assert regularized_upper_gamma(2.0, np.zeros(0)).shape == (0,)

    @pytest.mark.parametrize("alpha,x", [(-1.0, np.zeros(0)), (1.0, np.array([2.0, -1.0])),
                                         (1.0, np.array([1.0, math.nan]))])
    def test_array_domain_errors(self, alpha, x):
        with pytest.raises(ValueError):
            regularized_upper_gamma(alpha, x)

    def test_array_alpha_refused(self):
        """The shape is one scalar: an array of shapes is a TypeError, even of one element."""
        for alpha in (np.array([1.0, 2.0]), np.array([1.0]), [2.0]):
            with pytest.raises(TypeError, match="scalar"):
                regularized_upper_gamma(alpha, np.array([0.5, 1.5]))
