"""Significand arithmetic and reference-law tests."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from invgamma_benford.benford import (
    BaseConfig,
    benford_digit_prob,
    decompose_significand,
    log_mod_1,
    log_mod_1_array,
)


def test_base_config_validation():
    assert BaseConfig(10).log_base == pytest.approx(math.log(10.0), rel=1e-16)
    with pytest.raises(ValueError):
        BaseConfig(1)
    with pytest.raises(TypeError):
        BaseConfig(2.5)


def test_base_config_range():
    """2**53 is the largest base that a double holds exactly, and the largest accepted."""
    assert float(BaseConfig(2 ** 53).base) == 2 ** 53
    for base in (2 ** 53 + 1, 10 ** 400):
        with pytest.raises(ValueError, match=r"base must be <= 2\*\*53"):
            BaseConfig(base)


class TestDecompose:
    def test_decimal_examples(self):
        b10 = BaseConfig(10)
        d = decompose_significand(314.15, b10)
        assert d.exponent == 2
        assert d.significand == pytest.approx(3.1415, rel=1e-12)
        d = decompose_significand(0.0025, b10)
        assert d.exponent == -3
        assert d.significand == pytest.approx(2.5, rel=1e-12)

    def test_binary_example(self):
        d = decompose_significand(10.0, BaseConfig(2))
        assert d.significand == 1.25 and d.exponent == 3

    def test_powers_of_base_have_unit_significand(self):
        b10 = BaseConfig(10)
        for n in range(0, 23):
            d = decompose_significand(float(10 ** n), b10)
            assert d.significand == 1.0 and d.exponent == n
        b2 = BaseConfig(2)
        for n in range(-1074, 1024):  # subnormal 2**-1074 up to 2**1023
            d = decompose_significand(math.ldexp(1.0, n), b2)
            assert d.significand == 1.0 and d.exponent == n

    @pytest.mark.parametrize("base", [2, 3, 10, 16])
    def test_reconstruction(self, base):
        cfg = BaseConfig(base)
        rng = np.random.default_rng(base)
        exponents = rng.uniform(-250.0, 250.0, size=200)
        for e in exponents:
            x = 10.0 ** float(e) * rng.uniform(1.0, 9.0)
            d = decompose_significand(x, cfg)
            assert 1.0 <= d.significand < base
            rebuilt = d.significand * float(base) ** d.exponent if abs(d.exponent) < 300 \
                else d.significand * float(base ** d.exponent)
            assert rebuilt == pytest.approx(x, rel=1e-14)

    def test_scaling_by_base_power_preserves_significand(self):
        b10 = BaseConfig(10)
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.uniform(1.0, 10.0)
            s0 = decompose_significand(x, b10).significand
            for m in (-6, -1, 2, 9):
                s1 = decompose_significand(x * 10.0 ** m, b10).significand
                assert s1 == pytest.approx(s0, rel=1e-13)

    @pytest.mark.parametrize("base", [3, 10, 36, 1000])
    def test_significand_is_correctly_rounded(self, base):
        """Against exact rational arithmetic: s is x / B**k rounded to nearest,
        or 1.0 with k + 1 where that rounds up to B."""
        cfg = BaseConfig(base)
        rng = np.random.default_rng(base)
        bits = rng.integers(1, 0x7FF0000000000000, size=2000, dtype=np.int64)
        xs = [float(x) for x in bits.view(np.float64)]  # every positive finite double
        n = 1
        while base ** n <= sys.float_info.max:
            xs += [math.nextafter(float(base ** n), 0.0), math.nextafter(base ** -n, 0.0)]
            n += 1
        xs += [5e-324, 1e-320, math.nextafter(sys.float_info.min, 0.0), sys.float_info.max]
        for x in xs:
            d = decompose_significand(x, cfg)
            exact = Fraction(x) / Fraction(base) ** d.exponent
            if exact < 1:
                assert d.significand == 1.0 and float(exact * base) == base, x
            else:
                assert exact < base and d.significand == float(exact), x
            assert 1.0 <= d.significand < base, x

    @pytest.mark.parametrize("bad", [0.0, -3.0, math.inf, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            decompose_significand(bad, BaseConfig(10))


class TestLogMod1:
    def test_exact_powers_map_to_zero(self):
        assert log_mod_1(1000.0, BaseConfig(10)) == 0.0
        assert log_mod_1(0.25, BaseConfig(2)) == 0.0

    @pytest.mark.parametrize("base", [7, 16, 36])
    def test_just_below_base_stays_below_one(self, base):
        # log(s) / log(B) rounds up to 1.0 here; the result is clamped below 1
        r = log_mod_1(math.nextafter(float(base), 0.0), BaseConfig(base))
        assert 0.0 <= r < 1.0

    def test_direct_value(self):
        assert log_mod_1(250.0, BaseConfig(10)) == pytest.approx(math.log10(2.5), abs=1e-12)

    def test_consistent_with_significand(self):
        b16 = BaseConfig(16)
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = math.exp(rng.uniform(-40, 40))
            s = decompose_significand(x, b16).significand
            assert log_mod_1(x, b16) == pytest.approx(math.log(s) / b16.log_base, abs=1e-12)
            assert 0.0 <= log_mod_1(x, b16) < 1.0

    def test_array_matches_scalar(self):
        b10 = BaseConfig(10)
        rng = np.random.default_rng(3)
        xs = np.exp(rng.uniform(-50, 50, size=500))
        arr = log_mod_1_array(xs, b10)
        for x, f in zip(xs, arr):
            d = abs(f - log_mod_1(float(x), b10))
            assert min(d, 1.0 - d) <= 1e-12  # allow mod-1 wraparound

    @pytest.mark.parametrize("base", [2, 3, 10, 16, 36, 1000])
    def test_array_matches_np_mod_bit_for_bit(self, base):
        """y - floor(y) is np.mod(y, 1.0) bit for bit, at exact powers of B and
        for y just below 0 (which rounds to 1.0) included."""
        b = BaseConfig(base)
        rng = np.random.default_rng(base)
        ks = np.arange(-300, 301)
        ks = ks[np.abs(ks * b.log_base) < 700]
        powers = float(base) ** ks.astype(float)
        below_one = 1.0 - np.ldexp(1.0, -np.append(rng.integers(1, 54, size=2000), 53))
        xs = np.concatenate([np.exp(rng.uniform(-700, 700, size=160_000)), powers,
                             np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
                             below_one])
        got = log_mod_1_array(xs, b)
        want = np.mod(np.log(xs) / b.log_base, 1.0)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        if b.log_base > 2.0:  # y = log(1 - 2^-53) / ln B lies within 2^-54 of 0
            assert got[-1] == 1.0

    def test_array_rejects_bad_values(self):
        with pytest.raises(ValueError):
            log_mod_1_array(np.array([1.0, -2.0]), BaseConfig(10))
        with pytest.raises(ValueError):
            log_mod_1_array(np.array([]), BaseConfig(10))


class TestDigitLaw:
    def test_leading_digit_one(self):
        assert benford_digit_prob(1, BaseConfig(10)) == pytest.approx(0.30103, abs=1e-5)

    def test_leading_digit_nine(self):
        assert benford_digit_prob(9, BaseConfig(10)) == pytest.approx(0.0457575, abs=1e-5)

    @pytest.mark.parametrize("base", [2, 3, 10, 16])
    def test_digit_probs_sum_to_one(self, base):
        cfg = BaseConfig(base)
        total = math.fsum(benford_digit_prob(d, cfg) for d in range(1, base))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_digit_prob_out_of_range(self):
        with pytest.raises(ValueError):
            benford_digit_prob(0, BaseConfig(10))
        with pytest.raises(ValueError):
            benford_digit_prob(10, BaseConfig(10))

    def test_digit_prob_matches_cdf_difference(self):
        # log_B(d + 1) - log_B(d), the reference CDF's mass on [d, d + 1)
        b10 = BaseConfig(10)
        for d in range(1, 10):
            expected = math.log1p(1.0 / d) / math.log(10.0)
            assert benford_digit_prob(d, b10) == pytest.approx(expected, abs=1e-12)
