"""Significand arithmetic and the reference first-digit law.

For an integer base B >= 2, every x > 0 factors uniquely as x = s * B**k
with s in [1, B) and integer k; s is the significand of x.  A positive
random variable follows the reference law when P(significand <= s) equals
log_B(s), which puts first digit d at probability log_B((d+1)/d).
"""

import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BaseConfig",
    "SignificandDecomposition",
    "decompose_significand",
    "log_mod_1",
    "log_mod_1_array",
    "benford_digit_prob",
]


@dataclass(frozen=True)
class BaseConfig:
    """An integer base 2 <= B <= 2**53 together with its cached natural log.

    2**53 is the largest base that a double holds exactly, and the oracle
    computes with float(B); a larger base is a ValueError.
    """

    base: int
    log_base: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        base = _as_int(self.base, "base", 2)
        if base > 2 ** 53:
            raise ValueError(f"base must be <= 2**53, got {base}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "log_base", math.log(base))


@dataclass(frozen=True)
class SignificandDecomposition:
    """x = significand * base**exponent with significand in [1, base)."""

    significand: float
    exponent: int


# The argument checks shared by every module, the CLI's argparse types included.

def _as_int(x, what: str, minimum: int | None = None) -> int:
    """x as an exact integer (TypeError otherwise), at least `minimum` (ValueError)."""
    try:
        n = operator.index(x)
    except TypeError:
        raise TypeError(f"{what} must be an integer, got {x!r}") from None
    if minimum is not None and n < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {n}")
    return n


def _as_positive_finite(x, what: str) -> float:
    fx = float(x)
    if not math.isfinite(fx) or fx <= 0.0:
        raise ValueError(f"{what} must be positive and finite, got {x!r}")
    return fx


def _as_epsilon(x) -> float:
    """An accuracy target in (0, 1): at 1 or above a certificate bounds nothing,
    since F_B(z) and z both lie in [0, 1]."""
    eps = _as_positive_finite(x, "epsilon")
    if eps >= 1.0:
        raise ValueError(f"epsilon must be below 1, got {x!r}")
    return eps


def _as_unit_interval(z) -> float:
    fz = float(z)
    if not math.isfinite(fz) or not 0.0 <= fz <= 1.0:
        raise ValueError(f"z must lie in [0, 1], got {z!r}")
    return fz


def _as_unit_interval_array(zs) -> np.ndarray:
    """zs as a float array, every value in [0, 1]; the ValueError names the first that is not."""
    arr = np.asarray(zs, dtype=float)
    bad = ~((arr >= 0.0) & (arr <= 1.0))  # nan fails both comparisons
    if bad.any():
        raise ValueError(f"z must lie in [0, 1], got {float(arr[bad][0])!r}")
    return arr


def decompose_significand(x, base: BaseConfig) -> SignificandDecomposition:
    """Split x > 0 into significand in [1, B) and integer exponent.

    The significand is x / B**k correctly rounded to a double, computed
    from the exact integer ratio of x.  Values exactly at a power of B, and
    values whose significand rounds up to B, decompose with significand 1.0
    (the half-open convention).
    """
    fx = _as_positive_finite(x, "x")
    b = base.base
    k = math.floor(math.log(fx) / base.log_base)
    num, den = fx.as_integer_ratio()
    if k >= 0:
        den *= b ** k
    else:
        num *= b ** -k
    # the log estimate can be off by one near powers of B
    if num < den:
        num *= b
        k -= 1
    elif num >= b * den:
        den *= b
        k += 1
    s = num / den
    if s == b:
        return SignificandDecomposition(1.0, k + 1)
    return SignificandDecomposition(s, k)


def log_mod_1(x, base: BaseConfig) -> float:
    """Fractional part of log_B(x), computed as log_B of the significand.

    Always lands in [0, 1); x at an exact power of B maps to 0.0.
    """
    s = decompose_significand(x, base).significand
    r = math.log(s) / base.log_base
    if r >= 1.0:  # guard against a rounding spill at s just below B
        r = math.nextafter(1.0, 0.0)
    return r


def log_mod_1_array(values, base: BaseConfig) -> np.ndarray:
    """Vectorized fractional part of log_B over an array of positive values.

    Equivalent to log_mod_1 elementwise up to ~1e-15 (mod-1 wraparound at
    exact powers of B aside); intended for large sample batches.  y - floor(y)
    is the same correctly rounded value as np.mod(y, 1.0), at less cost; a
    tiny negative y rounds to 1.0 in both.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("values must be non-empty")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("all values must be positive and finite")
    y = np.log(arr)
    y /= base.log_base
    y -= np.floor(y)
    return y


def benford_digit_prob(d, base: BaseConfig) -> float:
    """Reference probability log_B((d+1)/d) of first digit d, 1 <= d <= B-1."""
    d = _as_int(d, "digit")
    if not 1 <= d <= base.base - 1:
        raise ValueError(f"digit must be in [1, {base.base - 1}], got {d}")
    return math.log1p(1.0 / d) / base.log_base
