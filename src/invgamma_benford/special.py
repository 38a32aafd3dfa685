"""Gamma-function building blocks: the log-gamma ratio behind the series
coefficients, complex log-gamma and the regularized upper incomplete gamma
function.

All routines are pure and stateless, so they are safe to call concurrently
without synchronization.  Accuracy targets (validated by the test suite):

* ``_log_gamma_ratio``, over an array of y at once, gives r_1..r_7 of the
  series to 1e-13 of the largest of them for alpha up to 1e5.
* ``exp(complex_log_gamma(w))`` reproduces Gamma(w) to at least 12
  significant digits for Re w in [0.05, 200], |Im w| <= 500.
* ``regularized_upper_gamma`` is accurate to 1e-13 relative over shape
  parameters in [0.05, 200], plus the rounding of its exponent
  alpha ln x - x - ln Gamma(alpha), 2^-52 (|alpha ln x| + x + |ln Gamma(alpha)|)
  relative (up to about 2e-13 where x and alpha are in the hundreds).

``regularized_upper_gamma`` takes one scalar shape alpha and an array x,
and the power series and the continued fraction each run over all of
the elements at once, each element stopping at its own tolerance.  So
an element equals the scalar call at its x bit for bit.  Below
x = 2^-53 (alpha + 1) / alpha, P(alpha, x) = x^alpha / Gamma(alpha + 1) to
double precision; the direct-summation oracle sums those terms in closed
form instead of calling this function for them.
"""

import math

import numpy as np

__all__ = ["complex_log_gamma", "regularized_upper_gamma"]

# Lanczos approximation, g = 7 with 9 coefficients.  Relative accuracy is
# ~1e-15 near the real axis on Re z >= 1.5 (about 2e-13 at |Im z| = 60);
# smaller real parts are lifted into that region with the recurrence
# log Gamma(w) = log Gamma(w+1) - log w.
_LANCZOS_G = 7.0
_LANCZOS_C0 = 0.99999999999980993
_LANCZOS_COEF = np.array([
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
])
_LANCZOS_K = np.arange(1.0, 9.0)
_SHIFT_BELOW = 1.5
# exp() underflows to 0.0 below this; used to short-circuit spent tails.
_EXP_UNDERFLOW = -745.0


def _lanczos_sum(z):
    """S(z) = c_0 + sum_{k=1}^8 c_k / (z + k), for a scalar or an array z."""
    return _LANCZOS_C0 + (_LANCZOS_COEF / (np.expand_dims(z, -1) + _LANCZOS_K)).sum(axis=-1)


def _log1p_i(y, c: float):
    """Real and imaginary parts of log(1 + i y / c) for c > 0; with s =
    min(|y|, c) / max(|y|, c), neither y / c nor its square can overflow."""
    big = np.maximum(np.abs(y), c)
    s = np.minimum(np.abs(y), c) / big
    return np.log(big) - math.log(c) + 0.5 * np.log1p(s * s), np.arctan2(y, c)


def _log_gamma_ratio(alpha: float, y):
    """log Gamma(alpha + i y) - log Gamma(alpha) for alpha > 0 and real y,
    elementwise over an array of y, formed so that nothing cancels.

    Lift: with a = alpha + n >= 1.5, the recurrence gives
        log r(alpha, y) = log r(a, y) - sum_{j<n} log(1 + i y / (alpha + j)).
    Lanczos difference: with t = a + g - 1/2, the Lanczos forms of
    log Gamma at a + i y and at a differ by
        (a - 1/2) log(1 + i y / t) + i y (log(t + i y) - 1)
        + log(S(a - 1 + i y) / S(a - 1)),
    where log(t + i y) = log t + log(1 + i y / t).  Every term is small
    where r is near 1, so the result keeps its relative accuracy up to
    alpha = 1e5, where the two absolute log-gammas are near 1e6.  Real and
    imaginary parts are kept apart until the end, so an infinite or huge
    part never meets a zero inside a complex product.
    """
    y = np.asarray(y, dtype=float)
    a, re, im = alpha, 0.0, 0.0
    while a < _SHIFT_BELOW:
        l_re, l_im = _log1p_i(y, a)
        re, im, a = re - l_re, im - l_im, a + 1.0
    t = a + _LANCZOS_G - 0.5
    l_re, l_im = _log1p_i(y, t)
    s = np.log(_lanczos_sum((a - 1.0) + 1j * y) / _lanczos_sum(a - 1.0))
    re += (a - 0.5) * l_re - y * l_im + s.real
    im += (a - 0.5) * l_im + y * (math.log(t) - 1.0 + l_re) + s.imag
    out = np.array(re, dtype=complex)
    out.imag = im
    return out


def complex_log_gamma(w: complex) -> complex:
    """Principal-branch log Gamma(w) on the right half plane Re w > 0.

    The imaginary part follows the standard analytic continuation (it is
    not reduced mod 2*pi), and conjugation commutes bit-for-bit:
    ``complex_log_gamma(conj(w)) == conj(complex_log_gamma(w))``.

    Raises:
        ValueError: if w is non-finite or Re w <= 0.
    """
    w = complex(w)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise ValueError(f"complex_log_gamma requires finite input, got {w!r}")
    if w.real <= 0.0:
        raise ValueError(f"complex_log_gamma requires Re w > 0, got {w!r}")
    if w.imag < 0.0:
        return complex_log_gamma(w.conjugate()).conjugate()
    return math.lgamma(w.real) + complex(_log_gamma_ratio(w.real, w.imag))


def _first_hits(done):
    """For a (steps, elements) array of convergence flags: the elements that
    converged within these steps, and the step at which each first did."""
    first = done.argmax(axis=0)
    hit = np.flatnonzero(done[first, np.arange(done.shape[1])])
    return hit, first[hit]


def _blocks():
    """(steps taken before, steps in this block) for the expansions: blocks of
    4, 8, 16, ... steps, then of 1024, until 10,000 steps are taken."""
    n, size = 0, 4
    while n < 10_000:
        yield n, size
        n, size = n + size, min(2 * size, 1024)


def _lower_series(alpha, x, tol: float):
    """Power series for P(alpha, x) * Gamma(alpha) * x^-alpha * e^x; x < alpha+1.

    Elementwise over a 1-d array x for one scalar alpha.  Term n
    is term n-1 times x / (alpha + n), and each element's value is its
    running total at its first term below tol of that total (every term is
    positive).  The terms are formed a block at a time, by a cumulative
    product and sum, which take them in order; finished elements are then
    dropped.  The blocks double, so most elements, which finish within a
    few terms, take few, and a slow one costs a few numpy calls per
    doubling."""
    out = np.empty_like(x)
    live = np.arange(x.size)
    term = np.broadcast_to(1.0 / alpha, x.shape)
    total = term
    for n, size in _blocks():
        ratio = x / (alpha + np.arange(n + 1.0, n + size + 1.0)[:, None])
        terms = np.cumprod(np.vstack([term, ratio]), axis=0)[1:]
        totals = np.cumsum(np.vstack([total, terms]), axis=0)[1:]
        hit, at = _first_hits(terms < totals * tol)
        out[live[hit]] = totals[at, hit]
        keep = np.ones(live.size, dtype=bool)
        keep[hit] = False
        if not keep.any():
            return out
        live, x, term, total = (v[keep] for v in (live, x, terms[-1], totals[-1]))
    raise ArithmeticError(f"incomplete gamma series failed to converge at alpha={alpha}, "
                          f"x={float(x[0])}")


def _upper_cont_frac(alpha, x, tol: float):
    """Lentz's continued fraction for Q(alpha, x) * Gamma(alpha) * x^-alpha * e^x;
    x >= alpha + 1.

    With b_i = x + 2i + 1 - alpha and a_i = -i (i - alpha), Lentz's
    denominators c_i = b_i + a_i / c_(i-1) (c_0 = 1e300) and 1/d_i = e_i =
    b_i + a_i / e_(i-1) (e_0 = b_0) follow one recurrence, so both are run
    as one (2, n) array, a block of steps at a time as in _lower_series;
    h = d_0 prod_i c_i / e_i is formed by a cumulative product.  Each
    element's value is h at its first step c_i / e_i within tol of 1.
    Both denominators stay at least x - alpha + i >= 1 (where a_i < 0,
    i (i - alpha) / (x - alpha + i - 1) < i), so neither needs the usual
    guard against zero."""
    out = np.empty_like(x)
    live = np.arange(x.size)
    b = x + 1.0 - alpha
    ec = np.stack([b, np.full_like(x, 1e300)])
    h = 1.0 / b
    for n, size in _blocks():
        bs = b + 2.0 * np.arange(n + 1.0, n + size + 1.0)[:, None]
        steps = np.empty((size,) + ec.shape)
        for j in range(size):
            i = n + j + 1
            ec = np.add(bs[j], -i * (i - alpha) / ec, out=steps[j])
        delta = steps[:, 1] / steps[:, 0]
        hs = np.cumprod(np.vstack([h[None], delta]), axis=0)[1:]
        hit, at = _first_hits(np.abs(delta - 1.0) < tol)
        out[live[hit]] = hs[at, hit]
        keep = np.ones(live.size, dtype=bool)
        keep[hit] = False
        if not keep.any():
            return out
        live, x, b, h = (v[keep] for v in (live, x, b, hs[-1]))
        ec = ec[:, keep]
    raise ArithmeticError(f"incomplete gamma fraction failed to converge at alpha={alpha}, "
                          f"x={float(x[0])}")


def regularized_upper_gamma(alpha, x, *, tol: float = 1e-15):
    """Regularized upper incomplete gamma Q(alpha, x) = Gamma(alpha, x)/Gamma(alpha)
    for one scalar shape alpha, elementwise over x.

    Monotone non-increasing in x with Q(alpha, 0) = 1 and Q(alpha, inf) = 0.
    Uses the lower power series where x < alpha + 1 and the continued
    fraction elsewhere, each run over all of its elements at once.  Once
    e^(alpha*log x - x - lgamma(alpha)) underflows, the result is an exact
    0.0 (or 1.0 on the series side) rather than a subnormal.  A scalar x
    gives a float, an array x an array of its shape.  Every element is
    computed on its own, so it equals the scalar call at its x bit for bit.

    Raises:
        TypeError: if alpha is an array.
        ValueError: on alpha <= 0, x < 0, or NaN input.
    """
    if np.ndim(alpha):
        raise TypeError(f"the shape parameter must be a scalar, got shape {np.shape(alpha)}")
    a = float(alpha)
    if not (math.isfinite(a) and a > 0.0):
        raise ValueError(f"shape parameter must be positive and finite, got {a!r}")
    shape = np.shape(x)
    xs = np.ravel(np.asarray(x, dtype=float))
    bad = np.isnan(xs) | (xs < 0.0)
    if bad.any():
        raise ValueError(f"argument must be non-negative, got {float(xs[bad][0])!r}")
    with np.errstate(divide="ignore", invalid="ignore"):
        ax = a * np.log(xs) - xs - math.lgamma(a)
    ax[np.isinf(xs)] = -np.inf  # Q(a, 0) = 1 and Q(a, inf) = 0 take the underflow values
    lower = xs < a + 1.0
    q = np.where(lower, 1.0, 0.0)
    live = ax >= _EXP_UNDERFLOW
    at = np.flatnonzero(live & lower)
    if at.size:
        q[at] = 1.0 - np.exp(ax[at]) * _lower_series(a, xs[at], tol)
    at = np.flatnonzero(live & ~lower)
    if at.size:
        q[at] = np.exp(ax[at]) * _upper_cont_frac(a, xs[at], tol)
    return float(q[0]) if shape == () else q.reshape(shape)
