"""The rapidly convergent series for the distribution of log_B X mod 1,
with certified truncation control.

Writing F_B for the CDF of log_B(X) mod 1 when X is inverse-gamma with
shape alpha and scale beta, the evaluation path used here is

    F_B'(z) = 1 + 2 * sum_{k>=1} Re( r_k * e^{-2 pi i k (t - z)} )
    F_B(z)  = z + 2 * sum_{k>=1} Re( r_k * e^{-2 pi i k t}
                                     * (e^{2 pi i k z} - 1) / (2 pi i k) )

with t = log_B(beta) and coefficients r_k = Gamma(a + 2 pi i k / ln B)
/ Gamma(a).  The coefficients decay like exp(-pi^2 k / ln B), so a handful
of terms give near machine precision.  A cutoff M sums the terms
|k| <= M-1.  DLMF 5.8.3 bounds the dropped tail sum_{k>=M} |r_k| in
closed form for every base B >= 2, and every evaluation reports that
bound as its residual bound.  certified_cutoff returns the smallest M
whose bound meets a requested uniform accuracy epsilon: about sqrt(alpha)
terms, one M for every beta.  The paper's rules are kept as reproductions:
truncation_cutoff (M > alpha + 1, raised where the bound needs it),
tail_bound_general, tail_bound_alpha1 and cutoff_alpha1.

Scaling beta by any power of B leaves every quantity here unchanged, so
beta is canonicalized into [1, B) before evaluation.  All functions are
pure and keep no module state: each evaluation builds its coefficient
table once.

Both series are real trigonometric polynomials in z.  With a_k = r_k
e^{-2 pi i k t}, c_k = a_k / (2 pi i k) and d_0 = sum_{k<M} c_k,

    F_B'(z) - 1 = 2 Re sum_{k<M} e_k e^{2 pi i k z},  e_0 = 0,    e_k = a_k
    F_B(z) - z  = 2 Re sum_{k<M} e_k e^{2 pi i k z},  e_0 = -d_0, e_k = c_k

One kernel evaluates both.  One numpy.fft.irfft of the e_k, folded onto
n bins (_fold), gives D = F - z (or F' - 1) at every z = j / n, whatever
M is: max_deviation and deviation_grid read their grid off it
(_grid_deviation).  Every other point (cdf, first-digit probabilities,
fb_*_series, ks_distance) is read off the grid at its nearest node by a
Taylor step in the offset, each order one more transform (_readout).
No evaluation loops over k in Python, and F_B(0) = 0, F_B(1) = 1 hold
exactly.  Each evaluator takes one table and the phase t mod 1 and forms
its complex128 coefficients itself.  Only _grid_deviation batches phases,
one row each, for a sweep row: numpy.fft starts no worker threads, and a
batched transform gives each row bit for bit its one-phase transform, so
a value depends neither on the other phases nor on the other points.
"""

import math
from dataclasses import dataclass

import numpy as np

from .benford import (
    BaseConfig,
    _as_epsilon,
    _as_int,
    _as_positive_finite,
    _as_unit_interval,
    _as_unit_interval_array,
    decompose_significand,
    log_mod_1,
)
from .special import _log_gamma_ratio, regularized_upper_gamma

__all__ = [
    "InvGammaParams",
    "TruncationSpec",
    "SeriesEvaluation",
    "canonicalize_beta",
    "certified_cutoff",
    "truncation_cutoff",
    "tail_bound_general",
    "tail_bound_alpha1",
    "cutoff_alpha1",
    "fb_prime_series",
    "fb_cdf_series",
    "fb_prime_series_values",
    "fb_cdf_series_values",
]

_LOG2 = math.log(2.0)
_TWO_PI = 2.0 * math.pi
_PI_SQ = math.pi * math.pi
_EXP_UNDERFLOW = -745.0

# certified_cutoff refuses a cutoff above this.  A deviation costs about
# 300 B of memory per term (32 MB at M = 107,515: alpha = 1e10, epsilon
# 1e-3, base 10), so 2**20 terms take about 0.3 GB.
_MAX_CUTOFF = 2 ** 20


@dataclass(frozen=True)
class InvGammaParams:
    """Shape alpha > 0 and scale beta > 0 of an inverse gamma distribution."""

    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _as_positive_finite(self.alpha, "alpha"))
        object.__setattr__(self, "beta", _as_positive_finite(self.beta, "beta"))


@dataclass(frozen=True)
class TruncationSpec:
    """Target uniform accuracy together with the series cutoff enforcing it.

    Terms with |k| <= cutoff_m - 1 are summed; |k| >= cutoff_m are dropped.
    Evaluation and its residual bounds depend on cutoff_m alone, so a spec
    built by hand may record an epsilon that its cutoff does not meet.
    """

    epsilon: float
    cutoff_m: int

    def __post_init__(self):
        object.__setattr__(self, "epsilon", _as_positive_finite(self.epsilon, "epsilon"))
        object.__setattr__(self, "cutoff_m", _as_int(self.cutoff_m, "cutoff_m", 1))


@dataclass(frozen=True)
class SeriesEvaluation:
    """A truncated series value with its certified residual bound.

    The truncation error, the series value minus value, is at most
    residual_bound in absolute value.  The Taylor step that reads value
    off the transform's grid stops at a remainder of at most 2^-52 sum_k
    2 |e_k| (_cdf_values), and floating-point rounding comes on top.
    Measured against 40-digit sums of the same series at the certified
    cutoffs for epsilon 1e-12 in bases 2, 10 and 36, that rounding stays
    within 2.3e-15 for F up to alpha = 1e5 and reaches 5e-14 for F' at
    alpha = 3000 and 1.0e-12 at alpha = 1e5, mostly from the rounding of
    the phases k t; no bound is reported for it yet (ROADMAP item 3).
    """

    value: float
    residual_bound: float
    cutoff_m: int


def canonicalize_beta(params: InvGammaParams, base: BaseConfig) -> tuple[InvGammaParams, int]:
    """Rescale beta into [1, B); returns the new params and the shift m.

    The returned params satisfy params.beta == original * B**(-m).  All
    quantities describing log_B X mod 1 are invariant under this map.
    """
    d = decompose_significand(params.beta, base)
    if d.exponent == 0:
        return params, 0
    return InvGammaParams(params.alpha, d.significand), d.exponent


def _tail_bound(alpha: float, base: BaseConfig, m: int) -> float:
    """Rigorous bound S on sum_{k>=m} |r_k|, from DLMF 5.8.3.

    With y_k = 2 pi k / ln B, y = y_m, d = 2 pi / ln B and c = alpha + 1,
    |r_k|^2 = prod_{n>=0} (1 + y_k^2/(alpha+n)^2)^(-1).  The n = 0 factor is
    kept; the integral test bounds the product over n >= 1 by e^(-H(y_k))
    with H(y) = 2 y atan(y/c) - c log1p(y^2/c^2).  H is convex with
    H'(y) = 2 atan(y/c), so the terms past m fall at least geometrically:

        S <= (1 + y^2/alpha^2)^(-1/2) e^(-H(y)/2) / (1 - e^(-d atan(y/c))).

    Evaluated in log space, so a tiny alpha cannot overflow y/alpha.  Every
    factor decreases in y, hence S decreases in m.
    """
    d = _TWO_PI / base.log_base
    y = d * m
    c = alpha + 1.0
    slope = math.atan(y / c)
    h = 2.0 * y * slope - c * math.log1p((y / c) ** 2)
    return math.exp(math.log(alpha) - math.log(math.hypot(alpha, y)) - 0.5 * h
                    - math.log(-math.expm1(-d * slope)))


def _cdf_residual(alpha: float, base: BaseConfig, m: int) -> float:
    """Bound 2 S / (pi m) on the CDF truncation error, as |e^{2 pi i k z} - 1| <= 2."""
    return 2.0 * _tail_bound(alpha, base, m) / (math.pi * m)


def certified_cutoff(alpha, base: BaseConfig, epsilon) -> TruncationSpec:
    """The smallest cutoff M whose certified CDF truncation error 2 S / (pi M)
    is at most epsilon (S from DLMF 5.8.3, see _tail_bound).

    The bound reads only alpha, B and M, so one cutoff serves every beta.
    It grows like sqrt(alpha), where the paper's rule grows like alpha.

    Raises:
        ValueError: for alpha not positive and finite, or epsilon outside (0, 1).
        OverflowError: if the cutoff would exceed 2**20 (_MAX_CUTOFF), as
            at alpha = 1e16 and epsilon = 1e-3 in base 10 (M about 1.1e8).
    """
    a = _as_positive_finite(alpha, "alpha")
    eps = _as_epsilon(epsilon)
    # the bound decreases in M: double M until it is met, then bisect between
    # the last miss (lo) and the first hit (m)
    lo, m = 0, 1
    while _cdf_residual(a, base, m) > eps:
        if m >= _MAX_CUTOFF:
            raise OverflowError(f"alpha={a!r} in base {base.base} needs a cutoff above "
                                f"{_MAX_CUTOFF} to certify epsilon={eps!r}")
        lo, m = m, 2 * m
    while m - lo > 1:
        mid = (lo + m) // 2
        if _cdf_residual(a, base, mid) > eps:
            lo = mid
        else:
            m = mid
    return TruncationSpec(epsilon=eps, cutoff_m=m)


def truncation_cutoff(params: InvGammaParams, base: BaseConfig, epsilon) -> TruncationSpec:
    """The paper's cutoff M, raised where needed so that its certified CDF
    truncation error is at most epsilon, for any base >= 2.

    M starts at the paper's rule, the least integer exceeding
    max(alpha + 1, -log_B(eps * Gamma(alpha) / (2 * B^alpha * beta))) with
    beta first canonicalized into [1, B).  Where that M leaves the bound
    2 S / (pi M) of the dropped terms above epsilon, M is raised to the
    least value that meets it: the bound decreases in M, so that value is
    certified_cutoff's.  Kept as the paper's reproduction: every evaluation
    path uses the smaller certified_cutoff.

    Raises:
        ValueError: for epsilon outside (0, 1), non-finite included.
    """
    eps = _as_epsilon(epsilon)
    canonical, _ = canonicalize_beta(params, base)
    a, lb = canonical.alpha, base.log_base
    t = -(math.log(eps) + math.lgamma(a) - _LOG2 - a * lb - math.log(canonical.beta)) / lb
    m = math.floor(max(a + 1.0, t)) + 1
    return TruncationSpec(epsilon=eps, cutoff_m=max(m, certified_cutoff(a, base, eps).cutoff_m))


def tail_bound_general(params: InvGammaParams, base: BaseConfig, m, z=None) -> float:
    """Closed-form tail expression B^(a(1-z)) * beta / Gamma(a) *
    (Gamma(a, B^M) + B^(-M a)/a) for a cutoff M >= 1.

    With z omitted, returns the z = 0 value, which dominates the expression
    over z in [0, 1].  Requires beta already canonicalized into [1, B).
    The paper's expression, kept as a reproduction: it bounds the tail of
    the direct sum, not of this series, so evaluation does not use it.
    """
    m = _as_int(m, "cutoff", 1)
    a, b = params.alpha, params.beta
    if not 1.0 <= b < base.base:
        raise ValueError(f"beta must lie in [1, {base.base}) (canonicalize first), got {b!r}")
    zz = 0.0 if z is None else _as_unit_interval(z)
    lb = base.log_base
    lead = a * (1.0 - zz) * lb + math.log(b)
    # B^M, saturating to inf for huge cutoffs; Q(a, inf) = 0
    x = math.exp(m * lb) if m * lb <= 709.0 else math.inf
    q = regularized_upper_gamma(a, x)
    upper_tail = math.exp(lead + math.log(q)) if q > 0.0 else 0.0
    log_power_term = lead - m * a * lb - math.log(a) - math.lgamma(a)
    power_term = 0.0 if log_power_term < _EXP_UNDERFLOW else math.exp(log_power_term)
    return upper_tail + power_term


def tail_bound_alpha1(base: BaseConfig, m) -> float:
    """Shape-1 tail expression 4(pi^2 + ln B)/(pi sqrt(ln B)) * M * e^(-pi^2 M / ln B).

    Valid (and enforced) for M >= ln 2 * ln B / (4 pi^2).  Much tighter than
    tail_bound_general when the shape is exactly 1.
    """
    m = _as_int(m, "cutoff")
    lb = base.log_base
    floor_m = _LOG2 * lb / (4.0 * _PI_SQ)
    if m < floor_m:
        raise ValueError(f"cutoff {m} is below the validity floor {floor_m:.6g}")
    return 4.0 * (_PI_SQ + lb) / (math.pi * math.sqrt(lb)) * m * math.exp(-_PI_SQ * m / lb)


def cutoff_alpha1(base: BaseConfig, epsilon) -> int:
    """Cutoff M = ceil((h + log h + 1/2)/a) making the shape-1 tail at most epsilon.

    Here a = pi^2/ln B, C = 4(pi^2 + ln B)/(pi ln B), and
    h = max(6, -log(a*epsilon/C)).
    """
    eps = _as_positive_finite(epsilon, "epsilon")
    lb = base.log_base
    a = _PI_SQ / lb
    c = 4.0 * (_PI_SQ + lb) / (math.pi * lb)
    h = max(6.0, -math.log(a * eps / c))
    return math.ceil((h + math.log(h) + 0.5) / a)


def _gamma_ratio_table(alpha: float, base: BaseConfig, cutoff_m: int) -> np.ndarray:
    """r_k = Gamma(alpha + 2 pi i k / ln B)/Gamma(alpha), k = 1..cutoff_m - 1.

    One log-ratio over every k, so no absolute log-gamma cancels.  Entry k
    does not depend on cutoff_m, so table[:m - 1] is, bit for bit, the
    table for any smaller cutoff m.
    """
    return np.exp(_log_gamma_ratio(alpha, _TWO_PI * np.arange(1.0, cutoff_m) / base.log_base))


def _phase_coefficients(table: np.ndarray, theta, prime: bool = False) -> np.ndarray:
    """The coefficients at phase theta from one table, for k = 1..M - 1:
    c_k = a_k / (2 pi i k) of F_B, or with prime a_k = r_k e^{-2 pi i k
    theta} of F_B'.  Complex, of shape (terms,) for one phase and (phases,
    terms) for a 1-d array of them, from real expressions for the real and
    imaginary parts."""
    k = np.arange(1.0, len(table) + 1.0)
    u = np.multiply.outer(theta, k)
    phase = _TWO_PI * (u - np.round(u))
    cos, sin = np.cos(phase), np.sin(phase)
    re = table.real * cos + table.imag * sin
    im = table.imag * cos - table.real * sin
    if not prime:  # c_k = (Im a_k, -Re a_k) / (2 pi k)
        x = _TWO_PI * k
        re, im = im / x, re / -x
    return re + 1j * im


def _terms(c, prime: bool = False) -> np.ndarray:
    """e_k = c_k, k = 0..M - 1, along the last axis of c, with e_0 = -d_0 =
    -sum_k c_k for D = F - z, or with prime e_0 = 0 for D = F' - 1 (c
    holding the a_k)."""
    e = np.concatenate((np.zeros(c.shape[:-1] + (1,), complex), c), axis=-1)
    if not prime:
        e[..., 0] = -np.cumsum(e[..., ::-1], axis=-1)[..., -1]
    return e


def _fold(e, n: int) -> np.ndarray:
    """The bins of the real inverse DFT of length n (np.fft.irfft, norm
    "forward") whose value at z = j / n is 2 Re sum_k e_k e^{2 pi i k j / n},
    along the last axis of e.  e_k folds onto bin k mod n; as the sum is
    real, a bin b above n/2 folds onto bin n - b conjugated, and bins 0 and
    n/2 (n even), their own conjugates, are doubled in real part.  Bins
    from min(M, n/2 + 1) on are 0, and irfft pads them itself."""
    half = n // 2
    x = np.zeros(e.shape[:-1] + (min(e.shape[-1], half + 1),), complex)
    for s in range(0, e.shape[-1], n):
        part = e[..., s:s + n]
        low = part[..., :half + 1]
        x[..., :low.shape[-1]] += low
        # bins half + 1, half + 2, ... go, conjugated, to n - half - 1, n - half - 2, ...
        x[..., n + 1 - part.shape[-1]:n - half][..., ::-1] += part[..., half + 1:].conj()
    x.real[..., 0] *= 2.0
    if n % 2 == 0 and x.shape[-1] > half:
        x.real[..., half] *= 2.0
    return x


def _grid_deviation(points: int, table: np.ndarray, thetas) -> np.ndarray:
    """|F(z) - z| at z_n = n / N, n = 0..N with N = points - 1, for every
    phase of thetas from one table: shape (points,) for one phase and
    (phases, points) for a 1-d array of them, one np.fft.irfft of length N
    per phase of the folded e_k (_phase_coefficients, _terms, _fold),
    whatever M is.  D = F - z is set to exactly 0 at
    z = 0 and z = 1, where F(0) = 0 and F(1) = 1 by construction.

    Rounding.  Let S = sum_k |e_k|, u = 2^-53, gamma_n = n u / (1 - n u),
    f = ceil(M / N) the most e_k of one residue mod N, and gamma = t eta
    / (1 - t eta) with eta = 8 u and t = 2 ceil(log2 N) + 2.  At 0 < n < N
    each computed |D| is within

        e = 2 (sqrt(N) gamma + (1 + sqrt(N) gamma) gamma_{2f}) S

    of |D| at z = n / N exactly, with D from the computed e_k.  A bin sums
    at most 2 f of the e_k, so the bins X_b are within gamma_{2f} S in
    total of their exact sums (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 4); the doubling is exact, and as D_n =
    2 Re sum_{b<=N/2} X_b w_n^b, that moves D by at most 2 gamma_{2f} S.
    For a radix-2 transform of length 2^t, Higham (Thm 24.2) bounds the
    2-norm error of y_n = sum_b X~_b w_n^b, with X~ the Hermitian
    extension of the bins to length N, by gamma ||y||_2, where ||y||_2 =
    sqrt(N) ||X~||_2 <= 2 sqrt(N) (1 + gamma_{2f}) S and eta = mu + gamma_4
    (sqrt(2) + mu) <= 8 u for twiddle factors within mu <= 2 u.
    pocketfft's real mixed-radix and Bluestein plans are taken to have
    the same form with the stage count doubled plus two, which is stated,
    not proven.  The absolute value is exact.  At N = 1000, e is about
    1.2e-12 S.  Measured against 40-digit sums of the same table entries
    and phase (tests/mp_reference.py) at 51 of the 1001 points, for alpha
    from 0.1 to 1e5 (M = 1 to 975) in bases 2, 10 and 36, the error is
    at most 1.5e-15.
    """
    n = points - 1
    c = _phase_coefficients(table, thetas)
    dev = np.empty(c.shape[:-1] + (points,))
    np.fft.irfft(_fold(_terms(c), n), n, norm="forward", out=dev[..., :n])
    dev[..., 0] = dev[..., n] = 0.0
    return np.abs(dev, out=dev)


def _readout_plan(weights) -> tuple[int, int, int]:
    """The plan (K, n, p) of _readout for coefficients of moduli |e_k| =
    weights, k = 1..M - 1.  Terms past K, whose moduli sum to at most 2^-53
    of all, are dropped.  n is the least power of two >= max(1024, 4 (K + 1)),
    and p the least order with sum_{k<=K} 2 |e_k| (pi k / n)^(p+1) / (p+1)!
    <= 2^-53 sum_k 2 |e_k|.  As pi k / n < pi / 4, p <= 16 for every M."""
    limit = 2.0 ** -53 * weights.sum()
    kept = int(np.count_nonzero(np.cumsum(weights[::-1]) > limit))
    n = 1 << max(10, (4 * kept + 3).bit_length())
    x = math.pi * np.arange(1.0, kept + 1.0) / n
    p, rest = 0, weights[:kept] * x
    while rest.sum() > limit:
        p += 1
        rest *= x / (p + 1)
    return kept, n, p


def _readout(z, e, n: int, p: int) -> np.ndarray:
    """D(z) = 2 Re sum_k e_k e^{2 pi i k z} at every z of the array z, by
    the plan (n, p) of _readout_plan: the shape of z.

    z n = j + s exactly, for the nearest node j / n (j mod n) and s in
    [-1/2, 1/2].  Then D(z) = sum_{m<=p} g_m[j] s^m, where g_m is one irfft
    of length n of the folded e_k (2 pi i k / n)^m / m!.  One order's grid
    is built at a time, from m = p down, and summed in the real s.  Each
    term's e^{2 pi i k s / n} is cut after (pi k / n)^(p+1) / (p+1)!.
    """
    t = z * n
    node = np.rint(t)
    s, j = t - node, node.astype(np.intp) % n
    scale = _TWO_PI * np.arange(len(e)) / n
    grid, d = np.empty(n), np.zeros(z.shape)
    for m in range(p, -1, -1):
        terms = e * (scale ** m / math.factorial(m) * 1j ** m)
        np.fft.irfft(_fold(terms, n), n, norm="forward", out=grid)
        d *= s
        d += grid[j]
    return d


def _cdf_values(zs, table: np.ndarray, theta: float, prime: bool = False) -> np.ndarray:
    """F_B, or with prime F_B', at every z of zs for the phase theta, from
    one table: the shape of zs.  The plan comes from the |r_k|, so every
    call at one alpha, base and cutoff reads the same grids.  The readout
    is within 2^-52 sum_k 2 |e_k| of D, and D = F - z is set to exactly 0
    at z = 0 and z = 1."""
    z = np.asarray(zs, dtype=float)
    weights = np.abs(table)
    if not prime:
        weights /= _TWO_PI * np.arange(1.0, len(table) + 1.0)  # |c_k| = |r_k| / (2 pi k)
    kept, n, p = _readout_plan(weights)
    d = _readout(z, _terms(_phase_coefficients(table[:kept], theta, prime), prime), n, p)
    if prime:
        return 1.0 + d
    return z + np.where((z == 0.0) | (z == 1.0), 0.0, d)


def _row(zs, params: InvGammaParams, base: BaseConfig, trunc: TruncationSpec,
         prime: bool = False) -> np.ndarray:
    """F_B, or with prime F_B', at zs for one parameter point: the shape of zs."""
    table = _gamma_ratio_table(params.alpha, base, trunc.cutoff_m)
    return _cdf_values(zs, table, log_mod_1(params.beta, base), prime)


def fb_prime_series(z, params: InvGammaParams, base: BaseConfig,
                    trunc: TruncationSpec) -> SeriesEvaluation:
    """Truncated series for F_B'(z), the density of log_B X mod 1.

    The cutoff-1 evaluation is exactly 1.0 (only the constant term remains).
    The residual bound is 2 S, uniform in z, with S the bound of _tail_bound
    on the dropped coefficients at trunc.cutoff_m.
    """
    value = float(_row([_as_unit_interval(z)], params, base, trunc, prime=True)[0])
    residual = 2.0 * _tail_bound(params.alpha, base, trunc.cutoff_m)
    return SeriesEvaluation(value=value, residual_bound=residual, cutoff_m=trunc.cutoff_m)


def fb_prime_series_values(zs, params: InvGammaParams, base: BaseConfig,
                           trunc: TruncationSpec) -> np.ndarray:
    """Vectorized fb_prime_series values over an array of z in [0, 1]."""
    return _row(_as_unit_interval_array(zs), params, base, trunc, prime=True)


def fb_cdf_series(z, params: InvGammaParams, base: BaseConfig,
                  trunc: TruncationSpec) -> SeriesEvaluation:
    """Truncated series for F_B(z), the CDF of log_B X mod 1.

    F(0) = 0 and F(1) = 1 hold exactly.  The residual bound is 2 S / (pi M),
    uniform in z, with S the bound of _tail_bound at M = trunc.cutoff_m; a
    cutoff from certified_cutoff makes it at most the requested epsilon.
    """
    value = float(_row([_as_unit_interval(z)], params, base, trunc)[0])
    residual = _cdf_residual(params.alpha, base, trunc.cutoff_m)
    return SeriesEvaluation(value=value, residual_bound=residual, cutoff_m=trunc.cutoff_m)


def fb_cdf_series_values(zs, params: InvGammaParams, base: BaseConfig,
                         trunc: TruncationSpec) -> np.ndarray:
    """Vectorized fb_cdf_series values over an array of z in [0, 1],
    elementwise identical to fb_cdf_series (same grids and operations)."""
    return _row(_as_unit_interval_array(zs), params, base, trunc)
