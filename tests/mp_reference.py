"""High-precision references in mpmath, shared by the tests: the series
coefficients r_k = Gamma(alpha + 2 pi i k / ln B) / Gamma(alpha) and the
CDF F_B of log_B X mod 1 summed from them."""

import mpmath


def gamma_ratio(alpha, y):
    """Gamma(alpha + i y) / Gamma(alpha) at the working precision."""
    a = mpmath.mpf(alpha)
    return mpmath.exp(mpmath.loggamma(mpmath.mpc(a, y)) - mpmath.loggamma(a))


def series_sum(ratios, theta, zs):
    """z + 2 sum_k Re[r_k e^{-2 pi i k theta} (e^{2 pi i k z} - 1) / (2 pi i k)]
    at each z in zs, summed at 40 digits over the given r_1, r_2, ... (floats,
    complex or mpmath numbers), as floats."""
    with mpmath.workdps(40):
        theta = mpmath.mpf(theta)
        coefs = [mpmath.mpc(r) * mpmath.expjpi(-2 * k * theta) / (2j * mpmath.pi * k)
                 for k, r in enumerate(ratios, 1)]
        row = []
        for z in zs:
            w = mpmath.expjpi(2 * mpmath.mpf(z))
            total, w_k = mpmath.mpc(0), mpmath.mpc(1)
            for c in coefs:
                w_k *= w
                total += c * (w_k - 1)
            row.append(float(mpmath.mpf(z) + 2 * total.real))
        return row


def cdf(alpha, base, betas, zs):
    """F_B(z) for each beta in betas and each z in zs, at 40 digits, as floats.

    theta = log_B beta, and the series is summed by series_sum.  |r_k|
    decreases in k, and the sum stops at the first |r_k| below e^-120.
    """
    with mpmath.workdps(40):
        lb = mpmath.log(base)
        ratios = []
        while not ratios or abs(ratios[-1]) >= mpmath.exp(-120):
            ratios.append(gamma_ratio(alpha, 2 * mpmath.pi * (len(ratios) + 1) / lb))
        return [series_sum(ratios, mpmath.log(beta) / lb, zs) for beta in betas]


def oracle_sum(alpha, beta, base, z, k_range):
    """The direct sum F_B(z) = sum_{k=-K}^{K} P(a, beta B^-k) - P(a, beta B^-(k+z))
    (P the regularized lower incomplete gamma function, mpmath's gammainc)
    for beta the canonical scale in [1, B) and K = k_range, as a float.

    Each P is taken at 50 digits, so each difference keeps 40 where it
    cancels down to 1e-10 of its edges.  Terms whose smaller edge
    beta B^-(k+z) exceeds 1e4 are left out: for alpha <= 100 each is below
    Q(alpha, 1e4) < e^-9000.
    """
    with mpmath.workdps(50):
        a, b, bb = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(base)
        shrink = bb ** -mpmath.mpf(z)
        total = mpmath.mpf(0)
        for k in range(-k_range, k_range + 1):
            x = b * bb ** -k
            if x * shrink <= 10_000:
                total += (mpmath.gammainc(a, 0, x, regularized=True)
                          - mpmath.gammainc(a, 0, x * shrink, regularized=True))
        return float(total)
