"""Independent reference for the headline metric max_z |F_B(z) - z|.

The gamma-coefficient series

    D(z) = F_B(z) - z = sum_{k>=1} 2 Re(c_k (e^{2 pi i k z} - 1)),
    c_k = r_k e^{-2 pi i k theta} / (2 pi i k),
    r_k = Gamma(alpha + 2 pi i k / ln B) / Gamma(alpha),  theta = log_B(beta) mod 1,

is evaluated here with coefficients from mpmath at 20 digits, summed until
|r_k| / (2 pi k) drops below 1e-16.  |r_k| decreases in k (DLMF 5.8.3), so
the dropped tail is negligible.  Nothing from the package under test is
used, so a defect in its special functions, cutoff rule or kernel shows.
"""

import math

import mpmath
import numpy as np

_TAIL = 1e-16
_DPS = 20
GRID_POINTS = 1001  # the z grid of the deviation and grid commands


def coefficients(alpha: float, beta: float, base: int) -> np.ndarray:
    """c_k for k = 1..K as complex doubles; K is where |c_k| < 1e-16."""
    out = []
    with mpmath.workdps(_DPS):
        a = mpmath.mpf(alpha)
        lb = mpmath.log(base)
        theta = mpmath.log(mpmath.mpf(beta)) / lb
        theta -= mpmath.floor(theta)
        lga = mpmath.loggamma(a)
        k = 1
        while True:
            two_pi_k = 2 * mpmath.pi * k
            log_r = mpmath.loggamma(mpmath.mpc(a, two_pi_k / lb)) - lga
            if mpmath.exp(log_r.real) / two_pi_k < _TAIL:
                break
            c = mpmath.exp(log_r - 1j * two_pi_k * theta) / (1j * two_pi_k)
            out.append(complex(c))
            k += 1
    return np.array(out, dtype=complex)


def deviation(c: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """D(z) at each z in [0, 1], summed term by term to keep memory at O(len(zs))."""
    total = np.zeros_like(zs)
    for k, ck in enumerate(c, start=1):
        phase = 2.0 * math.pi * np.mod(k * zs, 1.0)
        total += 2.0 * (ck.real * (np.cos(phase) - 1.0) - ck.imag * np.sin(phase))
    return total


def sup_abs_deviation(c: np.ndarray, tol: float = 1e-13) -> float:
    """An upper bound on sup_{z in [0, 1]} |D(z)|, within `tol` of it.

    Branch-and-bound: on an interval of width h, |D| exceeds the larger of
    its end values by at most h^2/8 * max|D''| (the linear-interpolation
    error), and |D''| <= 2 sum 2 pi k |r_k|.  Intervals that could beat the
    best end value are split 16 ways until that slack is below `tol`.
    """
    two_pi_k = 2.0 * math.pi * np.arange(1, c.size + 1)
    curvature = 2.0 * float(np.sum(np.abs(c) * two_pi_k * two_pi_k))
    h = 1.0
    lefts = np.zeros(1)
    while True:
        h /= 16.0
        # 17 points per kept interval: its 16 sub-intervals share end points
        pts = np.abs(deviation(c, (lefts[:, None] + h * np.arange(17)).ravel())).reshape(-1, 17)
        ends = np.maximum(pts[:, :-1], pts[:, 1:]).ravel()
        slack = h * h / 8.0 * curvature
        best = float(ends.max())
        if slack <= tol:
            return best + slack
        lefts = (lefts[:, None] + h * np.arange(16)).ravel()[ends + slack >= best]


def check_max_dev(reported: float, alpha: float, beta: float, base: int,
                  epsilon: float) -> str | None:
    """None when `reported` is a valid max |F_B(z) - z| at accuracy epsilon, else why not.

    Valid means: at least the reference maximum over the uniform z grid of
    GRID_POINTS minus epsilon (a refined maximum only grows), and at
    most the reference supremum over [0, 1] plus epsilon (so a polished
    maximum may exceed the grid value by the grid slack, but a wrong value
    cannot).  The supremum is only computed when the grid value does not
    already settle the check.
    """
    slop = 1e-12
    c = coefficients(alpha, beta, base)
    lo = float(np.max(np.abs(deviation(c, np.linspace(0.0, 1.0, GRID_POINTS)))))
    if not math.isfinite(reported) or reported < lo - epsilon - slop:
        return f"max_dev={reported!r} below grid reference {lo!r} - eps at {alpha=!r} {beta=!r} {base=}"
    if reported > lo + epsilon + slop:
        hi = sup_abs_deviation(c)
        if reported > hi + epsilon + slop:
            return f"max_dev={reported!r} above sup reference {hi!r} + eps at {alpha=!r} {beta=!r} {base=}"
    return None
