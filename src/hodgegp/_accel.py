"""Numpy Legendre recurrences: weighted Legendre sums and associated-Legendre tables."""

import numpy as np

_INV_SQRT_4PI = 0.28209479177387814  # (4*pi)**-0.5


def using_numba():
    """Always False: every recurrence runs in numpy (kept for callers that record it)."""
    return False


# ---------------------------------------------------------------------------
# Weighted sums of Legendre polynomials P_l(t) and their first two
# derivatives over levels 0..lmax. Three-term recurrence, exact at t = +-1.
# ---------------------------------------------------------------------------

def legendre_sums(t, w0, w1, w2):
    """Weighted sums (sum_l w0[l] P_l, sum_l w1[l] P_l', sum_l w2[l] P_l'') at t.

    The recurrences roll over two levels held in place, so memory stays a
    few arrays of len(t) for any lmax; a level whose weight is zero is
    recurred through but not accumulated.
    """
    t = np.ascontiguousarray(t, dtype=np.float64)
    w0, w1, w2 = (np.asarray(w, dtype=np.float64) for w in (w0, w1, w2))
    lmax = len(w0) - 1
    s0 = np.full_like(t, w0[0])
    s1 = np.zeros_like(t)
    s2 = np.zeros_like(t)
    if lmax < 1:
        return s0, s1, s2
    s0 += w0[1] * t
    s1 += w1[1]
    # (p, dp, d2p) hold level l-2 and are overwritten by level l; (q, dq, d2q) hold l-1
    p, q = np.ones_like(t), t.copy()
    dp, dq = np.zeros_like(t), np.ones_like(t)
    d2p, d2q = np.zeros_like(t), np.zeros_like(t)
    u = np.empty_like(t)
    v = np.empty_like(t)
    for l in range(2, lmax + 1):
        a = 2.0 * l - 1.0
        b = l - 1.0
        # single division keeps the endpoint values t = +-1 integer-exact
        np.multiply(dq, 2.0, out=v)                 # (a (2 dq + t d2q) - b d2p) / l
        np.multiply(t, d2q, out=u)
        v += u
        v *= a
        d2p *= b
        np.subtract(v, d2p, out=d2p)
        d2p /= l
        np.multiply(t, dq, out=u)                   # (a (q + t dq) - b dp) / l
        u += q
        u *= a
        dp *= b
        np.subtract(u, dp, out=dp)
        dp /= l
        np.multiply(t, a, out=u)                    # (a t q - b p) / l
        u *= q
        p *= b
        np.subtract(u, p, out=p)
        p /= l
        for s, w, level in ((s0, w0[l], p), (s1, w1[l], dp), (s2, w2[l], d2p)):
            if w != 0.0:
                np.multiply(level, w, out=u)
                s += u
        p, q = q, p
        dp, dq = dq, dp
        d2p, d2q = d2q, d2p
    return s0, s1, s2


# ---------------------------------------------------------------------------
# Orthonormal associated Legendre tables for real spherical harmonics.
#
# a[l, m] = N_lm * P_l^m(cos theta)   (N_lm the unit-L2-norm factor, no
#                                      Condon-Shortley phase)
# b[l, m] = d a[l, m] / d theta
# d[l, m] = a[l, m] / sin theta       (m >= 1 only; finite at the poles)
#
# The d-table removes the 1/sin(theta) singularity of the longitudinal
# derivative algebraically: every recurrence below is polynomial in
# sin/cos theta.
# ---------------------------------------------------------------------------

def alp_tables(cos_theta, sin_theta, lmax):
    """Orthonormal associated-Legendre value/derivative tables.

    Returns (a, b, d) with shape (lmax+1, lmax+1, npts); first index l,
    second index m (entries with m > l are zero).
    """
    ct = np.ascontiguousarray(cos_theta, dtype=np.float64)
    st = np.ascontiguousarray(sin_theta, dtype=np.float64)
    n = ct.shape[0]
    a = np.zeros((lmax + 1, lmax + 1, n))
    b = np.zeros((lmax + 1, lmax + 1, n))
    d = np.zeros((lmax + 1, lmax + 1, n))
    a[0, 0] = _INV_SQRT_4PI
    for m in range(1, lmax + 1):
        c = np.sqrt((2.0 * m + 1.0) / (2.0 * m))
        a[m, m] = c * st * a[m - 1, m - 1]
        b[m, m] = c * (ct * a[m - 1, m - 1] + st * b[m - 1, m - 1])
        if m == 1:
            d[1, 1] = c * a[0, 0]
        else:
            d[m, m] = c * st * d[m - 1, m - 1]
    for m in range(0, lmax):
        c = np.sqrt(2.0 * m + 3.0)
        a[m + 1, m] = c * ct * a[m, m]
        b[m + 1, m] = c * (ct * b[m, m] - st * a[m, m])
        if m >= 1:
            d[m + 1, m] = c * ct * d[m, m]
    for m in range(0, lmax + 1):
        for l in range(m + 2, lmax + 1):
            fa = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            fb = -np.sqrt(((2.0 * l + 1.0) * ((l - 1.0) ** 2 - m * m))
                          / ((2.0 * l - 3.0) * (l * l - m * m)))
            a[l, m] = fa * ct * a[l - 1, m] + fb * a[l - 2, m]
            b[l, m] = fa * (ct * b[l - 1, m] - st * a[l - 1, m]) + fb * b[l - 2, m]
            if m >= 1:
                d[l, m] = fa * ct * d[l - 1, m] + fb * d[l - 2, m]
    return a, b, d
