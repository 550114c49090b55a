"""Numpy Legendre recurrences: one level-by-level pass for P_l (read by
weighted sums, per-level tables and single values), the exact integer maps
that turn weighted sums of P_l' and P_l'' into plain Legendre series, and the
associated-Legendre tables."""

from functools import lru_cache

import numpy as np

_INV_SQRT_4PI = 0.28209479177387814  # (4*pi)**-0.5
_CHUNK = 1 << 14   # abscissae per pass of legendre_sums: ~128 KB per buffer


def using_numba():
    """Always False: every recurrence runs in numpy (kept for callers that record it)."""
    return False


# ---------------------------------------------------------------------------
# Legendre polynomials P_l(t), level by level. Three-term recurrence, exact
# at t = +-1. Derivative sums are Legendre series with mapped weights.
# ---------------------------------------------------------------------------

def legendre_levels(t, lmax):
    """Yield P_l(t) for l = 0..lmax, one level per step.

    The recurrence rolls over two levels held in place, so memory stays a
    few arrays of len(t) for any lmax. The yielded arrays are those buffers:
    the next step overwrites them, so copy what must outlive it.
    """
    t = np.ascontiguousarray(t, dtype=np.float64)
    p = np.ones_like(t)      # level l-2, overwritten by level l; q holds l-1
    yield p
    if lmax < 1:
        return
    q = t.copy()
    yield q
    u = np.empty_like(t)
    for l in range(2, lmax + 1):
        # ((2l - 1) t q - (l - 1) p) / l; one division keeps t = +-1 integer-exact
        np.multiply(t, 2.0 * l - 1.0, out=u)
        u *= q
        p *= l - 1.0
        np.subtract(u, p, out=p)
        p /= l
        yield p
        p, q = q, p


@lru_cache(maxsize=None)
def legendre_derivative_maps(lmax):
    """The (2, lmax + 1, lmax + 1) integer maps D = (D1, D2) with, for weights c,

        sum_l c_l P_l'(t)  = sum_k (D1 c)_k P_k(t),
        sum_l c_l P_l''(t) = sum_k (D2 c)_k P_k(t),

    from P_l' = sum_{k < l, l - k odd} (2k + 1) P_k and
    P_l'' = sum_{k <= l - 2, l - k even} (k + 1/2) (l(l+1) - k(k+1)) P_k.
    Every entry is an integer, so the maps are exact; ``D @ c`` gives both
    weight rows. Read-only, cached.
    """
    k = np.arange(lmax + 1)[:, None]
    l = np.arange(lmax + 1)[None, :]
    gap = l - k
    d1 = np.where((gap > 0) & (gap % 2 == 1), 2 * k + 1, 0)
    d2 = np.where((gap > 0) & (gap % 2 == 0), (2 * k + 1) * gap * (l + k + 1) // 2, 0)
    maps = np.stack([d1, d2]).astype(np.float64)
    maps.flags.writeable = False
    return maps


def legendre_sums(t, weights):
    """Weighted sums sum_l weights[j, l] P_l(t), one per weight row, from one pass.

    ``weights`` is (k, lmax + 1); returns (k,) + shape(t). Accumulates the
    levels of ``legendre_levels`` in order; a level whose weight is zero is
    recurred through but not accumulated. Long abscissa arrays run in chunks
    of ``_CHUNK``, so the recurrence's buffers stay in cache; every value is
    computed as in one unchunked pass.
    """
    weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    t = np.asarray(t, dtype=np.float64)
    sums = np.zeros((weights.shape[0],) + t.shape)
    flat_t, flat_sums = t.reshape(-1), sums.reshape(weights.shape[0], -1)
    for start in range(0, t.size, _CHUNK):
        chunk = flat_t[start:start + _CHUNK]
        acc = flat_sums[:, start:start + _CHUNK]
        u = np.empty_like(chunk)
        for l, p in enumerate(legendre_levels(chunk, weights.shape[1] - 1)):
            for s, w in zip(acc, weights[:, l]):
                if w != 0.0:
                    np.multiply(p, w, out=u)
                    s += u
    return sums


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
