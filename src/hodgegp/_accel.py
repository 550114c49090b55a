"""Numpy Legendre recurrences: one recurrence that tables P_l, one contraction
of such a table with per-level weights (weighted sums, the fit's kept table),
the exact integer maps that turn weighted sums of P_l' and P_l'' into plain
Legendre series, and the associated-Legendre tables."""

from functools import lru_cache

import numpy as np

_INV_SQRT_4PI = 0.28209479177387814  # (4*pi)**-0.5
_CHUNK = 1 << 14   # abscissae per pass of legendre_sums: 128 KB per table level


def using_numba():
    """Always False: every recurrence runs in numpy (kept for callers that record it)."""
    return False


# ---------------------------------------------------------------------------
# Legendre polynomials P_l(t) as a table of levels. Three-term recurrence,
# exact at t = +-1. Derivative sums are Legendre series with mapped weights.
# ---------------------------------------------------------------------------

def legendre_table(t, lmax, out=None):
    """The (lmax + 1,) + shape(t) table of P_l(t), l = 0..lmax, filled into ``out`` if given."""
    t = np.asarray(t, dtype=np.float64)
    table = np.empty((lmax + 1,) + t.shape) if out is None else out
    table[0] = 1.0
    table[1:2] = t   # no level 1 when lmax = 0
    u = np.empty_like(t)
    for l in range(2, lmax + 1):
        # ((2l - 1) t P_{l-1} - (l - 1) P_{l-2}) / l; one division keeps t = +-1 integer-exact
        p = table[l, ...]   # a view also for 0-d t
        np.multiply(t, 2.0 * l - 1.0, out=p)
        p *= table[l - 1]
        np.multiply(table[l - 2], l - 1.0, out=u)
        p -= u
        p /= l
    return table


def _contract_levels(weights, table, out=None):
    """(k,) + table.shape[1:] sums sum_l weights[j, l] table[l], one per weight row.

    einsum adds the levels in order (for one abscissa it may pair them), so a
    chunk and the whole table give the same bits; ``weights @ table`` does not,
    as BLAS picks its summation order by the shape.
    """
    sums = np.einsum("kl,ln->kn", weights, table.reshape(table.shape[0], -1), out=out)
    return sums.reshape((weights.shape[0],) + table.shape[1:])


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

    ``weights`` is (k, lmax + 1); returns (k,) + shape(t). Long abscissa arrays
    run in near-equal chunks of at most ``_CHUNK``, each tabled into one buffer.
    """
    weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    t = np.asarray(t, dtype=np.float64)
    sums = np.empty((weights.shape[0],) + t.shape)
    parts = max(1, -(-t.size // _CHUNK))
    table = np.empty((weights.shape[1], -(-t.size // parts)))
    for chunk, out in zip(np.array_split(t.reshape(-1), parts),
                          np.array_split(sums.reshape(weights.shape[0], -1), parts, axis=1)):
        _contract_levels(weights, legendre_table(chunk, weights.shape[1] - 1,
                                                 out=table[:, :chunk.size]), out=out)
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
