"""Numpy Legendre recurrences: one recurrence that tables a basis in s = 2t^2 - 1
over half the levels, one contraction of such a table with per-level weights
(weighted sums, the fit's kept table), the exact integer maps that turn weighted
sums of P_l' and P_l'' into plain Legendre series, and the associated-Legendre
tables. Also the scope that holds numpy's own OpenBLAS thread pool at one thread
inside the public GP entry points."""

import ctypes
import importlib
import math
import threading
from dataclasses import dataclass, replace
from functools import lru_cache, wraps

import numpy as np

_INV_SQRT_4PI = 0.28209479177387814  # (4*pi)**-0.5
_CHUNK = 1 << 14   # abscissae per pass of legendre_sums: 128 KB per table level


def using_numba():
    """Always False: every recurrence runs in numpy (kept for callers that record it)."""
    return False


# ---------------------------------------------------------------------------
# Legendre series split by parity, e(s) + t o(s) with s = 2t^2 - 1, exact at
# t = +-1. Derivative sums are Legendre series with mapped weights.
# ---------------------------------------------------------------------------

def legendre_table(t, lmax, out=None):
    """The (J + 1,) + shape(t) table, J = lmax // 2 + 1, of B_0 .. B_{J-1} at s = 2t^2 - 1,
    then t; filled into ``out`` if given. ``_contract_levels`` sums any Legendre series from it.

    B_0 = 1, B_1 = s - 1, B_2 = (s - 1)(2s + 1), B_j = 2s B_{j-1} - B_{j-2}: two array
    operations a level for B_j = T_j(s) - T_{j-1}(s) (Chebyshev T), each 0 at t = +-1.
    """
    t = np.asarray(t, dtype=np.float64)
    half = lmax // 2 + 1
    table = np.empty((half + 1,) + t.shape) if out is None else out
    table[0], table[half] = 1.0, t
    if half > 1:   # s - 1 = 2 (t - 1)(t + 1), into a view also for 0-d t
        s1 = np.multiply(t - 1.0, 2.0 * t + 2.0, out=table[1, ...])
        two_s = 2.0 * s1 + 2.0
    if half > 2:
        np.multiply(s1, two_s + 1.0, out=table[2, ...])
    for j in range(3, half):
        b = table[j, ...]
        np.multiply(two_s, table[j - 1], out=b)
        b -= table[j - 2]
    return table


def _contract_levels(weights, table, out=None):
    """(k,) + table.shape[1:] sums sum_l weights[j, l] P_l(t), one per weight row, from
    the ``legendre_table`` at t: e . B + t (o . B), (e, o) from ``legendre_parity_maps``.

    einsum sums in an order set by the level count (for one abscissa it may pair
    levels), so a chunk or the whole table, a weight row alone or among others,
    give the same bits; BLAS products do not, as BLAS picks its order by the shape.
    """
    flat = table.reshape(table.shape[0], -1)   # B_0 .. B_{J-1}, then t
    coeffs = np.einsum("kl,jl->kj", weights, legendre_parity_maps(weights.shape[1] - 1))
    parts = np.einsum("kj,jn->kn", coeffs.reshape(-1, len(flat) - 1), flat[:-1])   # e . B, o . B
    sums = np.multiply(parts[1::2], flat[-1], out=out)
    sums += parts[::2]
    return sums.reshape((weights.shape[0],) + table.shape[1:])


@lru_cache(maxsize=None)
def legendre_parity_maps(lmax):
    """The (2J, lmax + 1) map M, J = lmax // 2 + 1, with, for weights w and (e, o) = M w,
    sum_l w_l P_l(t) = sum_j e_j B_j(s) + t sum_j o_j B_j(s), B_j the ``legendre_table``'s.

    From P_l(cos a) = sum_i g_i g_{l-i} cos((l - 2i) a), g_i = binom(2i, i) / 4^i, with
    cos(2m a) = B_0 + ... + B_m and cos((2m + 1) a) = t (B_0 + 2 sum_{0 < j <= m, m - j even} B_j):
    sums of nonnegative terms; rows e_0, o_0 are the exact parity indicators. Read-only, cached.
    """
    half = lmax // 2 + 1
    g = np.array([math.comb(2 * i, i) / 4 ** i for i in range(lmax + 1)])
    i, l = np.triu_indices(lmax + 1)
    cheb = np.zeros((half, lmax + 1))   # per l, the weight of cos(2m a) or cos((2m + 1) a)
    np.add.at(cheb, (np.abs(l - 2 * i) // 2, l), g[i] * g[l - i])
    j, m = np.indices((half, half))
    odd = np.arange(lmax + 1) % 2 == 1
    maps = np.concatenate([((j <= m) @ cheb) * ~odd,
                           (np.where(j == 0, 1, 2 * ((j <= m) & ((m - j) % 2 == 0))) @ cheb) * odd])
    maps[0], maps[half] = ~odd, odd
    maps.flags.writeable = False
    return maps


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
    lmax = weights.shape[1] - 1
    sums = np.empty((weights.shape[0],) + t.shape)
    parts = max(1, -(-t.size // _CHUNK))
    table = np.empty((lmax // 2 + 2, -(-t.size // parts)))
    for chunk, out in zip(np.array_split(t.reshape(-1), parts),
                          np.array_split(sums.reshape(weights.shape[0], -1), parts, axis=1)):
        _contract_levels(weights, legendre_table(chunk, lmax, out=table[:, :chunk.size]), out=out)
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
    # the subdiagonal l = m + 1, then the l recurrence, each for every m at once
    m = np.arange(lmax)
    c = np.sqrt(2.0 * m + 3.0)[:, None]
    a[m + 1, m] = c * ct * a[m, m]
    b[m + 1, m] = c * (ct * b[m, m] - st * a[m, m])
    d[m[1:] + 1, m[1:]] = c[1:] * ct * d[m[1:], m[1:]]
    for l in range(2, lmax + 1):
        m = np.arange(l - 1)   # every m <= l - 2
        fa = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))[:, None]
        fb = -np.sqrt(((2.0 * l + 1.0) * ((l - 1.0) ** 2 - m * m))
                      / ((2.0 * l - 3.0) * (l * l - m * m)))[:, None]
        k = slice(0, l - 1)
        a[l, k] = fa * ct * a[l - 1, k] + fb * a[l - 2, k]
        b[l, k] = fa * (ct * b[l - 1, k] - st * a[l - 1, k]) + fb * b[l - 2, k]
        d[l, 1:l - 1] = fa[1:] * ct * d[l - 1, 1:l - 1] + fb[1:] * d[l - 2, 1:l - 1]
    return a, b, d


# ---------------------------------------------------------------------------
# BLAS thread pools. The numpy and scipy wheels each bundle an OpenBLAS with
# its own thread pool; numpy's runs the frame GEMMs, scipy's the Cholesky
# and triangular solves. Two pools of two threads on two cores fight when
# small calls interleave: a pool's threads spin for a while after each call,
# stealing the cores the other pool's next call needs. Inside the public GP
# entry points numpy's pool runs on one thread, and scipy's keeps its count,
# which the large factorizations use (measured: numpy's at one thread was
# fastest at n = 200 and 500, and holding scipy's at one too slowed predict
# and fit at n = 500). A pool both packages share has nothing to fight and
# keeps its count.
# ---------------------------------------------------------------------------

# (get, set) thread-count symbol spellings: the scipy-openblas builds of the
# numpy 2 and scipy wheels (64- and 32-bit integers), the OpenBLAS of numpy 1
# wheels, then plain OpenBLAS
_THREAD_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                   ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
                   ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
                   ("openblas_get_num_threads", "openblas_set_num_threads"))


@dataclass(frozen=True)
class BlasPool:
    """One OpenBLAS thread pool and the packages ("numpy", "scipy") whose calls run on it.

    ``symbol`` is the name of its thread-count getter.
    """

    users: tuple
    symbol: str
    get: object    # () -> the pool's thread count
    set: object    # (count) -> None


def _find_pool(user, module_name):
    """The OpenBLAS pool that extension module ``module_name`` of ``user`` links, or None.

    dlsym on the module's handle also searches the libraries it depends on.
    """
    try:
        lib = ctypes.CDLL(importlib.import_module(module_name).__file__)
    except (ImportError, OSError):
        return None
    for get_name, set_name in _THREAD_SYMBOLS:
        get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return BlasPool((user,), get_name, get, set_)
    return None


_BLAS_MODULES = (("numpy", "numpy.linalg._umath_linalg"), ("scipy", "scipy.linalg._flapack"))


@lru_cache(maxsize=None)
def blas_pools():
    """The OpenBLAS thread pools numpy and scipy run on, found on first use.

    Two packages whose getters resolve to the same function share one pool,
    listed once with both users. Without OpenBLAS (another BLAS, or symbols
    under other names) a package has no pool here.
    """
    pools = {}
    for user, module_name in _BLAS_MODULES:
        pool = _find_pool(user, module_name)
        if pool is None:
            continue
        address = ctypes.cast(pool.get, ctypes.c_void_p).value
        if address in pools:
            pool = replace(pools[address], users=pools[address].users + (user,))
        pools[address] = pool
    return tuple(pools.values())


class _NumpyBlasScope:
    """Holds numpy's own pool (one scipy does not share) at one thread while any caller is inside.

    A lock-protected depth count makes it re-entrant and safe across Python
    threads: the outermost entry saves the counts and sets them, the
    outermost exit restores them, also when the call raises. The counts are
    process-wide, so other numpy work running in another thread meanwhile
    also runs on one BLAS thread.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = ()

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                pools = [pool for pool in blas_pools() if pool.users == ("numpy",)]
                self._saved = tuple((pool, pool.get()) for pool in pools)
                for pool in pools:
                    pool.set(1)
            self._depth += 1
        return self

    def __exit__(self, exc_type, exc, tb):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for pool, threads in self._saved:
                    pool.set(threads)
                self._saved = ()
        return False


numpy_blas_scope = _NumpyBlasScope()


def single_threaded_numpy_blas(fn):
    """Decorator: run fn inside ``numpy_blas_scope``."""
    @wraps(fn)
    def scoped(*args, **kwargs):
        with numpy_blas_scope:
            return fn(*args, **kwargs)
    return scoped
