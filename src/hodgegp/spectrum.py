"""Spectra of the Laplace-Beltrami and Hodge Laplacians on the supported manifolds.

On a surface every nonzero-eigenvalue eigenfield of the Hodge Laplacian on
vector fields is either a normalized gradient of a scalar eigenfunction f
(pure divergence class) or its 90-degree rotation (pure curl class):

    grad f / sqrt(lambda),   star grad f / sqrt(lambda),

plus harmonic fields spanning the zero eigenspace. The sphere has no
harmonic fields; the flat torus T^d has the d constant frame fields.
Eigenvalues are l*(l+1) on the sphere (spherical harmonics Y_lm) and n^2 on
the unit circle, adding across product factors.
"""

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from ._accel import alp_tables, legendre_derivative_maps, legendre_sums
from .errors import InvalidInputError, check_count
from .manifold import (CIRCLE, SPHERE, TORUS, TWO_PI, ManifoldPoint, TangentVector, coordinates,
                       one_sphere_point)

DIV = "div"
CURL = "curl"
HARM = "harm"

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(TWO_PI)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


@dataclass(frozen=True)
class ScalarEigenpair:
    """One Laplace-Beltrami eigenfunction: eigenvalue plus an index label."""

    eigenvalue: float
    label: tuple


@dataclass(frozen=True)
class EigenfieldIndex:
    """One Hodge-Laplacian eigenfield: class, eigenvalue, index label."""

    hodge_class: str
    eigenvalue: float
    label: tuple

    def __post_init__(self):
        if self.hodge_class not in (DIV, CURL, HARM):
            raise InvalidInputError(f"unknown Hodge class {self.hodge_class!r}")
        if self.hodge_class == HARM and self.eigenvalue != 0.0:
            raise InvalidInputError("harmonic eigenfields carry eigenvalue 0")
        if self.hodge_class != HARM and self.eigenvalue <= 0.0:
            raise InvalidInputError("div/curl eigenfields carry positive eigenvalue")


def sphere_eigenvalue(l):
    """Laplace-Beltrami eigenvalue l*(l+1) of spherical-harmonic level l."""
    if l < 0:
        raise InvalidInputError("level must be nonnegative")
    return float(l * (l + 1))


def legendre(l, t):
    """Legendre polynomial value and first two derivatives at t in [-1, 1]."""
    check_count("level", l, 0)
    t = float(t)
    if not abs(t) <= 1.0 + 1e-12:   # NaN fails too
        raise InvalidInputError(f"Legendre argument {t} outside [-1, 1]")
    # weight rows: one-hot at level l, then the maps' columns for P_l' and P_l''
    weights = np.concatenate([np.eye(l + 1)[None], legendre_derivative_maps(l)])[:, :, l]
    p, dp, d2p = legendre_sums(np.array([t]), weights)
    return float(p[0]), float(dp[0]), float(d2p[0])


# ---------------------------------------------------------------------------
# Sphere: real spherical harmonics and their tangential gradients, as tables
# ---------------------------------------------------------------------------

def _sphere_angles(X):
    """cos/sin of colatitude and unit azimuth direction for (n, 3) points."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    ct = X[:, 2]
    st = np.hypot(X[:, 0], X[:, 1])
    safe = np.where(st > 0.0, st, 1.0)
    cp = np.where(st > 0.0, X[:, 0] / safe, 1.0)
    sp = np.where(st > 0.0, X[:, 1] / safe, 0.0)
    return ct, st, cp, sp


def _local_basis(X):
    """(e_theta, e_phi), each (n, 3): the southward and eastward unit vectors at points X."""
    ct, st, cp, sp = _sphere_angles(X)
    return np.stack([ct * cp, ct * sp, -st], axis=1), np.stack([-sp, cp, np.zeros_like(sp)], axis=1)


def _harmonic_orders(lmax, first):
    """(l, m) of every harmonic with first <= l <= lmax, in ``SphereSpectrum.scalar`` order."""
    k = np.arange(first * first, (lmax + 1) ** 2)   # the row l^2 + l + m counted from level 0
    l = np.sqrt(k).astype(np.int64)
    return l, k - l * (l + 1)


def _harmonic_factors(X, lmax):
    """(a, b, d, trig): the factors of every real harmonic Y_lm and its gradient at points X.

    (a, b, d) are the ``alp_tables``; row m + lmax of trig, (2 lmax + 1, n),
    holds sqrt(2) cos(m phi) for m > 0, 1 for m = 0 and sqrt(2) sin(|m| phi)
    for m < 0, so that Y_lm = a[l, |m|] trig[m + lmax].
    """
    ct, st, cp, sp = _sphere_angles(X)
    mphi = np.arange(1, lmax + 1)[:, None] * np.arctan2(sp, cp)
    trig = np.concatenate([_SQRT2 * np.sin(mphi[::-1]), np.ones((1, len(ct))),
                           _SQRT2 * np.cos(mphi)])
    return alp_tables(ct, st, lmax) + (trig,)


def _gradient_table(factors):
    """(lmax (lmax + 2), 2, n) components of grad Y_lm on (e_theta, e_phi), l >= 1 in scalar order.

    The theta component is b[l, |m|] trig[m]; the phi component
    (1 / sin theta) dY_lm / dphi is -m d[l, |m|] trig[-m].
    """
    _, b, d, trig = factors
    lmax = len(b) - 1
    l, m = _harmonic_orders(lmax, 1)
    return np.stack([b[l, np.abs(m)] * trig[m + lmax],
                     -m[:, None] * d[l, np.abs(m)] * trig[lmax - m]], axis=1)


def harmonic_values(X, lmax):
    """((lmax + 1)^2, npts) values of every real Y_lm, l <= lmax, at (npts, 3) unit points,
    in ``SphereSpectrum.scalar`` order."""
    a, _, _, trig = _harmonic_factors(X, lmax)
    l, m = _harmonic_orders(lmax, 0)
    return a[l, np.abs(m)] * trig[m + lmax]


def gradient_field_values(coeffs, X, lmax):
    """(k, npts, 3) ambient values at X of sum_lm a_lm grad Y_lm + b_lm x cross grad Y_lm,
    one field per row of the (k, 2, lmax (lmax + 2)) coeffs [a, b], l >= 1 in scalar order:
    one matrix product with the gradient table, after which the b sums are rotated
    (x cross e_theta = e_phi, x cross e_phi = -e_theta)."""
    grad = _gradient_table(_harmonic_factors(X, lmax))
    k, n = len(coeffs), grad.shape[2]
    rows = coeffs.transpose(1, 0, 2).reshape(2 * k, len(grad))
    div, curl = (rows @ grad.reshape(len(grad), 2 * n)).reshape(2, k, 2, n)
    e_theta, e_phi = _local_basis(X)
    return ((div[:, 0] - curl[:, 1])[..., None] * e_theta
            + (div[:, 1] + curl[:, 0])[..., None] * e_phi)


def _level_order(l, m, low):
    """(l, m) as ints; InvalidInputError unless the level l >= low and the order m, |m| <= l,
    are integers (a bool is neither)."""
    l = check_count("level", l, low)
    if isinstance(m, bool) or not isinstance(m, numbers.Integral) or abs(m) > l:
        raise InvalidInputError(f"order m must be an integer with |m| <= level {l}, got {m!r}")
    return l, int(m)


def spherical_harmonic(l, m, x):
    """Real orthonormal spherical harmonic Y_lm at sphere point(s) x; a float at one bare point."""
    l, m = _level_order(l, m, 0)
    vals = harmonic_values(coordinates(SPHERE, 2, x), l)[l * (l + 1) + m]
    vector = np.shape(x) == (3,) and not isinstance(x[0], ManifoldPoint)
    return float(vals[0]) if vector or isinstance(x, ManifoldPoint) else vals


def sphere_eigenfield(hodge_class, l, m, x):
    """Normalized Hodge eigenfield of the sphere at a single point.

    The div class is grad Y_lm / sqrt(l(l+1)); the curl class is its
    90-degree rotation about the outward normal. Level 0 is rejected since
    the constant has zero gradient. x is one sphere point (``one_sphere_point``).
    """
    if hodge_class not in (DIV, CURL):
        raise InvalidInputError("sphere eigenfields are div or curl class")
    l, m = _level_order(l, m, 1)
    c = one_sphere_point(x, "sphere_eigenfield")
    # the one coefficient 1 / sqrt(lambda), of grad Y_lm (div) or x cross grad Y_lm (curl)
    coeffs = np.zeros((1, 2, l * (l + 2)))
    coeffs[0, int(hodge_class == CURL), l * (l + 1) - 1 + m] = 1.0 / math.sqrt(sphere_eigenvalue(l))
    return TangentVector(ManifoldPoint(SPHERE, c), gradient_field_values(coeffs, c[None], l)[0, 0])


class SphereSpectrum:
    """Truncated spectrum of the unit sphere up to harmonic level lmax."""

    manifold = SPHERE
    dim = 2

    def __init__(self, lmax):
        check_count("lmax", lmax, 0)
        self.lmax = lmax
        self.volume = 4.0 * math.pi
        self.scalar = [ScalarEigenpair(sphere_eigenvalue(l), (l, m))
                       for l in range(lmax + 1) for m in range(-l, l + 1)]
        self.entries = [EigenfieldIndex(cls, sphere_eigenvalue(l), (l, m))
                        for l in range(1, lmax + 1)
                        for cls in (DIV, CURL)
                        for m in range(-l, l + 1)]
        # the div entries, then the curl entries, each in gradient-table order
        self._div = np.array([e.hodge_class == DIV for e in self.entries], dtype=bool)

    def eigenvalues(self):
        return np.array([e.eigenvalue for e in self.entries])

    def scalar_eigenvalues(self):
        return np.array([s.eigenvalue for s in self.scalar])

    def scalar_values(self, X):
        """(n_scalar, npts) matrix of Y_lm values at (npts, 3) unit points."""
        return harmonic_values(X, self.lmax)

    def eigenfield_values(self, X):
        """(n_entries, npts, 3) ambient values of every eigenfield at X."""
        grad = _gradient_table(_harmonic_factors(X, self.lmax))
        grad /= np.sqrt(self.eigenvalues()[self._div])[:, None, None]
        gt, gp = grad[:, 0, :, None], grad[:, 1, :, None]
        e_theta, e_phi = _local_basis(X)
        out = np.empty((len(self.entries),) + e_theta.shape)
        # the curl class is x cross grad: x cross e_theta = e_phi, x cross e_phi = -e_theta
        out[self._div] = gt * e_theta + gp * e_phi
        out[~self._div] = gt * e_phi - gp * e_theta
        return out


# ---------------------------------------------------------------------------
# Circle and flat tori
# ---------------------------------------------------------------------------

def _axis_factors(freqs, parities, theta):
    """(values, derivatives), each (n_scalar, d, npts): per scalar eigenfunction and axis j
    the one-axis factor 1/sqrt(2 pi), cos(n t)/sqrt(pi) or sin(n t)/sqrt(pi) at the
    angles t = theta[:, j], and its derivative in t."""
    f = freqs[:, :, None]
    nt = f * np.atleast_2d(np.asarray(theta, dtype=np.float64)).T
    cos, sin = np.cos(nt), np.sin(nt)
    even = parities[:, :, None] == 0
    values = np.where(f == 0, _INV_SQRT_2PI, np.where(even, cos, sin) * _INV_SQRT_PI)
    derivs = np.where(f == 0, 0.0, np.where(even, -sin, cos) * f * _INV_SQRT_PI)
    return values, derivs


class TorusSpectrum:
    """Truncated spectrum of a flat torus T^d (d = 1 is the circle).

    Scalar eigenfunctions are products of one-axis Fourier modes with
    eigenvalue sum(n_j^2). Vector eigenfields are classified for d <= 2:
    on the circle every positive level is a gradient, on T^2 each scalar
    level contributes one div and one curl field, and the constants span
    the harmonic class.
    """

    def __init__(self, freqs, parities, manifold=None):
        freqs = np.asarray(freqs, dtype=np.int64)
        parities = np.asarray(parities, dtype=np.int64)
        if freqs.ndim != 2 or freqs.shape != parities.shape or freqs.shape[0] == 0:
            raise InvalidInputError("torus spectrum needs matching nonempty index arrays")
        self.dim = freqs.shape[1]
        self.manifold = manifold or (CIRCLE if self.dim == 1 else TORUS)
        self.volume = TWO_PI ** self.dim
        # canonical order: eigenvalue first, then frequency and parity rows
        # (lexsort treats its last key as primary)
        order = np.lexsort(tuple(parities.T[::-1]) + tuple(freqs.T[::-1])
                           + ((freqs.astype(np.float64) ** 2).sum(axis=1),))
        self.freqs = freqs[order]
        self.parities = parities[order]
        lam = (self.freqs.astype(np.float64) ** 2).sum(axis=1)
        self.scalar = [ScalarEigenpair(float(l), (tuple(f), tuple(p)))
                       for l, f, p in zip(lam, self.freqs, self.parities)]
        self.entries = self._build_entries()

    def _build_entries(self):
        entries = []
        if self.dim == 1:
            for s in self.scalar:
                cls = HARM if s.eigenvalue == 0.0 else DIV
                entries.append(EigenfieldIndex(cls, s.eigenvalue, s.label))
        elif self.dim == 2:
            for j in range(self.dim):
                entries.append(EigenfieldIndex(HARM, 0.0, ("e", j)))
            for s in self.scalar:
                if s.eigenvalue > 0.0:
                    entries.append(EigenfieldIndex(DIV, s.eigenvalue, s.label))
                    entries.append(EigenfieldIndex(CURL, s.eigenvalue, s.label))
        else:
            # no classified vector basis is constructed for d >= 3
            entries = []
        return sorted(entries, key=lambda e: (e.eigenvalue, e.hodge_class, e.label))

    def eigenvalues(self):
        return np.array([e.eigenvalue for e in self.entries])

    def scalar_eigenvalues(self):
        return np.array([s.eigenvalue for s in self.scalar])

    def max_scalar_eigenvalue(self):
        return float(self.scalar_eigenvalues().max())

    def scalar_values(self, theta):
        """(n_scalar, npts) values: the axis factors multiplied in axis order."""
        values, _ = _axis_factors(self.freqs, self.parities, theta)
        return reduce(np.multiply, values.swapaxes(0, 1))

    def scalar_gradients(self, theta):
        """(n_scalar, npts, d) gradients in the global frame: component j is the axis-j
        derivative times the other axes' factors, multiplied in axis order."""
        values, derivs = _axis_factors(self.freqs, self.parities, theta)
        others = [[values[:, k] for k in range(self.dim) if k != j] for j in range(self.dim)]
        return np.stack([reduce(np.multiply, others[j], derivs[:, j]) for j in range(self.dim)],
                        axis=2)

    def eigenfield_values(self, theta):
        """(n_entries, npts, d) frame components of every eigenfield."""
        if self.dim > 2:
            raise InvalidInputError(
                "classified eigenfields are available for tori of dimension <= 2")
        row = {s.label: i for i, s in enumerate(self.scalar)}
        if self.dim == 1:
            return self.scalar_values(theta)[[row[e.label] for e in self.entries], :, None]
        harm = np.array([e.hodge_class == HARM for e in self.entries])
        fields = [e for e in self.entries if e.hodge_class != HARM]
        g = self.scalar_gradients(theta)[[row[e.label] for e in fields]]
        g /= np.sqrt([e.eigenvalue for e in fields])[:, None, None]
        curl = np.array([e.hodge_class == CURL for e in fields], dtype=bool)
        g[curl] = g[curl][..., ::-1] * [-1.0, 1.0]   # 90-degree rotation (g1, g2) -> (-g2, g1)
        out = np.zeros((len(self.entries),) + g.shape[1:])
        out[~harm] = g
        # the constant frame fields e_j / (2 pi), labelled ("e", j)
        axes = [e.label[1] for e in self.entries if e.hodge_class == HARM]
        out[harm] = np.eye(2)[axes][:, None] / TWO_PI
        return out


def circle_spectrum(n_max):
    """Circle spectrum: constant plus cos/sin levels n = 1..n_max, lambda = n^2."""
    check_count("n_max", n_max, 0)
    freqs = [[0]]
    parities = [[0]]
    for n in range(1, n_max + 1):
        freqs += [[n], [n]]
        parities += [[0], [1]]
    return TorusSpectrum(np.array(freqs), np.array(parities), manifold=CIRCLE)


def product_spectrum(a, b, lambda_cap):
    """Spectrum of a product of global-frame manifolds, capped by eigenvalue.

    Combines every pair of factor scalar levels with eigenvalue sum at most
    lambda_cap. Both factors must themselves be truncated at or beyond the
    cap so no admissible combination is missed.
    """
    if not (math.isfinite(lambda_cap) and lambda_cap >= 0.0):
        raise InvalidInputError(f"lambda_cap must be finite and nonnegative, got {lambda_cap!r}")
    for s in (a, b):
        if not isinstance(s, TorusSpectrum):
            raise InvalidInputError("product spectra require circle or torus factors")
        if len(s.scalar) == 0:
            raise InvalidInputError("empty factor spectrum")
        if s.max_scalar_eigenvalue() < lambda_cap:
            raise InvalidInputError(
                "factor spectra must be truncated at or beyond lambda_cap")
    return _capped_product(a, b, lambda_cap)


def _capped_product(a, b, lambda_cap):
    """The levels of a x b with eigenvalue sum at most lambda_cap; complete below the
    cap when a and b are, whatever their largest eigenvalues."""
    lam_a = a.scalar_eigenvalues()
    lam_b = b.scalar_eigenvalues()
    keep = lam_a[:, None] + lam_b[None, :] <= lambda_cap
    ia, ib = np.nonzero(keep)
    freqs = np.hstack([a.freqs[ia], b.freqs[ib]])
    parities = np.hstack([a.parities[ia], b.parities[ib]])
    return TorusSpectrum(freqs, parities)


@lru_cache(maxsize=16, typed=True)   # typed: 2.0 or True must not hit the entry of 2 or 1
def sphere_spectrum(lmax):
    return SphereSpectrum(lmax)


@lru_cache(maxsize=16, typed=True)   # typed: 2.0 or True must not hit the entry of 2 or 1
def torus_spectrum(d, lambda_cap):
    """Flat-torus spectrum built as an iterated product of circles."""
    check_count("d", d, 1)
    if not (math.isfinite(lambda_cap) and lambda_cap >= 0.0):
        raise InvalidInputError(f"lambda_cap must be finite and nonnegative, got {lambda_cap!r}")
    n_max = int(math.ceil(math.sqrt(lambda_cap)))
    spec = circle_spectrum(n_max)
    for _ in range(d - 1):
        # a capped spectrum may top out under the cap, yet it holds every level up to it
        spec = _capped_product(spec, circle_spectrum(n_max), lambda_cap)
    if d == 1:
        # keep only levels within the cap for consistency with products
        keep = spec.scalar_eigenvalues() <= lambda_cap
        spec = TorusSpectrum(spec.freqs[keep], spec.parities[keep], manifold=CIRCLE)
    return spec


# ---------------------------------------------------------------------------
# Quadrature used by tests and diagnostics
# ---------------------------------------------------------------------------

def sphere_quadrature(n_theta=64, n_phi=128):
    """Gauss-Legendre (colatitude) x trapezoid (longitude) rule on S2.

    Returns (points, weights) with sum(weights) = 4*pi; spectrally accurate
    for smooth integrands.
    """
    t, wt = np.polynomial.legendre.leggauss(n_theta)
    phi = np.arange(n_phi) * (TWO_PI / n_phi)
    st = np.sqrt(1.0 - t ** 2)
    x = np.empty((n_theta * n_phi, 3))
    x[:, 0] = np.outer(st, np.cos(phi)).ravel()
    x[:, 1] = np.outer(st, np.sin(phi)).ravel()
    x[:, 2] = np.outer(t, np.ones(n_phi)).ravel()
    w = np.outer(wt, np.full(n_phi, TWO_PI / n_phi)).ravel()
    return x, w


def torus_quadrature(d, n=64):
    """Uniform tensor grid on T^d with exact trapezoid weights for trig."""
    axes = [np.arange(n) * (TWO_PI / n) for _ in range(d)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    w = np.full(pts.shape[0], (TWO_PI / n) ** d)
    return pts, w
