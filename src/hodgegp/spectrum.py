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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._accel import alp_tables, legendre_derivative_maps, legendre_sums
from .errors import InvalidInputError
from .manifold import CIRCLE, SPHERE, TORUS, TWO_PI, ManifoldPoint, TangentVector, sphere_point

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
    if l < 0:
        raise InvalidInputError("level must be nonnegative")
    t = float(t)
    if abs(t) > 1.0 + 1e-12:
        raise InvalidInputError(f"Legendre argument {t} outside [-1, 1]")
    # weight rows: one-hot at level l, then the maps' columns for P_l' and P_l''
    weights = np.concatenate([np.eye(l + 1)[None], legendre_derivative_maps(l)])[:, :, l]
    p, dp, d2p = legendre_sums(np.array([t]), weights)
    return float(p[0]), float(dp[0]), float(d2p[0])


# ---------------------------------------------------------------------------
# Sphere: real spherical harmonics and their tangential gradients
# ---------------------------------------------------------------------------

def _sphere_angles(X):
    """cos/sin of colatitude and unit azimuth direction for (n, 3) points."""
    ct = X[:, 2]
    st = np.hypot(X[:, 0], X[:, 1])
    safe = np.where(st > 0.0, st, 1.0)
    cp = np.where(st > 0.0, X[:, 0] / safe, 1.0)
    sp = np.where(st > 0.0, X[:, 1] / safe, 0.0)
    return ct, st, cp, sp


def _azimuth_tables(cp, sp, mmax):
    """cos(m*phi), sin(m*phi) for m = 0..mmax by angle-addition recurrence."""
    n = cp.shape[0]
    cosm = np.empty((mmax + 1, n))
    sinm = np.empty((mmax + 1, n))
    cosm[0] = 1.0
    sinm[0] = 0.0
    for m in range(1, mmax + 1):
        cosm[m] = cosm[m - 1] * cp - sinm[m - 1] * sp
        sinm[m] = sinm[m - 1] * cp + cosm[m - 1] * sp
    return cosm, sinm


class _SphereTables:
    """Shared per-point-batch tables for harmonics and their gradients."""

    def __init__(self, X, lmax):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        ct, st, cp, sp = _sphere_angles(X)
        self.a, self.b, self.d = alp_tables(ct, st, lmax)
        self.cosm, self.sinm = _azimuth_tables(cp, sp, lmax)
        # local unit vectors: e_theta southward, e_phi eastward
        self.e_theta = np.stack([ct * cp, ct * sp, -st], axis=1)
        self.e_phi = np.stack([-sp, cp, np.zeros_like(sp)], axis=1)

    def harmonic(self, l, m):
        mu = abs(m)
        if m == 0:
            return self.a[l, 0].copy()
        trig = self.cosm[mu] if m > 0 else self.sinm[mu]
        return _SQRT2 * self.a[l, mu] * trig

    def gradient_coeffs(self, l, m):
        """Coefficients (g_theta, g_phi) of grad Y_lm in the local basis."""
        mu = abs(m)
        if m == 0:
            return self.b[l, 0].copy(), np.zeros_like(self.b[l, 0])
        if m > 0:
            gt = _SQRT2 * self.b[l, mu] * self.cosm[mu]
            gp = -_SQRT2 * mu * self.d[l, mu] * self.sinm[mu]
        else:
            gt = _SQRT2 * self.b[l, mu] * self.sinm[mu]
            gp = _SQRT2 * mu * self.d[l, mu] * self.cosm[mu]
        return gt, gp

    def gradient(self, l, m):
        gt, gp = self.gradient_coeffs(l, m)
        return gt[:, None] * self.e_theta + gp[:, None] * self.e_phi

    def rotated_gradient(self, l, m):
        # x cross e_theta = e_phi and x cross e_phi = -e_theta
        gt, gp = self.gradient_coeffs(l, m)
        return gt[:, None] * self.e_phi - gp[:, None] * self.e_theta


def spherical_harmonic(l, m, x):
    """Real orthonormal spherical harmonic Y_lm at unit point(s) x."""
    if abs(m) > l:
        raise InvalidInputError(f"|m| = {abs(m)} exceeds level {l}")
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    vals = _SphereTables(X, l).harmonic(l, m)
    return float(vals[0]) if np.asarray(x).ndim == 1 else vals


def sphere_eigenfield(hodge_class, l, m, x):
    """Normalized Hodge eigenfield of the sphere at a single point.

    The div class is grad Y_lm / sqrt(l(l+1)); the curl class is its
    90-degree rotation about the outward normal. Level 0 is rejected since
    the constant has zero gradient.
    """
    if hodge_class not in (DIV, CURL):
        raise InvalidInputError("sphere eigenfields are div or curl class")
    if l < 1:
        raise InvalidInputError("eigenfields need level >= 1")
    if abs(m) > l:
        raise InvalidInputError(f"|m| = {abs(m)} exceeds level {l}")
    p = x if isinstance(x, ManifoldPoint) else sphere_point(x)
    tab = _SphereTables(p.coords[None, :], l)
    g = tab.gradient(l, m) if hodge_class == DIV else tab.rotated_gradient(l, m)
    return TangentVector(p, g[0] / math.sqrt(sphere_eigenvalue(l)))


class SphereSpectrum:
    """Truncated spectrum of the unit sphere up to harmonic level lmax."""

    manifold = SPHERE
    dim = 2

    def __init__(self, lmax):
        if lmax < 0:
            raise InvalidInputError("lmax must be nonnegative")
        self.lmax = lmax
        self.volume = 4.0 * math.pi
        self.scalar = [ScalarEigenpair(sphere_eigenvalue(l), (l, m))
                       for l in range(lmax + 1) for m in range(-l, l + 1)]
        self.entries = [EigenfieldIndex(cls, sphere_eigenvalue(l), (l, m))
                        for l in range(1, lmax + 1)
                        for cls in (DIV, CURL)
                        for m in range(-l, l + 1)]

    def eigenvalues(self):
        return np.array([e.eigenvalue for e in self.entries])

    def scalar_eigenvalues(self):
        return np.array([s.eigenvalue for s in self.scalar])

    def scalar_values(self, X):
        """(n_scalar, npts) matrix of Y_lm values at (npts, 3) unit points."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        tab = _SphereTables(X, self.lmax)
        return np.stack([tab.harmonic(l, m) for (l, m) in
                         ((s.label[0], s.label[1]) for s in self.scalar)])

    def eigenfield_values(self, X):
        """(n_entries, npts, 3) ambient values of every eigenfield at X."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        tab = _SphereTables(X, self.lmax)
        out = np.empty((len(self.entries), X.shape[0], 3))
        for i, e in enumerate(self.entries):
            l, m = e.label
            g = tab.gradient(l, m) if e.hodge_class == DIV else tab.rotated_gradient(l, m)
            out[i] = g / math.sqrt(e.eigenvalue)
        return out


# ---------------------------------------------------------------------------
# Circle and flat tori
# ---------------------------------------------------------------------------

def _axis_values(freq, parity, theta):
    """One-axis factor: 1/sqrt(2 pi), cos(n t)/sqrt(pi) or sin(n t)/sqrt(pi)."""
    if freq == 0:
        return np.full_like(theta, _INV_SQRT_2PI)
    if parity == 0:
        return np.cos(freq * theta) * _INV_SQRT_PI
    return np.sin(freq * theta) * _INV_SQRT_PI


def _axis_derivs(freq, parity, theta):
    if freq == 0:
        return np.zeros_like(theta)
    if parity == 0:
        return -freq * np.sin(freq * theta) * _INV_SQRT_PI
    return freq * np.cos(freq * theta) * _INV_SQRT_PI


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
        theta = np.atleast_2d(np.asarray(theta, dtype=np.float64))
        vals = np.ones((len(self.scalar), theta.shape[0]))
        for j in range(self.dim):
            for i, (f, p) in enumerate(zip(self.freqs[:, j], self.parities[:, j])):
                vals[i] *= _axis_values(int(f), int(p), theta[:, j])
        return vals

    def scalar_gradients(self, theta):
        """(n_scalar, npts, d) gradients in the global frame."""
        theta = np.atleast_2d(np.asarray(theta, dtype=np.float64))
        npts = theta.shape[0]
        factors = np.empty((len(self.scalar), self.dim, npts))
        derivs = np.empty((len(self.scalar), self.dim, npts))
        for j in range(self.dim):
            for i, (f, p) in enumerate(zip(self.freqs[:, j], self.parities[:, j])):
                factors[i, j] = _axis_values(int(f), int(p), theta[:, j])
                derivs[i, j] = _axis_derivs(int(f), int(p), theta[:, j])
        grads = np.empty((len(self.scalar), npts, self.dim))
        for j in range(self.dim):
            g = derivs[:, j].copy()
            for k in range(self.dim):
                if k != j:
                    g *= factors[:, k]
            grads[:, :, j] = g
        return grads

    def eigenfield_values(self, theta):
        """(n_entries, npts, d) frame components of every eigenfield."""
        if self.dim > 2:
            raise InvalidInputError(
                "classified eigenfields are available for tori of dimension <= 2")
        theta = np.atleast_2d(np.asarray(theta, dtype=np.float64))
        npts = theta.shape[0]
        out = np.zeros((len(self.entries), npts, self.dim))
        if self.dim == 1:
            vals = self.scalar_values(theta)
            lookup = {s.label: i for i, s in enumerate(self.scalar)}
            for i, e in enumerate(self.entries):
                out[i, :, 0] = vals[lookup[e.label]]
            return out
        grads = self.scalar_gradients(theta)
        lookup = {s.label: i for i, s in enumerate(self.scalar)}
        for i, e in enumerate(self.entries):
            if e.hodge_class == HARM:
                out[i, :, e.label[1]] = 1.0 / TWO_PI
                continue
            g = grads[lookup[e.label]] / math.sqrt(e.eigenvalue)
            if e.hodge_class == DIV:
                out[i] = g
            else:  # 90-degree rotation (g1, g2) -> (-g2, g1)
                out[i, :, 0] = -g[:, 1]
                out[i, :, 1] = g[:, 0]
        return out


def circle_spectrum(n_max):
    """Circle spectrum: constant plus cos/sin levels n = 1..n_max, lambda = n^2."""
    if n_max < 0:
        raise InvalidInputError("n_max must be nonnegative")
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
    for s in (a, b):
        if not isinstance(s, TorusSpectrum):
            raise InvalidInputError("product spectra require circle or torus factors")
        if len(s.scalar) == 0:
            raise InvalidInputError("empty factor spectrum")
        if s.max_scalar_eigenvalue() < lambda_cap:
            raise InvalidInputError(
                "factor spectra must be truncated at or beyond lambda_cap")
    lam_a = a.scalar_eigenvalues()
    lam_b = b.scalar_eigenvalues()
    keep = lam_a[:, None] + lam_b[None, :] <= lambda_cap
    ia, ib = np.nonzero(keep)
    freqs = np.hstack([a.freqs[ia], b.freqs[ib]])
    parities = np.hstack([a.parities[ia], b.parities[ib]])
    return TorusSpectrum(freqs, parities)


@lru_cache(maxsize=16)
def sphere_spectrum(lmax):
    return SphereSpectrum(lmax)


@lru_cache(maxsize=16)
def torus_spectrum(d, lambda_cap):
    """Flat-torus spectrum built as an iterated product of circles."""
    if d < 1:
        raise InvalidInputError("torus dimension must be >= 1")
    n_max = int(math.ceil(math.sqrt(lambda_cap)))
    spec = circle_spectrum(n_max)
    for _ in range(d - 1):
        spec = product_spectrum(spec, circle_spectrum(n_max), lambda_cap)
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
