"""Canonical geometry of the supported manifolds.

Supported manifolds are the unit sphere S2 embedded in R3, the unit circle
(circumference 2*pi), and flat tori T^d (products of unit circles). Sphere
points are stored as unit 3-vectors so that kernel code never touches a
coordinate singularity; angles appear only at ingestion and emission.
"""

from dataclasses import InitVar, dataclass

import numpy as np

from .errors import InvalidInputError, warn_deprecated

SPHERE = "sphere"
CIRCLE = "circle"
TORUS = "torus"

TWO_PI = 2.0 * np.pi

_UNIT_NORM_TOL = 1e-12
_TANGENCY_TOL = 1e-10
_POLE_THRESHOLD = 1.0 - 1e-9  # |x3| above this selects the fallback frame


def check_sphere_points(X):
    """Raise InvalidInputError unless X is an (m, 3) array of finite rows of unit norm.

    A row passes when its norm is within ``_UNIT_NORM_TOL`` of 1, the
    tolerance of ``ManifoldPoint``.
    """
    if X.ndim != 2 or X.shape[1] != 3:
        raise InvalidInputError(f"sphere points must be an (m, 3) array, got shape {X.shape}")
    norms = np.linalg.norm(X, axis=1)
    bad = ~(np.abs(norms - 1.0) <= _UNIT_NORM_TOL)   # NaN norms are bad too
    if bad.any():
        i = int(np.argmax(bad))
        raise InvalidInputError(f"sphere point must have unit norm, got {norms[i]!r} at row {i}")


def _reduce_angles(a):
    """Angles reduced to [0, 2*pi); InvalidInputError unless every angle is finite."""
    if not np.isfinite(a).all():
        raise InvalidInputError("circle and torus angles must be finite, "
                                f"got {a[~np.isfinite(a)][0]}")
    r = np.mod(a, TWO_PI)
    # np.mod can round up to exactly 2*pi for tiny negative inputs
    return np.where(r >= TWO_PI, 0.0, r)


@dataclass(frozen=True, eq=False)
class ManifoldPoint:
    """A point on one of the supported manifolds.

    Sphere coordinates are a unit 3-vector; circle and torus coordinates are
    angles reduced to [0, 2*pi).
    """

    manifold: str
    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=np.float64)
        if self.manifold == SPHERE:
            if c.shape != (3,):
                raise InvalidInputError("sphere point needs a 3-vector")
            check_sphere_points(c[None])
        elif self.manifold == CIRCLE:
            if c.shape != (1,):
                raise InvalidInputError("circle point needs a single angle")
            c = _reduce_angles(c)
        elif self.manifold == TORUS:
            if c.ndim != 1 or c.shape[0] < 1:
                raise InvalidInputError("torus point needs at least one angle")
            c = _reduce_angles(c)
        else:
            raise InvalidInputError(f"unknown manifold {self.manifold!r}")
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    @property
    def dim(self):
        return 2 if self.manifold == SPHERE else self.coords.shape[0]


def sphere_point(v):
    """Build a sphere point from any nonzero 3-vector, normalizing it."""
    v = np.asarray(v, dtype=np.float64)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise InvalidInputError("cannot normalize the zero vector")
    return ManifoldPoint(SPHERE, v / n)


def circle_point(theta):
    return ManifoldPoint(CIRCLE, np.array([theta], dtype=np.float64))


def torus_point(angles):
    return ManifoldPoint(TORUS, np.asarray(angles, dtype=np.float64))


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A tangent vector at a manifold point.

    Sphere components are ambient 3-vectors orthogonal to the base point;
    circle and torus components are coefficients in the global frame.
    """

    base: ManifoldPoint
    components: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.components, dtype=np.float64)
        if not np.all(np.isfinite(c)):
            raise InvalidInputError("tangent vector components must be finite")
        if self.base.manifold == SPHERE:
            if c.shape != (3,):
                raise InvalidInputError("sphere tangent vector needs a 3-vector")
            norm = np.linalg.norm(c)
            if abs(float(c @ self.base.coords)) > _TANGENCY_TOL * max(norm, 1e-300):
                raise InvalidInputError("components are not tangent at the base point")
        elif c.shape != self.base.coords.shape:
            raise InvalidInputError("component count must match the manifold dimension")
        c.flags.writeable = False
        object.__setattr__(self, "components", c)

    @property
    def norm(self):
        return float(np.linalg.norm(self.components))


@dataclass(frozen=True, eq=False)
class TangentFrame:
    """Deprecated: an orthonormal oriented basis (b1, b2) of a sphere tangent plane.

    Orientation fixed by b2 = x cross b1, so (b1, b2, x) is right-handed.
    ``frames_at(sphere_point(x).coords)[0]`` is the basis as a (2, 3) array with rows b1, b2.
    """

    base: ManifoldPoint
    basis: np.ndarray  # shape (2, 3), rows b1 and b2
    stacklevel: InitVar[int] = 3  # the warning's frame: the constructor's caller

    def __post_init__(self, stacklevel):
        warn_deprecated("frame_at/TangentFrame", "frames_at(sphere_point(x).coords)[0]", stacklevel)
        b = np.asarray(self.basis, dtype=np.float64)
        if b.shape != (2, 3):
            raise InvalidInputError("frame basis must be two 3-vectors")
        b.flags.writeable = False
        object.__setattr__(self, "basis", b)

    @property
    def b1(self):
        return self.basis[0]

    @property
    def b2(self):
        return self.basis[1]


def project_tangent(x, v):
    """Orthogonal projection (I - x x^T) v onto the tangent plane at x.

    Accepts single vectors or batches broadcast along the leading axes.
    """
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return v - np.sum(x * v, axis=-1, keepdims=True) * x


def hodge_star(v: TangentVector) -> TangentVector:
    """Rotate a sphere tangent vector by 90 degrees about the outward normal.

    Computes x cross v; applying it twice negates the vector.
    """
    if v.base.manifold != SPHERE:
        raise InvalidInputError("hodge_star is defined for sphere tangent vectors")
    return TangentVector(v.base, np.cross(v.base.coords, v.components))


def frames_at(xs):
    """Oriented east/north-style frames for an (n, 3) array of unit points.

    Away from the poles b1 is the unit east direction and b2 = x cross b1
    points north. Within 1e-9 of a pole a fixed fallback derived from e1 is
    used so the result stays deterministic and orthonormal.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    n = xs.shape[0]
    b1 = np.empty((n, 3))
    s = np.hypot(xs[:, 0], xs[:, 1])
    regular = np.abs(xs[:, 2]) <= _POLE_THRESHOLD
    safe = np.where(regular, s, 1.0)
    b1[:, 0] = np.where(regular, -xs[:, 1] / safe, 0.0)
    b1[:, 1] = np.where(regular, xs[:, 0] / safe, 0.0)
    b1[:, 2] = 0.0
    if not np.all(regular):
        e1 = np.array([1.0, 0.0, 0.0])
        for i in np.nonzero(~regular)[0]:
            t = e1 - (xs[i] @ e1) * xs[i]
            b1[i] = t / np.linalg.norm(t)
    b2 = np.cross(xs, b1)
    return np.stack([b1, b2], axis=1)


def frame_at(x) -> TangentFrame:
    """Deprecated: the frame of ``frames_at`` at a sphere point, as a TangentFrame."""
    p = x if isinstance(x, ManifoldPoint) else sphere_point(x)
    return TangentFrame(p, frames_at(p.coords)[0], 4)  # warned at frame_at's caller


def lonlat_to_point(lon_deg, lat_deg) -> ManifoldPoint:
    """Unit sphere point from geographic longitude/latitude in degrees."""
    if not -90.0 <= lat_deg <= 90.0:
        raise InvalidInputError(f"latitude {lat_deg} outside [-90, 90]")
    lon = np.deg2rad(lon_deg)
    lat = np.deg2rad(lat_deg)
    x = np.array([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)])
    return sphere_point(x)


def point_to_lonlat(p) -> tuple:
    """Longitude/latitude in degrees for a sphere point."""
    c = p.coords if isinstance(p, ManifoldPoint) else np.asarray(p, dtype=np.float64)
    lon = np.rad2deg(np.arctan2(c[1], c[0]))
    lat = np.rad2deg(np.arcsin(np.clip(c[2], -1.0, 1.0)))
    return float(lon), float(lat)


def tangent_from_east_north(x, u_east, v_north) -> TangentVector:
    """Tangent vector from east/north components in the frame of ``frames_at`` at x."""
    p = x if isinstance(x, ManifoldPoint) else sphere_point(x)
    b1, b2 = frames_at(p.coords)[0]
    return TangentVector(p, u_east * b1 + v_north * b2)


def east_north_components(v: TangentVector) -> tuple:
    """East/north components of a sphere tangent vector, in the frame of ``frames_at``."""
    b1, b2 = frames_at(v.base.coords)[0]
    return float(v.components @ b1), float(v.components @ b2)


def sample_uniform(manifold, n, rng, dim=2):
    """n i.i.d. points, uniform under the Riemannian volume.

    The sphere uses normalized Gaussians; circles and tori use independent
    uniform angles. Deterministic given the rng state. ``dim`` applies to
    the torus only.
    """
    if n < 0:
        raise InvalidInputError("sample count must be nonnegative")
    if manifold == SPHERE:
        return [ManifoldPoint(SPHERE, x) for x in sample_sphere(n, rng)]
    if manifold == CIRCLE:
        return [circle_point(t) for t in rng.uniform(0.0, TWO_PI, size=n)]
    if manifold == TORUS:
        return [torus_point(row) for row in rng.uniform(0.0, TWO_PI, size=(n, dim))]
    raise InvalidInputError(f"unknown manifold {manifold!r}")


def sample_sphere(n, rng):
    """(n, 3) array of uniform unit vectors."""
    g = rng.standard_normal((n, 3))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    while np.any(norms == 0.0):  # probability zero, guarded anyway
        bad = norms[:, 0] == 0.0
        g[bad] = rng.standard_normal((int(bad.sum()), 3))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
    return g / norms


def points_array(points):
    """Stack a list of ManifoldPoint into an (n, k) coordinate array."""
    if len(points) == 0:
        return np.zeros((0, 3))
    return np.stack([p.coords for p in points])
