"""Canonical geometry of the supported manifolds.

Supported manifolds are the unit sphere S2 embedded in R3, the unit circle
(circumference 2*pi), and flat tori T^d (products of unit circles). Sphere
points are stored as unit 3-vectors so that kernel code never touches a
coordinate singularity; angles appear only at ingestion and emission.
Every point set is read one way, by ``coordinates``, which checks it and reduces circle and
torus angles to [0, 2*pi), for queries as for data; tangent components by ``check_tangent``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

SPHERE = "sphere"
CIRCLE = "circle"
TORUS = "torus"

TWO_PI = 2.0 * np.pi

_UNIT_NORM_TOL = 1e-12
_TANGENCY_TOL = 1e-10
_POLE_THRESHOLD = 1.0 - 1e-9  # |x3| above this selects the fallback frame


def _reduce_angles(a):
    """Angles reduced to [0, 2*pi); InvalidInputError unless every angle is finite."""
    if not np.isfinite(a).all():
        raise InvalidInputError("circle and torus angles must be finite, "
                                f"got {a[~np.isfinite(a)][0]}")
    r = np.mod(a, TWO_PI)
    # np.mod can round up to exactly 2*pi for tiny negative inputs
    return np.where(r >= TWO_PI, 0.0, r)


def coordinates(manifold, dim, points):
    """(m, k) coordinates, a new float array, of points on the manifold of dimension dim: unit
    3-vectors on the sphere (k = 3), angles reduced to [0, 2*pi) on the circle (k = 1) and
    T^dim. The one reader of caller points: a ``ManifoldPoint`` of the manifold and dimension,
    a list or tuple of them, or array-like rows, finite and of unit norm to ``_UNIT_NORM_TOL``
    on the sphere (one point may be a vector, none give (0, k)); anything else raises
    InvalidInputError. With dim None (``ManifoldPoint``, ``Dataset.from_arrays``: no spec) the
    width is that of the rows, which must be an (m, k) array."""
    if manifold not in (SPHERE, CIRCLE, TORUS):
        raise InvalidInputError(f"unknown manifold {manifold!r}")
    points = [points] if isinstance(points, ManifoldPoint) else points
    if isinstance(points, (list, tuple)) and any(isinstance(p, ManifoldPoint) for p in points):
        for p in points:
            if not isinstance(p, ManifoldPoint):
                raise InvalidInputError(f"points mix ManifoldPoint and coordinate rows: {p!r}")
            check_space(p.manifold, p.dim, manifold, dim)
        points = [p.coords for p in points]
    try:
        X = np.array(points, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"points are not ManifoldPoint or numeric rows: {exc}") from None
    # the width: 3, 1, or d of T^d, with dim None the rows' (None for no rows or no angles)
    k = {SPHERE: 3, CIRCLE: 1}.get(manifold, dim or X.ndim == 2 and X.shape[1] or None)
    if dim is not None:
        X = np.zeros((0, k)) if X.shape == (0,) else np.atleast_2d(X)
    if X.ndim != 2 or X.shape[1] != k:
        where = {SPHERE: "S^2: sphere points must be an (m, 3) array",
                 CIRCLE: "the circle"}.get(manifold, f"T^{k or 'd'}")
        raise InvalidInputError(f"points of shape {X.shape} are not on {where}")
    if manifold != SPHERE:
        return _reduce_angles(X)
    norms = np.linalg.norm(X, axis=1)
    bad = ~(np.abs(norms - 1.0) <= _UNIT_NORM_TOL)   # NaN norms are bad too
    if bad.any():
        i = int(np.argmax(bad))
        raise InvalidInputError(f"sphere point must have unit norm, got {norms[i]!r} at row {i}")
    return X


def check_tangent(manifold, X, V):
    """(m, D) components, a new float array, of the tangent vectors given as array-like rows V
    (none may be []) at the checked points X of the manifold: finite, and on the sphere ambient
    3-vectors orthogonal to x to within ``_TANGENCY_TOL`` of their norm. The one reader of
    tangent components; ``TangentVector`` reads its components as one row."""
    try:
        V = np.array(V, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"tangent components are not numeric rows: {exc}") from None
    V = V.reshape(0, X.shape[1]) if V.shape == (0,) else V
    if V.shape[:1] != X.shape[:1]:
        raise InvalidInputError("points and observations must align")
    if not np.isfinite(V).all():
        raise InvalidInputError("tangent vector components must be finite")
    if V.shape != X.shape:
        raise InvalidInputError("sphere tangent vector needs a 3-vector" if manifold == SPHERE
                                else "component count must match the manifold dimension")
    if manifold == SPHERE:
        # row-wise matmul: its dots are those of ``v @ x`` and ``norm(v)`` bit for bit, which
        # near the tolerance (a cancelling sum) einsum's and ``norm(axis=1)``'s are not
        dot, sq = ((V[:, None] @ A[:, :, None])[:, 0, 0] for A in (X, V))
        if (np.abs(dot) > _TANGENCY_TOL * np.maximum(np.sqrt(sq), 1e-300)).any():
            raise InvalidInputError("components are not tangent at the base point")
    return V


def check_space(manifold, dim, kernel_manifold, kernel_dim):
    """Raise InvalidInputError unless points of the manifold of dimension dim suit the kernel's."""
    if (manifold, dim) != (kernel_manifold, kernel_dim):
        raise InvalidInputError(f"a {manifold} point of dimension {dim} for a kernel "
                                f"on the {kernel_manifold} of dimension {kernel_dim}")


@dataclass(frozen=True, eq=False)
class ManifoldPoint:
    """A point on one of the supported manifolds.

    Sphere coordinates are a unit 3-vector; circle and torus coordinates are
    angles reduced to [0, 2*pi).
    """

    manifold: str
    coords: np.ndarray

    def __post_init__(self):
        c = coordinates(self.manifold, None, [self.coords])[0]
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
        c = check_tangent(self.base.manifold, self.base.coords[None], [self.components])[0]
        c.flags.writeable = False
        object.__setattr__(self, "components", c)

    @property
    def norm(self):
        return float(np.linalg.norm(self.components))


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
    """Oriented east/north-style frames at sphere points (any form ``coordinates`` reads).

    Away from the poles b1 is the unit east direction and b2 = x cross b1
    points north. Within 1e-9 of a pole a fixed fallback derived from e1 is
    used so the result stays deterministic and orthonormal.
    """
    xs = coordinates(SPHERE, 2, xs)
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


def lonlat_to_point(lon_deg, lat_deg) -> ManifoldPoint:
    """Unit sphere point from geographic longitude/latitude in degrees."""
    if not -90.0 <= lat_deg <= 90.0:
        raise InvalidInputError(f"latitude {lat_deg} outside [-90, 90]")
    lon = np.deg2rad(lon_deg)
    lat = np.deg2rad(lat_deg)
    x = np.array([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)])
    return sphere_point(x)


def point_to_lonlat(p) -> tuple:
    """Longitude/latitude in degrees of one sphere point (``coordinates``)."""
    X = coordinates(SPHERE, 2, p)
    if X.shape[0] != 1:
        raise InvalidInputError(f"point_to_lonlat takes one point, got {X.shape[0]}")
    lon = np.rad2deg(np.arctan2(X[0, 1], X[0, 0]))
    lat = np.rad2deg(np.arcsin(np.clip(X[0, 2], -1.0, 1.0)))
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
