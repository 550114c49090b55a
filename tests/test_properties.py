"""Property tests of the kernel evaluators: symmetry, positive semidefiniteness,
rotation equivariance and frame independence on S^2, and translation
invariance on T^2."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgegp import gp
from hodgegp.kernels import (HODGE_COMPOSITIONAL, HODGE_CURL, HODGE_DIV, HODGE_FULL, PROJECTED,
                             KernelSpec, MaternParams, compositional_spec, frame_blocks,
                             kernel_matrix)
from hodgegp.manifold import TORUS, frames_at

SETTINGS = settings(max_examples=25, deadline=None, database=None)

SPHERE_KINDS = (HODGE_FULL, HODGE_DIV, HODGE_CURL, HODGE_COMPOSITIONAL, PROJECTED)
TORUS_KINDS = (HODGE_FULL, HODGE_DIV, HODGE_CURL, HODGE_COMPOSITIONAL)

unit = st.floats(-1.0, 1.0, allow_nan=False)
angle = st.floats(0.0, 2.0 * math.pi, allow_nan=False, exclude_max=True)


@st.composite
def sphere_points(draw, min_size=1, max_size=6):
    """Unit vectors, the poles among them."""
    pole = st.sampled_from([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)])
    vec = st.tuples(unit, unit, unit).filter(lambda v: np.linalg.norm(v) > 0.1)
    pts = np.array(draw(st.lists(st.one_of(pole, vec), min_size=min_size, max_size=max_size)))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def torus_points(min_size=1, max_size=6):
    return st.lists(st.tuples(angle, angle), min_size=min_size,
                    max_size=max_size).map(np.array)


@st.composite
def specs(draw, kinds, manifold):
    """A kernel spec of one of the given kinds, with a random coreg for projected."""
    kind = draw(st.sampled_from(kinds))
    nu = draw(st.sampled_from([0.5, 1.5, math.inf]))
    kappa = draw(st.floats(0.1, 2.0))
    variance = draw(st.floats(0.2, 3.0))
    trunc = dict(lmax=12) if manifold != TORUS else dict(manifold=TORUS, lambda_cap=64.0)
    if kind == HODGE_COMPOSITIONAL:
        harm = 0.4 if manifold == TORUS else None
        return compositional_spec(nu, (kappa, variance), (2.0 * kappa, 1.0),
                                  harm_variance=harm, **trunc)
    coreg = None
    if kind == PROJECTED and draw(st.booleans()):
        coreg = np.array(draw(st.lists(unit, min_size=9, max_size=9))).reshape(3, 3)
    return KernelSpec(kind, MaternParams(nu, kappa, variance), coreg=coreg, **trunc)


def total_variance(spec):
    if spec.kind == HODGE_COMPOSITIONAL:
        return sum(p.variance for p in spec.parts.values())
    scale = 1.0 if spec.coreg is None else max(1.0, float(np.linalg.norm(spec.coreg)) ** 2)
    return spec.params.variance * scale


def rotation(q):
    """Proper rotation matrix of a (nonzero) quaternion."""
    w, x, y, z = np.asarray(q) / np.linalg.norm(q)
    return np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
                     [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
                     [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)]])


quaternions = st.tuples(unit, unit, unit, unit).filter(lambda q: np.linalg.norm(q) > 0.1)


class TestSymmetry:
    @SETTINGS
    @given(spec=specs(SPHERE_KINDS, "sphere"), x=sphere_points(), y=sphere_points())
    def test_sphere(self, spec, x, y):
        kxy = kernel_matrix(spec, x, y)
        kyx = kernel_matrix(spec, y, x)
        gap = np.abs(kxy - kyx.transpose(1, 0, 3, 2)).max()
        assert gap <= 1e-12 * total_variance(spec)

    @SETTINGS
    @given(spec=specs(TORUS_KINDS, TORUS), x=torus_points(), y=torus_points())
    def test_t2(self, spec, x, y):
        kxy = kernel_matrix(spec, x, y)
        kyx = kernel_matrix(spec, y, x)
        gap = np.abs(kxy - kyx.transpose(1, 0, 3, 2)).max()
        assert gap <= 1e-12 * total_variance(spec)


class TestPositiveSemidefinite:
    @SETTINGS
    @given(spec=specs(SPHERE_KINDS, "sphere"), x=sphere_points(max_size=10))
    def test_sphere_gram(self, spec, x):
        eigs = np.linalg.eigvalsh(gp.gram(spec, x))
        assert eigs.min() >= -1e-10 * len(x) * total_variance(spec)

    @SETTINGS
    @given(spec=specs(TORUS_KINDS, TORUS), x=torus_points(max_size=10))
    def test_t2_gram(self, spec, x):
        eigs = np.linalg.eigvalsh(gp.gram(spec, x))
        assert eigs.min() >= -1e-10 * len(x) * total_variance(spec)


class TestRotationEquivariance:
    @SETTINGS
    @given(spec=specs(SPHERE_KINDS, "sphere"), x=sphere_points(), y=sphere_points(),
           q=quaternions)
    def test_sphere(self, spec, x, y, q):
        if spec.coreg is not None:
            # a general A A^T picks out directions; only A = I is rotation invariant
            spec = KernelSpec(PROJECTED, spec.params, lmax=spec.lmax)
        r = rotation(q)
        rotated = kernel_matrix(spec, x @ r.T, y @ r.T)
        expected = np.einsum("ab,nmbc,dc->nmad", r, kernel_matrix(spec, x, y), r)
        assert np.abs(rotated - expected).max() <= 1e-10 * total_variance(spec)


def in_plane_rotations(angles):
    """(m, 2, 2) rotations of the tangent plane by the given angles."""
    c, s = np.cos(angles), np.sin(angles)
    return np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)


class TestFrameIndependence:
    @SETTINGS
    @given(spec=specs(SPHERE_KINDS, "sphere"), x=sphere_points(), y=sphere_points(),
           data=st.data())
    def test_frame_blocks_conjugate(self, spec, x, y, data):
        # rotating each frame in its tangent plane, poles included, rotates its blocks
        rx = in_plane_rotations(data.draw(st.lists(angle, min_size=len(x), max_size=len(x))))
        ry = in_plane_rotations(data.draw(st.lists(angle, min_size=len(y), max_size=len(y))))
        bx, by = frames_at(x), frames_at(y)
        rotated = frame_blocks(spec, x, rx @ bx, y, ry @ by)
        expected = np.einsum("nkp,nmpq,mlq->nmkl", rx, frame_blocks(spec, x, bx, y, by), ry)
        assert np.abs(rotated - expected).max() <= 1e-12 * total_variance(spec)

    @SETTINGS
    @given(spec=specs(SPHERE_KINDS, "sphere"), x=sphere_points(max_size=8), data=st.data())
    def test_gram_conjugates(self, spec, x, data):
        r = in_plane_rotations(data.draw(st.lists(angle, min_size=len(x), max_size=len(x))))
        block_diag = np.zeros((2 * len(x), 2 * len(x)))
        for i, ri in enumerate(r):
            block_diag[2 * i:2 * i + 2, 2 * i:2 * i + 2] = ri
        rotated = gp.gram(spec, x, frames=r @ frames_at(x))
        expected = block_diag @ gp.gram(spec, x) @ block_diag.T
        assert np.abs(rotated - expected).max() <= 1e-12 * total_variance(spec)


class TestTranslationInvariance:
    @SETTINGS
    @given(spec=specs(TORUS_KINDS, TORUS), x=torus_points(), y=torus_points(),
           shift=st.tuples(angle, angle))
    def test_t2(self, spec, x, y, shift):
        c = np.array(shift)
        moved = kernel_matrix(spec, np.mod(x + c, 2 * np.pi), np.mod(y + c, 2 * np.pi))
        assert np.abs(moved - kernel_matrix(spec, x, y)).max() <= 1e-10 * total_variance(spec)
