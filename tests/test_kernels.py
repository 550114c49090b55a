import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from hodgegp import gp, kernels
from hodgegp._accel import _CHUNK
from hodgegp.errors import InvalidInputError
from hodgegp.gp import Dataset, condition, predict, sample_prior_batch
from hodgegp.kernels import (HODGE_COMPOSITIONAL, HODGE_CURL, HODGE_DIV, HODGE_FULL,
                             PROJECTED, SCALAR, GramTables, KernelSpec, MaternParams,
                             class_weights, compositional_spec, diagonal_frame_blocks,
                             frame_blocks, kernel_matrix, noise_spec, normalization, phi,
                             scalar_kernel_matrix, spectral_kernel_oracle)
from hodgegp.manifold import CIRCLE, SPHERE, TORUS, frames_at, sample_sphere
from hodgegp.spectrum import CURL, DIV, HARM, circle_spectrum, sphere_spectrum, torus_spectrum

PARAMS = MaternParams(nu=1.5, kappa=0.4, variance=1.3)


def random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def geodesic_fan(angles, base=(0.3, -0.4, np.sqrt(0.75))):
    """Points obtained by rotating a base point by the given angles."""
    base = np.asarray(base)
    axis = np.array([1.0, 0.5, 0.2])
    axis /= np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    pts = []
    for a in angles:
        rot = np.eye(3) + np.sin(a) * k + (1 - np.cos(a)) * (k @ k)
        pts.append(rot @ base)
    pts = np.stack(pts)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


class TestPhi:
    def test_heat_at_zero(self):
        assert phi(math.inf, 1.0, 0.0, 2) == 1.0

    def test_matern_half_at_zero(self):
        assert phi(0.5, 1.0, 0.0, 2) == pytest.approx(1.0, abs=0)

    def test_heat_value(self):
        assert phi(math.inf, 1.0, 2.0, 2) == pytest.approx(math.exp(-1.0), rel=1e-14)

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, math.inf])
    @pytest.mark.parametrize("kappa", [0.1, 1.0, 5.0])
    def test_strictly_decreasing(self, nu, kappa):
        lam = np.arange(0.0, 40.0, 2.0)
        w = phi(nu, kappa, lam, 2)
        assert np.all(np.diff(w) < 0)

    def test_heat_kernel_time_integral(self):
        # the Matern weight is the Gamma-type time integral of the heat weight,
        # with a lambda-independent constant
        nu, kappa, d = 1.5, 0.7, 2

        def integral(lam):
            val, _ = quad(lambda t: t ** (nu - 1 + d / 2)
                          * math.exp(-2 * nu * t / kappa ** 2) * math.exp(-t * lam),
                          0.0, np.inf, limit=300)
            return val

        ratios = [integral(lam) / phi(nu, kappa, lam, d) for lam in (1.0, 5.0, 20.0)]
        spread = (max(ratios) - min(ratios)) / min(ratios)
        assert spread < 1e-6


class TestNormalization:
    @pytest.mark.parametrize("kind", [HODGE_DIV, HODGE_CURL, HODGE_FULL])
    def test_sphere_trace_is_variance(self, kind):
        rng = np.random.default_rng(0)
        pts = sample_sphere(10, rng)
        spec = KernelSpec(kind, PARAMS, lmax=30)
        mats = kernel_matrix(spec, pts, pts)
        traces = np.trace(mats[np.arange(10), np.arange(10)], axis1=-2, axis2=-1)
        np.testing.assert_allclose(traces, PARAMS.variance, atol=1e-8)

    def test_compositional_trace(self):
        rng = np.random.default_rng(1)
        pts = sample_sphere(6, rng)
        spec = compositional_spec(0.5, (0.3, 0.7), (0.8, 0.5))
        mats = kernel_matrix(spec, pts, pts)
        traces = np.trace(mats[np.arange(6), np.arange(6)], axis1=-2, axis2=-1)
        np.testing.assert_allclose(traces, 1.2, atol=1e-8)

    def test_closed_form_matches_direct_sum(self):
        # small kappa flattens the weights; the sum over the spec's own
        # truncation must still equal the closed-form level sum
        # sum_{l >= first} (2l+1) Phi(l(l+1)) / 4 pi, computed here
        lmax = 12

        def closed(nu, kappa, first):
            return sum((2 * l + 1) * phi(nu, kappa, l * (l + 1.0), 2)
                       for l in range(first, lmax + 1)) / (4.0 * math.pi)

        for nu, kappa in [(0.5, 0.05), (1.5, 0.4), (math.inf, 3.0)]:
            params = MaternParams(nu, kappa, 1.0)
            expected = {SCALAR: closed(nu, kappa, 0), PROJECTED: closed(nu, kappa, 0),
                        HODGE_DIV: closed(nu, kappa, 1), HODGE_CURL: closed(nu, kappa, 1),
                        HODGE_FULL: 2.0 * closed(nu, kappa, 1)}
            for kind, value in expected.items():
                assert normalization(KernelSpec(kind, params, lmax=lmax)) == pytest.approx(
                    value, rel=1e-13)
            spec = compositional_spec(nu, (kappa, 0.7), (2.0 * kappa, 1.1), lmax=lmax)
            got = normalization(spec)
            assert got.keys() == {"div", "curl"}
            assert got["div"] == pytest.approx(closed(nu, kappa, 1), rel=1e-13)
            assert got["curl"] == pytest.approx(closed(nu, 2.0 * kappa, 1), rel=1e-13)

    def test_full_is_sum_of_div_and_curl(self):
        spec_full = KernelSpec(HODGE_FULL, PARAMS, lmax=18)
        spec_div = KernelSpec(HODGE_DIV, PARAMS, lmax=18)
        spec_curl = KernelSpec(HODGE_CURL, PARAMS, lmax=18)
        assert normalization(spec_full) == pytest.approx(
            normalization(spec_div) + normalization(spec_curl), rel=1e-14)
        rng = np.random.default_rng(2)
        x, y = sample_sphere(2, rng)
        m_full = kernel_matrix(spec_full, x, y)[0, 0]
        m_half = 0.5 * (kernel_matrix(spec_div, x, y)[0, 0]
                        + kernel_matrix(spec_curl, x, y)[0, 0])
        np.testing.assert_allclose(m_full, m_half, atol=1e-14)

    def test_empty_class_rejected(self):
        spec = KernelSpec(HODGE_CURL, PARAMS, manifold=CIRCLE, lambda_cap=25.0)
        with pytest.raises(InvalidInputError):
            normalization(spec, circle_spectrum(5))


class TestScalarSphere:
    def test_diagonal_value(self):
        x = sample_sphere(1, np.random.default_rng(3))[0]
        k = scalar_kernel_matrix(KernelSpec(SCALAR, PARAMS, lmax=30), x, x)[0, 0]
        assert float(k) == pytest.approx(PARAMS.variance, rel=1e-12)

    def test_matches_order_sum_oracle(self):
        rng = np.random.default_rng(4)
        pts = sample_sphere(8, rng)
        lmax = 10
        spectrum = sphere_spectrum(lmax)
        vals = spectrum.scalar_values(pts)
        lam = spectrum.scalar_eigenvalues()
        w = phi(PARAMS.nu, PARAMS.kappa, lam, 2)
        c = w.sum() / (4 * np.pi)
        brute = (PARAMS.variance / c) * np.einsum("f,fn,fm->nm", w, vals, vals)
        fast = scalar_kernel_matrix(KernelSpec(SCALAR, PARAMS, lmax=lmax), pts, pts)
        np.testing.assert_allclose(fast, brute, atol=1e-10)

    @pytest.mark.parametrize("nu", [0.5, math.inf])
    def test_large_length_scale_flattens(self, nu):
        rng = np.random.default_rng(5)
        pts = sample_sphere(12, rng)
        params = MaternParams(nu, 100.0, 1.0)
        k = scalar_kernel_matrix(KernelSpec(SCALAR, params, lmax=30), pts, pts)
        assert np.abs(k - 1.0).max() < 1e-3


class TestHodgeSphere:
    def test_bitangency_and_symmetry(self):
        rng = np.random.default_rng(6)
        x, y = sample_sphere(2, rng)
        for kind in (HODGE_DIV, HODGE_CURL, HODGE_FULL):
            spec = KernelSpec(kind, PARAMS, lmax=15)
            m = kernel_matrix(spec, x, y)[0, 0]
            px = np.eye(3) - np.outer(x, x)
            py = np.eye(3) - np.outer(y, y)
            np.testing.assert_allclose(px @ m @ py, m, atol=1e-10)
            np.testing.assert_allclose(kernel_matrix(spec, y, x)[0, 0], m.T, atol=1e-12)

    def test_hodge_pair_sums_give_unit_div_kernel(self):
        # documented: the unit-variance div kernel is S2 (P_x y)(P_y x)^T + S1 P_x P_y
        rng = np.random.default_rng(24)
        x_pts = np.vstack([[[0.0, 0.0, 1.0]], sample_sphere(3, rng)])
        y_pts = np.vstack([[[0.0, 0.0, -1.0]], -x_pts[1:2], sample_sphere(2, rng)])
        spec = KernelSpec(HODGE_DIV, MaternParams(PARAMS.nu, PARAMS.kappa), lmax=12)
        spectrum = sphere_spectrum(12)
        oracle = spectral_kernel_oracle(class_weights(spec, spectrum), spectrum, x_pts, y_pts)
        s1, s2 = kernels.hodge_pair_sums(PARAMS.nu, PARAMS.kappa, 12, x_pts @ y_pts.T)
        for i, x in enumerate(x_pts):
            for j, y in enumerate(y_pts):
                px = np.eye(3) - np.outer(x, x)
                py = np.eye(3) - np.outer(y, y)
                want = s2[i, j] * np.outer(px @ y, py @ x) + s1[i, j] * px @ py
                assert np.abs(oracle[i, j] - want).max() < 1e-8

    def test_matches_eigenfield_oracle(self):
        rng = np.random.default_rng(7)
        x_pts = sample_sphere(20, rng)
        y_pts = sample_sphere(20, rng)
        spectrum = sphere_spectrum(12)
        for kind in (HODGE_DIV, HODGE_CURL, HODGE_FULL):
            spec = KernelSpec(kind, PARAMS, lmax=12)
            fast = kernel_matrix(spec, x_pts, y_pts)
            oracle = spectral_kernel_oracle(class_weights(spec, spectrum), spectrum,
                                            x_pts, y_pts)
            assert np.abs(fast - oracle).max() < 1e-8

    def test_antipodal_pair_is_finite(self):
        x = np.array([0.0, 0.6, 0.8])
        spec = KernelSpec(HODGE_DIV, PARAMS, lmax=20)
        m = kernel_matrix(spec, x, -x)[0, 0]
        assert np.all(np.isfinite(m))
        # the rank-one term vanishes: the value is a multiple of the projector
        px = np.eye(3) - np.outer(x, x)
        coeff = m[2, 2] / px[2, 2]
        np.testing.assert_allclose(m, coeff * px, atol=1e-12)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(8)
        x, y = sample_sphere(2, rng)
        q = random_rotation(rng)
        for kind in (HODGE_DIV, HODGE_FULL):
            spec = KernelSpec(kind, PARAMS, lmax=15)
            m = kernel_matrix(spec, x, y)[0, 0]
            mq = kernel_matrix(spec, q @ x, q @ y)[0, 0]
            np.testing.assert_allclose(mq, q @ m @ q.T, atol=1e-10)


class TestSpectralOracle:
    def test_zero_weights(self):
        spectrum = sphere_spectrum(4)
        rng = np.random.default_rng(9)
        pts = sample_sphere(3, rng)
        m = spectral_kernel_oracle(np.zeros(len(spectrum.entries)), spectrum, pts, pts)
        np.testing.assert_array_equal(m, 0.0)

    @pytest.mark.parametrize("kind", [HODGE_DIV, HODGE_FULL, PROJECTED])
    def test_gram_positive_semidefinite(self, kind):
        rng = np.random.default_rng(10)
        pts = sample_sphere(15, rng)
        spec = KernelSpec(kind, PARAMS, lmax=12)
        mats = kernel_matrix(spec, pts, pts)
        gram = mats.transpose(0, 2, 1, 3).reshape(45, 45)
        eigs = np.linalg.eigvalsh(0.5 * (gram + gram.T))
        assert eigs.min() >= -1e-8


def rectangular_point_sets():
    """7 and 11 points: both poles in each set and an antipodal pair across them."""
    rng = np.random.default_rng(23)
    x = np.vstack([[[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], sample_sphere(5, rng)])
    y = np.vstack([[[0.0, 0.0, -1.0]], -x[2:3], sample_sphere(8, rng), [[0.0, 0.0, 1.0]]])
    return x, y


class TestRectangularCrossBlocks:
    @pytest.mark.parametrize("kind", [HODGE_DIV, HODGE_CURL, HODGE_FULL, HODGE_COMPOSITIONAL])
    def test_frame_blocks_match_eigenfield_oracle(self, kind):
        x, y = rectangular_point_sets()
        if kind == HODGE_COMPOSITIONAL:
            spec = compositional_spec(1.5, (0.3, 0.8), (0.6, 1.2), lmax=12)
        else:
            spec = KernelSpec(kind, PARAMS, lmax=12)
        spectrum = sphere_spectrum(12)
        bx, by = frames_at(x), frames_at(y)
        oracle = spectral_kernel_oracle(class_weights(spec, spectrum), spectrum, x, y)
        expected = np.einsum("nka,nmab,mlb->nmkl", bx, oracle, by)
        blocks = frame_blocks(spec, x, bx, y, by)
        assert blocks.shape == (7, 11, 2, 2)
        assert np.abs(blocks - expected).max() < 1e-8

    @pytest.mark.parametrize("kind", [HODGE_CURL, HODGE_FULL, HODGE_COMPOSITIONAL, PROJECTED])
    def test_row_blocks_equal_one_block(self, kind, monkeypatch):
        # 22 pairs per block over 11 columns: blocks of 2 rows, the last one partial
        x, y = rectangular_point_sets()
        if kind == HODGE_COMPOSITIONAL:
            spec = compositional_spec(1.5, (0.3, 0.8), (0.6, 1.2), lmax=12)
        else:
            a = np.array([[1.0, 0.2, -0.5], [0.0, 0.7, 0.3], [0.4, -0.1, 1.2]])
            spec = KernelSpec(kind, PARAMS, coreg=a if kind == PROJECTED else None, lmax=12)
        bx, by = frames_at(x), frames_at(y)
        whole = frame_blocks(spec, x, bx, y, by)
        monkeypatch.setattr(kernels, "_BLOCK_PAIRS", 22)
        np.testing.assert_array_equal(frame_blocks(spec, x, bx, y, by), whole)

    @pytest.mark.parametrize("kind", [HODGE_DIV, HODGE_CURL, HODGE_FULL, HODGE_COMPOSITIONAL,
                                      PROJECTED])
    def test_gram_tables_equal_frame_blocks_across_chunks(self, kind):
        # 130^2 pairs span two chunks of legendre_sums, while the kept table is
        # contracted whole: a slip at a chunk boundary in either route shows
        pts = sample_sphere(130, np.random.default_rng(45))
        pts[0], pts[1] = [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]
        assert pts.shape[0] ** 2 > _CHUNK
        if kind == HODGE_COMPOSITIONAL:
            spec = compositional_spec(1.5, (0.3, 0.8), (0.6, 1.2))
        else:
            a = np.array([[1.0, 0.2, -0.5], [0.0, 0.7, 0.3], [0.4, -0.1, 1.2]])
            spec = KernelSpec(kind, PARAMS, coreg=a if kind == PROJECTED else None)
        b = frames_at(pts)
        np.testing.assert_array_equal(GramTables(spec, pts, b).blocks_and_derivatives(spec)[0],
                                      frame_blocks(spec, pts, b, pts, b))

    def test_projected_with_coreg_matches_projector_formula(self):
        x, y = rectangular_point_sets()
        a = np.array([[1.0, 0.2, -0.5], [0.0, 0.7, 0.3], [0.4, -0.1, 1.2]])
        spec = KernelSpec(PROJECTED, PARAMS, coreg=a, lmax=20)
        scalar = KernelSpec(SCALAR, PARAMS, lmax=20)
        expected = np.empty((7, 11, 3, 3))
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                px = np.eye(3) - np.outer(xi, xi)
                py = np.eye(3) - np.outer(yj, yj)
                k = scalar_kernel_matrix(scalar, xi, yj)[0, 0]
                expected[i, j] = 0.5 * k * px @ a @ a.T @ py
        got = kernel_matrix(spec, x, y)
        assert got.shape == (7, 11, 3, 3)
        assert np.abs(got - expected).max() <= 1e-12 * PARAMS.variance * np.linalg.norm(a) ** 2


def symmetric_case(kind):
    """A spec of the kind (projected with a coreg), 23 points with both poles, and
    the spec's total variance."""
    pts = sample_sphere(23, np.random.default_rng(46))
    pts[3], pts[17] = [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]
    if kind == HODGE_COMPOSITIONAL:
        return compositional_spec(1.5, (0.3, 0.8), (0.6, 1.2), lmax=16), pts, 2.0
    a = np.array([[1.0, 0.2, -0.5], [0.0, 0.7, 0.3], [0.4, -0.1, 1.2]])
    if kind == PROJECTED:
        return (KernelSpec(kind, PARAMS, coreg=a, lmax=16), pts,
                PARAMS.variance * np.linalg.norm(a) ** 2)
    return KernelSpec(kind, PARAMS, lmax=16), pts, PARAMS.variance


def count_abscissae(monkeypatch):
    """Patch kernels.legendre_sums to count its abscissae; returns the running count."""
    count = [0]
    inner = kernels.legendre_sums

    def counted(t, weights):
        count[0] += np.size(t)
        return inner(t, weights)

    monkeypatch.setattr(kernels, "legendre_sums", counted)
    return count


SPHERE_GRAM_KINDS = [HODGE_DIV, HODGE_CURL, HODGE_FULL, HODGE_COMPOSITIONAL, PROJECTED]


class TestSymmetricGram:
    # 100 pairs per block over 23 columns: row blocks of 4, six of them, the last partial

    @pytest.mark.parametrize("kind", SPHERE_GRAM_KINDS)
    def test_gram_is_bitwise_symmetric(self, kind, monkeypatch):
        spec, pts, _ = symmetric_case(kind)
        monkeypatch.setattr(kernels, "_BLOCK_PAIRS", 100)
        count = count_abscissae(monkeypatch)
        k = gp.gram(spec, pts)
        np.testing.assert_array_equal(k, k.T)
        # only the row blocks' pairs up to the diagonal: 4 * (4 + 8 + ... + 20) + 3 * 23
        assert count[0] == 4 * (4 + 8 + 12 + 16 + 20) + 3 * 23 < 23 ** 2

    @pytest.mark.parametrize("kind", SPHERE_GRAM_KINDS)
    def test_gram_equals_the_rectangular_path(self, kind, monkeypatch):
        spec, pts, variance = symmetric_case(kind)
        monkeypatch.setattr(kernels, "_BLOCK_PAIRS", 100)
        frames = frames_at(pts)
        count = count_abscissae(monkeypatch)
        rectangular = frame_blocks(spec, pts.copy(), frames.copy(), pts.copy(), frames.copy())
        assert count[0] == 23 ** 2
        symmetric = frame_blocks(spec, pts, frames, pts, frames)
        assert np.abs(symmetric - rectangular).max() <= 1e-14 * variance

    @pytest.mark.parametrize("kind", SPHERE_GRAM_KINDS)
    def test_rotated_frames_take_the_rectangular_path(self, kind, monkeypatch):
        # the same points with frames rotated per point are not a symmetric Gram:
        # the blocks conjugate by the rotations, as TestFrameIndependence states
        spec, pts, variance = symmetric_case(kind)
        monkeypatch.setattr(kernels, "_BLOCK_PAIRS", 100)
        angles = np.random.default_rng(47).uniform(0.0, 2.0 * np.pi, len(pts))
        c, s = np.cos(angles), np.sin(angles)
        r = np.stack([np.stack([c, -s], axis=1), np.stack([s, c], axis=1)], axis=1)
        frames = frames_at(pts)
        count = count_abscissae(monkeypatch)
        rotated = frame_blocks(spec, pts, r @ frames, pts, frames)
        assert count[0] == 23 ** 2
        expected = np.einsum("nkp,nmpl->nmkl", r, frame_blocks(spec, pts, frames, pts, frames))
        assert np.abs(rotated - expected).max() <= 1e-12 * variance


class TestFrameBlocksMemory:
    def test_peak_is_the_output_plus_a_block(self):
        # a row block holds its Legendre table (lmax // 2 + 2 floats a pair), nine
        # planes, its pair sums and the parts' components: no temporary spans every pair
        rng = np.random.default_rng(48)
        x, y = sample_sphere(1000, rng), sample_sphere(300, rng)
        bx, by = frames_at(x), frames_at(y)
        spec = compositional_spec(1.5, (0.3, 0.8), (0.6, 1.2))
        frame_blocks(spec, x[:3], bx[:3], y, by)   # fill the cached Legendre maps
        tracemalloc.start()
        try:
            out = frame_blocks(spec, x, bx, y, by)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 8 * kernels._BLOCK_PAIRS * (spec.lmax // 2 + 2 + 32)


class TestProjected:
    def test_identity_coregionalization_trace(self):
        x = sample_sphere(1, np.random.default_rng(11))[0]
        m = kernel_matrix(KernelSpec(PROJECTED, PARAMS, coreg=np.eye(3), lmax=30), x, x)[0, 0]
        assert np.trace(m) == pytest.approx(PARAMS.variance, rel=1e-12)

    def test_bitangent(self):
        rng = np.random.default_rng(12)
        x, y = sample_sphere(2, rng)
        a = rng.standard_normal((3, 3))
        m = kernel_matrix(KernelSpec(PROJECTED, PARAMS, coreg=a, lmax=30), x, y)[0, 0]
        px = np.eye(3) - np.outer(x, x)
        py = np.eye(3) - np.outer(y, y)
        np.testing.assert_allclose(px @ m @ py, m, atol=1e-10)

    def test_monte_carlo_covariance(self):
        # pairs separated by up to 40 degrees keep the covariance norm well
        # away from zero so a relative comparison is meaningful
        pts = geodesic_fan(np.deg2rad([0.0, 10.0, 20.0, 30.0, 40.0]))
        spec = KernelSpec(PROJECTED, MaternParams(1.5, 0.6, 1.0), lmax=12)
        draws = sample_prior_batch(spec, pts, 2000,
                                   np.random.default_rng(8))
        exact = kernel_matrix(spec, pts, pts)
        for j in range(5):
            mc = np.einsum("da,db->ab", draws[:, 0], draws[:, j]) / len(draws)
            rel = np.linalg.norm(mc - exact[0, j]) / np.linalg.norm(exact[0, j])
            assert rel < 0.05


class TestTorus:
    def test_trace_is_variance(self):
        rng = np.random.default_rng(15)
        pts = rng.uniform(0, 2 * np.pi, size=(10, 2))
        for kind in (HODGE_FULL, HODGE_DIV, HODGE_CURL):
            spec = KernelSpec(kind, PARAMS, manifold=TORUS, lambda_cap=100.0)
            mats = kernel_matrix(spec, pts, pts)
            traces = np.trace(mats[np.arange(10), np.arange(10)], axis1=-2, axis2=-1)
            np.testing.assert_allclose(traces, PARAMS.variance, atol=1e-8)

    def test_dimension_one_reduces_to_circle_scalar(self):
        x = np.array([0.4])
        y = np.array([2.1])
        on_circle = dict(manifold=TORUS, lambda_cap=64.0, torus_dim=1)
        m = kernel_matrix(KernelSpec(HODGE_FULL, PARAMS, **on_circle), x, y)[0, 0]
        ks = float(scalar_kernel_matrix(KernelSpec(SCALAR, PARAMS, **on_circle), x, y)[0, 0])
        assert m.shape == (1, 1)
        assert m[0, 0] == pytest.approx(ks, rel=1e-12)

    def test_t2_product_formula_matches_oracle(self):
        rng = np.random.default_rng(16)
        pts_a = rng.uniform(0, 2 * np.pi, size=(5, 2))
        pts_b = rng.uniform(0, 2 * np.pi, size=(4, 2))
        spec = KernelSpec(HODGE_FULL, PARAMS, manifold=TORUS, lambda_cap=64.0)
        spectrum = torus_spectrum(2, 64.0)
        fast = kernel_matrix(spec, pts_a, pts_b)
        oracle = spectral_kernel_oracle(class_weights(spec, spectrum), spectrum, pts_a, pts_b)
        assert np.abs(fast - oracle).max() < 1e-8

    @pytest.mark.parametrize("kind", [HODGE_DIV, HODGE_CURL, HODGE_COMPOSITIONAL])
    def test_t2_classes_match_oracle(self, kind):
        rng = np.random.default_rng(18)
        pts_a = rng.uniform(0, 2 * np.pi, size=(6, 2))
        pts_b = rng.uniform(0, 2 * np.pi, size=(5, 2))
        if kind == HODGE_COMPOSITIONAL:
            spec = compositional_spec(1.5, (0.3, 0.8), (0.6, 1.2), harm_variance=0.3,
                                      manifold=TORUS, lambda_cap=900.0)
        else:
            spec = KernelSpec(kind, PARAMS, manifold=TORUS, lambda_cap=900.0)
        spectrum = torus_spectrum(2, 900.0)
        oracle = spectral_kernel_oracle(class_weights(spec, spectrum), spectrum, pts_a, pts_b)
        assert np.abs(kernel_matrix(spec, pts_a, pts_b) - oracle).max() <= 1e-12

    @pytest.mark.parametrize("kind", [HODGE_FULL, HODGE_CURL, HODGE_COMPOSITIONAL])
    def test_t2_prior_marginal_matches_oracle_diagonal(self, kind):
        pts = np.random.default_rng(19).uniform(0, 2 * np.pi, size=(4, 2))
        if kind == HODGE_COMPOSITIONAL:
            spec = compositional_spec(1.5, (0.3, 0.8), (0.6, 1.2), harm_variance=0.3,
                                      manifold=TORUS, lambda_cap=100.0)
        else:
            spec = KernelSpec(kind, PARAMS, manifold=TORUS, lambda_cap=100.0)
        spectrum = torus_spectrum(2, 100.0)
        oracle = spectral_kernel_oracle(class_weights(spec, spectrum), spectrum, pts, pts)
        pred = predict(condition(spec, Dataset([], [])), pts)
        np.testing.assert_allclose(pred.cov, oracle[np.arange(4), np.arange(4)], atol=1e-12)

    @pytest.mark.parametrize("kind", [HODGE_FULL, HODGE_DIV])
    def test_circle_matches_oracle(self, kind):
        rng = np.random.default_rng(20)
        pts_a = rng.uniform(0, 2 * np.pi, size=(6, 1))
        pts_b = rng.uniform(0, 2 * np.pi, size=(5, 1))
        spec = KernelSpec(kind, PARAMS, manifold=CIRCLE, lambda_cap=64.0, torus_dim=1)
        spectrum = torus_spectrum(1, 64.0)
        oracle = spectral_kernel_oracle(class_weights(spec, spectrum), spectrum, pts_a, pts_b)
        assert np.abs(kernel_matrix(spec, pts_a, pts_b) - oracle).max() <= 1e-12

    def test_t3_full_matches_scalar_eigenfunction_sum(self):
        rng = np.random.default_rng(21)
        pts_a = rng.uniform(0, 2 * np.pi, size=(6, 3))
        pts_b = rng.uniform(0, 2 * np.pi, size=(5, 3))
        spectrum = torus_spectrum(3, 16.0)
        w = np.exp(-(PARAMS.nu + 1.5)
                   * np.log(2 * PARAMS.nu / PARAMS.kappa ** 2 + spectrum.scalar_eigenvalues()))
        brute = (PARAMS.variance * spectrum.volume / w.sum()
                 * np.einsum("f,fn,fm->nm", w, spectrum.scalar_values(pts_a),
                             spectrum.scalar_values(pts_b)))
        spec = KernelSpec(HODGE_FULL, PARAMS, manifold=TORUS, lambda_cap=16.0, torus_dim=3)
        expected = brute[:, :, None, None] * np.eye(3) / 3.0
        assert np.abs(kernel_matrix(spec, pts_a, pts_b) - expected).max() <= 1e-12

    def test_t3_div_kernel_is_hessian_of_scalar_potential(self):
        # k_div(x, y) = sigma^2 / Z grad_x grad_y^T g(x - y) = -sigma^2 / Z (Hess g)(x - y)
        # for the potential g(r) = sum_{n != 0} Phi(|n|^2) / |n|^2 cos(n . r), Z = sum_{n != 0}
        # Phi(|n|^2), summed here over the whole lattice and differentiated by central differences
        cap = 30.0
        n = np.array(list(itertools.product(range(-6, 7), repeat=3)), dtype=np.float64)
        lam = (n ** 2).sum(axis=1)
        keep = (lam > 0.0) & (lam <= cap)
        n, lam = n[keep], lam[keep]
        w = phi(PARAMS.nu, PARAMS.kappa, lam, 3)

        def g(r):
            return (w / lam) @ np.cos(n @ r)

        spec = KernelSpec(HODGE_DIV, PARAMS, manifold=TORUS, lambda_cap=cap, torus_dim=3)
        h = 1e-4
        e = h * np.eye(3)
        x = np.random.default_rng(23).uniform(0, 2 * np.pi, (3, 3))
        for y in (x[1], x[2], x[0]):
            r = x[0] - y
            hess = np.array([[g(r + e[a] + e[b]) - g(r + e[a] - e[b]) - g(r - e[a] + e[b])
                              + g(r - e[a] - e[b]) for b in range(3)] for a in range(3)]) / (4 * h * h)
            expected = -PARAMS.variance * hess / w.sum()
            np.testing.assert_allclose(kernel_matrix(spec, x[0], y)[0, 0], expected,
                                       rtol=0.0, atol=1e-7 * PARAMS.variance)
        # the trace at x = y is the variance
        assert np.trace(kernel_matrix(spec, x[0], x[0])[0, 0]) == pytest.approx(PARAMS.variance,
                                                                                 rel=1e-12)

    def test_t3_curl_prior_draw_is_divergence_free(self):
        # the co-exact class I - n n^T / |n|^2 has n^T Pi = 0, so a curl draw has no divergence;
        # a div draw at the same points shows the finite differences can see one
        x = np.random.default_rng(25).uniform(0, 2 * np.pi, (6, 3))
        h = 1e-4
        result = {}
        for kind in (HODGE_CURL, HODGE_DIV):
            spec = KernelSpec(kind, PARAMS, manifold=TORUS, lambda_cap=30.0, torus_dim=3)
            draw = gp.sample_prior(spec, np.random.default_rng(24))
            jac = np.stack([(draw(x + h * e) - draw(x - h * e)) / (2.0 * h) for e in np.eye(3)],
                           axis=2)
            result[kind] = np.abs(np.trace(jac, axis1=1, axis2=2)).max() / np.abs(jac).max()
        assert result[HODGE_CURL] <= 1e-6
        assert result[HODGE_DIV] >= 0.1

    @pytest.mark.parametrize("call", ["normalization", "class_weights", "spectral_kernel_oracle"])
    @pytest.mark.parametrize("kind", [HODGE_DIV, HODGE_CURL, HODGE_FULL])
    def test_eigenfield_oracle_names_why_it_refuses_t3(self, kind, call):
        # the T^3 classes are not empty; its spectrum classifies no eigenfields
        # (the parent said "empty eigenfield class 'div' on torus")
        spec = KernelSpec(kind, PARAMS, manifold=TORUS, lambda_cap=9.0, torus_dim=3)
        sp, x = torus_spectrum(3, 9.0), np.zeros((2, 3))
        calls = {"normalization": lambda: normalization(spec),
                 "class_weights": lambda: class_weights(spec, sp),
                 "spectral_kernel_oracle":
                     lambda: spectral_kernel_oracle(class_weights(spec, sp), sp, x, x)}
        with pytest.raises(InvalidInputError,
                           match="classified eigenfields are available for tori of dimension <= 2"):
            calls[call]()

    @pytest.mark.parametrize("kind, d", [(HODGE_CURL, 1)])
    def test_absent_hodge_class_rejected(self, kind, d):
        with pytest.raises(InvalidInputError):
            spec = KernelSpec(kind, PARAMS, manifold=TORUS, lambda_cap=16.0, torus_dim=d)
            kernel_matrix(spec, np.zeros(d), np.ones(d))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            kernel_matrix(KernelSpec(HODGE_FULL, PARAMS, manifold=TORUS, lambda_cap=64.0),
                          np.array([0.1, 0.2]), np.array([0.3]))

    @pytest.mark.parametrize("kind", [HODGE_CURL, HODGE_FULL, SCALAR])
    def test_point_dimension_checked_on_t2(self, kind):
        spec = KernelSpec(kind, PARAMS, manifold=TORUS, lambda_cap=16.0)
        matrix = scalar_kernel_matrix if kind == SCALAR else kernel_matrix
        with pytest.raises(InvalidInputError):
            matrix(spec, np.zeros((3, 3)))
        with pytest.raises(InvalidInputError):
            matrix(spec, np.zeros((3, 2)), np.zeros((2, 3)))
        with pytest.raises(InvalidInputError):
            GramTables(spec, np.zeros((3, 3)))

    def test_noise_kind_checks_point_dimension(self):
        spec = noise_spec(0.1, manifold=TORUS)
        np.testing.assert_array_equal(kernel_matrix(spec, np.zeros((3, 2))), 0.0)
        with pytest.raises(InvalidInputError):
            kernel_matrix(spec, np.zeros((3, 3)))
        with pytest.raises(InvalidInputError):
            kernel_matrix(spec, np.zeros((3, 2)), np.zeros((2, 3)))
        rng = np.random.default_rng(22)
        data = Dataset.from_arrays(TORUS, rng.uniform(0, 2 * np.pi, (4, 2)),
                                   rng.standard_normal((4, 2)))
        for model in (condition(spec, data), condition(spec, Dataset([], []))):
            assert predict(model, np.zeros((2, 2))).mean.shape == (2, 2)
            with pytest.raises(InvalidInputError):
                predict(model, np.zeros((2, 3)))


def diagonal_case(name):
    """(spec, points, total variance) for one diagonal-evaluator case."""
    rng = np.random.default_rng(31)
    if name.startswith("t2-") or name.startswith("circle-"):
        d = 2 if name.startswith("t2-") else 1
        manifold = TORUS if d == 2 else CIRCLE
        kind = name.split("-", 1)[1]
        pts = rng.uniform(0, 2 * np.pi, size=(7, d))
        if kind == "noise":
            return noise_spec(0.1, manifold=manifold, torus_dim=d), pts, 1.0
        if kind == HODGE_COMPOSITIONAL:
            spec = compositional_spec(1.5, (0.3, 0.8), (0.6, 1.2), harm_variance=0.3,
                                      manifold=manifold, lambda_cap=400.0, torus_dim=d)
            return spec, pts, 2.3
        return KernelSpec(kind, PARAMS, manifold=manifold, lambda_cap=400.0,
                          torus_dim=d), pts, PARAMS.variance
    # both poles, an antipodal pair and random points
    pts = np.vstack([[[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], sample_sphere(6, rng)])
    pts = np.vstack([pts, -pts[2:3]])
    if name == "noise":
        return noise_spec(0.1), pts, 1.0
    if name == HODGE_COMPOSITIONAL:
        return compositional_spec(1.5, (0.3, 0.8), (0.6, 1.2), lmax=25), pts, 2.0
    if name == "projected-coreg":
        a = np.array([[1.0, 0.2, -0.5], [0.0, 0.7, 0.3], [0.4, -0.1, 1.2]])
        return KernelSpec(PROJECTED, PARAMS, coreg=a, lmax=25), pts, PARAMS.variance
    return KernelSpec(name, PARAMS, lmax=25), pts, PARAMS.variance


class TestDiagonalFrameBlocks:
    @pytest.mark.parametrize("name", [
        HODGE_FULL, HODGE_DIV, HODGE_CURL, HODGE_COMPOSITIONAL, PROJECTED, "projected-coreg",
        "noise", "t2-hodge-full", "t2-hodge-div", "t2-hodge-curl", "t2-hodge-compositional",
        "t2-noise", "circle-hodge-full", "circle-hodge-div"])
    def test_equals_diagonal_of_full_blocks(self, name):
        spec, pts, variance = diagonal_case(name)
        frames = frames_at(pts) if pts.shape[1] == 3 else None
        full = frame_blocks(spec, pts, frames, pts, frames)
        diag = diagonal_frame_blocks(spec, pts, frames)
        assert diag.shape == (len(pts),) + full.shape[2:]
        assert np.abs(diag - np.einsum("iikl->ikl", full)).max() <= 1e-12 * variance

    def test_zero_points(self):
        spec = KernelSpec(HODGE_CURL, PARAMS, lmax=10)
        assert diagonal_frame_blocks(spec, np.zeros((0, 3)), frames_at(np.zeros((0, 3)))).shape \
            == (0, 2, 2)
        spec = KernelSpec(HODGE_CURL, PARAMS, manifold=TORUS, lambda_cap=16.0)
        assert diagonal_frame_blocks(spec, np.zeros((0, 2)), None).shape == (0, 2, 2)

    def test_scalar_kind_rejected(self):
        spec = KernelSpec(SCALAR, PARAMS, lmax=10)
        pts = sample_sphere(2, np.random.default_rng(0))
        with pytest.raises(InvalidInputError):
            diagonal_frame_blocks(spec, pts, frames_at(pts))
        with pytest.raises(InvalidInputError):
            frame_blocks(spec, pts, frames_at(pts), pts, frames_at(pts))


class TestLimitationProperty:
    def test_projected_antipodal_inversion_and_hodge_immunity(self):
        params = MaternParams(math.inf, 100.0, 1.0)
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([0.0, 1.0, 0.0])
        projected = KernelSpec(PROJECTED, params, coreg=np.eye(3), lmax=30)
        m_ortho = kernel_matrix(projected, x, y)[0, 0]
        m_anti = kernel_matrix(projected, x, -x)[0, 0]
        # (1/2) normalization halves the limiting norms 1 and sqrt(2)
        assert np.linalg.norm(m_ortho) == pytest.approx(0.5, rel=1e-3)
        assert np.linalg.norm(m_anti) == pytest.approx(0.5 * math.sqrt(2), rel=1e-3)
        assert np.linalg.norm(m_ortho) < np.linalg.norm(m_anti)

        spec = KernelSpec(HODGE_FULL, params, lmax=30)
        h_ortho = kernel_matrix(spec, x, y)[0, 0]
        h_anti = kernel_matrix(spec, x, -x)[0, 0]
        assert np.linalg.norm(h_ortho) >= np.linalg.norm(h_anti)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            KernelSpec("banana", PARAMS)

    def test_compositional_requires_shared_nu(self):
        with pytest.raises(InvalidInputError):
            KernelSpec(HODGE_COMPOSITIONAL, parts={
                "div": MaternParams(0.5, 1.0), "curl": MaternParams(1.5, 1.0)})

    @pytest.mark.parametrize("manifold", [SPHERE, TORUS])
    @pytest.mark.parametrize("case", ["div-only", "curl-only", "unknown-class", "noise-differs"])
    def test_compositional_parts_rejected(self, manifold, case):
        # div and curl are required, no other key but harm (off the sphere), and the parts
        # share their noise, the one noise_variance reports
        p = MaternParams(1.5, 0.4, 1.0, 0.1)
        parts = {"div-only": {DIV: p}, "curl-only": {CURL: p},
                 "unknown-class": {DIV: p, CURL: p, "bogus": p},
                 "noise-differs": {DIV: MaternParams(1.5, 0.4, 1.0, 0.5), CURL: p}}[case]
        with pytest.raises(InvalidInputError, match="compositional"):
            KernelSpec(HODGE_COMPOSITIONAL, parts=parts, manifold=manifold)

    def test_projected_kind_is_sphere_only(self):
        with pytest.raises(InvalidInputError, match="sphere"):
            KernelSpec(PROJECTED, PARAMS, manifold=TORUS)

    def test_classes_in_class_order(self):
        p, q, r = (MaternParams(1.5, k, 1.0, 0.1) for k in (0.2, 0.3, 0.4))
        spec = KernelSpec(HODGE_COMPOSITIONAL, parts={HARM: r, CURL: q, DIV: p}, manifold=TORUS)
        assert spec.classes == ((DIV, p), (CURL, q), (HARM, r))
        assert spec.noise_variance == 0.1
        expected = {HODGE_FULL: HODGE_FULL, HODGE_DIV: DIV, HODGE_CURL: CURL, PROJECTED: SCALAR,
                    SCALAR: SCALAR}
        for kind, cls in expected.items():
            assert KernelSpec(kind, PARAMS).classes == ((cls, PARAMS),)
        assert noise_spec(0.3).classes == ()

    def test_sphere_has_no_harmonic_part(self):
        with pytest.raises(InvalidInputError):
            compositional_spec(0.5, (1.0, 1.0), (1.0, 1.0), harm_variance=1.0)

    def test_positivity(self):
        with pytest.raises(InvalidInputError):
            MaternParams(0.5, -1.0)
        with pytest.raises(InvalidInputError):
            MaternParams(0.5, 1.0, variance=0.0)

    @pytest.mark.parametrize("lmax", [-1, -5, 2.5, 3.0, "3"])
    def test_lmax_must_be_a_nonnegative_integer(self, lmax):
        with pytest.raises(InvalidInputError, match="lmax"):
            KernelSpec(HODGE_DIV, PARAMS, lmax=lmax)

    @pytest.mark.parametrize("lambda_cap", [-1.0, math.nan, math.inf])
    def test_lambda_cap_must_be_finite_and_nonnegative(self, lambda_cap):
        with pytest.raises(InvalidInputError, match="lambda_cap"):
            KernelSpec(HODGE_FULL, PARAMS, manifold="torus", lambda_cap=lambda_cap)

    @pytest.mark.parametrize("field, value", [
        ("kappa", math.inf), ("kappa", math.nan), ("variance", math.inf),
        ("variance", math.nan), ("noise", math.inf), ("noise", math.nan)])
    def test_hyperparameters_must_be_finite(self, field, value):
        # nu = inf, kappa = inf made log_marginal_likelihood subtract inf from inf
        values = dict(nu=math.inf, kappa=0.4, variance=1.3, noise=0.1)
        values[field] = value
        with pytest.raises(InvalidInputError, match=field):
            MaternParams(**values)

    @pytest.mark.parametrize("scale, bad", [(2.0, 0), (1.0 + 1e-9, 1), (math.nan, 1),
                                            (math.inf, 0)])
    def test_sphere_points_must_be_finite_unit_rows(self, scale, bad):
        # at 2 X the kernel matrix reached 1e22 against 0.49 on the sphere
        X = sample_sphere(3, np.random.default_rng(18))
        Y = X.copy()
        Y[bad] *= scale
        spec = KernelSpec(HODGE_CURL, PARAMS, lmax=10)
        with pytest.raises(InvalidInputError, match="unit norm"):
            kernel_matrix(spec, Y)
        with pytest.raises(InvalidInputError, match="unit norm"):
            kernel_matrix(spec, X, Y)

    @pytest.mark.parametrize("scale, bad", [(2.0, 0), (math.nan, 1)])
    def test_scalar_sphere_points_must_be_finite_unit_rows(self, scale, bad):
        # before, a row at 2 x gave 5.6e22 and a NaN row NaN, with no error
        X = sample_sphere(3, np.random.default_rng(19))
        Y = X.copy()
        Y[bad] *= scale
        spec = KernelSpec(SCALAR, PARAMS, lmax=10)
        with pytest.raises(InvalidInputError, match="unit norm"):
            scalar_kernel_matrix(spec, Y)
        with pytest.raises(InvalidInputError, match="unit norm"):
            scalar_kernel_matrix(spec, X, Y)
        with pytest.raises(InvalidInputError, match="unit norm"):
            scalar_kernel_matrix(spec, X[0], Y[bad])

    @pytest.mark.parametrize("manifold", ["plane", "Sphere", None])
    def test_manifold_must_be_known(self, manifold):
        # unchecked, an unknown manifold is evaluated as a torus
        with pytest.raises(InvalidInputError, match="manifold"):
            KernelSpec(HODGE_FULL, PARAMS, manifold=manifold)

    @pytest.mark.parametrize("torus_dim", [0, -1, 2.0, "2", None])
    def test_torus_dim_must_be_a_positive_integer(self, torus_dim):
        # unchecked, torus_dim 0 ends in a numpy ValueError from kernel_matrix
        with pytest.raises(InvalidInputError, match="torus_dim"):
            KernelSpec(HODGE_FULL, PARAMS, manifold=TORUS, torus_dim=torus_dim)

    def test_zero_truncations_are_valid(self):
        KernelSpec(HODGE_DIV, PARAMS, lmax=np.int64(0))
        KernelSpec(HODGE_FULL, PARAMS, manifold="torus", lambda_cap=0)

    def test_noise_spec_has_zero_kernel(self):
        rng = np.random.default_rng(17)
        pts = sample_sphere(3, rng)
        np.testing.assert_array_equal(kernel_matrix(noise_spec(0.3), pts, pts), 0.0)
