import math

import numpy as np
import pytest

from hodgegp import diagnostics
from hodgegp.diagnostics import (divergence_variance_mc, limitation_demo, numeric_divergence,
                                 var_div_hodge_sphere, var_div_projected_sphere)
from hodgegp.errors import InvalidInputError
from hodgegp.kernels import (HODGE_CURL, HODGE_DIV, HODGE_FULL, PROJECTED, KernelSpec,
                             MaternParams, compositional_spec, noise_spec)
from hodgegp.spectrum import DIV, sphere_eigenvalue, sphere_spectrum, spherical_harmonic

POINT = np.array([math.sin(1.1) * math.cos(0.6), math.sin(1.1) * math.sin(0.6), math.cos(1.1)])
PARAMS = MaternParams(0.5, 0.2, 1.0)


def rotation_field(pts):
    pts = np.atleast_2d(pts)
    return np.stack([pts[:, 1], -pts[:, 0], np.zeros(len(pts))], axis=1)


class TestNumericDivergence:
    def test_rotation_field_is_divergence_free(self):
        assert abs(numeric_divergence(rotation_field, POINT)) < 1e-6

    def test_gradient_field_eigenrelation(self):
        # div grad Y_21 = -lambda_2 Y_21
        spec = sphere_spectrum(2)
        idx = next(i for i, e in enumerate(spec.entries)
                   if e.hodge_class == DIV and e.label == (2, 1))

        def grad_field(pts):
            return spec.eigenfield_values(pts)[idx] * math.sqrt(sphere_eigenvalue(2))

        div = numeric_divergence(grad_field, POINT, h=1e-4)
        expected = -sphere_eigenvalue(2) * spherical_harmonic(2, 1, POINT)
        assert div == pytest.approx(expected, rel=1e-3)

    def test_second_order_convergence(self):
        spec = sphere_spectrum(4)
        idx = next(i for i, e in enumerate(spec.entries)
                   if e.hodge_class == DIV and e.label == (4, 2))

        def grad_field(pts):
            return spec.eigenfield_values(pts)[idx] * math.sqrt(sphere_eigenvalue(4))

        exact = -sphere_eigenvalue(4) * spherical_harmonic(4, 2, POINT)
        err_h = abs(numeric_divergence(grad_field, POINT, h=2e-3) - exact)
        err_h2 = abs(numeric_divergence(grad_field, POINT, h=1e-3) - exact)
        assert err_h / err_h2 == pytest.approx(4.0, rel=0.25)

    def test_pole_proximity_rejected(self):
        with pytest.raises(InvalidInputError):
            numeric_divergence(rotation_field, np.array([0.05, 0.0, math.sqrt(1 - 0.0025)]))

    def test_step_bounds(self):
        with pytest.raises(InvalidInputError):
            numeric_divergence(rotation_field, POINT, h=1e-7)
        with pytest.raises(InvalidInputError):
            numeric_divergence(rotation_field, POINT, h=0.1)


class TestDivergenceVariance:
    def test_curl_kernel_is_divergence_free(self):
        spec = KernelSpec(HODGE_CURL, PARAMS, lmax=20)
        rep = divergence_variance_mc(spec, POINT, 100, np.random.default_rng(0))
        assert rep.analytic == 0.0
        assert rep.monte_carlo < 1e-10

    def test_scales_linearly_in_variance(self):
        base = var_div_hodge_sphere(PARAMS, 25)
        scaled = var_div_hodge_sphere(MaternParams(0.5, 0.2, 3.0), 25)
        assert scaled == pytest.approx(3.0 * base, rel=1e-12)
        basep = var_div_projected_sphere(PARAMS, 25)
        scaledp = var_div_projected_sphere(MaternParams(0.5, 0.2, 3.0), 25)
        assert scaledp == pytest.approx(3.0 * basep, rel=1e-12)

    @pytest.mark.parametrize("kind", [HODGE_FULL, HODGE_DIV, PROJECTED])
    def test_monte_carlo_agreement(self, kind):
        spec = KernelSpec(kind, PARAMS, lmax=20)
        rep = divergence_variance_mc(spec, POINT, 300, np.random.default_rng(21))
        assert rep.relative_gap < 0.10

    def test_full_kernel_is_half_of_div_kernel(self):
        full = var_div_hodge_sphere(PARAMS, 20)
        div_rep = divergence_variance_mc(KernelSpec(HODGE_DIV, PARAMS, lmax=20), POINT, 50,
                                         np.random.default_rng(1))
        assert div_rep.analytic == pytest.approx(2.0 * full, rel=1e-12)

    def test_projected_large_length_scale_limit(self):
        # the spectral term decays; the curvature term 4 survives, so the
        # variance tends to 2 sigma^2
        val = var_div_projected_sphere(MaternParams(math.inf, 100.0, 1.0), 30)
        assert val == pytest.approx(2.0, abs=1e-8)

    def test_projected_exceeds_hodge_at_matched_small_kappa(self):
        p = MaternParams(0.5, 0.15, 1.0)
        assert var_div_projected_sphere(p, 30) > var_div_hodge_sphere(p, 30)

    def test_point_independence(self):
        spec = KernelSpec(HODGE_FULL, PARAMS, lmax=15)
        reps = []
        rng = np.random.default_rng(2)
        for _ in range(5):
            v = rng.standard_normal(3)
            v[2] = 0.3 * v[2]
            v /= np.linalg.norm(v)
            reps.append(divergence_variance_mc(spec, v, 300, np.random.default_rng(3)))
        mcs = np.array([r.monte_carlo for r in reps])
        # same coefficient draws, different points: sphere symmetry keeps the
        # estimates within Monte-Carlo error of each other
        assert mcs.std() / mcs.mean() < 0.2

    def test_level_zero_hodge_variance_raises(self):
        # level 0 alone has no gradient: the Hodge level sums are empty
        with pytest.raises(InvalidInputError, match="empty eigenfield class"):
            var_div_hodge_sphere(PARAMS, 0)
        assert var_div_projected_sphere(PARAMS, 0) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_monte_carlo_needs_two_samples(self, n_samples):
        spec = KernelSpec(HODGE_FULL, PARAMS, lmax=10)
        with pytest.raises(InvalidInputError, match="at least 2 samples"):
            divergence_variance_mc(spec, POINT, n_samples, np.random.default_rng(4))

    @pytest.mark.parametrize("spec, match", [
        (compositional_spec(0.5, (0.2, 1.0), (0.3, 1.0), lmax=10), "kind 'hodge-compositional'"),
        (noise_spec(0.1), "kind 'noise'"),
        (KernelSpec(HODGE_CURL, PARAMS, manifold="torus", lambda_cap=25.0), "on torus"),
        (KernelSpec(HODGE_FULL, PARAMS, manifold="torus", torus_dim=3, lambda_cap=9.0),
         "on torus")], ids=["compositional", "noise", "t2", "t3"])
    def test_monte_carlo_rejects_its_input_before_drawing(self, spec, match, monkeypatch):
        # at the parent the two kinds raised only after n_samples draws, and the
        # tori inside the sampler, about an argument the caller never passed
        def refuse(*args, **kwargs):
            raise AssertionError("drew before checking the input")

        monkeypatch.setattr(diagnostics, "sample_prior_batch", refuse)
        with pytest.raises(InvalidInputError, match=match):
            divergence_variance_mc(spec, POINT, 10, np.random.default_rng(5))


class TestLimitationDemo:
    def test_identity_matrix(self):
        rep = limitation_demo(np.eye(3), 100.0)
        assert rep.limit_orthogonal == pytest.approx(1.0)
        assert rep.limit_antipodal == pytest.approx(math.sqrt(2.0))
        assert rep.norm_orthogonal == pytest.approx(1.0, rel=0.01)
        assert rep.norm_antipodal == pytest.approx(math.sqrt(2.0), rel=0.01)
        assert rep.norm_orthogonal < rep.norm_antipodal

    def test_diagonal_matrix(self):
        rep = limitation_demo(np.diag([0.0, 1.0, 2.0]), 100.0)
        assert rep.limit_orthogonal == pytest.approx(4.0)
        assert rep.limit_antipodal == pytest.approx(math.sqrt(17.0))
        assert rep.norm_orthogonal < rep.norm_antipodal

    def test_rank_one_rejected(self):
        with pytest.raises(InvalidInputError):
            limitation_demo(np.outer([1.0, 2.0, 3.0], [1.0, 0.0, 0.0]), 10.0)

    def test_ordering_for_random_full_rank(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            a = rng.standard_normal((3, 3))
            rep = limitation_demo(a, 100.0)
            assert rep.norm_orthogonal < rep.norm_antipodal
