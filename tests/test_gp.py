import math
import re
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from hodgegp import gp, kernels, spectrum
from hodgegp.cli import emit_csv, normalize_dataset
from hodgegp.diagnostics import divergence_stencil, var_div_hodge_sphere
from hodgegp.errors import InvalidInputError, NumericalError
from hodgegp.gp import (Dataset, FitConfig, condition, fit, log_marginal_likelihood, metrics,
                        predict, sample_posterior, sample_prior, sample_prior_batch)
from hodgegp.kernels import (HODGE_COMPOSITIONAL, HODGE_CURL, HODGE_DIV, HODGE_FULL, NOISE,
                             PROJECTED, SCALAR, KernelSpec, MaternParams, class_weights,
                             compositional_spec, frame_blocks, kernel_matrix, noise_spec,
                             scalar_kernel_matrix, spectral_kernel_oracle)
from hodgegp.manifold import (ManifoldPoint, TangentVector, circle_point, frames_at,
                              lonlat_to_point, sample_sphere, sphere_point, torus_point)
from hodgegp.spectrum import sphere_spectrum, torus_spectrum

SPEC = KernelSpec(HODGE_CURL, MaternParams(0.5, 0.5, 1.0, 1e-4), lmax=20)
SPHERE_SPECTRUM = sphere_spectrum(20)


def make_dataset(n, rng, spec=SPEC, noise=0.0):
    pts = sample_sphere(n, rng)
    field = sample_prior(spec, rng)
    values = field.at(pts)
    if noise:
        frames = frames_at(pts)
        eps = math.sqrt(noise) * rng.standard_normal((n, 2))
        values = values + np.einsum("nk,nka->na", eps, frames)
    return Dataset.from_arrays("sphere", pts, values)


def random_in_plane_rotations(frames, rng):
    angles = rng.uniform(0, 2 * np.pi, size=frames.shape[0])
    c, s = np.cos(angles), np.sin(angles)
    rot = np.stack([np.stack([c, s], axis=1), np.stack([-s, c], axis=1)], axis=1)
    return np.einsum("nkl,nla->nka", rot, frames)


def full_gram_diagonal(spec, pts):
    """Prior covariance blocks read off the diagonal of the full (m x m) frame-block Gram."""
    frames = frames_at(pts)
    return np.einsum("iikl->ikl", frame_blocks(spec, pts, frames, pts, frames))


def lml_with_frames(spec, dataset, frames):
    x = dataset.coords()
    k = gp._blocks_to_matrix(frame_blocks(spec, x, frames, x, frames))
    k[np.diag_indices_from(k)] += spec.noise_variance
    chol = np.linalg.cholesky(k)
    yf = np.einsum("nka,na->nk", frames, dataset.values()).reshape(-1)
    alpha = np.linalg.solve(k, yf)
    return (-0.5 * yf @ alpha - np.log(np.diag(chol)).sum()
            - 0.5 * len(yf) * math.log(2 * math.pi))


class TestGram:
    def test_single_point_trace(self):
        pts = sample_sphere(1, np.random.default_rng(0))
        g = gp.gram(SPEC, pts)
        assert np.trace(g) == pytest.approx(SPEC.params.variance, rel=1e-10)

    def test_frame_independence_of_spectrum(self):
        rng = np.random.default_rng(1)
        pts = sample_sphere(8, rng)
        frames = frames_at(pts)
        g1 = gp.gram(SPEC, pts, frames)
        g2 = gp.gram(SPEC, pts, random_in_plane_rotations(frames, rng))
        np.testing.assert_allclose(np.linalg.eigvalsh(g1), np.linalg.eigvalsh(g2), atol=1e-9)

    def test_matches_ambient_nonzero_spectrum(self):
        rng = np.random.default_rng(2)
        pts = sample_sphere(7, rng)
        g = gp.gram(SPEC, pts)
        amb = spectral_kernel_oracle(class_weights(SPEC, SPHERE_SPECTRUM), SPHERE_SPECTRUM,
                                     pts, pts)
        amb = amb.transpose(0, 2, 1, 3).reshape(21, 21)
        ev_frame = np.sort(np.linalg.eigvalsh(g))
        ev_amb = np.sort(np.linalg.eigvalsh(amb))
        np.testing.assert_allclose(ev_frame, ev_amb[7:], atol=1e-8)

    @pytest.mark.parametrize("kind", [HODGE_DIV, HODGE_CURL, HODGE_FULL, PROJECTED])
    def test_positive_semidefinite(self, kind):
        rng = np.random.default_rng(3)
        spec = KernelSpec(kind, MaternParams(1.5, 0.7, 2.0), lmax=15)
        for _ in range(4):
            pts = sample_sphere(10, rng)
            eigs = np.linalg.eigvalsh(gp.gram(spec, pts))
            assert eigs.min() >= -1e-8


class TestCondition:
    def test_empty_dataset_reverts_to_prior(self):
        model = condition(SPEC, Dataset([], []))
        pts = sample_sphere(3, np.random.default_rng(4))
        pred = predict(model, pts)
        np.testing.assert_array_equal(pred.mean, 0.0)
        prior = full_gram_diagonal(SPEC, pts)
        np.testing.assert_allclose(pred.cov, prior, atol=1e-12)

    def test_solver_residual(self):
        rng = np.random.default_rng(5)
        ds = make_dataset(20, rng, noise=1e-4)
        model = condition(SPEC, ds)
        x = ds.coords()
        k = gp.gram(SPEC, x, model.frames)
        k[np.diag_indices_from(k)] += SPEC.noise_variance
        residual = np.linalg.norm(k @ model.alpha - model.y_frame)
        assert residual < 1e-8 * np.linalg.norm(model.y_frame)

    def test_conditioning_speed(self):
        rng = np.random.default_rng(6)
        ds = make_dataset(34, rng, noise=1e-4)
        condition(SPEC, ds)  # warm-up pass outside the timed section
        t0 = time.perf_counter()
        condition(SPEC, ds)
        assert time.perf_counter() - t0 < 1.0


class TestPredict:
    def test_noiseless_interpolation(self):
        rng = np.random.default_rng(7)
        spec = KernelSpec(HODGE_CURL, MaternParams(0.5, 0.5, 1.0, 0.0), lmax=20)
        ds = make_dataset(15, rng, spec=spec)
        model = condition(spec, ds)
        pred = predict(model, ds.coords())
        assert np.abs(pred.mean - ds.values()).max() < 1e-6
        assert np.trace(pred.cov, axis1=1, axis2=2).max() < 1e-6 * spec.params.variance

    def test_prior_reversion_far_from_data(self):
        # kappa = 0.1 keeps the truncated kernel well localized at lmax = 30;
        # much smaller kappa would leave boxcar-truncation sidelobes
        rng = np.random.default_rng(8)
        spec = KernelSpec(HODGE_CURL, MaternParams(1.5, 0.1, 1.0, 1e-6), lmax=30)
        pts = sample_sphere(10, rng)
        pts[:, 2] = 0.8 + 0.2 * np.abs(pts[:, 2])  # a cap around the north pole
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        field = sample_prior(spec, rng)
        ds = Dataset.from_arrays("sphere", pts, field.at(pts))
        model = condition(spec, ds)
        far = np.array([[0.0, 0.0, -1.0]])
        pred = predict(model, far)
        prior = full_gram_diagonal(spec, far)
        # a bandlimited kernel keeps ~1e-2 sidelobes at the antipode, so
        # "mean vanishes" holds at the percent level of the unit signal
        assert np.abs(pred.mean).max() < 2e-2
        assert np.abs(pred.cov - prior).max() < 1e-2 * spec.params.variance

    def test_posterior_dominated_by_prior(self):
        rng = np.random.default_rng(10)
        ds = make_dataset(12, rng, noise=1e-4)
        model = condition(SPEC, ds)
        q = sample_sphere(6, rng)
        pred = predict(model, q)
        prior = full_gram_diagonal(SPEC, q)
        for i in range(6):
            eigs = np.linalg.eigvalsh(prior[i] - pred.cov[i])
            assert eigs.min() >= -1e-9

    @pytest.mark.parametrize("n_train", [0, 8])
    def test_zero_query_points(self, n_train):
        ds = make_dataset(n_train, np.random.default_rng(11)) if n_train else Dataset([], [])
        model = condition(SPEC, ds)
        pred = predict(model, np.zeros((0, 3)))
        assert pred.mean.shape == (0, 3)
        assert pred.cov.shape == (0, 2, 2)
        draws = sample_posterior(model, np.zeros((0, 3)), np.random.default_rng(0), n_draws=4)
        assert draws.shape == (4, 0, 3)


class TestLogMarginalLikelihood:
    def test_pure_noise_closed_form(self):
        rng = np.random.default_rng(11)
        ds = make_dataset(9, rng)
        s = 0.07
        lml = log_marginal_likelihood(noise_spec(s), ds)
        frames = frames_at(ds.coords())
        yf = np.einsum("nka,na->nk", frames, ds.values()).reshape(-1)
        expected = -0.5 * (yf ** 2).sum() / s - 0.5 * len(yf) * math.log(2 * math.pi * s)
        assert lml == pytest.approx(expected, rel=1e-12)

    def test_frame_invariance(self):
        rng = np.random.default_rng(12)
        ds = make_dataset(10, rng, noise=1e-4)
        frames = frames_at(ds.coords())
        a = lml_with_frames(SPEC, ds, frames)
        b = lml_with_frames(SPEC, ds, random_in_plane_rotations(frames, rng))
        assert a == pytest.approx(b, abs=1e-9)

    def test_matches_public_entry_point(self):
        rng = np.random.default_rng(13)
        ds = make_dataset(8, rng, noise=1e-3)
        manual = lml_with_frames(SPEC, ds, frames_at(ds.coords()))
        assert log_marginal_likelihood(SPEC, ds) == pytest.approx(manual, rel=1e-10)

    def test_generating_kernel_beats_mismatched(self):
        gen = KernelSpec(HODGE_CURL, MaternParams(0.5, 0.3, 1.0, 1e-4), lmax=20)
        mis = KernelSpec(HODGE_DIV, MaternParams(0.5, 0.3, 1.0, 1e-4), lmax=20)
        gaps = []
        for seed in range(10):
            ds = make_dataset(25, np.random.default_rng([14, seed]), spec=gen)
            gaps.append(log_marginal_likelihood(gen, ds) - log_marginal_likelihood(mis, ds))
        assert np.mean(gaps) > 0

    def test_empty_dataset_rejected(self):
        with pytest.raises(InvalidInputError):
            log_marginal_likelihood(SPEC, Dataset([], []))


class TestFit:
    def test_recovers_generating_parameters(self):
        # the noise MLE is weakly identified at this design (the likelihood
        # is nearly flat below 1e-2), so the medians sit close to the
        # factor-3 boundary; the seeds below were verified to give a
        # representative draw
        gen = KernelSpec(HODGE_DIV, MaternParams(0.5, 0.2, 1.0, 0.01), lmax=30)
        kappas, noises = [], []
        for seed in range(10):
            ds = make_dataset(60, np.random.default_rng([0, seed]), spec=gen, noise=0.01)
            cfg = FitConfig(restarts=3, max_iter=250, seed=seed)
            fitted = fit(ds, HODGE_DIV, cfg, nu=0.5, lmax=30)
            kappas.append(fitted.params.kappa)
            noises.append(fitted.params.noise)
        kappa_med = np.median(kappas)
        noise_med = np.median(noises)
        assert 0.1 <= kappa_med <= 0.4
        assert 0.01 / 3 <= noise_med <= 0.01 * 3

    def test_frozen_kappa_honored(self):
        rng = np.random.default_rng(16)
        ds = make_dataset(15, rng, noise=1e-3)
        cfg = FitConfig(restarts=1, max_iter=60, seed=0, fixed_kappa=0.37)
        fitted = fit(ds, HODGE_CURL, cfg, nu=0.5, lmax=20)
        assert fitted.params.kappa == 0.37

    def test_pure_noise_closed_form(self):
        rng = np.random.default_rng(17)
        ds = make_dataset(12, rng)
        fitted = fit(ds, NOISE, FitConfig(restarts=1))
        frames = frames_at(ds.coords())
        yf = np.einsum("nka,na->nk", frames, ds.values())
        assert fitted.noise_variance == pytest.approx(float(np.mean(yf ** 2)), rel=1e-12)

    def test_pure_noise_on_zero_observations_is_floored(self):
        pts = sample_sphere(6, np.random.default_rng(30))
        ds = Dataset.from_arrays("sphere", pts, np.zeros((6, 3)))
        cfg = FitConfig(restarts=1)
        fitted = fit(ds, NOISE, cfg)
        assert fitted.noise_variance == pytest.approx(math.exp(cfg.log_noise_bounds[0]))
        pred = predict(condition(fitted, ds), pts)
        mse, pnll = metrics(pred.mean, pred.cov, ds.values(), fitted.noise_variance,
                            pred.frames)
        assert mse == 0.0 and np.isfinite(pnll)

    def test_compositional_detects_divergence_free_data(self):
        ratios = []
        for seed in range(3):
            ds = make_dataset(30, np.random.default_rng([18, seed]))
            cfg = FitConfig(restarts=2, max_iter=200, seed=seed)
            fitted = fit(ds, HODGE_COMPOSITIONAL, cfg, nu=0.5, lmax=20)
            ratios.append(fitted.parts["div"].variance / fitted.parts["curl"].variance)
        assert np.median(ratios) < 0.05

    def test_empty_dataset_rejected(self):
        with pytest.raises(InvalidInputError):
            fit(Dataset([], []), HODGE_CURL)

    @staticmethod
    def prepared_objective(ds, kind, config, **kw):
        """fit's objective on a dataset prepared once, with its spec builder and bounds."""
        m = ds.manifold
        names, bounds, build = gp._spec_builder(kind, kw.get("nu", 0.5), m, kw.get("lmax", 30),
                                                kw.get("lambda_cap", 900.0), ds.dim, config)
        theta0 = np.array([0.5 * (lo + hi) for lo, hi in bounds])
        return gp._objective(ds, names, build, theta0), build, bounds

    def assert_objective_matches_folded_route(self, ds, kind, config, rng, draws=6, **kw):
        objective, build, bounds = self.prepared_objective(ds, kind, config, **kw)
        for _ in range(draws):
            theta = np.array([rng.uniform(lo, hi) for lo, hi in bounds])
            expected = -log_marginal_likelihood(build(theta), ds)
            assert abs(objective(theta)[0] - expected) <= 1e-10 * abs(expected)

    @staticmethod
    def sphere_dataset_with_poles(rng, n=12):
        pts = sample_sphere(n, rng)
        pts[0], pts[1] = [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]
        pts[3] = -pts[2]   # an antipodal pair off the poles
        vals = rng.standard_normal((n, 3))
        vals -= np.sum(vals * pts, axis=1, keepdims=True) * pts
        return Dataset.from_arrays("sphere", pts, vals)

    @pytest.mark.parametrize("fixed_kappa", [None, 0.3])
    @pytest.mark.parametrize("kind", [HODGE_FULL, HODGE_DIV, HODGE_CURL, HODGE_COMPOSITIONAL,
                                      PROJECTED])
    def test_prepared_objective_matches_lml_on_sphere(self, kind, fixed_kappa):
        rng = np.random.default_rng(40)
        ds = self.sphere_dataset_with_poles(rng)
        self.assert_objective_matches_folded_route(
            ds, kind, FitConfig(fixed_kappa=fixed_kappa), rng, lmax=20)

    @pytest.mark.parametrize("kind", [HODGE_FULL, HODGE_DIV, HODGE_CURL, HODGE_COMPOSITIONAL])
    def test_prepared_objective_matches_lml_on_t2(self, kind):
        rng = np.random.default_rng(41)
        ds = Dataset.from_arrays("torus", rng.uniform(0, 2 * np.pi, (10, 2)),
                                 rng.standard_normal((10, 2)))
        self.assert_objective_matches_folded_route(ds, kind, FitConfig(), rng,
                                                   lambda_cap=100.0)

    def test_prepared_objective_matches_lml_on_circle(self):
        rng = np.random.default_rng(42)
        ds = Dataset.from_arrays("circle", rng.uniform(0, 2 * np.pi, (8, 1)),
                                 rng.standard_normal((8, 1)))
        self.assert_objective_matches_folded_route(ds, HODGE_FULL, FitConfig(), rng,
                                                   lambda_cap=64.0)

    @pytest.mark.parametrize("kind", [HODGE_DIV, PROJECTED])
    def test_prepared_objective_at_lower_noise_bound(self, kind):
        # a repeated point makes the noise-free Gram singular, so conditioning
        # at a negligible noise floor needs jitter (or fails outright)
        rng = np.random.default_rng(43)
        ds = self.sphere_dataset_with_poles(rng, n=8)
        ds = Dataset.from_arrays("sphere", np.vstack([ds.coords(), ds.coords()[4:5]]),
                                 np.vstack([ds.values(), ds.values()[4:5]]))
        config = FitConfig(log_noise_bounds=(-60.0, 2.0))
        objective, build, bounds = self.prepared_objective(ds, kind, config, lmax=20)
        theta = np.array([math.log(0.3), 0.0, bounds[-1][0]])
        try:
            expected = -log_marginal_likelihood(build(theta), ds)
        except NumericalError:
            value, grad = objective(theta)
            assert value == 1e30
            np.testing.assert_array_equal(grad, np.zeros(len(theta)))
            return
        assert condition(build(theta), ds).jitter > 0.0
        assert abs(objective(theta)[0] - expected) <= 1e-10 * abs(expected)

    @staticmethod
    def assert_gradient_matches_central_differences(ds, kind, nu, config, rng, **kw):
        # theta away from the bounds, with enough noise that no step needs jitter
        objective, _, bounds = TestFit.prepared_objective(ds, kind, config, nu=nu, **kw)
        inner = {config.log_kappa_bounds: (math.log(0.1), math.log(2.0)),
                 config.log_variance_bounds: (-1.0, 1.0), config.log_noise_bounds: (-4.0, -1.0)}
        theta = np.array([rng.uniform(*inner[b]) for b in bounds])
        value, grad = objective(theta)
        assert value == objective(theta)[0] < 1e30
        h = 1e-5
        central = np.array([(objective(theta + h * e)[0] - objective(theta - h * e)[0]) / (2 * h)
                            for e in np.eye(len(theta))])
        np.testing.assert_allclose(grad, central, rtol=0.0,
                                   atol=1e-7 * max(1.0, np.abs(central).max()))

    @pytest.mark.parametrize("fixed_kappa", [None, 0.3])
    @pytest.mark.parametrize("nu", [0.5, 1.5, math.inf])
    @pytest.mark.parametrize("kind", [HODGE_FULL, HODGE_DIV, HODGE_CURL, HODGE_COMPOSITIONAL,
                                      PROJECTED])
    def test_gradient_matches_central_differences_on_sphere(self, kind, nu, fixed_kappa):
        # both poles and an antipodal pair, where the frames and P_l(+-1) are special
        rng = np.random.default_rng(44)
        ds = self.sphere_dataset_with_poles(rng)
        self.assert_gradient_matches_central_differences(
            ds, kind, nu, FitConfig(fixed_kappa=fixed_kappa), rng, lmax=20)

    @pytest.mark.parametrize("fixed_kappa", [None, 0.3])
    @pytest.mark.parametrize("nu", [0.5, 1.5, math.inf])
    @pytest.mark.parametrize("kind", [HODGE_FULL, HODGE_DIV, HODGE_CURL, HODGE_COMPOSITIONAL])
    def test_gradient_matches_central_differences_on_t2(self, kind, nu, fixed_kappa):
        rng = np.random.default_rng(45)
        ds = Dataset.from_arrays("torus", rng.uniform(0, 2 * np.pi, (10, 2)),
                                 rng.standard_normal((10, 2)))
        self.assert_gradient_matches_central_differences(
            ds, kind, nu, FitConfig(fixed_kappa=fixed_kappa), rng, lambda_cap=100.0)

    @pytest.mark.parametrize("nu", [0.5, 1.5, math.inf])
    @pytest.mark.parametrize("kind", [HODGE_FULL, HODGE_DIV])
    def test_gradient_matches_central_differences_on_circle(self, kind, nu):
        rng = np.random.default_rng(46)
        ds = Dataset.from_arrays("circle", rng.uniform(0, 2 * np.pi, (8, 1)),
                                 rng.standard_normal((8, 1)))
        self.assert_gradient_matches_central_differences(ds, kind, nu, FitConfig(), rng,
                                                         lambda_cap=64.0)

    @pytest.mark.parametrize("seed", [47, 48])
    @pytest.mark.parametrize("kind", [HODGE_DIV, HODGE_COMPOSITIONAL])
    def test_best_lml_at_least_nelder_mead_reference(self, kind, seed):
        # the reference searches the public log_marginal_likelihood without
        # gradients, from the starts fit uses: the centre start, then seeded
        # uniform draws in the bounds
        from scipy.optimize import minimize
        ds = make_dataset(10, np.random.default_rng(seed), noise=0.01)
        config = FitConfig(restarts=2, seed=seed)
        names, bounds, build = gp._spec_builder(kind, 0.5, "sphere", 15, 900.0, 2, config)
        mean_sq = float(np.mean(np.sum(ds.values() ** 2, axis=1)))
        centre = [math.log(0.5) if n.startswith("log_kappa")
                  else np.clip(math.log(mean_sq if n.startswith("log_variance")
                                        else 0.01 * mean_sq), lo, hi)
                  for n, (lo, hi) in zip(names, bounds)]
        draws = np.random.default_rng(config.seed)
        starts = [centre] + [[draws.uniform(lo, hi) for lo, hi in bounds]
                             for _ in range(config.restarts - 1)]

        def negative_lml(theta):
            try:
                return -log_marginal_likelihood(build(theta), ds)
            except NumericalError:
                return 1e30

        reference = max(-minimize(negative_lml, x0, method="Nelder-Mead", bounds=bounds,
                                  options={"maxiter": 4000, "fatol": 1e-10,
                                           "xatol": 1e-8}).fun for x0 in starts)
        fitted = fit(ds, kind, config, nu=0.5, lmax=15)
        assert log_marginal_likelihood(fitted, ds) >= reference - 1e-6

    @pytest.mark.parametrize("field, value", [
        ("max_iter", 0), ("max_iter", -3), ("max_iter", 2.5), ("max_iter", True),
        ("restarts", 0), ("restarts", 2.5), ("restarts", False),
        ("tol", 0.0), ("tol", -1.0), ("tol", math.nan), ("tol", math.inf),
        ("log_kappa_bounds", (1.0, -1.0)), ("log_kappa_bounds", (0.5, 0.5)),
        ("log_variance_bounds", (0.0, math.inf)), ("log_noise_bounds", (math.nan, 1.0)),
        ("log_noise_bounds", (0.0,)), ("seed", -1), ("seed", 2.5), ("seed", [0, -1]),
        ("fixed_kappa", -1.0), ("fixed_kappa", math.inf)])
    def test_config_fields_are_checked(self, field, value):
        # before, max_iter 2.5, tol -1 or nan and fixed_kappa -1 were accepted, and
        # restarts 2.5, a reversed bounds pair and seed -1 failed only inside fit,
        # with numpy's or scipy's error; list seeds, as the CLI passes them, stay valid
        with pytest.raises(InvalidInputError, match=field):
            FitConfig(**{field: value})
        assert FitConfig(seed=[0, 1, 2, 7919], restarts=np.int64(2)).restarts == 2


    @pytest.mark.parametrize("manifold", ["sphere", "torus"])
    @pytest.mark.parametrize("nu", [0.5, math.inf])
    @pytest.mark.parametrize("fixed_kappa", [1e-300, 1e300])
    def test_fixed_kappa_is_checked_against_nu(self, manifold, nu, fixed_kappa, monkeypatch):
        # FitConfig knows no nu, so fit checks fixed_kappa before it builds a table;
        # before, the first spec failed inside the objective, with MaternParams'
        # message, which names neither the setting nor the fit
        rng = np.random.default_rng(70)
        ds = (make_dataset(5, rng) if manifold == "sphere" else
              Dataset.from_arrays("torus", rng.uniform(0, 2 * np.pi, (5, 2)),
                                  rng.standard_normal((5, 2))))

        def refuse(*args, **kwargs):
            raise AssertionError("the objective was built")

        monkeypatch.setattr(gp, "_objective", refuse)
        with pytest.raises(InvalidInputError, match=r"fixed_kappa.*for nu"):
            fit(ds, HODGE_CURL, FitConfig(fixed_kappa=fixed_kappa), nu=nu, lmax=6,
                lambda_cap=20.0)

class TestPointsOnTheSpecsManifold:
    """A point off the spec's manifold, or of another dimension, is an InvalidInputError.
    Before, lists of points reached numpy unchecked: an IndexError, numpy's ValueError,
    or, for unit-norm torus angle vectors, sphere predictions."""

    @pytest.fixture(scope="class")
    def sphere_model(self):
        return condition(SPEC, make_dataset(6, np.random.default_rng(69)))

    @pytest.mark.parametrize("points", [[circle_point(0.3)], [torus_point([0.1, 0.2])],
                                        [torus_point([1.0, 0.0, 0.0]),
                                         torus_point([0.0, 1.0, 0.0])]],
                             ids=["circle", "t2", "unit-norm-t3"])
    def test_predict_on_the_sphere(self, sphere_model, points):
        with pytest.raises(InvalidInputError, match="torus|circle"):
            predict(sphere_model, points)

    def test_torus_draw_at_sphere_points(self):
        spec = POSTERIOR_SPECS["t3-full"]
        points = [lonlat_to_point(10.0, 20.0), lonlat_to_point(-30.0, 5.0)]
        with pytest.raises(InvalidInputError, match="sphere point"):
            sample_prior(spec, np.random.default_rng(70)).at(points)

    def test_condition_on_another_manifold(self):
        t2 = Dataset.from_arrays("torus", [[0.1, 0.2], [1.0, 2.0]], [[0.3, 0.4], [0.5, 0.6]])
        circle = Dataset.from_arrays("circle", [[0.1], [1.0]], [[0.3], [0.5]])
        t1 = KernelSpec(HODGE_DIV, POSTERIOR_PARAMS, manifold="torus", torus_dim=1,
                        lambda_cap=36.0)
        # a sphere dataset's (n, 3) unit rows are finite rows of width 3, as T^3 points are
        cases = [(t2, SPEC, "torus point of dimension 2"),
                 (t2, POSTERIOR_SPECS["t3-full"], "torus point of dimension 2"),
                 (make_dataset(4, np.random.default_rng(71)), POSTERIOR_SPECS["t3-full"],
                  "sphere point of dimension 2"),
                 (circle, t1, "circle point of dimension 1")]
        for ds, spec, named in cases:
            for call in (condition, log_marginal_likelihood):
                with pytest.raises(InvalidInputError, match=named):
                    call(spec, ds)

    def test_dataset_rejects_mixed_manifolds(self):
        points = [lonlat_to_point(10.0, 20.0), torus_point([1.0, 0.0, 0.0])]
        with pytest.raises(InvalidInputError, match="one manifold"):
            Dataset(points, [TangentVector(points[0], [0.0, 0.0, 0.0]),
                             TangentVector(points[1], [0.1, 0.2, 0.3])])
        t2, t3 = torus_point([0.1, 0.2]), torus_point([0.1, 0.2, 0.3])
        with pytest.raises(InvalidInputError, match="one manifold"):
            Dataset([t2, t3], [TangentVector(t2, [0.0, 1.0]), TangentVector(t3, [0.0, 1.0, 2.0])])


class TestQueryValidation:
    @pytest.mark.parametrize("scale", [2.0, 1.0 + 1e-9, 0.0, math.nan, math.inf])
    def test_sphere_coordinate_arrays_must_be_unit_rows(self, scale):
        # at the parent predict at 2 X moved the mean by 1e12 and the covariance by 5e23
        rng = np.random.default_rng(30)
        ds = make_dataset(10, rng)
        model = condition(SPEC, ds)
        Q = ds.coords()[:2].copy()
        Q[1] *= scale
        calls = [lambda: predict(model, Q), lambda: sample_posterior(model, Q, rng),
                 lambda: gp.gram(SPEC, Q),
                 lambda: sample_prior(SPEC, rng).at(Q),
                 lambda: sample_prior_batch(SPEC, Q, 2, rng)]
        for call in calls:
            with pytest.raises(InvalidInputError, match="unit norm"):
                call()

    def test_sphere_coordinate_arrays_must_have_three_columns(self):
        model = condition(SPEC, Dataset([], []))
        with pytest.raises(InvalidInputError, match=r"\(m, 3\)"):
            predict(model, np.array([[1.0, 0.0]]))

    def test_unit_rows_within_point_tolerance_pass(self):
        rng = np.random.default_rng(31)
        ds = make_dataset(6, rng)
        model = condition(SPEC, ds)
        X = ds.coords()
        near = X * (1.0 + 5e-13)
        np.testing.assert_allclose(predict(model, near).mean, predict(model, X).mean,
                                   rtol=0.0, atol=1e-9)


POINT_FORM_SPECS = {
    "sphere": (KernelSpec(HODGE_CURL, MaternParams(1.5, 0.5, 1.0, 0.1), lmax=8),
               KernelSpec(SCALAR, MaternParams(1.5, 0.5), lmax=8)),
    "t2": (KernelSpec(HODGE_FULL, MaternParams(1.5, 0.5, 1.0, 0.1), manifold="torus",
                      lambda_cap=16.0),
           KernelSpec(SCALAR, MaternParams(1.5, 0.5), manifold="torus", lambda_cap=16.0)),
}
POINT_CALLS = ("gram", "predict", "sample_posterior", "PriorSample.at", "sample_prior_batch",
               "kernel_matrix", "scalar_kernel_matrix")


def point_form_problem(manifold):
    """(spec, queries Q, call): call(name, points) is a tuple of the named call's output
    arrays, its rng fixed; training points and torus angles lie in [0, 2 pi)."""
    spec, scalar = POINT_FORM_SPECS[manifold]
    rng = np.random.default_rng(71)
    if manifold == "sphere":
        X, Q = sample_sphere(6, rng), sample_sphere(3, rng)
        values = np.einsum("nk,nka->na", rng.standard_normal((6, 2)), frames_at(X))
    else:
        X, Q = rng.uniform(0, 2 * np.pi, (6, 2)), rng.uniform(0, 2 * np.pi, (3, 2))
        values = rng.standard_normal((6, 2))
    model = condition(spec, Dataset.from_arrays(spec.manifold, X, values))

    def call(name, points):
        rng = np.random.default_rng(72)
        if name == "predict":
            prediction = predict(model, points)
            return prediction.mean, prediction.cov
        return ({"gram": lambda: gp.gram(spec, points),
                 "sample_posterior": lambda: sample_posterior(model, points, rng, 2),
                 "PriorSample.at": lambda: sample_prior(spec, rng).at(points),
                 "sample_prior_batch": lambda: sample_prior_batch(spec, points, 2, rng),
                 "kernel_matrix": lambda: kernel_matrix(spec, points),
                 "scalar_kernel_matrix": lambda: scalar_kernel_matrix(scalar, X, points)}
                [name](),)

    return spec, Q, call


def assert_bit_identical(got, expected):
    for a, b in zip(got, expected, strict=True):
        assert a.shape == b.shape and np.array_equal(a, b)


class TestOnePointReader:
    """Every call that takes points reads them through ``manifold.coordinates``. Before,
    nested lists gave AttributeError in gp, a tuple of points TypeError, and a list of
    points or [] gave TypeError or a shape error in kernel_matrix; later a bare point gave
    TypeError, and ragged or string rows numpy's ValueError."""

    @pytest.mark.parametrize("name", POINT_CALLS)
    @pytest.mark.parametrize("manifold", ["sphere", "t2"])
    def test_every_form_gives_the_same_outputs(self, manifold, name):
        spec, Q, call = point_form_problem(manifold)
        points = [ManifoldPoint(spec.manifold, q) for q in Q]
        expected = call(name, Q)
        for form in (Q.tolist(), points, tuple(points), list(Q)):
            assert_bit_identical(call(name, form), expected)
        assert_bit_identical(call(name, Q[0]), call(name, Q[:1]))
        assert_bit_identical(call(name, points[0]), call(name, Q[:1]))
        if manifold == "t2":
            # unreduced angles: before, rows were read unreduced and points reduced, so the
            # forms differed in the last bits (predict means by up to 9.4e-16)
            for U in (Q + 2 * np.pi, Q - 4 * np.pi):
                expected = call(name, U)
                data = Dataset.from_arrays(spec.manifold, U, np.zeros_like(U))
                for form in ([ManifoldPoint(spec.manifold, u) for u in U], data.coords()):
                    assert_bit_identical(call(name, form), expected)

    @pytest.mark.parametrize("name", POINT_CALLS)
    @pytest.mark.parametrize("manifold", ["sphere", "t2"])
    def test_no_points_give_empty_outputs(self, manifold, name):
        spec, Q, call = point_form_problem(manifold)
        for form in ([], (), np.zeros((0, Q.shape[1]))):
            shapes = [a.shape for a in call(name, form)]
            assert shapes == [a.shape for a in call(name, Q[:0])]
            assert all(0 in shape for shape in shapes)

    @pytest.mark.parametrize("name", POINT_CALLS)
    @pytest.mark.parametrize("manifold", ["sphere", "t2"])
    def test_bad_points_are_invalid_input(self, manifold, name):
        spec, Q, call = point_form_problem(manifold)
        other = (torus_point([0.1, 0.2]) if manifold == "sphere"
                 else sphere_point([0.0, 0.0, 1.0]))
        bad_row = Q.copy()
        bad_row[1, 0] = math.nan
        mixed = "mix ManifoldPoint and coordinate rows"
        elsewhere = f"a {other.manifold} point of dimension 2 for a kernel on the {spec.manifold}"
        neither = "not ManifoldPoint or numeric rows"
        cases = [([ManifoldPoint(spec.manifold, Q[0]), Q[1]], mixed),
                 ([Q[0], ManifoldPoint(spec.manifold, Q[1])], mixed),
                 ([other], elsewhere), (other, elsewhere),
                 ([Q[0].tolist(), Q[1, :-1].tolist()], neither), ([["a"] * Q.shape[1]], neither),
                 ([circle_point(0.3)], "a circle point of dimension 1"),
                 ([torus_point([0.1, 0.2, 0.3])], "a torus point of dimension 3"),
                 (bad_row, "unit norm" if manifold == "sphere" else "must be finite")]
        if manifold == "sphere":
            cases += [(2.0 * Q, "unit norm"), (Q[:, :2], r"\(m, 3\) array")]
        else:
            cases += [(np.zeros((2, 3)), r"not on T\^2"), (np.zeros(3), r"not on T\^2")]
        for points, message in cases:
            with pytest.raises(InvalidInputError, match=message):
                call(name, points)


class TestScalarDraws:
    @pytest.mark.parametrize("manifold", ["sphere", "t2"])
    def test_samplers_reject_the_scalar_kind(self, manifold):
        # before, a scalar sphere draw was the gradient basis under scalar level weights, a
        # field of no kernel, and a scalar T^2 draw failed in numpy's reshape
        scalar = POINT_FORM_SPECS[manifold][1]
        _, Q, _ = point_form_problem(manifold)
        rng = np.random.default_rng(73)
        # conditioning a scalar spec raises for empty data as for any other, so the model
        # that reaches sample_posterior is built by hand
        with pytest.raises(InvalidInputError, match="scalar kernels have no vector kernel"):
            condition(scalar, Dataset([], []))
        model = gp.PosteriorModel(scalar, Dataset([], []), np.zeros((0, Q.shape[1])), None,
                                  np.zeros((0, 0)), np.zeros(0), np.zeros(0), 0.0)
        calls = (lambda: sample_prior(scalar, rng), lambda: sample_prior_batch(scalar, Q, 1, rng),
                 lambda: sample_posterior(model, Q, rng))
        for call in calls:
            with pytest.raises(InvalidInputError, match="scalar kernels have no vector draws"):
                call()


class TestDrawCounts:
    @pytest.fixture(scope="class")
    def model(self):
        return condition(SPEC, make_dataset(6, np.random.default_rng(32)))

    @pytest.mark.parametrize("m", [0, 3])
    def test_zero_posterior_draws(self, model, m):
        draws = sample_posterior(model, sample_sphere(m, np.random.default_rng(33)),
                                 np.random.default_rng(0), n_draws=0)
        assert draws.shape == (0, m, 3)

    @pytest.mark.parametrize("kind", [HODGE_CURL, PROJECTED, NOISE])
    def test_zero_prior_draws(self, kind):
        spec = (noise_spec(0.1) if kind == NOISE
                else KernelSpec(kind, MaternParams(0.5, 0.5, 1.0), lmax=20))
        pts = sample_sphere(3, np.random.default_rng(34))
        draws = sample_prior_batch(spec, pts, 0, np.random.default_rng(0))
        assert draws.shape == (0, 3, 3)

    @pytest.mark.parametrize("n_draws", [-1, 1.5, 2.0, "2", True, None])
    def test_draw_count_must_be_a_nonnegative_integer(self, model, n_draws):
        pts = sample_sphere(3, np.random.default_rng(35))
        with pytest.raises(InvalidInputError, match="n_draws"):
            sample_posterior(model, pts, np.random.default_rng(0), n_draws=n_draws)
        with pytest.raises(InvalidInputError, match="n_draws"):
            sample_prior_batch(SPEC, pts, n_draws, np.random.default_rng(0))

    def test_integer_types_accepted(self, model):
        pts = sample_sphere(2, np.random.default_rng(36))
        draws = sample_posterior(model, pts, np.random.default_rng(0), n_draws=np.int64(2))
        assert draws.shape == (2, 2, 3)


class TestSampling:
    def test_prior_determinism(self):
        pts = sample_sphere(5, np.random.default_rng(19))
        a = sample_prior(SPEC, np.random.default_rng(42)).at(pts)
        b = sample_prior(SPEC, np.random.default_rng(42)).at(pts)
        np.testing.assert_array_equal(a, b)

    def test_prior_samples_are_tangent(self):
        rng = np.random.default_rng(20)
        pts = sample_sphere(8, rng)
        for kind in (HODGE_CURL, HODGE_FULL, PROJECTED):
            spec = KernelSpec(kind, MaternParams(0.5, 0.5, 1.0), lmax=12)
            vals = sample_prior(spec, rng).at(pts)
            assert np.abs(np.einsum("na,na->n", vals, pts)).max() < 1e-10

    def test_batch_matches_single_draws(self):
        pts = sample_sphere(4, np.random.default_rng(21))
        batch = sample_prior_batch(SPEC, pts, 3, np.random.default_rng(7))
        singles = [sample_prior(SPEC, np.random.default_rng(7)).at(pts)]
        np.testing.assert_allclose(batch[0], singles[0], atol=1e-12)

    @pytest.mark.parametrize("manifold, kind", [
        ("sphere", HODGE_FULL), ("sphere", HODGE_DIV), ("sphere", HODGE_CURL),
        ("sphere", HODGE_COMPOSITIONAL), ("sphere", PROJECTED), ("sphere", NOISE),
        ("torus", HODGE_FULL), ("torus", HODGE_DIV), ("torus", HODGE_CURL),
        ("torus", HODGE_COMPOSITIONAL), ("torus", NOISE)])
    def test_batch_equals_successive_single_draws(self, manifold, kind):
        rng = np.random.default_rng(24)
        params = MaternParams(1.5, 0.4, 1.3)
        if manifold == "sphere":
            pts = sample_sphere(5, rng)
            coreg = np.array([[1.0, 0.2, -0.5], [0.0, 0.7, 0.3], [0.4, -0.1, 1.2]])
            extra = dict(lmax=10, coreg=coreg if kind == PROJECTED else None)
            harm = None
        else:
            pts = rng.uniform(0, 2 * np.pi, size=(5, 2))
            extra = dict(manifold="torus", lambda_cap=64.0)
            harm = 0.3
        if kind == NOISE:
            spec = noise_spec(0.1, manifold=manifold)
        elif kind == HODGE_COMPOSITIONAL:
            spec = compositional_spec(1.5, (0.3, 0.8), (0.6, 1.2), harm_variance=harm,
                                      **{k: v for k, v in extra.items() if k != "coreg"})
        else:
            spec = KernelSpec(kind, params, **extra)
        batch = sample_prior_batch(spec, pts, 4, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        singles = np.stack([sample_prior(spec, rng).at(pts) for _ in range(4)])
        assert batch.shape == singles.shape == (4, 5, pts.shape[1])
        assert np.abs(batch - singles).max() <= 1e-12
        if kind != NOISE:
            assert np.abs(singles).max() > 0.0

    @pytest.mark.parametrize("manifold, spectrum", [
        ("sphere", sphere_spectrum(4)), ("sphere", torus_spectrum(2, 64.0)),
        ("torus", torus_spectrum(2, 25.0)), ("torus", torus_spectrum(1, 64.0)),
        ("torus", sphere_spectrum(10))],
        ids=["sphere-lmax4", "sphere-t2", "t2-cap25", "t2-circle", "t2-sphere"])
    def test_spectrum_must_be_the_specs_truncation(self, manifold, spectrum):
        # a hodge-curl spec at lmax 30 drawn from sphere_spectrum(4) would
        # silently sample another kernel
        if manifold == "sphere":
            spec = KernelSpec(HODGE_CURL, MaternParams(0.5, 0.5, 1.0), lmax=30)
        else:
            spec = KernelSpec(HODGE_CURL, MaternParams(0.5, 0.5, 1.0), manifold="torus",
                              lambda_cap=64.0)
        # only sample_prior's deprecated form passes a spectrum; it warns, then checks it
        rng = np.random.default_rng(26)
        with pytest.warns(DeprecationWarning), pytest.raises(InvalidInputError):
            sample_prior(spec, spectrum, rng)

    def test_posterior_mean_consistency(self):
        rng = np.random.default_rng(22)
        ds = make_dataset(12, rng, noise=1e-3)
        model = condition(SPEC, ds)
        q = sample_sphere(3, rng)
        pred = predict(model, q)
        draws = sample_posterior(model, q, np.random.default_rng(23), n_draws=5000)
        std_err = np.sqrt(np.trace(pred.cov, axis1=1, axis2=2) / 5000)
        gap = np.linalg.norm(draws.mean(axis=0) - pred.mean, axis=1)
        assert np.all(gap < 3 * np.maximum(std_err, 1e-12) + 1e-9)

    def test_posterior_variance_consistency(self):
        rng = np.random.default_rng(24)
        ds = make_dataset(10, rng, noise=1e-3)
        model = condition(SPEC, ds)
        q = sample_sphere(3, rng)
        pred = predict(model, q)
        draws = sample_posterior(model, q, np.random.default_rng(25), n_draws=5000)
        frames = frames_at(q)
        draws_f = np.einsum("dma,mka->dmk", draws, frames)
        var_mc = draws_f.var(axis=0)
        var_exact = np.stack([np.diag(c) for c in pred.cov])
        assert np.abs(var_mc / var_exact - 1.0).max() < 0.07

    def test_noiseless_posterior_reproduces_observations(self):
        rng = np.random.default_rng(26)
        spec = KernelSpec(HODGE_CURL, MaternParams(0.5, 0.5, 1.0, 0.0), lmax=20)
        ds = make_dataset(10, rng, spec=spec)
        model = condition(spec, ds)
        draws = sample_posterior(model, ds.coords()[:4], np.random.default_rng(27), n_draws=20)
        assert np.abs(draws - ds.values()[:4][None]).max() < 1e-5


POSTERIOR_PARAMS = MaternParams(1.5, 0.5, 1.0, 0.2)
COREG = np.array([[1.0, 0.2, -0.5], [0.0, 0.7, 0.3], [0.4, -0.1, 1.2]])
POSTERIOR_SPECS = {
    "sphere-full": KernelSpec(HODGE_FULL, POSTERIOR_PARAMS, lmax=10),
    "sphere-div": KernelSpec(HODGE_DIV, POSTERIOR_PARAMS, lmax=10),
    "sphere-curl": KernelSpec(HODGE_CURL, POSTERIOR_PARAMS, lmax=10),
    "sphere-compositional": compositional_spec(1.5, (0.4, 0.8), (0.7, 1.2), noise=0.2, lmax=10),
    "sphere-projected": KernelSpec(PROJECTED, POSTERIOR_PARAMS, coreg=COREG, lmax=10),
    "t2-compositional": compositional_spec(1.5, (0.4, 0.8), (0.7, 1.2), harm_variance=0.3,
                                           noise=0.2, manifold="torus", lambda_cap=36.0),
    "t3-full": KernelSpec(HODGE_FULL, POSTERIOR_PARAMS, manifold="torus", torus_dim=3,
                          lambda_cap=9.0),
    "circle-div": KernelSpec(HODGE_DIV, POSTERIOR_PARAMS, manifold="circle", torus_dim=1,
                             lambda_cap=36.0),
}


def posterior_problem(spec, rng, n=8, m=4):
    """A model conditioned on n random observations, and m queries: half of them
    next to training points, where the data move the posterior most."""
    if spec.manifold == "sphere":
        X = sample_sphere(n, rng)
        values = np.einsum("nk,nka->na", rng.standard_normal((n, 2)), frames_at(X))
        Q = np.concatenate([X[:m // 2] + 0.05 * rng.standard_normal((m // 2, 3)),
                            sample_sphere(m - m // 2, rng)])
        Q /= np.linalg.norm(Q, axis=1, keepdims=True)
    else:
        X = rng.uniform(0, 2 * np.pi, size=(n, spec.dim))
        values = rng.standard_normal((n, spec.dim))
        Q = np.concatenate([X[:m // 2] + 0.05 * rng.standard_normal((m // 2, spec.dim)),
                            rng.uniform(0, 2 * np.pi, size=(m - m // 2, spec.dim))])
    return condition(spec, Dataset.from_arrays(spec.manifold, X, values)), Q


def check_draws_against_predict(model, Q, rng, n_draws=20000, chunk=5000):
    """Monte-Carlo mean and covariance of posterior draws against ``predict``.

    Bounds, fixed before running: every frame component of the draw mean lies
    within 5 standard errors sqrt(var / n_draws) of the predicted mean (at
    most 12 components); each point's draw covariance is within 5% of the
    predicted block in relative Frobenius norm, where sampling error alone
    gives about sqrt(3 / n_draws) = 1.2% for an isotropic 2 x 2 block.
    """
    draws = np.concatenate([sample_posterior(model, Q, rng, n_draws=chunk)
                            for _ in range(n_draws // chunk)])
    pred = predict(model, Q)
    mean = gp._frame_components(pred.mean, pred.frames)
    draws = gp._frame_components(draws, pred.frames)
    var = np.diagonal(pred.cov, axis1=1, axis2=2)
    z = np.abs(draws.mean(axis=0) - mean) / np.sqrt(var / n_draws)
    centred = draws - draws.mean(axis=0)
    cov = np.einsum("dmk,dml->mkl", centred, centred) / (n_draws - 1)
    rel = (np.linalg.norm(cov - pred.cov, axis=(1, 2))
           / np.linalg.norm(pred.cov, axis=(1, 2)))
    assert z.max() < 5.0, z
    assert rel.max() < 0.05, rel


class TestPathwisePosterior:
    @pytest.mark.parametrize("name", list(POSTERIOR_SPECS))
    def test_draws_match_predict(self, name):
        model, Q = posterior_problem(POSTERIOR_SPECS[name], np.random.default_rng(41))
        check_draws_against_predict(model, Q, np.random.default_rng(42))

    def test_draws_carry_the_conditioning_jitter(self, monkeypatch):
        # a model whose factorization needed a jitter J: the draws' noise must
        # be s^2 + J, as the factor predict uses holds K + (s^2 + J) I
        jitter = 0.2
        factor = gp._chol_with_jitter
        monkeypatch.setattr(gp, "_chol_with_jitter", lambda mat, scale: (
            factor(mat + jitter * np.eye(len(mat)), scale)[0], jitter))
        spec = KernelSpec(HODGE_CURL, MaternParams(1.5, 0.5, 1.0, 0.01), lmax=10)
        model, Q = posterior_problem(spec, np.random.default_rng(43))
        assert model.jitter == jitter
        check_draws_against_predict(model, Q, np.random.default_rng(44))

    @pytest.mark.parametrize("manifold", ["sphere", "torus"])
    def test_noise_kind_draws_are_zero(self, manifold):
        model, Q = posterior_problem(noise_spec(0.2, manifold=manifold),
                                     np.random.default_rng(45))
        draws = sample_posterior(model, Q, np.random.default_rng(46), n_draws=3)
        assert draws.shape == (3, 4, 3 if manifold == "sphere" else 2)
        assert np.all(draws == 0.0)

    def test_hodge_curl_draws_are_divergence_free(self):
        # the prior draw and every column of K_QX are divergence-free, so a
        # draw's finite-difference divergence is truncation error alone:
        # bound 1e-5 of the divergence a unit-variance div-class field has
        spec = KernelSpec(HODGE_CURL, MaternParams(0.5, 0.4, 1.0, 1e-2))
        rng = np.random.default_rng(47)
        model = condition(spec, make_dataset(20, rng, spec=spec, noise=1e-2))
        stencils = [divergence_stencil(lonlat_to_point(lon, lat).coords, 1e-4)
                    for lon, lat in zip(np.linspace(-170, 160, 10), np.linspace(-60, 60, 10))]
        pts = np.concatenate([pts for pts, _ in stencils])
        draws = sample_posterior(model, pts, np.random.default_rng(48), n_draws=2)
        draws = draws.reshape(2, len(stencils), 4, 3)
        div = max(float(np.abs(combine(draws[:, i])).max())
                  for i, (_, combine) in enumerate(stencils))
        scale = math.sqrt(2.0 * var_div_hodge_sphere(spec.params, spec.lmax))
        assert div < 1e-5 * scale

    @pytest.mark.parametrize("dim", [2, 3])
    def test_torus_draws_build_no_torus_spectrum(self, dim, monkeypatch):
        spec = KernelSpec(HODGE_FULL, POSTERIOR_PARAMS, manifold="torus", torus_dim=dim,
                          lambda_cap=900.0)
        model, Q = posterior_problem(spec, np.random.default_rng(49))

        def refuse(*args, **kwargs):
            raise AssertionError("a TorusSpectrum was built")

        for module in (spectrum, kernels, gp):
            monkeypatch.setattr(module, "torus_spectrum", refuse, raising=False)
        monkeypatch.setattr(spectrum.TorusSpectrum, "__init__", refuse)
        draws = sample_posterior(model, Q, np.random.default_rng(50), n_draws=2)
        assert draws.shape == (2, 4, dim)
        assert np.isfinite(draws).all()

    def test_t3_full_prior_covariance_matches_the_kernel(self):
        # second moments of zero-mean Gaussian draws: entry (a, b) has standard
        # error sqrt((K_aa K_bb + K_ab^2) / N); bound 5 of them over 45 entries
        spec = KernelSpec(HODGE_FULL, MaternParams(1.5, 0.6, 1.0), manifold="torus",
                          torus_dim=3, lambda_cap=9.0)
        rng = np.random.default_rng(51)
        pts = rng.uniform(0, 2 * np.pi, size=(3, 3))
        pts[1] = pts[0] + 0.3
        draws = np.concatenate([sample_prior_batch(spec, pts, 5000, rng)
                                for _ in range(4)]).reshape(20000, 9)
        exact = kernel_matrix(spec, pts).transpose(0, 2, 1, 3).reshape(9, 9)
        mc = draws.T @ draws / len(draws)
        var = np.diag(exact)
        se = np.sqrt((np.outer(var, var) + exact ** 2) / len(draws))
        assert (np.abs(mc - exact) / se).max() < 5.0


class TestEmptyData:
    """An empty dataset is n = 0 on the general path: the model keeps (0, k) coordinates,
    predicts the prior exactly and draws what the prior sampler draws. Before, a cross
    Gram with no columns failed on the sphere with numpy's "cannot reshape array of size 0"."""

    NAMES = ["sphere-full", "sphere-div", "sphere-curl", "sphere-compositional",
             "sphere-projected", "t2-compositional", "t3-full"]

    @staticmethod
    def problem(name):
        spec = POSTERIOR_SPECS[name]
        data, Q = posterior_problem(spec, np.random.default_rng(60))
        return spec, condition(spec, Dataset([], [])), data, Q

    @pytest.mark.parametrize("name", NAMES)
    def test_blocks_with_no_columns(self, name):
        spec, empty, data, Q = self.problem(name)
        assert empty.X.shape == (0, data.X.shape[1])
        assert np.array_equal(data.X, data.dataset.coords())
        d, D = spec.dim, spec.ambient_dim
        assert kernel_matrix(spec, Q, []).shape == (len(Q), 0, D, D)
        assert frame_blocks(spec, Q, gp._frames(spec.manifold, Q), empty.X,
                            empty.frames).shape == (len(Q), 0, d, d)

    @pytest.mark.parametrize("name", NAMES)
    def test_predictions_are_the_prior(self, name):
        spec, empty, _, Q = self.problem(name)
        pred = predict(empty, Q)
        prior = kernels.diagonal_frame_blocks(spec, Q, gp._frames(spec.manifold, Q))
        assert np.array_equal(pred.mean, np.zeros((len(Q), spec.ambient_dim)))
        assert np.array_equal(pred.cov, 0.5 * (prior + prior.transpose(0, 2, 1)))

    @pytest.mark.parametrize("name", NAMES)
    def test_draws_are_prior_draws(self, name):
        spec, empty, _, Q = self.problem(name)
        draws = sample_posterior(empty, Q, np.random.default_rng(61), n_draws=3)
        assert np.array_equal(draws, sample_prior_batch(spec, Q, 3, np.random.default_rng(61)))


BLOCK_NAMES = TestEmptyData.NAMES + ["sphere-noise"]


def block_problem(name, n):
    """A model conditioned on n observations, and 10 queries (the poles among them on
    the sphere), for the spec of ``name``."""
    spec = noise_spec(0.2) if name == "sphere-noise" else POSTERIOR_SPECS[name]
    model, Q = posterior_problem(spec, np.random.default_rng(62), n=max(n, 1), m=10)
    if spec.manifold == "sphere":
        Q[:2] = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
    return spec, condition(spec, Dataset.from_arrays(spec.manifold, model.X[:n],
                                                     model.dataset.values()[:n])), Q


def query_outputs(spec, model, Q):
    pred = predict(model, Q)
    return {"mean": pred.mean, "cov": pred.cov,
            "posterior": sample_posterior(model, Q, np.random.default_rng(63), n_draws=2),
            "batch": sample_prior_batch(spec, Q, 2, np.random.default_rng(64)),
            "at": sample_prior(spec, np.random.default_rng(65)).at(Q)}


class TestQueryBlocks:
    """predict, posterior draws and prior-draw evaluation run over blocks of points
    (``gp._QUERY_PAIRS`` query-data pairs, ``gp._DRAW_FLOATS`` floats of basis values);
    forced down to one point, or to three, which leaves a partial last block of the
    10 queries, the outputs equal the one-block outputs for the same seeds."""

    @pytest.mark.parametrize("name", BLOCK_NAMES)
    @pytest.mark.parametrize("n", [0, 6])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_blocked_outputs_equal_one_block(self, name, n, rows, monkeypatch):
        spec, model, Q = block_problem(name, n)
        whole = query_outputs(spec, model, Q)
        empty = query_outputs(spec, model, Q[:0])
        # the floats of one point's basis values that gp._draw_rows counts
        per_point = (7 * (spec.lmax + 1) ** 2 if spec.manifold == "sphere" else
                     2 * len(kernels._torus_lattice(spec.dim, spec.lambda_cap)[0]))
        monkeypatch.setattr(gp, "_QUERY_PAIRS", rows * max(n, 1))
        monkeypatch.setattr(gp, "_DRAW_FLOATS", rows * per_point)
        sizes = {"query": [], "draw": []}
        cross, values = gp.frame_blocks, gp._block_values

        def counted_cross(spec, Q, *rest):
            sizes["query"].append(len(Q))
            return cross(spec, Q, *rest)

        def counted_values(spec, coeffs, pts):
            sizes["draw"].append(len(pts))
            return values(spec, coeffs, pts)

        monkeypatch.setattr(gp, "frame_blocks", counted_cross)
        monkeypatch.setattr(gp, "_block_values", counted_values)
        blocked = query_outputs(spec, model, Q)
        assert max(sizes["query"]) == rows and min(sizes["query"]) == 1
        if spec.kind != NOISE:
            assert max(sizes["draw"]) == rows and min(sizes["draw"]) == 1
        scale = math.sqrt(sum(p.variance for _, p in spec.classes) or spec.noise_variance)
        for key, want in whole.items():
            assert blocked[key].shape == want.shape
            np.testing.assert_allclose(blocked[key], want, rtol=0, atol=1e-13 * scale,
                                       err_msg=key)
        for key, got in query_outputs(spec, model, Q[:0]).items():
            assert got.shape == empty[key].shape and 0 in got.shape


class TestQueryMemory:
    """tracemalloc peaks of the query-side calls: the output plus a stated multiple of
    their blocks, however many points are queried. Before, predict held the whole
    (2m x 2n) cross Gram and its triangular solve, and a draw the whole basis tables."""

    @staticmethod
    def peak(call, points):
        call(points[:3])   # fill the caches: Legendre maps, lattices
        tracemalloc.start()
        try:
            out = call(points)
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()

    # a query block's cross Gram, 4 floats a pair, which predict solves in place, is
    # held while the next block's is built, from frame_blocks' row blocks (as
    # TestFrameBlocksMemory bounds them at lmax 30)
    QUERY_BLOCK = 8 * (8 * gp._QUERY_PAIRS + kernels._BLOCK_PAIRS * (30 // 2 + 2 + 32))

    def test_predict(self):
        rng = np.random.default_rng(66)
        spec = KernelSpec(HODGE_CURL, MaternParams(1.5, 0.3, 1.0, 0.01))
        model = condition(spec, make_dataset(200, rng, spec=spec))
        Q = sample_sphere(4000, rng)
        peak, pred = self.peak(lambda q: predict(model, q), Q)
        # the output and the prior's diagonal blocks, O(m), besides one query block
        out = pred.mean.nbytes + pred.cov.nbytes + pred.frames.nbytes
        assert peak <= 4 * out + self.QUERY_BLOCK

    def test_sample_posterior(self):
        rng = np.random.default_rng(67)
        spec = KernelSpec(PROJECTED, MaternParams(1.5, 0.3, 1.0, 0.01))
        model = condition(spec, make_dataset(200, rng, spec=spec))
        Q = sample_sphere(2000, rng)
        peak, draws = self.peak(lambda q: sample_posterior(model, q, np.random.default_rng(0)), Q)
        # f at the m + n stacked points, one draw block, one query block
        assert peak <= 8 * draws.nbytes + 8 * gp._DRAW_FLOATS * 1.25 + self.QUERY_BLOCK

    def test_sphere_draw(self):
        rng = np.random.default_rng(68)
        draw = sample_prior(KernelSpec(HODGE_CURL, MaternParams(1.5, 0.3, 1.0), lmax=20), rng)
        Q = sample_sphere(4000, rng)
        peak, values = self.peak(draw.at, Q)
        # gp counts 7 (lmax + 1)^2 floats a point; the tables take ~1% more
        assert peak <= 2 * values.nbytes + 8 * gp._DRAW_FLOATS * 1.25

    def test_t3_draw(self):
        rng = np.random.default_rng(69)
        draw = sample_prior(KernelSpec(HODGE_FULL, MaternParams(1.5, 0.5, 1.0),
                                       manifold="torus", torus_dim=3, lambda_cap=400.0), rng)
        Q = rng.uniform(0, 2 * np.pi, (300, 3))
        peak, values = self.peak(draw.at, Q)
        # the 2F lattice features of a block, and the products cos and sin are taken of
        assert peak <= 2 * values.nbytes + 8 * gp._DRAW_FLOATS * 2.5

class TestDatasetManifold:
    """A dataset answers its own manifold and dimension, empty or not: an empty one from
    ``from_arrays`` keeps the manifold it was given and the width of its (0, k)
    coordinates. Before, every empty dataset was on the sphere, with (0, 3) arrays."""

    @pytest.mark.parametrize("manifold, k, dim", [("sphere", 3, 2), ("circle", 1, 1),
                                                  ("torus", 2, 2), ("torus", 3, 3)])
    def test_empty_from_arrays_keeps_its_manifold(self, manifold, k, dim):
        data = Dataset.from_arrays(manifold, np.zeros((0, k)), np.zeros((0, k)))
        assert (data.manifold, data.dim, len(data)) == (manifold, dim, 0)
        assert data.coords().shape == data.values().shape == (0, k)

    def test_the_constructor_without_points_gives_the_sphere(self):
        data = Dataset([], [])
        assert (data.manifold, data.dim) == ("sphere", 2)
        assert data.coords().shape == data.values().shape == (0, 3)

    @pytest.mark.parametrize("manifold, coords", [("torus", []), ("torus", np.zeros((0, 0))),
                                                  ("circle", np.zeros(0)),
                                                  ("circle", np.zeros((0, 2))),
                                                  ("sphere", np.zeros((0, 2))),
                                                  ("moebius", np.zeros((0, 2)))])
    def test_empty_coordinates_without_a_manifold_width_are_invalid(self, manifold, coords):
        with pytest.raises(InvalidInputError):
            Dataset.from_arrays(manifold, coords, coords)

    def test_a_nonempty_dataset_answers_its_points(self):
        rng = np.random.default_rng(62)
        t3 = Dataset.from_arrays("torus", rng.uniform(0, 6, (5, 3)), rng.standard_normal((5, 3)))
        assert (t3.manifold, t3.dim, t3.coords().shape, t3.values().shape) == ("torus", 3,
                                                                              (5, 3), (5, 3))
        assert fit(t3, NOISE).dim == 3
        sphere = make_dataset(4, rng)
        assert (sphere.manifold, sphere.dim, sphere.coords().shape) == ("sphere", 2, (4, 3))


class TestDatasetArrays:
    """A dataset is its checked coordinates and values, two read-only arrays it owns, and
    builds no point objects. Before, it kept a ManifoldPoint and a TangentVector per row and
    restacked them on every read, and ``from_arrays`` paired rows with zip, so row counts that
    differed were cut to the shorter."""

    @staticmethod
    def rows(name, n, rng):
        """(manifold, (n, k) coordinates, (n, D) tangent values) on the sphere, circle, T^2 or
        T^3; torus angles unreduced, negative ones among them."""
        if name == "sphere":
            X = sample_sphere(n, rng)
            return "sphere", X, np.einsum("nk,nka->na", rng.standard_normal((n, 2)), frames_at(X))
        d = {"circle": 1, "t2": 2, "t3": 3}[name]
        return ("circle" if d == 1 else "torus", rng.uniform(-7.0, 14.0, (n, d)),
                rng.standard_normal((n, d)))

    @pytest.mark.parametrize("name", ["sphere", "t2"])
    @pytest.mark.parametrize("n_coords, n_values", [(3, 5), (0, 4)])
    def test_row_counts_must_align(self, name, n_coords, n_values):
        manifold, X, V = self.rows(name, 5, np.random.default_rng(80))
        with pytest.raises(InvalidInputError, match="points and observations must align"):
            Dataset.from_arrays(manifold, X[:n_coords], V[:n_values])

    @pytest.mark.parametrize("name", ["sphere", "t2"])
    def test_rows_and_entries_that_are_not_points_are_invalid_input(self, name):
        # before, ragged or string rows in from_arrays and a string angle in ManifoldPoint gave
        # numpy's ValueError, and an entry that is not a point in the list form AttributeError
        manifold, X, V = self.rows(name, 3, np.random.default_rng(85))
        for bad in ([X[0].tolist(), X[1, :-1].tolist()], [["a"] * X.shape[1]] * 3):
            with pytest.raises(InvalidInputError, match="not ManifoldPoint or numeric rows"):
                Dataset.from_arrays(manifold, bad, V)
            with pytest.raises(InvalidInputError, match="not numeric rows"):
                Dataset.from_arrays(manifold, X, bad)
        with pytest.raises(InvalidInputError, match="not ManifoldPoint or numeric rows"):
            ManifoldPoint(manifold, ["a"] * X.shape[1])
        p = ManifoldPoint(manifold, X[0])
        v = TangentVector(p, V[0])
        with pytest.raises(InvalidInputError, match="not ManifoldPoint or numeric rows"):
            Dataset(["x"], [v])
        with pytest.raises(InvalidInputError, match="mix ManifoldPoint and coordinate rows"):
            Dataset([p, "x"], [v, v])

    @pytest.mark.parametrize("name", ["sphere", "t2"])
    def test_no_point_objects_are_built(self, name, monkeypatch, tmp_path):
        built = Counter()
        for cls in (ManifoldPoint, TangentVector):
            def counted(self, post_init=cls.__post_init__, cls_name=cls.__name__):
                built[cls_name] += 1
                post_init(self)
            monkeypatch.setattr(cls, "__post_init__", counted)
        manifold, X, V = self.rows(name, 200, np.random.default_rng(81))
        spec = SPEC if name == "sphere" else POSTERIOR_SPECS["t2-compositional"]
        data = Dataset.from_arrays(manifold, X, V)
        data.coords(), data.values()
        predict(condition(spec, data), X[:10])
        log_marginal_likelihood(spec, data)
        fit(data, NOISE)
        normalize_dataset(data)
        emit_csv(data, tmp_path / "data.csv")
        assert built == {}
        TangentVector(ManifoldPoint("sphere", [0.0, 0.0, 1.0]), [1.0, 0.0, 0.0])
        assert built == {"ManifoldPoint": 1, "TangentVector": 1}   # the count counts

    @pytest.mark.parametrize("name", ["sphere", "circle", "t2", "t3"])
    def test_both_constructors_give_the_same_dataset(self, name, tmp_path):
        manifold, X, V = self.rows(name, 12, np.random.default_rng(82))
        points = [ManifoldPoint(manifold, x) for x in X]
        listed = Dataset(points, [TangentVector(p, v) for p, v in zip(points, V)])
        arrays = Dataset.from_arrays(manifold, X, V)
        assert (listed.manifold, listed.dim, len(listed)) == (arrays.manifold, arrays.dim, 12)
        assert np.array_equal(listed.coords(), arrays.coords())
        assert np.array_equal(listed.values(), arrays.values())
        emit_csv(listed, tmp_path / "listed.csv")
        emit_csv(arrays, tmp_path / "arrays.csv")
        assert (tmp_path / "listed.csv").read_bytes() == (tmp_path / "arrays.csv").read_bytes()

    @pytest.mark.parametrize("name", ["sphere", "t2"])
    def test_arrays_are_read_only_and_the_callers_stay_writable(self, name):
        manifold, X, V = self.rows(name, 6, np.random.default_rng(83))
        data = Dataset.from_arrays(manifold, X, V)
        for own, read, given in ((data.coords(), data.coords, X), (data.values(), data.values, V)):
            assert read() is own   # no copy
            with pytest.raises(ValueError, match="read-only"):
                own[0, 0] = 0.5
            assert given.flags.writeable and not np.shares_memory(own, given)

    @pytest.mark.parametrize("name", ["sphere", "t2"])
    def test_points_and_observations_are_deprecated(self, name):
        manifold, X, V = self.rows(name, 5, np.random.default_rng(84))
        points = [ManifoldPoint(manifold, x) for x in X]
        observations = [TangentVector(p, v) for p, v in zip(points, V)]
        data = Dataset(points, observations)
        for _ in range(2):
            with pytest.warns(DeprecationWarning,
                              match=r"Dataset.points is deprecated; call Dataset.coords\(\)") as rec:
                read = data.points
            assert len(rec) == 1 and rec[0].filename == __file__
            assert [p.manifold for p in read] == [manifold] * 5
            assert np.array_equal([p.coords for p in read], [p.coords for p in points])
            with pytest.warns(DeprecationWarning, match=r"Dataset.observations is deprecated; "
                                                        r"call Dataset.values\(\)") as rec:
                read = data.observations
            assert len(rec) == 1 and rec[0].filename == __file__
            assert np.array_equal([v.components for v in read],
                                  [v.components for v in observations])
            assert np.array_equal([v.base.coords for v in read], [p.coords for p in points])


SPHERE_DRAW_SPECS = {name: POSTERIOR_SPECS["sphere-" + name]
                     for name in ("full", "div", "curl", "compositional", "projected")}
# both poles, where the azimuth is undefined, points a hair off them, and random points
SPHERE_DRAW_POINTS = np.vstack([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
                                [1e-9, 0.0, math.sqrt(1.0 - 1e-18)], [0.0, -1e-9, -1.0],
                                sample_sphere(6, np.random.default_rng(54))])


def explicit_sphere_expansion(spec, z, pts):
    """(n_draws, m, 3) prior draws with standard normal z, written out term by term.

    Hodge kinds: sum_n sqrt(w_n) z_n s_n(x) over the eigenfields, with the
    kernel's weights w = class_weights. Projected: A times three stacked
    scalar fields sum_lm sqrt(sigma^2 4 pi Phi_l / sum Phi) z_lm Y_lm,
    projected onto the tangent plane and scaled by 1 / sqrt(2).
    """
    sphere = sphere_spectrum(spec.lmax)
    if spec.kind != PROJECTED:
        return np.einsum("df,fma->dma", np.sqrt(class_weights(spec, sphere)) * z,
                         sphere.eigenfield_values(pts))
    w = kernels.phi(spec.params.nu, spec.params.kappa, sphere.scalar_eigenvalues(), 2)
    w = spec.params.variance * 4.0 * np.pi * w / w.sum()
    g = np.einsum("dfj,fm->dmj", np.sqrt(w)[:, None] * z, sphere.scalar_values(pts))
    g = g @ spec.coreg.T
    g -= np.einsum("dma,ma->dm", g, pts)[..., None] * pts
    return g / math.sqrt(2.0)


class TestSphereDrawExpansion:
    @pytest.mark.parametrize("name", list(SPHERE_DRAW_SPECS))
    def test_draws_equal_the_explicit_expansion(self, name):
        # z from an rng seeded as the draw's, drawn in the draw's order and
        # shape; bound 1e-12 of the field's largest component
        spec = SPHERE_DRAW_SPECS[name]
        sphere = sphere_spectrum(spec.lmax)
        shape = ((3, len(sphere.scalar), 3) if spec.kind == PROJECTED
                 else (3, len(sphere.entries)))
        z = np.random.default_rng(55).standard_normal(shape)
        expected = explicit_sphere_expansion(spec, z, SPHERE_DRAW_POINTS)
        empty = condition(spec, Dataset([], []))
        draws = {
            "sample_prior_batch": sample_prior_batch(spec, SPHERE_DRAW_POINTS, 3,
                                                     np.random.default_rng(55)),
            "sample_prior": sample_prior(spec, np.random.default_rng(55)).at(
                SPHERE_DRAW_POINTS)[None],
            "sample_posterior": sample_posterior(empty, SPHERE_DRAW_POINTS,
                                                 np.random.default_rng(55), n_draws=3),
        }
        scale = np.abs(expected).max()
        assert scale > 0.0
        for route, d in draws.items():
            assert np.abs(d - expected[:len(d)]).max() <= 1e-12 * scale, route

    @pytest.mark.parametrize("name", list(SPHERE_DRAW_SPECS))
    def test_draws_form_no_eigenfield_array(self, name, monkeypatch):
        # a Hodge draw forms no Y_lm table and a projected draw no gradient table
        spec = SPHERE_DRAW_SPECS[name]
        model, Q = posterior_problem(spec, np.random.default_rng(56))

        def refuse(*args, **kwargs):
            raise AssertionError("the draw formed a table it does not need")

        monkeypatch.setattr(spectrum.SphereSpectrum, "eigenfield_values", refuse)
        if spec.kind == PROJECTED:
            monkeypatch.setattr(spectrum, "_gradient_table", refuse)
        else:
            for module in (gp, spectrum):
                monkeypatch.setattr(module, "harmonic_values", refuse)
        rng = np.random.default_rng(57)
        assert np.isfinite(sample_posterior(model, Q, rng, n_draws=2)).all()
        assert np.isfinite(sample_prior(spec, rng).at(Q)).all()
        assert np.isfinite(sample_prior_batch(spec, Q, 2, rng)).all()

    @pytest.mark.parametrize("name", list(SPHERE_DRAW_SPECS))
    def test_draws_call_no_oracle_name(self, name, monkeypatch):
        # the draws weight their harmonics by the evaluators' level weights; the
        # eigenfield oracle, its weights and the spectrum object serve tests only
        spec = SPHERE_DRAW_SPECS[name]
        model, Q = posterior_problem(spec, np.random.default_rng(67))

        def refuse(*args, **kwargs):
            raise AssertionError("a draw called the eigenfield oracle or built a spectrum")

        for module, names in ((kernels, ("class_weights", "_class_parts", "normalization",
                                         "spectral_kernel_oracle", "sphere_spectrum")),
                              (gp, ("sphere_spectrum",)), (spectrum, ("sphere_spectrum",))):
            for attr in names:
                monkeypatch.setattr(module, attr, refuse)
        for cls in (spectrum.SphereSpectrum, spectrum.TorusSpectrum):
            monkeypatch.setattr(cls, "eigenfield_values", refuse)
        monkeypatch.setattr(spectrum.SphereSpectrum, "__init__", refuse)
        rng = np.random.default_rng(68)
        assert np.isfinite(sample_posterior(model, Q, rng, n_draws=2)).all()
        assert np.isfinite(sample_prior(spec, rng).at(Q)).all()
        assert np.isfinite(sample_prior_batch(spec, Q, 2, rng)).all()


SPECTRUM_FORM_SPECS = {
    **{"sphere-" + name: spec for name, spec in SPHERE_DRAW_SPECS.items()},
    "t2-curl": KernelSpec(HODGE_CURL, POSTERIOR_PARAMS, manifold="torus", lambda_cap=64.0),
    "t2-compositional": POSTERIOR_SPECS["t2-compositional"],
    "t3-full": POSTERIOR_SPECS["t3-full"],
    "noise": noise_spec(0.1),
}


def own_spectrum(spec):
    """The truncation the deprecated sampler forms check a spectrum against."""
    if spec.manifold == "sphere":
        return sphere_spectrum(spec.lmax)
    return torus_spectrum(spec.dim, spec.lambda_cap)


def draw_points(spec):
    if spec.manifold == "sphere":
        return SPHERE_DRAW_POINTS
    return np.random.default_rng(61).uniform(0, 2 * np.pi, size=(6, spec.dim))


class TestSpectrumFreeSamplers:
    """The samplers take the spec and an rng. A spectrum before the rng is a deprecated
    form of sample_prior only, which warns, checks the spectrum and draws the same field;
    PriorSample and sample_prior_batch no longer take one."""

    @pytest.mark.parametrize("name", list(SPECTRUM_FORM_SPECS))
    def test_deprecated_form_draws_the_same_values(self, name):
        spec = SPECTRUM_FORM_SPECS[name]
        own, pts = own_spectrum(spec), draw_points(spec)
        new = [sample_prior(spec, np.random.default_rng(62)).at(pts),
               gp.PriorSample(spec, np.random.default_rng(62)).at(pts),
               sample_prior_batch(spec, pts, 3, np.random.default_rng(62))]
        with pytest.warns(DeprecationWarning):
            old = sample_prior(spec, own, np.random.default_rng(62)).at(pts)
        for values in new[:2]:
            np.testing.assert_array_equal(old, values)
        assert spec.kind == NOISE or np.abs(new[2]).max() > 0.0

    def test_deprecated_form_warns_at_the_callers_line(self):
        spec = SPECTRUM_FORM_SPECS["sphere-curl"]
        own, rng = own_spectrum(spec), np.random.default_rng(63)
        with pytest.warns(DeprecationWarning) as record:
            sample_prior(spec, own, rng)
        assert len(record) == 1
        assert "call sample_prior(spec, rng)" in str(record[0].message)
        assert record[0].filename == __file__

    @pytest.mark.parametrize("name", ["sphere-curl", "t2-compositional"])
    def test_removed_forms_raise_type_error(self, name):
        spec = SPECTRUM_FORM_SPECS[name]
        own, pts, rng = own_spectrum(spec), draw_points(spec), np.random.default_rng(69)
        with pytest.raises(TypeError):
            gp.PriorSample(spec, own, rng)
        with pytest.raises(TypeError):
            sample_prior_batch(spec, own, pts, 2, rng)

    @pytest.mark.parametrize("name", list(SPECTRUM_FORM_SPECS))
    def test_a_draw_keeps_only_its_spec_and_coefficients(self, name):
        spec = SPECTRUM_FORM_SPECS[name]
        field = sample_prior(spec, np.random.default_rng(70))
        assert vars(field).keys() == {"spec", "_coeffs"}
        assert field.spec is spec and isinstance(field._coeffs, np.ndarray)

    def test_new_form_builds_no_torus_spectrum(self, monkeypatch):
        spec = KernelSpec(HODGE_CURL, POSTERIOR_PARAMS, manifold="torus", torus_dim=3,
                          lambda_cap=900.0)

        def refuse(*args, **kwargs):
            raise AssertionError("a TorusSpectrum was built")

        for module in (spectrum, kernels, gp):
            monkeypatch.setattr(module, "torus_spectrum", refuse, raising=False)
        monkeypatch.setattr(spectrum.TorusSpectrum, "__init__", refuse)
        pts = draw_points(spec)
        assert np.isfinite(sample_prior(spec, np.random.default_rng(64)).at(pts)).all()
        assert sample_prior_batch(spec, pts, 2, np.random.default_rng(64)).shape == (2, 6, 3)

    def test_callers_import_no_spectrum_builder(self):
        from hodgegp import cli, diagnostics
        for module in (cli, diagnostics):
            assert not hasattr(module, "sphere_spectrum")
            assert not hasattr(module, "torus_spectrum")
        assert not hasattr(sample_prior(SPEC, np.random.default_rng(65)), "spectrum")

    @pytest.mark.parametrize("name", ["t2-curl", "t2-compositional", "t3-full"])
    def test_torus_draws_factor_their_weights_once(self, name, monkeypatch):
        # before, every .at call factored the weights again, and later rebuilt the
        # lattice with every class's projectors, only to read N; now N is the
        # truncation's cached lattice, which neither a draw nor .at builds again
        spec, calls = SPECTRUM_FORM_SPECS[name], []
        factors = kernels.lattice_draw_factors
        a = factors(spec)
        n = kernels._torus_lattice(spec.dim, spec.lambda_cap)[0]
        monkeypatch.setattr(gp, "lattice_draw_factors", lambda s: calls.append(s) or factors(s))
        builds = kernels._torus_lattice.cache_info().misses
        pts = draw_points(spec)
        field = sample_prior(spec, np.random.default_rng(66))
        assert len(calls) == 1
        values = [field.at(pts), field(pts)]
        assert len(calls) == 1
        sample_prior_batch(spec, pts, 2, np.random.default_rng(66))
        assert len(calls) == 2
        assert kernels._torus_lattice.cache_info().misses == builds
        # the values are the features at N times the coefficients A_n z_n, bit for bit
        z = np.random.default_rng(66).standard_normal((1, 2, len(a), spec.dim))
        coeffs = np.einsum("fab,dcfb->dcfa", a, z).reshape(1, 2 * len(a), spec.dim)
        expected = np.einsum("mf,dfa->dma", kernels.lattice_features(pts, n), coeffs)[0]
        for v in values:
            np.testing.assert_array_equal(v, expected)


class TestSphereLevelZero:
    """At lmax 0 the sphere's Hodge classes are empty: Y_00 is constant and
    has no gradient. The Hodge kernels were all zero there, and fit returned
    an arbitrary kappa."""

    @pytest.mark.parametrize("kind", [HODGE_FULL, HODGE_DIV, HODGE_CURL, HODGE_COMPOSITIONAL])
    def test_hodge_kinds_raise(self, kind):
        spec = (compositional_spec(1.5, (0.4, 0.8), (0.7, 1.2), noise=0.2, lmax=0)
                if kind == HODGE_COMPOSITIONAL else KernelSpec(kind, POSTERIOR_PARAMS, lmax=0))
        ds = make_dataset(5, np.random.default_rng(58))
        X = ds.coords()
        calls = [lambda: kernel_matrix(spec, X), lambda: gp.gram(spec, X),
                 lambda: kernels.diagonal_frame_blocks(spec, X, frames_at(X)),
                 lambda: condition(spec, ds), lambda: log_marginal_likelihood(spec, ds),
                 lambda: fit(ds, kind, FitConfig(restarts=1), lmax=0),
                 lambda: kernels.normalization(spec),
                 lambda: kernels.normalization(spec, sphere_spectrum(0)),
                 lambda: kernels.class_weights(spec, sphere_spectrum(0)),
                 lambda: sample_prior(spec, np.random.default_rng(0))]
        for call in calls:
            with pytest.raises(InvalidInputError, match="empty eigenfield class"):
                call()

    @pytest.mark.parametrize("kind", [PROJECTED, NOISE])
    def test_projected_and_noise_kinds_work(self, kind):
        ds = make_dataset(6, np.random.default_rng(59), noise=1e-2)
        spec = fit(ds, kind, FitConfig(restarts=1), lmax=0)
        model = condition(spec, ds)
        X = ds.coords()
        assert np.isfinite(predict(model, X).mean).all()
        assert np.isfinite(sample_posterior(model, X, np.random.default_rng(60), n_draws=2)).all()


class TestTorusQueryValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_coordinate_arrays_must_be_finite(self, bad):
        # at the parent predict raised scipy's ValueError after RuntimeWarnings,
        # and a posterior draw at an infinite point returned without an error
        spec = KernelSpec(HODGE_CURL, MaternParams(0.5, 0.8, 1.0, 1e-4), manifold="torus",
                          lambda_cap=25.0)
        model, _ = posterior_problem(spec, np.random.default_rng(52))
        empty = condition(spec, Dataset([], []))
        rng = np.random.default_rng(53)
        Q = np.array([[0.3, 0.1], [bad, 0.0]])
        calls = [lambda: predict(model, Q), lambda: predict(empty, Q),
                 lambda: sample_posterior(model, Q, rng), lambda: sample_posterior(empty, Q, rng),
                 lambda: gp.gram(spec, Q), lambda: kernel_matrix(spec, Q),
                 lambda: sample_prior(spec, rng).at(Q),
                 lambda: sample_prior_batch(spec, Q, 2, rng)]
        for call in calls:
            with pytest.raises(InvalidInputError, match="finite"):
                call()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_dataset_rows_must_be_finite(self, bad):
        # before, a NaN angle was stored, and the dataset then failed with "observation
        # base point mismatch" (NaN != NaN)
        with pytest.raises(InvalidInputError, match="finite"):
            Dataset.from_arrays("torus", [[0.1, 0.2], [bad, 0.3]], [[1.0, 0.0], [0.0, 1.0]])


class TestTorusGP:
    def test_noiseless_interpolation_on_t2(self):
        rng = np.random.default_rng(31)
        spec = KernelSpec(HODGE_FULL, MaternParams(0.5, 0.8, 1.0, 0.0),
                          manifold="torus", lambda_cap=64.0)
        theta = rng.uniform(0, 2 * np.pi, size=(12, 2))
        field = sample_prior(spec, rng)
        ds = Dataset.from_arrays("torus", theta, field.at(theta))
        model = condition(spec, ds)
        pred = predict(model, theta)
        assert pred.frames is None
        assert np.abs(pred.mean - ds.values()).max() < 1e-6
        mse, pnll = metrics(pred.mean, pred.cov, ds.values(), 1e-6, pred.frames)
        assert mse < 1e-12
        held_out = rng.uniform(0, 2 * np.pi, size=(5, 2))
        pred_out = predict(model, held_out)
        assert pred_out.cov.shape == (5, 2, 2)

    def test_fit_smoke_on_t2(self):
        rng = np.random.default_rng(32)
        spec = KernelSpec(HODGE_CURL, MaternParams(0.5, 0.8, 1.0, 1e-4),
                          manifold="torus", lambda_cap=25.0)
        theta = rng.uniform(0, 2 * np.pi, size=(15, 2))
        field = sample_prior(spec, rng)
        ds = Dataset.from_arrays("torus", theta, field.at(theta))
        cfg = FitConfig(restarts=1, max_iter=40, seed=0)
        fitted = fit(ds, HODGE_CURL, cfg, nu=0.5, lambda_cap=25.0)
        assert fitted.manifold == "torus"
        assert np.isfinite(log_marginal_likelihood(fitted, ds))

    @pytest.mark.parametrize("kind", [HODGE_FULL, HODGE_CURL])
    @pytest.mark.parametrize("n_train", [0, 6])
    def test_zero_query_points_on_t2(self, kind, n_train):
        rng = np.random.default_rng(33)
        spec = KernelSpec(kind, MaternParams(0.5, 0.8, 1.0, 1e-4),
                          manifold="torus", lambda_cap=25.0)
        theta = rng.uniform(0, 2 * np.pi, size=(n_train, 2))
        ds = Dataset.from_arrays("torus", theta, rng.standard_normal((n_train, 2)))
        model = condition(spec, ds)
        pred = predict(model, np.zeros((0, 2)))
        assert pred.mean.shape == (0, 2)
        assert pred.cov.shape == (0, 2, 2)
        draws = sample_posterior(model, np.zeros((0, 2)), np.random.default_rng(0), n_draws=4)
        assert draws.shape == (4, 0, 2)

    @pytest.mark.parametrize("kind", [HODGE_FULL, HODGE_CURL])
    def test_empty_point_list_on_t2(self, kind):
        rng = np.random.default_rng(34)
        spec = KernelSpec(kind, MaternParams(0.5, 0.8, 1.0, 1e-4),
                          manifold="torus", lambda_cap=25.0)
        theta = rng.uniform(0, 2 * np.pi, size=(6, 2))
        model = condition(spec, Dataset.from_arrays("torus", theta,
                                                    rng.standard_normal((6, 2))))
        pred = predict(model, [])
        assert pred.mean.shape == (0, 2)
        assert pred.cov.shape == (0, 2, 2)
        assert sample_posterior(model, [], rng, n_draws=3).shape == (3, 0, 2)
        assert gp.gram(spec, []).shape == (0, 0)


class TestMetrics:
    def test_perfect_predictions(self):
        rng = np.random.default_rng(28)
        pts = sample_sphere(5, rng)
        frames = frames_at(pts)
        vals = np.einsum("nk,nka->na", rng.standard_normal((5, 2)), frames)
        covs = np.repeat(0.1 * np.eye(2)[None], 5, axis=0)
        mse, _ = metrics(vals, covs, vals, 0.01, frames)
        assert mse == 0.0

    def test_pure_noise_closed_form(self):
        rng = np.random.default_rng(29)
        pts = sample_sphere(50, rng)
        frames = frames_at(pts)
        truths = np.einsum("nk,nka->na", rng.standard_normal((50, 2)), frames)
        s = 0.4
        covs = np.zeros((50, 2, 2))
        mse, pnll = metrics(np.zeros_like(truths), covs, truths, s, frames)
        norms_sq = np.sum(truths ** 2, axis=1)
        assert mse == pytest.approx(float(norms_sq.mean()), rel=1e-12)
        expected = float(np.mean(0.5 * norms_sq / s + math.log(2 * math.pi * s)))
        assert pnll == pytest.approx(expected, rel=1e-12)

    def test_frame_invariance(self):
        rng = np.random.default_rng(30)
        pts = sample_sphere(8, rng)
        frames = frames_at(pts)
        means = np.einsum("nk,nka->na", rng.standard_normal((8, 2)), frames)
        truths = np.einsum("nk,nka->na", rng.standard_normal((8, 2)), frames)
        covs = np.repeat(0.2 * np.eye(2)[None], 8, axis=0)
        base = metrics(means, covs, truths, 0.05, frames)
        rotated = random_in_plane_rotations(frames, rng)
        # covariances re-expressed in the rotated frames
        angles_cov = covs  # isotropic, unchanged under rotation
        other = metrics(means, angles_cov, truths, 0.05, rotated)
        assert base[0] == pytest.approx(other[0], abs=1e-12)
        assert base[1] == pytest.approx(other[1], abs=1e-9)

    def test_sphere_residuals_need_their_frames(self):
        # before, numpy failed to broadcast the (4, 2, 2) blocks against a 3x3 identity
        pts = sample_sphere(4, np.random.default_rng(31))
        means, covs = np.zeros((4, 3)), np.repeat(0.1 * np.eye(2)[None], 4, axis=0)
        with pytest.raises(InvalidInputError, match="covariance blocks"):
            metrics(means, covs, means, 0.01)
        np.testing.assert_array_equal(metrics(means, covs, means, 0.01, frames_at(pts))[0], 0.0)

    @pytest.mark.parametrize("shape", [(3, 2, 3), (5, 2, 3), (4, 2, 2), (4, 6)])
    def test_one_frame_per_prediction(self, shape):
        # before, einsum failed on the mismatched frame count or ambient dimension
        frames = frames_at(sample_sphere(5, np.random.default_rng(32)))
        frames = frames[:shape[0], :, :shape[-1]].reshape(shape)
        means, covs = np.zeros((4, 3)), np.repeat(0.1 * np.eye(2)[None], 4, axis=0)
        with pytest.raises(InvalidInputError, match=re.escape(f"frames of shape {shape}")):
            metrics(means, covs, means, 0.01, frames)

    def test_zero_predictions_rejected(self):
        # unchecked, the mean of an empty slice warns and returns NaN
        with pytest.raises(InvalidInputError, match="at least one prediction"):
            metrics(np.zeros((0, 3)), np.zeros((0, 2, 2)), np.zeros((0, 3)), 0.1,
                    np.zeros((0, 2, 3)))
