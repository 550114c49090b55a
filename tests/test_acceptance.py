"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as the criteria execute. Every tolerance is fixed here; the random seeds are
pinned so each criterion is deterministic.
"""

import math
import time

import numpy as np
import pytest

from hodgegp import gp
from hodgegp.cli import (ExperimentConfig, _build_cell_data, _scale_dataset, normalize_dataset,
                         run_experiment, synthetic_field)
from hodgegp.diagnostics import (divergence_stencil, limitation_demo, var_div_hodge_sphere,
                                 var_div_projected_sphere, divergence_variance_mc)
from hodgegp.gp import (Dataset, FitConfig, condition, fit, metrics, predict, sample_prior,
                        sample_prior_batch)
from hodgegp.kernels import (HODGE_COMPOSITIONAL, HODGE_CURL, HODGE_DIV, HODGE_FULL, PROJECTED,
                             SCALAR, KernelSpec, MaternParams, class_weights, compositional_spec,
                             kernel_matrix, scalar_kernel_matrix, spectral_kernel_oracle)
from hodgegp.manifold import ManifoldPoint, lonlat_to_point, sample_sphere
from hodgegp.spectrum import sphere_spectrum, torus_spectrum


def verdict(num, description, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {description} {detail}"


def geodesic_fan(angles, base=(0.3, -0.4, math.sqrt(0.75))):
    base = np.asarray(base)
    axis = np.array([1.0, 0.5, 0.2])
    axis /= np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    pts = []
    for a in angles:
        rot = np.eye(3) + math.sin(a) * k + (1 - math.cos(a)) * (k @ k)
        pts.append(rot @ base)
    pts = np.stack(pts)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def test_criterion_1_addition_theorem_matches_eigenfield_sums():
    rng = np.random.default_rng(101)
    x_pts = sample_sphere(20, rng)
    y_pts = sample_sphere(20, rng)
    params = MaternParams(0.5, 0.4, 1.0)
    spectrum = sphere_spectrum(12)
    kernel_matrix(KernelSpec(HODGE_DIV, params, lmax=12), x_pts[:2], y_pts[:2])
    spectrum.eigenfield_values(x_pts[:2])

    t0 = time.perf_counter()
    worst = 0.0
    ks = KernelSpec(SCALAR, params, lmax=12)
    fast_scalar = scalar_kernel_matrix(ks, x_pts, y_pts)
    vals_x = spectrum.scalar_values(x_pts)
    vals_y = spectrum.scalar_values(y_pts)
    from hodgegp.kernels import stable_phi_ratios
    w = stable_phi_ratios(params.nu, params.kappa, spectrum.scalar_eigenvalues(), 2)
    # sigma^2 * sum_f w_f Y_f(x) Y_f(y) / C with C = sum(w) / (4 pi)
    brute = (params.variance * 4 * np.pi / w.sum()
             * np.einsum("f,fn,fm->nm", w, vals_x, vals_y))
    worst = max(worst, float(np.abs(fast_scalar - brute).max()))
    for kind in (HODGE_DIV, HODGE_CURL, HODGE_FULL):
        spec = KernelSpec(kind, params, lmax=12)
        fast = kernel_matrix(spec, x_pts, y_pts)
        oracle = spectral_kernel_oracle(class_weights(spec, spectrum), spectrum, x_pts, y_pts)
        worst = max(worst, float(np.abs(fast - oracle).max()))
    elapsed = time.perf_counter() - t0
    verdict(1, "addition-theorem kernels match eigenfield sums at lmax=12",
            worst < 1e-8 and elapsed < 5.0,
            f"max abs err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_trace_normalization_everywhere():
    rng = np.random.default_rng(102)
    pts = sample_sphere(10, rng)
    idx = np.arange(10)
    worst = 0.0
    params = MaternParams(1.5, 0.35, 1.7)
    sphere_specs = [
        KernelSpec(HODGE_DIV, params, lmax=30),
        KernelSpec(HODGE_CURL, params, lmax=30),
        KernelSpec(HODGE_FULL, params, lmax=30),
        KernelSpec(PROJECTED, params, lmax=30),
        compositional_spec(0.5, (0.3, 0.9), (0.7, 0.8)),
    ]
    targets = [params.variance] * 4 + [1.7]
    for spec, target in zip(sphere_specs, targets):
        mats = kernel_matrix(spec, pts, pts)
        traces = np.trace(mats[idx, idx], axis1=-2, axis2=-1)
        worst = max(worst, float(np.abs(traces - target).max()))
    scalar_diag = np.diag(scalar_kernel_matrix(KernelSpec(SCALAR, params, lmax=30), pts, pts))
    worst = max(worst, float(np.abs(scalar_diag - params.variance).max()))

    th = rng.uniform(0, 2 * np.pi, size=(10, 2))
    torus_specs = [
        KernelSpec(HODGE_FULL, params, manifold="torus", lambda_cap=900.0),
        KernelSpec(HODGE_DIV, params, manifold="torus", lambda_cap=900.0),
        KernelSpec(HODGE_CURL, params, manifold="torus", lambda_cap=900.0),
        compositional_spec(0.5, (0.3, 0.9), (0.7, 0.8), harm_variance=0.3,
                           manifold="torus", lambda_cap=900.0),
    ]
    torus_targets = [params.variance] * 3 + [2.0]
    for spec, target in zip(torus_specs, torus_targets):
        mats = kernel_matrix(spec, th, th)
        traces = np.trace(mats[idx, idx], axis1=-2, axis2=-1)
        worst = max(worst, float(np.abs(traces - target).max()))
    verdict(2, "tr k(x, x) equals the variance for every kernel kind",
            worst < 1e-8, f"max abs err {worst:.2e}")


def test_criterion_3_sampling_reproduces_truncated_kernel():
    pts = geodesic_fan(np.deg2rad([0.0, 10.0, 20.0, 30.0, 40.0]))
    worst = 0.0
    for kind in (HODGE_FULL, HODGE_CURL):
        spec = KernelSpec(kind, MaternParams(0.5, 0.4, 1.0), lmax=12)
        exact = kernel_matrix(spec, pts, pts)
        draws = sample_prior_batch(spec, pts, 3000, np.random.default_rng(8))
        for j in range(5):
            mc = np.einsum("da,db->ab", draws[:, 0], draws[:, j]) / len(draws)
            rel = np.linalg.norm(mc - exact[0, j]) / np.linalg.norm(exact[0, j])
            worst = max(worst, float(rel))
    verdict(3, "Monte-Carlo covariance of 3000 prior draws matches the kernel",
            worst < 0.07, f"worst pair rel Frobenius {worst:.3f}")


def test_criterion_4_divergence_free_samples():
    spec = KernelSpec(HODGE_CURL, MaternParams(0.5, 0.4, 1.0), lmax=20)
    lats = np.linspace(-75.0, 75.0, 20)
    lons = np.linspace(0.0, 351.0, 40)
    grid = np.stack([lonlat_to_point(lon, lat).coords for lat in lats for lon in lons])
    stencils = [divergence_stencil(x, 1e-4) for x in grid]
    stencil_pts = np.concatenate([s[0] for s in stencils])
    worst_ratio = 0.0
    for seed in (5, 6):
        field = sample_prior(spec, np.random.default_rng(seed))
        values = field.at(stencil_pts).reshape(len(grid), 4, 3)
        divs = np.array([s[1](v) for s, v in zip(stencils, values)])
        rms = float(np.sqrt(np.mean(np.sum(field.at(grid) ** 2, axis=1))))
        worst_ratio = max(worst_ratio, float(np.abs(divs).max() / rms))
    verdict(4, "divergence-free samples have numerically vanishing divergence",
            worst_ratio < 1e-3, f"max |div| / field RMS {worst_ratio:.2e}")


def test_criterion_5_divergence_variance_formulas():
    x = np.array([math.sin(1.1) * math.cos(0.6), math.sin(1.1) * math.sin(0.6), math.cos(1.1)])
    params = MaternParams(0.5, 0.2, 1.0)
    gaps = {}
    for kind in (HODGE_FULL, PROJECTED):
        spec = KernelSpec(kind, params, lmax=20)
        rep = divergence_variance_mc(spec, x, 300, np.random.default_rng(21))
        gaps[kind] = rep.relative_gap
    # the fixed-length-scale projected runs (kappa 0.5 and 1.0) against the
    # typical fitted regime of the full Hodge kernel (kappa 0.1..0.3)
    ordering = all(
        var_div_projected_sphere(MaternParams(0.5, kp, 1.0), 30)
        < var_div_hodge_sphere(MaternParams(0.5, kh, 1.0), 30)
        for kp in (0.5, 1.0) for kh in (0.1, 0.15, 0.3))
    ok = max(gaps.values()) < 0.10 and ordering
    verdict(5, "divergence-variance formulas match Monte-Carlo; fitted-regime ordering",
            ok, f"MC gaps {gaps[HODGE_FULL]:.3f}/{gaps[PROJECTED]:.3f}, ordering {ordering}")


def test_criterion_6_projected_limitation_and_hodge_immunity():
    rep = limitation_demo(np.eye(3), 100.0)
    within = (abs(rep.norm_orthogonal - 1.0) < 0.01
              and abs(rep.norm_antipodal - math.sqrt(2.0)) < 0.01 * math.sqrt(2.0))
    ordered = rep.norm_orthogonal < rep.norm_antipodal
    spec = KernelSpec(HODGE_FULL, MaternParams(math.inf, 100.0, 1.0), lmax=30)
    h_ortho = np.linalg.norm(kernel_matrix(spec, rep.x[None], rep.x_prime[None])[0, 0])
    h_anti = np.linalg.norm(kernel_matrix(spec, rep.x[None], -rep.x[None])[0, 0])
    immune = h_ortho >= h_anti
    verdict(6, "projected kernel shows the antipodal inversion, the Hodge kernel does not",
            within and ordered and immune,
            f"norms {rep.norm_orthogonal:.4f}/{rep.norm_antipodal:.4f}, "
            f"hodge {h_ortho:.4f}>={h_anti:.4f}")


def test_criterion_7_rotation_field_experiment(tmp_path):
    t0 = time.time()
    cfg = ExperimentConfig(out=str(tmp_path / "rotation"),
                           kernels=["div-free", "curl-free", "noise"],
                           nus=[0.5, math.inf], seeds=list(range(10)),
                           train="30", test="100", lmax=30, restarts=3, max_iter=200,
                           grid=(5, 8))
    rows = run_experiment(cfg)
    elapsed = time.time() - t0
    means = {}
    for row in rows:
        means.setdefault((row[0], row[1]), []).append(float(row[3]))
    means = {k: float(np.mean(v)) for k, v in means.items()}
    test_norm = float(np.mean([
        np.mean(np.sum(_build_cell_data(cfg, seed)[1].values() ** 2, axis=1))
        for seed in range(10)]))
    div_ok = means[("div-free", "0.5")] < 0.05 and means[("div-free", "inf")] < 0.05
    noise_mse = means[("noise", "0.5")]
    noise_ok = abs(noise_mse - test_norm) < 0.15 * test_norm
    curl_ok = means[("curl-free", "0.5")] >= 0.95 * noise_mse
    verdict(7, "rotation-field experiment reproduces the inductive-bias table",
            div_ok and noise_ok and curl_ok and elapsed < 300.0,
            f"div-free {means[('div-free', '0.5')]:.3f}/{means[('div-free', 'inf')]:.2e}, "
            f"noise {noise_mse:.3f} vs mean|y|^2 {test_norm:.3f}, "
            f"curl-free {means[('curl-free', '0.5')]:.3f}, {elapsed:.0f}s")


def _diagonal_experiment(gen_kind, gen_kappa, seeds):
    kinds = [HODGE_DIV, HODGE_CURL, HODGE_FULL, PROJECTED]
    table = {k: [] for k in kinds}
    for seed in seeds:
        rng = np.random.default_rng([seed, 555])
        tr_pts = [ManifoldPoint("sphere", v) for v in sample_sphere(40, rng)]
        te_pts = [ManifoldPoint("sphere", v) for v in sample_sphere(100, rng)]
        samp = KernelSpec(gen_kind, MaternParams(0.5, gen_kappa, 1.0, 0.0), lmax=30)
        train = synthetic_field("kernel-sample", tr_pts, spec=samp, seed=[seed, 777])
        test = synthetic_field("kernel-sample", te_pts, spec=samp, seed=[seed, 777])
        s, train = normalize_dataset(train)
        test = _scale_dataset(test, s)
        for ki, kind in enumerate(kinds):
            cfg = FitConfig(restarts=3, max_iter=200, seed=[seed, ki, 4242])
            spec = fit(train, kind, cfg, nu=0.5)
            model = condition(spec, train)
            pred = predict(model, test.coords())
            mse, _ = metrics(pred.mean, pred.cov, test.values(), spec.noise_variance,
                             pred.frames)
            table[kind].append(mse)
    return {k: float(np.mean(v)) for k, v in table.items()}


def test_criterion_8_matching_kernel_diagonal():
    seeds = list(range(10))
    div_means = _diagonal_experiment(HODGE_DIV, 0.5, seeds)
    proj_means = _diagonal_experiment(PROJECTED, 2.0, seeds)
    div_ok = all(div_means[HODGE_DIV] <= div_means[k] for k in div_means)
    proj_ok = all(proj_means[PROJECTED] <= proj_means[k] for k in proj_means)
    verdict(8, "the generating kernel wins its own column in mean MSE",
            div_ok and proj_ok,
            "div data " + "/".join(f"{div_means[k]:.3f}" for k in div_means)
            + ", proj data " + "/".join(f"{proj_means[k]:.3f}" for k in proj_means))


def test_criterion_9_compositional_recovers_divergence_free_bias():
    ratios, comp_mses, curl_mses = [], [], []
    for seed in range(10):
        rng = np.random.default_rng([seed, 99])
        from hodgegp.cli import _hemisphere_split
        tr_pts, te_pts = _hemisphere_split(30, 100, rng)
        samp = KernelSpec(HODGE_CURL, MaternParams(0.5, 0.5, 1.0, 0.0), lmax=30)
        train = synthetic_field("kernel-sample", tr_pts, spec=samp, seed=[seed, 7])
        test = synthetic_field("kernel-sample", te_pts, spec=samp, seed=[seed, 7])
        s, train = normalize_dataset(train)
        test = _scale_dataset(test, s)
        cfg = FitConfig(restarts=3, max_iter=200, seed=[seed, 1])
        comp = fit(train, HODGE_COMPOSITIONAL, cfg, nu=0.5)
        curl = fit(train, HODGE_CURL, cfg, nu=0.5)
        ratios.append(comp.parts["div"].variance / comp.parts["curl"].variance)
        for spec, sink in ((comp, comp_mses), (curl, curl_mses)):
            model = condition(spec, train)
            pred = predict(model, test.coords())
            sink.append(metrics(pred.mean, pred.cov, test.values(), spec.noise_variance,
                                pred.frames)[0])
    ratio_med = float(np.median(ratios))
    mse_comp = float(np.mean(comp_mses))
    mse_curl = float(np.mean(curl_mses))
    verdict(9, "compositional fit puts its weight on the divergence-free part",
            ratio_med < 0.05 and mse_comp <= 1.05 * mse_curl,
            f"median variance ratio {ratio_med:.2e}, MSE {mse_comp:.4f} vs {mse_curl:.4f}")


def test_criterion_10_embedding_and_frame_routes_agree():
    rng = np.random.default_rng(110)
    spec = KernelSpec(HODGE_FULL, MaternParams(0.5, 0.5, 1.0, 1e-3), lmax=20)
    pts = sample_sphere(15, rng)
    field = sample_prior(spec, np.random.default_rng(111))
    values = field.at(pts)
    ds = Dataset.from_arrays("sphere", pts, values)
    queries = sample_sphere(25, rng)

    pred = predict(condition(spec, ds), queries)

    # the ambient route is the eigenfield oracle, independent of the frame blocks
    spectrum = sphere_spectrum(20)
    weights = class_weights(spec, spectrum)
    k_amb = spectral_kernel_oracle(weights, spectrum, pts, pts)
    k_amb = k_amb.transpose(0, 2, 1, 3).reshape(45, 45)
    k_amb[np.diag_indices_from(k_amb)] += spec.noise_variance
    alpha = np.linalg.solve(k_amb, values.reshape(-1))
    cross = spectral_kernel_oracle(weights, spectrum, queries, pts)
    cross = cross.transpose(0, 2, 1, 3).reshape(75, 45)
    mean_amb = (cross @ alpha).reshape(25, 3)

    gap = float(np.abs(mean_amb - pred.mean).max())
    verdict(10, "ambient and frame-coordinate posterior means agree",
            gap < 1e-6, f"max abs gap {gap:.2e}")


def test_criterion_11_torus_identity():
    rng = np.random.default_rng(112)
    th_a = rng.uniform(0, 2 * np.pi, size=(6, 2))
    th_b = rng.uniform(0, 2 * np.pi, size=(6, 2))
    params = MaternParams(0.5, 0.6, 1.4)
    spec = KernelSpec(HODGE_FULL, params, manifold="torus", lambda_cap=900.0)
    full = kernel_matrix(spec, th_a, th_b)
    scalar = scalar_kernel_matrix(KernelSpec(SCALAR, params, manifold="torus",
                                             lambda_cap=900.0), th_a, th_b)
    identity_gap = float(np.abs(full - 0.5 * scalar[:, :, None, None] * np.eye(2)).max())
    spectrum = torus_spectrum(2, 900.0)
    oracle = spectral_kernel_oracle(class_weights(spec, spectrum), spectrum, th_a, th_b)
    oracle_gap = float(np.abs(full - oracle).max())
    verdict(11, "T^2 Hodge-Matern kernel is (1/2) scalar kernel times identity",
            identity_gap < 1e-8 and oracle_gap < 1e-8,
            f"identity gap {identity_gap:.2e}, oracle gap {oracle_gap:.2e}")
