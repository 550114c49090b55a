"""The hodgegp benchmark workloads: inputs, timed units, output checks.

Each workload fixes a base configuration drawn once from ``BASE_SEED``. The
run's ``--seed`` moves it by an isometry the kernels are invariant under: a
rotation about the polar axis on the sphere, a translation on the torus.
Every unit therefore sees fresh coordinates (no input repeats, so a cache
keyed on inputs cannot carry over between units or runs), while every seed
poses the same regression problem, so timings and quality figures compare
across seeds. See README.md for why each workload exists.

A unit is one dataset taken from raw inputs to checked outputs. ``run``
times it; ``finish`` scores and checks it afterwards, outside the timing.
"""

import contextlib
import io
import math
import os
import time

import numpy as np

from hodgegp import cli, diagnostics, gp, kernels, spectrum
from hodgegp.kernels import (HODGE_COMPOSITIONAL, HODGE_CURL, HODGE_FULL, NOISE, PROJECTED,
                             KernelSpec, MaternParams, compositional_spec)
from hodgegp.manifold import SPHERE, TORUS

BASE_SEED = 20231028
LMAX = 30
LAMBDA_CAP = 900.0


class UnitResult:
    """What one timed unit produced, and how many operations it attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.outputs = {}
        self.quality = {}      # heldout_mse, pnll_gain, lml_gain
        self.checks = []       # (name, ok, detail)


def _op(result, fn, *args, **kwargs):
    """One public call: counted as attempted, and as failed if it raises."""
    result.attempted += 1
    try:
        return fn(*args, **kwargs)
    except Exception as exc:   # a failed operation is reported, never fatal
        result.failed += 1
        result.checks.append((f"{getattr(fn, '__name__', 'call')} raised", False, repr(exc)))
        return None


def _sphere_points(rng, n):
    g = rng.standard_normal((n, 3))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _lonlat_grid(n_lat, n_lon):
    lat = np.deg2rad(np.linspace(-90.0, 90.0, n_lat))
    lon = np.deg2rad(np.linspace(0.0, 360.0, n_lon, endpoint=False))
    la, lo = np.meshgrid(lat, lon, indexing="ij")
    return np.stack([np.cos(la) * np.cos(lo), np.cos(la) * np.sin(lo), np.sin(la)],
                    axis=-1).reshape(-1, 3)


def _polar_rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _tangent_noise(rng, X, variance):
    """Isotropic tangent-plane noise with the given per-component variance."""
    g = rng.standard_normal(X.shape) * math.sqrt(variance)
    return g - np.sum(g * X, axis=1, keepdims=True) * X


def _geomean(values):
    return float(math.exp(np.mean(np.log(values))))


def _symmetric_psd(covs, scale):
    asym = float(np.abs(covs - covs.transpose(0, 2, 1)).max())
    low = float(np.linalg.eigvalsh(0.5 * (covs + covs.transpose(0, 2, 1))).min())
    return asym <= 1e-12 * scale and low >= -1e-10 * scale, \
        f"max asymmetry {asym:.1e}, min eigenvalue {low:.1e}"


# ---------------------------------------------------------------------------
# hemisphere-fit: the paper's rotation-field protocol through the CLI harness
# ---------------------------------------------------------------------------

class HemisphereFit:
    """30 northern training and 100 southern test points of (y, -x, 0), via CSV."""

    name = "hemisphere-fit"
    kernels = "div-free,curl-free,hodge,compositional,projected,noise".split(",")
    n_train, n_test = 30, 100

    def __init__(self, rec, workdir):
        self.rec = rec
        self.workdir = workdir
        self.torus_spectrum_s = 0.0
        self._units = 0
        spectrum.sphere_spectrum(LMAX)
        _sphere_warm_up()

    def generate(self):
        """Draw the base configuration; the seed only moves it."""
        base = np.random.default_rng(BASE_SEED)
        # uniform on a hemisphere: sin(latitude) is uniform on [0, 1]
        self.train_lonlat = (base.uniform(-180.0, 180.0, self.n_train),
                             np.rad2deg(np.arcsin(base.uniform(0.0, 1.0, self.n_train))))
        self.test_lonlat = (base.uniform(-180.0, 180.0, self.n_test),
                            -np.rad2deg(np.arcsin(base.uniform(0.0, 1.0, self.n_test))))

    def _write_csv(self, path, lonlat, shift):
        lon, lat = lonlat
        lon = (lon + shift + 180.0) % 360.0 - 180.0
        # the rotation field (y, -x, 0) has east component -cos(lat), north 0
        with open(path, "w") as fh:
            fh.write(",".join(cli.SPHERE_HEADER) + "\n")
            for lo, la in zip(lon.tolist(), lat.tolist()):
                fh.write(f"{lo!r},{la!r},{-math.cos(math.radians(la))!r},0.0\n")

    def prepare(self, rng):
        self._units += 1
        unit_dir = os.path.join(self.workdir, f"unit{self._units}")
        os.makedirs(unit_dir)
        shift = float(rng.uniform(0.0, 360.0))
        train = os.path.join(unit_dir, "train.csv")
        test = os.path.join(unit_dir, "test.csv")
        self._write_csv(train, self.train_lonlat, shift)
        self._write_csv(test, self.test_lonlat, shift)
        return cli.ExperimentConfig(out=os.path.join(unit_dir, "out"), kernels=self.kernels,
                                    nus=[0.5], seeds=[0], protocol="file", train=train,
                                    test=test, restarts=3, max_iter=200)

    def phases(self):
        """Rebind the harness's calls to fit and predict so they are timed."""
        self.rec.wrap(cli, "fit", "phase.fit")
        self.rec.wrap(cli, "predict", "phase.predict")

    def run(self, config):
        result = UnitResult()
        result.attempted += len(self.kernels)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                result.outputs["rows"] = cli.run_experiment(config)
        except Exception as exc:   # a raising sweep fails every cell
            result.failed += len(self.kernels)
            result.checks.append(("sweep raised", False, repr(exc)))
        return result

    def finish(self, config, result):
        rows = result.outputs.get("rows")
        if rows is None:
            return
        bad = [r[0] for r in rows if not (math.isfinite(float(r[3]))
                                          and math.isfinite(float(r[4])))]
        result.failed += len(bad)
        result.checks.append(("every cell finite", not bad, f"non-finite cells: {bad}"))
        by_kernel = {r[0]: r for r in rows}
        mse = {k: float(r[3]) for k, r in by_kernel.items()}
        ok = mse["div-free"] < mse["noise"]
        result.checks.append(("div-free beats noise on held-out MSE", ok,
                              f"div-free {mse['div-free']:.4f} vs noise {mse['noise']:.4f}"))
        if bad:
            return
        _, train = cli.normalize_dataset(cli.ingest_csv(config.train))
        lml = {k: gp.log_marginal_likelihood(_spec_from_row(r), train)
               for k, r in by_kernel.items()}
        fitted = [k for k in self.kernels if k != "noise"]
        n_obs = 2 * len(train)
        result.quality = {
            "heldout_mse": _geomean([mse[k] for k in fitted]),
            "pnll_gain": float(np.mean([float(by_kernel["noise"][4]) - float(by_kernel[k][4])
                                        for k in fitted])),
            "lml_gain": float(np.mean([lml[k] - lml["noise"] for k in fitted])) / n_obs,
        }


def _spec_from_row(row):
    """The fitted spec a results.csv row describes."""
    kind = cli.KERNEL_NAMES[row[0]]
    nu = float(row[1])
    noise = float(row[7])
    if kind == NOISE:
        return kernels.noise_spec(noise)
    if kind == HODGE_COMPOSITIONAL:
        return compositional_spec(nu, (float(row[8]), float(row[9])),
                                  (float(row[10]), float(row[11])), noise=noise)
    return KernelSpec(kind, MaternParams(nu, float(row[5]), float(row[6]), noise))


def _sphere_warm_up():
    """One LML, condition, predict and sample on points no unit uses."""
    rng = np.random.default_rng(BASE_SEED + 1)
    X = _sphere_points(rng, 6)
    data = gp.Dataset.from_arrays(SPHERE, X, _tangent_noise(rng, X, 1.0))
    spec = KernelSpec(HODGE_CURL, MaternParams(0.5, 0.5, 1.0, 0.1))
    gp.log_marginal_likelihood(spec, data)
    model = gp.condition(spec, data)
    gp.predict(model, X[:3] @ _polar_rotation(0.3).T)
    gp.sample_posterior(model, X[:3], rng)


# ---------------------------------------------------------------------------
# Fixed-hyperparameter workloads: LML profile, condition, predict, sample
# ---------------------------------------------------------------------------

class _ProfileWorkload:
    """Per kind: an LML profile over fixed kappas picks kappa (the fit), then
    condition, predict at the query points and draw samples."""

    kinds = ()
    kappas = ()
    noise = 0.01

    def __init__(self, rec):
        self.rec = rec

    def spec(self, kind, kappa):
        raise NotImplementedError

    def phases(self):
        pass   # the workload calls the library directly and times each phase

    def run(self, unit):
        result = UnitResult()
        rec = self.rec
        data, queries, sample_points, rng = (unit["data"], unit["queries"],
                                             unit["sample_points"], unit["rng"])
        for kind in self.kinds:
            out = result.outputs[kind] = {}
            with rec.span("phase.fit"):
                profile = [_op(result, gp.log_marginal_likelihood, self.spec(kind, k), data)
                           for k in self.kappas]
            if any(v is None for v in profile):
                continue
            best = self.spec(kind, self.kappas[int(np.argmax(profile))])
            out["spec"], out["lml"] = best, max(profile)
            model = _op(result, gp.condition, best, data)
            if model is None:
                continue
            with rec.span("phase.predict"):
                out["prediction"] = _op(result, gp.predict, model, queries)
            out["prior"] = _op(result, gp.sample_prior, best, self.spectrum, rng)
            if out["prior"] is not None:
                out["prior_values"] = _op(result, out["prior"].at, sample_points)
            out["posterior"] = self.sample_posterior(result, model, sample_points, rng)
        return result

    def sample_posterior(self, result, model, points, rng):
        return None

    def score(self, unit, result):
        """Held-out MSE, PNLL gain and LML gain against the noise baseline."""
        data, truth = unit["data"], unit["truth"]
        noise = gp.fit(data, NOISE)
        noise_pred = gp.predict(gp.condition(noise, data), unit["queries"])
        _, noise_pnll = gp.metrics(noise_pred.mean, noise_pred.cov, truth,
                                   noise.noise_variance, noise_pred.frames)
        noise_lml = gp.log_marginal_likelihood(noise, data)
        mse, pnll_gain, lml_gain = [], [], []
        for kind in self.kinds:
            out = result.outputs[kind]
            pred = out.get("prediction")
            if pred is None:
                return
            m, p = gp.metrics(pred.mean, pred.cov, truth, out["spec"].noise_variance,
                              pred.frames)
            mse.append(m)
            pnll_gain.append(noise_pnll - p)
            lml_gain.append(out["lml"] - noise_lml)
        result.quality = {"heldout_mse": _geomean(mse),
                          "pnll_gain": float(np.mean(pnll_gain)),
                          "lml_gain": float(np.mean(lml_gain)) / (2 * len(data))}

    def check_predictions(self, result):
        for kind in self.kinds:
            pred = result.outputs[kind].get("prediction")
            if pred is None:
                continue
            finite = bool(np.isfinite(pred.mean).all() and np.isfinite(pred.cov).all())
            ok, detail = _symmetric_psd(pred.cov, 1.0) if finite else (False, "non-finite")
            result.checks.append((f"{kind} predictive covariances symmetric PSD", ok, detail))


class SphereDense(_ProfileWorkload):
    """500 noisy observations of a frozen hodge-curl draw; few, huge calls."""

    name = "sphere-dense"
    kinds = (HODGE_CURL, HODGE_COMPOSITIONAL, PROJECTED)
    kappas = (0.2, 0.3, 0.45)
    n_train, n_sample, grid = 500, 400, (37, 72)
    generator = KernelSpec(HODGE_CURL, MaternParams(1.5, 0.3, 1.0))

    def __init__(self, rec, workdir):
        super().__init__(rec)
        self.torus_spectrum_s = 0.0
        self.spectrum = spectrum.sphere_spectrum(LMAX)
        _sphere_warm_up()

    def generate(self):
        """Draw the base configuration; the seed only moves it."""
        base = np.random.default_rng(BASE_SEED)
        self.X = _sphere_points(base, self.n_train)
        self.field = gp.sample_prior(self.generator, self.spectrum, base)
        self.Y = self.field.at(self.X) + _tangent_noise(base, self.X, self.noise)
        self.grid_points = _lonlat_grid(*self.grid)
        self.grid_truth = self.field.at(self.grid_points)
        self.S = _sphere_points(base, self.n_sample)

    def spec(self, kind, kappa):
        if kind == HODGE_COMPOSITIONAL:
            return compositional_spec(1.5, (kappa, 1.0), (kappa, 1.0), noise=self.noise)
        return KernelSpec(kind, MaternParams(1.5, kappa, 1.0, self.noise))

    def prepare(self, rng):
        r = _polar_rotation(float(rng.uniform(0.0, 2.0 * math.pi)))
        return {"data": gp.Dataset.from_arrays(SPHERE, self.X @ r.T, self.Y @ r.T),
                "queries": self.grid_points @ r.T, "truth": self.grid_truth @ r.T,
                "sample_points": self.S @ r.T,
                "rng": np.random.default_rng(rng.integers(2 ** 63))}

    def sample_posterior(self, result, model, points, rng):
        return _op(result, gp.sample_posterior, model, points, rng)

    def finish(self, unit, result):
        self.score(unit, result)
        self.check_predictions(result)
        subset = unit["data"].coords()[:20]
        for kind in (HODGE_CURL, HODGE_COMPOSITIONAL):
            spec = result.outputs[kind].get("spec")
            if spec is None:
                continue
            fast = kernels.kernel_matrix(spec, subset)
            oracle = kernels.spectral_kernel_oracle(
                kernels.class_weights(spec, self.spectrum), self.spectrum, subset, subset)
            gap = float(np.abs(fast - oracle).max())
            result.checks.append((f"{kind} kernel_matrix matches the eigenfield oracle",
                                  gap < 1e-8, f"max abs gap {gap:.1e}"))
        prior = result.outputs[HODGE_CURL].get("prior")
        if prior is not None:
            # divergence of a unit-variance div-class draw sets the scale
            scale = math.sqrt(2.0 * diagnostics.var_div_hodge_sphere(
                result.outputs[HODGE_CURL]["spec"].params, LMAX))
            div = max(abs(diagnostics.numeric_divergence(prior.at, x))
                      for x in unit["sample_points"][:5])
            result.checks.append(("hodge-curl prior draw is divergence-free",
                                  div < 1e-6 * scale,
                                  f"max |div| {div:.1e} vs div-class scale {scale:.1e}"))


class TorusGram(_ProfileWorkload):
    """40 points of a hodge-curl draw on T^2: the eigenfield oracle route."""

    name = "torus-gram"
    kinds = (HODGE_FULL, HODGE_CURL, HODGE_COMPOSITIONAL)
    kappas = (0.35, 0.5, 0.7)
    n_train, n_query = 40, 200
    generator = KernelSpec(HODGE_CURL, MaternParams(1.5, 0.5, 1.0), manifold=TORUS,
                           lambda_cap=LAMBDA_CAP)

    def __init__(self, rec, workdir):
        super().__init__(rec)
        t0 = time.perf_counter()
        self.spectrum = spectrum.torus_spectrum(2, LAMBDA_CAP)
        self.torus_spectrum_s = time.perf_counter() - t0
        self._warm_up()

    def generate(self):
        """Draw the base configuration; the seed only moves it."""
        base = np.random.default_rng(BASE_SEED)
        self.X = base.uniform(0.0, 2.0 * math.pi, (self.n_train, 2))
        self.Q = base.uniform(0.0, 2.0 * math.pi, (self.n_query, 2))
        self.field = gp.sample_prior(self.generator, self.spectrum, base)
        self.Y = self.field.at(self.X) + math.sqrt(self.noise) * base.standard_normal(
            (self.n_train, 2))
        self.truth = self.field.at(self.Q)

    def _warm_up(self):
        rng = np.random.default_rng(BASE_SEED + 1)
        X = rng.uniform(0.0, 2.0 * math.pi, (5, 2))
        data = gp.Dataset.from_arrays(TORUS, X, rng.standard_normal((5, 2)))
        for kind in (HODGE_FULL, HODGE_CURL):
            spec = self.spec(kind, 0.5)
            gp.log_marginal_likelihood(spec, data)
            gp.predict(gp.condition(spec, data), X[:2] + 0.1)

    def spec(self, kind, kappa):
        if kind == HODGE_COMPOSITIONAL:
            return compositional_spec(1.5, (kappa, 1.0), (kappa, 1.0), noise=self.noise,
                                      manifold=TORUS, lambda_cap=LAMBDA_CAP)
        return KernelSpec(kind, MaternParams(1.5, kappa, 1.0, self.noise), manifold=TORUS,
                          lambda_cap=LAMBDA_CAP)

    def prepare(self, rng):
        shift = rng.uniform(0.0, 2.0 * math.pi, 2)
        two_pi = 2.0 * math.pi
        return {"data": gp.Dataset.from_arrays(TORUS, (self.X + shift) % two_pi, self.Y),
                "queries": (self.Q + shift) % two_pi, "truth": self.truth,
                "sample_points": (self.Q + shift) % two_pi,
                "rng": np.random.default_rng(rng.integers(2 ** 63))}

    def finish(self, unit, result):
        self.score(unit, result)
        self.check_predictions(result)
        subset = unit["data"].coords()[:12]
        spec = self.spec(HODGE_FULL, self.kappas[1])
        fast = kernels.kernel_matrix(spec, subset)
        oracle = kernels.spectral_kernel_oracle(
            kernels.class_weights(spec, self.spectrum), self.spectrum, subset, subset)
        gap = float(np.abs(fast - oracle).max())
        result.checks.append(("hodge-full kernel_matrix matches the full-class oracle",
                              gap < 1e-8, f"max abs gap {gap:.1e}"))


WORKLOADS = {w.name: w for w in (HemisphereFit, SphereDense, TorusGram)}
