"""Vector Gaussian process regression in tangent frames.

Gram matrices are the frame blocks of ``kernels.frame_blocks`` in per-point
orthonormal tangent frames, full-rank 2x2 blocks on the sphere (d x d
global-frame blocks on tori); this module evaluates no kernel itself.
Conditioning is exact via Cholesky with a documented jitter-escalation
fallback. A prior draw is fixed by its spec and an rng, in the kernel's own
basis: the sphere's truncated eigenfield expansion, one matrix product with
the grad Y_lm table (Y_lm when projected), and the torus kernel's half
lattice. Posterior draws are prior draws moved by Matheron's rule through
the conditioned model's Cholesky factor, with no factorization of their own.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.optimize import minimize

from ._accel import single_threaded_numpy_blas
from .errors import InvalidInputError, NumericalError, warn_deprecated
from .kernels import (HODGE_COMPOSITIONAL, HODGE_CURL, HODGE_DIV, HODGE_FULL, NOISE, PROJECTED,
                      GramTables, KernelSpec, MaternParams, _torus_lattice, check_torus_points,
                      class_weights, compositional_spec, diagonal_frame_blocks, frame_blocks,
                      lattice_draw_factors, lattice_features, noise_spec, stable_phi_ratios)
# Not called here: gp evaluates no kernel itself. benchmark/run.py traces these
# names in gp as well as in kernels, so they stay importable from this module.
from .kernels import hodge_pair_sums, kernel_matrix, scalar_pair_sums  # noqa: F401
from .manifold import (SPHERE, ManifoldPoint, TangentVector, check_sphere_points, frames_at,
                       points_array)
from .spectrum import CURL, DIV, SphereSpectrum, TorusSpectrum, sphere_spectrum


@dataclass
class Dataset:
    """Aligned manifold points and tangent observations.

    ``scale`` records the factor applied to the raw observations when the
    dataset was normalized (1.0 when untouched).
    """

    points: list
    observations: list
    scale: float = 1.0

    def __post_init__(self):
        if len(self.points) != len(self.observations):
            raise InvalidInputError("points and observations must align")
        for p, v in zip(self.points, self.observations):
            if not isinstance(v, TangentVector):
                raise InvalidInputError("observations must be tangent vectors")
            if v.base.manifold != p.manifold or not np.array_equal(v.base.coords, p.coords):
                raise InvalidInputError("observation base point mismatch")

    def __len__(self):
        return len(self.points)

    @property
    def manifold(self):
        return self.points[0].manifold if self.points else SPHERE

    def coords(self):
        return points_array(self.points)

    def values(self):
        if not self.observations:
            return np.zeros((0, 3))
        return np.stack([v.components for v in self.observations])

    @classmethod
    def from_arrays(cls, manifold, coords, values, scale=1.0):
        pts = [ManifoldPoint(manifold, c) for c in np.asarray(coords, dtype=np.float64)]
        obs = [TangentVector(p, v) for p, v in zip(pts, np.asarray(values, dtype=np.float64))]
        return cls(pts, obs, scale=scale)


# ---------------------------------------------------------------------------
# Frame-coordinate Gram assembly
# ---------------------------------------------------------------------------

def _coords(spec, points):
    """(m, k) coordinates of a list of ManifoldPoint or of a coordinate array.

    A coordinate array must hold finite rows, of unit norm on the sphere and
    of spec's dimension on tori (InvalidInputError).
    """
    if isinstance(points, list):
        return points_array(points) if points else np.zeros((0, spec.ambient_dim))
    X = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if spec.manifold == SPHERE:
        check_sphere_points(X)
    else:
        check_torus_points(spec, X)
    return X


def _frames(manifold, X):
    """Tangent frames at X: east/north on the sphere, None (the global frame) on tori."""
    return frames_at(X) if manifold == SPHERE else None


def _blocks_to_matrix(blocks):
    n, m, d, _ = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(n * d, m * d)


def gram(spec, points, frames=None):
    """Gram matrix in frame coordinates: block (i, j) = B_i^T k(x_i, x_j) B_j.

    ``points`` is a list of ManifoldPoint or a coordinate array; sphere
    frames default to the deterministic east/north frames.
    """
    X = _coords(spec, points)
    if frames is None:
        frames = _frames(spec.manifold, X)
    return _blocks_to_matrix(frame_blocks(spec, X, frames, X, frames))


def _chol_with_jitter(mat, scale):
    """Lower Cholesky factor with escalating diagonal jitter.

    Starts at 1e-10 * scale and multiplies by 10 up to 1e-4 * scale; raises
    NumericalError with diagnostics if the matrix is still not positive
    definite. Returns (factor, jitter_used).
    """
    try:
        return cholesky(mat, lower=True), 0.0
    except np.linalg.LinAlgError:
        pass
    jitter = 1e-10 * scale
    while jitter <= 1e-4 * scale:
        try:
            return cholesky(mat + jitter * np.eye(mat.shape[0]), lower=True), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    eigs = np.linalg.eigvalsh(mat)
    raise NumericalError(
        f"matrix not positive definite after jitter up to {1e-4 * scale:.3e}; "
        f"eigenvalue range [{eigs.min():.3e}, {eigs.max():.3e}]")


class PosteriorModel:
    """Conditioned GP state: training data, Gram factor, solved coefficients."""

    def __init__(self, spec, dataset, frames, chol, alpha, y_frame, jitter):
        self.spec = spec
        self.dataset = dataset
        self.frames = frames
        self.chol = chol
        self.alpha = alpha
        self.y_frame = y_frame
        self.jitter = jitter


def _frame_components(values, frames):
    """Frame components of (..., n, 3) ambient values; tori (frames None) keep theirs."""
    if frames is None:
        return np.asarray(values)
    return np.einsum("nka,...na->...nk", frames, values)


def _observations(manifold, dataset):
    """Coordinates, frames (sphere only) and flattened frame observations."""
    X = dataset.coords()
    frames = _frames(manifold, X)
    return X, frames, _frame_components(dataset.values(), frames).reshape(-1)


def _factor(spec, k, y):
    """(chol, alpha, jitter) of the Gram k plus noise (added in place) against y."""
    k[np.diag_indices_from(k)] += spec.noise_variance
    # the jitter scales with the prior variance; the noise kind's is 1
    chol, jitter = _chol_with_jitter(k, sum(p.variance for _, p in spec.classes) or 1.0)
    return chol, cho_solve((chol, True), y), jitter


def _log_evidence(y, chol, alpha):
    """Gaussian log evidence of y from the Cholesky factor of its covariance and alpha = K^-1 y."""
    return float(-0.5 * y @ alpha
                 - np.log(np.diag(chol)).sum()
                 - 0.5 * y.shape[0] * math.log(2.0 * math.pi))


@single_threaded_numpy_blas
def condition(spec, dataset) -> PosteriorModel:
    """Condition the GP prior on a dataset.

    Factors K + sigma_eps^2 I in frame coordinates. When the bare
    factorization fails (typical for sigma_eps^2 = 0, where truncated
    spectral Gram matrices are barely positive definite) a diagonal jitter is
    added, escalating from 1e-10 * sigma^2 by factors of 10 up to
    1e-4 * sigma^2 before raising NumericalError.
    """
    if len(dataset) == 0:
        return PosteriorModel(spec, dataset, None, np.zeros((0, 0)), np.zeros(0),
                              np.zeros(0), 0.0)
    X, frames, y = _observations(spec.manifold, dataset)
    chol, alpha, jitter = _factor(spec, gram(spec, X, frames), y)
    return PosteriorModel(spec, dataset, frames, chol, alpha, y, jitter)


@dataclass
class Prediction:
    """Posterior mean (ambient components) and marginal covariance per query.

    Covariances are 2x2 in the query frames on the sphere and d x d in the
    global frame on tori.
    """

    mean: np.ndarray
    cov: np.ndarray
    frames: np.ndarray


@single_threaded_numpy_blas
def predict(model, points) -> Prediction:
    """Exact GP posterior mean and per-point marginal covariance."""
    spec = model.spec
    Q = _coords(spec, points)
    BQ = _frames(spec.manifold, Q)
    prior = diagonal_frame_blocks(spec, Q, BQ)
    m, d = prior.shape[:2]
    if len(model.dataset) == 0:
        mean_f = np.zeros((m, d))
    else:
        X = model.dataset.coords()
        cross = _blocks_to_matrix(frame_blocks(spec, Q, BQ, X, model.frames))
        mean_f = (cross @ model.alpha).reshape(m, d)
        r = solve_triangular(model.chol, cross.T, lower=True)
        r = r.reshape(r.shape[0], m, d)
        prior = prior - np.einsum("nmk,nml->mkl", r, r)
    cov = 0.5 * (prior + prior.transpose(0, 2, 1))
    mean = mean_f if BQ is None else np.einsum("mk,mka->ma", mean_f, BQ)
    return Prediction(mean=mean, cov=cov, frames=BQ)


@single_threaded_numpy_blas
def log_marginal_likelihood(spec, dataset):
    """Gaussian log evidence of the dataset under the spec, frame coordinates."""
    if len(dataset) == 0:
        raise InvalidInputError("log marginal likelihood needs a nonempty dataset")
    X, frames, y = _observations(spec.manifold, dataset)
    chol, alpha, _ = _factor(spec, gram(spec, X, frames), y)
    return _log_evidence(y, chol, alpha)


# ---------------------------------------------------------------------------
# Hyperparameter fitting
# ---------------------------------------------------------------------------

@dataclass
class FitConfig:
    """Optimizer settings for marginal-likelihood fitting.

    Parameters are optimized in natural-log space within the given bounds by
    L-BFGS-B on the exact gradient of the log marginal likelihood, restarted
    from ``restarts`` seeded initial points. ``max_iter`` caps the iterations
    of each restart, and ``tol`` is the projected-gradient tolerance at which
    one stops. ``fixed_kappa`` freezes the length scale(s).
    """

    restarts: int = 5
    max_iter: int = 250
    tol: float = 1e-6
    seed: int = 0
    log_kappa_bounds: tuple = (math.log(0.01), math.log(10.0))
    log_variance_bounds: tuple = (-6.0, 6.0)
    log_noise_bounds: tuple = (-10.0, 2.0)
    fixed_kappa: float = None

    def __post_init__(self):
        if self.restarts < 1:
            raise InvalidInputError("at least one restart is required")
        if self.max_iter < 1:
            raise InvalidInputError("at least one optimizer iteration is required")


def _spec_builder(kind, nu, manifold, lmax, lambda_cap, torus_dim, config):
    """Returns (names, bounds, build) mapping a log-parameter vector to a spec.

    The names are log_kappa and log_variance per class (suffixed _div and
    _curl for the compositional kind; log_kappa dropped when
    ``config.fixed_kappa`` freezes it), then log_noise.
    """
    if kind not in (HODGE_FULL, HODGE_DIV, HODGE_CURL, PROJECTED, HODGE_COMPOSITIONAL):
        raise InvalidInputError(f"cannot fit kernel kind {kind!r}")
    fixed = config.fixed_kappa
    suffixes = (f"_{DIV}", f"_{CURL}") if kind == HODGE_COMPOSITIONAL else ("",)
    per_class = ("log_variance",) if fixed is not None else ("log_kappa", "log_variance")
    names = [name + suffix for suffix in suffixes for name in per_class] + ["log_noise"]
    bounds = [config.log_kappa_bounds if name.startswith("log_kappa")
              else config.log_variance_bounds if name.startswith("log_variance")
              else config.log_noise_bounds for name in names]

    def build(th):
        value = {name: math.exp(t) for name, t in zip(names, th)}
        pairs = [(value.get("log_kappa" + suffix, fixed), value["log_variance" + suffix])
                 for suffix in suffixes]
        common = dict(manifold=manifold, lmax=lmax, lambda_cap=lambda_cap, torus_dim=torus_dim)
        if kind == HODGE_COMPOSITIONAL:
            return compositional_spec(nu, *pairs, noise=value["log_noise"], **common)
        return KernelSpec(kind, MaternParams(nu, *pairs[0], value["log_noise"]), **common)

    return names, bounds, build


def _objective(dataset, names, build, theta0):
    """fit's objective: theta -> (-LML, -dLML/dtheta) of build(theta), (1e30, 0) where it fails.

    ``names`` are the log-parameters theta holds, as ``_spec_builder`` names them;
    the per-part kernel derivatives come in ``spec.classes`` order and are named
    here, so no other module knows the names. The frames, frame
    observations and ``GramTables`` of the points are built once, for the kind
    of build(theta0), and live as long as the objective; each evaluation only
    weights the tables and factors the Gram. With W = alpha alpha^T - K^-1,
    dLML/dtheta = tr(W dK/dtheta) / 2 (Rasmussen & Williams 2006, eq. 5.9): the
    kernel derivatives come with the blocks, and dK/dlog noise = noise I.
    """
    spec = build(theta0)
    X, frames, y = _observations(spec.manifold, dataset)
    tables = GramTables(spec, X, frames)

    def objective(theta):
        try:
            spec = build(theta)
            blocks, parts = tables.blocks_and_derivatives(spec)
            derivatives = {}
            for (cls, _), pair in zip(spec.classes, parts):
                suffix = f"_{cls}" if spec.kind == HODGE_COMPOSITIONAL else ""
                derivatives.update(zip(("log_variance" + suffix, "log_kappa" + suffix), pair))
            chol, alpha, _ = _factor(spec, _blocks_to_matrix(blocks), y)
            w = np.outer(alpha, alpha) - cho_solve((chol, True), np.eye(len(y)))
            # einsum, not np.vdot: vdot is BLAS ddot, whose summation order (and
            # so the gradient's last bits, and the optimizer's path) depends on
            # the BLAS build and its thread count; einsum's does not
            grad = [spec.noise_variance * np.trace(w) if name == "log_noise"
                    else np.einsum("ij,ij->", w, _blocks_to_matrix(derivatives[name]))
                    for name in names]
            return -_log_evidence(y, chol, alpha), -0.5 * np.array(grad)
        except (NumericalError, FloatingPointError):
            return 1e30, np.zeros(len(names))

    return objective


@single_threaded_numpy_blas
def fit(dataset, kind, config=None, nu=0.5, lmax=30, lambda_cap=900.0) -> KernelSpec:
    """Fit kernel hyperparameters by maximizing the marginal log-likelihood.

    Runs bounded L-BFGS-B in log-parameter space on the exact gradient of the
    log evidence, from ``config.restarts`` seeded starting points, and keeps
    the best optimum (ties broken by the lowest restart index). Deterministic
    given ``config.seed``. The pure-noise kernel skips the search: sigma_eps^2
    is the mean squared frame component, floored at the lower noise bound.

    Each evaluation gives the log evidence ``log_marginal_likelihood`` gives
    and its gradient, from ``GramTables`` built once per call, so it only
    weights the tables, assembles the Gram and its derivatives and factors
    the Gram. On the sphere the tables hold the half-height Legendre table
    (lmax // 2 + 2 rows) and nine pair planes at the ~n^2 / 2 pairs on and
    below the Gram's diagonal (``tracemalloc``: 26.8 MB at n = 500, lmax = 30,
    of which the table is 17.5 MB), contracted without a copy; on tori the
    lattice features, 2F n floats for F half-lattice frequencies.
    """
    if len(dataset) == 0:
        raise InvalidInputError("cannot fit an empty dataset")
    config = config or FitConfig()
    manifold = dataset.manifold
    torus_dim = dataset.points[0].dim if manifold != SPHERE else 2

    if kind == NOISE:
        _, _, y = _observations(manifold, dataset)
        noise = max(float(np.mean(y ** 2)), math.exp(config.log_noise_bounds[0]))
        return noise_spec(noise, manifold=manifold, torus_dim=torus_dim)

    names, bounds, build = _spec_builder(kind, nu, manifold, lmax, lambda_cap,
                                         torus_dim, config)
    mean_sq = float(np.mean(np.sum(dataset.values() ** 2, axis=1)))

    def center_start():
        start = []
        for name, (lo, hi) in zip(names, bounds):
            if name.startswith("log_kappa"):
                start.append(math.log(0.5))
            elif name.startswith("log_variance"):
                start.append(np.clip(math.log(max(mean_sq, 1e-8)), lo, hi))
            else:
                start.append(np.clip(math.log(max(0.01 * mean_sq, 1e-8)), lo, hi))
        return np.array(start)

    objective = _objective(dataset, names, build, center_start())
    rng = np.random.default_rng(config.seed)
    best = None
    for restart in range(config.restarts):
        if restart == 0:
            x0 = center_start()
        else:
            x0 = np.array([rng.uniform(lo, hi) for lo, hi in bounds])
        res = minimize(objective, x0, method="L-BFGS-B", jac=True, bounds=bounds,
                       options={"maxiter": config.max_iter, "gtol": config.tol})
        value = res.fun if np.isfinite(res.fun) else 1e30
        if best is None or value < best[0]:
            best = (value, restart, res.x)
    if best is None or best[0] >= 1e30:
        raise NumericalError("every fitting restart failed to evaluate")
    return build(best[2])


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

class PriorSample:
    """A frozen draw from a truncated prior, evaluable at arbitrary points.

    The draw is a finite sum over the spec's own basis (see ``_prior_coeffs``);
    rng fixes its coefficients (a spectrum before rng is deprecated).
    """

    def __init__(self, spec, rng, *spectrum_form):
        rng, = _spectrum_form(spec, (rng,) + spectrum_form, "PriorSample(spec, rng)", 3)
        self.spec = spec
        self._draw = _prior_coeffs(spec, rng, 1)

    @single_threaded_numpy_blas
    def at(self, points):
        """Field values at an (m, k)-coordinate array (ambient on the sphere)."""
        return _prior_values(self.spec, self._draw, points)[0]

    __call__ = at


def _spectrum_form(spec, args, new_call, stacklevel):
    """args less a leading spectrum: the deprecated form, warned at the sampler's caller
    (stacklevel frames up, the BLAS wrapper's included) and checked by ``_check_spectrum``."""
    if not isinstance(args[0], (SphereSpectrum, TorusSpectrum)):
        return args
    warn_deprecated("passing a spectrum", new_call, stacklevel)
    _check_spectrum(spec, args[0])
    return args[1:]


def _check_spectrum(spec, spectrum):
    """InvalidInputError unless spectrum is the truncation of spec (the noise kind takes any)."""
    if spec.kind == NOISE:
        return
    own = (sphere_spectrum(spec.lmax).scalar_eigenvalues() if spec.manifold == SPHERE
           else _torus_lattice(spec).lam)
    if ((spectrum.manifold == SPHERE) != (spec.manifold == SPHERE) or spectrum.dim != spec.dim
            or not np.array_equal(np.unique(spectrum.scalar_eigenvalues()), np.unique(own))):
        raise InvalidInputError(f"the spectrum is not the truncation of the {spec.kind} spec")


def _prior_coeffs(spec, rng, n_draws):
    """(coeffs, N): n_draws independent prior fields in the spec's own basis, in draw order.

    Sphere: (n_draws, F) coefficients z_n sqrt(w_n) of the eigenfields of
    ``sphere_spectrum(lmax)``, or (n_draws, F, 3) of three stacked scalar
    fields (projected kind, unit-trace weights sigma^2 Phi / C0). Tori:
    (n_draws, 2F, D) coefficients A_n z_n of cos(n . x), then sin(n . x), over
    the kernel's half lattice N (``lattice_draw_factors``), kept with them so
    that evaluating the draws builds no lattice. Noise: none. N is None off tori.
    """
    if spec.kind == NOISE:
        return np.zeros((n_draws, 0)), None
    if spec.manifold != SPHERE:
        n, a = lattice_draw_factors(spec)
        z = rng.standard_normal((n_draws, 2, len(a), spec.dim))
        return np.einsum("fab,dcfb->dcfa", a, z).reshape(n_draws, 2 * len(a), spec.dim), n
    spectrum = sphere_spectrum(spec.lmax)
    if spec.kind == PROJECTED:
        lam = spectrum.scalar_eigenvalues()
        w = stable_phi_ratios(spec.params.nu, spec.params.kappa, lam, spectrum.dim)
        scale = np.sqrt(spec.params.variance * spectrum.volume * w / w.sum())
        return scale[None, :, None] * rng.standard_normal((n_draws, len(scale), 3)), None
    w = class_weights(spec, spectrum)
    return np.sqrt(w) * rng.standard_normal((n_draws, len(w))), None


def _prior_values(spec, draw, points):
    """(n_draws, m, D) values at points of the prior fields of a ``_prior_coeffs`` draw.

    A projected field is A times the stacked scalar fields, projected onto
    the tangent plane and scaled by 1/sqrt(2).
    """
    coeffs, n = draw
    pts = _coords(spec, points)
    if spec.kind == NOISE:
        return np.zeros((len(coeffs), pts.shape[0], spec.ambient_dim))
    if spec.manifold != SPHERE:
        return np.einsum("mf,dfa->dma", lattice_features(pts, n), coeffs)
    spectrum = sphere_spectrum(spec.lmax)
    if spec.kind != PROJECTED:
        return spectrum.field_values(coeffs, pts)
    a = spec.coreg if spec.coreg is not None else np.eye(3)
    g = (a @ (coeffs.transpose(0, 2, 1) @ spectrum.scalar_values(pts))).transpose(0, 2, 1)
    g -= np.sum(pts * g, axis=2, keepdims=True) * pts
    return g / math.sqrt(2.0)


def sample_prior(spec, rng, *spectrum_form) -> PriorSample:
    """Draw one prior field of spec's truncation from rng; it evaluates anywhere."""
    rng, = _spectrum_form(spec, (rng,) + spectrum_form, "sample_prior(spec, rng)", 3)
    return PriorSample(spec, rng)


@single_threaded_numpy_blas
def sample_prior_batch(spec, points, n_draws, rng, *spectrum_form):
    """(n_draws, m, D) values of independent prior draws at fixed points.

    Equal to n_draws successive ``sample_prior`` draws from rng evaluated at points.
    """
    points, n_draws, rng = _spectrum_form(spec, (points, n_draws, rng) + spectrum_form,
                                          "sample_prior_batch(spec, points, n_draws, rng)", 4)
    return _prior_values(spec, _prior_coeffs(spec, rng, _draw_count(n_draws)), points)


def _draw_count(n_draws):
    """n_draws as an int; InvalidInputError unless it is an integer >= 0."""
    if isinstance(n_draws, bool) or not isinstance(n_draws, numbers.Integral) or n_draws < 0:
        raise InvalidInputError(f"n_draws must be a nonnegative integer, got {n_draws!r}")
    return int(n_draws)


@single_threaded_numpy_blas
def sample_posterior(model, points, rng, n_draws=1):
    """(n_draws, m, D) ambient components of exact posterior draws, by Matheron's rule.

    f(Q) + K_QX (K + s^2 I + j I)^-1 (y - f(X) - e) (Wilson et al. 2020): f is
    a prior draw as ``sample_prior`` makes it, at the stacked points [Q; X];
    e ~ N(0, (s^2 + j) I) for the jitter j of ``condition``, whose Cholesky
    factor does the solve, so the draws have the covariance ``predict`` reports.
    On the sphere the harmonic table at the m + n points, lmax (lmax + 2) grad
    Y_lm, costs the same for any n_draws (lmax 30: ~16 ms at m + n = 33, ~55 ms
    at 503), which dominates at small m.
    """
    n_draws = _draw_count(n_draws)
    spec = model.spec
    Q = _coords(spec, points)
    m = Q.shape[0]
    X = model.dataset.coords() if len(model.dataset) else Q[:0]
    f = _prior_values(spec, _prior_coeffs(spec, rng, n_draws), np.vstack([Q, X]))
    if len(model.dataset) == 0:
        return f
    fx = _frame_components(f[:, m:], model.frames).reshape(n_draws, len(model.y_frame))
    e = math.sqrt(spec.noise_variance + model.jitter) * rng.standard_normal(fx.shape)
    v = cho_solve((model.chol, True), (model.y_frame - fx - e).T)
    BQ = _frames(spec.manifold, Q)
    cross = _blocks_to_matrix(frame_blocks(spec, Q, BQ, X, model.frames))
    update = (cross @ v).T.reshape(n_draws, m, spec.dim)
    if BQ is not None:
        update = np.einsum("dmk,mka->dma", update, BQ)
    return f[:, :m] + update


# ---------------------------------------------------------------------------
# Evaluation metrics
# ---------------------------------------------------------------------------

def metrics(means, covs, truths, noise_variance, frames=None):
    """(MSE, PNLL) of predictions against held-out observations.

    MSE is the mean squared Euclidean norm of the mean error. PNLL is the
    mean negative log-density of the truth under the per-point Gaussian
    N(mean, cov + noise * I) expressed in the query frame, each test point
    scored independently. Raises InvalidInputError for zero predictions, and
    unless there is one frame per prediction, of the predictions' ambient
    dimension (sphere), and the residuals in those frames have the
    covariance blocks' size.
    """
    means = np.atleast_2d(means)
    truths = np.atleast_2d(truths)
    covs = np.asarray(covs)
    if means.shape != truths.shape or covs.shape[0] != means.shape[0]:
        raise InvalidInputError("prediction and truth lists must align")
    if means.size == 0:
        raise InvalidInputError("metrics need at least one prediction")
    if frames is not None and (np.ndim(frames) != 3 or np.shape(frames)[::2] != means.shape):
        raise InvalidInputError(f"frames of shape {np.shape(frames)} for predictions of shape "
                                f"{means.shape}: need one (k, {means.shape[1]}) frame per point")
    diff = means - truths
    mse = float(np.mean(np.sum(diff ** 2, axis=1)))
    r = _frame_components(diff, frames)
    d = r.shape[1]
    if covs.shape[1:] != (d, d):
        raise InvalidInputError(f"covariance blocks of shape {covs.shape[1:]} for {d}-component "
                                "residuals; sphere predictions are scored in their frames")
    sigma = covs + noise_variance * np.eye(d)[None]
    sign, logdet = np.linalg.slogdet(sigma)
    if np.any(sign <= 0):
        raise NumericalError("singular predictive covariance after noise addition")
    sol = np.linalg.solve(sigma, r[:, :, None])[:, :, 0]
    quad = np.sum(r * sol, axis=1)
    pnll = float(np.mean(0.5 * quad + 0.5 * logdet + 0.5 * d * math.log(2.0 * math.pi)))
    return mse, pnll
