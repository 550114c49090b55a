"""Vector Gaussian process regression in tangent frames.

Gram matrices are the frame blocks of ``kernels.frame_blocks`` in per-point
orthonormal tangent frames, full-rank 2x2 blocks on the sphere (d x d
global-frame blocks on tori); this module evaluates no kernel itself.
Conditioning is exact via Cholesky with a documented jitter-escalation
fallback; sampling uses the truncated eigenfield expansion for priors and an
exact joint Gaussian factorization for posteriors.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.optimize import minimize

from .errors import InvalidInputError, NumericalError
from .kernels import (HODGE_COMPOSITIONAL, HODGE_CURL, HODGE_DIV, HODGE_FULL, NOISE, PROJECTED,
                      GramTables, KernelSpec, MaternParams, class_weights, compositional_spec,
                      diagonal_frame_blocks, frame_blocks, noise_spec, stable_phi_ratios)
# Not called here: gp evaluates no kernel itself. benchmark/run.py traces these
# names in gp as well as in kernels, so they stay importable from this module.
from .kernels import hodge_pair_sums, kernel_matrix, scalar_pair_sums  # noqa: F401
from .manifold import SPHERE, ManifoldPoint, TangentVector, frames_at, points_array
from .spectrum import sphere_spectrum, torus_spectrum


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
    """(m, k) coordinates of a list of ManifoldPoint or of a coordinate array."""
    if isinstance(points, list):
        return points_array(points) if points else np.zeros((0, spec.ambient_dim))
    return np.atleast_2d(points)


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
    if mat.shape[0] == 0:
        return np.zeros((0, 0)), 0.0
    try:
        return cholesky(mat, lower=True), 0.0
    except np.linalg.LinAlgError:
        pass
    jitter = 1e-10 * scale
    while jitter <= 1e-4 * scale:
        try:
            l = cholesky(mat + jitter * np.eye(mat.shape[0]), lower=True)
            return l, jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    eigs = np.linalg.eigvalsh(mat)
    raise NumericalError(
        f"matrix not positive definite after jitter up to {1e-4 * scale:.3e}; "
        f"eigenvalue range [{eigs.min():.3e}, {eigs.max():.3e}]")


def _total_variance(spec):
    if spec.kind == HODGE_COMPOSITIONAL:
        return sum(p.variance for p in spec.parts.values())
    return spec.params.variance if spec.params is not None else 1.0


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

    @property
    def block_dim(self):
        return 2 if self.spec.manifold == SPHERE else self.spec.dim


def _frame_components(values, frames):
    if frames is None:
        return np.asarray(values)
    return np.einsum("nka,na->nk", frames, values)


def _observations(manifold, dataset):
    """Coordinates, frames (sphere only) and flattened frame observations."""
    X = dataset.coords()
    frames = _frames(manifold, X)
    return X, frames, _frame_components(dataset.values(), frames).reshape(-1)


def _factor(spec, k, y):
    """(chol, alpha, jitter) of the Gram k plus noise (added in place) against y."""
    k[np.diag_indices_from(k)] += spec.noise_variance
    chol, jitter = _chol_with_jitter(k, _total_variance(spec))
    return chol, cho_solve((chol, True), y), jitter


def _log_evidence(y, chol, alpha):
    """Gaussian log evidence of y from the Cholesky factor of its covariance and alpha = K^-1 y."""
    return float(-0.5 * y @ alpha
                 - np.log(np.diag(chol)).sum()
                 - 0.5 * y.shape[0] * math.log(2.0 * math.pi))


def _lml_tail(spec, k, y):
    """Gaussian log evidence of frame observations y under spec's Gram k."""
    chol, alpha, _ = _factor(spec, k, y)
    return _log_evidence(y, chol, alpha)


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
    if BQ is not None:
        mean = np.einsum("mk,mka->ma", mean_f, BQ)
    else:
        mean = mean_f
    return Prediction(mean=mean, cov=cov, frames=BQ)


def log_marginal_likelihood(spec, dataset):
    """Gaussian log evidence of the dataset under the spec, frame coordinates."""
    if len(dataset) == 0:
        raise InvalidInputError("log marginal likelihood needs a nonempty dataset")
    X, frames, y = _observations(spec.manifold, dataset)
    return _lml_tail(spec, gram(spec, X, frames), y)


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
    """Returns (names, bounds, build) mapping a log-parameter vector to a spec."""
    kb, vb, nb = (config.log_kappa_bounds, config.log_variance_bounds,
                  config.log_noise_bounds)
    fixed = config.fixed_kappa

    def common(**kw):
        return dict(manifold=manifold, lmax=lmax, lambda_cap=lambda_cap,
                    torus_dim=torus_dim, **kw)

    if kind in (HODGE_FULL, HODGE_DIV, HODGE_CURL, PROJECTED):
        if fixed is None:
            names = ["log_kappa", "log_variance", "log_noise"]
            bounds = [kb, vb, nb]

            def build(th):
                p = MaternParams(nu, math.exp(th[0]), math.exp(th[1]), math.exp(th[2]))
                return KernelSpec(kind, p, **common())
        else:
            names = ["log_variance", "log_noise"]
            bounds = [vb, nb]

            def build(th):
                p = MaternParams(nu, fixed, math.exp(th[0]), math.exp(th[1]))
                return KernelSpec(kind, p, **common())
        return names, bounds, build

    if kind == HODGE_COMPOSITIONAL:
        if fixed is None:
            names = ["log_kappa_div", "log_variance_div",
                     "log_kappa_curl", "log_variance_curl", "log_noise"]
            bounds = [kb, vb, kb, vb, nb]

            def build(th):
                return compositional_spec(
                    nu, (math.exp(th[0]), math.exp(th[1])),
                    (math.exp(th[2]), math.exp(th[3])), noise=math.exp(th[4]),
                    **common())
        else:
            names = ["log_variance_div", "log_variance_curl", "log_noise"]
            bounds = [vb, vb, nb]

            def build(th):
                return compositional_spec(
                    nu, (fixed, math.exp(th[0])), (fixed, math.exp(th[1])),
                    noise=math.exp(th[2]), **common())
        return names, bounds, build

    raise InvalidInputError(f"cannot fit kernel kind {kind!r}")


def _objective(dataset, names, build, theta0):
    """fit's objective: theta -> (-LML, -dLML/dtheta) of build(theta), (1e30, 0) where it fails.

    ``names`` are the log-parameters theta holds. The frames, frame
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
            blocks, derivatives = tables.blocks_and_derivatives(spec)
            chol, alpha, _ = _factor(spec, _blocks_to_matrix(blocks), y)
            w = np.outer(alpha, alpha) - cho_solve((chol, True), np.eye(len(y)))
            # einsum, not np.vdot: vdot is BLAS ddot, which OpenBLAS spreads over
            # its threads above 1e4 elements; between the LAPACK solves that made
            # an evaluation at n = 60 points ~25x slower on a 2-core box
            grad = [spec.noise_variance * np.trace(w) if name == "log_noise"
                    else np.einsum("ij,ij->", w, _blocks_to_matrix(derivatives[name]))
                    for name in names]
            return -_log_evidence(y, chol, alpha), -0.5 * np.array(grad)
        except (NumericalError, FloatingPointError):
            return 1e30, np.zeros(len(names))

    return objective


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
    the Gram. The tables hold
    O((lmax + 1) n^2) floats: on the sphere one (lmax + 1) x n^2 table of P_l
    for every kind (62 MB at n = 500, lmax = 30), contracted without a copy; on
    tori the lattice features, 2F n floats for F half-lattice frequencies.
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

    Built as f(x) = sum_n c_n s_n(x) with c_n = z_n sqrt(w_n) for i.i.d.
    standard normal z_n and the spec's per-eigenfield weights w_n; the
    projected kernel stacks three scalar draws and projects pointwise.
    """

    def __init__(self, spec, spectrum, rng):
        self.spec = spec
        self.spectrum = spectrum
        self._coeffs = _prior_coeffs(spec, spectrum, rng, 1)

    def at(self, points):
        """Field values at an (m, k)-coordinate array (ambient on the sphere)."""
        return _prior_values(self.spec, self.spectrum, self._coeffs, points)[0]

    __call__ = at


def _prior_coeffs(spec, spectrum, rng, n_draws):
    """Expansion coefficients of n_draws independent prior fields.

    (n_draws, F) eigenfield coefficients z_n sqrt(w_n); for the projected
    kind (n_draws, F, 3) coefficients of three stacked scalar fields with the
    scalar kernel's unit-trace weights sigma^2 Phi / C0. Draws are taken from
    rng in order, so n_draws at once equal n_draws successive single draws.
    The noise kind draws nothing; the others need the spectrum of spec's truncation.
    """
    if spec.kind == NOISE:
        return np.zeros((n_draws, 0))
    own = (sphere_spectrum(spec.lmax) if spec.manifold == SPHERE
           else torus_spectrum(spec.dim, spec.lambda_cap))
    if (spectrum.manifold, spectrum.dim) != (own.manifold, own.dim) or not np.array_equal(
            np.unique(spectrum.scalar_eigenvalues()), np.unique(own.scalar_eigenvalues())):
        raise InvalidInputError(f"the spectrum is not the truncation of the {spec.kind} spec")
    if spec.kind == PROJECTED:
        lam = spectrum.scalar_eigenvalues()
        w = stable_phi_ratios(spec.params.nu, spec.params.kappa, lam, spectrum.dim)
        scale = np.sqrt(spec.params.variance * spectrum.volume * w / w.sum())
        return scale[None, :, None] * rng.standard_normal((n_draws, len(scale), 3))
    w = class_weights(spec, spectrum)
    return np.sqrt(w) * rng.standard_normal((n_draws, len(w)))


def _prior_values(spec, spectrum, coeffs, points):
    """(n_draws, m, D) values at points of the prior fields with these coefficients.

    A projected field is A times the stacked scalar fields, projected onto
    the tangent plane and scaled by 1/sqrt(2).
    """
    pts = _coords(spec, points)
    if spec.kind == NOISE:
        return np.zeros((len(coeffs), pts.shape[0], spec.ambient_dim))
    if spec.kind == PROJECTED:
        g = np.einsum("dfj,fm->dmj", coeffs, spectrum.scalar_values(pts))
        a = spec.coreg if spec.coreg is not None else np.eye(3)
        g = g @ a.T
        g -= np.sum(pts * g, axis=2, keepdims=True) * pts
        return g / math.sqrt(2.0)
    return np.einsum("df,fma->dma", coeffs, spectrum.eigenfield_values(pts))


def sample_prior(spec, spectrum, rng) -> PriorSample:
    """Draw one prior field from the spectrum of spec's truncation; it evaluates anywhere."""
    return PriorSample(spec, spectrum, rng)


def sample_prior_batch(spec, spectrum, points, n_draws, rng):
    """(n_draws, m, D) values of independent prior draws at fixed points.

    Equal to n_draws successive ``sample_prior`` draws from rng evaluated at points.
    """
    return _prior_values(spec, spectrum, _prior_coeffs(spec, spectrum, rng, n_draws), points)


def sample_posterior(model, points, rng, n_draws=1):
    """Exact draws from the joint posterior at the query points.

    Factors the full joint posterior covariance (with the conditioning jitter
    policy) and returns (n_draws, m, D) ambient components.
    """
    spec = model.spec
    Q = _coords(spec, points)
    BQ = _frames(spec.manifold, Q)
    prior = gram(spec, Q, BQ)
    if len(model.dataset) == 0:
        mean = np.zeros(prior.shape[0])
        cov = prior
    else:
        X = model.dataset.coords()
        cross = _blocks_to_matrix(frame_blocks(spec, Q, BQ, X, model.frames))
        mean = cross @ model.alpha
        r = solve_triangular(model.chol, cross.T, lower=True)
        cov = prior - r.T @ r
    cov = 0.5 * (cov + cov.T)
    scale = max(_total_variance(spec), 1e-12)
    chol, _ = _chol_with_jitter(cov + 1e-12 * scale * np.eye(cov.shape[0]), scale)
    z = rng.standard_normal((n_draws, cov.shape[0]))
    draws_f = mean[None, :] + z @ chol.T
    draws_f = draws_f.reshape(n_draws, -1, model.block_dim)
    if BQ is not None:
        return np.einsum("dmk,mka->dma", draws_f, BQ)
    return draws_f


# ---------------------------------------------------------------------------
# Evaluation metrics
# ---------------------------------------------------------------------------

def metrics(means, covs, truths, noise_variance, frames=None):
    """(MSE, PNLL) of predictions against held-out observations.

    MSE is the mean squared Euclidean norm of the mean error. PNLL is the
    mean negative log-density of the truth under the per-point Gaussian
    N(mean, cov + noise * I) expressed in the query frame, each test point
    scored independently.
    """
    means = np.atleast_2d(means)
    truths = np.atleast_2d(truths)
    covs = np.asarray(covs)
    if means.shape != truths.shape or covs.shape[0] != means.shape[0]:
        raise InvalidInputError("prediction and truth lists must align")
    diff = means - truths
    mse = float(np.mean(np.sum(diff ** 2, axis=1)))
    r = _frame_components(diff, frames)
    d = r.shape[1]
    sigma = covs + noise_variance * np.eye(d)[None]
    sign, logdet = np.linalg.slogdet(sigma)
    if np.any(sign <= 0):
        raise NumericalError("singular predictive covariance after noise addition")
    sol = np.linalg.solve(sigma, r[:, :, None])[:, :, 0]
    quad = np.sum(r * sol, axis=1)
    pnll = float(np.mean(0.5 * quad + 0.5 * logdet + 0.5 * d * math.log(2.0 * math.pi)))
    return mse, pnll
