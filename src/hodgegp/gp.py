"""Vector Gaussian process regression in tangent frames.

A ``Dataset`` is two checked, read-only arrays, (n, k) coordinates and (n, D) values, which
every entry point reads as they are. Every point set, data and queries alike, is read by the
one reader ``manifold.coordinates``, so a torus angle and its reduction to [0, 2 pi) give the
same bits. Gram matrices are the frame blocks of ``kernels.frame_blocks`` in per-point
orthonormal tangent frames, full-rank 2x2 blocks on the sphere (d x d global-frame blocks on
tori); this module evaluates no kernel itself. Conditioning is exact via Cholesky with a
documented jitter-escalation fallback, and an empty dataset is n = 0 on the same path. A prior
draw is fixed by its spec and an rng, in the kernel's own basis with the evaluators' weights:
on the sphere grad Y_lm and its rotation (Y_lm when projected) scaled by the level weights,
summed in one matrix product with the harmonic table; on tori the kernel's half lattice.
``predict`` and posterior draws share one query step against the model's checked coordinates;
the draws are prior draws moved by Matheron's rule through the model's Cholesky factor.
``predict`` whitens each block's cross Gram by a triangular solve against that factor or, when
the call has at least twice as many queries as the model has data and the factor is well
conditioned, by a product with its inverse, inverted once per call. Every query-side
computation runs over fixed-size blocks of points (``_QUERY_PAIRS``, ``_DRAW_FLOATS``), each
freed before the next is built, so a call holds its output plus O(block x n) or
O(block x basis) floats (and predict's inverse), whatever the query count.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dtrcon, dtrtri
from scipy.optimize import minimize

from ._accel import single_threaded_numpy_blas
from .errors import InvalidInputError, NumericalError, check_count, warn_deprecated
from .kernels import (HODGE_COMPOSITIONAL, HODGE_CURL, HODGE_DIV, HODGE_FULL, NOISE, PROJECTED,
                      SCALAR, GramTables, KernelSpec, MaternParams, _torus_lattice,
                      check_kappa, compositional_spec, diagonal_frame_blocks, frame_blocks,
                      lattice_draw_coeffs, lattice_features, noise_spec, sphere_draw_scales)
# Not called here: gp evaluates no kernel itself. benchmark/run.py traces these
# names in gp as well as in kernels, so they stay importable from this module.
from .kernels import hodge_pair_sums, kernel_matrix, scalar_pair_sums  # noqa: F401
from .manifold import SPHERE, TangentVector, check_space, check_tangent, coordinates, frames_at
from .spectrum import (CURL, DIV, SphereSpectrum, TorusSpectrum, gradient_field_values,
                       harmonic_values, sphere_spectrum)


class Dataset:
    """Tangent observations at points of one manifold (``manifold``, ``dim``), as two read-only
    arrays it owns and returns without a copy: ``coords()`` (n, k) and ``values()`` (n, D), read
    by ``manifold.coordinates`` and ``check_tangent`` from a list of ``TangentVector`` and their
    points (on the manifold of the vectors' bases), or from rows by ``from_arrays``.

    ``scale`` records the factor applied to the raw observations when the dataset was
    normalized (1.0 when untouched). An empty dataset is on the sphere, or on what
    ``from_arrays`` was given (its (0, k) coordinates). Datasets compare by identity.
    """

    def __init__(self, points, observations, scale=1.0):
        if not all(isinstance(v, TangentVector) for v in observations):
            raise InvalidInputError("observations must be tangent vectors")
        spaces = {(v.base.manifold, v.base.dim) for v in observations}
        if len(spaces) > 1:
            raise InvalidInputError("dataset points must lie on one manifold, of one dimension")
        ((manifold, dim),) = spaces or {(SPHERE, 2)}
        X = coordinates(manifold, dim, points)
        if any(not np.array_equal(v.base.coords, x) for x, v in zip(X, observations)):
            raise InvalidInputError("observation base point mismatch")
        V = check_tangent(manifold, X, [v.components for v in observations])   # counts align too
        self._store(manifold, X, V, scale)

    def _store(self, manifold, X, V, scale):
        X.flags.writeable = V.flags.writeable = False
        self.manifold, self.dim = manifold, 2 if manifold == SPHERE else X.shape[1]
        self._coords, self._values, self.scale = X, V, scale
        return self

    @classmethod
    def from_arrays(cls, manifold, coords, values, scale=1.0):
        """A dataset of copies of the (n, k) coordinate rows on the manifold and the (n, D)
        components, read as ``ManifoldPoint`` and ``TangentVector`` read one row."""
        X = coordinates(manifold, None, coords)
        return cls.__new__(cls)._store(manifold, X, check_tangent(manifold, X, values), scale)

    def __len__(self):
        return len(self._coords)

    def coords(self):
        """(n, k) point coordinates: k = 3 on the sphere, the dimension on tori."""
        return self._coords

    def values(self):
        """(n, D) observation components, D as k of ``coords``."""
        return self._values


# ---------------------------------------------------------------------------
# Frame-coordinate Gram assembly
# ---------------------------------------------------------------------------

def _frames(manifold, X):
    """Tangent frames at X: east/north on the sphere, None (the global frame) on tori."""
    return frames_at(X) if manifold == SPHERE else None


def _blocks_to_matrix(blocks):
    n, m, d, _ = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(n * d, m * d)


def gram(spec, points, frames=None):
    """Gram matrix in frame coordinates: block (i, j) = B_i^T k(x_i, x_j) B_j.

    ``points`` is a point set in any form ``coordinates`` reads; sphere
    frames default to the deterministic east/north frames.
    """
    X = coordinates(spec.manifold, spec.dim, points)
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


@dataclass(eq=False)
class PosteriorModel:
    """Conditioned GP state: data, their checked coordinates X and frames, Gram factor, alpha."""

    spec: KernelSpec
    dataset: Dataset
    X: np.ndarray
    frames: np.ndarray
    chol: np.ndarray
    alpha: np.ndarray
    y_frame: np.ndarray
    jitter: float


def _frame_components(values, frames):
    """Frame components of (..., n, 3) ambient values; tori (frames None) keep theirs."""
    return np.asarray(values) if frames is None else np.einsum("nka,...na->...nk", frames, values)


def _ambient(values, frames):
    """(..., m, D) ambient components of (..., m, k) frame components; tori keep theirs."""
    return values if frames is None else np.einsum("...mk,mka->...ma", values, frames)


def _observations(spec, dataset):
    """Coordinates, frames and flat frame observations of a dataset (of any manifold if empty)."""
    if len(dataset):
        check_space(dataset.manifold, dataset.dim, spec.manifold, spec.dim)
    X = dataset.coords().reshape(len(dataset), spec.ambient_dim)
    frames = _frames(spec.manifold, X)
    return X, frames, _frame_components(dataset.values().reshape(X.shape), frames).reshape(-1)


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
    1e-4 * sigma^2 before raising NumericalError. An empty dataset is n = 0.
    """
    X, frames, y = _observations(spec, dataset)
    chol, alpha, jitter = _factor(spec, gram(spec, X, frames), y)
    return PosteriorModel(spec, dataset, X, frames, chol, alpha, y, jitter)


@dataclass
class Prediction:
    """Posterior mean (ambient components) and marginal covariance per query.

    Covariances are 2x2 in the query frames on the sphere and d x d in the
    global frame on tori.
    """

    mean: np.ndarray
    cov: np.ndarray
    frames: np.ndarray


# Query-side block sizes, as kernels._BLOCK_PAIRS is a Gram's: besides its output a
# call holds one block, whatever the query count. A predict or posterior block is
# ~_QUERY_PAIRS query-data pairs, _QUERY_PAIRS // n rows: ~1000 solve right-hand sides
# at n = 500, which solve as fast as all at once, and the CLI's 2664-point grid against
# 30 training points is one block. A prior-draw block is ~_DRAW_FLOATS floats of basis
# values (``_draw_rows``).
_QUERY_PAIRS = 1 << 18
_DRAW_FLOATS = 1 << 21


def _blocks(count, step):
    """Slices of consecutive blocks of ``step`` rows out of ``count``; the last may be partial."""
    return (slice(start, min(start + step, count)) for start in range(0, count, step))


def _query(model, points):
    """(Q, BQ, blocks): checked coordinates and frames of points, and a generator of
    the query blocks of ~``_QUERY_PAIRS`` query-data pairs each, as (rows, BQ[rows],
    K_QX[rows]): the block's rows, frames and cross Gram to model.X."""
    spec = model.spec
    Q = coordinates(spec.manifold, spec.dim, points)
    BQ = _frames(spec.manifold, Q)

    def blocks():
        for rows in _blocks(len(Q), max(1, _QUERY_PAIRS // max(1, len(model.X)))):
            B = None if BQ is None else BQ[rows]
            yield rows, B, _blocks_to_matrix(frame_blocks(spec, Q[rows], B, model.X, model.frames))

    return Q, BQ, blocks()


# predict's product route (``_inverse_factor``). At n 30, 200 and 500 data the route (dtrcon,
# dtrtri, then dtrmm per block) was no slower than the per-block solves from m = 2n queries
# on (from ~n at n 200 and 500, from 1.5-2n at n 30), and it is taken only while LAPACK's
# estimate of the factor's 1-norm condition number is at most 1e5: in a sweep of 108 specs
# at n 250 its covariance error, relative to the posterior variance, stayed within 2.7x the
# solve's up to estimates of 7e5 and reached 2.6-81x from 2e6, on noiseless, smooth kernels.
# Below the bound the product can still lose more digits of a small posterior variance than
# the solve: 18x at one CLI great-circle grid point (estimate 1.6e3, std 1% of the prior's),
# 4e-11 against 2e-12 of the std. BENCH_trmm_change.json has the timings.
_INVERSE_QUERIES_PER_DATUM = 2
_INVERSE_RCOND = 1e-5


def _inverse_factor(model, m):
    """L^-1 of the model's Cholesky factor L when predict's m queries whiten by a product
    with it, else None: with fewer than twice as many queries as data, at n = 0 (LAPACK
    rejects a (0, 0) factor) and where L is ill conditioned, the blocks solve instead."""
    n = len(model.X)
    if n == 0 or m < _INVERSE_QUERIES_PER_DATUM * n:
        return None
    if dtrcon(model.chol, norm="1", uplo="L")[0] < _INVERSE_RCOND:
        return None
    inverse, info = dtrtri(model.chol, lower=1)
    if info:
        raise NumericalError(f"inverting the Cholesky factor failed (dtrtri info {info})")
    return inverse


@single_threaded_numpy_blas
def predict(model, points) -> Prediction:
    """Posterior mean and marginal covariance at points (``coordinates``); the prior's at n = 0.

    Each query block of ``_query`` takes its means from its cross Gram K_QX, then
    whitens K_QX^T in place to R = L^-1 K_QX^T against the Cholesky factor L and
    subtracts R's column Grams from the prior's diagonal blocks (Rasmussen &
    Williams 2006, Alg. 2.1). When the call has at least twice as many queries as
    the model has data (m >= 2n > 0) and LAPACK's estimate of L's 1-norm condition
    number is at most 1e5 (``dtrcon``), L is inverted once (``dtrtri``) and each
    block multiplies by the inverse (BLAS ``dtrmm``), which OpenBLAS runs at about
    twice the rate of the triangular solve. Otherwise each block solves
    (``solve_triangular``): with fewer queries the inverse saves too little, and
    for an ill-conditioned L the product loses accuracy that the solve keeps
    (Higham 2002, ch. 14). Besides the output the call holds one block,
    O(block x n) floats, and on the product route the (Dn)^2 inverse.
    """
    Q, BQ, blocks = _query(model, points)
    cov = diagonal_frame_blocks(model.spec, Q, BQ)   # the prior's
    m, d = cov.shape[:2]
    mean = np.empty((m, d))
    inverse = _inverse_factor(model, m)
    for rows, _, cross in blocks:
        shape = (rows.stop - rows.start, d)
        mean[rows] = (cross @ model.alpha).reshape(shape)
        # both routes overwrite the block's cross Gram, which nothing reads after it
        if inverse is None:
            r = solve_triangular(model.chol, cross.T, lower=True, overwrite_b=True)
        else:
            r = dtrmm(1.0, inverse, cross.T, lower=1, overwrite_b=1)
        r = r.reshape(len(model.alpha), *shape)
        cov[rows] -= np.einsum("nmk,nml->mkl", r, r)
        del cross, r   # before the generator builds the next block
    cov = 0.5 * (cov + cov.transpose(0, 2, 1))
    return Prediction(mean=_ambient(mean, BQ), cov=cov, frames=BQ)


@single_threaded_numpy_blas
def log_marginal_likelihood(spec, dataset):
    """Gaussian log evidence of the dataset under the spec, frame coordinates."""
    if len(dataset) == 0:
        raise InvalidInputError("log marginal likelihood needs a nonempty dataset")
    X, frames, y = _observations(spec, dataset)
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
        check_count("restarts", self.restarts, 1)
        check_count("max_iter", self.max_iter, 1)
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise InvalidInputError(f"tol must be finite and positive, got {self.tol!r}")
        if self.fixed_kappa is not None and not (0.0 < self.fixed_kappa < math.inf):
            raise InvalidInputError(f"fixed_kappa must be positive and finite, "
                                    f"got {self.fixed_kappa!r}")
        for name in ("log_kappa_bounds", "log_variance_bounds", "log_noise_bounds"):
            pair = np.asarray(getattr(self, name), dtype=np.float64)
            with np.errstate(over="ignore"):   # e^hi must be finite, e^lo nonzero but for a noise
                scale = np.exp(pair)           # (_spec_builder checks the kappas against nu)
            if pair.shape != (2,) or not (np.isfinite(pair).all() and pair[0] < pair[1]
                                          and scale[1] < math.inf
                                          and (scale[0] > 0.0 or name == "log_noise_bounds")):
                raise InvalidInputError(f"{name} must be a finite pair (lo, hi) with lo < hi and "
                                        f"e^lo, e^hi in range, got {getattr(self, name)!r}")
        try:
            np.random.default_rng(self.seed)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"seed {self.seed!r} does not seed numpy: {exc}") from None


def _spec_builder(kind, nu, manifold, lmax, lambda_cap, torus_dim, config):
    """Returns (names, bounds, build) mapping a log-parameter vector to a spec.

    The names are log_kappa and log_variance per class (suffixed _div and
    _curl for the compositional kind; log_kappa dropped when
    ``config.fixed_kappa`` freezes it), then log_noise.
    """
    if kind not in (HODGE_FULL, HODGE_DIV, HODGE_CURL, PROJECTED, HODGE_COMPOSITIONAL):
        raise InvalidInputError(f"cannot fit kernel kind {kind!r}")
    fixed = config.fixed_kappa
    # FitConfig knows no nu; a spec inside the fit would fail without the setting's name
    for field, kappa in ([("fixed_kappa", fixed)] if fixed is not None else
                         [("log_kappa_bounds", math.exp(t)) for t in config.log_kappa_bounds]):
        try:
            check_kappa(nu, kappa)
        except InvalidInputError as exc:
            raise InvalidInputError(f"{field}: {exc}") from None
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

    ``names`` are ``_spec_builder``'s: per part of ``spec.classes``, log_kappa (unless
    fixed) and log_variance, then log_noise. The points' ``GramTables`` are built once.
    With W = alpha alpha^T - K^-1, dLML/dtheta = tr(W dK/dtheta) / 2 (Rasmussen &
    Williams 2006, eq. 5.9): the tables give the kernel's traces, and dK/dlog noise = noise I.
    """
    spec = build(theta0)
    X, frames, y = _observations(spec, dataset)
    tables = GramTables(spec, X, frames)

    def objective(theta):
        try:
            spec = build(theta)
            chol, alpha, _ = _factor(spec, _blocks_to_matrix(tables.blocks(spec)), y)
            w = np.outer(alpha, alpha) - cho_solve((chol, True), np.eye(len(y)))
            # BLAS sums the traces: inside fit at one thread, in one order on every call
            grad = [trace for var, kappa in tables.gradient(spec, w)
                    for trace in ((kappa, var) if names[0].startswith("log_kappa") else (var,))]
            grad.append(spec.noise_variance * np.trace(w))
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
    and its gradient, from ``GramTables`` built once per call, without a
    derivative Gram. On the sphere (``tracemalloc`` at n = 500, lmax = 30) the
    tables take 35.1 MB for one Hodge part, 43.4 MB for two, 26.9 MB projected,
    and with one evaluation peak at 67.1, 75.4 and 58.9 MB; on tori they are
    the lattice features, 2F n floats for F half-lattice frequencies.
    """
    if len(dataset) == 0:
        raise InvalidInputError("cannot fit an empty dataset")
    config = config or FitConfig()
    manifold = dataset.manifold
    torus_dim = dataset.dim

    if kind == NOISE:
        y = _observations(noise_spec(1.0, manifold=manifold, torus_dim=torus_dim), dataset)[2]
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
    rng fixes its coefficients, which with the spec are all the draw keeps.
    """

    def __init__(self, spec, rng):
        self.spec = spec
        self._coeffs = _prior_coeffs(spec, rng, 1)

    @single_threaded_numpy_blas
    def at(self, points):
        """(m, D) field values at points (``coordinates``), ambient on the sphere."""
        return _prior_values(self.spec, self._coeffs, points)[0]

    __call__ = at


def _check_spectrum(spec, spectrum):
    """InvalidInputError unless spectrum is the truncation of spec (the noise kind takes any)."""
    if spec.kind == NOISE:
        return
    own = (sphere_spectrum(spec.lmax).scalar_eigenvalues() if spec.manifold == SPHERE
           else _torus_lattice(spec.dim, spec.lambda_cap)[2])
    if ((spectrum.manifold == SPHERE) != (spec.manifold == SPHERE) or spectrum.dim != spec.dim
            or not np.array_equal(np.unique(spectrum.scalar_eigenvalues()), np.unique(own))):
        raise InvalidInputError(f"the spectrum is not the truncation of the {spec.kind} spec")


def _prior_coeffs(spec, rng, n_draws):
    """n_draws independent prior fields in the spec's own basis, in draw order.

    Sphere: z times the ``sphere_draw_scales`` of the evaluators' level weights,
    (n_draws, 2, lmax (lmax + 2)) of grad Y_lm and x cross grad Y_lm, z drawn per
    level as the div fields m = -l..l, then the curl fields; or (n_draws,
    (lmax + 1)^2, 3) of three stacked scalar fields (projected kind).
    Tori: (n_draws, 2F, D) coefficients A_n z_n of cos(n . x), then sin(n . x),
    over the truncation's half lattice (``lattice_draw_coeffs``). Noise: none.
    A scalar spec has no vector draws (InvalidInputError).
    """
    if spec.kind == SCALAR:
        raise InvalidInputError("scalar kernels have no vector draws")
    if spec.kind == NOISE:
        return np.zeros((n_draws, 0))
    if spec.manifold != SPHERE:
        f = len(_torus_lattice(spec.dim, spec.lambda_cap)[0])
        z = rng.standard_normal((n_draws, 2, f, spec.dim))
        return lattice_draw_coeffs(spec, z).reshape(n_draws, 2 * f, spec.dim)
    scale = sphere_draw_scales(spec)
    if spec.kind == PROJECTED:
        return scale[None, :, None] * rng.standard_normal((n_draws, len(scale), 3))
    # harmonic j = l^2 - 1 + l + m is z's entry 2 (l^2 - 1) + l + m (div), 2l + 1 on (curl)
    l = np.sqrt(np.arange(1, spec.lmax * (spec.lmax + 2) + 1)).astype(np.int64)
    order = np.arange(len(l)) + l * l - 1 + np.outer([0, 1], 2 * l + 1)
    return scale * rng.standard_normal((n_draws, 2 * len(l)))[:, order]


def _prior_values(spec, coeffs, points):
    """(n_draws, m, D) values at points of the prior fields of ``_prior_coeffs``.

    Evaluated over blocks of ``_draw_rows`` points, so besides the output a call
    holds O(block x basis) floats, never O(m x basis).
    """
    pts = coordinates(spec.manifold, spec.dim, points)
    out = np.zeros((len(coeffs), pts.shape[0], spec.ambient_dim))
    if spec.kind != NOISE:
        for rows in _blocks(len(pts), _draw_rows(spec)):
            out[:, rows] = _block_values(spec, coeffs, pts[rows])
    return out


def _draw_rows(spec):
    """Points per prior-draw block: ``_DRAW_FLOATS`` over the floats of one point's basis
    values, 7 (lmax + 1)^2 on the sphere (factor and gradient tables), 2F on tori."""
    per_point = (7 * (spec.lmax + 1) ** 2 if spec.manifold == SPHERE
                 else 2 * len(_torus_lattice(spec.dim, spec.lambda_cap)[0]))
    return max(1, _DRAW_FLOATS // per_point)


def _block_values(spec, coeffs, pts):
    """(n_draws, m, D) values of the prior fields at one block of checked points.

    A Hodge field is one contraction of its coefficients with the grad Y_lm table
    (``gradient_field_values``); a projected field is A times the stacked scalar
    fields, projected onto the tangent plane and scaled by 1/sqrt(2).
    """
    if spec.manifold != SPHERE:
        n = _torus_lattice(spec.dim, spec.lambda_cap)[0]
        return np.einsum("mf,dfa->dma", lattice_features(pts, n), coeffs)
    if spec.kind != PROJECTED:
        return gradient_field_values(coeffs, pts, spec.lmax)
    a = spec.coreg if spec.coreg is not None else np.eye(3)
    g = (a @ (coeffs.transpose(0, 2, 1) @ harmonic_values(pts, spec.lmax))).transpose(0, 2, 1)
    g -= np.sum(pts * g, axis=2, keepdims=True) * pts
    return g / math.sqrt(2.0)


def sample_prior(spec, rng, *spectrum_form) -> PriorSample:
    """Draw one prior field of spec's truncation from rng; it evaluates anywhere.

    ``sample_prior(spec, spectrum, rng)`` is deprecated: it warns at the caller's line,
    and the spectrum must be spec's truncation (``_check_spectrum``)."""
    deprecated = isinstance(rng, (SphereSpectrum, TorusSpectrum))
    if deprecated:
        warn_deprecated("passing a spectrum", "sample_prior(spec, rng)")
        _check_spectrum(spec, rng)
    rng, = spectrum_form if deprecated else (rng,) + spectrum_form
    return PriorSample(spec, rng)


@single_threaded_numpy_blas
def sample_prior_batch(spec, points, n_draws, rng):
    """(n_draws, m, D) values of independent prior draws at fixed points (``coordinates``).

    Equal to n_draws successive ``sample_prior`` draws from rng evaluated at points.
    """
    return _prior_values(spec, _prior_coeffs(spec, rng, check_count("n_draws", n_draws, 0)), points)


@single_threaded_numpy_blas
def sample_posterior(model, points, rng, n_draws=1):
    """(n_draws, m, D) ambient components of exact posterior draws at points (``coordinates``),
    by Matheron's rule.

    f(Q) + K_QX (K + s^2 I + j I)^-1 (y - f(X) - e) (Wilson et al. 2020): f is
    a prior draw as ``sample_prior`` makes it, at the stacked points [Q; X];
    e ~ N(0, (s^2 + j) I) for the jitter j of ``condition``, whose Cholesky
    factor does the solve, so the draws have the covariance ``predict`` reports.
    The coefficients of f, then e, are drawn and the solve against the data
    residual runs once, before any query block; each block of ``_query`` then
    adds its cross Gram times that solve. f is evaluated in the point blocks of
    ``_prior_values``, so besides the output a call holds O(block x n) and
    O(block x basis) floats. On the sphere the harmonic tables, lmax (lmax + 2)
    grad Y_lm a point, cost the same for any n_draws (lmax 30: ~16 ms at
    m + n = 33, ~55 ms at 503), which dominates at small m. With no data
    (n = 0) the draws are ``sample_prior_batch``'s from the same rng.
    """
    n_draws = check_count("n_draws", n_draws, 0)
    spec = model.spec
    Q, _, blocks = _query(model, points)
    m = len(Q)
    coeffs = _prior_coeffs(spec, rng, n_draws)
    f = _prior_values(spec, coeffs, np.vstack([Q, model.X]))
    fx = _frame_components(f[:, m:], model.frames).reshape(n_draws, len(model.y_frame))
    e = math.sqrt(spec.noise_variance + model.jitter) * rng.standard_normal(fx.shape)
    v = cho_solve((model.chol, True), (model.y_frame - fx - e).T)
    out = f[:, :m]
    for rows, B, cross in blocks:
        update = (cross @ v).T.reshape(n_draws, rows.stop - rows.start, spec.dim)
        out[:, rows] += _ambient(update, B)
        del cross   # before the generator builds the next block
    return np.ascontiguousarray(out)


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
