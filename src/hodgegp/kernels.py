"""Matern covariance kernels for scalar and tangential-vector Gaussian fields.

All kernels are finite spectral sums

    k(x, x') = (sigma^2 / C) * sum_n Phi(lambda_n) s_n(x) (x) s_n(x'),

where Phi is the Matern spectral weight, the s_n are Laplacian eigenpairs of
the manifold, and C normalizes the volume-averaged trace of k(x, x) to
sigma^2 over the same truncation.

On the sphere the sums over the order m collapse through the Legendre
addition theorem, so scalar kernels need only P_l(x . x') and vector kernels
only its first two derivatives. Sphere vector kernels are evaluated once, as
2x2 blocks in tangent frames (``sphere_frame_blocks``); ambient 3x3 matrices
are their lift. A direct sum over eigenfields
(``spectral_kernel_oracle``) is kept as the slow reference path; it is also
the evaluation route for the divergence-free and curl-free kernels on T^2.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._accel import legendre_sums
from .errors import InvalidInputError
from .manifold import CIRCLE, SPHERE, TORUS, frames_at
from .spectrum import CURL, DIV, HARM, torus_spectrum

SCALAR = "scalar"
HODGE_FULL = "hodge-full"
HODGE_DIV = "hodge-div"
HODGE_CURL = "hodge-curl"
HODGE_COMPOSITIONAL = "hodge-compositional"
PROJECTED = "projected"
NOISE = "noise"

KINDS = (SCALAR, HODGE_FULL, HODGE_DIV, HODGE_CURL, HODGE_COMPOSITIONAL, PROJECTED, NOISE)

_FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class MaternParams:
    """Matern hyperparameters: smoothness, length scale, variance, noise.

    ``nu = inf`` selects the heat (squared-exponential) limit.
    """

    nu: float
    kappa: float
    variance: float = 1.0
    noise: float = 0.0

    def __post_init__(self):
        if not (self.nu > 0.0):
            raise InvalidInputError("nu must be positive (inf allowed)")
        if not (self.kappa > 0.0):
            raise InvalidInputError("kappa must be positive")
        if not (self.variance > 0.0):
            raise InvalidInputError("variance must be positive")
        if self.noise < 0.0:
            raise InvalidInputError("noise variance must be nonnegative")


def phi(nu, kappa, lam, dim):
    """Matern spectral weight Phi_{nu, kappa}(lambda) on a dim-manifold.

    (2 nu / kappa^2 + lambda)^(-nu - dim/2) for finite nu, the heat weight
    exp(-kappa^2 lambda / 2) for nu = inf. Strictly decreasing in lambda.
    """
    if kappa <= 0.0:
        raise InvalidInputError("kappa must be positive")
    lam = np.asarray(lam, dtype=np.float64)
    if np.any(lam < 0.0):
        raise InvalidInputError("eigenvalues must be nonnegative")
    if math.isinf(nu):
        out = np.exp(-0.5 * kappa ** 2 * lam)
    else:
        out = (2.0 * nu / kappa ** 2 + lam) ** (-nu - 0.5 * dim)
    return float(out) if out.ndim == 0 else out


def log_phi(nu, kappa, lam, dim):
    """log Phi_{nu, kappa}(lambda); usable where Phi itself underflows."""
    if kappa <= 0.0:
        raise InvalidInputError("kappa must be positive")
    lam = np.asarray(lam, dtype=np.float64)
    if math.isinf(nu):
        return -0.5 * kappa ** 2 * lam
    return -(nu + 0.5 * dim) * np.log(2.0 * nu / kappa ** 2 + lam)


def stable_phi_ratios(nu, kappa, lam, dim):
    """Phi(lambda) rescaled by its maximum over lam.

    Kernels only ever use the ratios Phi / sum(Phi); factoring out the
    largest weight keeps them well-defined at extreme length scales where
    the raw weights underflow (e.g. the heat weight at kappa = 100).
    """
    lw = log_phi(nu, kappa, lam, dim)
    if lw.size == 0:
        return lw
    return np.exp(lw - lw.max())


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """A kernel family pinned to a manifold and a truncation level.

    ``params`` drives every kind except the compositional one, which carries
    an independent (kappa, variance) pair per Hodge class in ``parts`` with a
    shared nu. ``coreg`` is the optional 3x3 coregionalization matrix of the
    projected kernel (identity when omitted). Sphere kernels truncate at
    harmonic level ``lmax``; torus kernels at eigenvalue ``lambda_cap``.
    """

    kind: str
    params: MaternParams = None
    manifold: str = SPHERE
    parts: dict = None
    coreg: np.ndarray = None
    lmax: int = 30
    lambda_cap: float = 900.0
    torus_dim: int = 2

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidInputError(f"unknown kernel kind {self.kind!r}")
        if self.kind == HODGE_COMPOSITIONAL:
            if not self.parts:
                raise InvalidInputError("compositional kernel needs per-class parts")
            nus = {p.nu for p in self.parts.values()}
            if len(nus) != 1:
                raise InvalidInputError("compositional parts must share nu")
            if self.manifold == SPHERE and HARM in self.parts:
                raise InvalidInputError("the sphere has no harmonic class")
        elif self.kind != NOISE and self.params is None:
            raise InvalidInputError(f"kernel kind {self.kind!r} needs params")
        if self.coreg is not None:
            a = np.asarray(self.coreg, dtype=np.float64)
            if a.shape != (3, 3):
                raise InvalidInputError("coregionalization matrix must be 3x3")
            a.flags.writeable = False
            object.__setattr__(self, "coreg", a)

    @property
    def dim(self):
        if self.manifold == SPHERE:
            return 2
        if self.manifold == CIRCLE:
            return 1
        return self.torus_dim

    @property
    def ambient_dim(self):
        return 3 if self.manifold == SPHERE else self.dim

    @property
    def noise_variance(self):
        if self.kind == HODGE_COMPOSITIONAL:
            return next(iter(self.parts.values())).noise
        return self.params.noise if self.params is not None else 0.0


def noise_spec(noise, manifold=SPHERE, torus_dim=2):
    """Pure-noise baseline: the zero kernel plus observation noise."""
    params = MaternParams(nu=0.5, kappa=1.0, variance=1.0, noise=noise)
    return KernelSpec(NOISE, params, manifold=manifold, torus_dim=torus_dim)


def compositional_spec(nu, div_part, curl_part, harm_variance=None, noise=0.0,
                       manifold=SPHERE, lmax=30, lambda_cap=900.0, torus_dim=2):
    """Hodge-compositional kernel from per-class (kappa, variance) pairs."""
    parts = {
        DIV: MaternParams(nu, div_part[0], div_part[1], noise),
        CURL: MaternParams(nu, curl_part[0], curl_part[1], noise),
    }
    if harm_variance is not None:
        parts[HARM] = MaternParams(nu, 1.0, harm_variance, noise)
    return KernelSpec(HODGE_COMPOSITIONAL, manifold=manifold, parts=parts,
                      lmax=lmax, lambda_cap=lambda_cap, torus_dim=torus_dim)


# ---------------------------------------------------------------------------
# Normalization constants
# ---------------------------------------------------------------------------

def _sphere_phi_levels(nu, kappa, lmax):
    l = np.arange(lmax + 1, dtype=np.float64)
    return phi(nu, kappa, l * (l + 1.0), 2)


def sphere_norm_constant(which, nu, kappa, lmax):
    """Closed-form multiplicity sums for the sphere normalization constant.

    which: 'scalar' sums (2l+1) Phi over l >= 0; 'div' or 'curl' over l >= 1;
    'full' doubles the div sum. All divided by the volume 4 pi.
    """
    w = _sphere_phi_levels(nu, kappa, lmax)
    mult = 2.0 * np.arange(lmax + 1) + 1.0
    if which == "scalar":
        return float((mult * w).sum() / _FOUR_PI)
    if which in (DIV, CURL):
        return float((mult[1:] * w[1:]).sum() / _FOUR_PI)
    if which == "full":
        return float(2.0 * (mult[1:] * w[1:]).sum() / _FOUR_PI)
    raise InvalidInputError(f"unknown class {which!r}")


def normalization(spec, spectrum=None):
    """Normalization constant(s) C of a kernel spec over a truncated spectrum.

    C = (1/vol M) * sum of Phi over the eigenfields of the spec's class(es).
    Returns a float, or a per-class dict for the compositional kernel.
    Raises when the requested class is empty on the manifold.
    """
    if spec.kind == SCALAR:
        if spectrum is None and spec.manifold == SPHERE:
            return sphere_norm_constant("scalar", spec.params.nu, spec.params.kappa, spec.lmax)
        lam = spectrum.scalar_eigenvalues()
        return float(phi(spec.params.nu, spec.params.kappa, lam, spectrum.dim).sum()
                     / spectrum.volume)
    if spec.kind == PROJECTED:
        # normalized through the scalar kernel it stacks
        return normalization(KernelSpec(SCALAR, spec.params, manifold=spec.manifold,
                                        lmax=spec.lmax, lambda_cap=spec.lambda_cap,
                                        torus_dim=spec.torus_dim), spectrum)
    if spec.kind == NOISE:
        raise InvalidInputError("the pure-noise kernel has no spectral class")

    if spectrum is None:
        if spec.manifold != SPHERE:
            spectrum = torus_spectrum(spec.dim, spec.lambda_cap)
        else:
            if spec.kind == HODGE_COMPOSITIONAL:
                return {cls: sphere_norm_constant(cls, p.nu, p.kappa, spec.lmax)
                        for cls, p in spec.parts.items()}
            which = {HODGE_FULL: "full", HODGE_DIV: DIV, HODGE_CURL: CURL}[spec.kind]
            return sphere_norm_constant(which, spec.params.nu, spec.params.kappa, spec.lmax)

    lam = spectrum.eigenvalues()
    classes = np.array([e.hodge_class for e in spectrum.entries])

    def class_sum(cls, p):
        mask = classes == cls if cls != "all" else np.ones(len(lam), dtype=bool)
        if not mask.any():
            raise InvalidInputError(f"empty eigenfield class {cls!r} on {spectrum.manifold}")
        return float(phi(p.nu, p.kappa, lam[mask], spectrum.dim).sum() / spectrum.volume)

    if spec.kind == HODGE_FULL:
        return class_sum("all", spec.params)
    if spec.kind == HODGE_DIV:
        return class_sum(DIV, spec.params)
    if spec.kind == HODGE_CURL:
        return class_sum(CURL, spec.params)
    if spec.kind == HODGE_COMPOSITIONAL:
        return {cls: class_sum(cls, p) for cls, p in spec.parts.items()}
    raise InvalidInputError(f"no normalization for kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# Sphere kernels via the addition theorem, in tangent-frame coordinates
# ---------------------------------------------------------------------------

def scalar_pair_sums(params, lmax, t):
    """Normalized scalar kernel values at an array of inner products t."""
    l = np.arange(lmax + 1, dtype=np.float64)
    w = stable_phi_ratios(params.nu, params.kappa, l * (l + 1.0), 2)
    mult = 2.0 * l + 1.0
    w0 = params.variance * (mult * w) / (mult * w).sum()
    z = np.zeros_like(w0)
    s0, _, _ = legendre_sums(np.ravel(t), w0, z, z)
    return s0.reshape(np.shape(t))


def hodge_pair_sums(nu, kappa, lmax, t):
    """(S1, S2): weighted Legendre-derivative sums of the div-kernel expansion.

    With h_l(t) = (2l+1) Phi(lambda_l) / (4 pi lambda_l) P_l(t), returns
    sum_l h_l'(t) and sum_l h_l''(t) for l = 1..lmax, normalized so that the
    divergence-class kernel with unit variance is S2 * rank-one + S1 * P P.
    """
    l = np.arange(1, lmax + 1, dtype=np.float64)
    lam = l * (l + 1.0)
    w = stable_phi_ratios(nu, kappa, lam, 2)
    coeff = np.zeros(lmax + 1)
    coeff[1:] = (2.0 * l + 1.0) * w / lam / ((2.0 * l + 1.0) @ w)
    z = np.zeros_like(coeff)
    _, s1, s2 = legendre_sums(np.ravel(t), z, coeff, coeff)
    return s1.reshape(np.shape(t)), s2.reshape(np.shape(t))


def _rotate_frame_blocks(blocks):
    """Conjugate 2x2 blocks by the in-plane 90-degree rotation J.

    Turns divergence-class blocks into curl-class blocks (the curl kernel is
    the div kernel conjugated by the Hodge star at both arguments).
    """
    out = np.empty_like(blocks)
    out[..., 0, 0] = blocks[..., 1, 1]
    out[..., 0, 1] = -blocks[..., 1, 0]
    out[..., 1, 0] = -blocks[..., 0, 1]
    out[..., 1, 1] = blocks[..., 0, 0]
    return out


def _sphere_div_blocks(nu, kappa, variance, lmax, X, BX, Y, BY):
    t = X @ Y.T
    s1, s2 = hodge_pair_sums(nu, kappa, lmax, t)
    u = np.einsum("nka,ma->nmk", BX, Y)   # B_x^T P_x y  (P drops in the frame)
    v = np.einsum("mka,na->nmk", BY, X)   # B_y^T P_y x
    w = np.einsum("nka,mla->nmkl", BX, BY)
    return variance * (s2[:, :, None, None] * u[:, :, :, None] * v[:, :, None, :]
                       + s1[:, :, None, None] * w)


def sphere_frame_blocks(spec, X, BX, Y, BY):
    """(n, m, 2, 2) blocks B_x k(x, y) B_y^T of a sphere kernel in given frames.

    This is the only sphere vector-kernel evaluator: the div-class kernel
    grad_x grad_y^T g of the scalar potential g, its Hodge-star conjugate for
    the curl class, and (1/2) k B_x A A^T B_y^T for the projected kernel.
    """
    if spec.kind == NOISE:
        return np.zeros((X.shape[0], Y.shape[0], 2, 2))
    if spec.kind == PROJECTED:
        ks = scalar_pair_sums(spec.params, spec.lmax, X @ Y.T)
        a = spec.coreg if spec.coreg is not None else np.eye(3)
        geom = np.einsum("nka,ab,mlb->nmkl", BX, a @ a.T, BY)
        return 0.5 * ks[:, :, None, None] * geom
    if spec.kind == HODGE_COMPOSITIONAL:
        pd, pc = spec.parts[DIV], spec.parts[CURL]
        d = _sphere_div_blocks(pd.nu, pd.kappa, pd.variance, spec.lmax, X, BX, Y, BY)
        c = _sphere_div_blocks(pc.nu, pc.kappa, pc.variance, spec.lmax, X, BX, Y, BY)
        return d + _rotate_frame_blocks(c)
    if spec.kind not in (HODGE_DIV, HODGE_CURL, HODGE_FULL):
        raise InvalidInputError(f"kernel kind {spec.kind!r} not supported on the sphere")
    p = spec.params
    d = _sphere_div_blocks(p.nu, p.kappa, p.variance, spec.lmax, X, BX, Y, BY)
    if spec.kind == HODGE_DIV:
        return d
    if spec.kind == HODGE_CURL:
        return _rotate_frame_blocks(d)
    return 0.5 * (d + _rotate_frame_blocks(d))


def hodge_matern_sphere(spec, x, y):
    """3x3 ambient kernel matrix of a Hodge-Matern kernel at one point pair."""
    return kernel_matrix(spec, np.asarray(x)[None, :], np.asarray(y)[None, :])[0, 0]


def scalar_matern_sphere(params, lmax, x, y):
    """Normalized scalar Matern kernel on S2 via the addition theorem."""
    t = float(np.asarray(x) @ np.asarray(y))
    return float(scalar_pair_sums(params, lmax, np.array([t]))[0])


def projected_matern(params, A, x, y, lmax=30):
    """3x3 projected Matern kernel (1/2) k P_x A A^T P_y at one point pair.

    ``A`` is the 3x3 coregionalization matrix (identity when None).
    """
    spec = KernelSpec(PROJECTED, params, coreg=A, lmax=lmax)
    return kernel_matrix(spec, np.asarray(x)[None, :], np.asarray(y)[None, :])[0, 0]


# ---------------------------------------------------------------------------
# Tori
# ---------------------------------------------------------------------------

def scalar_matern_torus(params, d, lambda_cap, x, y):
    """Normalized scalar Matern kernel on T^d.

    The sums over the per-axis sine/cosine parities collapse to products of
    cos(n_j (theta_j - theta_j')); only distinct frequency vectors are
    iterated.
    """
    spec = torus_spectrum(d, lambda_cap)
    m = _scalar_torus_matrix(params, spec, np.atleast_2d(x), np.atleast_2d(y))
    return float(m[0, 0]) if np.asarray(x).ndim == 1 else m


def _scalar_torus_matrix(params, spectrum, X, Y):
    two_pi = 2.0 * math.pi
    freqs = spectrum.unique_freqs()
    lam = (freqs.astype(np.float64) ** 2).sum(axis=1)
    w = stable_phi_ratios(params.nu, params.kappa, lam, spectrum.dim)
    mult = np.prod(np.where(freqs > 0, 2.0, 1.0), axis=1)
    c = (mult * w).sum() / spectrum.volume
    delta = X[:, None, :] - Y[None, :, :]
    out = np.zeros((X.shape[0], Y.shape[0]))
    for fvec, wi in zip(freqs, w):
        prod = np.ones_like(out)
        for j, nj in enumerate(fvec):
            if nj == 0:
                prod /= two_pi
            else:
                prod *= np.cos(nj * delta[:, :, j]) / math.pi
        out += wi * prod
    return params.variance / c * out


def torus_matern(params, lambda_cap, x, y, d=None, kind=HODGE_FULL):
    """Vector Hodge-Matern kernel value on T^d at one point pair.

    The full kernel is (1/d) k_scalar I_d. The divergence-free and curl-free
    variants exist on T^2 only and are evaluated by the spectral oracle over
    the classified product spectrum.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise InvalidInputError("torus kernel needs two points of equal dimension")
    if d is None:
        d = x.shape[0]
    if d != x.shape[0]:
        raise InvalidInputError(f"points have dimension {x.shape[0]}, expected {d}")
    if kind == HODGE_FULL:
        ks = scalar_matern_torus(params, d, lambda_cap, x[None, :], y[None, :])
        return float(ks[0, 0]) / d * np.eye(d)
    spec = KernelSpec(kind, params, manifold=TORUS if d > 1 else CIRCLE,
                      lambda_cap=lambda_cap, torus_dim=d)
    spectrum = torus_spectrum(d, lambda_cap)
    w = class_weights(spec, spectrum)
    return spectral_kernel_oracle(w, spectrum, x[None, :], y[None, :])[0, 0]


# ---------------------------------------------------------------------------
# Spectral oracle: direct sums over eigenfields
# ---------------------------------------------------------------------------

def class_weights(spec, spectrum):
    """Per-eigenfield weights sigma^2 Phi(lambda) / C of a kernel spec.

    Aligned with ``spectrum.entries``. The projected kernel is not diagonal
    in the eigenfield basis and is rejected.
    """
    lam = spectrum.eigenvalues()
    classes = np.array([e.hodge_class for e in spectrum.entries])
    w = np.zeros(len(lam))
    if spec.kind == NOISE:
        return w

    def fill(mask, p):
        if not mask.any():
            raise InvalidInputError(f"empty eigenfield class on {spectrum.manifold}")
        ratios = stable_phi_ratios(p.nu, p.kappa, lam[mask], spectrum.dim)
        # sigma^2 Phi / C with C = sum(Phi) / vol, in underflow-safe ratios
        w[mask] = p.variance * spectrum.volume * ratios / ratios.sum()

    if spec.kind == HODGE_COMPOSITIONAL:
        for cls, p in spec.parts.items():
            fill(classes == cls, p)
        return w
    if spec.kind in (HODGE_FULL, HODGE_DIV, HODGE_CURL):
        if spec.kind == HODGE_FULL:
            mask = np.ones(len(lam), dtype=bool)
        else:
            mask = classes == (DIV if spec.kind == HODGE_DIV else CURL)
        fill(mask, spec.params)
        return w
    raise InvalidInputError(f"kind {spec.kind!r} has no per-eigenfield weights")


def spectral_kernel_oracle(weights, spectrum, X, Y):
    """(n, m, D, D) kernel matrix as the direct sum over eigenfields.

    Reference implementation used to validate the fast paths; also the
    production route for T^2 class-restricted kernels.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if len(weights) != len(spectrum.entries):
        raise InvalidInputError("one weight per spectrum entry required")
    ex = spectrum.eigenfield_values(np.atleast_2d(X))
    ey = spectrum.eigenfield_values(np.atleast_2d(Y))
    return np.einsum("f,fna,fmb->nmab", weights, ex, ey, optimize=True)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def kernel_matrix(spec, X, Y=None):
    """(n, m, D, D) vector-kernel matrix for any spec on its manifold.

    Sphere matrices are ambient 3x3 blocks, lifted from the frame blocks of
    ``sphere_frame_blocks``; torus matrices are d x d blocks in the global
    frame.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = X if Y is None else np.atleast_2d(np.asarray(Y, dtype=np.float64))
    if spec.kind == NOISE:
        d = spec.ambient_dim
        return np.zeros((X.shape[0], Y.shape[0], d, d))
    if spec.manifold == SPHERE:
        if spec.kind == SCALAR:
            raise InvalidInputError("scalar kernels have no vector kernel matrix")
        # the lift B_x^T F B_y of the frame blocks F is exact: B^T B = P_x
        BX = frames_at(X)
        BY = BX if Y is X else frames_at(Y)
        blocks = sphere_frame_blocks(spec, X, BX, Y, BY)
        return np.einsum("nka,nmkl,mlb->nmab", BX, blocks, BY)
    # tori
    spectrum = torus_spectrum(spec.dim, spec.lambda_cap)
    if spec.kind == HODGE_FULL:
        ks = _scalar_torus_matrix(spec.params, spectrum, X, Y)
        return ks[:, :, None, None] * np.eye(spec.dim)[None, None] / spec.dim
    if spec.kind in (HODGE_DIV, HODGE_CURL, HODGE_COMPOSITIONAL):
        w = class_weights(spec, spectrum)
        return spectral_kernel_oracle(w, spectrum, X, Y)
    raise InvalidInputError(f"kernel kind {spec.kind!r} is not defined on {spec.manifold}")


def scalar_kernel_matrix(spec, X, Y=None):
    """(n, m) scalar-kernel matrix for a scalar spec."""
    if spec.kind != SCALAR:
        raise InvalidInputError("scalar_kernel_matrix needs a scalar spec")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = X if Y is None else np.atleast_2d(np.asarray(Y, dtype=np.float64))
    if spec.manifold == SPHERE:
        return scalar_pair_sums(spec.params, spec.lmax, X @ Y.T)
    spectrum = torus_spectrum(spec.dim, spec.lambda_cap)
    return _scalar_torus_matrix(spec.params, spectrum, X, Y)
