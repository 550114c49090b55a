"""Matern covariance kernels for scalar and tangential-vector Gaussian fields.

All kernels are finite spectral sums

    k(x, x') = (sigma^2 / C) * sum_n Phi(lambda_n) s_n(x) (x) s_n(x'),

where Phi is the Matern spectral weight, the s_n are Laplacian eigenpairs of
the manifold, and C normalizes the volume-averaged trace of k(x, x) to
sigma^2 over the same truncation.

Only this module evaluates kernels. ``frame_blocks`` gives the blocks
B_x k(x, y) B_y^T of every vector kernel: on the sphere in tangent frames,
where the sums over the order m collapse through the Legendre addition
theorem, so vector kernels need only the first two derivatives of P_l(x . y);
on T^d in the global frame, as one lattice sum over frequencies n of
cos(n . (x - y)) M_n. ``diagonal_frame_blocks`` is its diagonal in O(m), and
ambient 3x3 matrices are the lift of the sphere blocks. A direct sum over
eigenfields is kept as the slow reference that tests compare against.

On the sphere the derivative sums are Legendre series themselves (exact
integer maps of the weights), so each evaluation is one pass of the P_l
recurrence over all of its pair sums, and the pair geometry comes from
matrix products of the stacked frames.
"""

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._accel import _contract_levels, legendre_derivative_maps, legendre_sums, legendre_table
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
        if not isinstance(self.lmax, numbers.Integral) or self.lmax < 0:
            raise InvalidInputError(f"lmax must be a nonnegative integer, got {self.lmax!r}")
        if not (math.isfinite(self.lambda_cap) and self.lambda_cap >= 0.0):
            raise InvalidInputError(f"lambda_cap must be finite and nonnegative, "
                                    f"got {self.lambda_cap!r}")
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

def _dlog_phi_dlog_kappa(nu, kappa, lam, dim):
    """d log Phi_{nu, kappa}(lambda) / d log kappa.

    4 nu (nu + dim/2) / (2 nu + kappa^2 lambda) for finite nu, -kappa^2 lambda
    for the heat weight.
    """
    if math.isinf(nu):
        return -kappa ** 2 * lam
    return 4.0 * nu * (nu + 0.5 * dim) / (2.0 * nu + kappa ** 2 * lam)


def _level_weights(nu, kappa, lmax, first):
    """(2, lmax + 1) weights c_l = (2l+1) Phi(lambda_l) / sum_{k >= first} (2k+1) Phi(lambda_k)
    for l >= first (zero below), then their derivatives by log kappa.

    With g_l = d log Phi(lambda_l) / d log kappa, dc_l / d log kappa = c_l (g_l - <g>),
    where <g> = sum_l c_l g_l: the normalizer centres g.
    """
    l = np.arange(first, lmax + 1, dtype=np.float64)
    lam = l * (l + 1.0)
    c = (2.0 * l + 1.0) * stable_phi_ratios(nu, kappa, lam, 2)
    c /= c.sum()
    g = _dlog_phi_dlog_kappa(nu, kappa, lam, 2)
    out = np.zeros((2, lmax + 1))
    out[0, first:] = c
    out[1, first:] = c * (g - c @ g)
    return out


def scalar_pair_sums(params, lmax, t):
    """Normalized scalar kernel values at an array of inner products t."""
    return legendre_sums(t, _part_sum_weights(PROJECTED, params, lmax)[0])[0]


def hodge_pair_sums(nu, kappa, lmax, t):
    """(S1, S2): weighted Legendre-derivative sums of the div-kernel expansion.

    With h_l(t) = (2l+1) Phi(lambda_l) / (4 pi lambda_l) P_l(t), returns
    sum_l h_l'(t) and sum_l h_l''(t) for l = 1..lmax, normalized so that the
    divergence-class kernel with unit variance is S2 * rank-one + S1 * P P.
    Both are Legendre series in P_l(t), from one pass.
    """
    return tuple(legendre_sums(t, _part_sum_weights(HODGE_DIV, MaternParams(nu, kappa), lmax)[0]))


def _sphere_parts(spec):
    """[(kind, params)] of the separately weighted parts of a sphere spec: the div
    then the curl class of the compositional kind, else the spec itself."""
    if spec.kind == HODGE_COMPOSITIONAL:
        return [(HODGE_DIV, spec.parts[DIV]), (HODGE_CURL, spec.parts[CURL])]
    return [(spec.kind, spec.params)]


def _part_sum_weights(kind, params, lmax):
    """(2, k, lmax + 1) Legendre weights of a part's k pair sums, then their
    derivatives by log kappa.

    The projected kind has one sum (k = 1), the scalar kernel with weights
    sigma^2 c_l. The Hodge kinds have (S1, S2): the integer maps of the
    div-kernel potential's weights c_l / lambda_l (zero at l = 0), whose
    variance enters at assembly.
    """
    if kind == PROJECTED:
        return params.variance * _level_weights(params.nu, params.kappa, lmax, 0)[:, None]
    c = _level_weights(params.nu, params.kappa, lmax, 1)
    l = np.arange(1, lmax + 1, dtype=np.float64)
    c[:, 1:] /= l * (l + 1.0)
    maps = legendre_derivative_maps(lmax)
    return np.stack([maps @ row for row in c])


def _sphere_sum_weights(spec):
    """(k, lmax + 1) Legendre weights of every pair sum of spec's kind, one row each.

    The scalar kernel for the projected kind; (S1, S2) of the Hodge kinds,
    for the div part then the curl part of the compositional kind.
    """
    return np.concatenate([_part_sum_weights(kind, p, spec.lmax)[0]
                           for kind, p in _sphere_parts(spec)])


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


_SPHERE_KINDS = (HODGE_FULL, HODGE_DIV, HODGE_CURL, HODGE_COMPOSITIONAL, PROJECTED)
_BLOCK_PAIRS = 1 << 16   # point pairs per block that frame_blocks assembles at once


def _sphere_pair_geometry(spec, X, BX, Y, BY, diagonal=False):
    """The hyperparameter-free pair factors of the sphere frame blocks of spec's kind.

    (B_x A A^T B_y^T,) for the projected kind; for the Hodge kinds
    (u v^T, B_x B_y^T) with u = B_x^T P_x y and v = B_y^T P_y x (P drops in
    the frame). Each is (n, m, 2, 2), from matrix products of the stacked
    (2n, 3) and (2m, 3) frames; with ``diagonal`` only the pairs (x_i, y_i),
    each (n, 2, 2).
    """
    if spec.kind == PROJECTED:
        a = spec.coreg if spec.coreg is not None else np.eye(3)
        BX = BX @ (a @ a.T)
    if diagonal:
        bb = np.einsum("nka,nla->nkl", BX, BY)
        if spec.kind == PROJECTED:
            return (bb,)
        u = np.einsum("nka,na->nk", BX, Y)
        v = np.einsum("nka,na->nk", BY, X)
        return u[:, :, None] * v[:, None, :], bb
    n, m = BX.shape[0], BY.shape[0]
    bx, by = BX.reshape(2 * n, 3), BY.reshape(2 * m, 3)
    bb = (bx @ by.T).reshape(n, 2, m, 2).transpose(0, 2, 1, 3)
    if spec.kind == PROJECTED:
        return (bb,)
    u = (bx @ Y.T).reshape(n, 2, m).transpose(0, 2, 1)
    v = (X @ by.T).reshape(n, m, 2)
    # uv and bb sit in memory as (n, 2, m, 2), the Gram matrix layout, so the
    # blocks assembled from them reshape to the Gram without a copy
    return u[..., :, None] * v[..., None, :], bb


def _assemble_sphere_blocks(parts, geom, sums):
    """(..., 2, 2) sphere frame blocks of the summed parts from the pair geometry and pair sums.

    ``parts`` is a list of (kind, params) as ``_sphere_parts`` gives, and
    ``sums`` holds the pair sums of their rows of ``_part_sum_weights`` in
    order: the scalar kernel for the projected kind, (S1, S2) for the Hodge
    kinds. The div class is grad_x grad_y^T g of the scalar potential g,
    the curl class its Hodge-star conjugate, and the projected kernel
    (1/2) k B_x A A^T B_y^T.
    """
    rows = len(sums) // len(parts)
    out = None
    for i, (kind, p) in enumerate(parts):
        s = sums[i * rows:(i + 1) * rows]
        if kind == PROJECTED:
            b = 0.5 * s[0][..., None, None] * geom[0]
        else:
            uv, bb = geom
            b = s[1][..., None, None] * uv
            b += s[0][..., None, None] * bb
            b *= p.variance
            if kind == HODGE_CURL:
                b = _rotate_frame_blocks(b)
            elif kind == HODGE_FULL:
                b = 0.5 * (b + _rotate_frame_blocks(b))
        out = b if out is None else out + b
    return out


def _gram_layout_blocks(parts, geom, sums):
    """(n, m, 2, 2) sphere frame blocks of the summed parts from the (n, m) pair
    geometry and pair sums, assembled a few rows at a time (small temporaries)
    into the Gram layout (n, 2, m, 2), which gp reshapes to the Gram without a copy."""
    n, m = sums.shape[1:]
    out = np.empty((n, 2, m, 2))
    step = max(1, _BLOCK_PAIRS // max(1, m))
    for start in range(0, n, step):
        rows = slice(start, start + step)
        blocks = _assemble_sphere_blocks(parts, [g[rows] for g in geom], sums[:, rows])
        out[rows] = blocks.transpose(0, 2, 1, 3)
    return out.transpose(0, 2, 1, 3)


def frame_blocks(spec, X, BX, Y, BY):
    """(n, m, D, D) blocks B_x k(x, y) B_y^T of a vector kernel in given frames.

    On the sphere BX and BY are (n, 2, 3) and (m, 2, 3) tangent frames; on
    T^d the blocks are in the global frame and the frames are ignored. This
    is the one-shot evaluator of every vector kernel; ``GramTables`` runs the
    same contraction and assembly over a kept table of P_l.
    """
    if spec.kind == SCALAR:
        raise InvalidInputError("scalar kernels have no vector kernel matrix")
    if spec.manifold != SPHERE:
        return _torus_matrix(spec, X, Y)
    if spec.kind == NOISE:
        return np.zeros((X.shape[0], Y.shape[0], 2, 2))
    geom = _sphere_pair_geometry(spec, X, BX, Y, BY)
    return _gram_layout_blocks(_sphere_parts(spec), geom,
                               legendre_sums(X @ Y.T, _sphere_sum_weights(spec)))


def diagonal_frame_blocks(spec, X, BX):
    """(m, D, D) blocks B_x k(x, x) B_x^T at each point, in O(m).

    The diagonal of ``frame_blocks(spec, X, BX, X, BX)`` without the m x m
    Gram: on the sphere the same assembly at the pairs (x, x), with the pair
    sums at t = 1 (there u = v = 0); elsewhere one block serves every point.
    """
    if spec.manifold == SPHERE and spec.kind in _SPHERE_KINDS:
        geom = _sphere_pair_geometry(spec, X, BX, X, BX, diagonal=True)
        sums = legendre_sums(np.ones(1), _sphere_sum_weights(spec))
        return _assemble_sphere_blocks(_sphere_parts(spec), geom, sums)
    # tori are stationary and the noise kernel is zero: evaluate at one point
    origin = np.zeros((1, X.shape[1]))
    return np.repeat(frame_blocks(spec, origin, BX, origin, BX)[0], X.shape[0], axis=0)


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

class _Lattice(NamedTuple):
    """Half lattice of a torus spec: frequencies, pair multiplicities, |n|^2,
    and per-class Hodge projectors Pi_cls(n) with their ranks tr Pi_cls(n)."""

    n: np.ndarray
    mult: np.ndarray
    lam: np.ndarray
    proj: dict
    rank: dict


def _torus_lattice(spec):
    """The hyperparameter-free half lattice |n|^2 <= lambda_cap of a torus spec.

    mult_n = 2 pairs n with -n (n != 0).
    """
    r = math.ceil(math.sqrt(spec.lambda_cap))
    n = np.indices((2 * r + 1,) * spec.dim).reshape(spec.dim, -1).T - r
    first = n[np.arange(len(n)), np.argmax(n != 0, axis=1)]   # first nonzero entry
    keep = ((n ** 2).sum(axis=1) <= spec.lambda_cap) & (first >= 0)
    n, mult = n[keep].astype(np.float64), np.where(first[keep] > 0, 2.0, 1.0)
    lam = (n ** 2).sum(axis=1)
    zero = (lam == 0.0)[:, None, None]
    eye = np.eye(spec.dim)
    div = n[:, :, None] * n[:, None, :] / np.where(zero, 1.0, lam[:, None, None])
    # Hodge-class projectors; the full kernel has Pi = I and the scalar one Pi = 1
    proj = {SCALAR: np.ones((len(n), 1, 1)), HODGE_FULL: np.broadcast_to(eye, div.shape),
            DIV: div, CURL: np.where(zero, 0.0, eye - div), HARM: np.where(zero, eye, 0.0)}
    # eigenfields per frequency
    rank = {c: np.rint(np.trace(p, axis1=1, axis2=2)) for c, p in proj.items()}
    return _Lattice(n, mult, lam, proj, rank)


def _lattice_part_weights(spec, lattice):
    """[(cls, W, dW)] per Hodge-class part of a torus spec over its half lattice.

    W = mult_n sigma^2 Phi(|n|^2) Pi_cls(n) / Z_cls (F, D, D) with
    Z_cls = sum_n Phi tr Pi_cls; the kernel's weights mult_n M_n are the sum
    of the parts' W. dW is the derivative of W by log kappa,
    W_n (g_n - <g>) with g = d log Phi / d log kappa and <g> its mean under
    the normalizer's weights Phi tr Pi_cls.
    """
    cls = {HODGE_DIV: DIV, HODGE_CURL: CURL}.get(spec.kind, spec.kind)
    parts = spec.parts if spec.kind == HODGE_COMPOSITIONAL else {cls: spec.params}
    if (not parts.keys() <= lattice.proj.keys()
            or (spec.dim > 2 and cls not in (SCALAR, HODGE_FULL))):
        raise InvalidInputError(f"kernel kind {spec.kind!r} is not defined on T^{spec.dim}")
    out = []
    for c, p in parts.items():
        rank = lattice.rank[c]
        if not rank.any():
            raise InvalidInputError(f"empty eigenfield class {c!r} on {spec.manifold}")
        lw = np.where(rank > 0, log_phi(p.nu, p.kappa, lattice.lam, spec.dim), -np.inf)
        phis = lattice.mult * np.exp(lw - lw.max())   # Phi ratios, safe where Phi underflows
        z = phis @ rank
        g = _dlog_phi_dlog_kappa(p.nu, p.kappa, lattice.lam, spec.dim)
        dphis = phis * (g - (phis * rank) @ g / z)
        out.append((c, p.variance * phis[:, None, None] * lattice.proj[c] / z,
                    p.variance * dphis[:, None, None] * lattice.proj[c] / z))
    return out


def _check_torus_points(spec, *arrays):
    """Raise InvalidInputError unless every array is (m, d) for spec's T^d."""
    for X in arrays:
        if X.ndim != 2 or X.shape[1] != spec.dim:
            raise InvalidInputError(f"points of shape {X.shape} are not on T^{spec.dim}")


def _lattice_features(X, n):
    """[cos XN^T, sin XN^T], (m, 2F)."""
    return np.hstack([np.cos(X @ n.T), np.sin(X @ n.T)])


def _lattice_sum(fx, fy, w):
    """(n, m, D, D) lattice sum sum_n cos(n . (x - y)) mult_n M_n from features.

    Entry (a, b) is one product [cos XN^T, sin XN^T] diag(M_ab, M_ab) [cos YN^T, sin YN^T]^T.
    """
    dd = range(w.shape[1])
    k = [[(fx * np.tile(w[:, a, b], 2)) @ fy.T for b in dd] for a in dd]
    return np.array(k).transpose(2, 3, 0, 1)


def _torus_matrix(spec, X, Y):
    """(n, m, D, D) torus kernel sum_n cos(n . (x - y)) M_n over the half lattice
    (zero for the noise kind), after checking the point dimension."""
    _check_torus_points(spec, X, Y)
    if spec.kind == NOISE:
        return np.zeros((X.shape[0], Y.shape[0], spec.dim, spec.dim))
    lattice = _torus_lattice(spec)
    w = sum(w for _, w, _ in _lattice_part_weights(spec, lattice))   # mult_n M_n
    fx = _lattice_features(X, lattice.n)
    fy = fx if Y is X else _lattice_features(Y, lattice.n)
    return _lattice_sum(fx, fy, w)


def scalar_matern_torus(params, d, lambda_cap, x, y):
    """Normalized scalar Matern kernel on T^d: a float for two points, else a matrix."""
    spec = KernelSpec(SCALAR, params, manifold=TORUS, lambda_cap=lambda_cap, torus_dim=d)
    m = scalar_kernel_matrix(spec, x, y)
    return float(m[0, 0]) if np.asarray(x).ndim == 1 else m


def torus_matern(params, lambda_cap, x, y, d=None, kind=HODGE_FULL):
    """Vector Hodge-Matern kernel value on T^d at one point pair.

    The full kernel is (1/d) k_scalar I_d; the circle (d = 1) has no curl class.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise InvalidInputError("torus kernel needs two points of equal dimension")
    if d is None:
        d = x.shape[0]
    if d != x.shape[0]:
        raise InvalidInputError(f"points have dimension {x.shape[0]}, expected {d}")
    spec = KernelSpec(kind, params, manifold=TORUS, lambda_cap=lambda_cap, torus_dim=d)
    return kernel_matrix(spec, x[None, :], y[None, :])[0, 0]


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

    The independent reference that tests and the benchmark compare the
    evaluators against; no kernel is computed through it.
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
    ``frame_blocks``; torus matrices are its d x d blocks in the global
    frame, summed over the frequency lattice.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = X if Y is None else np.atleast_2d(np.asarray(Y, dtype=np.float64))
    if spec.manifold != SPHERE:
        return frame_blocks(spec, X, None, Y, None)
    # the lift B_x^T F B_y of the frame blocks F is exact: B^T B = P_x
    BX = frames_at(X)
    BY = BX if Y is X else frames_at(Y)
    blocks = frame_blocks(spec, X, BX, Y, BY)
    return np.einsum("nka,nmkl,mlb->nmab", BX, blocks, BY)


def scalar_kernel_matrix(spec, X, Y=None):
    """(n, m) scalar-kernel matrix for a scalar spec."""
    if spec.kind != SCALAR:
        raise InvalidInputError("scalar_kernel_matrix needs a scalar spec")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = X if Y is None else np.atleast_2d(np.asarray(Y, dtype=np.float64))
    if spec.manifold == SPHERE:
        return scalar_pair_sums(spec.params, spec.lmax, X @ Y.T)
    return _torus_matrix(spec, X, Y)[:, :, 0, 0]


# ---------------------------------------------------------------------------
# One point set, many hyperparameters
# ---------------------------------------------------------------------------

class GramTables:
    """The hyperparameter-free factors of the (X, X) frame blocks of one kind.

    Built once for a point set, ``blocks_and_derivatives(spec)`` returns what
    ``frame_blocks`` gives at (X, X) for any spec of the kind, manifold and
    truncation it was built for, bit for bit, with the derivatives by the
    log-hyperparameters: only the per-level (sphere) or per-frequency (torus)
    weights are computed per spec. The sphere keeps the
    pair geometry and the ``legendre_table`` at the pairs, (lmax + 1) n^2
    floats, and contracts it as ``legendre_sums`` contracts its chunks: the
    routes differ only in keeping the table. The torus keeps the half lattice
    and the features [cos XN^T, sin XN^T].
    """

    def __init__(self, spec, X, frames=None):
        if spec.manifold == SPHERE:
            if spec.kind not in _SPHERE_KINDS:
                raise InvalidInputError(f"no Gram tables for kernel kind {spec.kind!r}")
            self._geom = _sphere_pair_geometry(spec, X, frames, X, frames)
            self._table = legendre_table(X @ X.T, spec.lmax)
        else:
            _check_torus_points(spec, X)
            self._lattice = _torus_lattice(spec)
            self._features = _lattice_features(X, self._lattice.n)

    def blocks_and_derivatives(self, spec):
        """(n, n, D, D) frame blocks of spec at the prepared points, and a dict of
        their derivatives by spec's log-hyperparameters, each a new array.

        Keys are ``log_kappa`` and ``log_variance``, suffixed ``_div``,
        ``_curl`` (and ``_harm`` on tori) per class of the compositional kind.
        Every kernel is linear in its per-level (per-frequency) weights, so a
        part's log-variance derivative is that part's blocks, and its
        log-kappa derivative the same contraction and assembly with the
        weights' log-kappa derivatives. The blocks equal ``frame_blocks`` at
        (X, X) bit for bit.
        """
        derivatives = {}
        if spec.manifold != SPHERE:
            f = self._features
            parts = _lattice_part_weights(spec, self._lattice)
            blocks = _lattice_sum(f, f, sum(w for _, w, _ in parts))
            for cls, w, dw in parts:
                suffix = f"_{cls}" if spec.kind == HODGE_COMPOSITIONAL else ""
                derivatives["log_variance" + suffix] = (
                    _lattice_sum(f, f, w) if len(parts) > 1 else blocks.copy())
                derivatives["log_kappa" + suffix] = _lattice_sum(f, f, dw)
            return blocks, derivatives
        parts = _sphere_parts(spec)
        suffixes = (f"_{DIV}", f"_{CURL}") if len(parts) > 1 else ("",)
        # rows: the value weights of every part, then their log-kappa derivatives
        weights = np.concatenate([_part_sum_weights(kind, p, spec.lmax) for kind, p in parts],
                                 axis=1)
        sums = _contract_levels(weights.reshape(-1, weights.shape[2]), self._table)
        sums = sums.reshape((2, len(parts), -1) + sums.shape[1:])
        blocks = 0.0
        for part, suffix, value, slope in zip(parts, suffixes, sums[0], sums[1]):
            own = _gram_layout_blocks([part], self._geom, value)
            derivatives["log_variance" + suffix] = own
            derivatives["log_kappa" + suffix] = _gram_layout_blocks([part], self._geom, slope)
            blocks = blocks + own   # a new array in the Gram layout, as frame_blocks sums parts
        return blocks, derivatives
