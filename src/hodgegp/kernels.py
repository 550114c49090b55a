"""Matern covariance kernels for scalar and tangential-vector Gaussian fields.

All kernels are finite spectral sums

    k(x, x') = (sigma^2 / C) * sum_n Phi(lambda_n) s_n(x) (x) s_n(x'),

where Phi is the Matern spectral weight, the s_n are Laplacian eigenpairs of
the manifold, and C normalizes the volume-averaged trace of k(x, x) to
sigma^2 over the same truncation.

A kernel is the sum of separately normalized parts, one per Hodge class it
covers; ``KernelSpec.classes`` is the one place that lists them, and every
evaluator, normalizer and sampler sums over that list.

Only this module evaluates kernels. ``frame_blocks`` gives the blocks
B_x k(x, y) B_y^T of every vector kernel: on the sphere in tangent frames,
where the sums over the order m collapse through the Legendre addition
theorem, so vector kernels need only the first two derivatives of P_l(x . y);
on T^d in the global frame, as one lattice sum over frequencies n of
cos(n . (x - y)) M_n. ``diagonal_frame_blocks`` is its diagonal in O(m), and
ambient 3x3 matrices are the lift of the sphere blocks. The draws scale by the
same level and lattice weights (``sphere_draw_scales``, ``lattice_draw_factors``).
A direct sum over eigenfields (``class_weights``, ``spectral_kernel_oracle``) is
kept as the slow reference that tests and the benchmark compare against.

On the sphere the derivative sums are Legendre series themselves (exact
integer maps of the weights), so each evaluation is one pass of the Legendre
table recurrence (lmax // 2 + 1 levels) over all of its pair sums, run over
cache-sized row blocks whose pair geometry and 2x2 blocks are contiguous
planes; a symmetric (X, X) Gram is evaluated on and below its diagonal only.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._accel import _contract_levels, legendre_derivative_maps, legendre_sums, legendre_table
from .errors import InvalidInputError, check_count
from .manifold import CIRCLE, SPHERE, TORUS, coordinates, frames_at
from .spectrum import CURL, DIV, HARM, sphere_spectrum, torus_spectrum

SCALAR = "scalar"
HODGE_FULL = "hodge-full"
HODGE_DIV = "hodge-div"
HODGE_CURL = "hodge-curl"
HODGE_COMPOSITIONAL = "hodge-compositional"
PROJECTED = "projected"
NOISE = "noise"

KINDS = (SCALAR, HODGE_FULL, HODGE_DIV, HODGE_CURL, HODGE_COMPOSITIONAL, PROJECTED, NOISE)


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
        check_kappa(self.nu, self.kappa)
        if not (0.0 < self.variance < math.inf):
            raise InvalidInputError("variance must be positive and finite")
        if not (0.0 <= self.noise < math.inf):
            raise InvalidInputError("noise variance must be nonnegative and finite")


def check_kappa(nu, kappa):
    """InvalidInputError unless kappa is positive and the Matern weight's scales, kappa^2
    and, for finite nu, 2 nu / kappa^2, are finite and nonzero."""
    k2 = float(kappa) * float(kappa)
    if not (kappa > 0.0 and 0.0 < k2 < math.inf
            and (math.isinf(nu) or 0.0 < abs(2.0 * float(nu) / k2) < math.inf)):
        raise InvalidInputError(f"kappa must be positive, with kappa^2 and 2 nu / kappa^2 finite "
                                f"and nonzero; got kappa {kappa!r} for nu {nu!r}")


def phi(nu, kappa, lam, dim):
    """Matern spectral weight Phi_{nu, kappa}(lambda) on a dim-manifold.

    (2 nu / kappa^2 + lambda)^(-nu - dim/2) for finite nu, the heat weight
    exp(-kappa^2 lambda / 2) for nu = inf. Strictly decreasing in lambda.
    """
    check_kappa(nu, kappa)
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
    check_kappa(nu, kappa)
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
    an independent (kappa, variance) pair per Hodge class in ``parts``: div
    and curl, and harm off the sphere, with a shared nu and noise. ``classes``
    lists the separately normalized parts of any kind. ``coreg`` is the
    optional 3x3 coregionalization matrix of the projected kernel (identity
    when omitted), which is defined on the sphere only. Sphere kernels
    truncate at harmonic level ``lmax``; torus kernels at eigenvalue
    ``lambda_cap``.
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
        if self.manifold not in (SPHERE, CIRCLE, TORUS):
            raise InvalidInputError(f"unknown manifold {self.manifold!r}")
        check_count("torus_dim", self.torus_dim, 1)
        check_count("lmax", self.lmax, 0)
        if not (math.isfinite(self.lambda_cap) and self.lambda_cap >= 0.0):
            raise InvalidInputError(f"lambda_cap must be finite and nonnegative, "
                                    f"got {self.lambda_cap!r}")
        if self.kind == HODGE_COMPOSITIONAL:
            allowed = {DIV, CURL} if self.manifold == SPHERE else {DIV, CURL, HARM}
            if not {DIV, CURL} <= set(self.parts or ()) <= allowed:
                raise InvalidInputError(f"compositional parts must be div and curl (and harm off "
                                        f"the sphere), got {list(self.parts or ())}")
            if len({(p.nu, p.noise) for p in self.parts.values()}) != 1:
                raise InvalidInputError("compositional parts must share nu and noise")
        elif self.kind != NOISE and self.params is None:
            raise InvalidInputError(f"kernel kind {self.kind!r} needs params")
        if self.kind == PROJECTED and self.manifold != SPHERE:
            raise InvalidInputError("the projected kernel is defined on the sphere only")
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

    @cached_property
    def classes(self):
        """((cls, params), ...) of the separately normalized parts, in class order.

        The compositional kind has one part per entry of ``parts`` (div, curl,
        harm); the div and curl kinds one of their class, the full kind one of
        class HODGE_FULL (every eigenfield) and the scalar and projected kinds
        one of class SCALAR. The noise kind has none. Built once per spec.
        """
        if self.kind == NOISE:
            return ()
        if self.kind == HODGE_COMPOSITIONAL:
            return tuple((c, self.parts[c]) for c in (DIV, CURL, HARM) if c in self.parts)
        return (({HODGE_DIV: DIV, HODGE_CURL: CURL, HODGE_FULL: HODGE_FULL}.get(self.kind, SCALAR),
                 self.params),)

    @property
    def noise_variance(self):
        """The observation noise variance, which every part shares (0 without params)."""
        params = self.classes[0][1] if self.classes else self.params
        return params.noise if params is not None else 0.0


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

def _class_parts(spec, spectrum):
    """[(cls, mask, params)]: the eigenfields of spectrum that each of ``spec.classes``
    sums over (every one for HODGE_FULL), with the part's hyperparameters.

    Raises for an empty class, for kinds that have no per-eigenfield weights and
    on tori of dimension > 2, whose spectra classify no eigenfields.
    """
    if not spec.classes or spec.classes[0][0] == SCALAR:
        raise InvalidInputError(f"kind {spec.kind!r} has no per-eigenfield weights")
    if spectrum.dim > 2:
        raise InvalidInputError("classified eigenfields are available for tori of dimension <= 2")
    classes = np.array([e.hodge_class for e in spectrum.entries])
    out = []
    for cls, p in spec.classes:
        mask = classes == cls if cls != HODGE_FULL else np.ones(len(classes), dtype=bool)
        if not mask.any():
            raise InvalidInputError(f"empty eigenfield class {cls!r} on {spectrum.manifold}")
        out.append((cls, mask, p))
    return out


def normalization(spec, spectrum=None):
    """Normalization constant(s) C of a kernel spec over a truncated spectrum.

    C = (1/vol M) * sum of Phi over the eigenfields of the spec's class(es);
    the scalar and projected kinds sum over the scalar eigenvalues. Without a
    spectrum the sum runs over the spec's own truncation. Returns a float, or
    a per-class dict for the compositional kernel. Raises when the requested
    class is empty on the manifold.
    """
    if spectrum is None:
        spectrum = (sphere_spectrum(spec.lmax) if spec.manifold == SPHERE
                    else torus_spectrum(spec.dim, spec.lambda_cap))
    if spec.kind in (SCALAR, PROJECTED):
        # the projected kernel is normalized through the scalar kernel it stacks
        lam, parts = spectrum.scalar_eigenvalues(), [(c, slice(None), p) for c, p in spec.classes]
    else:
        lam, parts = spectrum.eigenvalues(), _class_parts(spec, spectrum)
    sums = {cls: float(phi(p.nu, p.kappa, lam[mask], spectrum.dim).sum() / spectrum.volume)
            for cls, mask, p in parts}
    return sums if spec.kind == HODGE_COMPOSITIONAL else sums.popitem()[1]


# ---------------------------------------------------------------------------
# Sphere kernels via the addition theorem, in tangent-frame coordinates
# ---------------------------------------------------------------------------

def _log_phi_slope(nu, kappa, lam, dim):
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
    if lmax < first:   # a Hodge kernel at lmax 0: Y_00 has no gradient
        raise InvalidInputError(f"empty eigenfield class on the sphere at lmax {lmax}")
    l = np.arange(first, lmax + 1, dtype=np.float64)
    lam = l * (l + 1.0)
    c = (2.0 * l + 1.0) * stable_phi_ratios(nu, kappa, lam, 2)
    c /= c.sum()
    g = _log_phi_slope(nu, kappa, lam, 2)
    out = np.zeros((2, lmax + 1))
    out[0, first:] = c
    out[1, first:] = c * (g - c @ g)
    return out


def scalar_pair_sums(params, lmax, t):
    """Normalized scalar kernel values at an array of inner products t."""
    return legendre_sums(t, _part_sum_weights(SCALAR, params, lmax)[0])[0]


def hodge_pair_sums(nu, kappa, lmax, t):
    """(S1, S2): weighted Legendre-derivative sums of the div-kernel expansion.

    With h_l(t) = (2l+1) Phi(lambda_l) / (4 pi lambda_l) P_l(t), returns
    sum_l h_l'(t) and sum_l h_l''(t) for l = 1..lmax, normalized so that the
    divergence-class kernel with unit variance is S2 * rank-one + S1 * P P.
    Both are Legendre series in P_l(t), from one pass.
    """
    return tuple(legendre_sums(t, _part_sum_weights(DIV, MaternParams(nu, kappa), lmax)[0]))


def _part_sum_weights(cls, params, lmax):
    """(2, k, lmax + 1) Legendre weights of a part's k pair sums, then their
    derivatives by log kappa.

    The scalar class (of the projected kind) has one sum (k = 1), the scalar
    kernel with weights sigma^2 c_l. The Hodge classes have (S1, S2): the
    integer maps of the div-kernel potential's weights c_l / lambda_l (zero at
    l = 0), whose variance enters at assembly.
    """
    if cls == SCALAR:
        return params.variance * _level_weights(params.nu, params.kappa, lmax, 0)[:, None]
    c = _level_weights(params.nu, params.kappa, lmax, 1)
    l = np.arange(1, lmax + 1, dtype=np.float64)
    c[:, 1:] /= l * (l + 1.0)
    return np.matmul(legendre_derivative_maps(lmax), c.T).transpose(2, 0, 1)


def sphere_draw_scales(spec):
    """Standard deviations of a sphere spec's draw coefficients in ``SphereSpectrum.scalar``
    order: ((lmax + 1)^2,) of Y_lm (projected kind), else (2, lmax (lmax + 2)) of grad Y_lm
    and x cross grad Y_lm (l >= 1). By the addition theorem, sqrt(4 pi sigma^2 c_l / (2l + 1))
    with a part's ``_level_weights`` c_l gives the scalar kernel sigma^2 sum_l c_l P_l(x . y);
    a Hodge part divides by lambda_l = l (l + 1), as its potential does, and the full kind's
    one part spans both classes at half weight each.
    """
    first = 0 if spec.kind == PROJECTED else 1
    l = np.arange(first, spec.lmax + 1)
    variances = np.zeros((2, len(l)))   # rows: div (or scalar), curl
    for cls, p in spec.classes:
        v = 4.0 * math.pi * p.variance * _level_weights(p.nu, p.kappa, spec.lmax, first)[0, first:]
        v /= (2.0 * l + 1.0) * (1.0 if cls == SCALAR else l * (l + 1.0))
        if cls == HODGE_FULL:
            variances += 0.5 * v
        else:
            variances[int(cls == CURL)] = v
    scales = np.sqrt(np.repeat(variances, 2 * l + 1, axis=1))
    return scales[0] if spec.kind == PROJECTED else scales


def _sphere_sum_weights(spec):
    """(k, lmax + 1) Legendre weights of every pair sum of spec's parts, one row each,
    in ``spec.classes`` order: the scalar kernel of the projected kind, (S1, S2)
    of each Hodge class."""
    return np.concatenate([_part_sum_weights(cls, p, spec.lmax)[0] for cls, p in spec.classes])


_BLOCK_PAIRS = 1 << 13   # point pairs per block that frame_blocks assembles at once
# (gp's query-side block sizes, _QUERY_PAIRS and _DRAW_FLOATS, are documented in gp)
# the signs of J B J^T = [[B11, -B10], [-B01, B00]], J the in-plane 90-degree rotation
_STAR_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])[:, :, None, None]


def _frame_stacks(spec, X, BX, Y, BY):
    """(n, 3, 3) and (m, 3, 3) stacks of each point's rows (x, b_1, b_2): the point
    and its frame vectors. The projected kind's x-side frame vectors are B_x A A^T."""
    if spec.kind == PROJECTED:
        a = spec.coreg if spec.coreg is not None else np.eye(3)
        BX = BX @ (a @ a.T)
    return np.concatenate([X[:, None], BX], axis=1), np.concatenate([Y[:, None], BY], axis=1)


def _pair_planes(kind, sx, sy, rows, cols):
    """(t, u, v, bb): the stack rows (x, b_1, b_2) of x dotted with those of y at a block's
    pairs, the (r, c) plane t = x . y, the (2, r, c) planes u_k = b_k . y and
    v_l = x . b'_l, and the (2, 2, r, c) planes b_k . b'_l. The projected kind reads only
    t and bb, and gets None for u and v.

    One product of one shape per row of the block and group of planes: BLAS sums in
    an order that varies with the shape, and a pair's bits must not depend on the block.
    """
    if kind == PROJECTED:
        return _dot(sx[rows, :1], sy[cols, :1])[0, 0], None, None, _dot(sx[rows, 1:], sy[cols, 1:])
    g = _dot(sx[rows], sy[cols])
    return g[0, 0], g[1:, 0], g[0, 1:], g[1:, 1:]


def _dot(a, b):
    """(k, k, r, c) planes [p, q] = a_p . b_q of (r, k, 3) and (c, k, 3) stacks."""
    (r, k), c = a.shape[:2], b.shape[0]   # sizes, not -1: a block may have no columns
    products = np.matmul(a, b.transpose(2, 1, 0).reshape(3, -1))
    return np.ascontiguousarray(products.reshape(r, k, k, c).transpose(1, 2, 0, 3))


def _frame_components(parts, planes, sums):
    """(..., 2, 2, r, c) component planes B_kl of the summed parts' frame blocks.

    ``parts`` is a list of (cls, params) as ``KernelSpec.classes`` gives, and
    ``sums`` (..., k, r, c) holds the pair sums of their rows of
    ``_part_sum_weights`` in order. The div class is grad_x grad_y^T g of the
    scalar potential g, S2 u_k v_l + S1 b_k . b'_l; the curl class, its
    conjugate by the Hodge star J at both arguments, is a signed relabelling
    of the planes; the projected kernel is (1/2) k B_x A A^T B_y^T.
    """
    out, k = None, sums.shape[-3] // len(parts)
    for i, (cls, p) in enumerate(parts):
        s = sums[..., i * k:(i + 1) * k, :, :]
        _, u, v, bb = planes
        if cls == CURL:
            u, v, bb = u[::-1], v[::-1], bb[::-1, ::-1]
        if cls == SCALAR:
            b = (0.5 * s[..., 0:1, None, :, :]) * bb
        else:
            b = ((p.variance * s[..., 1:2, :, :]) * u)[..., :, None, :, :] * v
            b += (p.variance * s[..., 0:1, None, :, :]) * bb
        if cls == CURL:
            b *= _STAR_SIGNS
        elif cls == HODGE_FULL:
            b += _STAR_SIGNS * b[..., ::-1, ::-1, :, :]
            b *= 0.5
        out = b if out is None else out + b
    return out


def _row_blocks(n, m, symmetric):
    """(rows, cols) slices of the row blocks, ~``_BLOCK_PAIRS`` pairs each, of an
    (n, m) Gram; a symmetric Gram's blocks stop at its diagonal."""
    step = max(1, _BLOCK_PAIRS // max(1, m))
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        yield rows, slice(0, rows.stop if symmetric else m)


def _read_only(*arrays):
    """The arrays, each made read-only: the caches hand them out."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _strict_upper(size):
    """Read-only mask of the entries above the diagonal of a (size, size) square."""
    return _read_only(~np.tri(size, dtype=bool))[0]


def _write_block(out, rows, cols, components, symmetric):
    """Write one row block's (..., 2, 2, r, c) component planes into ``out``, the Gram
    layout (..., n, 2, m, 2); mirror a symmetric Gram's block, which stops at the
    diagonal, to the upper triangle, so the Gram is symmetric bit for bit."""
    block = out[..., rows, :, cols, :]
    for k in range(2):
        for l in range(2):   # one copy per component: numpy loops innermost over dest's last axis
            block[..., k, :, l] = components[..., k, l, :, :]
    if symmetric:
        gram = out.reshape(out.shape[:-4] + (2 * out.shape[-4], 2 * out.shape[-2]))
        a, b = 2 * rows.start, 2 * rows.stop
        gram[..., :a, a:b] = np.swapaxes(gram[..., a:b, :a], -1, -2)
        square = gram[..., a:b, a:b]
        # the source overlaps the destination, which numpy copies through a buffer
        np.copyto(square, np.swapaxes(square, -1, -2), where=_strict_upper(b - a))


def frame_blocks(spec, X, BX, Y, BY):
    """(n, m, D, D) blocks B_x k(x, y) B_y^T of a vector kernel in given frames.

    On the sphere BX and BY are (n, 2, 3) and (m, 2, 3) tangent frames; on
    T^d the blocks are in the global frame and the frames are ignored. This
    is the one-shot evaluator of every vector kernel; ``GramTables`` runs the
    same contraction and assembly over kept Legendre tables. On the sphere it
    is one pass over row blocks of ~``_BLOCK_PAIRS`` pairs into the Gram layout
    (n, 2, m, 2); when Y is X and BY is BX only the blocks on and below the
    diagonal are evaluated, and mirrored.
    """
    if spec.kind == SCALAR:
        raise InvalidInputError("scalar kernels have no vector kernel matrix")
    if spec.manifold != SPHERE:
        return _torus_matrix(spec, X, Y)
    if spec.kind == NOISE:
        return np.zeros((X.shape[0], Y.shape[0], 2, 2))
    symmetric = Y is X and BY is BX
    sx, sy = _frame_stacks(spec, X, BX, Y, BY)
    parts, weights = spec.classes, _sphere_sum_weights(spec)
    out = np.empty((X.shape[0], 2, Y.shape[0], 2))
    for rows, cols in _row_blocks(X.shape[0], Y.shape[0], symmetric):
        planes = _pair_planes(spec.kind, sx, sy, rows, cols)
        sums = legendre_sums(planes[0], weights)
        _write_block(out, rows, cols, _frame_components(parts, planes, sums), symmetric)
    return out.transpose(0, 2, 1, 3)


def diagonal_frame_blocks(spec, X, BX):
    """(m, D, D) blocks B_x k(x, x) B_x^T at each point, in O(m).

    The diagonal of ``frame_blocks(spec, X, BX, X, BX)`` without the m x m
    Gram: on the sphere the same components at the pairs (x, x), with the pair
    sums at t = 1 (there u = v = 0); elsewhere one block serves every point.
    """
    if spec.manifold == SPHERE and spec.kind not in (SCALAR, NOISE):
        g = np.einsum("ipa,iqa->pqi", *_frame_stacks(spec, X, BX, X, BX))[..., None]
        planes = g[0, 0], g[1:, 0], g[0, 1:], g[1:, 1:]   # as _pair_planes gives them
        sums = legendre_sums(np.ones((1, 1)), _sphere_sum_weights(spec))
        return _frame_components(spec.classes, planes, sums)[..., 0].transpose(2, 0, 1)
    # tori are stationary and the noise kernel is zero: evaluate at one point
    origin = np.zeros((1, X.shape[1]))
    return np.repeat(frame_blocks(spec, origin, BX, origin, BX)[0], X.shape[0], axis=0)


# ---------------------------------------------------------------------------
# Tori
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16, typed=True)   # typed: 2.0 or True must not hit the entry of 2 or 1
def _torus_lattice(dim, lambda_cap):
    """Read-only (n, mult, lam): the hyperparameter-free half lattice |n|^2 <= lambda_cap
    of T^dim, its pair multiplicities and |n|^2. Built once per truncation.

    mult_n = 2 pairs n with -n (n != 0).
    """
    r = math.ceil(math.sqrt(lambda_cap))
    n = np.indices((2 * r + 1,) * dim).reshape(dim, -1).T - r
    first = n[np.arange(len(n)), np.argmax(n != 0, axis=1)]   # first nonzero entry
    keep = ((n ** 2).sum(axis=1) <= lambda_cap) & (first >= 0)
    n, mult = n[keep].astype(np.float64), np.where(first[keep] > 0, 2.0, 1.0)
    return _read_only(n, mult, (n ** 2).sum(axis=1))


@lru_cache(maxsize=16, typed=True)
def _lattice_projector(cls, dim, lambda_cap):
    """Read-only (Pi_cls(n), rank): the Hodge projector of one class over the half lattice,
    (F, D, D), and its trace, the eigenfields per frequency. Pi = I for the full kernel (a
    broadcast view), 1 for the scalar. Built once per class and truncation, when asked for.
    """
    n, _, lam = _torus_lattice(dim, lambda_cap)
    zero = (lam == 0.0)[:, None, None]
    eye = np.eye(dim)
    div = (n[:, :, None] * n[:, None, :] / np.where(zero, 1.0, lam[:, None, None])
           if cls in (DIV, CURL) else None)
    proj = {SCALAR: lambda: np.ones((len(n), 1, 1)), HARM: lambda: np.where(zero, eye, 0.0),
            HODGE_FULL: lambda: np.broadcast_to(eye, (len(n),) + eye.shape),
            DIV: lambda: div, CURL: lambda: np.where(zero, 0.0, eye - div)}[cls]()
    return _read_only(proj, np.rint(np.trace(proj, axis1=1, axis2=2)))


def _lattice_part_weights(spec):
    """[(W, dW)] per part of a torus spec, in ``spec.classes`` order, over its half lattice.

    W = mult_n sigma^2 Phi(|n|^2) Pi_cls(n) / Z_cls (F, D, D) with
    Z_cls = sum_n Phi tr Pi_cls; the kernel's weights mult_n M_n are the sum
    of the parts' W. dW is the derivative of W by log kappa,
    W_n (g_n - <g>) with g = d log Phi / d log kappa and <g> its mean under
    the normalizer's weights Phi tr Pi_cls.
    """
    _, mult, lam = _torus_lattice(spec.dim, spec.lambda_cap)
    out = []
    for c, p in spec.classes:
        proj, rank = _lattice_projector(c, spec.dim, spec.lambda_cap)
        if not rank.any():
            raise InvalidInputError(f"empty eigenfield class {c!r} on {spec.manifold}")
        lw = np.where(rank > 0, log_phi(p.nu, p.kappa, lam, spec.dim), -np.inf)
        phis = mult * np.exp(lw - lw.max())   # Phi ratios, safe where Phi underflows
        z = phis @ rank
        g = _log_phi_slope(p.nu, p.kappa, lam, spec.dim)
        dphis = phis * (g - (phis * rank) @ g / z)
        out.append((p.variance * phis[:, None, None] * proj / z,
                    p.variance * dphis[:, None, None] * proj / z))
    return out


def lattice_features(X, n):
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
    (zero for the noise kind) at checked coordinates."""
    if spec.kind == NOISE:
        return np.zeros((X.shape[0], Y.shape[0], spec.dim, spec.dim))
    n = _torus_lattice(spec.dim, spec.lambda_cap)[0]
    w = sum(w for w, _ in _lattice_part_weights(spec))   # mult_n M_n
    fx = lattice_features(X, n)
    fy = fx if Y is X else lattice_features(Y, n)
    return _lattice_sum(fx, fy, w)


def lattice_draw_factors(spec):
    """(F, D, D) factors A_n of a torus spec's kernel weights over its half lattice n,
    A_n A_n^T = mult_n M_n (by eigh: Hodge-class weights are singular).

    For standard normal z_n, z'_n, f(x) = sum_n [cos, sin](n . x) A_n [z_n, z'_n]
    has covariance sum_n cos(n . (x - y)) mult_n M_n, the kernel itself.
    """
    e, v = np.linalg.eigh(sum(w for w, _ in _lattice_part_weights(spec)))
    return v * np.sqrt(np.maximum(e, 0.0))[:, None, :]


# ---------------------------------------------------------------------------
# Spectral oracle: direct sums over eigenfields
# ---------------------------------------------------------------------------

def class_weights(spec, spectrum):
    """Per-eigenfield weights sigma^2 Phi(lambda) / C of a kernel spec.

    Aligned with ``spectrum.entries``. The projected kernel is not diagonal
    in the eigenfield basis and is rejected.
    """
    w = np.zeros(len(spectrum.entries))
    if spec.kind == NOISE:
        return w
    lam = spectrum.eigenvalues()
    for _, mask, p in _class_parts(spec, spectrum):
        ratios = stable_phi_ratios(p.nu, p.kappa, lam[mask], spectrum.dim)
        # sigma^2 Phi / C with C = sum(Phi) / vol, in underflow-safe ratios
        w[mask] = p.variance * spectrum.volume * ratios / ratios.sum()
    return w


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
    """(n, m, D, D) vector-kernel matrix for any spec at point sets X and Y (default X).

    Points take any form ``coordinates`` reads. Sphere matrices are ambient 3x3
    blocks, lifted from the frame blocks of ``frame_blocks``; torus matrices
    are its d x d blocks in the global frame, summed over the frequency lattice.
    """
    X, Y = coordinates(spec.manifold, spec.dim, X), None if Y is X else Y   # (X, X): symmetric
    Y = X if Y is None else coordinates(spec.manifold, spec.dim, Y)
    if spec.manifold != SPHERE:
        return frame_blocks(spec, X, None, Y, None)
    # the lift B_x^T F B_y of the frame blocks F is exact: B^T B = P_x
    BX = frames_at(X)
    BY = BX if Y is X else frames_at(Y)
    blocks = frame_blocks(spec, X, BX, Y, BY)
    return np.einsum("nka,nmkl,mlb->nmab", BX, blocks, BY)


def scalar_kernel_matrix(spec, X, Y=None):
    """(n, m) scalar-kernel matrix for a scalar spec at point sets (``coordinates``) X, Y (X)."""
    if spec.kind != SCALAR:
        raise InvalidInputError("scalar_kernel_matrix needs a scalar spec")
    X, Y = coordinates(spec.manifold, spec.dim, X), None if Y is X else Y   # (X, X): symmetric
    Y = X if Y is None else coordinates(spec.manifold, spec.dim, Y)
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
    weights are computed per spec. The sphere keeps, per row block of the
    symmetric Gram, the pair planes and the ``legendre_table`` at the block's
    pairs, on and below the diagonal: lmax // 2 + 11 floats a pair at about
    n^2 / 2 pairs. It contracts each table as ``legendre_sums`` contracts its
    chunks and assembles the blocks through the same code as ``frame_blocks``:
    the routes differ only in keeping the table. The torus keeps the features
    [cos XN^T, sin XN^T] at the truncation's half lattice N.
    """

    def __init__(self, spec, X, frames=None):
        self._n = X.shape[0]
        if spec.manifold == SPHERE:
            if spec.kind in (SCALAR, NOISE):
                raise InvalidInputError(f"no Gram tables for kernel kind {spec.kind!r}")
            sx, sy = _frame_stacks(spec, X, frames, X, frames)
            self._blocks = []
            for rows, cols in _row_blocks(self._n, self._n, True):
                planes = _pair_planes(spec.kind, sx, sy, rows, cols)
                self._blocks.append((rows, cols, planes, legendre_table(planes[0], spec.lmax)))
        else:
            X = coordinates(spec.manifold, spec.dim, X)
            self._features = lattice_features(X, _torus_lattice(spec.dim, spec.lambda_cap)[0])

    def blocks_and_derivatives(self, spec):
        """(n, n, D, D) frame blocks of spec at the prepared points, and per part of
        ``spec.classes``, in its order, the pair of their derivatives by the part's
        log variance and log kappa; each is a new array.

        Every kernel is linear in its per-level (per-frequency) weights, so a
        part's log-variance derivative is that part's blocks, and its
        log-kappa derivative the same contraction and assembly with the
        weights' log-kappa derivatives. The blocks equal ``frame_blocks`` at
        (X, X) bit for bit.
        """
        if spec.manifold != SPHERE:
            f = self._features
            parts = _lattice_part_weights(spec)
            blocks = _lattice_sum(f, f, sum(w for w, _ in parts))
            return blocks, [(_lattice_sum(f, f, w) if len(parts) > 1 else blocks.copy(),
                             _lattice_sum(f, f, dw)) for w, dw in parts]
        parts = spec.classes
        # rows: the value weights of every part, then their log-kappa derivatives
        weights = np.concatenate([_part_sum_weights(cls, p, spec.lmax) for cls, p in parts],
                                 axis=1)
        weights = weights.reshape(-1, weights.shape[2])
        # per part, its blocks and their log-kappa derivatives: one array, two views
        pairs = np.empty((len(parts), 2, self._n, 2, self._n, 2))
        for rows, cols, planes, table in self._blocks:
            sums = _contract_levels(weights, table).reshape((2, len(parts), -1) + table.shape[1:])
            for own, part, s in zip(pairs, parts, sums.swapaxes(0, 1)):
                _write_block(own, rows, cols, _frame_components([part], planes, s), True)
        derivatives = pairs.transpose(0, 1, 2, 4, 3, 5)
        # a new array, summed as frame_blocks sums parts
        return derivatives[:, 0].sum(axis=0), list(derivatives)
