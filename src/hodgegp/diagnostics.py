"""Divergence diagnostics and the projected-kernel limitation demonstration.

The pointwise divergence of a spectral prior field is itself Gaussian; by
the rotational symmetry of the sphere its variance is a constant that can be
written in closed form from the level sums

    S  = sum_{l>=1} (2l+1) lambda_l Phi(lambda_l),
    D0 = sum_{l>=0} (2l+1) Phi(lambda_l),        D1 = D0 - Phi(0).

The full Hodge-Matern field has Var(div f) = sigma^2/2 * S / D1 (only its
divergence-class half contributes). A projected field picks up an extra
curvature term: on the unit sphere div(P_x w) = -2 x . w for constant w,
so the mean-curvature vector (trace convention) has squared norm 4 and

    Var(div f_proj) = sigma^2/2 * (S / D0 + 4).

Both constants are validated against Monte-Carlo finite-difference
divergences of actual samples.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .gp import sample_prior_batch
from .kernels import (HODGE_CURL, HODGE_DIV, HODGE_FULL, PROJECTED, KernelSpec, MaternParams,
                      _level_weights, kernel_matrix)
from .manifold import SPHERE, one_sphere_point
from .spectrum import _local_basis

_POLE_BAND = math.sin(math.radians(80.0))  # |x3| above this is too close to a pole


@dataclass
class DivergenceReport:
    """Analytic vs Monte-Carlo pointwise divergence variance."""

    analytic: float
    monte_carlo: float
    n_samples: int
    relative_gap: float


@dataclass
class LimitationReport:
    """Frobenius norms of a projected kernel at 90 and 180 degrees.

    When the coregionalization matrix has rank above one the norm at the
    antipode exceeds the norm at a quarter turn, so the covariance is not
    monotone in the intrinsic distance.
    """

    norm_orthogonal: float
    norm_antipodal: float
    limit_orthogonal: float
    limit_antipodal: float
    x: np.ndarray
    x_prime: np.ndarray


def _level_ratio(params, lmax, first):
    """Mean eigenvalue sum_l c_l lambda_l under the kernel's level weights c_l
    over the levels l >= first (``kernels._level_weights``)."""
    l = np.arange(lmax + 1, dtype=np.float64)
    return float(_level_weights(params.nu, params.kappa, lmax, first)[0] @ (l * (l + 1.0)))


def var_div_hodge_sphere(params, lmax):
    """Pointwise divergence variance of the full Hodge-Matern field on S2; raises
    InvalidInputError at lmax 0, where the Hodge classes are empty."""
    return 0.5 * params.variance * _level_ratio(params, lmax, 1)


def var_div_projected_sphere(params, lmax):
    """Pointwise divergence variance of the projected Matern field on S2.

    The additive 4 is the squared norm of the sphere's mean-curvature vector
    under the trace convention; it survives as kappa grows while the
    spectral term decays.
    """
    return 0.5 * params.variance * (_level_ratio(params, lmax, 0) + 4.0)


def divergence_stencil(x, h):
    """Central-difference stencil for the intrinsic divergence at one sphere point x.

    Returns the four offset points (theta +- h, phi +- h paths) and a
    function mapping field values of shape (..., 4, 3) to divergences.
    Rejects points off the sphere (``one_sphere_point``) or within 10 degrees of
    a pole, and steps outside [1e-6, 1e-2] radians.
    """
    x = one_sphere_point(x, "divergence stencil")
    if abs(x[2]) >= _POLE_BAND:
        raise InvalidInputError("divergence stencil undefined within 10 deg of a pole")
    if not 1e-6 <= h <= 1e-2:
        raise InvalidInputError("step size must lie in [1e-6, 1e-2] radians")
    theta = math.acos(max(-1.0, min(1.0, x[2])))
    phi_angle = math.atan2(x[1], x[0])

    def at(th, ph):
        return np.array([math.sin(th) * math.cos(ph),
                         math.sin(th) * math.sin(ph),
                         math.cos(th)])

    pts = np.stack([at(theta + h, phi_angle), at(theta - h, phi_angle),
                    at(theta, phi_angle + h), at(theta, phi_angle - h)])
    e_theta, e_phi = _local_basis(pts)
    e_tp, e_tm, e_pp, e_pm = e_theta[0], e_theta[1], e_phi[2], e_phi[3]
    st, stp, stm = math.sin(theta), math.sin(theta + h), math.sin(theta - h)

    def combine(values):
        vt_p = values[..., 0, :] @ e_tp
        vt_m = values[..., 1, :] @ e_tm
        vp_p = values[..., 2, :] @ e_pp
        vp_m = values[..., 3, :] @ e_pm
        return ((stp * vt_p - stm * vt_m) + (vp_p - vp_m)) / (2.0 * h * st)

    return pts, combine


def numeric_divergence(field, x, h=1e-4):
    """Second-order intrinsic divergence of a tangent field at a sphere point.

    ``field`` maps an (m, 3) array of unit points to (m, 3) tangent values.
    Uses (1/sin t)(d/dt (sin t v_t) + d/dp v_p) in spherical coordinates.
    """
    pts, combine = divergence_stencil(x, h)
    return float(combine(np.asarray(field(pts), dtype=np.float64)))


def divergence_variance_mc(spec, x, n_samples, rng, h=1e-4):
    """Monte-Carlo check of the closed-form divergence variance at x.

    Draws prior samples, measures their finite-difference divergence at x,
    and compares the sample variance with the matching closed form (zero for
    the divergence-free kernel). Needs at least two samples, and a sphere spec
    of a kind with a closed form: anything else raises before drawing.
    """
    if n_samples < 2:
        raise InvalidInputError(f"a sample variance needs at least 2 samples, got {n_samples}")
    if spec.manifold != SPHERE:
        raise InvalidInputError(f"no closed-form divergence variance on {spec.manifold}")
    if spec.kind == HODGE_FULL:
        analytic = var_div_hodge_sphere(spec.params, spec.lmax)
    elif spec.kind == HODGE_DIV:
        analytic = 2.0 * var_div_hodge_sphere(spec.params, spec.lmax)
    elif spec.kind == HODGE_CURL:
        analytic = 0.0
    elif spec.kind == PROJECTED:
        analytic = var_div_projected_sphere(spec.params, spec.lmax)
    else:
        raise InvalidInputError(f"no divergence variance for kind {spec.kind!r}")
    pts, combine = divergence_stencil(x, h)
    mc = float(np.var(combine(sample_prior_batch(spec, pts, n_samples, rng))))
    gap = abs(mc - analytic) / analytic if analytic > 0.0 else abs(mc)
    return DivergenceReport(analytic=analytic, monte_carlo=mc,
                            n_samples=n_samples, relative_gap=float(gap))


def limitation_demo(a, kappa, lmax=30, nu=math.inf):
    """Non-monotone covariance of the projected construction, made concrete.

    Orders the eigenpairs of A A^T ascending, takes x and x' along the two
    smallest eigenvectors (a quarter turn apart), and evaluates the stacked
    scalar-field kernel k(x, y) P_x A A^T P_y at the given finite length
    scale. As kappa grows the two Frobenius norms approach lambda_3 and
    sqrt(lambda_2^2 + lambda_3^2), so the antipode stays more correlated
    than the quarter turn whenever rank A > 1.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (3, 3):
        raise InvalidInputError("coregionalization matrix must be 3x3")
    lam, u = np.linalg.eigh(a @ a.T)
    if lam[1] <= 1e-12 * max(lam[2], 1.0):
        raise InvalidInputError("limitation demo requires rank A > 1")
    x = u[:, 0]
    x_prime = u[:, 1]
    spec = KernelSpec(PROJECTED, MaternParams(nu, kappa, 1.0), coreg=a, lmax=lmax)

    def cov(p, q):
        # the projected kernel is (1/2) k P_x A A^T P_y
        return 2.0 * kernel_matrix(spec, p[None, :], q[None, :])[0, 0]

    return LimitationReport(
        norm_orthogonal=float(np.linalg.norm(cov(x, x_prime))),
        norm_antipodal=float(np.linalg.norm(cov(x, -x))),
        limit_orthogonal=float(lam[2]),
        limit_antipodal=float(math.hypot(lam[1], lam[2])),
        x=x, x_prime=x_prime)
