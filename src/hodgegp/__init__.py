"""Gaussian vector fields on the sphere and flat tori.

Spectral Matern kernels built from Hodge-Laplacian eigenfields, with exact
GP regression, marginal-likelihood fitting, truncated Karhunen-Loeve
sampling, divergence diagnostics, and a CSV experiment harness.
"""

__version__ = "0.1.0"

from ._accel import using_numba
from .errors import DataError, InvalidInputError, NumericalError
from .manifold import (CIRCLE, SPHERE, TORUS, ManifoldPoint, TangentFrame, TangentVector,
                       frame_at, frames_at, hodge_star, lonlat_to_point, point_to_lonlat,
                       project_tangent, sample_uniform, sphere_point, tangent_from_east_north,
                       torus_point)
from .spectrum import (CURL, DIV, HARM, EigenfieldIndex, ScalarEigenpair, SphereSpectrum,
                       TorusSpectrum, circle_spectrum, legendre, product_spectrum,
                       sphere_eigenfield, sphere_eigenvalue, sphere_quadrature, sphere_spectrum,
                       spherical_harmonic, torus_quadrature, torus_spectrum)
from .kernels import (HODGE_COMPOSITIONAL, HODGE_CURL, HODGE_DIV, HODGE_FULL, NOISE, PROJECTED,
                      SCALAR, KernelSpec, MaternParams, compositional_spec, hodge_matern_sphere,
                      kernel_matrix, noise_spec, normalization, phi, projected_matern,
                      scalar_kernel_matrix, scalar_matern_sphere, scalar_matern_torus,
                      spectral_kernel_oracle, class_weights, torus_matern)
from .gp import (Dataset, FitConfig, PosteriorModel, Prediction, condition, fit, gram,
                 log_marginal_likelihood, metrics, predict, sample_posterior, sample_prior,
                 sample_prior_batch)
from .diagnostics import (DivergenceReport, LimitationReport, divergence_variance_mc,
                          limitation_demo, numeric_divergence, var_div_hodge_sphere,
                          var_div_projected_sphere)

# The public API; README's "Public API" section lists exactly these names. Also
# importable but not listed: the deprecated single-pair kernels (hodge_matern_sphere,
# projected_matern, scalar_matern_sphere, scalar_matern_torus, torus_matern), frame_at and
# TangentFrame, and the benchmark's using_numba stub.
__all__ = [
    "DataError", "InvalidInputError", "NumericalError",
    "CIRCLE", "SPHERE", "TORUS", "ManifoldPoint", "TangentVector", "frames_at", "hodge_star",
    "lonlat_to_point", "point_to_lonlat", "project_tangent", "sample_uniform", "sphere_point",
    "tangent_from_east_north", "torus_point",
    "CURL", "DIV", "HARM", "EigenfieldIndex", "ScalarEigenpair", "SphereSpectrum",
    "TorusSpectrum", "circle_spectrum", "legendre", "product_spectrum", "sphere_eigenfield",
    "sphere_eigenvalue", "sphere_quadrature", "sphere_spectrum", "spherical_harmonic",
    "torus_quadrature", "torus_spectrum",
    "HODGE_COMPOSITIONAL", "HODGE_CURL", "HODGE_DIV", "HODGE_FULL", "NOISE", "PROJECTED",
    "SCALAR", "KernelSpec", "MaternParams", "class_weights", "compositional_spec",
    "kernel_matrix", "noise_spec", "normalization", "phi", "scalar_kernel_matrix",
    "spectral_kernel_oracle",
    "Dataset", "FitConfig", "PosteriorModel", "Prediction", "condition", "fit", "gram",
    "log_marginal_likelihood", "metrics", "predict", "sample_posterior", "sample_prior",
    "sample_prior_batch",
    "DivergenceReport", "LimitationReport", "divergence_variance_mc", "limitation_demo",
    "numeric_divergence", "var_div_hodge_sphere", "var_div_projected_sphere",
    "ExperimentConfig", "emit_csv", "ingest_csv", "normalize_dataset", "run_experiment",
    "synthetic_field",
]

# The harness is served lazily (PEP 562): importing it here would make
# ``python -m hodgegp.cli`` find the module already imported and run it twice.
_CLI_NAMES = ("ExperimentConfig", "emit_csv", "ingest_csv", "normalize_dataset",
              "run_experiment", "synthetic_field")


def __getattr__(name):
    if name in _CLI_NAMES:
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
