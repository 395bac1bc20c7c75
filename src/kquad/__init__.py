"""Kernel quadrature with adaptively tempered sequential Monte Carlo sampling.

The estimator interpolates the integrand in a reproducing kernel space on
a small set of nodes and integrates the interpolant in closed form.  Its
accuracy depends strongly on where the nodes are sampled from; this
package tempers the sampling distribution away from the target and uses a
function-evaluation-free error statistic to decide how far.

The package namespace holds what a user of the estimators needs; every
other function lives in its submodule (kernels, quadrature, smc,
controller, problems, harness)."""

from .kernels import GaussianKernel, GaussianMeasure, SteinKernel
from .quadrature import (
    DuplicatePointsError,
    GramSingularError,
    QuadratureRule,
    gaussian_inverse_cdf,
    halton_points,
    kq_estimate,
    kq_fit,
    sbq_greedy_select,
)
from .smc import (
    ADAPTIVE_LOGNORMAL,
    BoxUniform,
    DegenerateWeightsError,
    ProposalPolicy,
)
from .controller import (
    InsufficientStatesError,
    RunReport,
    gaussian_lengthscale_family,
    smc_kq,
    smc_kq_kl,
)
from .problems import (
    BachDiagnostic,
    ODEProblem,
    ToyProblem,
    bach_density_truncated,
    ode_log_posterior,
    ode_predictive,
    ode_score,
    posterior_benchmark,
    toy_integrand,
    with_observations,
)
from .harness import ConfigError, RunConfig, rmse_aggregate

__all__ = [
    # kernels and measures
    "GaussianKernel", "GaussianMeasure", "SteinKernel", "BoxUniform",
    # quadrature rules and baselines
    "QuadratureRule", "kq_fit", "kq_estimate",
    "sbq_greedy_select", "halton_points", "gaussian_inverse_cdf",
    # adaptive estimators
    "ProposalPolicy", "ADAPTIVE_LOGNORMAL", "RunReport", "smc_kq",
    "smc_kq_kl", "gaussian_lengthscale_family",
    # problems
    "ToyProblem", "toy_integrand", "ODEProblem", "with_observations",
    "ode_log_posterior", "ode_score", "ode_predictive",
    "posterior_benchmark", "BachDiagnostic", "bach_density_truncated",
    # experiments
    "RunConfig", "rmse_aggregate",
    # failures
    "GramSingularError", "DegenerateWeightsError", "InsufficientStatesError",
    "DuplicatePointsError", "ConfigError",
]

__version__ = "0.1.0"
