"""Kernel quadrature with adaptively tempered sequential Monte Carlo sampling.

The estimator interpolates the integrand in a reproducing kernel space on
a small set of nodes and integrates the interpolant in closed form.  Its
accuracy depends strongly on where the nodes are sampled from; this
package tempers the sampling distribution away from the target and uses a
function-evaluation-free error statistic to decide how far."""

from .kernels import (
    GaussianKernel,
    GaussianMeasure,
    SteinKernel,
    double_integral,
    embedding_vector,
    gram_matrix,
    kernel_eval,
    mean_embedding,
)
from .quadrature import (
    DEFAULT_NUGGET,
    DuplicatePointsError,
    GramSingularError,
    NuggetPolicy,
    QuadratureRule,
    dedupe,
    gaussian_inverse_cdf,
    halton_points,
    kq_estimate,
    kq_fit,
    mc_estimate,
    sbq_greedy_select,
    worst_case_error,
)
from .smc import (
    ADAPTIVE_GAUSSIAN,
    ADAPTIVE_LOGNORMAL,
    RANDOM_WALK,
    BoxUniform,
    DegenerateWeightsError,
    ParticleSystem,
    ProposalPolicy,
    TemperedTarget,
    cess,
    ess,
    init_particles,
    markov_move,
    next_temperature,
    resample_multinomial,
    reweight,
    smc_step,
)
from .controller import (
    ErrorTrace,
    EvalCache,
    InsufficientStatesError,
    KernelFamily,
    RunReport,
    TraceEntry,
    crit,
    crit_kl,
    gaussian_lengthscale_family,
    kern_param_fit,
    marginal_likelihood_objective,
    select_rule_entry,
    smc_kq,
    smc_kq_kl,
    temperature_error_profile,
    trend_test,
)
from .problems import (
    BachDiagnostic,
    BenchmarkResult,
    ODEProblem,
    ToyProblem,
    bach_density_truncated,
    default_toy_lengthscale,
    gaussian_kernel_eigenvalues,
    generate_ode_data,
    ode_log_likelihood,
    ode_log_posterior,
    ode_log_prior,
    ode_predictive,
    ode_score,
    ode_solution,
    posterior_benchmark,
    toy_integrand,
    with_observations,
)
from .harness import (
    ConfigError,
    ResultRow,
    RunConfig,
    load_config,
    rmse_aggregate,
    run,
    run_benchmark,
)

__version__ = "0.1.0"
