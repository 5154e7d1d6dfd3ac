"""riskfix: exact asymptotic risk of convex-constrained least squares.

Solves the fixed-point equation E err(omega_{m/n}(r)) = n r^2 that
characterizes the high-dimensional risk of the constrained LSE in noisy
Gaussian linear inverse problems, and verifies the prediction by
simulating the estimator (AMP with projected-gradient fallback) on
synthetic Gaussian designs.
"""

from .constraints import (
    ConstraintSet,
    MonteCarloConfig,
    ProjectionResult,
    divergence,
    mc_statistical_dimension,
    polar_project,
    project,
    statistical_dimension,
    tangent_dimension,
)
from .errors import (
    ConfigError,
    DescriptorError,
    DomainError,
    NoSolutionError,
    UnsupportedKindError,
)
from .experiments import (
    ExperimentConfig,
    ExperimentRecord,
    emit_report,
    get_preset,
    parse_records,
    run_experiment,
)
from .fixed_point import (
    FixedPointProblem,
    FixedPointSolution,
    R2Check,
    classify_regime,
    nnls_check_R2,
    nnls_solve,
    omega,
    solve,
)
from .kernels import (
    DiscretePrior,
    kernel_G,
    kernel_H,
    normal_cdf,
    normal_pdf,
    prior_G,
    prior_H,
)
from .linear_model import (
    DesignInstance,
    SolverResult,
    amp_solve,
    empirical_risk,
    generate_instance,
    pgd_solve,
)
from .sequence import (
    RiskCurve,
    eval_processes,
    mc_expectations,
    orthant_err_closed_form,
    orthant_lrt_closed_form,
)

__version__ = "0.1.0"
