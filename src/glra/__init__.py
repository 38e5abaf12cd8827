"""glra: generalised rank-constrained approximation.

Solves min ||M - B X C||_HS over rank(X) <= r on dense real matrices,
with the corrected minimality property, solution-set sampling, optimal
error identities, truncation-sweep diagnostics for the phenomena that
only emerge as dimensions grow, and a reduced-rank regression front end.
"""

from .linalg import (
    DEFAULT_TOL,
    DomainError,
    InputError,
    NumericalError,
    SvdFactors,
    Tolerances,
    TruncatedSvd,
    Uniqueness,
    hs_norm,
    pinv,
    psd_sqrt,
    rank_factors,
    svd,
)
from .matio import read_matrix, write_matrix
from .regression import (
    CovarianceBundle,
    RrrModel,
    SampleSet,
    empirical_covariances,
    fit,
    maximal_kernel_check,
    mse_monte_carlo,
    mse_trace,
    predict,
    save_model,
)
from .sequences import (
    SequenceSpec,
    SubspaceChain,
    approximate_minimizers,
    bounded_approximation_sequence,
    build_instance,
    full_chain,
    lower_bound_constant,
    nested_chain,
    outer_inverse_chain,
    unboundedness_sweep,
)
from .solver import (
    GlraProblem,
    GlraSolution,
    OptimalError,
    canonicalize,
    minimality_defect,
    objective,
    optimal_error,
    solution_set_sample,
    solve,
    solve_adjoint,
)

__version__ = "0.1.0"
