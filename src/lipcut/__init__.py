"""lipcut: global optimization of Lipschitz-constrained problems over
compact boxes by iterative norm-ball exclusion.

The solver relaxes the black-box constraint r(x) <= 0, minimizes over the
relaxed region with a certified (or local) oracle, and excludes a norm
ball of radius ||r(x)_+|| / L around each infeasible incumbent until an
(epsilon-)feasible point is found, infeasibility is certified, or the
iteration budget runs out.
"""

from .bounds import (
    ball_packing_bound,
    box_packing_bound,
    box_radius,
    box_radius_asphericity,
    complexity_lower,
    complexity_upper,
    lattice_count,
)
from .core import (
    BoxDomain,
    ConstraintSpec,
    Cut,
    NonFiniteValueError,
    NormKind,
    ObjectiveSpec,
    Problem,
    RelaxedRegion,
    cut_radius,
    norm_eval,
    positive_part,
    region_membership,
)
from .driver import (
    CutMode,
    DriverConfig,
    IterationRecord,
    SolveOutcome,
    SolveStatus,
    normalized_problem,
    run,
    trace_to_csv,
)
from .expr import (
    EvaluationError,
    ExpressionError,
    Expr,
    evaluate,
    finite_diff_jacobian,
    parse,
)
from .lipschitz import (
    EstimateMethod,
    LipschitzEstimate,
    induced_norm,
    jacobian_sup_bound,
    labelled_estimate,
    slope_sampling_estimate,
)
from .oracle import (
    GlobalOracle,
    InfeasibleStartError,
    LocalOracle,
    OracleConfig,
    OracleResult,
    OracleStatus,
    ResourceLimitError,
)
from .problems import builtin_problems, build, get_builtin, load_problem_file
from .reform import (
    ReformSystem,
    default_big_M,
    export_lp,
    reformulate_1norm,
    reformulate_infnorm,
    verify_by_enumeration,
)

__version__ = "0.1.0"
