"""Optimal trade execution in resilient limit order books.

The public surface: shape families and their validators, the book
dynamics, the cost functionals with exact gradients, closed-form and
root-based optimal schedules for both resilience models, the recursive
block-book scheme with permanent impact, and a brute-force oracle for
certifying any of it.
"""

from .costs import (
    CostReport,
    Strategy,
    analytic_gradient,
    cost_and_gradient,
    cost_report,
    impact_cost,
    impact_costs,
    lagrange_residual,
)
from .dynamics import (
    MarketParams,
    Resilience,
    replay,
    trajectory_to_csv,
)
from .errors import (
    BudgetExceeded,
    InvalidParam,
    LobExecError,
    NoRootInBracket,
    OutOfDomain,
    PreconditionFailed,
)
from .oracle import OracleResult, gradient_check, grid_search, minimize_cost
from .ow import OWCoefficients, backward_coeffs, closed_coeffs, coeffs_to_csv, forward_strategy, ow_cost
from .shapes import (
    BlockShape,
    CounterexampleShape,
    PowerLawShape,
    Shape,
    SqrtShape,
    TabulatedShape,
    ValidationReport,
    injectivity_margin,
    load_tabulated_csv,
    spread_recovery_gap,
    validate_model1,
    validate_model2,
    volume_recovery_gap,
)
from .solver import (
    ContinuousLimit,
    OptimalSchedule,
    SolverDiagnostics,
    continuous_limit,
    solve,
    solve_block,
    sqrt_shape_xi0,
)

__all__ = [
    "BlockShape",
    "BudgetExceeded",
    "ContinuousLimit",
    "CostReport",
    "CounterexampleShape",
    "InvalidParam",
    "LobExecError",
    "MarketParams",
    "NoRootInBracket",
    "OptimalSchedule",
    "OracleResult",
    "OutOfDomain",
    "OWCoefficients",
    "PowerLawShape",
    "PreconditionFailed",
    "Resilience",
    "Shape",
    "SolverDiagnostics",
    "SqrtShape",
    "Strategy",
    "TabulatedShape",
    "ValidationReport",
    "analytic_gradient",
    "cost_and_gradient",
    "backward_coeffs",
    "closed_coeffs",
    "coeffs_to_csv",
    "continuous_limit",
    "cost_report",
    "forward_strategy",
    "gradient_check",
    "grid_search",
    "impact_cost",
    "impact_costs",
    "injectivity_margin",
    "lagrange_residual",
    "load_tabulated_csv",
    "minimize_cost",
    "ow_cost",
    "replay",
    "solve",
    "solve_block",
    "spread_recovery_gap",
    "sqrt_shape_xi0",
    "trajectory_to_csv",
    "validate_model1",
    "validate_model2",
    "volume_recovery_gap",
]

__version__ = "0.1.0"
