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
    cost_report,
    impact_cost,
    impact_cost_gform,
    impact_costs,
    lagrange_residual,
    order_cost,
    ow_cost,
)
from .dynamics import (
    BookState,
    MarketParams,
    Resilience,
    SimplifiedState,
    apply_order,
    apply_order_book,
    decay,
    decay_book,
    replay,
    replay_book,
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
from .ow import OWCoefficients, backward_coeffs, closed_coeffs, coeffs_to_csv, forward_strategy
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
    solve_model1,
    solve_model2,
    sqrt_shape_xi0,
)

__all__ = [
    "BlockShape",
    "BookState",
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
    "SimplifiedState",
    "SolverDiagnostics",
    "SqrtShape",
    "Strategy",
    "TabulatedShape",
    "ValidationReport",
    "analytic_gradient",
    "apply_order",
    "apply_order_book",
    "backward_coeffs",
    "closed_coeffs",
    "coeffs_to_csv",
    "continuous_limit",
    "cost_report",
    "decay",
    "decay_book",
    "forward_strategy",
    "gradient_check",
    "grid_search",
    "impact_cost",
    "impact_cost_gform",
    "impact_costs",
    "injectivity_margin",
    "lagrange_residual",
    "load_tabulated_csv",
    "minimize_cost",
    "order_cost",
    "ow_cost",
    "replay",
    "replay_book",
    "solve",
    "solve_block",
    "solve_model1",
    "solve_model2",
    "spread_recovery_gap",
    "sqrt_shape_xi0",
    "trajectory_to_csv",
    "validate_model1",
    "validate_model2",
    "volume_recovery_gap",
]

__version__ = "0.1.0"
