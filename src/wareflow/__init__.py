"""Exact and approximate solvers for finite-horizon warehouse trading.

A warehouse instance fixes per-period purchase, sale, and stock bounds,
linear payoffs, and fixed trading costs.  The solver enumerates candidate
stock levels and finds a longest path through the layered network whose
arcs carry extreme trade decisions, by a sliding-window DP over the levels
that builds no arc; everything runs in exact rational arithmetic.
"""

from types import ModuleType as _ModuleType

from .errors import (
    DeltaOutOfRange,
    EmptyInput,
    EpsilonOutOfRange,
    IndexOutOfRange,
    Infeasible,
    InvalidArgument,
    InvalidInstance,
    LowerExceedsUpper,
    NegativeBound,
    NoPositiveBounds,
    NonIntegralData,
    NotAPath,
    PeriodOutOfRange,
    TerminalStockMismatch,
    WarehouseError,
    WP3ShapeViolation,
    WrongVariant,
    WrongVectorLength,
)
from .extform import emit_lp, lift_and_check, lift_solution
from .fptas import (
    BalancedFlow,
    FlowPair,
    FptasParams,
    balanced_flow_decompose,
    fptas_bound_S,
    fptas_params,
    fptas_solve,
    normalize_terminal,
    reassemble,
    reduce_flow,
    scale_trade_bounds,
)
from .generators import (
    LotSizingInstance,
    gen_random,
    parse_lotsizing,
    reduce_lotsizing,
    reduce_partition,
    serialize_lotsizing,
    validate_lotsizing,
)
from .model import (
    Exact,
    FeasibilityReport,
    Instance,
    Solution,
    Variant,
    assemble_solution,
    check_solution,
    compute_objective,
    evaluate_payoff,
    exact,
    exact_vector,
    format_exact,
    parse_exact,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
    validate_instance,
)
from .network import (
    ArcDecision,
    SolveTrace,
    arc_candidates,
    solve,
    solve_wp2_direct,
    to_dot,
)
from .oracle import oracle_solve
from .stocklevels import (
    StockLevels,
    bound_S,
    double_horizon,
    gen_stock_levels,
)

# the public names, without the submodules that the imports above bind
__all__ = sorted(name for name, value in globals().items() if not (
    name.startswith("_") or isinstance(value, _ModuleType)))
__version__ = "0.1.0"
