"""The package's own shape: what its source may depend on."""

import ast
import sys
from pathlib import Path
from types import ModuleType

import wareflow

SOURCE = Path(__file__).resolve().parents[1] / "src" / "wareflow"


def test_the_package_imports_the_standard_library_only():
    """Every absolute import in src/wareflow names a standard-library
    module, so the package installs and runs with no dependency."""
    files = sorted(SOURCE.glob("*.py"))
    assert files
    outside = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside |= {(path.name, name) for name in names
                        if name.partition(".")[0]
                        not in sys.stdlib_module_names}
    assert not outside


def test_all_names_public_objects_and_no_module():
    """from wareflow import * binds every name __all__ lists and no
    submodule."""
    assert wareflow.__all__
    values = {name: getattr(wareflow, name) for name in wareflow.__all__}
    assert not [name for name, value in values.items()
                if isinstance(value, ModuleType)]
    assert "solve" in values and "Instance" in values


def test_all_lists_exactly_the_pinned_names():
    """__all__ is this sorted list, so a change to the public names shows
    in the diff of this test."""
    pinned = [
        "ArcDecision", "BalancedFlow", "DeltaOutOfRange", "EmptyInput",
        "EpsilonOutOfRange", "Exact", "FeasibilityReport", "FlowPair",
        "FptasParams", "IndexOutOfRange", "Infeasible", "Instance",
        "InvalidArgument", "InvalidInstance", "LotSizingInstance",
        "LowerExceedsUpper", "NegativeBound", "NoPositiveBounds",
        "NonIntegralData", "NotAPath", "PeriodOutOfRange", "Solution",
        "SolveTrace", "StockLevels", "TerminalStockMismatch", "Variant",
        "WP3ShapeViolation", "WarehouseError", "WrongVariant",
        "WrongVectorLength", "arc_candidates", "assemble_solution",
        "balanced_flow_decompose", "bound_S", "check_solution",
        "compute_objective", "double_horizon", "emit_lp", "evaluate_payoff",
        "exact", "exact_vector", "format_exact", "fptas_bound_S",
        "fptas_params", "fptas_scale", "fptas_solve", "gen_random",
        "gen_stock_levels", "integral_instance", "lift_and_check",
        "lift_solution", "normalize_terminal", "oracle_solve", "parse_exact",
        "parse_instance", "parse_lotsizing", "parse_solution", "reassemble",
        "reduce_flow", "reduce_lotsizing", "reduce_partition",
        "scale_instance", "scale_trade_bounds", "serialize_instance",
        "serialize_lotsizing", "serialize_solution", "solve",
        "solve_wp2_direct", "to_dot", "validate_instance",
        "validate_lotsizing",
    ]
    assert pinned == sorted(pinned)
    assert wareflow.__all__ == pinned
