"""The package's own shape: what its source may depend on."""

import ast
import importlib
import sys
from pathlib import Path
from types import ModuleType

import wareflow
from wareflow import cli

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
        "fptas_params", "fptas_solve", "gen_random",
        "gen_stock_levels", "lift_and_check", "lift_solution",
        "normalize_terminal", "oracle_solve", "parse_exact",
        "parse_instance", "parse_lotsizing", "parse_solution", "reassemble",
        "reduce_flow", "reduce_lotsizing", "reduce_partition",
        "scale_trade_bounds", "serialize_instance",
        "serialize_lotsizing", "serialize_solution", "solve",
        "solve_wp2_direct", "to_dot", "validate_instance",
        "validate_lotsizing",
    ]
    assert pinned == sorted(pinned)
    assert wareflow.__all__ == pinned


# The (module, name) pairs that perfbench/tracer.py's WRAPPED table
# replaces with timing wrappers and that a CLI op still calls.  The tracer
# looks each name up where its caller does, so a call moved away from one
# of these globals zeroes a benchmark metric without an error.  solve,
# to_dot and emit_lp build their levels by stocklevels.searched_levels,
# which the table does not wrap, so no solve, fptas or emit-lp op reaches
# network's or extform's gen_stock_levels, nor any double_horizon.  The
# fptas op rounds in the searched rows (fptas_rows) and no longer reaches
# scale_trade_bounds, so the fptas.scale span times fptas_params alone.
TRACED = {
    "wareflow.cli": ("parse_instance", "parse_solution", "serialize_solution",
                     "check_solution", "gen_stock_levels", "emit_lp"),
    "wareflow.fptas": ("fptas_params",),
}
DATA = Path(__file__).resolve().parent / "data"


def _noting(called: set, key, fn):
    def noted(*args, **kwargs):
        called.add(key)
        return fn(*args, **kwargs)
    return noted


def test_cli_ops_call_the_names_the_benchmark_traces(monkeypatch, tmp_path,
                                                      capsys):
    """Each pinned name is still bound, and the ops that reached it when
    it was pinned still call it through that module global."""
    called = set()
    for module_name, names in TRACED.items():
        module = importlib.import_module(module_name)
        for name in names:
            monkeypatch.setattr(module, name, _noting(
                called, (module_name, name), getattr(module, name)))
    wp2, wp3 = str(DATA / "wp2_mixed.json"), str(DATA / "fptas_third.json")
    plan = str(DATA / "fptas_third.solution.json")
    ops = {
        ("solve", "--input", wp2, "--output", str(tmp_path / "plan.json")): {
            ("wareflow.cli", "parse_instance"),
            ("wareflow.cli", "serialize_solution")},
        ("check", "--input", wp3, "--solution", plan): {
            ("wareflow.cli", "parse_instance"),
            ("wareflow.cli", "parse_solution"),
            ("wareflow.cli", "check_solution")},
        ("fptas", "--input", wp3, "--epsilon", "1/3"): {
            ("wareflow.cli", "parse_instance"),
            ("wareflow.fptas", "fptas_params")},
        ("emit-lp", "--input", wp2): {
            ("wareflow.cli", "parse_instance"),
            ("wareflow.cli", "emit_lp")},
        ("levels", "--input", wp2): {
            ("wareflow.cli", "parse_instance"),
            ("wareflow.cli", "gen_stock_levels")},
    }
    for argv, reached in ops.items():
        called.clear()
        assert cli.run(list(argv)) == 0, argv
        assert reached <= called, (argv, reached - called)
    capsys.readouterr()
    assert set().union(*ops.values()) == {
        (module, name) for module, names in TRACED.items() for name in names}


def test_levels_keep_the_fields_the_benchmark_reads():
    """perfbench/tracer.py reads S_size and levels off the value
    gen_stock_levels returns."""
    levels = wareflow.gen_stock_levels(wareflow.parse_instance(
        (DATA / "wp2_mixed.json").read_text(encoding="utf-8")))
    assert levels.S_size == max(map(len, levels.levels)) > 0
