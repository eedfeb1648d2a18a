"""Command-line frontend.

Results go to stdout (or --output files), diagnostics to stderr.  Exit
codes: 0 success, 1 infeasible instance, 2 invalid input or arguments.
Outputs are deterministic: rerunning a subcommand on the same inputs
produces byte-identical results (the bench timing column excepted).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
from pathlib import Path

from .errors import Infeasible, WarehouseError
from .extform import emit_lp
from .fptas import fptas_scale
from .generators import (
    gen_random,
    parse_lotsizing,
    reduce_lotsizing,
    reduce_partition,
)
from .model import (
    Variant,
    check_solution,
    echo,
    format_exact,
    parse_exact,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
)
from .network import SolveTrace, arc_counts, solve, to_dot
from .oracle import oracle_solve
from .stocklevels import gen_stock_levels


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _answer(sol, args) -> int:
    """Print a solver's objective and write its plan to --output, if given."""
    print(f"objective: {format_exact(sol.objective)}")
    if args.output:
        _emit(serialize_solution(sol), args.output)
    return 0


def _cmd_solve(args) -> int:
    inst = parse_instance(_read(args.input))
    sol = solve(inst)
    if args.dot:
        _emit(to_dot(inst), args.dot)
    return _answer(sol, args)


def _cmd_oracle(args) -> int:
    return _answer(oracle_solve(parse_instance(_read(args.input))), args)


def _cmd_fptas(args) -> int:
    """fptas_solve, spelled out to report K and the widest level set the
    solve searched."""
    inst = parse_instance(_read(args.input))
    params, scaled = fptas_scale(inst, parse_exact(args.epsilon))
    trace = SolveTrace()
    sol = solve(scaled, trace)
    print(f"K: {format_exact(params.K)}", file=sys.stderr)
    print(f"S_size: {trace.levels.S_size}", file=sys.stderr)
    return _answer(sol, args)


def _cmd_emit_lp(args) -> int:
    inst = parse_instance(_read(args.input))
    _emit(emit_lp(inst), args.output)
    return 0


def _cmd_check(args) -> int:
    inst = parse_instance(_read(args.input))
    sol = parse_solution(_read(args.solution))
    report = check_solution(inst, sol)
    text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
    _emit(text, args.output)
    return 0


def _cmd_levels(args) -> int:
    inst = parse_instance(_read(args.input))
    levels = gen_stock_levels(inst)
    payload = {
        "S_size": levels.S_size,
        "levels": [[format_exact(v) for v in layer] for layer in levels.levels],
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.output)
    return 0


def _cmd_gen(args) -> int:
    inst = gen_random(args.seed, args.T, Variant(args.variant), args.max_bound)
    _emit(serialize_instance(inst), args.output)
    return 0


def _cmd_reduce_partition(args) -> int:
    numbers = []
    for entry in filter(None, (v.strip() for v in args.numbers.split(","))):
        try:
            value = parse_exact(entry)
        except ValueError:
            value = None
        if type(value) is not int:
            raise WarehouseError(f"--numbers expects integers, got {echo(entry)}")
        numbers.append(value)
    inst, target = reduce_partition(numbers)
    print(f"target: {format_exact(target)}", file=sys.stderr)
    _emit(serialize_instance(inst), args.output)
    return 0


def _cmd_reduce_lotsizing(args) -> int:
    ls = parse_lotsizing(_read(args.input))
    inst, M = reduce_lotsizing(ls)
    print(f"M: {format_exact(M)}", file=sys.stderr)
    _emit(serialize_instance(inst), args.output)
    return 0


def _bench_one(name: str, inst) -> dict:
    """Solve inst and describe the network over the full levels of the
    searched instance, as SolveTrace records them before the solve cuts
    each layer to its reachable hull: the counts are read off the trace,
    so no network is built."""
    trace = SolveTrace()
    start = time.perf_counter()
    try:
        objective = format_exact(solve(inst, trace).objective)
    except Infeasible:
        objective = "infeasible"
    # three decimals: a sub-millisecond solve must not read as 0
    wall_ms = f"{(time.perf_counter() - start) * 1000:.3f}"
    searched = trace.searched
    layers = ((searched.s0,),) + trace.levels.levels
    return {
        "instance": name,
        "T": inst.T,
        "S_size": trace.levels.S_size,
        "nodes": sum(map(len, layers)),
        "arcs": sum(arc_counts(searched, layers)),
        "objective": objective,
        "wall_ms": wall_ms,
    }


def _cmd_bench(args) -> int:
    paths = sorted(Path(args.dir).glob("*.json"))
    if not paths:
        raise WarehouseError(f"no instance files in {args.dir}")
    rows = []
    for p in paths:
        try:
            rows.append(_bench_one(p.stem, parse_instance(_read(str(p)))))
        except (WarehouseError, ValueError) as err:
            raise WarehouseError(f"{p.name}: {err}") from err
    rows.sort(key=lambda r: r["instance"])
    fields = ["instance", "T", "S_size", "nodes", "arcs", "objective", "wall_ms"]
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _emit(buffer.getvalue(), args.output)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every run:
    parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="wareflow",
        description="Exact and approximate solvers for warehouse trading plans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_io(p, output_help):
        p.add_argument("--input", required=True, help="instance JSON file")
        p.add_argument("--output", default=None, help=output_help)

    p = sub.add_parser("solve", help="exact network solver")
    with_io(p, "write the solution JSON here")
    p.add_argument("--dot", default=None, help="write the network in DOT format")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("oracle", help="integer dynamic-programming solver")
    with_io(p, "write the solution JSON here")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("fptas", help="approximation scheme for wp3")
    with_io(p, "write the solution JSON here")
    p.add_argument("--epsilon", required=True, help="accuracy, e.g. 1/4")
    p.set_defaults(handler=_cmd_fptas)

    p = sub.add_parser("emit-lp", help="write the extended formulation")
    with_io(p, "write the LP text here (default stdout)")
    p.set_defaults(handler=_cmd_emit_lp)

    p = sub.add_parser("check", help="verify a solution against an instance")
    with_io(p, "write the report JSON here (default stdout)")
    p.add_argument("--solution", required=True, help="solution JSON file")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("levels", help="dump candidate stock values per period")
    with_io(p, "write the JSON dump here (default stdout)")
    p.set_defaults(handler=_cmd_levels)

    p = sub.add_parser("gen", help="seeded random instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--variant", choices=[v.value for v in Variant], required=True)
    p.add_argument("--max-bound", dest="max_bound", type=int, required=True)
    p.add_argument("--output", default=None, help="write the instance JSON here")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("reduce", help="encode another problem as an instance")
    reduce_sub = p.add_subparsers(dest="reduction", required=True)
    q = reduce_sub.add_parser("partition", help="balanced partition to wp3")
    q.add_argument("--numbers", required=True, help="comma-separated integers")
    q.add_argument("--output", default=None, help="write the instance JSON here")
    q.set_defaults(handler=_cmd_reduce_partition)
    q = reduce_sub.add_parser("lotsizing", help="lot-sizing to wp2")
    q.add_argument("--input", required=True, help="lot-sizing JSON file")
    q.add_argument("--output", default=None, help="write the instance JSON here")
    q.set_defaults(handler=_cmd_reduce_lotsizing)

    p = sub.add_parser("bench", help="solve every instance in a directory")
    p.add_argument("--dir", required=True, help="directory of instance JSON files")
    p.add_argument("--output", default=None, help="write the CSV here")
    p.set_defaults(handler=_cmd_bench)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 0 if err.code in (0, None) else 2
    try:
        return args.handler(args)
    except Infeasible as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return 1
    except (WarehouseError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
