"""Command-line frontend.

Results go to stdout (or --output files), diagnostics to stderr.  Exit
codes: 0 success, 1 infeasible instance, 2 invalid input or arguments.
Outputs are deterministic: rerunning a subcommand on the same inputs
produces byte-identical results (the bench timing column excepted).

The arguments are read in one of two ways.  _COMMANDS declares every
command whose options are plain strings; a command line of one of them
followed by pairs of its own flags and their values (each flag at most
once, no value empty or starting with '-', every required flag given) is
read straight from that table, and no parser is built.  Any other argv
goes to the argparse parser that _build_parser builds from the same table
and for gen and reduce, so every help text, usage, message and exit code
is argparse's own.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import sys
import time
from pathlib import Path

from .errors import Infeasible, WarehouseError
from .extform import emit_lp
from .fptas import fptas_rows
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
    scale_factor,
    serialize_instance,
    serialize_levels,
    serialize_report,
    serialize_solution,
)
from .network import SolveTrace, arc_counts, search, solve, to_dot
from .oracle import oracle_solve
from .stocklevels import gen_stock_levels, searched


def _read(path: str) -> str:
    """A file's text as text mode reads it: decoded as UTF-8, each CRLF
    and lone CR made LF.  One binary read and one decode are faster, and
    the rarely needed newline rewrite runs only when a CR occurs."""
    with open(path, "rb") as file:
        text = file.read().decode()
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as file:
            file.write(text)


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
    search over the rounded int rows (fptas_rows) ran on."""
    inst = parse_instance(_read(args.input))
    params, rows, F = fptas_rows(inst, parse_exact(args.epsilon))
    trace = SolveTrace()
    sol = search(inst, rows, F, trace)
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
    _emit(serialize_report(check_solution(inst, sol)), args.output)
    return 0


def _cmd_levels(args) -> int:
    inst = parse_instance(_read(args.input))
    _emit(serialize_levels(gen_stock_levels(inst)), args.output)
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
    """Search searched(inst, F), F = model.scale_factor(inst), with no
    feasibility pass, and describe the network over the full levels of
    those rows, read off them and the SolveTrace, so no network is built:
    an infeasible instance has its counts too, and its wall_ms runs up to
    the DP's verdict."""
    trace = SolveTrace()
    start = time.perf_counter()
    F = scale_factor(inst)
    rows = searched(inst, F)
    try:
        objective = format_exact(search(inst, rows, F, trace).objective)
    except Infeasible:
        objective = "infeasible"
    # three decimals: a sub-millisecond solve must not read as 0
    wall_ms = f"{(time.perf_counter() - start) * 1000:.3f}"
    layers = ((rows.s0,),) + trace.levels.levels
    return {
        "instance": name,
        "T": inst.T,
        "S_size": trace.levels.S_size,
        "nodes": sum(map(len, layers)),
        "arcs": sum(arc_counts(rows, layers)),
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


# Every command whose options are all plain strings: its handler, its help,
# its options' flags with their help, and the flags it requires.  An option
# left out reads None.  _build_parser declares these commands from here and
# _plain reads a plain argv by the same table.
_COMMANDS = {
    "solve": (_cmd_solve, "exact network solver", {
        "--input": "instance JSON file",
        "--output": "write the solution JSON here",
        "--dot": "write the network in DOT format",
    }, ("--input",)),
    "oracle": (_cmd_oracle, "integer dynamic-programming solver", {
        "--input": "instance JSON file",
        "--output": "write the solution JSON here",
    }, ("--input",)),
    "fptas": (_cmd_fptas, "approximation scheme for wp3", {
        "--input": "instance JSON file",
        "--output": "write the solution JSON here",
        "--epsilon": "accuracy, e.g. 1/4",
    }, ("--input", "--epsilon")),
    "emit-lp": (_cmd_emit_lp, "write the extended formulation", {
        "--input": "instance JSON file",
        "--output": "write the LP text here (default stdout)",
    }, ("--input",)),
    "check": (_cmd_check, "verify a solution against an instance", {
        "--input": "instance JSON file",
        "--output": "write the report JSON here (default stdout)",
        "--solution": "solution JSON file",
    }, ("--input", "--solution")),
    "levels": (_cmd_levels, "dump candidate stock values per period", {
        "--input": "instance JSON file",
        "--output": "write the JSON dump here (default stdout)",
    }, ("--input",)),
    "bench": (_cmd_bench, "solve every instance in a directory", {
        "--dir": "directory of instance JSON files",
        "--output": "write the CSV here",
    }, ("--dir",)),
}


def _add_gen_and_reduce(sub) -> None:
    """The commands whose options argparse converts or nests."""
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every run:
    parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="wareflow",
        description="Exact and approximate solvers for warehouse trading plans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, text, options, required) in _COMMANDS.items():
        if name == "bench":  # the help lists gen and reduce before bench
            _add_gen_and_reduce(sub)
        p = sub.add_parser(name, help=text)
        for flag, option_help in options.items():
            p.add_argument(flag, required=flag in required, help=option_help)
        p.set_defaults(handler=handler)
    return parser


def _plain(argv) -> argparse.Namespace | None:
    """argv's options and handler as the argument parser reads them, read
    from _COMMANDS with no parser, when argv is a command of the table
    followed by pairs of one of its flags, each at most once, and a
    non-empty value that does not start with '-', and names every flag
    the command requires.  None for any other argv, which argparse
    reads."""
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    handler, _, options, required = _COMMANDS[argv[0]]
    given = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag not in options or flag in given or value[:1] in ("", "-"):
            return None
        given[flag] = value
    if not all(flag in given for flag in required):
        return None
    return argparse.Namespace(
        **{flag[2:]: given.get(flag) for flag in options}, handler=handler)


def _parse(argv) -> argparse.Namespace:
    """_plain's namespace where it reads argv, else the argument parser's."""
    if argv is None:
        argv = sys.argv[1:]
    args = _plain(argv)
    return args if args is not None else _build_parser().parse_args(argv)


def run(argv=None) -> int:
    try:
        args = _parse(argv)
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
    sys.exit(run())


if __name__ == "__main__":
    main()
