import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import wareflow.cli
import wareflow.fptas
import wareflow.network
from wareflow import (
    Infeasible,
    Instance,
    InvalidArgument,
    LotSizingInstance,
    LowerExceedsUpper,
    check_solution,
    format_exact,
    fptas_params,
    fptas_solve,
    gen_random,
    gen_stock_levels,
    parse_instance,
    parse_lotsizing,
    parse_solution,
    reduce_partition,
    serialize_instance,
    serialize_lotsizing,
    serialize_solution,
    scale_trade_bounds,
    solve,
)
from wareflow.cli import run
from wareflow.model import echo
from helpers import (
    gap_infeasible,
    reference_build_network,
    reference_dump,
    reference_scale_instance,
    search_instance,
    solve_with_network,
    two_period_trade,
    wp2_mixed,
)


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "trade.json"
    path.write_text(serialize_instance(two_period_trade()))
    return str(path)


def test_solve_prints_objective(instance_file, capsys):
    assert run(["solve", "--input", instance_file]) == 0
    out = capsys.readouterr()
    assert out.out == "objective: 10\n"
    assert out.err == ""


def test_solve_writes_solution_file(instance_file, tmp_path, capsys):
    out_path = tmp_path / "sol.json"
    assert run(["solve", "--input", instance_file,
                "--output", str(out_path)]) == 0
    capsys.readouterr()
    sol = parse_solution(out_path.read_text())
    assert sol.objective == 10
    assert check_solution(two_period_trade(), sol).feasible


def test_solve_writes_dot_file(instance_file, tmp_path, capsys):
    dot_path = tmp_path / "net.dot"
    assert run(["solve", "--input", instance_file, "--dot", str(dot_path)]) == 0
    capsys.readouterr()
    text = dot_path.read_text()
    assert text.startswith("digraph")
    assert "->" in text


def test_solve_infeasible_exits_one(tmp_path, capsys):
    data = json.loads(serialize_instance(two_period_trade()))
    data["Ls"] = [8, 8]
    data["Us"] = [8, 8]
    data["s0"] = 0
    data["Ux"] = [1, 1]
    path = tmp_path / "stuck.json"
    path.write_text(json.dumps(data))
    gap = tmp_path / "gap.json"
    gap.write_text(serialize_instance(gap_infeasible()))
    # wp2 sells from the opening stock only: buying 3 and selling 2 would
    # reach the stock 1, but a sale from s0 = 0 is 0, so x lies in {0, 3}
    order = tmp_path / "order.json"
    order.write_text(serialize_instance(Instance(
        variant="wp2", T=1, s0=0, Ls=(1,), Us=(1,),
        Lx=(3,), Ux=(3,), Ly=(2,), Uy=(2,),
        revenue=(1,), cost=(1,), holding=(0,),
        fixed_purchase=(0,), fixed_sale=(0,),
    )))
    # the oracle answers an instance no plan gets through in the same way
    for command, source in (("solve", path), ("solve", gap), ("oracle", gap),
                            ("solve", order), ("oracle", order)):
        assert run([command, "--input", str(source)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("infeasible: ")


def test_missing_file_exits_two(tmp_path, capsys):
    assert run(["solve", "--input", str(tmp_path / "nope.json")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_bad_json_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    assert run(["solve", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def _text_mode_read(path: str) -> str:
    with open(path, encoding="utf-8") as file:
        return file.read()


_TEXT = serialize_instance(two_period_trade())
_SOLUTION = serialize_solution(solve(two_period_trade()))


@pytest.mark.parametrize("data, code", [
    (_TEXT.replace('"T": 2', '"T": 2 2').replace("\n", "\r\n").encode(), 2),
    (_TEXT.replace("\n", "\r").encode(), 0),
    (_TEXT.replace('"holding"', '"holding" 1').replace("\n", "\r\n", 9)
     .replace("\n", "\r", 9).encode(), 2),
    ("\ufeff".encode() + _TEXT.encode(), 2),
    (_TEXT.replace('"T"', '"caf\u00e9"').encode("latin-1"), 2),
], ids=["crlf-json-error", "lone-cr", "mixed-newlines-json-error", "bom",
        "latin-1"])
def test_a_file_reads_as_in_text_mode(data, code, tmp_path, capsys,
                                      monkeypatch):
    # the binary read and its newline rewrite give every op the exit code,
    # stdout and stderr that reading in text mode gives, on newlines, a
    # byte order mark and bytes that are not UTF-8; check reads two files
    path = tmp_path / "instance.json"
    path.write_bytes(data)
    solution = tmp_path / "plan.json"
    solution.write_bytes(_SOLUTION.replace("\n", "\r\n").encode())
    argvs = [["solve", "--input", str(path)],
             ["check", "--input", str(path), "--solution", str(solution)]]
    binary = [(run(argv), *capsys.readouterr()) for argv in argvs]
    monkeypatch.setattr(wareflow.cli, "_read", _text_mode_read)
    assert binary == [(run(argv), *capsys.readouterr()) for argv in argvs]
    assert binary[0][0] == code


@pytest.mark.parametrize("argv", [
    ["solve", "--input", "DEEP"],
    ["levels", "--input", "DEEP"],
    ["check", "--input", "INSTANCE", "--solution", "DEEP"],
    ["reduce", "lotsizing", "--input", "DEEP"],
], ids=["solve", "levels", "check", "reduce-lotsizing"])
def test_deeply_nested_json_exits_two(argv, instance_file, tmp_path, capsys):
    # the JSON decoder raises RecursionError on deep nesting
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    paths = {"DEEP": str(deep), "INSTANCE": instance_file}
    assert run([paths.get(arg, arg) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("error:")


# each record file: the command that reads it, its reader, a valid file and
# one of its vectors
_RECORDS = {
    "instance": (["solve", "--input"], parse_instance,
                 lambda: serialize_instance(two_period_trade()), "Uy"),
    "solution": (["check", "--input", "INSTANCE", "--solution"],
                 parse_solution,
                 lambda: serialize_solution(solve(two_period_trade())), "z"),
    "lot-sizing": (["reduce", "lotsizing", "--input"], parse_lotsizing,
                   lambda: serialize_lotsizing(LotSizingInstance(
                       T=2, s0=1, demand=(1, 1), unit_cost=(1, 1),
                       fixed_cost=(3, 3), Ux=(2, 2), Us=(2, 2))), "Us"),
}


def _broken(case: str, text: str, vector: str) -> tuple[str, str]:
    """A record file broken by case, and the message it must give with
    {kind} standing for the record's kind."""
    data = json.loads(text)
    if case == "malformed":  # the decoder's own message
        return "{ not json", ("Expecting property name enclosed in double "
                              "quotes: line 1 column 3 (char 2)")
    if case == "deep":
        return "[" * 100_000, "JSON nested too deeply"
    if case == "not-an-object":
        return json.dumps([data]), "{kind} JSON must be an object"
    if case == "missing-key":
        del data[vector]
        return json.dumps(data), f"{{kind}} JSON missing keys: {vector}"
    if case == "unknown-key":
        data["comment"] = "hi"
        return json.dumps(data), "{kind} JSON has unknown keys: 'comment'"
    if case == "unknown-keys":
        data.update({f"k{i}": i for i in range(5)})
        return json.dumps(data), (
            "{kind} JSON has unknown keys: 'k0', 'k1', 'k2' and 2 more")
    if case == "fractional-T":
        # a plan has no T, so there T is an unknown key
        has_T = "T" in data
        data["T"] = 1.5
        return json.dumps(data), ("T must be an integer, got 1.5" if has_T
                                  else "{kind} JSON has unknown keys: 'T'")
    if case == "unknown-variant":
        data["variant"] = "wp9"
        return json.dumps(data), "unknown variant: 'wp9'"
    data[vector] = "34"  # a string is iterable, but it is no vector
    return json.dumps(data), f"{vector} must be a list"


# each record kind breaks each rule; only an instance names a variant
_BROKEN = [(kind, case) for case in (
    "not-an-object", "missing-key", "unknown-key", "unknown-keys",
    "fractional-T", "string-vector", "malformed", "deep")
    for kind in _RECORDS] + [("instance", "unknown-variant")]


@pytest.mark.parametrize("kind, case", _BROKEN,
                         ids=[f"{kind}-{case}" for kind, case in _BROKEN])
def test_every_record_file_breaks_the_same_rules_in_the_same_words(
        kind, case, instance_file, tmp_path, capsys):
    argv, reader, valid, vector = _RECORDS[kind]
    text, message = _broken(case, valid(), vector)
    message = message.format(kind=kind)
    path = tmp_path / "broken.json"
    path.write_text(text)
    with pytest.raises(InvalidArgument) as raised:
        reader(text)
    assert str(raised.value) == message
    paths = {"INSTANCE": instance_file}
    assert run([*(paths.get(arg, arg) for arg in argv), str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("command", ["solve", "levels", "emit-lp"])
@pytest.mark.parametrize("bound", ["1e999999999", "2.5", "1_000", " 2 "])
def test_bound_outside_the_rational_grammar_exits_two(command, bound,
                                                      tmp_path, capsys):
    # "1e999999999" would make Fraction build 10**999999999
    data = json.loads(serialize_instance(two_period_trade()))
    data["Us"] = [bound, 10]
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(data))
    assert run([command, "--input", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: not a rational literal: {bound!r}\n")


def test_bad_arguments_exit_two(capsys):
    assert run(["solve"]) == 2
    assert run(["no-such-command"]) == 2
    capsys.readouterr()


def test_runs_after_bad_arguments_match_fresh_processes(
    instance_file, capsys, monkeypatch
):
    # run reuses one parser; a run that fails on its arguments must leave
    # nothing in it that a later run in the same process would see
    monkeypatch.setenv("COLUMNS", "80")
    argvs = [
        ["solve"],
        ["solve", "--input", instance_file],
        ["no-such-command"],
        ["levels", "--input", instance_file],
        ["fptas", "--input", instance_file],
        ["fptas", "--input", instance_file, "--epsilon", "1/3"],
    ]
    in_process = []
    for argv in argvs:
        code = run(argv)
        out = capsys.readouterr()
        in_process.append((code, out.out, out.err))
    env = dict(os.environ,
               PYTHONPATH=str(Path(wareflow.cli.__file__).parents[1]))
    fresh = []
    for argv in argvs:
        proc = subprocess.run(
            [sys.executable, "-c", "from wareflow.cli import main; main()",
             *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert in_process == fresh
    assert [code for code, _, _ in fresh] == [2, 0, 2, 0, 2, 2]


def test_python_dash_m_runs_the_cli(tmp_path):
    # python -m wareflow.cli must run main, not just import the module
    gap = tmp_path / "gap.json"
    gap.write_text(serialize_instance(gap_infeasible()))
    env = dict(os.environ,
               PYTHONPATH=str(Path(wareflow.cli.__file__).parents[1]))
    outcomes = [
        subprocess.run(
            [sys.executable, "-m", "wareflow.cli", "solve", "--input", path],
            capture_output=True, text=True, env=env, timeout=60)
        for path in (str(GOLDEN / "frac.json"), str(gap))
    ]
    assert [(p.returncode, p.stdout, p.stderr) for p in outcomes] == [
        (0, "objective: 167/30\n", ""),
        (1, "", "infeasible: no feasible trading plan\n"),
    ]


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["solve", "--help"]) == 0
    capsys.readouterr()


# argvs that run hands to their command's parser, or that the top-level
# parser reads on its own, none of them read from the command table; "X"
# stands for an instance file
_ARGVS = [
    [], ["-h"], ["--help"], ["no-such-command"], ["-h", "solve"],
    ["--", "solve", "--input", "X"], ["solve"], ["solve", "-h"],
    ["solve", "--input", "X", "--bogus"], ["solve", "--input", "X", "extra"],
    ["solve", "--input", "X", "--", "extra"], ["reduce"], ["reduce", "-h"],
    ["reduce", "partition", "--numbers", "1,2", "--bogus"],
    ["reduce", "partition", "--numbers", "-1"], ["solve", "--inp", "X"],
    ["solve", "--input=X"], ["solve", "--", "--input", "X"],
    ["levels", "--input", "X", "-h"], ["fptas", "--input", "X"],
    ["solve", "--input", "X", "--input", "X"], ["solve", "--input", ""],
    ["solve", "--input", "-"], ["fptas", "--input", "X", "--epsilon", "-1"],
    ["solve", "--input", "X", "--output"],
    ["fptas", "--input", "X", "--epsilon", "1/3", "--dot", "X.dot"],
    ["solve", "--input", "X", "--dir", "X"],
]


@pytest.mark.parametrize("argv", _ARGVS, ids=lambda a: " ".join(a) or "none")
def test_a_command_reads_its_arguments_as_the_top_level_parser_does(
    argv, instance_file, capsys, monkeypatch
):
    # the exit code, usage and message of every argv are the top-level
    # parser's: leftovers are reported under its usage, not the command's,
    # and the command table hands each of these argvs to argparse
    argv = [a.replace("X", instance_file) for a in argv]
    assert wareflow.cli._plain(argv) is None
    handed = (run(argv), *capsys.readouterr())
    monkeypatch.setattr(wareflow.cli, "_plain", lambda argv: None)
    untabled = (run(argv), *capsys.readouterr())
    parser, _ = wareflow.cli._build_parser()
    monkeypatch.setattr(wareflow.cli, "_build_parser", lambda: (parser, {}))
    alone = (run(argv), *capsys.readouterr())
    assert handed == untabled == alone
    if "--bogus" in argv:
        assert "wareflow: error: unrecognized arguments: --bogus" in alone[2]


def test_a_well_formed_op_skips_the_top_level_parser(tmp_path, capsys,
                                                     monkeypatch):
    # the command table reads a plain argv: neither the top-level parser
    # nor a command's parser runs, and none is built
    parser, commands = wareflow.cli._build_parser()
    calls = []

    def counted(method):
        def call(*args, **kwargs):
            calls.append(args)
            return method(*args, **kwargs)
        return call

    for p in (parser, *commands.values()):
        for name in ("parse_args", "parse_known_args"):
            monkeypatch.setattr(p, name, counted(getattr(p, name)))
    monkeypatch.setattr(wareflow.cli, "_build_parser",
                        counted(wareflow.cli._build_parser))
    wp2, wp3 = str(GOLDEN / "wp2_mixed.json"), str(GOLDEN / "fptas_third.json")
    plan = str(GOLDEN / "fptas_third.solution.json")
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    (bench_dir / "wp2.json").write_text(Path(wp2).read_text())
    for argv in (
        ["solve", "--input", wp2, "--output", str(tmp_path / "plan.json")],
        ["fptas", "--input", wp3, "--epsilon", "1/3"],
        ["emit-lp", "--input", wp2],
        ["check", "--input", wp3, "--solution", plan],
        ["levels", "--input", wp2],
        ["bench", "--dir", str(bench_dir)],
    ):
        assert run(argv) == 0, argv
    assert calls == []
    assert run(["levels", "--input", wp2, "--bogus"]) == 2
    assert calls
    capsys.readouterr()


def test_python_dash_m_reports_bad_arguments_as_run_does(instance_file,
                                                         capsys, monkeypatch):
    # main passes no argv, so run reads sys.argv itself
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["solve", "--input", instance_file, "--bogus"]
    in_process = (run(argv), *capsys.readouterr())
    env = dict(os.environ,
               PYTHONPATH=str(Path(wareflow.cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "wareflow.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == in_process
    assert in_process[0] == 2 and in_process[2].endswith(
        "wareflow: error: unrecognized arguments: --bogus\n")


def test_oracle_agrees_with_solver(instance_file, tmp_path, capsys):
    assert run(["oracle", "--input", instance_file]) == 0
    assert capsys.readouterr().out == "objective: 10\n"
    for seed, T, variant, bound in ((7, 8, "wp3", 40), (2, 6, "wp2", 30)):
        path = str(tmp_path / f"{variant}.json")
        assert run(["gen", "--seed", str(seed), "--T", str(T), "--variant",
                    variant, "--max-bound", str(bound), "--output", path]) == 0
        assert run(["solve", "--input", path]) == 0
        line = capsys.readouterr().out
        assert line.startswith("objective: ")
        assert run(["oracle", "--input", path]) == 0
        assert capsys.readouterr().out == line


def test_oracle_fractional_exits_two(tmp_path, capsys):
    data = json.loads(serialize_instance(two_period_trade()))
    data["s0"] = "1/2"
    path = tmp_path / "frac.json"
    path.write_text(json.dumps(data))
    assert run(["oracle", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_fptas_reports_unit_on_stderr(tmp_path, capsys):
    inst = parse_instance(serialize_instance(two_period_trade()))
    data = json.loads(serialize_instance(inst))
    data["variant"] = "wp3"
    path = tmp_path / "wp3.json"
    path.write_text(json.dumps(data))
    assert run(["fptas", "--input", str(path), "--epsilon", "2/5"]) == 0
    out = capsys.readouterr()
    assert out.out.startswith("objective: ")
    assert "K: 2" in out.err
    assert "S_size:" in out.err


def test_fptas_scales_the_instance_once(tmp_path, capsys, monkeypatch):
    calls = []
    original = wareflow.fptas.fptas_rows

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # patched wherever a caller could bind it, the CLI included
    monkeypatch.setattr(wareflow.fptas, "fptas_rows", counted)
    monkeypatch.setattr(wareflow.cli, "fptas_rows", counted, raising=False)
    data = json.loads(serialize_instance(two_period_trade()))
    data["variant"] = "wp3"
    path = tmp_path / "wp3.json"
    path.write_text(json.dumps(data))
    assert run(["fptas", "--input", str(path), "--epsilon", "2/5"]) == 0
    assert "K: 2" in capsys.readouterr().err
    assert len(calls) == 1


def test_fptas_builds_no_instance_after_parsing(tmp_path, capsys,
                                                monkeypatch):
    # the trade bounds are rounded in the searched rows, so neither
    # fptas_solve nor the fptas op builds and validates a rounded Instance:
    # fptas_third has K = 2/3, and its copy over 3 fractional data too
    source = parse_instance((GOLDEN / "fptas_third.json").read_text())
    cases = [source, reference_scale_instance(source, Fraction(1, 3))]
    eps = Fraction(1, 3)
    assert [fptas_params(inst, eps).K.denominator for inst in cases] == [3, 9]
    built = []
    original = wareflow.model.validate_instance
    parse = wareflow.cli.parse_instance

    def counted(inst):
        built.append(inst)
        original(inst)

    def parsed(text):  # the op's one Instance is the one it reads
        inst = parse(text)
        built.clear()
        return inst

    monkeypatch.setattr(wareflow.model, "validate_instance", counted)
    monkeypatch.setattr(wareflow.cli, "parse_instance", parsed)
    counts = []
    for k, inst in enumerate(cases):
        path = tmp_path / f"{k}.json"
        path.write_text(serialize_instance(inst))
        built.clear()
        fptas_solve(inst, eps)
        counts.append(len(built))
        assert run(["fptas", "--input", str(path), "--epsilon", "1/3"]) == 0
        counts.append(len(built))
    capsys.readouterr()
    assert counts == [0, 0, 0, 0]
    scale_trade_bounds(source, fptas_params(source, eps))
    assert len(built) == 1  # the counter sees an Instance built


def test_fptas_generates_the_level_sets_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(original):
        def call(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        return call

    # the one sweep and gen_stock_levels, patched wherever a caller could
    # bind them, the CLI included
    for module, name in ((wareflow.network, "searched_levels"),
                         (wareflow.network, "gen_stock_levels"),
                         (wareflow.cli, "gen_stock_levels")):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    data = json.loads(serialize_instance(two_period_trade()))
    data["variant"] = "wp3"
    path = tmp_path / "wp3.json"
    path.write_text(json.dumps(data))
    assert run(["fptas", "--input", str(path), "--epsilon", "1/3"]) == 0
    assert capsys.readouterr().err == "K: 5/3\nS_size: 3\n"
    assert len(calls) == 1


def test_fptas_wrong_variant_exits_two(instance_file, capsys):
    # instance_file holds two_period_trade, a wp1 instance; the message
    # names the fptas command, not the library function behind it
    assert run(["fptas", "--input", instance_file, "--epsilon", "1/2"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: fptas applies to wp3 instances only\n"


def test_fptas_rejects_wp3_holding(tmp_path, capsys):
    data = json.loads(serialize_instance(two_period_trade()))
    data["variant"] = "wp3"
    data["holding"] = [0, 1]
    path = tmp_path / "held.json"
    path.write_text(json.dumps(data))
    assert run(["fptas", "--input", str(path), "--epsilon", "1/3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "holding[2]" in err


def test_an_invalid_instance_is_reported_before_the_other_arguments(
        tmp_path, capsys):
    # the instance is refused while its file is parsed, so its own error
    # comes before a malformed --epsilon or an unreadable --solution
    data = dict(json.loads(serialize_instance(two_period_trade())),
                variant="wp3", Lx=[3, 0], Ux=[1, 5])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{")
    for extra in (["fptas", "--epsilon", "1.5"],
                  ["check", "--solution", str(garbage)]):
        assert run([*extra, "--input", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: Lx[1] = 3 exceeds Ux[1] = 1\n"
    # with a valid instance the malformed epsilon is the error
    path.write_text(serialize_instance(reduce_partition([1, 1])[0]))
    assert run(["fptas", "--epsilon", "1.5", "--input", str(path)]) == 2
    assert capsys.readouterr().err == "error: not a rational literal: '1.5'\n"


def _solve_outputs(tmp_path, capsys, path, *extra):
    sol_path = tmp_path / "sol.json"
    sol_path.unlink(missing_ok=True)
    code = run(["solve", "--input", str(path), "--output", str(sol_path),
                *extra])
    out = capsys.readouterr()
    text = sol_path.read_text() if sol_path.exists() else None
    return code, out.out, out.err, text


def test_solve_output_is_the_same_with_dot(tmp_path, capsys):
    stuck = replace(two_period_trade(), Ls=(8, 8), Us=(8, 8), Ux=(1, 1))
    instances = [two_period_trade(), wp2_mixed(), stuck,
                 gen_random(7, T=8, variant="wp3", max_bound=40)]
    instances += [gen_random(seed, T=4, variant=variant, max_bound=6)
                  for seed in range(4) for variant in ("wp1", "wp2", "wp3")]
    codes = set()
    for k, inst in enumerate(instances):
        path = tmp_path / f"inst{k}.json"
        path.write_text(serialize_instance(inst))
        plain = _solve_outputs(tmp_path, capsys, path)
        with_dot = _solve_outputs(tmp_path, capsys, path,
                                  "--dot", str(tmp_path / "net.dot"))
        assert plain == with_dot
        codes.add(plain[0])
    assert codes == {0, 1}


def test_solve_and_fptas_build_no_network(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("arc priced")

    monkeypatch.setattr(wareflow.network, "arc_candidates", refuse)
    assert not hasattr(wareflow.cli, "arc_candidates")
    inst = two_period_trade()
    path = tmp_path / "trade.json"
    path.write_text(serialize_instance(inst))
    assert run(["solve", "--input", str(path)]) == 0
    assert capsys.readouterr().out == "objective: 10\n"
    wp2_path = tmp_path / "mixed.json"
    wp2_path.write_text(serialize_instance(wp2_mixed()))
    assert run(["solve", "--input", str(wp2_path)]) == 0
    assert capsys.readouterr().out.startswith("objective: ")
    data = json.loads(serialize_instance(inst))
    data["variant"] = "wp3"
    path.write_text(json.dumps(data))
    assert run(["fptas", "--input", str(path), "--epsilon", "2/5"]) == 0
    assert capsys.readouterr().out.startswith("objective: ")
    # --dot draws the arcs from the window slices of the searched instance
    # and prices each one it draws
    monkeypatch.undo()
    golden = sorted(GOLDEN.glob("*.dot"))
    assert len(golden) == 6
    for dot in golden:
        out = tmp_path / dot.name
        assert run(["solve", "--input", str(dot.with_suffix(".json")),
                    "--dot", str(out)]) == 0
        assert capsys.readouterr().out.startswith("objective: ")
        assert out.read_bytes() == dot.read_bytes()


@pytest.mark.parametrize("command", ["emit-lp", "levels", "check", "solve"])
@pytest.mark.parametrize("defect", [
    {"Lx": [3, 0], "Ux": [1, 5]},  # Lx[1] = 3 exceeds Ux[1] = 1
    {"Uy": [5]},  # one entry for T = 2
    {"Us": [1.5, 10]},  # a JSON float is no exact number
    {"Lx": [True, 0]},  # nor is a JSON boolean
], ids=["lower-exceeds-upper", "short-vector", "float-bound", "bool-bound"])
def test_invalid_instance_exits_two(command, defect, tmp_path, capsys):
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(serialize_solution(solve(two_period_trade())))
    data = json.loads(serialize_instance(two_period_trade()))
    data.update(defect)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    argv = [command, "--input", str(path)]
    if command == "check":
        argv += ["--solution", str(sol_path)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_check_reports_tampering(instance_file, tmp_path, capsys):
    sol_path = tmp_path / "sol.json"
    assert run(["solve", "--input", instance_file,
                "--output", str(sol_path)]) == 0
    capsys.readouterr()

    assert run(["check", "--input", instance_file,
                "--solution", str(sol_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["feasible"] is True
    assert report["violations"] == []

    data = json.loads(sol_path.read_text())
    data["objective"] = 11
    sol_path.write_text(json.dumps(data))
    assert run(["check", "--input", instance_file,
                "--solution", str(sol_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["feasible"] is False
    assert report["violations"]


def test_check_writes_the_report_json_dumps_writes(instance_file, tmp_path,
                                                  capsys):
    # a plan with no violation and one with three: the report's bytes are
    # json.dumps(..., sort_keys=True, indent=2) plus a newline
    sol = solve(two_period_trade())
    plans = [sol, replace(sol, x=(6, 0), objective=Fraction(21, 2))]
    for k, plan in enumerate(plans):
        path = tmp_path / f"plan{k}.json"
        path.write_text(serialize_solution(plan))
        assert run(["check", "--input", instance_file,
                    "--solution", str(path)]) == 0
        report = check_solution(two_period_trade(), plan)
        assert len(report.violations) == 3 * k
        assert capsys.readouterr().out == reference_dump(
            report.to_json_dict())


def test_levels_json(instance_file, tmp_path, capsys):
    assert run(["levels", "--input", instance_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["S_size"] == 3
    assert payload["levels"] == [[0, 5, 10], [0, 5, 10]]
    # a wp2 instance lists its T layers, not those of its doubled horizon
    path = tmp_path / "wp2.json"
    path.write_text(serialize_instance(gen_random(2, T=6, variant="wp2",
                                                  max_bound=30)))
    assert run(["levels", "--input", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["levels"]) == 6
    assert payload["S_size"] == max(map(len, payload["levels"]))


def test_gen_then_solve_pipeline(tmp_path, capsys):
    path = tmp_path / "gen.json"
    assert run(["gen", "--seed", "4", "--T", "3", "--variant", "wp1",
                "--max-bound", "5", "--output", str(path)]) == 0
    capsys.readouterr()
    # the file gen writes is the generated instance in the form that
    # python -m json.tool --sort-keys --indent 2 prints
    text = path.read_text()
    inst = parse_instance(text)
    assert inst == gen_random(4, T=3, variant="wp1", max_bound=5)
    assert text == reference_dump(json.loads(text))
    code = run(["solve", "--input", str(path)])
    assert code in (0, 1)
    capsys.readouterr()


def test_gen_is_deterministic(capsys):
    argv = ["gen", "--seed", "11", "--T", "2", "--variant", "wp2",
            "--max-bound", "4"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first


def test_reduce_partition_command(tmp_path, capsys):
    path = tmp_path / "part.json"
    assert run(["reduce", "partition", "--numbers", "1,2,3",
                "--output", str(path)]) == 0
    out = capsys.readouterr()
    assert out.err == "target: 9\n"
    assert run(["solve", "--input", str(path)]) == 0
    assert capsys.readouterr().out == "objective: 9\n"


def test_reduce_partition_rejects_garbage(capsys):
    assert run(["reduce", "partition", "--numbers", "1,x,3"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("numbers", ["3,1,4,1,5", "3, 1, 4"])
def test_reduce_partition_reads_the_integer_grammar(numbers, tmp_path,
                                                    capsys):
    path = tmp_path / "part.json"
    assert run(["reduce", "partition", "--numbers", numbers,
                "--output", str(path)]) == 0
    inst, target = reduce_partition([int(v) for v in numbers.split(",")])
    assert capsys.readouterr().err == f"target: {format_exact(target)}\n"
    assert path.read_text() == serialize_instance(inst)


@pytest.mark.parametrize("entry", ["1_0", "\u0663", "1e3", "3/2", "9" * 5000],
                         ids=["underscore", "arabic-indic", "exponent",
                              "fraction", "5000-digits"])
def test_reduce_partition_refuses_entries_outside_the_grammar(entry, capsys):
    assert run(["reduce", "partition", "--numbers", f"1, {entry} ,2"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: --numbers expects integers, got {echo(entry)}\n"
    assert len(out.err.encode()) < 200


def test_reduce_lotsizing_command(tmp_path, capsys):
    from wareflow import LotSizingInstance

    ls = LotSizingInstance(T=2, s0=1, demand=(1, 1), unit_cost=(1, 1),
                           fixed_cost=(3, 3), Ux=(2, 2), Us=(2, 2))
    ls_path = tmp_path / "ls.json"
    ls_path.write_text(serialize_lotsizing(ls))
    inst_path = tmp_path / "wp2.json"
    assert run(["reduce", "lotsizing", "--input", str(ls_path),
                "--output", str(inst_path)]) == 0
    assert capsys.readouterr().err == "M: 11\n"
    text = inst_path.read_text()
    assert text == reference_dump(json.loads(text))
    assert run(["solve", "--input", str(inst_path)]) == 0
    assert capsys.readouterr().out == "objective: 18\n"


def test_reduce_lotsizing_refuses_invalid_data(tmp_path, capsys):
    # the file parses, and the record it builds refuses its negative demand
    ls_path = tmp_path / "ls.json"
    ls_path.write_text(json.dumps({
        "T": 1, "s0": 0, "demand": [-1], "unit_cost": [1], "fixed_cost": [0],
        "Ux": [1], "Us": [1]}))
    assert run(["reduce", "lotsizing", "--input", str(ls_path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: demand has a negative entry\n"


@pytest.mark.parametrize("demand", [5, "34"], ids=["number", "string"])
def test_reduce_lotsizing_rejects_a_vector_that_is_not_a_list(
    demand, tmp_path, capsys
):
    # a string is iterable: "34" must not read as the vector [3, 4]
    from wareflow import LotSizingInstance

    ls = LotSizingInstance(T=2, s0=1, demand=(3, 4), unit_cost=(1, 1),
                           fixed_cost=(3, 3), Ux=(2, 2), Us=(2, 2))
    data = json.loads(serialize_lotsizing(ls))
    data["demand"] = demand
    ls_path = tmp_path / "ls.json"
    ls_path.write_text(json.dumps(data))
    assert run(["reduce", "lotsizing", "--input", str(ls_path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: demand must be a list\n"


def test_reduce_lotsizing_cuts_a_long_key_short(tmp_path, capsys):
    ls = LotSizingInstance(T=1, s0=0, demand=(1,), unit_cost=(1,),
                           fixed_cost=(0,), Ux=(1,), Us=(1,))
    data = dict(json.loads(serialize_lotsizing(ls)), **{"k" * 5000: 1})
    ls_path = tmp_path / "ls.json"
    ls_path.write_text(json.dumps(data))
    assert run(["reduce", "lotsizing", "--input", str(ls_path)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: lot-sizing JSON has unknown keys: "
                   f"'{'k' * 39}... (5002 characters)\n")
    assert len(err.encode()) < 200


def test_emit_lp_to_file(instance_file, tmp_path, capsys):
    lp_path = tmp_path / "model.lp"
    assert run(["emit-lp", "--input", instance_file,
                "--output", str(lp_path)]) == 0
    capsys.readouterr()
    text = lp_path.read_text()
    assert "Maximize" in text and text.endswith("End\n")


# emit-lp text pinned byte for byte: two_period_trade with nonzero fixed
# costs, wp2_mixed on its doubled horizon, frac, whose LP is scaled by
# F = 30, decimal_halves, whose Ux 5/2 and cost 1/4 print unscaled as 2.5
# and 0.25, and stock_third, whose Us 1/3 is a level that no printed number
# uses, so it prints unscaled
GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.lp")))
def test_emit_lp_matches_the_golden_file(name, tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("arc priced")

    # the LP text is written from the levels alone
    monkeypatch.setattr(wareflow.network, "arc_candidates", refuse)
    source = str(GOLDEN / f"{name}.json")
    expected = (GOLDEN / f"{name}.lp").read_bytes()
    lp_path = tmp_path / f"{name}.lp"
    assert run(["emit-lp", "--input", source, "--output", str(lp_path)]) == 0
    assert lp_path.read_bytes() == expected
    assert run(["emit-lp", "--input", source]) == 0
    assert capsys.readouterr().out.encode() == expected


# every committed instance: solve prints the objective line and writes the
# plan of the tests' network witness, check finds that plan feasible, and
# where the bounds are integral the oracle prints the same line
@pytest.mark.parametrize("name", sorted(
    p.name.removesuffix(".json") for p in GOLDEN.glob("*.json")
    if not p.name.endswith(".solution.json")
    and p.name != "cli_digests.json"))
def test_solve_matches_the_network_witness_on_the_data_files(name, tmp_path,
                                                             capsys):
    source = GOLDEN / f"{name}.json"
    inst = parse_instance(source.read_text())
    sol = solve_with_network(inst)[0]
    plan = tmp_path / "plan.json"
    assert run(["solve", "--input", str(source), "--output", str(plan)]) == 0
    line = capsys.readouterr().out
    assert line == f"objective: {format_exact(sol.objective)}\n"
    assert plan.read_bytes() == serialize_solution(sol).encode()
    assert run(["check", "--input", str(source), "--solution", str(plan)]) == 0
    assert json.loads(capsys.readouterr().out)["feasible"] is True
    if inst.bounds_integral():
        assert run(["oracle", "--input", str(source)]) == 0
        assert capsys.readouterr().out == line


def test_fptas_matches_the_golden_files(tmp_path, capsys):
    # wp3 at epsilon = 1/3 over U_min = 2: K = 2/3 has no decimal form, so
    # the rounded bounds, the plan and the objective are thirds
    source = str(GOLDEN / "fptas_third.json")
    plan = GOLDEN / "fptas_third.solution.json"
    out_path = tmp_path / "plan.json"
    assert run(["fptas", "--input", source, "--epsilon", "1/3",
                "--output", str(out_path)]) == 0
    out = capsys.readouterr()
    assert out_path.read_bytes() == plan.read_bytes()
    assert out.err.encode() == (GOLDEN / "fptas_third.stderr").read_bytes()
    objective = json.loads(plan.read_text())["objective"]
    assert out.out == f"objective: {objective}\n"


# the solve --dot network pinned byte for byte on the same instances, three
# with p/q labels (frac, decimal_halves, stock_third), wp2_mixed on its
# doubled horizon and fptas_third as solve reads it, with no rounding
@pytest.mark.parametrize("name", ["two_period_trade", "wp2_mixed", "frac",
                                  "decimal_halves", "stock_third",
                                  "fptas_third"])
def test_solve_dot_matches_the_golden_file(name, tmp_path, capsys):
    dot_path = tmp_path / f"{name}.dot"
    assert run(["solve", "--input", str(GOLDEN / f"{name}.json"),
                "--dot", str(dot_path)]) == 0
    capsys.readouterr()
    assert dot_path.read_bytes() == (GOLDEN / f"{name}.dot").read_bytes()


def test_a_five_thousand_digit_bound_gives_a_short_error(tmp_path, capsys):
    data = json.loads(serialize_instance(two_period_trade()))
    data["Us"] = ["9" * 5000, 10]
    path = tmp_path / "long.json"
    path.write_text(json.dumps(data))
    for command in ("solve", "levels", "emit-lp"):
        assert run([command, "--input", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (f"error: not a rational literal: '{'9' * 39}... "
                           "(5002 characters)\n")
        assert len(out.err.encode()) < 200


def test_bench_csv(tmp_path, capsys):
    bench_dir = tmp_path / "instances"
    bench_dir.mkdir()
    (bench_dir / "b_trade.json").write_text(
        serialize_instance(two_period_trade()))
    (bench_dir / "a_mixed.json").write_text(serialize_instance(wp2_mixed()))
    assert run(["bench", "--dir", str(bench_dir)]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0] == (
        "instance,T,S_size,nodes,arcs,objective,wall_ms")
    rows = list(csv.DictReader(text.splitlines()))
    assert [r["instance"] for r in rows] == ["a_mixed", "b_trade"]
    assert rows[1]["objective"] == "10"
    assert rows[1]["T"] == "2" and rows[1]["S_size"] == "3"
    assert all(_is_wall_ms(r["wall_ms"]) for r in rows)
    # milliseconds to three decimals: a sub-millisecond feasible solve
    # reads above 0
    assert float(rows[1]["wall_ms"]) > 0


def _is_wall_ms(text: str) -> bool:
    return re.fullmatch(r"[0-9]+\.[0-9]{3}", text) is not None


def _network_bench_row(name, inst) -> dict:
    """A bench row, apart from wall_ms, with the counts read off the network
    built over the searched instance."""
    try:
        objective = str(format_exact(solve(inst).objective))
    except Infeasible:
        objective = "infeasible"
    base = search_instance(inst)
    net = reference_build_network(base, gen_stock_levels(base))
    return {"instance": name, "T": str(inst.T),
            "S_size": str(max(len(layer) for layer in net.layers[1:])),
            "nodes": str(net.node_count), "arcs": str(net.arc_count),
            "objective": objective}


def test_bench_counts_the_searched_levels_without_a_network(
    tmp_path, capsys, monkeypatch
):
    wp3 = gen_random(5, T=6, variant="wp3", max_bound=12)
    cases = {
        "a_stuck": replace(two_period_trade(), s0=0, Ls=(8, 8), Us=(8, 8),
                           Ux=(1, 1)),
        "b_trade": two_period_trade(),
        "c_mixed": wp2_mixed(),
        "d_frac": parse_instance((GOLDEN / "frac.json").read_text()),
        "e_fptas": scale_trade_bounds(wp3, fptas_params(wp3, Fraction(1, 3))),
    }
    for seed, variant in enumerate(("wp1", "wp2", "wp3")):
        cases[f"f_{variant}"] = gen_random(seed, T=8, variant=variant,
                                           max_bound=20)
    cases["g_wp3"] = gen_random(7, T=8, variant="wp3", max_bound=40)
    cases["h_wp2"] = gen_random(2, T=6, variant="wp2", max_bound=30)
    for name, inst in cases.items():
        (tmp_path / f"{name}.json").write_text(serialize_instance(inst))
    expected = [_network_bench_row(name, inst) for name, inst in cases.items()]
    assert expected[0]["objective"] == "infeasible"
    assert not cases["e_fptas"].bounds_integral()

    def refuse(*args, **kwargs):
        raise AssertionError("arc priced")

    # the levels are built once per instance, by the one sweep, and
    # gen_stock_levels is not called on top of it
    levels_calls = []

    def counted(original):
        def call(*args, **kwargs):
            levels_calls.append(args[0])
            return original(*args, **kwargs)
        return call

    monkeypatch.setattr(wareflow.network, "arc_candidates", refuse)
    for module, name in ((wareflow.cli, "gen_stock_levels"),
                         (wareflow.network, "gen_stock_levels"),
                         (wareflow.network, "searched_levels")):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    assert run(["bench", "--dir", str(tmp_path)]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert all(_is_wall_ms(row.pop("wall_ms")) for row in rows)
    assert rows == expected
    assert len(levels_calls) == len(cases)


def test_bench_empty_dir_exits_two(tmp_path, capsys):
    assert run(["bench", "--dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_bench_names_the_file_it_cannot_read(tmp_path, capsys):
    inst = two_period_trade()
    (tmp_path / "a_trade.json").write_text(serialize_instance(inst))
    bad = tmp_path / "b_trade.solution.json"
    bad.write_text(serialize_solution(solve(inst)))
    assert run(["bench", "--dir", str(tmp_path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "error: b_trade.solution.json: instance JSON missing keys: variant, "
        "T, s0, Ls, Us, Lx, Ux, Ly, Uy, revenue, cost, holding, "
        "fixed_purchase, fixed_sale\n")
    # an instance that parses but fails validation is named as well
    bad.unlink()
    invalid = dict(json.loads(serialize_instance(inst)), Lx=[3, 0], Ux=[1, 5])
    (tmp_path / "c_invalid.json").write_text(json.dumps(invalid))
    with pytest.raises(LowerExceedsUpper) as caught:
        replace(inst, Lx=(3, 0), Ux=(1, 5))
    assert run(["bench", "--dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: c_invalid.json: {caught.value}\n"
    # so is a file that is not UTF-8, whose error text ignores its args
    (tmp_path / "c_invalid.json").unlink()
    (tmp_path / "d_bytes.json").write_bytes(b"\xff\xfe")
    assert run(["bench", "--dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: d_bytes.json: 'utf-8' codec can't decode byte 0xff in "
        "position 0: invalid start byte\n")
