"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

They run the real workloads with a one-second budget (one pass, two with
tracing), so the whole file takes a minute or two.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run

assert run.use_checkout_sources(), "run from a checkout with src/wareflow"

import checker  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from wareflow import Infeasible, gen_random, oracle_solve, solve  # noqa: E402
from wareflow.fptas import fptas_params, scale_trade_bounds  # noqa: E402
from wareflow.model import serialize_instance  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(run.ROOT / "perfbench" / "run.py"),
                           *map(str, args)], capture_output=True, text=True,
                          cwd=run.ROOT, timeout=600)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs() -> dict:
    """End-to-end runs on two seeds, traced runs twice on one seed."""
    common = ("--workload", "mixed-small", "--seconds", 1)
    return {
        "e2e-3": bench(*common, "--seed", 3, "--trace", 0),
        "e2e-4": bench(*common, "--seed", 4, "--trace", 0),
        "trace-a": bench(*common, "--seed", 3, "--trace", 1),
        "trace-b": bench(*common, "--seed", 3, "--trace", 1),
    }


@pytest.fixture(scope="module")
def lp_pass(tmp_path_factory):
    """One untimed-budget pass of lp-export, in process, with its checker."""
    workdir = tmp_path_factory.mktemp("lp-export")
    probe = run.SpeedProbe()
    batch, answers, fptas, _ = run.set_up("lp-export", 5, workdir, probe)
    records, _ = run.run_passes(batch, workdir, 0, probe)
    return records, checker.Checker(batch.instances, answers, fptas), answers


# --- tampered outputs count as failures ----------------------------------------


def _tampered(record, tmp_path: Path, edit) -> checker.Record:
    path = tmp_path / f"tampered-{record.op.id}{record.output.suffix}"
    path.write_text(edit(record.output.read_text()))
    return dataclasses.replace(record, output=path)


def _pick(records, answers, kind, rule=lambda answer: answer.feasible):
    return next(r for r in records
                if r.op.kind == kind and rule(answers[r.op.instance]))


def test_untampered_pass_is_correct(lp_pass):
    records, judge, _ = lp_pass
    assert [judge.verdict(r) for r in records] == [None] * len(records)


def test_tampered_objective_is_a_failure(lp_pass, tmp_path):
    records, judge, answers = lp_pass
    record = _pick(records, answers, "solve")

    def bump(text):
        data = json.loads(text)
        data["objective"] = str(Fraction(data["objective"]) + 1)
        return json.dumps(data)

    assert judge.verdict(_tampered(record, tmp_path, bump)) is not None


def test_tampered_plan_is_a_failure(lp_pass, tmp_path):
    records, judge, answers = lp_pass
    record = _pick(records, answers, "solve")

    def move_stock(text):
        data = json.loads(text)
        data["s"][0] = str(Fraction(data["s"][0]) + 1)
        return json.dumps(data)

    assert judge.verdict(_tampered(record, tmp_path, move_stock)) is not None


def test_tampered_lp_is_a_failure(lp_pass, tmp_path):
    records, judge, answers = lp_pass
    record = _pick(records, answers, "emit-lp")
    impossible = lambda text: text.replace(  # noqa: E731
        "Subject To\n", "Subject To\n tamper: s_1 >= 1000000000\n")
    assert judge.verdict(_tampered(record, tmp_path, impossible)) is not None

    scaled = next(r for r in records if r.op.kind == "emit-lp"
                  and r.op.instance == "wp3-T8-rounded")
    assert "scaled by 3" in scaled.output.read_text()
    assert answers["wp3-T8-rounded"].objective != 0
    unscaled = lambda text: text.replace("scaled by 3", "scaled by 1")  # noqa: E731
    assert judge.verdict(_tampered(scaled, tmp_path, unscaled)) is not None


def test_wrong_exit_code_is_a_failure(lp_pass):
    records, judge, answers = lp_pass
    record = _pick(records, answers, "solve")
    assert judge.verdict(dataclasses.replace(record, rc=1)) is not None
    assert judge.verdict(dataclasses.replace(record, error="boom\n")) is not None


# --- output format ---------------------------------------------------------------


def test_every_metric_prints_with_its_unit(runs):
    for key, section in (("e2e-3", "end_to_end"), ("trace-a", "per_layer")):
        proc = runs[key]
        out = result(proc)
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
        assert {n: m["unit"] for n, m in out["metrics"].items()} == declared
        lines = proc.stdout.splitlines()
        for name, unit in declared.items():
            value = out["metrics"][name]["value"]
            assert isinstance(value, (int, float))
            assert any(line.split()[0::2][:2] == [name, unit] for line in lines), name
        assert any(line.startswith("fail_rate 0 ratio") for line in lines)


def test_seed_changes_inputs_but_not_metric_names(runs):
    for name in workloads.NAMES:
        one, two = workloads.build(name, 1), workloads.build(name, 2)
        assert one.instances.keys() == two.instances.keys()
        texts = [(serialize_instance(one.instances[k]),
                  serialize_instance(two.instances[k])) for k in one.instances]
        assert all(a != b for a, b in texts), name
    assert (result(runs["e2e-3"])["metrics"].keys()
            == result(runs["e2e-4"])["metrics"].keys())


def test_trace_self_times_sum_to_traced_wall(runs):
    metrics = {k: v["value"] for k, v in result(runs["trace-a"])["metrics"].items()}
    self_total = sum(v for k, v in metrics.items()
                     if k.endswith("_s") and not k.startswith("trace."))
    gap = metrics["trace.wall_s"] - self_total
    assert 0 <= gap <= abs(metrics["trace.overhead_s"]) + 0.01 * metrics["trace.wall_s"]


def test_counts_repeat_across_runs_of_one_seed(runs):
    counts = [k for k, u in ((m["name"], m["unit"]) for m in SPEC["per_layer"])
              if u in ("count", "B")]
    a = result(runs["trace-a"])["metrics"]
    b = result(runs["trace-b"])["metrics"]
    assert {k: a[k]["value"] for k in counts} == {k: b[k]["value"] for k in counts}
    assert all(a[k]["value"] > 0 for k in counts)


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "mixed-small", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# --- the witnesses themselves ----------------------------------------------------


def test_doubled_oracle_matches_direct_wp2_oracle():
    for seed in range(40):
        inst = gen_random(seed, 2 + seed % 4, "wp2", 8)
        try:
            direct = oracle_solve(inst).objective
        except Infeasible:
            direct = None
        assert reference.oracle_answer(inst).objective == direct


def test_rounding_matches_program_rounding():
    for seed in range(40):
        inst = gen_random(seed, 6, "wp3", 30)
        for eps in (Fraction(1, 2), Fraction(1, 3)):
            params = fptas_params(inst, eps)
            K = reference.rounding_unit(inst, eps)
            assert K == params.K
            assert reference.round_trade_bounds(inst, K) == scale_trade_bounds(inst, params)


def test_reference_plans_are_the_solver_plans():
    rng = random.Random(7)
    for _ in range(30):
        variant = rng.choice(["wp1", "wp2", "wp3"])
        inst = gen_random(rng.randrange(10**6), rng.randint(3, 9), variant, 40)
        answer = reference.oracle_answer(inst)
        try:
            sol = solve(inst)
        except Infeasible:
            assert not answer.feasible
            continue
        assert answer.digest == reference.plan_digest((sol.x, sol.y, sol.s, sol.w, sol.z))
