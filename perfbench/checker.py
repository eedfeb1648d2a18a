"""Judge every op the benchmark ran against the reference answers.

An op fails on an unexpected exit code, an exception, or a wrong output:

* solve: objective and infeasible verdict equal the oracle's, the plan's
  digest equals the reference digest, and the plan passes check_solution;
* fptas: the plan is the oracle's optimum of the rounded instance, worth at
  least (1 - epsilon) of the true optimum, and passes check_solution on
  the original instance; K is epsilon times the smallest upper trade bound;
* emit-lp: HiGHS solves the text, and its optimum equals the instance's
  optimum times the recorded scale factor squared (infeasible when the
  instance is); bytes are never compared;
* levels: every layer is strictly ascending inside the stock bounds, S_size
  is the widest layer, and the reference plan's stocks are candidates;
* check: the report on a produced plan says feasible with no violations.

Verdicts are cached per distinct outcome, so a repeated op whose exit code,
messages and output bytes match an earlier run is judged once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from wareflow.model import Solution, check_solution

import lp
from reference import Answer, number_of, plan_digest, text_of

LP_TOLERANCE = 1e-6  # relative, on the float optimum HiGHS returns


@dataclass(frozen=True)
class Record:
    """One execution of an op.  ``output`` is the saved copy of the file
    the op wrote (None when it wrote none); ``error`` a traceback."""

    op: object
    pass_index: int
    traced: bool
    start: float  # perf_counter() when the op started
    seconds: float
    rc: int | None
    stdout: str
    stderr: str
    output: Path | None
    error: str | None


@dataclass(frozen=True)
class FptasReference:
    optimum: Fraction  # of the original instance
    rounded: Answer  # optimum of the instance with rounded trade bounds
    K: Fraction


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _solution(path: Path) -> Solution:
    data = json.loads(path.read_text(encoding="utf-8"))
    vectors = {name: tuple(number_of(v) for v in data[name])
               for name in ("x", "y", "s", "w", "z")}
    return Solution(objective=number_of(data["objective"]), **vectors)


def _plan(sol: Solution) -> tuple:
    return (sol.x, sol.y, sol.s, sol.w, sol.z)


class Checker:
    def __init__(self, instances: dict, answers: dict, fptas: dict):
        self.instances = instances
        self.answers = answers  # instance name -> Answer
        self.fptas = fptas  # (instance name, epsilon text) -> FptasReference
        self.ratios: dict = {}  # op id -> FPTAS objective / optimum
        self._cache: dict = {}

    def verdict(self, record: Record) -> str | None:
        """None when the execution is correct, else the reason it is not."""
        key = (record.op.id, record.rc, record.stdout, record.stderr,
               record.output, record.error)
        if key not in self._cache:
            self._cache[key] = self._judge(record)
        return self._cache[key]

    def _judge(self, record: Record) -> str | None:
        if record.error is not None:
            return f"raised: {record.error.strip().splitlines()[-1]}"
        try:
            getattr(self, "_" + record.op.kind.replace("-", "_"))(record)
        except CheckFailed as failure:
            return str(failure)
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as err:
            return f"unreadable output: {type(err).__name__}: {err}"
        return None

    def _exit(self, record: Record, code: int) -> None:
        _require(record.rc == code, f"exit code {record.rc}, expected {code}")
        if code == 0:
            _require(record.output is not None, "no output file")

    def _plan_matches(self, record, inst, answer: Answer) -> Solution:
        sol = _solution(record.output)
        _require(sol.objective == answer.objective,
                 f"objective {text_of(sol.objective)}, "
                 f"reference {text_of(answer.objective)}")
        _require(record.stdout == f"objective: {text_of(sol.objective)}\n",
                 f"stdout {record.stdout!r} disagrees with the solution file")
        _require(plan_digest(_plan(sol)) == answer.digest,
                 "plan digest differs from the reference plan")
        return sol

    def _feasible(self, inst, sol: Solution) -> None:
        report = check_solution(inst, sol)
        _require(report.feasible, f"check_solution: {report.violations[:3]}")

    def _solve(self, record: Record) -> None:
        inst = self.instances[record.op.instance]
        answer = self.answers[record.op.instance]
        if not answer.feasible:
            self._exit(record, 1)
            _require(record.output is None, "solution written for an infeasible instance")
            _require(record.stderr.startswith("infeasible:"),
                     f"stderr {record.stderr!r}")
            return
        self._exit(record, 0)
        self._feasible(inst, self._plan_matches(record, inst, answer))

    def _fptas(self, record: Record) -> None:
        inst = self.instances[record.op.instance]
        epsilon = Fraction(record.op.epsilon)
        ref = self.fptas[(record.op.instance, record.op.epsilon)]
        self._exit(record, 0)
        sol = self._plan_matches(record, inst, ref.rounded)
        self._feasible(inst, sol)
        _require(sol.objective >= (1 - epsilon) * ref.optimum,
                 f"objective {text_of(sol.objective)} below (1 - {epsilon}) * "
                 f"{text_of(ref.optimum)}")
        _require(f"K: {text_of(ref.K)}\n" in record.stderr,
                 f"stderr {record.stderr!r} lacks K: {text_of(ref.K)}")
        if ref.optimum > 0:
            self.ratios[record.op.id] = sol.objective / ref.optimum

    def _emit_lp(self, record: Record) -> None:
        answer = self.answers[record.op.instance]
        self._exit(record, 0)
        status, value, scale = lp.solve_lp(record.output.read_text(encoding="utf-8"))
        if not answer.feasible:
            _require(status == "infeasible", f"LP {status}, instance infeasible")
            return
        _require(status == "optimal", f"LP {status}, instance feasible")
        expected = float(answer.objective * scale * scale)
        _require(abs(value - expected) <= LP_TOLERANCE * max(1.0, abs(expected)),
                 f"LP optimum {value!r}, expected {expected!r} (scale {scale})")

    def _levels(self, record: Record) -> None:
        inst = self.instances[record.op.instance]
        answer = self.answers[record.op.instance]
        self._exit(record, 0)
        data = json.loads(record.output.read_text(encoding="utf-8"))
        layers = [[number_of(v) for v in layer] for layer in data["levels"]]
        _require(len(layers) == inst.T, f"{len(layers)} layers for T={inst.T}")
        _require(data["S_size"] == max(map(len, layers)), "S_size is not the widest layer")
        for t, layer in enumerate(layers):
            _require(all(a < b for a, b in zip(layer, layer[1:])),
                     f"layer {t + 1} is not strictly ascending")
            _require(all(inst.Ls[t] <= v <= inst.Us[t] for v in layer),
                     f"layer {t + 1} leaves the stock bounds")
            if answer.feasible:
                _require(answer.plan[2][t] in layer,
                         f"reference stock {answer.plan[2][t]} missing at {t + 1}")

    def _check(self, record: Record) -> None:
        self._exit(record, 0)
        report = json.loads(record.output.read_text(encoding="utf-8"))
        _require(report == {"feasible": True, "violations": []},
                 f"report {report!r} on a produced plan")
