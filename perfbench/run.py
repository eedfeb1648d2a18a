"""Benchmark of the wareflow CLI: one workload, one seed, one process.

    python3 perfbench/run.py --workload wp3-dense --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout; it imports wareflow from the
checkout's ``src`` and exits with code 2, printing no result, when there is
none.  Workloads: wp3-dense, mixed-small, lp-export (see workloads.py).

A run has three phases.

1. Set-up, repeated five times (``setup_s`` is the median): start a fresh
   interpreter that imports ``wareflow.cli``, generate the batch from the
   seed, write the input files and build the reference answers with the
   oracle (reference.py).
2. The timed passes.  One client, one thread, closed loop: each op calls
   ``wareflow.cli.run(argv)`` in this process on the generated files, the
   next op starts when the previous one has returned, and stdout/stderr
   are captured.  Whole passes over the batch repeat while another one fits
   in ``--seconds`` (at least one pass; two with ``--trace 1``).
3. The check (checker.py): every op's exit code, messages and output are
   judged against the references; any mismatch counts in ``failed``.

Times are reported at a reference speed.  The host this benchmark was
built on changes speed by up to a quarter within tens of seconds, for all
code alike, so raw medians of half-minute runs of the same work spread by
20-35% between runs.  A fixed calibration loop (``SpeedProbe``) is timed
every fifth of a second throughout the run, and every measured time is
multiplied by ``REFERENCE_LOOP_S`` over the median of the loop times
nearest to it, which cancels most of the swings (see README.md).  The raw
figures are printed on the human-readable lines.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` passes alternate untraced and
traced (tracer.py), the JSON holds the per-layer metrics, the spans go to
``.bench_work/trace-<workload>-<seed>.jsonl`` and no memory figure is
taken.  Lines before the JSON repeat every metric with its unit for humans.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
REFERENCE_LOOP_S = 0.005  # median SpeedProbe loop time on the reference host
SUFFIX = {"solve": ".json", "fptas": ".json", "emit-lp": ".lp",
          "levels": ".json", "check": ".json"}
LATENCY = {"solve_s.p50": "solve", "fptas_s.p50": "fptas",
           "emit_lp_s.p50": "emit-lp"}


class SpeedProbe:
    """Times a fixed pure-Python loop now and then during a run.

    ``scale(start, seconds)`` converts a time measured from ``start`` to the
    reference speed, using the loop times nearest to its midpoint.
    """

    WINDOW = 5  # loop samples per local speed estimate
    EVERY_S = 0.2  # time between samples during the passes

    def __init__(self):
        self.times: list = []  # midpoints, ascending
        self.loops: list = []  # loop durations
        self._last = float("-inf")

    def sample(self) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(60000):
            total += i * i % 7
        self._last = time.perf_counter()
        self.times.append((start + self._last) / 2)
        self.loops.append(self._last - start)

    def maybe(self) -> None:
        if time.perf_counter() - self._last >= self.EVERY_S:
            self.sample()

    def scale(self, start: float, seconds: float) -> float:
        i = bisect.bisect(self.times, start + seconds / 2)
        lo = max(0, min(i - self.WINDOW // 2, len(self.times) - self.WINDOW))
        local = statistics.median(self.loops[lo:lo + self.WINDOW])
        return seconds * REFERENCE_LOOP_S / local


def unscaled(start: float, seconds: float) -> float:
    return seconds


@dataclass
class Pass:
    traced: bool
    index: int
    spans: tuple = (0, 0)
    counts: dict | None = None


def use_checkout_sources() -> bool:
    """Put the checkout's src first on sys.path; False when it is missing."""
    if not (SRC / "wareflow" / "cli.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


# --- set-up ------------------------------------------------------------------


def _input(workdir: Path, name: str) -> Path:
    return workdir / "inputs" / f"{name}.json"


def _output(workdir: Path, op) -> Path:
    return workdir / "outputs" / f"{op.id}{SUFFIX[op.kind]}"


def argv_of(op, workdir: Path) -> list:
    argv = [op.kind, "--input", str(_input(workdir, op.instance))]
    if op.kind == "fptas":
        argv += ["--epsilon", op.epsilon]
    if op.kind == "check":
        argv += ["--solution", str(workdir / "outputs" / f"{op.after}.json")]
    return argv + ["--output", str(_output(workdir, op))]


def _start_interpreter() -> None:
    """Start a fresh interpreter that imports the CLI, and wait for it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import wareflow.cli"], env=env,
                   cwd=ROOT, check=True)


def build_references(batch):
    """Oracle answers for every instance and every fptas op."""
    from checker import FptasReference
    from reference import oracle_answer, round_trade_bounds, rounding_unit

    answers = {name: oracle_answer(inst) for name, inst in batch.instances.items()}
    fptas = {}
    for op in batch.ops:
        if op.kind == "fptas" and (op.instance, op.epsilon) not in fptas:
            inst = batch.instances[op.instance]
            K = rounding_unit(inst, Fraction(op.epsilon))
            rounded = oracle_answer(round_trade_bounds(inst, K))
            fptas[(op.instance, op.epsilon)] = FptasReference(
                answers[op.instance].objective, rounded, K)
    return answers, fptas


def _store_references(path: Path, answers: dict) -> None:
    from reference import text_of

    payload = {name: (None if not a.feasible else
                      {"objective": text_of(a.objective), "plan": a.digest})
               for name, a in sorted(answers.items())}
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def set_up(workload: str, seed: int, workdir: Path, probe: SpeedProbe):
    """Build everything the timed passes need; returns it and the
    (start, seconds) of every set-up."""
    import workloads
    from wareflow.model import serialize_instance

    samples = []
    for _ in range(SETUP_REPEATS):
        for _ in range(SpeedProbe.WINDOW):
            probe.sample()
        start = time.perf_counter()
        _start_interpreter()
        batch = workloads.build(workload, seed)
        (workdir / "inputs").mkdir(parents=True, exist_ok=True)
        for name, inst in batch.instances.items():
            _input(workdir, name).write_text(serialize_instance(inst), encoding="utf-8")
        answers, fptas = build_references(batch)
        batch.drop_checks({n for n, a in answers.items() if not a.feasible})
        _store_references(workdir / "references.json", answers)
        samples.append((start, time.perf_counter() - start))
    for _ in range(SpeedProbe.WINDOW):
        probe.sample()
    return batch, answers, fptas, samples


# --- timed passes ------------------------------------------------------------


def _keep(op, path: Path, workdir: Path) -> Path | None:
    """Save a copy of an op's output under its content hash."""
    if not path.exists():
        return None
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()[:16]
    copy = workdir / "seen" / f"{op.id}-{digest}{path.suffix}"
    if not copy.exists():
        copy.write_bytes(data)
    return copy


def run_pass(batch, workdir: Path, index: int, probe: SpeedProbe,
             tracer=None) -> tuple:
    """Run every op once; returns the records."""
    from checker import Record
    from tracer import ROOT as ROOT_SPAN
    from wareflow import cli

    records = []
    for op in batch.ops:
        out = _output(workdir, op)
        if out.exists():
            out.unlink()
        argv = argv_of(op, workdir)
        stdout, stderr = io.StringIO(), io.StringIO()
        rc, error = None, None
        if tracer is not None:
            tracer.op_id, tracer.op_kind = op.id, op.kind
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            span = tracer.open(ROOT_SPAN) if tracer is not None else None
            try:
                rc = cli.run(argv)
            except Exception:  # the run goes on; the op counts as failed
                error = traceback.format_exc()
            finally:
                if span is not None:
                    tracer.close(span)
            seconds = time.perf_counter() - start
        records.append(Record(op, index, tracer is not None, start, seconds, rc,
                              stdout.getvalue(), stderr.getvalue(),
                              _keep(op, out, workdir), error))
        probe.maybe()
    return records


def run_passes(batch, workdir: Path, seconds: float, probe: SpeedProbe,
               tracer=None):
    """Whole passes while another fits in ``seconds``; traced passes
    alternate with untraced ones when a tracer is given."""
    (workdir / "outputs").mkdir(exist_ok=True)
    (workdir / "seen").mkdir(exist_ok=True)
    records, passes = [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        first = len(tracer.spans) if traced else 0
        if traced:
            tracer.install()
        try:
            records += run_pass(batch, workdir, len(passes), probe,
                                tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        passes.append(Pass(traced, len(passes)))
        if traced:
            passes[-1].spans = (first, len(tracer.spans))
            passes[-1].counts = tracer.take_counts()
        elapsed = time.perf_counter() - start
        enough = len(passes) >= (2 if tracer is not None else 1)
        if enough and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return records, passes


# --- metrics -----------------------------------------------------------------


def _walls(records, passes, scale) -> list:
    """Per pass, the sum of its op latencies."""
    return [sum(scale(r.start, r.seconds) for r in records
                if r.pass_index == p.index) for p in passes]


def end_to_end(records, passes, setups, rss_mb: float, scale) -> dict:
    values = {"setup_s": statistics.median(scale(*s) for s in setups),
              "wall_s": statistics.median(_walls(records, passes, scale))}
    for name, kind in LATENCY.items():
        values[name] = statistics.median(
            scale(r.start, r.seconds) for r in records if r.op.kind == kind)
    values["peak_rss_mb"] = rss_mb
    return values


def per_layer(tracer, records, passes, ratios: dict, scale) -> dict:
    """Layer metrics: times are medians over traced passes, counts are the
    first traced pass's."""
    from tracer import TIME_SPANS

    traced = [p for p in passes if p.traced]
    values = {}
    times = [tracer.self_times(*p.spans, scale) for p in traced]
    for span in TIME_SPANS:
        values[f"{span}_s"] = statistics.median(t[span] for t in times)
    counts = traced[0].counts
    values.update(counts)
    values["network.arc_yield"] = counts["network.arcs"] / max(1, counts["network.pairs"])
    values["fptas.ratio_min"] = float(min(ratios.values())) if ratios else 1.0
    values["trace.wall_s"] = statistics.median(_walls(records, traced, scale))
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(
        _walls(records, [p for p in passes if not p.traced], scale))
    return values


def _declared(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(values: dict, trace: bool, attempted: int, failed: int) -> str:
    units = _declared(trace)
    missing = sorted(set(units) - set(values))
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


# --- main --------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """Set up, run and check one workload; returns the metric values and
    a dict of facts for the human-readable lines."""
    from checker import Checker
    from tracer import Tracer

    probe = SpeedProbe()
    batch, answers, fptas, setups = set_up(workload, seed, workdir, probe)
    tracer = Tracer() if trace else None
    gc.collect()
    gc.freeze()  # the set-up's objects stay out of the program's collections
    try:
        records, passes = run_passes(batch, workdir, seconds, probe, tracer)
    finally:
        gc.unfreeze()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checker = Checker(batch.instances, answers, fptas)
    failures = [(r, checker.verdict(r)) for r in records]
    failures = [(r, why) for r, why in failures if why is not None]
    for r, why in failures[:10]:
        print(f"FAILED {r.op.id} {r.op.instance} pass {r.pass_index}: {why}",
              file=sys.stderr)
    failed = len(failures)

    if trace:
        tracer.write(WORK / f"trace-{workload}-{seed}.jsonl")
        values, raw = (per_layer(tracer, records, passes, checker.ratios, scale)
                       for scale in (probe.scale, unscaled))
        counts = [p.counts for p in passes if p.traced]
        if any(c != counts[0] for c in counts):
            print(f"FAILED counts differ between traced passes: {counts}",
                  file=sys.stderr)
            failed += 1
    else:
        values, raw = (end_to_end(records, passes, setups, rss_mb, scale)
                       for scale in (probe.scale, unscaled))
    solves = [probe.scale(r.start, r.seconds) for r in records
              if r.op.kind == "solve" and not r.traced]
    info = {"passes": _walls(records, passes, unscaled),
            "ops_per_pass": len(batch.ops), "attempted": len(records),
            "failed": failed, "fail_rate": failed / len(records), "raw": raw,
            "loop_s": statistics.median(probe.loops), "solves": solves}
    return values, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_checkout_sources():
        print(f"error: no wareflow sources at {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        values, info = measure(args.workload, args.seed, args.seconds,
                               bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = _declared(bool(args.trace))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(info['passes'])} passes of {info['ops_per_pass']} ops, "
          f"pass walls {' '.join(f'{w:.3f}' for w in info['passes'])} s")
    print(f"speed: calibration loop median {info['loop_s'] * 1e3:.3f} ms, "
          f"reference {REFERENCE_LOOP_S * 1e3:.3f} ms")
    for name, unit in units.items():
        raw = info["raw"][name]
        note = f"  raw {raw:.6g} {unit}" if raw != values[name] else ""
        print(f"{name} {values[name]:.6g} {unit}{note}")
    print(f"fail_rate {info['fail_rate']:.6g} ratio "
          f"({info['failed']} of {info['attempted']} ops)")
    if len(info["solves"]) >= 100:  # ten samples beyond the 90th percentile
        p90 = statistics.quantiles(info["solves"], n=10)[-1]
        print(f"solve_s.p90 {p90:.6g} s ({len(info['solves'])} solves)")
    print(report(values, bool(args.trace), info["attempted"], info["failed"]))
    return 0 if info["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
