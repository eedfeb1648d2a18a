"""The emit-lp, solve and stage rungs of the benchmark ladder.

    python tools/ladder.py BENCH.json

Runs on the checkout it lives in: it imports wareflow from the sibling
src directory.  Each rung has one row per gen_random instance, for wp1,
wp2 and wp3 at T = 10, 20 and 40 with max_bound = 5T and seeds 0-2.

An emit-lp row records the median of five time.perf_counter_ns timings
of emit_lp, the LP's size in bytes, the nodes of the levels it is written
from and their arcs (network.arc_counts over the searched rows), and the
sha256 of the text, so that a speed-up which changes a byte shows.

A solve row records the median of five timings of the command line
solve --input IN --output OUT, run in process with its output captured,
its exit code (0 feasible, 1 infeasible) and the sha256 of that exit
code, stdout, stderr and the plan file's bytes.

A stage row times the two stages of the search inside a solve on the
searched rows, searched(inst, F) with F = model.scale_factor(inst): the
median of five timings of the level sweep, searched_levels(rows), and of
the window DP over those levels, network._window_suffix(rows, layers).
It times them on infeasible instances too, as bench runs them.

The JSON file names the interpreter and machine the times were taken on.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wareflow import emit_lp, gen_random, serialize_instance  # noqa: E402
from wareflow.cli import run  # noqa: E402
from wareflow.model import scale_factor  # noqa: E402
from wareflow.network import _window_suffix, arc_counts  # noqa: E402
from wareflow.stocklevels import searched, searched_levels  # noqa: E402

VARIANTS = ("wp1", "wp2", "wp3")
PERIODS = (10, 20, 40)
SEEDS = (0, 1, 2)
REPEATS = 5
# what a row of each rung measures; each is present and nonzero in every
# row, and a solve row's exit_code is 0 or 1 besides
COLUMNS = ("emit_lp_ns", "lp_bytes", "nodes", "arcs", "sha256")
SOLVE_COLUMNS = ("solve_ns", "sha256")
STAGE_COLUMNS = ("levels_ns", "window_dp_ns")


def emit_lp_row(variant: str, T: int, seed: int) -> dict:
    """One rung row: emit_lp on gen_random(seed, T, variant, 5T)."""
    inst = gen_random(seed, T, variant, 5 * T)
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter_ns()
        text = emit_lp(inst)
        times.append(time.perf_counter_ns() - start)
    rows = searched(inst, scale_factor(inst))
    layers = searched_levels(rows)
    return {"variant": variant, "T": T, "seed": seed,
            "emit_lp_ns": statistics.median(times),
            "lp_bytes": len(text.encode()),
            "nodes": sum(map(len, layers)),
            "arcs": sum(arc_counts(rows, layers)),
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def solve_row(variant: str, T: int, seed: int, work: Path) -> dict:
    """One solve rung row: the solve command on gen_random(seed, T,
    variant, 5T), its files written in the directory work."""
    source, plan = work / "instance.json", work / "plan.json"
    source.write_text(serialize_instance(gen_random(seed, T, variant, 5 * T)))
    argv = ["solve", "--input", str(source), "--output", str(plan)]
    times = []
    for _ in range(REPEATS):
        plan.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter_ns()
            code = run(argv)
            times.append(time.perf_counter_ns() - start)
    # JSON escapes NUL, so the separator cannot occur before the plan
    payload = json.dumps([code, out.getvalue(), err.getvalue()]).encode()
    payload += b"\0" + (plan.read_bytes() if plan.exists() else b"")
    return {"variant": variant, "T": T, "seed": seed,
            "solve_ns": statistics.median(times), "exit_code": code,
            "sha256": hashlib.sha256(payload).hexdigest()}


def stage_row(variant: str, T: int, seed: int) -> dict:
    """One stage rung row: the level sweep and the window DP on the
    searched rows of gen_random(seed, T, variant, 5T)."""
    inst = gen_random(seed, T, variant, 5 * T)
    rows = searched(inst, scale_factor(inst))
    levels_ns, window_dp_ns = [], []
    for _ in range(REPEATS):
        start = time.perf_counter_ns()
        layers = searched_levels(rows)
        levels_ns.append(time.perf_counter_ns() - start)
        start = time.perf_counter_ns()
        _window_suffix(rows, layers)
        window_dp_ns.append(time.perf_counter_ns() - start)
    return {"variant": variant, "T": T, "seed": seed,
            "levels_ns": statistics.median(levels_ns),
            "window_dp_ns": statistics.median(window_dp_ns)}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/ladder.py OUTPUT.json", file=sys.stderr)
        return 2
    cases = [(variant, T, seed)
             for variant in VARIANTS for T in PERIODS for seed in SEEDS]
    with tempfile.TemporaryDirectory() as work:
        solve_rows = [solve_row(*case, Path(work)) for case in cases]
    report = {"repeats": REPEATS,
              "python": platform.python_version(),
              "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
              "rungs": {"emit-lp": [emit_lp_row(*case) for case in cases],
                        "solve": solve_rows,
                        "stage": [stage_row(*case) for case in cases]}}
    Path(argv[0]).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
