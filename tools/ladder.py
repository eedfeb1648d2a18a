"""The emit-lp rung of the benchmark ladder.

    python tools/ladder.py BENCH.json

Runs on the checkout it lives in: it imports wareflow from the sibling
src directory.  One row per gen_random instance, for wp1, wp2 and wp3 at
T = 10, 20 and 40 with max_bound = 5T and seeds 0-2.  Each row records
the median of five time.perf_counter_ns timings of emit_lp, the LP's
size in bytes, the nodes of the levels it is written from and their arcs
(network.arc_counts over the searched rows), and the sha256 of the text,
so that a speed-up which changes a byte shows.  The JSON file names the
interpreter and machine the times were taken on.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wareflow import emit_lp, gen_random  # noqa: E402
from wareflow.model import scale_factor  # noqa: E402
from wareflow.network import arc_counts  # noqa: E402
from wareflow.stocklevels import searched, searched_levels  # noqa: E402

VARIANTS = ("wp1", "wp2", "wp3")
PERIODS = (10, 20, 40)
SEEDS = (0, 1, 2)
REPEATS = 5
# what a row measures; each is present and nonzero in every row
COLUMNS = ("emit_lp_ns", "lp_bytes", "nodes", "arcs", "sha256")


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


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/ladder.py OUTPUT.json", file=sys.stderr)
        return 2
    rows = [emit_lp_row(variant, T, seed)
            for variant in VARIANTS for T in PERIODS for seed in SEEDS]
    report = {"rung": "emit-lp", "repeats": REPEATS,
              "python": platform.python_version(),
              "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
              "rows": rows}
    Path(argv[0]).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
