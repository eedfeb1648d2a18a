"""Byte-identical CLI outputs, pinned as one sha256 digest per op and
instance.

tests/data/cli_digests.json holds, for every instance file in tests/data
and for seeded wp1/wp2/wp3 instances (some with fractional data, some
infeasible), the digest of each op's exit code, stdout, stderr and
written files: solve --output --dot, check of that plan (or, when there
is none, of the plan that never trades), levels, emit-lp, oracle, fptas
--epsilon 1/3 and bench without its wall_ms column.  A change that must
keep every output leaves the file as it is; one that changes an output on
purpose regenerates it with

    PYTHONPATH=src python tests/test_cli_digests.py

and says which digests moved, and why.
"""

import csv
import hashlib
import io
import json
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from wareflow import (
    Infeasible,
    assemble_solution,
    gen_random,
    parse_instance,
    serialize_instance,
    serialize_solution,
    solve,
)
from wareflow.cli import run
from helpers import reference_scale_instance

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_digests.json"


def _instances(root: Path) -> dict[str, Path]:
    """Write the digested instances under root: the data files as they
    are, then wp1/wp2/wp3 at seeds 0..7, and seeds 1, 4 and 7 again with
    all their data over 3."""
    paths = {}
    for source in sorted(DATA.glob("*.json")):
        if source != GOLDEN and not source.name.endswith(".solution.json"):
            paths[source.stem] = root / source.name
            shutil.copy(source, paths[source.stem])
    for variant in ("wp1", "wp2", "wp3"):
        for seed in range(8):
            inst = gen_random(seed, T=4 + seed % 3, variant=variant,
                              max_bound=8)
            cases = {f"{variant}_{seed}": inst}
            if seed % 3 == 1:
                cases[f"{variant}_{seed}_thirds"] = reference_scale_instance(
                    inst, Fraction(1, 3))
            for name, case in cases.items():
                paths[name] = root / f"{name}.json"
                paths[name].write_text(serialize_instance(case))
    return paths


def _digest(root: Path, argv: list[str], files=(), columns=None) -> str:
    """sha256 of one run's exit code, stdout, stderr and the named files
    it writes (None for one it does not), with root's path masked.  When
    columns is given, stdout is CSV and only those columns count."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    stdout = out.getvalue()
    if columns is not None:
        rows = csv.DictReader(io.StringIO(stdout))
        stdout = [[row[c] for c in columns] for row in rows]
    written = [(root / f).read_text() if (root / f).exists() else None
               for f in files]
    payload = json.dumps([code, stdout, err.getvalue(), written])
    return hashlib.sha256(payload.replace(str(root), "<dir>").encode()
                          ).hexdigest()


def _ops(root: Path, name: str, path: Path) -> dict[str, str]:
    """The digest of every op on one instance file, keyed op by op."""
    work = root / f"{name}.out"
    work.mkdir()
    plan, dot = work / "plan.json", work / "net.dot"
    digests = {"solve": _digest(root, [
        "solve", "--input", str(path), "--output", str(plan),
        "--dot", str(dot)], [plan, dot])}
    if not plan.exists():
        inst = parse_instance(path.read_text())
        zero = (0,) * inst.T
        plan.write_text(serialize_solution(assemble_solution(inst, zero,
                                                             zero)))
    digests["check"] = _digest(root, [
        "check", "--input", str(path), "--solution", str(plan)])
    for op in ("levels", "emit-lp", "oracle"):
        digests[op] = _digest(root, [op, "--input", str(path)])
    digests["fptas"] = _digest(root, [
        "fptas", "--input", str(path), "--epsilon", "1/3"])
    bench = work / "bench"
    bench.mkdir()
    shutil.copy(path, bench / path.name)
    digests["bench"] = _digest(root, ["bench", "--dir", str(bench)],
                               columns=["instance", "T", "S_size", "nodes",
                                        "arcs", "objective"])
    return {f"{name} {op}": value for op, value in digests.items()}


def cli_digests(root: Path) -> dict[str, str]:
    """Every digest, keyed "instance op", made in the empty directory
    root."""
    digests = {}
    for name, path in _instances(root).items():
        digests.update(_ops(root, name, path))
    return digests


def test_every_cli_output_matches_its_pinned_digest(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    digests = cli_digests(tmp_path)
    assert sorted(digests) == sorted(golden)
    assert [key for key in golden if digests[key] != golden[key]] == []


def test_the_digested_instances_hold_what_they_are_for():
    # per variant: fractional data, and wp1 and wp2 instances that are
    # infeasible (fractional ones too) or feasible with s0 outside some
    # period's stock bounds; wp3 ones are what the fptas op solves
    kinds = {"wp1": set(), "wp2": set(), "wp3": set()}
    with tempfile.TemporaryDirectory() as root:
        for path in _instances(Path(root)).values():
            inst = parse_instance(path.read_text())
            try:
                solve(inst)
                kind = "stays" if all(ls <= inst.s0 <= us for ls, us
                                      in zip(inst.Ls, inst.Us)) else "moves"
            except Infeasible:
                kind = "infeasible"
            kinds[inst.variant.value].add(
                (kind, inst.bounds_integral()))
    assert kinds["wp3"] == {("stays", True), ("stays", False)}
    for variant in ("wp1", "wp2"):
        assert kinds[variant] >= {("infeasible", True), ("infeasible", False),
                                  ("moves", True), ("moves", False),
                                  ("stays", True)}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        digests = cli_digests(Path(root))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
