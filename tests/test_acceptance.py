"""End-to-end acceptance checks, one test per criterion.

Each test prints and records a single line
    criterion N: PASS/FAIL - detail
via _report; the conftest hook replays all lines after the run.
"""

import json
import math
import random
import time
from fractions import Fraction

from wareflow import (
    Infeasible,
    Instance,
    LotSizingInstance,
    assemble_solution,
    balanced_flow_decompose,
    bound_S,
    check_solution,
    double_horizon,
    emit_lp,
    fptas_solve,
    gen_random,
    gen_stock_levels,
    lift_and_check,
    oracle_solve,
    reduce_flow,
    reduce_lotsizing,
    reduce_partition,
    serialize_instance,
    serialize_lotsizing,
    solve,
)
from wareflow.cli import run

import conftest
from helpers import (
    brute_lotsizing,
    has_balanced_split,
    lp_sizes,
    random_settled_walk,
    random_trading_wp3,
    solve_with_network,
    two_period_trade,
    wp2_mixed,
)

for _n in range(1, 10):
    conftest.CRITERION_LINES[_n] = f"criterion {_n}: FAIL - did not run"


def _report(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.CRITERION_LINES[number] = line
    print(line)
    assert ok, line


def _benchmark_instances():
    """The shared solver-vs-oracle instance stream: 100 wp1 plus 100 wp2."""
    out = []
    for k in range(100):
        out.append(gen_random(k, T=2 + k % 4, variant="wp1",
                              max_bound=k % 9))
        out.append(gen_random(5000 + k, T=2 + k % 4, variant="wp2",
                              max_bound=k % 9))
    return out


def test_criterion_1_solver_matches_oracle():
    start = time.perf_counter()
    feasible = infeasible = 0
    for inst in _benchmark_instances():
        try:
            expected = oracle_solve(inst)
        except Infeasible:
            infeasible += 1
            try:
                solve(inst)
                assert False, "solver found a plan the oracle ruled out"
            except Infeasible:
                continue
        got = solve(inst)
        assert got.objective == expected.objective
        assert check_solution(inst, got).feasible
        assert check_solution(inst, expected).feasible
        feasible += 1
    elapsed = time.perf_counter() - start
    ok = feasible + infeasible == 200 and elapsed < 60
    _report(1, ok,
            f"200 instances (wp1+wp2), {feasible} solved and {infeasible} "
            f"infeasible, objectives match the oracle exactly, "
            f"{elapsed:.1f}s < 60s")


def test_criterion_2_partition_reduction():
    rng = random.Random(20)
    multisets = [[1, 2, 3], [1, 1, 3], [2]]
    while len(multisets) < 103:
        n = rng.randint(1, 8)
        multisets.append([rng.randint(1, 12) for _ in range(n)])
    balanced = unbalanced = 0
    for entries in multisets:
        inst, target = reduce_partition(entries)
        objective = solve(inst).objective
        if has_balanced_split(entries):
            assert objective == target, entries
            balanced += 1
        else:
            assert objective < target, entries
            unbalanced += 1
    _report(2, balanced + unbalanced == 103,
            f"{len(multisets)} multisets: optimum hits 3A/2 on all "
            f"{balanced} splittable ones and falls short on all "
            f"{unbalanced} others")


def test_criterion_3_fptas_guarantee():
    checked = 0
    worst = Fraction(1)
    for seed in range(50):
        inst = random_trading_wp3(seed, T=2 + seed % 3)
        best = oracle_solve(inst).objective
        for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 10)):
            sol = fptas_solve(inst, eps)
            assert check_solution(inst, sol).feasible
            assert sol.objective >= (1 - eps) * best
            if best > 0:
                worst = min(worst, Fraction(sol.objective, best))
            checked += 1
    _report(3, checked == 150,
            f"150 runs (50 instances x 3 epsilons): zero guarantee "
            f"failures, worst observed ratio {float(worst):.3f}")


def test_criterion_4_flow_decomposition_example():
    inst = Instance(
        variant="wp3", T=4, s0=2,
        Ls=(0, 0, 0, 0), Us=(6, 6, 6, 6),
        Lx=(0, 0, 0, 0), Ux=(3, 0, 0, 2),
        Ly=(0, 0, 0, 0), Uy=(0, 2, 3, 0),
        revenue=(0, 2, 2, 0), cost=(1, 0, 0, 1), holding=(0, 0, 0, 0),
        fixed_purchase=(0, 0, 0, 0), fixed_sale=(0, 0, 0, 0),
    )
    sol = assemble_solution(inst, (3, 0, 0, 2), (0, 2, 3, 0))
    flow = balanced_flow_decompose(inst, sol)
    expected = ((1, 2, 2), (1, 3, 1), (4, 3, 2))
    _report(4, flow.pairs == expected,
            f"plan x=(3,0,0,2), y=(0,2,3,0) decomposes to {flow.pairs}")


def test_criterion_5_flow_reduction_feasibility():
    rng = random.Random(55)
    reductions = 0
    for trial in range(1000):
        if trial % 2:
            inst = random_trading_wp3(trial, T=2 + trial % 3)
        else:
            inst = gen_random(trial, T=2 + trial % 3, variant="wp3",
                              max_bound=2 + trial % 5)
        norm, sol = random_settled_walk(inst, rng)
        flow = balanced_flow_decompose(norm, sol)
        if not flow.pairs:
            continue
        index = rng.randrange(len(flow.pairs))
        amount = flow.pairs[index][2]
        delta = amount * Fraction(rng.randint(0, 6), 6)
        reduced = reduce_flow(norm, sol, flow, index, delta)
        report = check_solution(norm, reduced)
        assert report.feasible, (trial, report.violations)
        reductions += 1
    _report(5, reductions >= 400,
            f"1000 random settled walks, {reductions} pair reductions "
            f"with rational deltas, every reduced plan stays feasible")


def test_criterion_6_level_and_network_bounds():
    instances = _benchmark_instances()
    instances += [reduce_partition([1 + k % 12 for k in range(1 + s % 8)])[0]
                  for s in range(30)]
    instances += [random_trading_wp3(seed, T=2 + seed % 3)
                  for seed in range(30)]
    levels_checked = nets_checked = 0
    for inst in instances:
        levels = gen_stock_levels(inst)
        assert levels.S_size <= bound_S(inst)
        if inst.bounds_integral():
            span = max(u - l for l, u in zip(inst.Ls, inst.Us))
            assert levels.S_size <= span + 1
        levels_checked += 1
        try:
            _, net = solve_with_network(inst)
        except Infeasible:
            continue
        periods = len(net.arcs)
        width = max(len(layer) for layer in net.layers[1:])
        assert net.node_count <= periods * width + 1
        assert net.arc_count <= periods * width**2
        nets_checked += 1

    poly_checked = 0
    rng = random.Random(606)
    for trial in range(24):
        T = 2 + trial % 7
        variant = "wp2" if trial % 3 == 2 else "wp1"
        den = (1, 2, 3)[trial % 3]
        lo = Fraction(rng.randint(0, 6), den)
        hi = lo + Fraction(rng.randint(0, 12), den)
        lx = Fraction(rng.randint(0, 4), den)
        ux = lx + Fraction(rng.randint(0, 6), den)
        ly = Fraction(rng.randint(0, 4), den)
        uy = ly + Fraction(rng.randint(0, 6), den)
        inst = Instance(
            variant=variant, T=T, s0=lo,
            Ls=(lo,) * T, Us=(hi,) * T, Lx=(lx,) * T, Ux=(ux,) * T,
            Ly=(ly,) * T, Uy=(uy,) * T,
            revenue=(0,) * T, cost=(0,) * T, holding=(0,) * T,
            fixed_purchase=(0,) * T, fixed_sale=(0,) * T,
        )
        horizon = 2 * T if variant == "wp2" else T
        cap = math.ceil(3 * (horizon + 1) ** 4 / 4)
        size = gen_stock_levels(inst).S_size
        assert size <= cap, (trial, size, cap)
        assert size <= bound_S(inst)
        poly_checked += 1
    _report(6, levels_checked == 260 and nets_checked > 100
            and poly_checked == 24,
            f"{levels_checked} instances within the a-priori level caps, "
            f"{nets_checked} solved networks within node/arc caps, "
            f"{poly_checked} time-independent instances within the "
            f"polynomial cap")


def test_criterion_7_extended_formulation_lift():
    lifted = 0
    for inst in _benchmark_instances():
        base = inst
        if inst.variant.value == "wp2":
            base = double_horizon(inst)
        try:
            sol, net = solve_with_network(base)
        except Infeasible:
            continue
        # feasible also means the LP objective of the lift is sol.objective
        report = lift_and_check(base, sol)
        assert report.feasible, report.violations
        assert sol.objective == solve(inst).objective
        width = max(len(layer) for layer in net.layers[1:])
        budget = 20 * base.T * width**2
        rows, variables = lp_sizes(emit_lp(inst))
        assert variables <= budget
        assert rows <= budget
        lifted += 1
    _report(7, lifted > 100,
            f"{lifted} optimal plans lift into their LP with zero "
            f"violations, matching objectives, and model sizes within "
            f"20*T*S^2")


def test_criterion_8_lotsizing_reduction():
    rng = random.Random(88)
    done = 0
    attempts = 0
    while done < 50 and attempts < 3000:
        attempts += 1
        T = rng.randint(1, 4)
        ls = LotSizingInstance(
            T=T,
            s0=rng.randint(0, 4),
            demand=tuple(rng.randint(0, 3) for _ in range(T)),
            unit_cost=tuple(rng.randint(0, 4) for _ in range(T)),
            fixed_cost=tuple(rng.randint(0, 4) for _ in range(T)),
            Ux=tuple(rng.randint(0, 4) for _ in range(T)),
            Us=tuple(rng.randint(0, 4) for _ in range(T)),
        )
        brute = brute_lotsizing(ls)
        if brute is None:
            continue
        best_cost = brute[0]
        inst, M = reduce_lotsizing(ls)
        sol = solve(inst)
        assert sol.objective == M * sum(ls.demand) - best_cost
        assert sol.y == ls.demand
        extracted = sum(
            ls.unit_cost[t] * sol.x[t] + ls.fixed_cost[t] * sol.w[t]
            for t in range(ls.T)
        )
        assert extracted == best_cost
        done += 1
    _report(8, done == 50,
            f"{done} feasible lot-sizing instances: wp2 optimum equals "
            f"M*demand - cheapest cost and the production plan reads back")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    inst_path = tmp_path / "trade.json"
    inst_path.write_text(serialize_instance(two_period_trade()))
    wp3_data = json.loads(serialize_instance(two_period_trade()))
    wp3_data["variant"] = "wp3"
    wp3_path = tmp_path / "spread.json"
    wp3_path.write_text(json.dumps(wp3_data))
    wp2_path = tmp_path / "mixed.json"
    wp2_path.write_text(serialize_instance(wp2_mixed()))
    ls_path = tmp_path / "restock.json"
    ls_path.write_text(serialize_lotsizing(LotSizingInstance(
        T=2, s0=1, demand=(1, 1), unit_cost=(1, 1), fixed_cost=(3, 3),
        Ux=(2, 2), Us=(2, 2))))
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    (bench_dir / "trade.json").write_text(serialize_instance(
        two_period_trade()))
    (bench_dir / "mixed.json").write_text(serialize_instance(wp2_mixed()))

    sol_path = tmp_path / "sol.json"
    assert run(["solve", "--input", str(inst_path),
                "--output", str(sol_path)]) == 0
    capsys.readouterr()

    def strip_timing(text: str) -> str:
        return "\n".join(line.rsplit(",", 1)[0]
                         for line in text.splitlines())

    commands = [
        (["solve", "--input", str(inst_path)], None, None),
        (["oracle", "--input", str(inst_path)], None, None),
        (["fptas", "--input", str(wp3_path), "--epsilon", "1/3"],
         None, None),
        (["emit-lp", "--input", str(inst_path)], None, None),
        (["emit-lp", "--input", str(wp2_path)], None, None),
        (["check", "--input", str(inst_path), "--solution", str(sol_path)],
         None, None),
        (["levels", "--input", str(inst_path)], None, None),
        (["gen", "--seed", "7", "--T", "3", "--variant", "wp2",
          "--max-bound", "5"], None, None),
        (["reduce", "partition", "--numbers", "3,1,4,1,5"], None, None),
        (["reduce", "lotsizing", "--input", str(ls_path)], None, None),
        (["bench", "--dir", str(bench_dir)], strip_timing, None),
        (["solve", "--input", str(inst_path), "--dot", "DOTFILE"],
         None, "net.dot"),
    ]
    stable = 0
    for argv, normalize, outfile in commands:
        outputs = []
        for attempt in range(2):
            cmd = list(argv)
            path = None
            if outfile is not None:
                path = tmp_path / f"{attempt}_{outfile}"
                cmd = [a if a != "DOTFILE" else str(path) for a in cmd]
            code = run(cmd)
            captured = capsys.readouterr()
            out = captured.out
            if normalize is not None:
                out = normalize(out)
            outputs.append(
                (code, out, captured.err,
                 path.read_text() if path is not None else "")
            )
        assert outputs[0] == outputs[1], argv
        assert outputs[0][0] == 0, argv
        stable += 1

    _report(9, stable == len(commands),
            f"{stable} CLI invocations each run twice with byte-identical "
            f"stdout, stderr, and output files (bench timing column "
            f"excluded)")
