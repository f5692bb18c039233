"""Tests of the benchmark itself: checker, span arithmetic, tracer, smoke run.

Run with `python3 -m pytest perfbench -q` from the repository root.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import shiftopt  # noqa: E402

import checker  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

E2E_NAMES = ("ops_per_s", "op_p50_ms", "op_p90_ms", "failed_frac", "setup_s", "peak_rss_mb")


def closed_instance(n: int = 4):
    rng = random.Random(7)
    gens = [(1, 1, 0, 1, 0, 0), (0, 1, 1, 0, 0, 1), (1, 0, 0, 0, 1, 1)]
    return shiftopt.ExplicitSystem.closed(gens), workloads.costs(rng, 6, n, -5, 9)


def test_checker_accepts_a_correct_solve():
    system, c = closed_instance()
    res = shiftopt.log_approx(system, c, 4)
    assert checker.check_solve(system, c, 4, "log", res) == []
    opt, witness = shiftopt.brute_force_sco(system, c, 4)
    assert checker.check_solve(system, c, 4, "log", res, opt) == []
    assert checker.check_exact(system, c, 4, opt, witness) == []


def test_checker_flags_an_infeasible_column():
    system, c = closed_instance()
    res = shiftopt.small_n_approx(system, c, 4)
    full = tuple((1,) * 4 for _ in c)  # every element in every column
    assert not system.contains((1,) * len(c))
    bad = replace(res, solution=full, value=checker.prefix_value(c, full))
    assert any("not a member" in p for p in checker.check_solve(system, c, 4, "small-n", bad))


def test_checker_flags_a_value_off_by_one():
    system, c = closed_instance()
    res = shiftopt.log_approx(system, c, 4)
    problems = checker.check_solve(system, c, 4, "log", replace(res, value=res.value + 1))
    assert any("recomputed" in p for p in problems)


def test_checker_flags_a_bound_below_its_closed_form():
    system, c = closed_instance()
    res = shiftopt.small_n_approx(system, c, 4)
    low = replace(res, bound=res.bound - Fraction(1, 10**6))
    assert any("closed form" in p for p in checker.check_solve(system, c, 4, "small-n", low))


def test_closed_forms():
    assert checker.expected_bound("shifted", 1) == 1
    assert checker.expected_bound("shifted", 2) == Fraction(3, 4)
    assert checker.expected_bound("log", 2) == Fraction(3, 4) / 12
    assert checker.expected_bound("log", 5) == checker.greedy_bound(5) / 20
    assert checker.expected_bound("small-n", 4) == Fraction(2625, 6692)


def test_checker_flags_a_wrong_gadget_decision():
    op = workloads.hexagon_op(shiftopt, ((0, 1, 2), (3, 4, 5)), 6)
    inst, data, back, pms, decision = op.run()
    assert decision is True and op.check((inst, data, back, pms, decision)) == []
    assert any("reference" in p for p in op.check((inst, data, back, pms, False)))
    assert checker.check_decision(False, True) != []


def test_checker_flags_a_round_trip_that_changes_the_instance():
    op = workloads.hexagon_op(shiftopt, ((0, 1, 2), (2, 3, 4)), 6)
    inst, data, back, pms, decision = op.run()
    other = replace(back, n=3, c=tuple(row + (0,) for row in back.c))
    assert any("round trip" in p for p in op.check((inst, data, other, pms, decision)))


def test_independent_set_reference():
    triangle = ((0, 1), (1, 2), (0, 2))
    assert checker.has_independent_set(3, triangle, 1)
    assert not checker.has_independent_set(3, triangle, 2)
    assert checker.has_independent_set(4, ((0, 1), (2, 3)), 2)


def test_checker_flags_an_approximation_output_on_a_star_system():
    rng = random.Random(3)
    ops = workloads.star_ops(shiftopt, rng, 5, 2)
    exact, approx = ops[0], ops[1:]
    assert not exact.precondition_broken
    assert worker.problems_of(exact, exact.run()) == []
    for op in approx:
        assert op.precondition_broken
        # A typed error before any output is the correct handling ...
        assert worker.problems_of(op, ValueError("system is not downward closed")) == []
        # ... any other error, or an output with a column outside S, is not.
        assert worker.problems_of(op, RuntimeError("boom")) != []
    star_c = tuple((0, -1) for _ in range(4))
    padded = shiftopt.ApproxResult(
        tuple((0, 0) for _ in star_c), 0, 0, checker.expected_bound("log", 2)
    )
    stars = workloads.MemberSet([(1, 1, 0, 0), (0, 0, 1, 1)])
    assert checker.check_solve(stars, star_c, 2, "log", padded) != []


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        ("op", 0, 100, -1, 0),
        ("a", 10, 40, 0, 0),
        ("a.child", 15, 25, 1, 0),
        ("b", 50, 90, 0, 0),
        ("b.child", 60, 70, 3, 0),
        ("b.child2", 65, 80, 3, 0),  # overlaps its sibling: counted once
    ]
    selfs = tracing.self_times(spans)
    assert selfs == [30, 20, 10, 20, 10, 15]  # b's children cover 60..80 only
    totals = tracing.LayerTotals()
    tree = spans[:5]
    tree_selfs = tracing.self_times(tree)
    assert sum(tree_selfs) == 100
    totals.add_op(tree, 0, tree_selfs)
    assert totals.ops == 1 and totals.op_ns == 100
    assert totals.self_ns == {"op": 30, "a": 20, "a.child": 10, "b": 30, "b.child": 10}


def test_self_times_of_a_later_op_ignore_earlier_spans():
    spans = [("op", 0, 10, -1, 0), ("x", 2, 5, 0, 0), ("op", 20, 30, -1, 1), ("y", 21, 29, 2, 1)]
    assert tracing.self_times(spans, 2) == [2, 8]


def test_group_calls_count_outermost_spans():
    spans = [
        ("op", 0, 100, -1, 0),
        ("oracles.LiftedOracle.maximize", 0, 50, 0, 0),
        ("oracles.lift_maximize", 5, 45, 1, 0),
        ("oracles.UniformMatroid.maximize", 10, 20, 2, 0),
    ]
    totals = tracing.LayerTotals()
    totals.add_op(spans, 0, tracing.self_times(spans))
    assert totals.group_calls["oracles.lift"] == 1
    assert totals.group_calls["oracles.maximize"] == 1
    assert totals.group_self_ns("oracles.lift") == 40
    assert totals.module_self_ns("oracles") == 50


def test_tracer_records_spans_that_sum_to_the_op_and_restores_the_package():
    original = shiftopt.parse
    ops = workloads.build(shiftopt, "levels-general", 1)
    recorder = tracing.Recorder()
    tracer = tracing.Tracer(recorder)
    untraced = [worker.output_digest(op, op.run()) for op in ops[:4]]
    tracer.install()
    try:
        assert shiftopt.parse is not original
        traced = []
        for i, op in enumerate(ops[:4]):
            recorder.begin_op(i)
            out = op.run()
            root, op_ns = recorder.end_op()
            traced.append(worker.output_digest(op, out))
            assert sum(tracing.self_times(recorder.spans, root)) == op_ns
    finally:
        tracer.uninstall()
    assert shiftopt.parse is original
    assert traced == untraced
    names = {span[0] for span in recorder.spans}
    assert "instances.parse" in names
    assert names & {"sco.log_approx", "sco.small_n_approx", "sco.convex_identical"}


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        a = workloads.build(shiftopt, name, 5)
        b = workloads.build(shiftopt, name, 5)
        assert [op.kind for op in a] == [op.kind for op in b]
        assert worker.output_digest(a[0], a[0].run()) == worker.output_digest(b[0], b[0].run())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_smoke_run_of_every_workload_prints_all_metrics():
    proc = run_bench(ROOT, "--workload", "all", "--seed", "1", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    blocks = proc.stdout.split("workload=")[1:]
    untraced = [b for b in blocks if " trace=0 " in b.splitlines()[0]]
    assert sorted(b.split()[0] for b in untraced) == sorted(workloads.WORKLOADS)
    for block in untraced:
        for name in E2E_NAMES:
            assert f"  {name} " in block, (name, block)
        assert "INTEGRITY" not in block
    # Inputs outside a documented precondition are probes, reported apart.
    gadget = next(b for b in untraced if b.startswith("gadget-reductions"))
    assert "precondition probes (untimed)" in gadget


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "ratio-sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
