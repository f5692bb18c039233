import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, islice
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import needs_scipy, systems
import shiftopt
from shiftopt import (
    Instance,
    Meta,
    brute_force_sco,
    parse,
    random_instance,
    serialize,
)
from shiftopt.cli import main
from shiftopt.sco import APPROX_VARIANTS, ApproxResult, log_approx


def write_instance(tmp_path, inst, name="inst.json"):
    path = tmp_path / name
    path.write_bytes(serialize(inst))
    return str(path)


def test_solve_exact_matches_recorded_optimum(tmp_path, capsys):
    inst = random_instance(5, d=5, n=3, set_size=10, cost_range=7, shifted=False)
    opt, _ = brute_force_sco(inst.system, inst.c, inst.n)
    inst = replace(inst, meta=Meta(optimum=opt))
    path = write_instance(tmp_path, inst)
    assert main(["solve", path, "--variant", "exact"]) == 0
    out = capsys.readouterr().out
    value = int(next(l for l in out.splitlines() if l.startswith("value:")).split()[1])
    assert value == opt


def test_solve_shifted_rejects_unshifted_costs(tmp_path, capsys):
    inst = random_instance(6, d=4, n=2, set_size=8, cost_range=5, shifted=True)
    # force a first increasing row so validation trips, and name it
    c = list(list(row) for row in inst.c)
    c[2] = [0, 9]
    inst = replace(inst, c=tuple(tuple(r) for r in c))
    path = write_instance(tmp_path, inst)
    assert main(["solve", path, "--variant", "shifted"]) == 2
    err = capsys.readouterr().err
    assert err == "validation error: cost matrix is not shifted: row 3 increases\n"


def test_solve_log_on_n1_equals_exact(tmp_path, capsys):
    inst = random_instance(7, d=5, n=1, set_size=10, cost_range=6, shifted=False)
    path = write_instance(tmp_path, inst)
    assert main(["solve", path, "--variant", "log"]) == 0
    log_out = capsys.readouterr().out
    assert main(["solve", path, "--variant", "exact"]) == 0
    exact_out = capsys.readouterr().out
    pick = lambda out: int(
        next(l for l in out.splitlines() if l.startswith("value:")).split()[1]
    )
    assert pick(log_out) == pick(exact_out)


def test_solve_small_n_rejects_large_n(tmp_path, capsys):
    inst = random_instance(8, d=4, n=5, set_size=8, cost_range=5, shifted=False)
    path = write_instance(tmp_path, inst)
    assert main(["solve", path, "--variant", "small-n"]) == 2
    assert "validation error" in capsys.readouterr().err


def test_solve_convex_variant(tmp_path, capsys):
    inst = random_instance(9, d=4, n=3, set_size=9, cost_range=5, shifted=False)
    rows = tuple(tuple(sorted(row)) for row in inst.c)  # nondecreasing = convex tables
    inst = replace(inst, c=rows)
    path = write_instance(tmp_path, inst)
    assert main(["solve", path, "--variant", "convex"]) == 0
    convex_out = capsys.readouterr().out
    assert main(["solve", path, "--variant", "exact"]) == 0
    exact_out = capsys.readouterr().out
    pick = lambda out: int(
        next(l for l in out.splitlines() if l.startswith("value:")).split()[1]
    )
    assert pick(convex_out) == pick(exact_out)

    decreasing = replace(inst, c=tuple(tuple(sorted(row, reverse=True)) for row in inst.c))
    if decreasing.c != inst.c:
        path2 = write_instance(tmp_path, decreasing, "dec.json")
        assert main(["solve", path2, "--variant", "convex"]) == 2
        capsys.readouterr()


def test_solve_print_solution(tmp_path, capsys):
    inst = random_instance(10, d=4, n=2, set_size=8, cost_range=5, shifted=True)
    path = write_instance(tmp_path, inst)
    assert main(["solve", path, "--variant", "shifted", "--print-solution"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    idx = lines.index("solution:")
    rows = lines[idx + 1:idx + 5]
    assert len(rows) == 4
    assert all(len(r) == 2 and set(r) <= {"0", "1"} for r in rows)


def test_solve_parse_error_exit_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"version": 1,')
    assert main(["solve", str(path), "--variant", "exact"]) == 1
    assert "parse error" in capsys.readouterr().err
    assert main(["solve", str(tmp_path / "missing.json"), "--variant", "exact"]) == 1
    capsys.readouterr()


def test_solve_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["solve", str(path), "--variant", "log"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and "Traceback" not in err


def test_solve_negative_system_sizes_are_parse_errors(tmp_path, capsys):
    systems = {
        "partition": ('{"kind": "partition", "d": -1, "blocks": []}', "d must be nonnegative"),
        "graphic": ('{"kind": "graphic", "vertices": -3, "edges": []}',
                    "vertex count must be nonnegative"),
    }
    for kind, (system, message) in systems.items():
        path = tmp_path / f"{kind}.json"
        path.write_text('{"version": 1, "n": 1, "c": [], "system": %s}' % system)
        assert main(["solve", str(path), "--variant", "shifted"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: system: {message}\n"


def run_bench(tmp_path, name, extra=()):
    out = tmp_path / name
    args = [
        "bench", "--d", "5", "--n", "2", "--set-size", "10", "--cost-range", "6",
        "--shifted", "true", "--trials", "25", "--seed", "11", "--out", str(out),
    ]
    code = main(args + list(extra))
    return code, out


def test_bench_deterministic_and_well_formed(tmp_path, capsys):
    code1, out1 = run_bench(tmp_path, "a.csv")
    code2, out2 = run_bench(tmp_path, "b.csv")
    assert code1 == code2 == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2

    with open(out1, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    header = open(out1).readline().strip()
    assert header == "seed,d,n,set_size,variant,apx,opt,ratio,bound,violated"
    variants = {r["variant"] for r in rows}
    assert variants == {"shifted", "log", "small-n"}
    for r in rows:
        apx, opt = int(r["apx"]), int(r["opt"])
        bound = Fraction(r["bound"])
        assert apx <= opt
        violated = opt > 0 and apx * bound.denominator < bound.numerator * opt
        assert r["violated"] == ("true" if violated else "false")
        assert r["violated"] == "false"
        if opt > 0:
            assert Fraction(r["ratio"]) == Fraction(apx, opt)
        else:
            assert r["ratio"] == ""
    summary = capsys.readouterr().out
    assert "min_ratio" in summary


def test_bench_marks_budget_exceeded_as_skipped(tmp_path, capsys):
    code, out = run_bench(tmp_path, "skip.csv", extra=["--budget", "1"])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for r in rows:
        assert r["ratio"] == "skipped"
        assert r["apx"] == "" and r["opt"] == ""
        assert r["violated"] == "false"
    capsys.readouterr()


def test_gadget_hexagon_round_trip(tmp_path, capsys):
    out = tmp_path / "hex.json"
    assert main(["gadget", "hexagon", "--k", "3", "--sets", "1,2,3",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    inst = parse(out.read_bytes())
    assert inst.n == 2
    assert len(inst.c) == 12
    assert inst.meta.target is not None
    assert main(["solve", str(out), "--variant", "exact"]) == 0
    solve_out = capsys.readouterr().out
    assert "met: yes" in solve_out


def test_gadget_hexagon_infeasible_case(tmp_path, capsys):
    out = tmp_path / "hex4.json"
    assert main(["gadget", "hexagon", "--k", "4", "--sets", "1,2,3",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["solve", str(out), "--variant", "exact"]) == 0
    assert "met: no" in capsys.readouterr().out


def test_gadget_hexagon_file_is_golden(tmp_path, capsys):
    out = tmp_path / "hex.json"
    assert main(["gadget", "hexagon", "--k", "6", "--sets", "1,2,3;4,5,6;1,4,5",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "e4cd04c339dbeccde082f56136cb9cae32dd80051c65e972bfefc464315fdd66"
    )


def test_gadget_congestion_trivial_sets(tmp_path, capsys):
    out = tmp_path / "cong.json"
    assert main(["gadget", "congestion", "--n", "2", "--sets", "0,1,2;0,1,2",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    inst = parse(out.read_bytes())
    assert inst.meta.target == 0
    assert main(["solve", str(out), "--variant", "exact"]) == 0
    out_text = capsys.readouterr().out
    assert "value: 0" in out_text and "met: yes" in out_text


def test_gadget_independent_set_triangle(tmp_path, capsys):
    out = tmp_path / "tri.json"
    assert main(["gadget", "independent-set", "--vertices", "3",
                 "--edges", "1-2,2-3,1-3", "--n", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    inst = parse(out.read_bytes())
    assert inst.meta.target == 0
    assert main(["solve", str(out), "--variant", "exact"]) == 0
    text = capsys.readouterr().out
    assert "met: no" in text
    value = int(next(l for l in text.splitlines() if l.startswith("value:")).split()[1])
    assert value < 0
    # star systems are not downward closed: no approximation variant may run
    for variant in ("shifted", "log", "small-n"):
        assert main(["solve", str(out), "--variant", variant]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("validation error:")
        assert "not downward closed" in captured.err and "gadget lift-body" in captured.err


def test_solve_rejects_a_solution_column_outside_the_system(tmp_path, capsys, monkeypatch):
    inst = random_instance(10, d=4, n=2, set_size=8, cost_range=5, shifted=True)
    assert not inst.system.contains((1, 1, 1, 1))
    path = write_instance(tmp_path, inst)
    outside = ApproxResult(((0, 1),) * 4, 0, None, Fraction(1))
    monkeypatch.setitem(
        APPROX_VARIANTS, "log", (lambda oracle, c, n: outside, APPROX_VARIANTS["log"][1])
    )
    assert main(["solve", path, "--variant", "log", "--print-solution"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "validation error: solution column 2 is not in the system\n"


def test_gadget_coloring_k4(tmp_path, capsys):
    out = tmp_path / "k4.json"
    assert main(["gadget", "coloring", "--vertices", "4",
                 "--edges", "1-2,1-3,1-4,2-3,2-4,3-4", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["solve", str(out), "--variant", "exact"]) == 0
    assert "met: yes" in capsys.readouterr().out


def test_gadget_coloring_rejects_noncubic(tmp_path, capsys):
    out = tmp_path / "bad.json"
    assert main(["gadget", "coloring", "--vertices", "3",
                 "--edges", "1-2,2-3", "--out", str(out)]) == 2
    assert "validation error" in capsys.readouterr().err


def test_gadget_lift_body_round_trip(tmp_path, capsys):
    from shiftopt import ExplicitSystem, Instance

    body = Instance(
        ExplicitSystem(((1, 0), (0, 1))),
        2,
        ((0, -1), (0, -1)),
        Meta(target=0),
    )
    body_path = write_instance(tmp_path, body, "body.json")
    out = tmp_path / "lifted.json"
    assert main(["gadget", "lift-body", "--body", body_path, "--out", str(out)]) == 0
    capsys.readouterr()
    lifted = parse(out.read_bytes())
    assert lifted.c == ((5, 4), (5, 4))
    assert lifted.system.downward_closed
    assert lifted.meta.target == 0 + 5 * 2 * 1
    assert main(["solve", str(out), "--variant", "exact"]) == 0
    assert "met: yes" in capsys.readouterr().out


def test_gadget_lift_body_file_is_golden(tmp_path, capsys):
    from shiftopt import ExplicitSystem, Instance

    body = Instance(
        ExplicitSystem(((1, 0, 1), (0, 1, 1), (1, 1, 0))),
        2,
        ((3, -1), (0, -2), (2, 2)),
        Meta(target=4),
    )
    body_path = write_instance(tmp_path, body, "body.json")
    out = tmp_path / "lifted.json"
    assert main(["gadget", "lift-body", "--body", body_path, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "702a149658ae61369e50b31f985bf4c2322b43119eb69385a7991c4f5da9ee5d"
    )


def test_gadget_lift_body_refuses_a_closure_above_the_budget(tmp_path, capsys):
    from shiftopt import ExplicitSystem, Instance

    # One body vector of 24 ones: its closure would have 2^24 members.
    body = Instance(ExplicitSystem(((1,) * 24,)), 1, ((0,),) * 24)
    body_path = write_instance(tmp_path, body, "body.json")
    out = tmp_path / "lifted.json"
    start = time.perf_counter()
    assert main(["gadget", "lift-body", "--body", body_path, "--out", str(out)]) == 2
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().err == (
        "validation error: body closure: 16777216 candidates exceed budget 10000000\n"
    )
    assert not out.exists()


def _bench(tmp_path, *options):
    return [
        "bench", "--d", "5", "--n", "3", "--set-size", "12", "--cost-range", "7",
        "--seed", "2024", "--out", str(tmp_path / "run.csv"), *options,
    ]


def _log_bound_one(monkeypatch):
    # The log variant claims ratio 1, which it misses on some trials.
    monkeypatch.setitem(APPROX_VARIANTS, "log", (log_approx, lambda n: Fraction(1)))


def _explicit_file(tmp_path, c, system):
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps({
        "version": 1, "n": 2, "c": c, "system": {"kind": "explicit", **system},
    }))
    return str(path)


@pytest.mark.parametrize(
    "c, code",
    [([[3, 1], [2, 2]], 0), ([[3, 1], [2, 2], [1, 1]], 1)],
    ids=["solved", "parse-error"],
)
def test_python_m_shiftopt_exits_with_the_code_of_main(tmp_path, capsys, c, code):
    argv = ["solve", _explicit_file(tmp_path, c, {"vectors": ["00", "10", "01"]}),
            "--variant", "exact"]
    assert main(argv) == code
    expected = capsys.readouterr()
    src = Path(shiftopt.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "shiftopt", *argv],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
    )
    assert (done.returncode, done.stdout, done.stderr) == (code, expected.out, expected.err)


@pytest.mark.parametrize("text", ["1_0", " 01", "+1", "\uff101", "\ud800"])
def test_solve_rejects_vector_strings_with_other_characters(tmp_path, capsys, text):
    path = _explicit_file(tmp_path, [[1, 0]] * len(text), {"vectors": ["0" * len(text), text]})
    assert main(["solve", path, "--variant", "log"]) == 1
    assert capsys.readouterr().err == (
        "parse error: system.vectors[1]: expected a string of 0/1 characters\n"
    )


def test_solve_reads_a_5000_element_explicit_file(tmp_path, capsys):
    # Each d = 5000 vector string is longer than the 4300-digit limit of
    # int() from text, from which base 2 is exempt.  The flagged closed
    # d = 30 list holds 3000 members: every set of size at most 2, then the
    # first 3-sets.
    d = 5000
    wide = (2, [[3, 1]] + [[-1, -1]] * (d - 2) + [[2, 2]],
            ["0" * d, "1" + "0" * (d - 1), "0" * (d - 1) + "1", "1" + "0" * (d - 2) + "1"])
    sets = [s for k in range(3) for s in combinations(range(30), k)]
    sets += islice(combinations(range(30), 3), 3000 - len(sets))
    closed = (16, [[(7 * i + 3 * j) % 11 - 5 for j in range(16)] for i in range(30)],
              ["".join("1" if i in s else "0" for i in range(30)) for s in sets])
    for n, c, vectors in (wide, closed):
        path = write_document(tmp_path, {"version": 1, "n": n, "c": c, "system": {
            "kind": "explicit", "downward_closed": True, "vectors": vectors}})
        assert main(["solve", path, "--variant", "log"]) == 0
        out = capsys.readouterr().out
        inst = parse(Path(path).read_bytes())
        assert inst.system.vectors == tuple(tuple(map(int, v)) for v in vectors)
        assert f"value: {log_approx(inst.system, inst.c, n).value}\n" in out


@pytest.mark.parametrize(
    "argv, code, stream, text",
    [
        (
            lambda tmp, mp: _bench(tmp, "--shifted", "false", "--trials", "10"),
            0,
            "out",
            "variant=log trials=10 min_ratio=0.736842 bound=0.043981 violations=0 skipped=0\n"
            "variant=small-n trials=10 min_ratio=0.736842 bound=0.452381 violations=0 skipped=0\n",
        ),
        (
            lambda tmp, mp: _log_bound_one(mp) or _bench(tmp, "--shifted", "true", "--trials", "10"),
            3,
            "err",
            "bound violations detected: 6\n",
        ),
        (
            lambda tmp, mp: _bench(tmp, "--shifted", "true", "--trials", "0"),
            2,
            "err",
            "validation error: --trials must be >= 1\n",
        ),
        (
            lambda tmp, mp: _bench(tmp, "--shifted", "maybe", "--trials", "10"),
            2,
            "err",
            "argument --shifted: expected true/false, got 'maybe'\n",
        ),
        (
            lambda tmp, mp: [
                "solve",
                _explicit_file(tmp, [[3, 1], [2, 2], [1, 1]], {"vectors": ["00", "10", "01"]}),
                "--variant", "log",
            ],
            1,
            "err",
            "parse error: cost matrix has 3 rows, oracle ground size 2\n",
        ),
        (
            lambda tmp, mp: [
                "solve",
                _explicit_file(
                    tmp, [[3, 1], [2, 2]], {"vectors": ["00", "11"], "downward_closed": True}
                ),
                "--variant", "log",
            ],
            1,
            "err",
            "parse error: system: system flagged downward_closed is not closed\n",
        ),
    ],
    ids=["bench-shifted-false", "bench-violation", "bench-no-trials", "bench-shifted-maybe",
         "solve-cost-rows", "solve-flag-not-closed"],
)
def test_documented_exit_codes_and_messages(tmp_path, capsys, monkeypatch, argv, code, stream, text):
    try:
        status = main(argv(tmp_path, monkeypatch))
    except SystemExit as exc:  # argparse rejects an option value
        status = exc.code
    assert status == code
    assert getattr(capsys.readouterr(), stream).endswith(text)


def test_bench_summary_lines_for_the_criterion_10_configuration(tmp_path, capsys):
    args = [
        "bench", "--d", "5", "--n", "3", "--set-size", "12", "--cost-range", "7",
        "--shifted", "true", "--trials", "40", "--seed", "2024",
        "--out", str(tmp_path / "run.csv"),
    ]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (
        "variant=shifted trials=40 min_ratio=0.909091 bound=0.703704 violations=0 skipped=0\n"
        "variant=log trials=40 min_ratio=0.714286 bound=0.043981 violations=0 skipped=0\n"
        "variant=small-n trials=40 min_ratio=0.714286 bound=0.452381 violations=0 skipped=0\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["independent-set", "--vertices", "3", "--n", "2", "--edges", ""],
         "empty edge list"),
        (["coloring", "--vertices", "4", "--edges", " , "], "empty edge list"),
        (["independent-set", "--vertices", "3", "--n", "2", "--edges", "1-2-3"],
         "bad edge '1-2-3'; expected u-v"),
        (["coloring", "--vertices", "4", "--edges", "1-2,3"], "bad edge '3'; expected u-v"),
        (["hexagon", "--k", "3", "--sets", ";"], "empty set family"),
        (["congestion", "--n", "2", "--sets", ";"], "empty congestion set list"),
        # A triangle and an isolated vertex 4.
        (["independent-set", "--vertices", "4", "--n", "3", "--edges", "1-2,2-3,1-3"],
         "vertex 4 lies on no edge"),
        (["coloring", "--vertices", "2", "--edges", "1-1"], "self-loop at vertex 1"),
    ],
)
def test_gadget_option_errors(tmp_path, capsys, argv, message):
    out = tmp_path / "gadget.json"
    assert main(["gadget", *argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"validation error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [
        lambda path, out: ["solve", path, "--variant", "log"],
        lambda path, out: ["gadget", "lift-body", "--body", path, "--out", out],
    ],
    ids=["solve", "lift-body"],
)
def test_unreadable_instance_files_exit_1(tmp_path, capsys, command):
    out = str(tmp_path / "out.json")
    missing = tmp_path / "missing.json"
    assert main(command(str(missing), out)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 2] No such file or directory: '{missing}'\n"

    broken = tmp_path / "broken.json"
    broken.write_text('{"version": 1,')
    assert main(command(str(broken), out)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "parse error: line 1 column 15: Expecting property name enclosed in double quotes\n"
    )


@pytest.mark.parametrize(
    "costs, top",
    [
        ((2**53 + 1, 2**53 + 2, 2**53 - 1, 2**53 + 1), 2**53 + 2),
        ((2**70, 1, 1, 1), 2**70),
    ],
)
def test_solve_rejects_bipartite_weights_the_matching_solver_cannot_handle_exactly(
    tmp_path, capsys, costs, top
):
    from shiftopt import BipartiteGraph, BipartiteMatchings, Instance

    graph = BipartiteGraph(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)))
    inst = Instance(BipartiteMatchings(graph), 1, tuple((v,) for v in costs))
    path = write_instance(tmp_path, inst)
    for variant in ("shifted", "log", "convex"):
        assert main(["solve", path, "--variant", variant]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"validation error: bipartite matching weight {top} exceeds 2**51, "
            "the largest the float64 assignment solver handles exactly\n"
        )
    assert main(["solve", path, "--variant", "exact"]) == 0
    best = max(costs[0] + costs[3], costs[1] + costs[2])
    assert f"value: {best}\n" in capsys.readouterr().out


PARALLEL_EDGES = {
    "version": 1,
    "n": 2,
    "c": [[3, 1], [2, 2], [5, 0]],
    "system": {"kind": "bipartite", "left": 2, "right": 2, "edges": [[1, 1], [1, 1], [2, 2]]},
}


@needs_scipy
def test_solve_exact_on_bipartite_parallel_edges(tmp_path, capsys):
    path = tmp_path / "parallel.json"
    path.write_text(json.dumps(PARALLEL_EDGES))
    for variant in ("exact", "shifted"):
        assert main(["solve", str(path), "--variant", variant]) == 0
        assert "value: 10\n" in capsys.readouterr().out


def test_solve_bipartite_without_scipy_is_an_error_not_a_traceback(tmp_path):
    path = tmp_path / "parallel.json"
    path.write_text(json.dumps(PARALLEL_EDGES))
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from shiftopt.cli import main\n"
        f"raise SystemExit(main(['solve', {str(path)!r}, '--variant', 'shifted']))\n"
    )
    src = Path(shiftopt.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error:") and "Traceback" not in done.stderr


def test_solve_deeply_nested_or_overlong_integer_files_are_parse_errors(tmp_path, capsys):
    for name, data in (("nested.json", b"[" * 100_000), ("digits.json", b"1" * 5000)):
        path = tmp_path / name
        path.write_bytes(data)
        assert main(["solve", str(path), "--variant", "log"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error:") and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["coloring", "--vertices", "4", "--edges", "1-2,1-3,1-4,2-3,2-4,3-4"],
         "87bcfd0fb51bf255a03b4c3f9732487ba1e1ecdc43d45d07724cd48a51c96a61"),
        (["congestion", "--n", "3", "--sets", "0,1;2;0,3", "--rank", "2"],
         "3cb51d011c90b78a28e7b93572bab64758a3360530cb55d782fbb7987942ad42"),
        (["independent-set", "--vertices", "3", "--edges", "1-2,2-3,1-3", "--n", "2"],
         "073d490d2d987d590c73d81a249d5a9a1e0006b831aa5f890717467b44b020ed"),
    ],
    ids=["coloring-k4", "congestion-rank-2", "independent-set-triangle"],
)
def test_gadget_files_are_golden(tmp_path, capsys, argv, digest):
    out = tmp_path / "gadget.json"
    assert main(["gadget", *argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_gadget_coloring_of_a_cubic_graph_without_a_perfect_matching(tmp_path, capsys):
    # Vertex 16 joins three blocks, each K4 minus the edge a-b plus a vertex
    # e adjacent to a, b and 16; deleting vertex 16 leaves three odd parts.
    edges = []
    for base in (0, 5, 10):
        a, b, c, d, e = range(base + 1, base + 6)
        edges += [(a, c), (a, d), (b, c), (b, d), (c, d), (e, a), (e, b), (e, 16)]
    out = tmp_path / "cubic.json"
    argv = ["gadget", "coloring", "--vertices", "16", "--out", str(out),
            "--edges", ",".join(f"{u}-{v}" for u, v in edges)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "validation error: graph has no perfect matching\n"
    assert not out.exists()


def write_document(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "system, c",
    [
        ({"kind": "uniform", "d": 0, "rank": 0}, []),
        ({"kind": "explicit", "vectors": ["0"]}, [[0] * 513]),
    ],
    ids=["uniform", "explicit"],
)
def test_solve_rejects_more_than_512_columns_before_any_work(tmp_path, capsys, system, c):
    path = write_document(tmp_path, {"version": 1, "system": system, "n": 513, "c": c})
    for variant in ("shifted", "log", "small-n", "convex", "exact"):
        assert main(["solve", path, "--variant", variant]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "validation error: n = 513 exceeds the limit of 512 columns\n"


def test_solve_runs_every_variant_at_512_columns(tmp_path, capsys):
    # The exact search recurses 511 deep and the log bound is printed in full.
    doc = {"version": 1, "system": {"kind": "uniform", "d": 0, "rank": 0}, "n": 512, "c": []}
    path = write_document(tmp_path, doc)
    for variant in ("shifted", "log", "convex", "exact"):
        assert main(["solve", path, "--variant", variant]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"variant: {variant}\nvalue: 0\nbound: ")


@pytest.mark.parametrize("n", ["0", "-3"])
def test_bench_rejects_fewer_than_one_column_before_any_work(tmp_path, capsys, n):
    code, out = run_bench(tmp_path, "bench.csv", extra=["--n", n])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "validation error: n must be >= 1\n"
    assert not out.exists()


def test_bench_rejects_more_than_512_columns_before_any_work(tmp_path, capsys):
    code, out = run_bench(tmp_path, "bench.csv", extra=["--n", "513"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "validation error: n = 513 exceeds the limit of 512 columns\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["congestion", "--n", "513", "--sets", "0,1;0,600"],
        ["independent-set", "--n", "513", "--vertices", "2", "--edges", "1-2"],
        ["lift-body", "--body", "{tmp}/body.json"],
    ],
    ids=["congestion", "independent-set", "lift-body"],
)
def test_gadget_rejects_more_than_512_columns_before_any_work(tmp_path, capsys, argv):
    body = {"version": 1, "system": {"kind": "explicit", "vectors": ["1"]}, "n": 513,
            "c": [[0] * 513]}
    write_document(tmp_path, body, "body.json")
    out = tmp_path / "gadget.json"
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert main(["gadget", *argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "validation error: n = 513 exceeds the limit of 512 columns\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, variant",
    [
        (["congestion", "--n", "512", "--sets", "0,1;0,512"], "log"),
        (["independent-set", "--n", "512", "--vertices", "2", "--edges", "1-2"], "exact"),
    ],
    ids=["congestion", "independent-set"],
)
def test_gadget_files_at_512_columns_are_solved(tmp_path, capsys, argv, variant):
    out = tmp_path / "gadget.json"
    assert main(["gadget", *argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert main(["solve", str(out), "--variant", variant]) == 0
    assert capsys.readouterr().out.startswith(f"variant: {variant}\nvalue: ")


def test_solve_exact_on_a_1200_edge_bipartite_star_lists_its_1201_matchings(tmp_path, capsys):
    # The matchings are grown edge by edge, so the search depth does not grow
    # with the edge count.
    doc = {"version": 1, "n": 1, "c": [[1]] * 1200, "system": {
        "kind": "bipartite", "left": 1, "right": 1200,
        "edges": [[1, j] for j in range(1, 1201)]}}
    assert main(["solve", write_document(tmp_path, doc), "--variant", "exact"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("variant: exact\nvalue: 1\n")
    assert captured.err == ""


def test_solve_exact_on_1100_disjoint_edges_stops_at_the_member_cap(tmp_path, capsys):
    # 2^1100 matchings: at n = 2 the listing stops at the 4472nd.
    doc = {"version": 1, "n": 2, "c": [[1, 0]] * 1100, "system": {
        "kind": "bipartite", "left": 1100, "right": 1100,
        "edges": [[j, j] for j in range(1, 1101)]}}
    assert main(["solve", write_document(tmp_path, doc), "--variant", "exact"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "validation error: shifted brute force: more than 4471 members, "
        "so at least 10001628 candidates, exceed budget 10000000\n"
    )


def test_solve_exact_member_cap_is_exact_at_its_boundary(tmp_path, capsys):
    # A uniform matroid with d = 5 and rank 5 has 32 members, whose 2-multisets
    # number comb(33, 2) = 528.
    doc = {"version": 1, "n": 2, "c": [[1, 0]] * 5,
           "system": {"kind": "uniform", "d": 5, "rank": 5}}
    path = write_document(tmp_path, doc)
    assert main(["solve", path, "--variant", "exact", "--budget", "528"]) == 0
    assert capsys.readouterr().out.startswith("variant: exact\nvalue: 5\n")
    assert main(["solve", path, "--variant", "exact", "--budget", "527"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "validation error: shifted brute force: more than 31 members, "
        "so at least 528 candidates, exceed budget 527\n"
    )


def test_solve_exact_on_the_3_set_hexagon_gadget_stops_at_the_member_cap(tmp_path, capsys):
    # The 36-edge gadget has 3,595,796 matchings; at n = 2 no list above 446
    # members fits a budget of 10^5, so the listing stops at the 447th, and
    # at the default budget of 10^7 it stops at the 4472nd.
    out = tmp_path / "hexagon.json"
    argv = ["gadget", "hexagon", "--k", "6", "--sets", "1,2,3;4,5,6;1,4,5", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    for budget, message in (
        (["--budget", "100000"], "more than 446 members, so at least 100128 candidates, "
                                 "exceed budget 100000"),
        ([], "more than 4471 members, so at least 10001628 candidates, exceed budget 10000000"),
    ):
        tracemalloc.start()
        try:
            code = main(["solve", str(out), "--variant", "exact", *budget])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err == f"validation error: shifted brute force: {message}\n"
        assert peak < 5_000_000


def test_gadget_coloring_of_a_2200_vertex_prism_is_a_validation_error(tmp_path, capsys):
    # The cubic prism C_1100 x K_2: the perfect-matching search keeps its own
    # stack, so it runs to its default node budget and stops there.
    m = 1100
    edges = []
    for i in range(1, m + 1):
        edges += [(i, i % m + 1), (m + i, m + i % m + 1), (i, m + i)]
    out = tmp_path / "prism.json"
    argv = ["gadget", "coloring", "--vertices", str(2 * m), "--out", str(out),
            "--edges", ",".join(f"{u}-{v}" for u, v in edges)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "validation error: perfect matching enumeration exceeded budget 1000000\n"
    )
    assert not out.exists()


def huge_value_document(d: int) -> bytes:
    """A uniform matroid of rank d with d costs of 4299 nines, n = 1: each
    cost parses under the interpreter's 4300-digit limit, and for d >= 11
    the optimum d * (10**4299 - 1) is longer than that limit."""
    nines = "9" * 4299
    return (
        '{"version": 1, "system": {"kind": "uniform", "d": %d, "rank": %d}, "n": 1, "c": [%s]}'
        % (d, d, ", ".join([f"[{nines}]"] * d))
    ).encode()


def test_solve_prints_values_past_the_int_to_str_digit_limit(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_bytes(huge_value_document(20))
    for variant in ("shifted", "log", "convex"):
        assert main(["solve", str(path), "--variant", variant]) == 0
        out = capsys.readouterr().out
        assert f"\nvalue: 1{'9' * 4298}80\n" in out


@st.composite
def instance_documents(draw):
    """Small instance files of every system kind, including explicit systems
    that are not downward closed, unshifted costs, bipartite weights above
    2**51 (the matching solver's exact range) and n <= 5; vertex counts
    stay at most 4."""
    system = draw(systems(max_d=4))
    n = draw(st.integers(1, 5))
    entry = st.integers(-5, 8) | st.integers(2**51 - 2, 2**53 + 2) | st.integers(-(2**60), 0)
    row = st.lists(entry, min_size=n, max_size=n).map(tuple)
    c = draw(st.lists(row, min_size=system.ground_size(), max_size=system.ground_size()))
    target = draw(st.none() | st.integers(-10, 10))
    return serialize(Instance(system, n, tuple(c), Meta(target=target)))


@settings(max_examples=200, deadline=None)
@given(instance_documents())
@example(b'{"version": 1, "system": {"kind": "uniform", "d": 0, "rank": 0}, "n": 3000, "c": []}')
@example(
    b'{"version": 1, "system": {"kind": "explicit", "vectors": ["0"]}, "n": 3000, "c": [[%s]]}'
    % b", ".join([b"0"] * 3000)
)
# The digit-limit case at d = 11 rather than 20, so that the exact variant
# enumerates 2**11 members, not 2**20.
@example(huge_value_document(11))
def test_solve_exits_0_1_or_2_on_every_variant_and_never_raises(document):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "instance.json")
        path.write_bytes(document)
        for variant in ("shifted", "log", "small-n", "convex", "exact"):
            assert main(["solve", str(path), "--variant", variant]) in (0, 1, 2)


EDGE_LISTS = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=9
).map(lambda edges: ",".join(f"{u}-{v}" for u, v in edges)) | st.sampled_from(
    ["", " , ", "1-2-3", "1-", "-1-2", "a-b", "1-2,,2-3", "1-2,1-3,1-4,2-3,2-4,3-4"]
)
SET_LISTS = st.lists(
    st.lists(st.integers(0, 9), min_size=2, max_size=4), max_size=3
).map(lambda family: ";".join(",".join(map(str, s)) for s in family)) | st.sampled_from(
    [";", "1,,2", "-1,2,3", "x", "1,2,3", "1,2,3;4,5,6;1,4,5"]
)
SMALL = st.integers(-2, 8)
COLUMNS = st.sampled_from([-1, 0, 1, 2, 3, 4, 512, 513])


@st.composite
def gadget_argvs(draw):
    """argv for every gadget kind, with small or malformed vertex counts, edge
    and set lists, --k, --n and --rank, and the document lift-body reads from
    --body (None for no file); options are passed as --name=value, so that a
    value may start with '-', and "{tmp}" stands for a temporary directory."""
    kind = draw(st.sampled_from(
        ["independent-set", "coloring", "hexagon", "congestion", "lift-body"]
    ))
    options = {}
    if kind in ("independent-set", "coloring"):
        options = {"vertices": draw(SMALL), "edges": draw(EDGE_LISTS)}
    if kind in ("independent-set", "congestion"):
        options["n"] = draw(COLUMNS)
    if kind in ("hexagon", "congestion"):
        options["sets"] = draw(SET_LISTS)
    if kind == "hexagon":
        options["k"] = draw(SMALL)
    if kind == "congestion" and draw(st.booleans()):
        options["rank"] = draw(SMALL)
    body = None
    if kind == "lift-body":
        body = draw(instance_documents() | st.sampled_from([b"", b"{", None]))
        options["body"] = "{tmp}/body.json"
    return [kind, *(f"--{name}={value}" for name, value in options.items())], body


@settings(max_examples=300, deadline=None)
@given(gadget_argvs(), st.booleans())
def test_gadget_exits_0_1_or_2_on_every_kind_and_never_raises(argv_and_body, out_is_a_directory):
    argv, body = argv_and_body
    with tempfile.TemporaryDirectory() as tmp:
        if body is not None:
            Path(tmp, "body.json").write_bytes(body)
        out = tmp if out_is_a_directory else str(Path(tmp, "gadget.json"))
        argv = [arg.replace("{tmp}", tmp) for arg in argv]
        assert main(["gadget", *argv, f"--out={out}"]) in (0, 1, 2)


# Run in a fresh interpreter, so that no other test has imported numpy or
# scipy first.  Asserts that only a bipartite maximize with a positive
# weight within the exact bound loads them.
IMPORT_GUARD = r"""
import sys

from shiftopt import (
    BipartiteGraph, BipartiteMatchings, ExplicitSystem, GraphicMatroid, Instance,
    PartitionMatroid, UniformMatroid, constant_shifted, log_approx, parse, serialize,
)
from shiftopt.cli import main


def loaded():
    return sorted({"numpy", "scipy"} & set(sys.modules))


tmp = sys.argv[1]
c = ((3, 2), (2, 1), (1, 0))
systems = (
    ExplicitSystem.closed([(1, 1, 0), (0, 0, 1)]),
    UniformMatroid(3, 2),
    PartitionMatroid(3, (((0, 1), 1), ((2,), 1))),
    GraphicMatroid(3, ((0, 1), (1, 2), (0, 2))),
)
for k, system in enumerate(systems):
    inst = parse(serialize(Instance(system, 2, c)))
    constant_shifted(inst.system, inst.c, inst.n)
    log_approx(inst.system, inst.c, inst.n)
    path = f"{tmp}/inst{k}.json"
    with open(path, "wb") as fh:
        fh.write(serialize(inst))
    assert main(["solve", path, "--variant", "shifted"]) == 0
assert main([
    "bench", "--d", "6", "--n", "3", "--set-size", "12", "--cost-range", "7",
    "--shifted", "true", "--trials", "5", "--seed", "0", "--out", f"{tmp}/bench.csv",
]) == 0
assert loaded() == [], loaded()

matchings = BipartiteMatchings(BipartiteGraph(2, 2, ((0, 0), (0, 1), (1, 1))))
assert matchings.maximize((0, -1, 0)) == (0, 0, 0)
try:
    matchings.maximize((2**51 + 1, 1, 1))
except ValueError:
    pass
else:
    raise AssertionError("no ValueError above 2**51")
assert loaded() == [], loaded()
assert matchings.maximize((1, 0, 1)) == (1, 0, 1)
assert loaded() == ["numpy", "scipy"], loaded()
"""


@needs_scipy
def test_numpy_and_scipy_load_only_for_a_positive_bipartite_maximize(tmp_path):
    src = Path(shiftopt.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
