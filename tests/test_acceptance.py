"""Acceptance suite: every criterion runs against an exact baseline with
exact rational comparisons (zero tolerance) and prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import hashlib
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from helpers import (
    disjoint_union_of_lift,
    equivalents_of_power,
    lift_value_by_scan,
    lift_value_full_enum,
    rand_arbitrary_system,
    rand_binary,
    rand_closed_system,
    rand_convex_tables,
    rand_cost,
)
from shiftopt import (
    ExplicitSystem,
    NotDownwardClosedError,
    PrescribedCongestion,
    bipartite_to_graph,
    body_to_system,
    brute_force_dup,
    brute_force_generalized,
    brute_force_sco,
    clean,
    congestion_feasible,
    congestion_to_cost,
    constant_shifted,
    convex_identical,
    exact_cover_exists,
    frobenius,
    greedy_dup,
    greedy_ratio,
    hexagon_gadget,
    is_downward_closed,
    lift_maximize,
    log_approx,
    perfect_matchings,
    potential_profit,
    ratio_bound,
    shifted_value,
    small_n_approx,
)
from shiftopt.cli import main as cli_main


@contextmanager
def criterion(name: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= limit_s:
        print(f"criterion {name}: FAIL (runtime {elapsed:.2f}s >= limit {limit_s}s)")
        raise AssertionError(f"criterion {name} exceeded its runtime limit")
    print(f"criterion {name}: PASS ({elapsed:.2f}s < {limit_s}s)")


def at_least(value: int, bound: Fraction, opt: int) -> bool:
    return value * bound.denominator >= bound.numerator * opt


def test_criterion_1_cleaning_lemma():
    with criterion("1 cleaning-lemma equality", 5.0):
        rng = random.Random(101)
        for _ in range(1000):
            d, n = rng.randint(1, 8), rng.randint(1, 4)
            c = rand_cost(rng, d, n)
            x = rand_binary(rng, d, n)
            cleaned = clean(c, x)
            assert shifted_value(c, cleaned) == potential_profit(c, x).total
            for ri, rj in zip(cleaned, x):
                assert all(a <= b for a, b in zip(ri, rj))


def test_criterion_2_lift_oracle_exactness():
    with criterion("2 lift-oracle exactness", 10.0):
        rng = random.Random(102)
        for _ in range(500):
            d, n = rng.randint(1, 6), rng.randint(1, 4)
            sys_ = rand_closed_system(rng, d, 20)
            c = rand_cost(rng, d, n)
            x = lift_maximize(sys_, n, c)
            assert frobenius(c, x) == lift_value_by_scan(sys_, c)
            if (n + 1) ** d <= 2500:
                assert frobenius(c, x) == lift_value_full_enum(sys_, c, n)


def test_criterion_3_greedy_dup_ratio():
    with criterion("3 greedy DUP ratio", 30.0):
        rng = random.Random(103)
        for trial in range(1000):
            d = rng.randint(1, 8)
            k = trial % 4 + 1
            sys_ = rand_closed_system(rng, d, rng.randint(2, 30))
            w = [rng.randint(-6, 9) for _ in range(d)]
            sel = greedy_dup(sys_, k, w)
            opt, _ = brute_force_dup(sys_, k, w)
            beta = greedy_ratio(k)
            assert at_least(sel.value, beta, opt)


def test_criterion_4_constant_shifted_ratio():
    with criterion("4 constant ratio for shifted costs", 120.0):
        rng = random.Random(104)
        worst = None
        for trial in range(1000):
            d = rng.randint(1, 7)
            n = trial % 3 + 2
            sys_ = rand_closed_system(rng, d, 20)
            c = rand_cost(rng, d, n, shifted=True)
            res = constant_shifted(sys_, c, n)
            opt, _ = brute_force_sco(sys_, c, n)
            assert res.bound == ratio_bound("shifted_constant", n)
            assert at_least(res.value, res.bound, opt)
            if opt > 0:
                ratio = Fraction(res.value, opt)
                worst = ratio if worst is None or ratio < worst else worst
        print(f"  min observed ratio: {worst} (~{float(worst):.4f})")


def test_criterion_5_log_ratio_general_costs():
    with criterion("5 logarithmic ratio for general costs", 120.0):
        rng = random.Random(105)
        for trial in range(500):
            d = rng.randint(1, 7)
            n = trial % 5 + 2
            sys_ = rand_closed_system(rng, d, 10)
            c = rand_cost(rng, d, n)
            res = log_approx(sys_, c, n)
            opt, _ = brute_force_sco(sys_, c, n)
            assert res.bound == ratio_bound("general_log", n)
            assert at_least(res.value, res.bound, opt)


def test_criterion_6_small_n_ratios():
    with criterion("6 small-n ratios", 180.0):
        rng = random.Random(106)
        for n in (2, 3, 4):
            bound = ratio_bound("small_n", n)
            for _ in range(500):
                d = rng.randint(1, 7)
                sys_ = rand_closed_system(rng, d, 12)
                c = rand_cost(rng, d, n)
                res = small_n_approx(sys_, c, n)
                assert res.bound == bound
                assert at_least(res.value, bound, opt := brute_force_sco(sys_, c, n)[0])


def test_criterion_7_partition_identity():
    with criterion("7 lift/partition identity", 5.0):
        rng = random.Random(107)
        for trial in range(20):
            d = rng.randint(1, 3)
            if trial % 2:
                sys_ = rand_closed_system(rng, d, 8)
            else:
                sys_ = rand_arbitrary_system(rng, d, 2**d)
            assert equivalents_of_power(sys_, 2) == disjoint_union_of_lift(sys_, 2)


def test_criterion_8_convex_reduction():
    with criterion("8 separable convex reduction", 30.0):
        rng = random.Random(108)
        for _ in range(200):
            d, n = rng.randint(1, 5), rng.randint(1, 4)
            sys_ = rand_closed_system(rng, d, 14)
            tables = rand_convex_tables(rng, d, n)
            _, value = convex_identical(sys_, tables, n)
            assert value == brute_force_generalized(sys_, tables, n)


def hexagon_feasible(sets, k):
    graph, pc = hexagon_gadget(sets, k)
    pms = perfect_matchings(bipartite_to_graph(graph))
    if not pms:
        return False
    return congestion_feasible(pms, pc)


def test_criterion_9_reduction_gadgets():
    with criterion("9 reductions end-to-end", 60.0):
        rng = random.Random(109)

        # (a) prescribed congestion to cost matrix
        for _ in range(100):
            d, n = rng.randint(1, 6), rng.randint(1, 3)
            sys_ = rand_closed_system(rng, d, 14)
            pc = PrescribedCongestion(
                n,
                tuple(
                    frozenset(rng.sample(range(n + 1), rng.randint(1, n + 1)))
                    for _ in range(d)
                ),
            )
            c, target = congestion_to_cost(pc)
            opt, _ = brute_force_sco(sys_, c, n)
            assert opt <= target
            assert (opt == target) == congestion_feasible(sys_.vectors, pc)

        # (b) body-to-closure cost lifting
        for _ in range(50):
            d = rng.randint(2, 6)
            card = rng.randint(1, min(3, d))
            bodies = [frozenset(cmb) for cmb in combinations(range(d), card)]
            chosen = rng.sample(bodies, rng.randint(1, min(4, len(bodies))))
            T = ExplicitSystem(
                tuple(tuple(1 if i in sup else 0 for i in range(d)) for sup in chosen)
            )
            n = rng.randint(1, 2)
            c = rand_cost(rng, d, n, lo=-4, hi=4)
            S, b = body_to_system(T, c)
            opt_b, witness = brute_force_sco(S, b, n)
            for col in zip(*witness):
                assert T.contains(tuple(col))
            opt_c, _ = brute_force_sco(T, c, n)
            assert shifted_value(c, witness) == opt_c

        # (c) hexagon gadgets: every 3-set family with m <= 3 over k = 3m,
        # plus hand-built yes/no cases and the 12m size identity
        hand_built = [
            ([(0, 1, 2)], 3, True),
            ([(0, 1, 2)], 4, False),
            ([(0, 1, 2), (3, 4, 5)], 6, True),
            ([(0, 1, 2), (2, 3, 4)], 6, False),
            ([(0, 1, 2), (3, 4, 5), (0, 3, 4)], 6, True),
        ]
        for sets, k, expected in hand_built:
            graph, _ = hexagon_gadget(sets, k)
            assert len(graph.edges) == 12 * len(sets)
            assert graph.left + graph.right == 6 * len(sets) + 2 * k
            assert exact_cover_exists(sets, k) == expected
            assert hexagon_feasible(sets, k) == expected
        for m in (1, 2, 3):
            k = 3 * m
            triples = list(combinations(range(k), 3))
            for family in combinations_with_replacement(triples, m):
                graph, _ = hexagon_gadget(family, k)
                assert len(graph.edges) == 12 * m
                assert hexagon_feasible(family, k) == exact_cover_exists(family, k)


def test_criterion_10_bench_determinism(tmp_path):
    with criterion("10 bench determinism", 60.0):
        args = [
            "bench", "--d", "5", "--n", "3", "--set-size", "12", "--cost-range", "7",
            "--shifted", "true", "--trials", "40", "--seed", "2024",
        ]
        out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2)]) == 0
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2 and b1


# SHA-256 of the criterion-10 CSV as written before the explicit oracle
# moved to a prefix tree; any change to the bench output bytes fails here.
CRITERION_10_CSV_SHA256 = "f04ff7a99bfa824b10f5117d1647f8f089932b71c97e5a7d0e33d38365409612"


def test_criterion_10_bench_csv_golden(tmp_path):
    out = tmp_path / "run.csv"
    args = [
        "bench", "--d", "5", "--n", "3", "--set-size", "12", "--cost-range", "7",
        "--shifted", "true", "--trials", "40", "--seed", "2024", "--out", str(out),
    ]
    assert cli_main(args) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CRITERION_10_CSV_SHA256


def test_criterion_11_non_closed_systems_never_yield_infeasible_output():
    with criterion("11 non-closed systems rejected", 30.0):
        rng = random.Random(111)
        rejected = 0
        for trial in range(3000):
            d, n = rng.randint(2, 5), trial % 3 + 2
            sys_ = rand_arbitrary_system(rng, d, 6)
            c = rand_cost(rng, d, n)
            closed = is_downward_closed(sys_.vectors)
            for solve, costs in (
                (constant_shifted, tuple(tuple(sorted(r, reverse=True)) for r in c)),
                (log_approx, c),
                (small_n_approx, c),
            ):
                if not closed:
                    try:
                        solve(sys_, costs, n)
                    except NotDownwardClosedError:
                        rejected += 1
                        continue
                    raise AssertionError(f"{solve.__name__} ran on a non-closed system")
                res = solve(sys_, costs, n)
                assert all(sys_.contains(col) for col in zip(*res.solution))
        assert rejected > 1000
