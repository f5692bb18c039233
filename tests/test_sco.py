import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    CountingOracle,
    constant_shifted_by_lift,
    constant_shifted_by_round_rebuild,
    costs,
    disjoint_union_of_lift,
    equivalents_of_power,
    level_candidate_by_cleaning,
    needs_scipy,
    rand_closed_system,
    rand_binary,
    rand_convex_tables,
    rand_cost,
    systems,
)
from shiftopt import (
    ApproxResult,
    ExplicitSystem,
    NotDownwardClosedError,
    LiftedOracle,
    NotShiftedError,
    OrthogonalSelection,
    UniformMatroid,
    brute_force_generalized,
    brute_force_sco,
    ceil_log2,
    clean,
    constant_shifted,
    convex_identical,
    greedy_dup,
    is_downward_closed,
    level_candidate,
    lift_maximize,
    log_approx,
    matrix,
    potential_profit,
    ratio_bound,
    shifted_value,
    small_n_approx,
)
from shiftopt import oracles, sco


def meets(value, bound: Fraction, opt) -> bool:
    return value * bound.denominator >= bound.numerator * opt


# --- potential profit and cleaning


def test_potential_profit_prefix_maximum():
    prof = potential_profit(matrix([[5, -2, 3]]), matrix([[1, 1, 1]]))
    assert prof.profits == (6,) and prof.retained == (3,)


def test_potential_profit_empty_prefix_wins():
    prof = potential_profit(matrix([[-1, -1]]), matrix([[1, 1]]))
    assert prof.profits == (0,) and prof.retained == (0,)


def test_potential_profit_capped_by_congestion():
    prof = potential_profit(matrix([[4, 4]]), matrix([[1, 0]]))
    assert prof.profits == (4,) and prof.retained == (1,)


def test_potential_profit_smallest_argmax():
    # prefix sums 3, 3: the tie breaks to the shorter prefix
    prof = potential_profit(matrix([[3, 0]]), matrix([[1, 1]]))
    assert prof.retained == (1,)


def test_clean_empties_all_negative_row():
    assert clean(matrix([[-1, -1]]), matrix([[1, 1]])) == ((0, 0),)


def test_clean_keeps_fully_profitable_rows():
    c = matrix([[2, 1], [3, 0]])
    x = matrix([[1, 1], [1, 0]])
    assert clean(c, x) == x


def test_clean_realizes_total_potential_profit():
    rng = random.Random(1)
    for _ in range(500):
        d, n = rng.randint(1, 6), rng.randint(1, 4)
        c = rand_cost(rng, d, n)
        x = rand_binary(rng, d, n)
        cleaned = clean(c, x)
        prof = potential_profit(c, x)
        assert shifted_value(c, cleaned) == prof.total
        for ri, rj in zip(cleaned, x):
            assert all(a <= b for a, b in zip(ri, rj))


def test_clean_zeroes_highest_index_columns_first():
    c = matrix([[1, -2, -2]])
    x = matrix([[1, 1, 1]])
    assert clean(c, x) == ((1, 0, 0),)


# --- constant-ratio algorithm for shifted costs


def test_constant_shifted_solves_worked_example():
    sys_ = ExplicitSystem(((0, 0), (0, 1), (1, 0)))
    c = matrix([[3, 1], [2, 2]])
    res = constant_shifted(sys_, c, 2)
    assert res.value == 5
    assert res.bound == Fraction(3, 4)
    opt, _ = brute_force_sco(sys_, c, 2)
    assert opt == 5


def test_constant_shifted_n1_is_exact():
    rng = random.Random(2)
    for _ in range(30):
        d = rng.randint(1, 6)
        sys_ = rand_closed_system(rng, d, 16)
        c = rand_cost(rng, d, 1, shifted=True)
        res = constant_shifted(sys_, c, 1)
        opt, _ = brute_force_sco(sys_, c, 1)
        assert res.value == opt
        assert res.bound == 1


def test_constant_shifted_rejects_unshifted_costs():
    sys_ = ExplicitSystem.closed([(1, 1)])
    with pytest.raises(NotShiftedError) as err:
        constant_shifted(sys_, matrix([[1, 0], [0, 2]]), 2)
    assert err.value.row == 1


def test_constant_shifted_ratio_on_random_instances():
    rng = random.Random(3)
    for _ in range(200):
        d = rng.randint(1, 6)
        n = rng.choice((2, 3))
        sys_ = rand_closed_system(rng, d, 14)
        c = rand_cost(rng, d, n, shifted=True)
        res = constant_shifted(sys_, c, n)
        opt, _ = brute_force_sco(sys_, c, n)
        assert meets(res.value, res.bound, opt)
        assert res.value == shifted_value(c, res.solution)
        for col in zip(*res.solution) if d else ():
            assert sys_.contains(tuple(col))


def test_constant_shifted_empty_ground_set():
    sys_ = ExplicitSystem(((),))
    res = constant_shifted(sys_, (), 2)
    assert res.value == 0


@st.composite
def shifted_instances(draw):
    sys_ = draw(systems())
    n = draw(st.integers(1, 5))
    hi = draw(st.sampled_from((1, 8)))  # hi = 1: mostly zero and negative costs
    return sys_, draw(costs(sys_.ground_size(), n, -5, hi, shifted=True)), n


_NONCLOSED = ExplicitSystem(((1, 1, 0), (0, 1, 1), (0, 0, 1)))


def not_closed(sys_) -> bool:
    return isinstance(sys_, ExplicitSystem) and not is_downward_closed(sys_.vectors)


@needs_scipy
@settings(max_examples=600, deadline=None)
@given(shifted_instances())
@example((ExplicitSystem(((),)), (), 1))
@example((ExplicitSystem(((),)), (), 3))
@example((UniformMatroid(0, 0), (), 2))
@example((_NONCLOSED, ((2,), (0,), (-1,)), 1))
@example((_NONCLOSED, ((0, 0, 0), (0, 0, -1), (-1, -2, -3)), 3))
@example((_NONCLOSED, ((3, 0, 0), (2, 2, -1), (1, 1, 1)), 3))
@example((UniformMatroid(3, 2), ((0, 0), (-1, -4), (5, 0)), 2))
def test_constant_shifted_matches_lift_reference(instance):
    sys_, c, n = instance
    if not_closed(sys_):
        with pytest.raises(NotDownwardClosedError):
            constant_shifted(sys_, c, n)
        return
    assert constant_shifted(sys_, c, n) == constant_shifted_by_lift(sys_, c, n)


# Members listed with (1, 1) first: with costs ((2, 1), (0, 0)) the first
# round selects element 2 at weight 0 while it is uncovered, and the second
# selects it again at weight 0 after its one positive cell is used.
_ZERO_PICK = ExplicitSystem(((1, 1), (1, 0), (0, 1), (0, 0)))


@needs_scipy
@settings(max_examples=800, deadline=None)
@given(shifted_instances())
@example((_ZERO_PICK, ((2, 1), (0, 0)), 2))
@example((_ZERO_PICK, ((2, 1), (0, -1)), 2))
@example((_ZERO_PICK, ((3,), (0,)), 1))
@example((UniformMatroid(3, 0), ((4, 2), (1, 1), (0, 0)), 2))
def test_constant_shifted_equals_round_rebuild_reference(instance):
    sys_, c, n = instance
    if not_closed(sys_):
        return
    assert constant_shifted(sys_, c, n) == constant_shifted_by_round_rebuild(sys_, c, n)


@st.composite
def dup_weights(draw):
    sys_ = draw(systems().filter(lambda s: not not_closed(s)))
    d = sys_.ground_size()
    return sys_, draw(st.lists(st.integers(0, 8), min_size=d, max_size=d)), draw(st.integers(1, 5))


@needs_scipy
@settings(max_examples=400, deadline=None)
@given(dup_weights())
@example((ExplicitSystem(((),)), [], 3))
@example((UniformMatroid(0, 0), [], 1))
@example((UniformMatroid(3, 2), [4, 0, 7], 1))
@example((_ZERO_PICK, [0, 2], 2))
def test_constant_shifted_on_dup_rows_equals_greedy_dup(case):
    # DUP is the shifted problem with cost rows (w_i, 0, ..., 0).
    sys_, w, k = case
    res = constant_shifted(sys_, tuple((wi,) + (0,) * (k - 1) for wi in w), k)
    sel = greedy_dup(sys_, k, w)
    assert res.value == sel.value
    assert res.solution == tuple(zip(*sel.columns))


@needs_scipy
@settings(max_examples=300, deadline=None)
@given(shifted_instances())
def test_constant_shifted_calls_the_oracle_at_most_n_times(instance):
    sys_, c, n = instance
    oracle = CountingOracle(sys_)
    constant_shifted(oracle, c, n)
    answers = oracle.answers
    assert 1 <= len(answers) <= n
    # only the last answer may be all-zero: the rounds stop there
    assert all(any(s) for s in answers[:-1])
    assert len(answers) == n or not any(answers[-1])


def test_constant_shifted_stops_at_the_first_all_zero_answer():
    # both elements are covered in round 1; no positive cell is left after it
    oracle = CountingOracle(UniformMatroid(2, 2))
    res = constant_shifted(oracle, matrix([[5, 0, 0, 0], [3, -1, -1, -1]]), 4)
    assert oracle.answers == [(1, 1), (0, 0)]
    assert res.solution == ((1, 0, 0, 0), (1, 0, 0, 0))
    assert res.value == 8


# --- the leveled algorithm for general costs


def test_log_approx_n1_is_exact():
    rng = random.Random(4)
    for _ in range(30):
        d = rng.randint(1, 6)
        sys_ = rand_closed_system(rng, d, 16)
        c = rand_cost(rng, d, 1)
        res = log_approx(sys_, c, 1)
        opt, _ = brute_force_sco(sys_, c, 1)
        assert res.value == opt


def test_log_approx_n2_runs_the_two_documented_levels():
    rng = random.Random(5)
    for _ in range(30):
        d = rng.randint(1, 6)
        sys_ = rand_closed_system(rng, d, 14)
        c = rand_cost(rng, d, 2)
        res = log_approx(sys_, c, 2)
        lvl0 = level_candidate(sys_, c, 2, 2, 1)[1]
        lvl1 = level_candidate(sys_, c, 2, 1, 2)[1]
        assert res.value == max(lvl0, lvl1)
        assert res.bound == ratio_bound("general_log", 2)


def test_log_approx_ratio_on_random_instances():
    rng = random.Random(6)
    for _ in range(150):
        d = rng.randint(1, 6)
        n = rng.randint(2, 5)
        sys_ = rand_closed_system(rng, d, 10)
        c = rand_cost(rng, d, n)
        res = log_approx(sys_, c, n)
        opt, _ = brute_force_sco(sys_, c, n)
        assert meets(res.value, res.bound, opt)
        assert res.value == shifted_value(c, res.solution)


@st.composite
def levels(draw):
    """A system of any kind (explicit ones need not be closed), costs from
    -4 to 4 (many zero), and a level (k, copies) with k * copies <= n."""
    sys_ = draw(systems())
    n = draw(st.integers(1, 6))
    copies = draw(st.integers(1, n))
    k = draw(st.integers(1, n // copies))
    return sys_, draw(costs(sys_.ground_size(), n, -4, 4)), n, k, copies


@needs_scipy
@settings(max_examples=800, deadline=None)
@given(levels())
@example((ExplicitSystem(((),)), (), 3, 1, 2))
@example((UniformMatroid(2, 1), ((3,), (-1,)), 1, 1, 1))
@example((_NONCLOSED, ((0, 0, 0), (0, 0, -1), (-1, 2, 3)), 3, 1, 2))
@example((_NONCLOSED, ((0, 5, 0, 0), (-1, 0, 1, 0), (2, -3, 0, 0)), 4, 2, 1))
@example((ExplicitSystem(((1, 0), (0, 1), (1, 1))), ((0, 0, 0, 0, 0), (-2, 1, 1, 0, 0)), 5, 2, 2))
def test_level_candidate_matches_expand_and_clean(level):
    sys_, c, n, k, copies = level
    assert level_candidate(sys_, c, n, k, copies) == level_candidate_by_cleaning(
        sys_, c, n, k, copies
    )


def test_level_candidate_keeps_weight_zero_selections_empty():
    # the explicit system can only select element 1 together with element 2,
    # whose best prefix within two copies is empty
    sys_ = ExplicitSystem(((0, 0), (1, 1)))
    sol, value = level_candidate(sys_, ((4, 1, 0), (-1, -1, 0)), 3, 1, 2)
    assert sol == ((1, 1, 0), (0, 0, 0))
    assert value == 5


def test_level_candidate_with_a_plugged_in_solver(monkeypatch):
    sys_ = UniformMatroid(3, 3)
    c = ((2, 1, 0, 0), (3, 0, 0, 0), (1, -1, 0, 0))

    def plug(columns, value):
        monkeypatch.setattr(
            sco, "greedy_dup", lambda oracle, k, w: OrthogonalSelection(columns, value)
        )

    plug(((1, 0, 1), (0, 1, 0)), 7)
    sol, value = level_candidate(sys_, c, 4, 2, 2)
    assert sol == ((1, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0))
    assert value == 7
    plug(((1, 0, 0), (1, 1, 0)), 6)
    with pytest.raises(ValueError, match="^DUP columns share element 1$"):
        level_candidate(sys_, c, 4, 2, 2)


@pytest.mark.parametrize(
    "solve, n",
    [(constant_shifted, 2), (log_approx, 3), (small_n_approx, 2), (small_n_approx, 5)],
)
def test_approximations_reject_non_closed_explicit_systems(solve, n):
    c = ((0,) * n,) * 3
    with pytest.raises(NotDownwardClosedError) as info:
        solve(_NONCLOSED, c, n)
    assert str(info.value) == (
        f"system is not downward closed; {solve.__name__} needs a downward-closed system"
    )
    # the closure check comes first; the downward closure of the same
    # vectors is accepted, whether built by closed() or listed
    closed = ExplicitSystem.closed(_NONCLOSED.vectors)
    if n <= 4:
        solve(closed, c, n)
        solve(ExplicitSystem(closed.vectors), c, n)


@pytest.mark.parametrize("solve", [constant_shifted, log_approx, small_n_approx])
def test_approximations_reject_lifts_of_non_closed_systems(solve):
    # The 2-lift of {00, 11} is not closed because its base is not; the lift
    # of the base's closure is.
    c = ((0,) * 4,) * 4
    with pytest.raises(NotDownwardClosedError) as info:
        solve(LiftedOracle(ExplicitSystem(((0, 0), (1, 1))), 2), c, 4)
    # The message names no kind of system: the lift is not an explicit one.
    assert str(info.value) == (
        f"system is not downward closed; {solve.__name__} needs a downward-closed system"
    )
    solve(LiftedOracle(ExplicitSystem.closed([(1, 1)]), 2), c, 4)


def test_closure_is_worked_out_once_per_explicit_system(monkeypatch):
    calls = []
    real = oracles._tree
    monkeypatch.setattr(oracles, "_tree", lambda *args: calls.append(args) or real(*args))
    sys_ = ExplicitSystem(((0, 0), (1, 0), (0, 1)))
    c = ((2, 1), (1, 0))
    for _ in range(3):
        for solve in (constant_shifted, log_approx, small_n_approx):
            solve(sys_, c, 2)
    constant_shifted(LiftedOracle(sys_, 2), ((1, 0),) * 4, 2)
    assert len(calls) == 1


# --- small-n variants


def test_small_n_levels_and_bounds():
    assert ratio_bound("small_n", 2) == Fraction(3, 5)
    assert ratio_bound("small_n", 3) == Fraction(19, 42)
    assert ratio_bound("small_n", 4) == Fraction(2625, 6692)


def test_small_n_rejects_other_n():
    sys_ = ExplicitSystem.closed([(1,)])
    with pytest.raises(ValueError):
        small_n_approx(sys_, matrix([[1] * 5]), 5)


def test_small_n_bound_matches_lookup_and_dominates_levels():
    rng = random.Random(7)
    levels = {2: ((2, 1), (1, 2)), 3: ((3, 1), (1, 3)), 4: ((4, 1), (2, 2), (1, 4))}
    for _ in range(60):
        d = rng.randint(1, 6)
        n = rng.choice((2, 3, 4))
        sys_ = rand_closed_system(rng, d, 12)
        c = rand_cost(rng, d, n)
        res = small_n_approx(sys_, c, n)
        assert res.bound == ratio_bound("small_n", n)
        per_level = [level_candidate(sys_, c, n, k, t)[1] for k, t in levels[n]]
        assert res.value == max(per_level)


def test_small_n_ratio_on_random_instances():
    rng = random.Random(8)
    for _ in range(120):
        d = rng.randint(1, 6)
        n = rng.choice((2, 3, 4))
        sys_ = rand_closed_system(rng, d, 12)
        c = rand_cost(rng, d, n)
        res = small_n_approx(sys_, c, n)
        opt, _ = brute_force_sco(sys_, c, n)
        assert meets(res.value, res.bound, opt)


# --- proven-bound lookup


def test_ratio_bound_shifted_constant_matches_greedy():
    assert ratio_bound("shifted_constant", 2) == Fraction(3, 4)
    assert ratio_bound("shifted_constant", 4) == Fraction(175, 256)


def test_ratio_bound_log_formula():
    assert ratio_bound("general_log", 2) == Fraction(1, 16)
    assert ratio_bound("general_log", 1) == Fraction(1, 8)
    assert ratio_bound("general_log", 4) == Fraction(175, 256) / 16


def test_ratio_bound_rejects_unknown():
    with pytest.raises(ValueError):
        ratio_bound("small_n", 5)
    with pytest.raises(ValueError):
        ratio_bound("nonsense", 2)
    with pytest.raises(ValueError):
        ratio_bound("general_log", 0)


@pytest.mark.parametrize(
    "solve, n_error",
    [
        (constant_shifted, "n must be >= 1"),
        (log_approx, "n must be >= 1"),
        (small_n_approx, "small-n algorithm supports n in"),
        (lambda oracle, c, n: lift_maximize(oracle, n, c), "n must be >= 1"),
    ],
)
def test_cost_shape_errors_in_order(solve, n_error):
    sys_ = UniformMatroid(2, 1)
    with pytest.raises(ValueError, match=n_error):
        solve(sys_, ((0, 0, 0),), 0)
    with pytest.raises(ValueError, match="^cost matrix has 3 columns, expected 2$"):
        solve(sys_, ((0, 0, 0),), 2)
    with pytest.raises(ValueError, match="^cost matrix has 1 rows, oracle ground size 2$"):
        solve(sys_, ((0, 0),), 2)


def test_shifted_constant_bound_stays_above_limit():
    # 1 - (1 - 1/n)^n decreases towards 1 - 1/e > 0.6321
    for n in range(1, 10**6 + 1):
        if 1.0 - (1.0 - 1.0 / n) ** n <= 0.6321:
            raise AssertionError(f"bound dipped at n={n}")


def test_ceil_log2_exact():
    for n in range(1, 200):
        assert ceil_log2(n) == math.ceil(math.log2(n)) or 2 ** ceil_log2(n) >= n > 2 ** (ceil_log2(n) - 1)


# --- separable convex objectives


def test_convex_identical_squares():
    oracle = UniformMatroid(2, 1)
    tables = ((0, 1, 4, 9), (0, 1, 4, 9))
    s, value = convex_identical(oracle, tables, 3)
    assert value == 9
    assert s == (1, 0)


def test_convex_identical_constant_tables():
    oracle = UniformMatroid(3, 2)
    tables = ((7, 7, 7),) * 3
    s, value = convex_identical(oracle, tables, 2)
    assert value == 21


def test_convex_identical_rejects_nonconvex():
    oracle = UniformMatroid(1, 1)
    with pytest.raises(ValueError):
        convex_identical(oracle, ((0, 5, 6),), 2)


def test_convex_identical_matches_generalized_brute_force():
    rng = random.Random(9)
    for _ in range(60):
        d = rng.randint(1, 5)
        n = rng.randint(1, 4)
        sys_ = rand_closed_system(rng, d, 12)
        tables = rand_convex_tables(rng, d, n)
        _, value = convex_identical(sys_, tables, n)
        assert value == brute_force_generalized(sys_, tables, n)


# --- the lift/partition identity on tiny systems


def test_partition_identity_on_tiny_systems():
    rng = random.Random(10)
    for _ in range(6):
        d = rng.randint(1, 3)
        universe = list(product((0, 1), repeat=d))
        vectors = rng.sample(universe, rng.randint(1, len(universe)))
        sys_ = ExplicitSystem(tuple(vectors))
        assert equivalents_of_power(sys_, 2) == disjoint_union_of_lift(sys_, 2)


def test_approx_result_invariants():
    rng = random.Random(11)
    sys_ = rand_closed_system(rng, 5, 12)
    c = rand_cost(rng, 5, 3, shifted=True)
    for res in (
        constant_shifted(sys_, c, 3),
        log_approx(sys_, c, 3),
        small_n_approx(sys_, c, 3),
    ):
        assert isinstance(res, ApproxResult)
        assert res.value == shifted_value(c, res.solution)
        for col in zip(*res.solution):
            assert sys_.contains(tuple(col))
