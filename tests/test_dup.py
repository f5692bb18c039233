import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import greedy_dup_by_stacking, rand_closed_system, systems
from shiftopt import (
    ExplicitSystem,
    UniformMatroid,
    brute_force_dup,
    greedy_dup,
    greedy_ratio,
    matrix,
    orthogonalize,
)
from shiftopt.dup import GREEDY_DUP


def test_greedy_covers_both_elements():
    sys_ = ExplicitSystem(((0, 0), (0, 1), (1, 0)))
    sel = greedy_dup(sys_, 2, (3, 5))
    assert sel.value == 8
    assert set(sel.columns) == {(0, 1), (1, 0)}
    opt, _ = brute_force_dup(sys_, 2, (3, 5))
    assert opt == 8


def test_single_round_is_exact():
    rng = random.Random(2)
    for _ in range(40):
        d = rng.randint(1, 6)
        sys_ = rand_closed_system(rng, d, 20)
        w = [rng.randint(-4, 9) for _ in range(d)]
        sel = greedy_dup(sys_, 1, w)
        opt, _ = brute_force_dup(sys_, 1, w)
        assert sel.value == opt


def test_zero_weights_give_zero_value():
    sys_ = ExplicitSystem.closed([(1, 1)])
    sel = greedy_dup(sys_, 3, (0, 0))
    assert sel.value == 0
    assert len(sel.columns) == 3


def test_orthogonalize_keeps_leftmost_one():
    assert orthogonalize(matrix([[1, 1], [0, 1]])) == ((1, 0), (0, 1))


def test_orthogonalize_fixes_orthogonal_input():
    x = matrix([[1, 0], [0, 1], [0, 0]])
    assert orthogonalize(x) == x


def test_orthogonalize_preserves_covered_sets():
    rng = random.Random(3)
    for _ in range(100):
        x = tuple(
            tuple(rng.randint(0, 1) for _ in range(4)) for _ in range(5)
        )
        y = orthogonalize(x)
        for rx, ry in zip(x, y):
            assert (sum(rx) >= 1) == (sum(ry) == 1)
            assert sum(ry) <= 1


def test_greedy_ratio_values():
    assert greedy_ratio(1) == 1
    assert greedy_ratio(2) == Fraction(3, 4)
    assert greedy_ratio(3) == Fraction(19, 27)
    assert greedy_ratio(4) == Fraction(175, 256)


def test_greedy_output_disjoint_and_feasible():
    rng = random.Random(4)
    for _ in range(50):
        d = rng.randint(1, 7)
        sys_ = rand_closed_system(rng, d, 24)
        k = rng.randint(1, 4)
        w = [rng.randint(-5, 9) for _ in range(d)]
        sel = greedy_dup(sys_, k, w)
        assert len(sel.columns) == k
        for i in range(d):
            assert sum(col[i] for col in sel.columns) <= 1
        for col in sel.columns:
            assert sys_.contains(col)
        covered = [i for i in range(d) if any(col[i] for col in sel.columns)]
        assert sel.value == sum(w[i] for i in covered)
        assert all(w[i] >= 0 for i in covered)


def test_greedy_meets_proven_ratio_against_brute_force():
    rng = random.Random(5)
    for _ in range(60):
        d = rng.randint(1, 7)
        sys_ = rand_closed_system(rng, d, 20)
        k = rng.randint(1, 4)
        w = [rng.randint(-5, 9) for _ in range(d)]
        sel = greedy_dup(sys_, k, w)
        opt, _ = brute_force_dup(sys_, k, w)
        assert sel.value * greedy_ratio(k).denominator >= greedy_ratio(k).numerator * opt


def test_greedy_value_nondecreasing_in_k():
    rng = random.Random(6)
    for _ in range(30):
        d = rng.randint(2, 7)
        sys_ = rand_closed_system(rng, d, 20)
        w = [rng.randint(-3, 9) for _ in range(d)]
        values = [greedy_dup(sys_, k, w).value for k in range(1, 5)]
        assert values == sorted(values)


def test_greedy_uses_one_oracle_call_per_round():
    calls = []

    class Counting(UniformMatroid):
        def maximize(self, w):
            calls.append(tuple(w))
            return super().maximize(w)

    oracle = Counting(4, 1)
    greedy_dup(oracle, 3, (5, 4, 3, 2))
    assert len(calls) == 3
    # covered elements are zeroed out for later rounds
    assert calls[1][0] == 0


@st.composite
def dup_instances(draw):
    sys_ = draw(systems())
    w = draw(st.lists(st.integers(-5, 8), min_size=sys_.ground_size(),
                      max_size=sys_.ground_size()))
    return sys_, draw(st.integers(1, 5)), w


@settings(max_examples=400, deadline=None)
@given(dup_instances())
@example((ExplicitSystem(((),)), 1, []))
@example((ExplicitSystem(((),)), 3, []))
@example((ExplicitSystem(((1, 1), (0, 1))), 3, [0, -2]))
@example((ExplicitSystem(((1, 0, 1), (0, 1, 1))), 2, [-1, 0, 4]))
@example((UniformMatroid(3, 3), 2, [0, 0, 0]))
def test_greedy_dup_matches_stacking_reference(instance):
    sys_, k, w = instance
    assert greedy_dup(sys_, k, w) == greedy_dup_by_stacking(sys_, k, w)


def test_explicit_system_may_cover_nonpositive_weights():
    # no member avoids element 2, so the greedy covers it and counts its weight
    sys_ = ExplicitSystem(((0, 1), (1, 1)))
    sel = greedy_dup(sys_, 2, (3, -2))
    assert sel.columns == ((1, 1), (0, 0))
    assert sel.value == 1


def test_invalid_arguments():
    sys_ = ExplicitSystem.closed([(1,)])
    with pytest.raises(ValueError):
        greedy_dup(sys_, 0, (1,))
    with pytest.raises(ValueError):
        greedy_dup(sys_, 1, (1, 2))


def test_shipped_solver_bundles_greedy():
    assert GREEDY_DUP.solve is greedy_dup
    assert GREEDY_DUP.ratio is greedy_ratio
