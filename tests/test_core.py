import random
from types import ModuleType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftopt
from helpers import (
    first_unshifted_row_by_pairs,
    matrix_by_int_per_entry,
    rand_binary,
    rand_cost,
)
from shiftopt import (
    congestion,
    equivalent,
    frobenius,
    from_columns,
    columns,
    matrix,
    shift,
    shifted_value,
)
from shiftopt.core import first_unshifted_row

bits = st.integers(min_value=0, max_value=1)


@st.composite
def binary_matrices(draw, max_d=5, max_n=5):
    d = draw(st.integers(1, max_d))
    n = draw(st.integers(1, max_n))
    return tuple(tuple(draw(bits) for _ in range(n)) for _ in range(d))


@st.composite
def cost_binary_pairs(draw, max_d=5, max_n=4):
    d = draw(st.integers(1, max_d))
    n = draw(st.integers(1, max_n))
    c = tuple(tuple(draw(st.integers(-9, 9)) for _ in range(n)) for _ in range(d))
    x = tuple(tuple(draw(bits) for _ in range(n)) for _ in range(d))
    return c, x


def test_shift_sorts_rows_nonincreasing():
    assert shift(matrix([[0, 1, 1], [1, 0, 0]])) == ((1, 1, 0), (1, 0, 0))


def test_shift_fixes_constant_rows():
    x = matrix([[1, 1, 1], [0, 0, 0]])
    assert shift(x) == x


def test_shift_idempotent_on_random_matrices():
    rng = random.Random(7)
    for _ in range(100):
        x = rand_binary(rng, 4, 3)
        assert shift(shift(x)) == shift(x)


@given(binary_matrices())
def test_shift_preserves_row_multisets(x):
    assert equivalent(x, shift(x))


def test_equivalent_row_swap():
    assert equivalent(matrix([[0, 1], [1, 1]]), matrix([[1, 0], [1, 1]]))


def test_equivalent_detects_differing_row_sum():
    assert not equivalent(matrix([[0, 1], [1, 1]]), matrix([[1, 1], [1, 1]]))


def test_equivalent_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        equivalent(matrix([[0, 1]]), matrix([[0, 1], [1, 0]]))


def test_congestion_row_sums():
    assert congestion(matrix([[0, 1], [1, 1]])) == (1, 2)


def test_congestion_all_zero():
    assert congestion(matrix([[0, 0, 0]] * 4)) == (0, 0, 0, 0)


@given(binary_matrices())
def test_congestion_invariant_under_shift(x):
    assert congestion(x) == congestion(shift(x))


def test_shifted_value_definition():
    c = matrix([[2, 1], [3, -1]])
    x = from_columns([(1, 1), (1, 0)])
    assert shifted_value(c, x) == 6


def test_shifted_value_zero_solution():
    c = matrix([[5, -3], [2, 2]])
    assert shifted_value(c, matrix([[0, 0], [0, 0]])) == 0


def test_shifted_value_single_row_paper_costs():
    # first column free, later columns cost one each
    assert shifted_value(matrix([[0, -1]]), matrix([[1, 1]])) == -1


def test_frobenius_entrywise():
    assert frobenius(matrix([[2, 1]]), matrix([[0, 1]])) == 1


@given(cost_binary_pairs())
def test_frobenius_of_shift_equals_shifted_value(pair):
    c, x = pair
    assert frobenius(c, shift(x)) == shifted_value(c, x)


def test_shifting_never_hurts_for_shifted_costs():
    rng = random.Random(11)
    for _ in range(200):
        c = rand_cost(rng, 4, 3, shifted=True)
        x = rand_binary(rng, 4, 3)
        assert frobenius(c, shift(x)) >= frobenius(c, x)


@given(cost_binary_pairs())
def test_shifted_value_invariant_under_equivalence(pair):
    c, x = pair
    assert shifted_value(c, shift(x)) == shifted_value(c, x)


def test_dimension_mismatch_reported():
    with pytest.raises(ValueError):
        shifted_value(matrix([[1, 2]]), matrix([[1], [0]]))
    with pytest.raises(ValueError):
        frobenius(matrix([[1, 2]]), matrix([[1, 0], [0, 0]]))


def test_empty_ground_set_evaluates_to_zero():
    assert shifted_value((), ()) == 0
    assert frobenius((), ()) == 0
    assert congestion(()) == ()


def test_is_shifted():
    assert first_unshifted_row(matrix([[3, 1], [0, -2]])) is None
    assert first_unshifted_row(matrix([[3, 1], [0, 2]])) == 1


def test_columns_round_trip():
    x = matrix([[1, 0], [0, 1], [1, 1]])
    assert from_columns(columns(x)) == x


@settings(max_examples=50)
@given(binary_matrices(max_d=4, max_n=3))
def test_shift_is_descending_sort_per_row(x):
    for row in shift(x):
        assert all(row[j] >= row[j + 1] for j in range(len(row) - 1))


class _Int(int):
    pass


# Entries that core.matrix must convert: bools, floats, an int subclass.
_entries = (
    st.integers(-(2**70), 2**70)
    | st.booleans()
    | st.floats(-1e6, 1e6, allow_nan=False)
    | st.integers(-9, 9).map(_Int)
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.lists(_entries, max_size=4).map(tuple) | st.lists(_entries, max_size=4),
        max_size=5,
    )
)
def test_matrix_equals_int_per_entry_reference(rows):
    try:
        expected = matrix_by_int_per_entry(rows)
    except ValueError as err:
        with pytest.raises(ValueError) as raised:
            matrix(rows)
        assert str(raised.value) == str(err)
        return
    got = matrix(rows)
    assert got == expected
    assert all(type(row) is tuple for row in got)
    assert all(type(v) is int for row in got for v in row)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-2, 2), max_size=5).map(tuple)
        | st.lists(st.integers(-2, 2), max_size=5)
        | st.integers(0, 5).map(lambda k: (7,) * k),
        max_size=6,
    )
)
def test_first_unshifted_row_equals_pairwise_reference(c):
    assert first_unshifted_row(c) == first_unshifted_row_by_pairs(c)


def test_public_names_are_the_ones_the_package_binds():
    names = shiftopt.__all__
    assert names == sorted(set(names))
    for name in names:
        getattr(shiftopt, name)
    bound = {
        name
        for name, value in vars(shiftopt).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(names) == bound
    # Only tests used these: two are references in tests/helpers.py, and
    # first_unshifted_row(c) is None does the third's work.
    assert not {"LiftedOracle", "orthogonalize", "is_shifted"} & set(names)
