"""Approximation algorithms for shifted combinatorial optimization.

Given an independence system S presented by a linear-optimization oracle
and a d x n integer cost matrix c, the task is to maximize c . shift(x)
over matrices x with all columns in S.

Three algorithms are provided, all deterministic:

* constant_shifted -- for costs with nonincreasing rows; one greedy DUP run
  over the n-lift of S, kept as one congestion counter per element (at most
  n oracle calls) in the round loop greedy_dup runs, gives ratio
  1 - (1 - 1/n)^n >= 1 - 1/e.
* log_approx -- for arbitrary costs; one duplication level per power of two
  up to n, each level solving a DUP instance, expanding, and cleaning (the
  cleaned level is read off the round that first covered each element and
  its best prefix length); the best level is within ratio
  beta / (4 ceil(log2 n) + 8) of the optimum.
* small_n_approx -- sharper level sets for n in {2, 3, 4} with proven
  ratios 3/5, 19/42 and 2625/6692.

All three need a downward-closed system and raise NotDownwardClosedError,
before any oracle call, on a system whose downward_closed attribute is
false (an explicit list that is not closed, or a lift of one).

convex_identical handles the separable-convex generalization, where one
oracle call is exact because some optimal solution repeats a single column.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, repeat

from .core import (
    Matrix,
    Vector,
    _check_same_shape,
    check_cost_shape,
    check_value_tables,
    congestion,
    first_unshifted_row,
)
from .dup import _lift_greedy, greedy_dup, greedy_ratio
from .oracles import IndependenceOracle


class NotShiftedError(ValueError):
    """Raised when an algorithm requiring nonincreasing cost rows gets other input."""

    def __init__(self, row: int) -> None:
        self.row = row
        super().__init__(f"cost matrix is not shifted: row {row + 1} increases")


class NotDownwardClosedError(ValueError):
    """Raised when an algorithm that needs a downward-closed system gets a
    system that is not downward closed."""

    def __init__(self, algorithm: str) -> None:
        super().__init__(
            f"system is not downward closed; {algorithm} needs a downward-closed system"
        )


def _require_closed(oracle: IndependenceOracle, algorithm: str) -> None:
    if not oracle.downward_closed:
        raise NotDownwardClosedError(algorithm)


@dataclass(frozen=True)
class PotentialProfile:
    """Per element: best prefix profit reachable within the current congestion.

    profits[i] is the maximum over lengths 0..m(i, x) of the sum of the
    first entries of cost row i (the empty prefix counts as 0, so profits
    are never negative).  retained[i] is the smallest maximizing length.
    """

    profits: tuple[int, ...]
    retained: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.profits)


@dataclass(frozen=True)
class ApproxResult:
    """A feasible solution, its exact objective value, the level (duplication
    round) that produced it when applicable, and the proven ratio bound."""

    solution: Matrix
    value: int
    level: int | None
    bound: Fraction


def ceil_log2(n: int) -> int:
    """Exact ceiling of log2(n) for n >= 1 (no floating point)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (n - 1).bit_length()


def _best_prefixes(c: Matrix, uses: Iterable[int]) -> tuple[list[int], list[int]]:
    # Per row: the best sum of its first 0..uses entries (>= 0: the empty
    # prefix counts, so the greedy never sees negative weights) and the
    # smallest length that reaches it.
    best, length = [], []
    for row, u in zip(c, uses):
        sums = list(accumulate(row[:u], initial=0))
        top = max(sums)
        best.append(top)
        length.append(sums.index(top))
    return best, length


def potential_profit(c: Matrix, x: Matrix) -> PotentialProfile:
    """Best prefix profit and its smallest realizing congestion, per row."""
    _check_same_shape(c, x)
    profits, retained = _best_prefixes(c, congestion(x))
    return PotentialProfile(tuple(profits), tuple(retained))


def clean(c: Matrix, x: Matrix) -> Matrix:
    """Drop surplus ones so each row's congestion hits its best prefix length.

    Removes exactly m(i, x) - p(i) ones from row i, zeroing the ones in the
    highest-index columns first.  The result is entrywise <= x (so columns
    stay feasible over a downward monotone system) and its objective equals
    the total potential profit of x.
    """
    prof = potential_profit(c, x)
    out = []
    for i, row in enumerate(x):
        remove = sum(row) - prof.retained[i]
        if remove == 0:
            out.append(row)
            continue
        new = list(row)
        for j in reversed(range(len(new))):
            if remove == 0:
                break
            if new[j]:
                new[j] = 0
                remove -= 1
        out.append(tuple(new))
    return tuple(out)


def level_candidate(
    oracle: IndependenceOracle,
    c: Matrix,
    n: int,
    k: int,
    copies: int,
) -> tuple[Matrix, int]:
    """One duplication level: solve DUP with k columns, expand each returned
    column into `copies` duplicates, pad with zero columns to width n, then
    clean.  Returns the cleaned solution and its objective value.

    The DUP columns are disjoint, so the cleaned matrix is fixed by the
    column r that holds each element and the element's kept length p (its
    smallest best prefix within `copies` uses): the row of a covered
    element has ones in columns r*copies .. r*copies+p-1, every other row
    is zero, and the value is the DUP value, the sum of the level weights
    of the covered elements.  This is the matrix and value that expanding,
    padding, clean() and shifted_value() give, built without them.  DUP
    columns that share an element raise ValueError.

    A level with k = 1 is one oracle call, which the greedy solves exactly.
    """
    if not (k >= 1 and copies >= 1 and k * copies <= n):
        raise ValueError(f"invalid level: k={k}, copies={copies}, n={n}")
    check_cost_shape(c, n, oracle.ground_size())
    w, keep = _best_prefixes(c, repeat(copies))
    sel = greedy_dup(oracle, k, w)
    zero = (0,) * n
    rows: list[Vector | None] = [None] * len(c)
    for r, col in enumerate(sel.columns):
        start = r * copies
        for i in compress(range(len(col)), col):
            if rows[i] is not None:
                raise ValueError(f"DUP columns share element {i + 1}")
            p = keep[i]
            rows[i] = zero[:start] + (1,) * p + zero[start + p:] if p else zero
    return tuple(zero if row is None else row for row in rows), sel.value


def constant_shifted(oracle: IndependenceOracle, c: Matrix, n: int) -> ApproxResult:
    """Constant-ratio algorithm for shifted (nonincreasing-row) costs.

    The greedy DUP over the n-lift of S: the DUP module's lift greedy with
    cost row i as the cells of element i, over n rounds.  With
    nonincreasing rows the covered lift cells of row i are always its
    first m[i] cells, so one congestion counter per element stands in for
    the (d*n)-element lift.  Output column r holds the elements round r
    covered; rounds stop at the first all-zero answer, so at most n oracle
    calls are made.  The value is at least 1 - (1 - 1/n)^n >= 1 - 1/e times
    the optimum.
    Raises NotDownwardClosedError on a system that is not downward closed.
    """
    _require_closed(oracle, "constant_shifted")
    check_cost_shape(c, n, oracle.ground_size())
    bad = first_unshifted_row(c)
    if bad is not None:
        raise NotShiftedError(bad)
    cols, value = _lift_greedy(oracle, [row[0] for row in c], tuple(zip(*c)), n)
    return ApproxResult(tuple(zip(*cols)), value, None, greedy_ratio(n))


def _best_level(
    oracle: IndependenceOracle,
    c: Matrix,
    n: int,
    levels: Sequence[tuple[int, int]],
    bound: Fraction,
) -> ApproxResult:
    # Runs each (k, copies) level; the first level of largest value wins.
    # The first level_candidate call checks the cost shape.
    best: tuple[Matrix, int, int] | None = None
    for level, (k, copies) in enumerate(levels):
        sol, val = level_candidate(oracle, c, n, k, copies)
        if best is None or val > best[1]:
            best = (sol, val, level)
    assert best is not None
    return ApproxResult(best[0], best[1], best[2], bound)


def log_approx(oracle: IndependenceOracle, c: Matrix, n: int) -> ApproxResult:
    """Logarithmic-ratio algorithm for arbitrary costs.

    Level l (0 <= l <= ceil(log2 n)) solves DUP with k = floor(n / 2^l)
    columns (k = 1 past log2 n) and expands each into min(2^l, n) copies;
    weights give each element its best profit from at most that many
    copies.  The best cleaned level is returned with ratio
    greedy_ratio(n) / (4 ceil(log2 n) + 8).  Raises NotDownwardClosedError
    on a system that is not downward closed.
    """
    _require_closed(oracle, "log_approx")
    levels = [(max(n >> l, 1), min(1 << l, n)) for l in range(ceil_log2(n) + 1)]
    return _best_level(oracle, c, n, levels, _log_bound(n))


_SMALL_N_LEVELS: dict[int, tuple[tuple[int, int], ...]] = {
    2: ((2, 1), (1, 2)),
    3: ((3, 1), (1, 3)),
    4: ((4, 1), (2, 2), (1, 4)),
}


def _log_bound(n: int, ratio: Callable[[int], Fraction] = greedy_ratio) -> Fraction:
    return ratio(n) / (4 * ceil_log2(n) + 8)


def _small_n_bound(n: int, ratio: Callable[[int], Fraction] = greedy_ratio) -> Fraction:
    # Combination multipliers of the per-level guarantees; with the greedy
    # ratios these evaluate to 3/5, 19/42 and 2625/6692.
    if n == 2:
        b = ratio(2)
        return 2 * b / (2 * b + 1)
    if n == 3:
        b = ratio(3)
        return 2 * b / (3 * b + 1)
    if n == 4:
        b2, b4 = ratio(2), ratio(4)
        return 1 / (Fraction(4, 3) + Fraction(2, 5) / b2 + Fraction(7, 15) / b4)
    raise ValueError(f"small-n algorithm supports n in {{2,3,4}}, got {n}")


def small_n_approx(oracle: IndependenceOracle, c: Matrix, n: int) -> ApproxResult:
    """Sharper level sets for n in {2, 3, 4}.

    n=2 runs levels (k=2, 1 copy) and (k=1, 2 copies); n=3 runs (3, 1) and
    (1, 3), duplicating the single column three times; n=4 runs (4, 1),
    (2, 2) and (1, 4).  k=1 levels are exact single oracle calls.  Raises
    NotDownwardClosedError on a system that is not downward closed.
    """
    _require_closed(oracle, "small_n_approx")
    bound = _small_n_bound(n)  # rejects an n outside {2, 3, 4} before the table is read
    return _best_level(oracle, c, n, _SMALL_N_LEVELS[n], bound)


# Variant name (as the CLI spells it) -> (algorithm, proven ratio as a function of n).
APPROX_VARIANTS = {
    "shifted": (constant_shifted, greedy_ratio),
    "log": (log_approx, _log_bound),
    "small-n": (small_n_approx, _small_n_bound),
}

_RATIO_KEYS = {"shifted_constant": "shifted", "general_log": "log", "small_n": "small-n"}


def ratio_bound(variant: str, n: int) -> Fraction:
    """Proven approximation ratio of the shipped algorithms, as an exact rational.

    variant is one of "shifted_constant", "general_log", "small_n"
    (the latter only for n in {2, 3, 4}).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if variant not in _RATIO_KEYS:
        raise ValueError(f"unknown variant {variant!r}")
    return APPROX_VARIANTS[_RATIO_KEYS[variant]][1](n)


def convex_identical(
    oracle: IndependenceOracle,
    tables: Sequence[Sequence[int]],
    n: int,
) -> tuple[Vector, int]:
    """Exact maximizer of a separable convex congestion objective.

    tables[i] lists f_i(0), ..., f_i(n); each f_i must be discretely convex
    (nondecreasing second differences).  Convexity guarantees an optimal
    solution with n identical columns, so sum_i f_i(n * s_i) is linear in s
    and a single oracle call with weights f_i(n) - f_i(0) is exact.
    Returns the repeated column s and the objective value.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    check_value_tables(tables, n, oracle.ground_size())
    for i, t in enumerate(tables):
        for q in range(n - 1):
            if t[q + 2] - 2 * t[q + 1] + t[q] < 0:
                raise ValueError(f"value table for element {i + 1} is not convex")
    w = [t[n] - t[0] for t in tables]
    s = oracle.maximize(w)
    value = sum(t[n] if bit else t[0] for t, bit in zip(tables, s))
    return s, value
