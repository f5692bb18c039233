"""Independent checks of every op's output.

The checks recompute what they can without the package's own helpers:
objective values by prefix sums, ratio bounds from their closed forms, and
independent-set decisions by subset search.  Membership is asked (with
`contains`) of a system built from the benchmark's own generator data, and
exact-cover decisions of `exact_cover_exists`, both outside the timed op.

A check returns a list of problems; an empty list means the op passed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, combinations

SMALL_N_BOUNDS = {2: Fraction(3, 5), 3: Fraction(19, 42), 4: Fraction(2625, 6692)}


def greedy_bound(n: int) -> Fraction:
    """1 - (1 - 1/n)^n."""
    return 1 - (1 - Fraction(1, n)) ** n


def expected_bound(variant: str, n: int) -> Fraction:
    if variant == "shifted":
        return greedy_bound(n)
    if variant == "log":
        top = 0
        while (1 << top) < n:
            top += 1
        return greedy_bound(n) / (4 * top + 8)
    if variant == "small-n":
        return SMALL_N_BOUNDS[n]
    raise ValueError(f"no closed-form bound for variant {variant!r}")


def prefix_value(c, x) -> int:
    """Shifted objective: per row, the sum of the first m cost entries,
    where m is the number of ones in that row of x."""
    total = 0
    for crow, xrow in zip(c, x):
        m = sum(xrow)
        if m:
            total += list(accumulate(crow))[m - 1]
    return total


def check_matrix(system, c, n: int, x) -> list[str]:
    """Shape, 0/1 entries and column membership of a d x n solution."""
    d = len(c)
    if not isinstance(x, tuple) or len(x) != d or any(
        not isinstance(row, tuple) or len(row) != n for row in x
    ):
        return [f"solution is not a {d} x {n} matrix"]
    if any(type(v) is not int or v not in (0, 1) for row in x for v in row):
        return ["solution has an entry other than 0/1"]
    problems = []
    for j in range(n):
        col = tuple(row[j] for row in x)
        if not system.contains(col):
            problems.append(f"column {j + 1} is not a member of the system")
            break
    return problems


def check_solve(system, c, n: int, variant: str, result, opt: int | None = None) -> list[str]:
    """An approximation result: feasible, value recomputed, bound, ratio."""
    problems = check_matrix(system, c, n, result.solution)
    if problems:
        return problems
    value = prefix_value(c, result.solution)
    if result.value != value:
        problems.append(f"reported value {result.value} != recomputed {value}")
    bound = expected_bound(variant, n)
    if result.bound != bound:
        problems.append(f"bound {result.bound} != closed form {bound}")
    if opt is not None:
        if value > opt:
            problems.append(f"value {value} exceeds the optimum {opt}")
        elif value * bound.denominator < bound.numerator * opt:
            problems.append(f"ratio {value}/{opt} below bound {bound}")
    return problems


def check_exact(system, c, n: int, value: int, witness) -> list[str]:
    """A brute-force optimum: the witness is feasible and attains the value."""
    problems = check_matrix(system, c, n, witness)
    if not problems and prefix_value(c, witness) != value:
        problems.append(f"exact value {value} != witness value {prefix_value(c, witness)}")
    return problems


def check_convex(system, tables, s, value: int) -> list[str]:
    """A convex_identical result: s is a member and value = sum f_i(n s_i)."""
    d = len(tables)
    if not isinstance(s, tuple) or len(s) != d or any(
        type(b) is not int or b not in (0, 1) for b in s
    ):
        return [f"column is not a 0/1 vector of length {d}"]
    if not system.contains(s):
        return ["column is not a member of the system"]
    expect = sum(t[-1] if b else t[0] for t, b in zip(tables, s))
    if value != expect:
        return [f"reported value {value} != recomputed {expect}"]
    return []


def check_decision(decision: bool, expected: bool) -> list[str]:
    if decision != expected:
        return [f"decision {decision} but the reference says {expected}"]
    return []


def has_independent_set(num_vertices: int, edges, size: int) -> bool:
    """Reference decision: some `size` vertices are pairwise non-adjacent."""
    adjacent = {frozenset(e) for e in edges}
    return any(
        all(frozenset(pair) not in adjacent for pair in combinations(group, 2))
        for group in combinations(range(num_vertices), size)
    )
