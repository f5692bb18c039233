"""Greedy approximation for the disjoint union problem (DUP).

DUP asks for k members of an independence system with pairwise disjoint
supports maximizing the weight of their union.  The coverage-style greedy
below achieves the classical ratio 1 - (1 - 1/k)^k >= 1 - 1/e.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .core import Matrix, Vector
from .oracles import IndependenceOracle


@dataclass(frozen=True)
class OrthogonalSelection:
    """k system members with pairwise disjoint supports and their DUP value."""

    columns: tuple[Vector, ...]
    value: int


def orthogonalize(x: Matrix) -> Matrix:
    """Zero all but the leftmost 1 in every row.

    The covered-element set is unchanged and, over a downward monotone
    system, every column stays feasible.
    """
    out = []
    for row in x:
        seen = False
        new = []
        for v in row:
            if v and not seen:
                new.append(1)
                seen = True
            else:
                new.append(0)
        out.append(tuple(new))
    return tuple(out)


def greedy_ratio(k: int) -> Fraction:
    """Exact greedy coverage ratio 1 - (1 - 1/k)^k for k rounds."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return Fraction(k**k - (k - 1) ** k, k**k)


def greedy_dup(oracle: IndependenceOracle, k: int, w: Sequence[int]) -> OrthogonalSelection:
    """Greedy k-round DUP approximation over an independence system.

    Each round zeroes the weights of already covered elements and queries
    the oracle.  Output column r holds the elements that round r covered
    first, which is the stack of answers orthogonalized (leftmost 1 per row
    wins); the value is the weight of all covered elements.  Rounds stop
    early once a query returns the zero vector, since no further coverage
    is possible.  The value is guaranteed to be at least greedy_ratio(k)
    times the DUP optimum.  Matroid and matching oracles never select an
    element with weight <= 0; an explicit system may, and such an element
    is then covered and its weight counted.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    oracle._check_weights(w)
    d = len(w)
    remaining = list(w)
    first = [-1] * d  # round that first covered each element, -1 if none
    for r in range(k):
        s = oracle.maximize(remaining)
        if not any(s):
            break
        for i, bit in enumerate(s):
            if bit and first[i] < 0:
                first[i] = r
                remaining[i] = 0
    cols = [[0] * d for _ in range(k)]
    value = 0
    for i, r in enumerate(first):
        if r >= 0:
            cols[r][i] = 1
            value += w[i]
    return OrthogonalSelection(tuple(map(tuple, cols)), value)


# Kept only because perfbench/tracing.py imports GREEDY_DUP; delete both with that import.
@dataclass(frozen=True)
class DupSolver:
    """A DUP algorithm paired with its proven ratio as a function of k."""

    solve: Callable[[IndependenceOracle, int, Sequence[int]], OrthogonalSelection]
    ratio: Callable[[int], Fraction]


GREEDY_DUP = DupSolver(solve=greedy_dup, ratio=greedy_ratio)
