"""Greedy approximation for the disjoint union problem (DUP).

DUP asks for k members of an independence system with pairwise disjoint
supports maximizing the weight of their union: the shifted problem with
cost rows (w_i, 0, ..., 0).  One greedy round loop over the lift serves
greedy_dup and sco.constant_shifted; k rounds give ratio 1 - (1 - 1/k)^k.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .core import Vector
from .oracles import IndependenceOracle


@dataclass(frozen=True)
class OrthogonalSelection:
    """k system members with pairwise disjoint supports and their DUP value."""

    columns: tuple[Vector, ...]
    value: int


def greedy_ratio(k: int) -> Fraction:
    """Exact greedy coverage ratio 1 - (1 - 1/k)^k for k rounds."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return Fraction(k**k - (k - 1) ** k, k**k)


def _lift_greedy(
    oracle: IndependenceOracle, w: list[int], cells: Sequence[Sequence[int]], rounds: int
) -> tuple[list[list[int]], int]:
    """The greedy DUP over a lift whose element i has the cells cells[0][i],
    cells[1][i], ..., kept as one congestion counter m[i] per element.

    At most `rounds` rounds each ask the oracle once on the weights w, which
    start at cells[0] and are updated in place.  A selected element that is
    uncovered or has positive weight is covered: its weight joins the value
    and it moves to its next cell, weighed 0 when missing or not positive.
    Rounds stop at the first all-zero answer.  Returns one 0/1 column per
    round, the elements it covered (none for rounds not run), and the value.
    """
    d = len(w)
    m = [0] * d
    value = 0
    out = []
    for _ in range(rounds):
        s = oracle.maximize(w)
        if not any(s):
            break
        col = [0] * d
        for i in compress(range(d), s):
            # An explicit system may select an element whose weight is 0 only
            # because its cells are used up; that selection covers nothing.
            if m[i] == 0 or w[i] > 0:
                col[i] = 1
                value += w[i]
                mi = m[i] = m[i] + 1
                w[i] = cells[mi][i] if mi < len(cells) and cells[mi][i] > 0 else 0
        out.append(col)
    return out + [[0] * d] * (rounds - len(out)), value


def greedy_dup(oracle: IndependenceOracle, k: int, w: Sequence[int]) -> OrthogonalSelection:
    """Greedy k-round DUP approximation over an independence system.

    The lift greedy with the single cell w[i] per element, so each round
    queries the oracle with covered elements weighed 0.  Output column r
    holds the elements that round r covered first, so the columns have
    pairwise disjoint supports; the value is the weight of all covered
    elements.  The value is at least greedy_ratio(k) times the DUP optimum.
    Matroid and matching oracles never select an element with weight <= 0;
    an explicit system may, and such an element is then covered and its
    weight counted.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    # The first round's maximize checks the length of w.
    cols, value = _lift_greedy(oracle, list(w), (w,), k)
    return OrthogonalSelection(tuple(map(tuple, cols)), value)


# Kept only because perfbench/tracing.py imports GREEDY_DUP; delete both with that import.
@dataclass(frozen=True)
class DupSolver:
    """A DUP algorithm paired with its proven ratio as a function of k."""

    solve: Callable[[IndependenceOracle, int, Sequence[int]], OrthogonalSelection]
    ratio: Callable[[int], Fraction]


GREEDY_DUP = DupSolver(solve=greedy_dup, ratio=greedy_ratio)
