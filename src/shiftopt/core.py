"""Domain values and pure operations for shifted combinatorial optimization.

A solution bundles n feasible 0/1 vectors over a ground set of d elements
into a d x n matrix (one column per choice).  The shifted objective pays,
in each row, the sum of the first m entries of the cost row, where m is the
row's congestion (its number of ones).

Everything here works on immutable nested tuples and plain Python integers,
so values are hashable, exact at any magnitude, and safe to share between
threads.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

Vector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]
CongestionProfile = tuple[int, ...]


_EXACT_INT = frozenset({int})


def matrix(rows: Iterable[Iterable[int]]) -> Matrix:
    """Canonicalize nested iterables into a rectangular tuple-of-rows matrix.

    A row that is already a tuple of exact ints is kept as it is; any other
    row is converted entry by entry with int()."""
    out = tuple(
        row
        if type(row) is tuple and _EXACT_INT.issuperset(map(type, row))
        else tuple(map(int, row))
        for row in rows
    )
    widths = {len(row) for row in out}
    if len(widths) > 1:
        raise ValueError(f"ragged matrix: row lengths {sorted(widths)}")
    return out


def dims(x: Matrix) -> tuple[int, int]:
    """Return (d, n).  A matrix with zero rows reports width 0."""
    return (len(x), len(x[0]) if x else 0)


def check_cost_shape(c: Matrix, n: int, ground_size: int) -> None:
    """Raise ValueError unless n >= 1 and c has n columns and ground_size rows."""
    d, nc = dims(c)
    if n < 1:
        raise ValueError("n must be >= 1")
    if d > 0 and nc != n:
        raise ValueError(f"cost matrix has {nc} columns, expected {n}")
    if d != ground_size:
        raise ValueError(f"cost matrix has {d} rows, oracle ground size {ground_size}")


def check_value_tables(tables: Sequence[Sequence[int]], n: int, ground_size: int) -> None:
    """Raise ValueError unless there is one table per element, each listing
    the values at congestion 0..n."""
    if len(tables) != ground_size:
        raise ValueError(f"{len(tables)} value tables for ground size {ground_size}")
    for i, t in enumerate(tables):
        if len(t) != n + 1:
            raise ValueError(f"value table for element {i + 1} must have {n + 1} entries")


def from_columns(cols: Sequence[Sequence[int]]) -> Matrix:
    """Assemble a matrix from its columns (at least one column required)."""
    if not cols:
        raise ValueError("at least one column required")
    cols = tuple(tuple(col) for col in cols)
    d = len(cols[0])
    if any(len(col) != d for col in cols):
        raise ValueError("columns of unequal length")
    return tuple(tuple(col[i] for col in cols) for i in range(d))


def columns(x: Matrix) -> tuple[Vector, ...]:
    """Return the columns of a matrix as vectors."""
    d, n = dims(x)
    return tuple(tuple(x[i][j] for i in range(d)) for j in range(n))


def _check_same_shape(a: Matrix, b: Matrix) -> None:
    if dims(a) != dims(b):
        raise ValueError(f"dimension mismatch: {dims(a)} vs {dims(b)}")


def _check_binary(x: Matrix) -> None:
    for i, row in enumerate(x):
        for v in row:
            if v not in (0, 1):
                raise ValueError(f"solution entries must be 0/1, row {i + 1} has {v}")


def shift(x: Matrix) -> Matrix:
    """Sort every row into nonincreasing order (stable descending sort).

    For 0/1 rows this pushes the ones to the left, so the result is the
    unique row-equivalent matrix with nonincreasing rows.
    """
    return tuple(tuple(sorted(row, reverse=True)) for row in x)


def first_unshifted_row(c: Matrix) -> int | None:
    """0-based index of the first row that increases somewhere, else None."""
    for i, row in enumerate(c):
        if sorted(row, reverse=True) != [*row]:
            return i
    return None


def equivalent(x: Matrix, y: Matrix) -> bool:
    """True iff each row of x is a permutation of the corresponding row of y."""
    _check_same_shape(x, y)
    return all(sorted(rx) == sorted(ry) for rx, ry in zip(x, y))


def congestion(x: Matrix) -> CongestionProfile:
    """Per-element usage counts: entry i is the number of ones in row i."""
    _check_binary(x)
    return tuple(sum(row) for row in x)


def shifted_value(c: Matrix, x: Matrix) -> int:
    """Objective of x under cost c: per row, the prefix sum of c up to the
    row's congestion.  Equals frobenius(c, shift(x))."""
    _check_same_shape(c, x)
    m = congestion(x)
    return sum(sum(c[i][:m[i]]) for i in range(len(c)))


def frobenius(c: Matrix, x: Matrix) -> int:
    """Entrywise product sum, without shifting."""
    _check_same_shape(c, x)
    return sum(cv * xv for crow, xrow in zip(c, x) for cv, xv in zip(crow, xrow))
