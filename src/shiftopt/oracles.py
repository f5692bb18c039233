"""Linear-optimization oracles over independence systems.

An oracle answers a single query: given integer weights w over the ground
set, return a member s of the system maximizing w . s.  For downward
monotone systems the optimum is always >= 0 and never selects an element
with strictly negative weight; every implementation here honors that.

The ground set is indexed 0..d-1.  Members are 0/1 tuples of length d.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import chain, compress, repeat

from .core import Matrix, Vector, check_cost_shape


def _derived(default):
    """A field the constructor computes, left out of init, repr, equality and hashing."""
    return field(init=False, repr=False, compare=False, hash=False, default=default)


class IndependenceOracle:
    """Behavioral contract: maximize(w) returns s in S with w . s maximal.

    downward_closed tells whether S is closed under taking subsets; the
    matroids and matchings here are by definition.
    """

    downward_closed = True

    def ground_size(self) -> int:
        raise NotImplementedError

    def maximize(self, w: Sequence[int]) -> Vector:
        raise NotImplementedError

    def contains(self, v: Sequence[int]) -> bool:
        raise NotImplementedError

    def _is_vector(self, v: Sequence[int]) -> bool:
        """Whether v is a 0/1 vector over the ground set."""
        return len(v) == self.ground_size() and all(b in (0, 1) for b in v)

    def _check_weights(self, w: Sequence[int]) -> None:
        if len(w) != self.ground_size():
            raise ValueError(
                f"weight vector length {len(w)} != ground size {self.ground_size()}"
            )


# Map the 0/1 bytes of a vector to the ASCII digits int(..., 2) reads, and back.
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _bytes(v: tuple | str) -> bytes:
    """The entries of v as bytes, or b"\\x02" if one lies outside 0..255.
    Entries that are not ints (1.0, "1") go through int() first; a str is
    read as its characters, b"\\x02" unless each is 0 or 1."""
    if isinstance(v, str):
        return b"\x02" if v.strip("01") else v.encode().translate(_BIT_VALUES)
    try:
        return bytes(v)
    except TypeError:
        v = tuple(map(int, v))
    except ValueError:
        return b"\x02"
    return _bytes(v)


def _mask(raw: bytes) -> int:
    """The bitmask of a vector given as bytes of 0/1 values."""
    return int(raw.translate(_DIGITS) or b"0", 2)


def _bitmasks(vectors: Iterable[Sequence[int] | str]) -> tuple[int, list[int]]:
    """The common length d of the vectors (0 for none) and one bitmask per
    vector, the vector read in binary (element i at bit d-1-i, so mask
    order is vector order); raises ValueError on unequal lengths or entries
    other than 0/1.  A str vector is a string of 0/1 characters.  When
    every vector is a str, one batched test and int(v, 2) per vector do the
    work; otherwise, or when that test fails, a per-vector loop reports the
    first fault."""
    vectors = tuple(vectors)
    try:
        text = "".join(vectors)
    except TypeError:  # some vector is not a str
        text = ""
    # isascii first, so that encode() never sees a lone surrogate.
    if text and text.isascii() and not text.encode().translate(None, b"01"):
        d = len(vectors[0])
        if set(map(len, vectors)) == {d}:
            return d, list(map(int, vectors, repeat(2)))
    raws: list[bytes] = []
    for v in vectors:
        if not isinstance(v, str):
            v = tuple(v)
        if raws and len(v) != len(raws[0]):
            raise ValueError("explicit system vectors of unequal length")
        raw = _bytes(v)
        if raw.strip(b"\x00\x01"):
            raise ValueError("explicit system vectors must be 0/1")
        raws.append(raw)
    return len(raws[0]) if raws else 0, list(map(_mask, raws))


def _tree(index: dict[int, int], d: int) -> tuple[bool, tuple[tuple[int, int, int], ...]]:
    """Whether a family of member masks is downward closed, and its prefix
    tree, from one pass over the masks in increasing order.

    index maps each member mask to its node number.  A node's parent is its
    mask with the lowest set bit, its last element, cleared.  A parent that
    is no member becomes a prefix-only node, numbered after the members;
    so does the root, mask 0, when it is no member.  The tree is a
    schedule of (node, parent node, element) for every node but the root,
    parents first, since a parent's mask is the smaller.

    The family is closed iff each member's parent is a member (so the root
    is one, unless there are no members) and so is every other
    one-element removal of it.  The parent lookup that links a member is
    the first of these checks; the others stop at the first miss.
    """
    closed = 0 in index or not index
    nodes = dict(index)
    nodes.setdefault(0, len(nodes))
    schedule = []
    for m in sorted(filter(None, index)):
        low = m & -m
        parent = m ^ low
        if parent not in nodes:
            closed = False
            missing = []
            while parent not in nodes:
                missing.append(parent)
                parent &= parent - 1
            for p in reversed(missing):
                nodes[p] = len(nodes)
                p_low = p & -p
                schedule.append((nodes[p], nodes[p ^ p_low], d - p_low.bit_length()))
        elif closed:
            rest = parent
            while rest:
                bit = rest & -rest
                if m ^ bit not in index:
                    closed = False
                    break
                rest ^= bit
        schedule.append((index[m], nodes[m ^ low], d - low.bit_length()))
    return closed, tuple(schedule)


def _strings(masks: Iterable[int], d: int) -> list[str]:
    """The d-character 0/1 strings of the masks, in the given order."""
    top = 1 << d  # a leading 1 keeps the leading zeros; for d = 0 each string is ""
    return [bin(m | top)[3:] for m in masks]


def _vectors(masks: Iterable[int], d: int) -> tuple[Vector, ...]:
    """The d-element 0/1 vectors of the masks, in the given order."""
    return tuple(tuple(s.encode().translate(_BIT_VALUES)) for s in _strings(masks, d))


def _vector(mask: int, d: int) -> Vector:
    """The d-element 0/1 vector of one mask: _vectors for a single mask,
    without its list and generator, for maximize's answer."""
    return tuple(bin(mask | 1 << d)[3:].encode().translate(_BIT_VALUES))


def _by_size(m: int) -> tuple[int, int]:
    """The sort key of canonical member order: by size, then as vectors."""
    return m.bit_count(), m


def _canonical(masks: Iterable[int], d: int) -> tuple[Vector, ...]:
    """The vectors of the masks in canonical member order."""
    return _vectors(sorted(masks, key=_by_size), d)


def _closure(masks: Iterable[int]) -> set[int]:
    """The masks and all their submasks."""
    seen = set(masks)
    stack = list(seen)
    while stack:
        m = stack.pop()
        rest = m
        while rest:
            low = rest & -rest
            rest ^= low
            u = m ^ low
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def down_close(vectors: Iterable[Sequence[int]]) -> tuple[Vector, ...]:
    """Downward closure of a set of equal-length 0/1 vectors, in canonical
    member order."""
    d, masks = _bitmasks(vectors)
    return _canonical(_closure(masks), d)


def is_downward_closed(vectors: Iterable[Sequence[int]]) -> bool:
    """True iff removing any single 1 from a member yields a member; the
    vectors must be 0/1 and of equal length."""
    d, masks = _bitmasks(vectors)
    return _tree(dict(zip(masks, range(len(masks)))), d)[0]


class _Vectors:
    """The vectors field of ExplicitSystem.  The dataclass __init__ stores
    the vectors as given in the instance, and __post_init__ takes them back
    out; the first read after that lands here, builds the int tuples from
    the member masks and stores them, so later reads find them directly."""

    def __get__(self, system, owner=None):
        if system is None:
            raise AttributeError("vectors")  # so that the field has no default
        vecs = system.__dict__["vectors"] = _vectors(system._masks, system._d)
        return vecs


@dataclass(frozen=True)
class ExplicitSystem(IndependenceOracle):
    """A system given as an explicit list of distinct 0/1 vectors.

    The constructor works out downward_closed from the members; it is never
    an argument.  Ties in maximize break by list order, so the stored order
    is significant and preserved by serialization.  A vector may be given
    as a sequence of 0/1 entries or as a string of 0/1 characters, as in
    the file format.  The system stores the member bitmasks in list order;
    `vectors`, a tuple of int tuples, is built from them on its first read
    (repr, equality, hashing and the brute forces read it; parse and the
    approximations do not).

    The constructor builds a prefix tree of the member supports in the same
    pass that decides closure (see _tree): a node is a member's bitmask or
    a prefix of one, and its parent is the same mask with the lowest set
    bit, its last element, cleared.  The members are nodes 0..count-1 in
    list order; prefix-only nodes, which only a system that is not closed
    has, come after them.  maximize(w) costs one addition per node,
    vals[node] = vals[parent] + w[element] in parents-first order, then
    picks the first member of largest value straight from vals[:count].
    contains(v) looks v's bitmask up among the members'.
    """

    vectors: tuple[Vector, ...] = _Vectors()
    # Worked out from the members, and part of repr and equality.
    downward_closed: bool = field(init=False, default=False)
    # The member bitmasks, in list order, and the ground set size.
    _masks: tuple[int, ...] = _derived(())
    _d: int = _derived(0)
    # Each member bitmask's node, its position in the list.
    _index: dict[int, int] = _derived(None)
    # (node, parent node, element) for every node but the root, parents first.
    _schedule: tuple[tuple[int, int, int], ...] = _derived(())

    def __post_init__(self) -> None:
        d, masks = _bitmasks(self.__dict__.pop("vectors"))
        if not masks:
            raise ValueError("explicit system must list at least one vector")
        index = dict(zip(masks, range(len(masks))))
        if len(index) != len(masks):
            raise ValueError("explicit system vectors must be distinct")
        closed, schedule = _tree(index, d)
        object.__setattr__(self, "downward_closed", closed)
        object.__setattr__(self, "_masks", tuple(masks))
        object.__setattr__(self, "_d", d)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_schedule", schedule)

    @classmethod
    def closed(cls, vectors: Iterable[Sequence[int]]) -> "ExplicitSystem":
        """Build the downward closure of the given vectors, in the canonical
        member order of down_close."""
        d, masks = _bitmasks(vectors)
        return cls(_strings(sorted(_closure(masks), key=_by_size), d))

    def ground_size(self) -> int:
        return self._d

    def contains(self, v: Sequence[int]) -> bool:
        return self._is_vector(v) and _mask(_bytes(v)) in self._index

    def maximize(self, w: Sequence[int]) -> Vector:
        self._check_weights(w)
        vals = [0] * (len(self._schedule) + 1)
        for node, parent, elem in self._schedule:
            vals[node] = vals[parent] + w[elem]
        vals = vals[: len(self._masks)]  # the members'; prefix-only nodes come after
        return _vector(self._masks[vals.index(max(vals))], self._d)


@dataclass(frozen=True)
class UniformMatroid(IndependenceOracle):
    """All subsets of [d] with at most `rank` elements."""

    d: int
    rank: int

    def __post_init__(self) -> None:
        if self.d < 0 or self.rank < 0:
            raise ValueError("d and rank must be nonnegative")

    def ground_size(self) -> int:
        return self.d

    def contains(self, v: Sequence[int]) -> bool:
        return self._is_vector(v) and sum(v) <= self.rank

    def maximize(self, w: Sequence[int]) -> Vector:
        self._check_weights(w)
        order = sorted(range(self.d), key=w.__getitem__, reverse=True)
        s = [0] * self.d
        for i in order[: self.rank]:
            if w[i] > 0:
                s[i] = 1
        return tuple(s)


@dataclass(frozen=True)
class PartitionMatroid(IndependenceOracle):
    """Blocks of ground elements, each with a selection capacity.

    blocks: ((elements, capacity), ...) with pairwise disjoint element
    tuples.  Elements not covered by any block can never be selected.
    """

    d: int
    blocks: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self) -> None:
        if self.d < 0:
            raise ValueError("d must be nonnegative")
        blocks = tuple(
            (tuple(sorted(int(e) for e in elems)), int(cap))
            for elems, cap in self.blocks
        )
        object.__setattr__(self, "blocks", blocks)
        seen: set[int] = set()
        for elems, cap in blocks:
            if cap < 0:
                raise ValueError("block capacity must be nonnegative")
            for k, e in enumerate(elems):
                if not 0 <= e < self.d:
                    raise ValueError(f"block element {e + 1} outside ground set")
                if e in seen:
                    # elems is sorted, so a repeat within it is its predecessor.
                    where = "twice in one block" if k and elems[k - 1] == e else "in two blocks"
                    raise ValueError(f"element {e + 1} appears {where}")
                seen.add(e)

    def ground_size(self) -> int:
        return self.d

    def contains(self, v: Sequence[int]) -> bool:
        if not self._is_vector(v):
            return False
        # The blocks are disjoint, so v selects nothing outside them iff their counts sum to sum(v).
        used = [sum(v[e] for e in elems) for elems, _ in self.blocks]
        return sum(used) == sum(v) and all(u <= cap for u, (_, cap) in zip(used, self.blocks))

    def maximize(self, w: Sequence[int]) -> Vector:
        self._check_weights(w)
        s = [0] * self.d
        for elems, cap in self.blocks:
            order = sorted(elems, key=w.__getitem__, reverse=True)
            for i in order[:cap]:
                if w[i] > 0:
                    s[i] = 1
        return tuple(s)


def _numbering(vertices: Iterable[int]) -> dict[int, int]:
    """Local numbers 0, 1, ... for the distinct given vertices, in increasing order."""
    return {v: k for k, v in enumerate(sorted(set(vertices)))}


def _forest(ends: Sequence[tuple[int, int]], order: Iterable[int], vertices: int) -> list[int]:
    """The edges of `order` (indices into ends) that join two components of
    the forest built so far, in order, over local vertices 0..vertices-1.
    Stops at a spanning tree, after which every edge would close a cycle."""
    parent = list(range(vertices))
    accepted: list[int] = []
    room = vertices - 1
    for i in order:
        a, b = ends[i]
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            accepted.append(i)
            room -= 1
            if not room:
                break
    return accepted


@dataclass(frozen=True)
class GraphicMatroid(IndependenceOracle):
    """Forests of a multigraph; ground element i is the i-th edge.

    Parallel edges are allowed; self-loops are never independent.  The
    constructor numbers the vertices that some edge touches in increasing
    order, so the per-call forest has one entry per such vertex, however
    many vertices are declared.  maximize is Kruskal's greedy on the
    positive edges, ties to the lower index, stopping at a spanning tree.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    # Each edge's endpoints in the local numbering of the touched vertices.
    _ends: tuple[tuple[int, int], ...] = _derived(())
    # The number of vertices that some edge touches.
    _touched: int = _derived(0)

    def __post_init__(self) -> None:
        if self.num_vertices < 0:
            raise ValueError("vertex count must be nonnegative")
        edges = tuple((int(u), int(v)) for u, v in self.edges)
        object.__setattr__(self, "edges", edges)
        for u, v in edges:
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError(f"edge ({u + 1},{v + 1}) references missing vertex")
        local = _numbering(chain.from_iterable(edges))
        object.__setattr__(self, "_ends", tuple((local[u], local[v]) for u, v in edges))
        object.__setattr__(self, "_touched", len(local))

    def ground_size(self) -> int:
        return len(self.edges)

    def contains(self, v: Sequence[int]) -> bool:
        if not self._is_vector(v):
            return False
        chosen = list(compress(range(len(v)), v))
        return len(_forest(self._ends, chosen, self._touched)) == len(chosen)

    def maximize(self, w: Sequence[int]) -> Vector:
        self._check_weights(w)
        positive = [i for i, x in enumerate(w) if x > 0]
        order = sorted(positive, key=w.__getitem__, reverse=True)
        s = [0] * len(self.edges)
        for i in _forest(self._ends, order, self._touched):
            s[i] = 1
        return tuple(s)


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph whose edges form the ground set, in list order.

    Edges are (left_vertex, right_vertex) pairs, 0-based within each side.
    """

    left: int
    right: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.left < 0 or self.right < 0:
            raise ValueError("vertex counts must be nonnegative")
        edges = tuple((int(l), int(r)) for l, r in self.edges)
        object.__setattr__(self, "edges", edges)
        for l, r in edges:
            if not (0 <= l < self.left and 0 <= r < self.right):
                raise ValueError(f"edge ({l + 1},{r + 1}) outside vertex ranges")


# Largest edge weight for which BipartiteMatchings.maximize is exact.
_MAX_EXACT_WEIGHT = 2**51


@dataclass(frozen=True)
class BipartiteMatchings(IndependenceOracle):
    """Matchings of a bipartite graph.

    maximize runs a Hungarian-style assignment (scipy linear_sum_assignment)
    on the subgraph of strictly positive edges; zero and negative edges are
    excluded, which is optimal because matchings are downward monotone.

    The assignment solver computes in float64, so maximize raises
    ValueError when a positive weight exceeds 2**51; up to that bound its
    answer is exact.  The solver (shortest augmenting paths with dual
    variables u, v) only adds, subtracts and compares the negated weights,
    integers c in [-C, 0] with C the largest weight, and its duals.  Each
    augmentation keeps c[i][j] - u[i] - v[j] >= 0 with equality on matched
    pairs, and leaves v = 0 on unmatched columns and v <= 0 elsewhere.  At
    the start of an augmentation some column is unmatched, so every dual
    lies in [-C, 0]; within it every path length, intermediate sum and
    updated dual lies in [-2C, 2C].  All are integers, and float64 holds
    every integer of magnitude at most 2**53 exactly, so with 2C <= 2**53
    no operation rounds and the result is the exact optimum.

    The constructor numbers the touched vertices of each side in increasing
    order; the weight matrix has a row or column per such vertex only.

    numpy and scipy are imported inside maximize, after the checks above,
    so they load on the first call with a positive weight within the
    bound; every other system kind, and `shiftopt bench`, runs without
    them.
    """

    graph: BipartiteGraph
    # Edge endpoints numbered within each side's touched vertices, and their counts.
    _ends: tuple[tuple[int, int], ...] = _derived(())
    _shape: tuple[int, int] = _derived((0, 0))

    def __post_init__(self) -> None:
        edges = self.graph.edges
        left = _numbering(l for l, _ in edges)
        right = _numbering(r for _, r in edges)
        object.__setattr__(self, "_ends", tuple((left[l], right[r]) for l, r in edges))
        object.__setattr__(self, "_shape", (len(left), len(right)))

    def ground_size(self) -> int:
        return len(self.graph.edges)

    def contains(self, v: Sequence[int]) -> bool:
        if not self._is_vector(v):
            return False
        chosen = list(compress(self.graph.edges, v))
        return len(chosen) == len({l for l, _ in chosen}) == len({r for _, r in chosen})

    def maximize(self, w: Sequence[int]) -> Vector:
        self._check_weights(w)
        # Best strictly-positive parallel edge per (left, right) pair.
        best: dict[tuple[int, int], tuple[int, int]] = {}
        for idx, (l, r) in enumerate(self._ends):
            if w[idx] > 0:
                cur = best.get((l, r))
                if cur is None or w[idx] > cur[0]:
                    best[(l, r)] = (w[idx], idx)
        s = [0] * len(w)
        if not best:
            return tuple(s)
        top = max(wt for wt, _ in best.values())
        if top > _MAX_EXACT_WEIGHT:
            raise ValueError(
                f"bipartite matching weight {top} exceeds 2**51, the largest the "
                "float64 assignment solver handles exactly"
            )
        import numpy as np
        from scipy.optimize import linear_sum_assignment

        weights = np.zeros(self._shape, dtype=np.int64)
        for (l, r), (wt, _) in best.items():
            weights[l, r] = wt
        rows, cols = linear_sum_assignment(weights, maximize=True)
        for l, r in zip(rows, cols):
            if weights[l, r] > 0:
                s[best[(l, r)][1]] = 1
        return tuple(s)


def lift_maximize(oracle: IndependenceOracle, n: int, c: Matrix) -> Matrix:
    """Maximize frobenius(c, x) over d x n matrices whose column sum lies in S.

    Realized with exactly one oracle query: each row contributes through its
    best column j(i) (ties to the lowest column index), so querying the base
    oracle on w_i = c[i][j(i)] and routing the returned ones to column j(i)
    is optimal.
    """
    check_cost_shape(c, n, oracle.ground_size())
    picks: list[int] = []
    w: list[int] = []
    for row in c:
        jbest = 0
        for j in range(1, n):
            if row[j] > row[jbest]:
                jbest = j
        picks.append(jbest)
        w.append(row[jbest])
    s = oracle.maximize(w)
    return tuple(
        tuple(bit if j == jbest else 0 for j in range(n)) for bit, jbest in zip(s, picks)
    )
