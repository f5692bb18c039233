"""Shared random generators and independent baselines for the test suite."""

from __future__ import annotations

import random
from dataclasses import dataclass
from importlib.util import find_spec
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import strategies as st

from shiftopt import (
    BipartiteGraph,
    BipartiteMatchings,
    EnumerationBudgetExceeded,
    ExplicitSystem,
    GraphicMatroid,
    IndependenceOracle,
    Instance,
    PartitionMatroid,
    UniformMatroid,
    down_close,
    lift_maximize,
)

# Only the bipartite matching oracle imports numpy and scipy, on its first
# maximize with a positive weight; tests that reach that call carry this mark.
needs_scipy = pytest.mark.skipif(
    find_spec("numpy") is None or find_spec("scipy") is None,
    reason="the bipartite matching oracle needs numpy and scipy",
)


def rand_closed_system(rng: random.Random, d: int, max_size: int) -> ExplicitSystem:
    """Random downward-closed explicit system with at most max_size members."""
    gens: set[tuple[int, ...]] = set()
    for _ in range(rng.randint(1, 3)):
        support = rng.sample(range(d), rng.randint(1, min(4, d)))
        vec = [0] * d
        for i in support:
            vec[i] = 1
        gens.add(tuple(vec))
    members = set(down_close(gens))
    while len(members) > max_size:
        maximal = sorted(
            v
            for v in members
            if not any(w != v and all(a <= b for a, b in zip(v, w)) for w in members)
        )
        members.remove(rng.choice(maximal))
    system = ExplicitSystem(tuple(sorted(members, key=lambda v: (sum(v), v))))
    assert system.downward_closed
    return system


def rand_arbitrary_system(rng: random.Random, d: int, max_size: int) -> ExplicitSystem:
    """Random explicit system, not necessarily closed, possibly without zero."""
    universe = list(product((0, 1), repeat=d))
    size = rng.randint(1, min(max_size, len(universe)))
    vectors = rng.sample(universe, size)
    return ExplicitSystem(tuple(vectors))


def rand_cost(rng: random.Random, d: int, n: int, lo: int = -9, hi: int = 9,
              shifted: bool = False):
    rows = []
    for _ in range(d):
        row = [rng.randint(lo, hi) for _ in range(n)]
        if shifted:
            row.sort(reverse=True)
        rows.append(tuple(row))
    return tuple(rows)


def random_instance_by_pairwise_scan(seed: int, *, d: int, n: int, set_size: int,
                                     cost_range: int, shifted: bool) -> Instance:
    """Reference `random_instance`: the same draws, with the maximal members
    found by comparing every pair of member tuples."""
    rng = random.Random(seed)
    system = rand_closed_system(rng, d, set_size)
    return Instance(system, n, rand_cost(rng, d, n, -cost_range, cost_range, shifted), None)


def rand_binary(rng: random.Random, d: int, n: int):
    return tuple(tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(d))


def rand_convex_tables(rng: random.Random, d: int, n: int):
    """Per-element tables with nondecreasing increments (discretely convex)."""
    tables = []
    for _ in range(d):
        increments = sorted(rng.randint(-4, 4) for _ in range(n))
        t = [rng.randint(-5, 5)]
        for inc in increments:
            t.append(t[-1] + inc)
        tables.append(tuple(t))
    return tuple(tables)


def matrix_by_int_per_entry(rows):
    """Reference `core.matrix`: int() on every entry of every row."""
    out = tuple(tuple(map(int, row)) for row in rows)
    widths = {len(row) for row in out}
    if len(widths) > 1:
        raise ValueError(f"ragged matrix: row lengths {sorted(widths)}")
    return out


def first_unshifted_row_by_pairs(c):
    """Reference `core.first_unshifted_row`: compares each adjacent pair."""
    for i, row in enumerate(c):
        for j in range(len(row) - 1):
            if row[j] < row[j + 1]:
                return i
    return None


def explicit_maximize_by_scan(system: ExplicitSystem, w):
    """Reference explicit oracle: a dot product with every member in list
    order, keeping the first member of largest value."""
    best = system.vectors[0]
    best_val = sum(wi * bi for wi, bi in zip(w, best))
    for v in system.vectors[1:]:
        val = sum(wi * bi for wi, bi in zip(w, v))
        if val > best_val:
            best, best_val = v, val
    return best


def down_close_by_tuples(vectors):
    """Reference downward closure on tuples, sorted by (popcount, bits)."""
    seen = {tuple(int(b) for b in v) for v in vectors}
    stack = list(seen)
    while stack:
        v = stack.pop()
        for i, bit in enumerate(v):
            if bit:
                u = v[:i] + (0,) + v[i + 1:]
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    return tuple(sorted(seen, key=lambda v: (sum(v), v)))


def matchings_by_tuples(ends, budget: int):
    """Reference matching enumeration on tuples: all matchings (including
    empty) of the edges `ends`, parallel ones allowed, each edge first left
    out and then taken; EnumerationBudgetExceeded past `budget` of them."""
    d = len(ends)
    used: set[int] = set()
    sel = [0] * d
    out: list[tuple[int, ...]] = []

    def rec(i: int) -> None:
        if i == d:
            if len(out) >= budget:
                raise EnumerationBudgetExceeded(f"matching enumeration exceeded budget {budget}")
            out.append(tuple(sel))
            return
        rec(i + 1)
        x, y = ends[i]
        if x not in used and y not in used:
            used.update((x, y))
            sel[i] = 1
            rec(i + 1)
            sel[i] = 0
            used.difference_update((x, y))

    rec(0)
    return tuple(out)


def perfect_matchings_by_tuples(graph, budget: int = 10**6):
    """Reference perfect-matching search on tuples: fail-first backtracking
    that keeps the chosen edge indices and builds a d-entry indicator tuple
    per perfect matching; EnumerationBudgetExceeded past `budget` nodes."""
    nv = graph.num_vertices
    d = len(graph.edges)
    if nv % 2 or graph.isolated_vertex() is not None:
        return ()
    incident: list[list[tuple[int, int]]] = [[] for _ in range(nv)]
    for idx, (x, y) in enumerate(graph.edges):
        incident[x].append((idx, y))
        incident[y].append((idx, x))
    matched = [False] * nv
    chosen: list[int] = []
    out: list[tuple[int, ...]] = []
    nodes = 0

    def rec() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise EnumerationBudgetExceeded(
                f"perfect matching enumeration exceeded budget {budget}"
            )
        pick = -1
        pick_opts: list[tuple[int, int]] | None = None
        for vx in range(nv):
            if matched[vx]:
                continue
            opts = [(e, o) for e, o in incident[vx] if not matched[o]]
            if not opts:
                return
            if pick_opts is None or len(opts) < len(pick_opts):
                pick, pick_opts = vx, opts
        if pick == -1:
            ind = [0] * d
            for e in chosen:
                ind[e] = 1
            out.append(tuple(ind))
            return
        matched[pick] = True
        for e, o in pick_opts:
            matched[o] = True
            chosen.append(e)
            rec()
            chosen.pop()
            matched[o] = False
        matched[pick] = False

    rec()
    return tuple(out)


def is_downward_closed_by_tuples(vectors) -> bool:
    """Reference closure check: every single-1 removal is a member."""
    members = {tuple(v) for v in vectors}
    for v in members:
        for i, bit in enumerate(v):
            if bit and v[:i] + (0,) + v[i + 1:] not in members:
                return False
    return True


def explicit_constructor_error(vectors):
    """Reference ExplicitSystem validation on tuples: the ValueError message
    for the vectors, or None if they form a valid system."""
    vecs = tuple(tuple(int(b) for b in v) for v in vectors)
    if not vecs:
        return "explicit system must list at least one vector"
    for v in vecs:
        if len(v) != len(vecs[0]):
            return "explicit system vectors of unequal length"
        if any(b not in (0, 1) for b in v):
            return "explicit system vectors must be 0/1"
    if len(set(vecs)) != len(vecs):
        return "explicit system vectors must be distinct"
    return None


def lift_value_by_scan(system: ExplicitSystem, c) -> int:
    """Independent lift-problem optimum: each member scores its rows' best columns."""
    best = None
    for s in system.vectors:
        val = sum(max(c[i]) for i, bit in enumerate(s) if bit)
        if best is None or val > best:
            best = val
    return best


def lift_value_full_enum(system: ExplicitSystem, c, n: int) -> int:
    """Exhaustive lift-problem optimum over all (n+1)^d row placements.

    A matrix with column-sum vector in {0,1}^d has at most one 1 per row, so
    each row independently is empty or places its 1 in one of n columns.
    """
    d = system.ground_size()
    best = None
    for choice in product(range(-1, n), repeat=d):
        s = tuple(1 if ch >= 0 else 0 for ch in choice)
        if not system.contains(s):
            continue
        val = sum(c[i][ch] for i, ch in enumerate(choice) if ch >= 0)
        if best is None or val > best:
            best = val
    assert best is not None
    return best


def sco_value_full_tuple_enum(system: ExplicitSystem, c, n: int) -> int:
    """SCO optimum by enumerating ordered n-tuples (independent of the
    multiset-based brute force)."""
    from shiftopt import from_columns, shifted_value

    best = None
    for combo in product(system.vectors, repeat=n):
        val = shifted_value(c, from_columns(combo))
        if best is None or val > best:
            best = val
    assert best is not None
    return best


def sco_first_optimum_by_multisets(system: ExplicitSystem, c, n: int):
    """(value, witness) of the first optimal n-multiset of members, taking
    multisets in itertools' lexicographic order of member positions: the
    witness the shifted brute force documents."""
    from shiftopt import from_columns, shifted_value

    best = None
    for combo in combinations_with_replacement(system.vectors, n):
        x = from_columns(combo)
        val = shifted_value(c, x)
        if best is None or val > best[0]:
            best = (val, x)
    return best


def best_multiset_by_recursion(members, rows, n: int, ceiling=None):
    """Reference `instances._best_multiset` without its budget check: a
    depth-first recursion over nondecreasing member indices that keeps each
    element's use count, scores the last pick of a branch in place, keeps
    the first strictly best (value, pick) and stops at the first value
    equal to `ceiling`.  This was the shared multiset search before it
    became one loop over prefixes."""
    if n == 0:
        return 0, ()
    supports = [tuple(i for i, b in enumerate(v) if b) for v in members]
    count = len(members)
    cong = [0] * len(rows)
    pick: list[int] = []
    best_val = None
    best_pick: tuple[int, ...] = ()

    def rec(start: int, value: int) -> bool:
        # True once the ceiling is reached; the search then unwinds at once.
        nonlocal best_val, best_pick
        if len(pick) == n - 1:
            for idx in range(start, count):
                total = value + sum(rows[i][cong[i]] for i in supports[idx])
                if best_val is None or total > best_val:
                    best_val, best_pick = total, (*pick, idx)
                    if total == ceiling:
                        return True
            return False
        for idx in range(start, count):
            sup = supports[idx]
            delta = sum(rows[i][cong[i]] for i in sup)
            for i in sup:
                cong[i] += 1
            pick.append(idx)
            if rec(idx, value + delta):
                return True
            pick.pop()
            for i in sup:
                cong[i] -= 1
        return False

    rec(0, 0)
    return best_val, best_pick


def dup_first_optimum_by_disjoint_recursion(system: ExplicitSystem, k: int, w):
    """(value, columns) of the first optimal selection of k pairwise disjoint
    members, in the brute force's multiset order, by a recursion that only
    extends disjoint picks; ValueError when no such selection exists.  This
    was the disjoint union brute force before it moved onto the shared
    multiset enumerator."""
    members = system.vectors
    masks = [sum(1 << i for i, b in enumerate(v) if b) for v in members]
    dots = [sum(w[i] for i, b in enumerate(v) if b) for v in members]
    best = None
    pick: list[int] = []

    def rec(start: int, used: int, value: int) -> None:
        nonlocal best
        if len(pick) == k:
            if best is None or value > best[0]:
                best = (value, tuple(pick))
            return
        for idx in range(start, len(members)):
            if not masks[idx] & used:
                pick.append(idx)
                rec(idx, used | masks[idx], value + dots[idx])
                pick.pop()

    rec(0, 0, 0)
    if best is None:
        raise ValueError("no selection of k pairwise disjoint members exists")
    return best[0], tuple(members[i] for i in best[1])


def generalized_value_by_tuples(system: ExplicitSystem, tables, n: int) -> int:
    """Optimum of sum_i f_i(congestion_i) by enumerating ordered n-tuples of
    members, with the congestion summed afresh for each tuple."""
    d = system.ground_size()
    return max(
        sum(tables[i][sum(v[i] for v in combo)] for i in range(d))
        for combo in product(system.vectors, repeat=n)
    )


def congestion_feasible_by_tuples(vectors, pc) -> bool:
    """Prescribed-congestion feasibility by enumerating ordered n-tuples."""
    return any(
        all(sum(v[i] for v in combo) in s for i, s in enumerate(pc.sets))
        for combo in product(vectors, repeat=pc.n)
    )


def exact_cover_by_subfamilies(sets, k: int) -> bool:
    """Exact cover by checking every one of the 2^m subfamilies of the m sets."""
    masks = []
    for f in sets:
        mask = 0
        for e in f:
            if not 0 <= e < k:
                raise ValueError(f"element {e + 1} outside 1..{k}")
            mask |= 1 << e
        masks.append(mask)
    full = (1 << k) - 1
    for sub in range(1 << len(masks)):
        union = 0
        ok = True
        for i, mask in enumerate(masks):
            if sub >> i & 1:
                if union & mask:
                    ok = False
                    break
                union |= mask
        if ok and union == full:
            return True
    return False


def equivalents_of_power(system: ExplicitSystem, n: int) -> set:
    """All 0/1 matrices row-equivalent to some matrix with every column in
    the system, by full enumeration (use only for tiny d and n)."""
    from shiftopt import shift

    keys = set()
    for combo in product(system.vectors, repeat=n):
        x = tuple(tuple(col[i] for col in combo) for i in range(len(combo[0])))
        keys.add(shift(x))
    d = system.ground_size()
    out = set()
    for flat in product((0, 1), repeat=d * n):
        x = tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(d))
        if shift(x) in keys:
            out.add(x)
    return out


@dataclass(frozen=True)
class LiftedOracle(IndependenceOracle):
    """Reference oracle for the n-lift of a base system, built on
    lift_maximize.

    Ground set is [d] x [n] flattened row-major (element (i, j) at i*n + j);
    members are the flattened d x n matrices whose column-sum vector lies in
    the base system.
    """

    base: IndependenceOracle
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def downward_closed(self) -> bool:
        # Removing a one lowers one entry of the column-sum vector, so the
        # lift is closed exactly when its base is.
        return self.base.downward_closed

    def ground_size(self) -> int:
        return self.base.ground_size() * self.n

    def _unflatten(self, w):
        d = self.base.ground_size()
        return tuple(tuple(w[i * self.n + j] for j in range(self.n)) for i in range(d))

    def contains(self, v) -> bool:
        # The base rejects a column sum with an entry above 1.
        return self._is_vector(v) and self.base.contains(tuple(map(sum, self._unflatten(v))))

    def maximize(self, w):
        self._check_weights(w)
        x = lift_maximize(self.base, self.n, self._unflatten(w))
        return tuple(v for row in x for v in row)


def orthogonalize(x):
    """Zero all but the leftmost 1 in every row: the stacked answers of the
    greedy DUP, reduced to the round that covered each element first."""
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


def disjoint_union_of_lift(system: ExplicitSystem, n: int) -> set:
    """All sums of n support-disjoint lift-feasible matrices, by full
    enumeration (use only for tiny d and n)."""
    d = system.ground_size()
    lifted = LiftedOracle(system, n)
    members = [flat for flat in product((0, 1), repeat=d * n) if lifted.contains(flat)]
    out = set()

    def rec(start, acc, count):
        if count == n:
            x = tuple(tuple(acc[i * n + j] for j in range(n)) for i in range(d))
            out.add(x)
            return
        for idx in range(start, len(members)):
            m = members[idx]
            if all(a + b <= 1 for a, b in zip(acc, m)):
                rec(idx, tuple(a + b for a, b in zip(acc, m)), count + 1)

    rec(0, (0,) * (d * n), 0)
    return out


def greedy_dup_by_stacking(oracle, k: int, w):
    """Reference greedy DUP: stack the answers of each round as a matrix,
    orthogonalize it (leftmost 1 per row) and read the columns back."""
    from shiftopt import OrthogonalSelection, columns, from_columns

    d = oracle.ground_size()
    remaining = list(w)
    picks = []
    for _ in range(k):
        s = oracle.maximize(remaining)
        if not any(s):
            break
        picks.append(s)
        for i, bit in enumerate(s):
            if bit:
                remaining[i] = 0
    cols = list(columns(orthogonalize(from_columns(picks)))) if picks else []
    cols.extend([(0,) * d] * (k - len(cols)))
    covered = [any(col[i] for col in cols) for i in range(d)]
    value = sum(wi for wi, hit in zip(w, covered) if hit)
    return OrthogonalSelection(tuple(cols), value)


def constant_shifted_by_lift(oracle, c, n: int):
    """Reference constant-ratio algorithm: the greedy DUP over the flattened
    n-lift (LiftedOracle), each selected lift matrix collapsed into one
    output column by summing its columns.  Expects shifted costs."""
    from shiftopt import ApproxResult, from_columns, greedy_ratio, shifted_value

    d = oracle.ground_size()
    flat = [c[i][j] for i in range(d) for j in range(n)]
    sel = greedy_dup_by_stacking(LiftedOracle(oracle, n), n, flat)
    out_cols = [
        tuple(sum(col[i * n + j] for j in range(n)) for i in range(d))
        for col in sel.columns
    ]
    y = from_columns(out_cols)
    return ApproxResult(y, shifted_value(c, y), None, greedy_ratio(n))


def constant_shifted_by_round_rebuild(oracle, c, n: int):
    """Reference constant-ratio algorithm with the round weights rebuilt
    from the congestion counters every round: c[i][0] while element i is
    uncovered, then c[i][m[i]] while that entry exists and is positive,
    else 0.  A selection of a covered element of weight 0 covers nothing."""
    from shiftopt import ApproxResult, greedy_ratio

    m = [0] * len(c)
    out = [[0] * n for _ in c]
    for r in range(n):
        w = [
            row[0] if mi == 0 else row[mi] if mi < n and row[mi] > 0 else 0
            for row, mi in zip(c, m)
        ]
        s = oracle.maximize(w)
        if not any(s):
            break
        for i, bit in enumerate(s):
            if bit and (m[i] == 0 or w[i] > 0):
                out[i][r] = 1
                m[i] += 1
    value = sum(sum(row[:mi]) for row, mi in zip(c, m))
    return ApproxResult(tuple(map(tuple, out)), value, None, greedy_ratio(n))


def uniform_maximize_by_key_sort(oracle: UniformMatroid, w):
    """Reference uniform oracle: sort by (-w[i], i) and take the positive
    elements among the first `rank`."""
    order = sorted(range(oracle.d), key=lambda i: (-w[i], i))
    s = [0] * oracle.d
    for i in order[: oracle.rank]:
        if w[i] > 0:
            s[i] = 1
    return tuple(s)


def partition_maximize_by_key_sort(oracle: PartitionMatroid, w):
    """Reference partition oracle: per block, sort by (-w[i], i) and take
    the positive elements among the first `capacity`."""
    s = [0] * oracle.d
    for elems, cap in oracle.blocks:
        order = sorted(elems, key=lambda i: (-w[i], i))
        for i in order[:cap]:
            if w[i] > 0:
                s[i] = 1
    return tuple(s)


class UnionFind:
    """Union-find over 0..n-1 with path halving."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def graphic_maximize_by_union_find(oracle: GraphicMatroid, w):
    """Reference graphic oracle: Kruskal over all declared vertices, edges
    sorted by (-w[i], i), stopping at the first nonpositive weight."""
    order = sorted(range(len(oracle.edges)), key=lambda i: (-w[i], i))
    uf = UnionFind(oracle.num_vertices)
    s = [0] * len(oracle.edges)
    for i in order:
        if w[i] <= 0:
            break
        if uf.union(*oracle.edges[i]):
            s[i] = 1
    return tuple(s)


def graphic_contains_by_union_find(oracle: GraphicMatroid, v) -> bool:
    """Reference forest test over all declared vertices."""
    if len(v) != len(oracle.edges) or any(b not in (0, 1) for b in v):
        return False
    uf = UnionFind(oracle.num_vertices)
    return all(uf.union(a, b) for bit, (a, b) in zip(v, oracle.edges) if bit)


def level_candidate_by_cleaning(oracle, c, n: int, k: int, copies: int):
    """Reference duplication level: solve DUP with k columns (the greedy),
    repeat each column `copies` times, pad with zero columns to width n,
    clean, and evaluate the cleaned matrix."""
    from shiftopt import clean, from_columns, greedy_dup, shifted_value

    d = oracle.ground_size()
    if not (k >= 1 and copies >= 1 and k * copies <= n):
        raise ValueError(f"invalid level: k={k}, copies={copies}, n={n}")
    w = []
    for row in c:
        best, run = 0, 0
        for q in range(copies):
            run += row[q]
            best = max(best, run)
        w.append(best)
    cols = []
    for col in greedy_dup(oracle, k, w).columns:
        cols.extend([col] * copies)
    cols.extend([(0,) * d] * (n - len(cols)))
    cleaned = clean(c, from_columns(cols))
    return cleaned, shifted_value(c, cleaned)


SYSTEM_KINDS = ("uniform", "partition", "graphic", "bipartite", "closed", "explicit")


@st.composite
def explicit_lists(draw):
    """Valid explicit member lists over d <= 4 elements, closed or not."""
    d = draw(st.integers(0, 4))
    vectors = draw(
        st.lists(st.tuples(*[st.integers(0, 1)] * d), min_size=1, max_size=2**d, unique=True)
    )
    if draw(st.booleans()):
        vectors = list(down_close(vectors))
    return vectors


@st.composite
def systems(draw, max_d: int = 7):
    """Any system kind the oracles implement, ground size 0..max_d; "explicit"
    systems need not be downward closed nor contain the zero vector."""
    kind = draw(st.sampled_from(SYSTEM_KINDS))
    d = draw(st.integers(0, max_d))
    if kind == "uniform":
        return UniformMatroid(d, draw(st.integers(0, d)))
    if kind == "partition":
        # block label per element; -1 leaves the element in no block
        labels = draw(st.lists(st.integers(-1, 2), min_size=d, max_size=d))
        caps = draw(st.lists(st.integers(0, 2), min_size=3, max_size=3))
        blocks = tuple(
            (tuple(i for i in range(d) if labels[i] == b), caps[b])
            for b in range(3)
            if b in labels
        )
        return PartitionMatroid(d, blocks)
    if kind in ("graphic", "bipartite"):
        left = draw(st.integers(1, 4))
        right = draw(st.integers(1, 4)) if kind == "bipartite" else left
        edges = tuple(
            draw(st.lists(
                st.tuples(st.integers(0, left - 1), st.integers(0, right - 1)),
                min_size=d, max_size=d,
            ))
        )
        if kind == "graphic":
            return GraphicMatroid(left, edges)
        return BipartiteMatchings(BipartiteGraph(left, right, edges))
    vectors = st.tuples(*[st.integers(0, 1)] * d)
    if kind == "closed":
        return ExplicitSystem.closed(draw(st.lists(vectors, max_size=3)) or [(0,) * d])
    members = draw(st.lists(vectors, min_size=1, max_size=8, unique=True))
    return ExplicitSystem(tuple(members))


def costs(d: int, n: int, lo: int = -5, hi: int = 8, shifted: bool = False):
    """Strategy for d x n integer cost matrices, rows nonincreasing if shifted."""
    row = st.lists(st.integers(lo, hi), min_size=n, max_size=n)
    if shifted:
        row = row.map(lambda r: sorted(r, reverse=True))
    return st.lists(row.map(tuple), min_size=d, max_size=d).map(tuple)


class CountingOracle(IndependenceOracle):
    """Wraps an oracle and records every answer maximize returns."""

    def __init__(self, base: IndependenceOracle) -> None:
        self.base = base
        self.answers: list[tuple[int, ...]] = []

    def ground_size(self) -> int:
        return self.base.ground_size()

    def contains(self, v) -> bool:
        return self.base.contains(v)

    def maximize(self, w):
        s = self.base.maximize(w)
        self.answers.append(s)
        return s
