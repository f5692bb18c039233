"""Exact baselines, reduction gadgets, random instances, and the file format.

Brute-force optimizers enumerate multisets of system members (the shifted
objective is invariant under column permutation, so multisets suffice) and
are guarded by an explicit candidate budget: exceeding it raises, never
truncates silently.  They take any system kind and list the members of one
that is not an explicit list themselves, stopping as soon as the members
are too many for their multisets to fit the budget.

The instance file format is UTF-8 JSON with 1-based element and vertex
indices, mirroring the usual [d] convention; vector strings put element 1
at the leftmost character.  In-memory indices are 0-based throughout.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass
from itertools import chain, combinations_with_replacement, count, islice, product
from math import comb

from .core import (
    _EXACT_INT,
    Matrix,
    Vector,
    check_cost_shape,
    check_value_tables,
    congestion,
    dims,
    from_columns,
    matrix,
)
from .dup import OrthogonalSelection
from .oracles import (
    BipartiteGraph,
    BipartiteMatchings,
    ExplicitSystem,
    GraphicMatroid,
    PartitionMatroid,
    UniformMatroid,
    _by_size,
    _canonical,
    _closure,
    _numbering,
    _strings,
    _vectors,
)

DEFAULT_BUDGET = 10**7

SystemSpec = (
    ExplicitSystem | UniformMatroid | PartitionMatroid | GraphicMatroid | BipartiteMatchings
)


class EnumerationBudgetExceeded(RuntimeError):
    """An exact enumeration would evaluate more candidates than allowed."""


class InstanceFormatError(ValueError):
    """Malformed instance document; the message carries position or key path."""


@dataclass(frozen=True)
class Meta:
    """Optional instance annotations."""

    target: int | None = None
    optimum: int | None = None
    description: str | None = None


@dataclass(frozen=True)
class Instance:
    """A serializable problem: a system, a column count n, costs, and metadata."""

    system: SystemSpec
    n: int
    c: Matrix
    meta: Meta | None = None

    def __post_init__(self) -> None:
        c = matrix(self.c)
        check_cost_shape(c, self.n, self.system.ground_size())
        object.__setattr__(self, "c", c)


@dataclass(frozen=True)
class PrescribedCongestion:
    """Per-element admissible congestion sets C_i, each a subset of {0..n}."""

    n: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        # Gadgets repeat a few sets many times, so each distinct set is
        # converted and checked once, at its first element.
        converted: dict[frozenset, frozenset[int]] = {}
        sets = []
        for i, key in enumerate(map(frozenset, self.sets), 1):
            s = converted.get(key)
            if s is None:
                s = converted[key] = frozenset(map(int, key))
                if not s:
                    raise ValueError(f"congestion set for element {i} is empty")
                if any(v < 0 or v > self.n for v in s):
                    raise ValueError(f"congestion set for element {i} must lie in 0..{self.n}")
            sets.append(s)
        object.__setattr__(self, "sets", tuple(sets))


CostTables = tuple[tuple[int, ...], ...]


def _check_budget(candidates: int, budget: int, what: str) -> None:
    if candidates > budget:
        raise EnumerationBudgetExceeded(
            f"{what}: {candidates} candidates exceed budget {budget}"
        )


def _best_multiset(
    members: Sequence[Vector],
    rows: Sequence[Sequence[int]],
    n: int,
    budget: int,
    what: str,
    ceiling: int | None = None,
) -> tuple[int | None, tuple[int, ...]]:
    """Best n-multiset of members when the q-th use of element i gains
    rows[i][q - 1]: its value and member indices, (0, ()) for n = 0, or
    (None, ()) when there are no members.  Raises EnumerationBudgetExceeded,
    naming the search `what`, when there are more multisets than `budget`.

    Multisets are visited in list order with nondecreasing indices and only
    a strictly better value replaces the incumbent, so the first maximizer
    wins.  The search stops at the first value equal to `ceiling`, which the
    caller guarantees no multiset exceeds.

    A prefix skips its scan of two or more last picks when its value plus
    the positive next gains of the elements of members from its last index
    on is at most the incumbent: every last pick it would score uses only
    those elements, so none of its totals is strictly better, and the
    multisets it skips could not have replaced the incumbent or reached
    `ceiling`, which no value exceeds.  Values, witnesses and ceiling stops
    are those of the full enumeration.
    """
    # comb(-1, 0) would raise; no members have one 0-multiset and no other.
    _check_budget(comb(max(len(members) + n - 1, 0), n), budget, what)
    if n == 0:
        return 0, ()
    supports = [tuple(i for i, b in enumerate(v) if b) for v in members]
    count = len(members)
    first = [row[0] for row in rows]
    # The first reach[start] keys of `held` are the elements of members
    # start.., each added at its last holder as the members are read backwards.
    held: dict[int, None] = {}
    reach = [0] * count
    for idx in reversed(range(count)):
        held |= dict.fromkeys(supports[idx])
        reach[idx] = len(held)
    best_val: int | None = None
    best_pick: tuple[int, ...] = ()
    # The (n - 1)-prefixes come in lexicographic order and each one's last
    # pick starts at its own last index, so multisets come in the order above.
    for prefix in combinations_with_replacement(range(count), n - 1):
        gain = first.copy()
        uses = [0] * len(rows)
        value = 0
        for idx in prefix:
            for i in supports[idx]:
                value += gain[i]
                uses[i] += 1
                gain[i] = rows[i][uses[i]]
        start = prefix[-1] if prefix else 0
        # The bound costs about as much as scoring one member, so a scan of
        # the last member alone always runs.
        if start < count - 1 and best_val is not None:
            tail = map(gain.__getitem__, islice(held, reach[start]))
            if value + sum(filter((0).__lt__, tail)) <= best_val:
                continue
        for idx in range(start, count):
            total = value + sum(map(gain.__getitem__, supports[idx]))
            if best_val is None or total > best_val:
                best_val, best_pick = total, (*prefix, idx)
                if total == ceiling:
                    return best_val, best_pick
    return best_val, best_pick


def brute_force_sco(
    system: SystemSpec, c: Matrix, n: int, budget: int = DEFAULT_BUDGET
) -> tuple[int, Matrix]:
    """Exact shifted optimum over multisets of n members, with a witness.

    The witness is the first optimum in the enumeration order (members in
    list order, or canonical order for a system that is not an explicit
    list, with nondecreasing indices), so results are reproducible.
    """
    check_cost_shape(c, n, system.ground_size())
    what = "shifted brute force"
    members = _members(system, budget, n, what)
    best_val, best_pick = _best_multiset(members, c, n, budget, what)
    assert best_val is not None
    witness = from_columns([members[i] for i in best_pick])
    return best_val, witness


def brute_force_dup(
    system: SystemSpec, k: int, w: Sequence[int], budget: int = DEFAULT_BUDGET
) -> tuple[int, OrthogonalSelection]:
    """Exact disjoint union optimum over k-multisets of members.

    This is the shifted search with rows (w_i, -P, ..., -P), P = 2|w| + 1
    (|w| the sum of absolute weights): only the first use of an element
    pays, and any overlap loses more than all weights together, so the
    first disjoint optimum in the enumeration order wins, and a value below
    -|w| means that no disjoint selection exists.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    system._check_weights(w)
    total = sum(map(abs, w))
    penalty = (-2 * total - 1,) * (k - 1)
    rows = [(wi, *penalty) for wi in w]
    what = "disjoint union brute force"
    members = _members(system, budget, k, what)
    best_val, best_pick = _best_multiset(members, rows, k, budget, what)
    if best_val is None or best_val < -total:
        raise ValueError("no selection of k pairwise disjoint members exists")
    cols = tuple(members[i] for i in best_pick)
    return best_val, OrthogonalSelection(cols, best_val)


def brute_force_generalized(
    system: SystemSpec, tables: CostTables, n: int, budget: int = DEFAULT_BUDGET
) -> int:
    """Exact optimum of sum_i f_i(congestion_i) over multisets of n members."""
    check_value_tables(tables, n, system.ground_size())
    increments = [tuple(b - a for a, b in zip(t, t[1:])) for t in tables]
    what = "generalized brute force"
    members = _members(system, budget, n, what)
    best, _ = _best_multiset(members, increments, n, budget, what)
    assert best is not None
    return best + sum(t[0] for t in tables)


def congestion_feasible(
    vectors: Sequence[Vector], pc: PrescribedCongestion, budget: int = DEFAULT_BUDGET
) -> bool:
    """Decide by enumeration whether some n-multiset of the given vectors hits
    every prescribed congestion set: the shifted optimum under the costs of
    congestion_to_cost reaches its target exactly then."""
    d = len(pc.sets)
    for v in vectors:
        if len(v) != d:
            raise ValueError("vector length does not match congestion sets")
    rows, target = congestion_to_cost(pc)
    value, _ = _best_multiset(
        vectors, rows, pc.n, budget, "congestion feasibility", ceiling=target
    )
    return value == target


def congestion_to_cost(pc: PrescribedCongestion) -> tuple[Matrix, int]:
    """Encode a prescribed congestion instance as costs in {-1, 0, 1}.

    With f_i(j) = 0 for admissible congestions and -1 otherwise, the cost
    row is the forward difference of f_i; the shifted optimum is at most
    the returned target and reaches it exactly when the prescription is
    feasible.
    """
    rows = []
    missing_zero = 0
    for cs in pc.sets:
        f = [0 if j in cs else -1 for j in range(pc.n + 1)]
        rows.append(tuple(f[j] - f[j - 1] for j in range(1, pc.n + 1)))
        if 0 not in cs:
            missing_zero += 1
    return tuple(rows), missing_zero


def game_to_cost(tables: CostTables) -> Matrix:
    """Costs for which the shifted value equals sum_i f_i(0) minus the social
    cost, turning social-cost minimization into shifted maximization.

    Convex (nondecreasing-difference) tables yield nonincreasing rows.
    """
    if not tables:
        return ()
    n = len(tables[0]) - 1
    if n < 1 or any(len(t) != n + 1 for t in tables):
        raise ValueError("value tables must share a common length n+1 with n >= 1")
    return tuple(tuple(t[j - 1] - t[j] for j in range(1, n + 1)) for t in tables)


def social_cost(tables: CostTables, x: Matrix) -> int:
    """Sum of per-element costs evaluated at the congestion of x."""
    check_value_tables(tables, dims(x)[1], len(x))
    m = congestion(x)
    return sum(t[mi] for t, mi in zip(tables, m))


def body_to_system(T: ExplicitSystem, c: Matrix) -> tuple[ExplicitSystem, Matrix]:
    """Lift costs from a uniform-cardinality body to its downward closure.

    Adding 2|c| + 1 to every entry makes every optimizer over the closure
    use only maximum-cardinality columns, i.e. members of the body, and
    preserves the ranking of body solutions.  The closure has at most
    min(|T| 2^card, 2^d) members (card ones per body vector, d elements);
    when that exceeds DEFAULT_BUDGET, EnumerationBudgetExceeded is raised
    before anything is built.
    """
    cards = {sum(v) for v in T.vectors}
    if len(cards) != 1:
        raise ValueError("body vectors must all have the same number of ones")
    # Costs of any width n >= 1 fit a body; only the rows must match it.
    d = T.ground_size()
    check_cost_shape(c, dims(c)[1] or 1, d)
    card = cards.pop()
    _check_budget(min(len(T.vectors) * 2**card, 2**d), DEFAULT_BUDGET, "body closure")
    return ExplicitSystem.closed(T.vectors), bump_costs(c)[1]


def bump_costs(c: Matrix) -> tuple[int, Matrix]:
    """The bump 2|c| + 1 (|c| the sum of absolute entries) and c with the
    bump added to every entry.  A solution with t ones gains bump * t, so
    targets over bumped costs shift by bump times the ones a target
    solution has."""
    bump = 2 * sum(abs(v) for row in c for v in row) + 1
    return bump, tuple(tuple(v + bump for v in row) for row in c)


# ---------------------------------------------------------------------------
# graphs and hardness gadgets


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; edge order is significant (edge = ground element)."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        edges = tuple((min(int(u), int(v)), max(int(u), int(v))) for u, v in self.edges)
        object.__setattr__(self, "edges", edges)
        seen = set()
        for u, v in edges:
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError(f"edge ({u + 1},{v + 1}) references missing vertex")
            if u == v:
                raise ValueError(f"self-loop at vertex {u + 1}")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u + 1},{v + 1})")
            seen.add((u, v))

    def isolated_vertex(self) -> int | None:
        """The lowest vertex on no edge, or None; found from the edge list,
        so its cost does not grow with the declared vertex count."""
        touched = set(chain.from_iterable(self.edges))
        if len(touched) == self.num_vertices:
            return None
        return next(v for v in count() if v not in touched)

    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.num_vertices
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)


def independent_set_gadget(graph: Graph, n: int) -> Instance:
    """Vertex-star system whose shifted optimum is 0 iff the graph has an
    independent set of size n.

    Columns are indicators of the edges incident on a vertex; the first
    chosen column per edge is free, every further one costs 1.  Duplicate
    star vectors (e.g. both endpoints of an isolated edge) are listed once.
    A vertex on no edge has an empty star that could be repeated for free,
    so such a graph raises ValueError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    isolated = graph.isolated_vertex()
    if isolated is not None:
        raise ValueError(f"vertex {isolated + 1} lies on no edge")
    d = len(graph.edges)
    # A dict keeps the first of equal stars, in vertex order.
    stars = dict.fromkeys(
        tuple(1 if v in e else 0 for e in graph.edges) for v in range(graph.num_vertices)
    )
    system = ExplicitSystem(tuple(stars))
    c = tuple((0,) + (-1,) * (n - 1) for _ in range(d))
    meta = Meta(
        target=0,
        description=f"star system of a graph; optimum 0 iff an independent set of size {n} exists",
    )
    return Instance(system, n, c, meta)


def hexagon_gadget(
    sets: Sequence[Iterable[int]], k: int
) -> tuple[BipartiteGraph, PrescribedCongestion]:
    """Exact-cover-by-3-sets gadget over two perfect matchings.

    For m given 3-subsets of {0..k-1}, builds a bipartite graph with 12m
    edges and 6m + 2k vertices: one hexagon (6-cycle) per subset plus
    connector vertices a_j, b_j per universe element.  Hexagon edges may be
    used by at most one of the two matchings ({0,1}); connector edges by
    none or both ({0,2}).  Two perfect matchings meeting the prescription
    exist iff some subfamily partitions the universe.

    Vertex ids: side order is u(i,r) blocks then b_j on the left, v(i,r)
    blocks then a_j on the right, lexicographic in (i, r) and in j.
    """
    m = len(sets)
    if m < 1:
        raise ValueError("at least one subset required")
    hexagons: list[tuple[int, int]] = []
    connectors: list[tuple[int, int]] = []
    for i, f in enumerate(sets):
        triple = tuple(sorted(int(e) for e in f))
        if len(triple) != 3 or len(set(triple)) != 3:
            raise ValueError(f"subset {i + 1} must have exactly 3 distinct elements")
        if triple[0] < 0 or triple[-1] >= k:
            raise ValueError(f"subset {i + 1} has elements outside 1..{k}")
        # u(i, r) and v(i, r) are both 3i + r; a_j and b_j are both 3m + j.
        x, y, z = 3 * i, 3 * i + 1, 3 * i + 2
        a_r, a_s, a_t = (3 * m + j for j in triple)
        hexagons += [(x, x), (y, x), (y, y), (z, y), (z, z), (x, z)]
        connectors += [(x, a_r), (y, a_s), (z, a_t), (a_r, x), (a_s, y), (a_t, z)]
    graph = BipartiteGraph(3 * m + k, 3 * m + k, (*hexagons, *connectors))
    csets = tuple([frozenset({0, 1})] * (6 * m) + [frozenset({0, 2})] * (6 * m))
    return graph, PrescribedCongestion(2, csets)


def coloring_gadget(graph: Graph) -> PrescribedCongestion:
    """Prescription over two perfect matchings of a cubic graph; feasible iff
    two edge-disjoint perfect matchings exist (iff 3-edge-colorable)."""
    # An isolated vertex is found from the edge list before degrees() sizes
    # its work by the declared vertex count.
    if graph.isolated_vertex() is not None or any(deg != 3 for deg in graph.degrees()):
        raise ValueError("graph must be 3-regular")
    return PrescribedCongestion(2, tuple(frozenset({0, 1}) for _ in graph.edges))


def bipartite_to_graph(g: BipartiteGraph) -> Graph:
    """View a bipartite graph as a plain graph (right ids shifted by `left`)."""
    return Graph(g.left + g.right, tuple((l, g.left + r) for l, r in g.edges))


def perfect_matchings(graph: Graph, budget: int = 10**6) -> tuple[Vector, ...]:
    """All perfect matchings as edge indicator vectors, by backtracking.

    At each step the lowest unmatched vertex with fewest unmatched partners
    is matched (fail-first), so infeasible graphs die quickly.  free[v]
    counts v's unmatched partners and by_free[k] holds the unmatched
    vertices with k of them; matching or freeing a vertex updates only its
    partners, so a search node costs O(degree).  The search keeps its own
    stack, not the interpreter's.  A graph with an isolated vertex has none,
    found before any per-vertex work.  The matchings found are held as edge
    masks until the search ends.
    """
    nv = graph.num_vertices
    d = len(graph.edges)
    if nv % 2 or graph.isolated_vertex() is not None:
        return ()
    incident: list[list[tuple[int, int]]] = [[] for _ in range(nv)]
    for idx, (x, y) in enumerate(graph.edges):
        bit = 1 << (d - 1 - idx)
        incident[x].append((bit, y))
        incident[y].append((bit, x))
    free = [len(opts) for opts in incident]
    by_free: list[set[int]] = [set() for _ in range(max(free, default=0) + 1)]
    for v, k in enumerate(free):
        by_free[k].add(v)
    matched = [False] * nv

    def flip(v: int, step: int) -> None:
        """Match v (step -1) or free it (step 1): v leaves or rejoins its
        bucket, and each partner's count moves by step."""
        matched[v] = step < 0
        by_free[free[v]] ^= {v}
        for _, w in incident[v]:
            if not matched[w]:
                by_free[free[w]].remove(w)
                by_free[free[w] + step].add(w)
            free[w] += step

    out: list[int] = []
    stack: list[list] = []  # frames [mask before the pick, pick, its options, options tried]
    mask = nodes = 0
    while True:
        nodes += 1
        if nodes > budget:
            raise EnumerationBudgetExceeded(
                f"perfect matching enumeration exceeded budget {budget}"
            )
        fewest = next((bucket for bucket in by_free if bucket), None)
        if fewest is None:
            out.append(mask)
        elif fewest is not by_free[0]:  # else an unmatched vertex has no partner left
            pick = min(fewest)
            opts = [(bit, o) for bit, o in incident[pick] if not matched[o]]
            stack.append([mask, pick, opts, 0])
            flip(pick, -1)
        while stack:  # free the last option tried, then match the next or backtrack
            frame = stack[-1]
            base, pick, opts, tried = frame
            if tried:
                flip(opts[tried - 1][1], 1)
            if tried < len(opts):
                bit, o = opts[tried]
                frame[3] += 1
                flip(o, -1)
                mask = base | bit
                break
            flip(pick, 1)
            stack.pop()
        else:
            return _vectors(out, d)


def _matchings(ends: Sequence[tuple[int, int]], limit: int, message: str) -> list[int]:
    """The edge masks (edge i at bit d-1-i) of all matchings, the empty one
    included, of the edges `ends`, parallel ones allowed, in no set order;
    raises EnumerationBudgetExceeded(message) past `limit` of them.

    Edge i extends each matching of the edges before it that touches
    neither of its ends.  A matching is one int, its edge mask above the
    mask of its vertices (numbered over the touched ones only), and at most
    limit + 1 matchings are ever held."""
    d = len(ends)
    local = _numbering(chain.from_iterable(ends))
    low = len(local)
    grown = [0]
    for i, (x, y) in enumerate(ends):
        if len(grown) > limit:
            break
        pair = 1 << local[x] | 1 << local[y]
        edge = 1 << (d - 1 - i + low) | pair
        fresh = (g | edge for g in grown if not g & pair)
        grown = [*grown, *islice(fresh, limit + 1 - len(grown))]
    if len(grown) > limit:
        raise EnumerationBudgetExceeded(message)
    return [g >> low for g in grown]


def all_matchings(graph: Graph, budget: int = DEFAULT_BUDGET) -> tuple[Vector, ...]:
    """All matchings (including empty) as edge indicator vectors, in vector order."""
    message = f"matching enumeration exceeded budget {budget}"
    return _vectors(sorted(_matchings(graph.edges, budget, message)), len(graph.edges))


def exact_cover_exists(sets: Sequence[Iterable[int]], k: int) -> bool:
    """Decide whether some pairwise disjoint subfamily covers {0..k-1}
    exactly, by growing the set of unions of pairwise disjoint subfamilies
    one given set at a time (never more than 2^k unions, nor 2^m for m sets)."""
    reach = {0}
    for f in sets:
        mask = 0
        for e in f:
            if not 0 <= e < k:
                raise ValueError(f"element {e + 1} outside 1..{k}")
            mask |= 1 << e
        reach |= {r | mask for r in reach if not r & mask}
    return (1 << k) - 1 in reach


# ---------------------------------------------------------------------------
# random instances and serialization


def random_instance(
    seed: int,
    *,
    d: int,
    n: int,
    set_size: int,
    cost_range: int,
    shifted: bool,
) -> Instance:
    """Reproducible random instance over a downward-closed explicit system.

    Draws a few random generator vectors, takes the downward closure, and
    trims random maximal members until at most set_size remain (trimming a
    maximal member preserves closure).  Costs are uniform integers in
    [-cost_range, cost_range]; with shifted=True each row is sorted
    nonincreasing.

    Members are int masks with element i at bit d-1-i, so mask order is
    the order of the 0/1 tuples.  On a closed family a member is maximal
    iff no one-element extension is a member, and removing a maximal m can
    only make the members m minus one element maximal.  Every member lies
    inside the generators' union, so only its elements are ever tried as
    extensions, and the masks kept grow with that union, not with d.
    """
    if d < 1 or n < 1 or set_size < 1 or cost_range < 0:
        raise ValueError("d, n, set_size must be >= 1 and cost_range >= 0")
    rng = random.Random(seed)
    bits: set[int] = set()
    gens = []
    for _ in range(rng.randint(1, 3)):
        picks = [1 << (d - 1 - i) for i in rng.sample(range(d), rng.randint(1, min(4, d)))]
        bits.update(picks)
        gens.append(sum(picks))
    members = _closure(gens)

    def maximal(m: int) -> bool:
        return not any(m | b in members for b in bits if not m & b)

    tops = set(filter(maximal, members))
    while len(members) > set_size:
        m = rng.choice(sorted(tops))
        members.remove(m)
        tops.remove(m)
        tops.update(filter(maximal, (m ^ b for b in bits if m & b)))
    system = ExplicitSystem(_strings(sorted(members, key=_by_size), d))
    rows = []
    for _ in range(d):
        row = [rng.randint(-cost_range, cost_range) for _ in range(n)]
        if shifted:
            row.sort(reverse=True)
        rows.append(tuple(row))
    return Instance(system, n, tuple(rows), None)


def _members(system: SystemSpec, budget: int, n: int = 0, what: str = "") -> Sequence[Vector]:
    """The members of a system: an explicit list's vectors in list order,
    or the members of any other system in canonical order.  Bipartite
    matchings are enumerated, at most budget of them; any other system
    tests each of its 2^d vectors, at most budget of them.  For a brute
    force named `what` over n >= 1 columns, the listing stops at the first
    member past the largest count M with comb(M + n - 1, n) <= budget and
    raises EnumerationBudgetExceeded."""
    if isinstance(system, ExplicitSystem):
        return system.vectors
    d = system.ground_size()
    limit, message = budget, f"matching enumeration exceeded budget {budget}"
    if n >= 1:
        # comb(M + n - 1, n) grows with M and is at least M, so M lies in 0..budget.
        fits = bisect_right(range(budget + 1), budget, key=lambda m: comb(m + n - 1, n))
        limit = max(fits - 1, 0)
        message = (
            f"{what}: more than {limit} members, so at least {comb(limit + n, n)} "
            f"candidates, exceed budget {budget}"
        )
    if isinstance(system, BipartiteMatchings):
        g = system.graph
        masks = _matchings([(l, g.left + r) for l, r in g.edges], limit, message)
    else:
        _check_budget(2**d, budget, "membership enumeration")
        # product lists the vectors in vector order, so the k-th one has mask k.
        # At most 2^d <= budget of them are members, so only a cap is exceeded.
        found = (k for k, v in enumerate(product((0, 1), repeat=d)) if system.contains(v))
        masks = list(islice(found, limit + 1))
        if len(masks) > limit:
            raise EnumerationBudgetExceeded(message)
    return _canonical(masks, d)


def explicit_members(system: SystemSpec, budget: int = DEFAULT_BUDGET) -> ExplicitSystem:
    """Materialize any supported system as an explicit member list, in
    canonical order."""
    if isinstance(system, ExplicitSystem):
        return system
    return ExplicitSystem(_members(system, budget))


def serialize(instance: Instance) -> bytes:
    """Instance to canonical JSON bytes (sorted keys, two-space indent)."""
    system = instance.system
    obj: dict = {"version": 1, "n": instance.n, "c": [list(row) for row in instance.c]}
    if isinstance(system, ExplicitSystem):
        obj["system"] = {
            "kind": "explicit",
            "vectors": _strings(system._masks, system.ground_size()),
            "downward_closed": system.downward_closed,
        }
    elif isinstance(system, UniformMatroid):
        obj["system"] = {"kind": "uniform", "d": system.d, "rank": system.rank}
    elif isinstance(system, PartitionMatroid):
        obj["system"] = {
            "kind": "partition",
            "d": system.d,
            "blocks": [
                {"elements": [e + 1 for e in elems], "capacity": cap}
                for elems, cap in system.blocks
            ],
        }
    elif isinstance(system, GraphicMatroid):
        obj["system"] = {
            "kind": "graphic",
            "vertices": system.num_vertices,
            "edges": [[u + 1, v + 1] for u, v in system.edges],
        }
    elif isinstance(system, BipartiteMatchings):
        g = system.graph
        obj["system"] = {
            "kind": "bipartite",
            "left": g.left,
            "right": g.right,
            "edges": [[l + 1, r + 1] for l, r in g.edges],
        }
    else:
        raise TypeError(f"unsupported system type {type(system).__name__}")
    if instance.meta is not None:
        meta = {key: v for key, v in asdict(instance.meta).items() if v is not None}
        if meta:
            obj["meta"] = meta
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _want(obj: dict, path: str, key: str, kinds: tuple[type, ...], required: bool = True):
    if key not in obj:
        if required:
            raise InstanceFormatError(f"{path}: missing key {key!r}")
        return None
    val = obj[key]
    if isinstance(val, bool) and bool not in kinds:
        raise InstanceFormatError(f"{path}.{key}: expected {kinds[0].__name__}, got bool")
    if not isinstance(val, kinds):
        raise InstanceFormatError(
            f"{path}.{key}: expected {kinds[0].__name__}, got {type(val).__name__}"
        )
    return val


def _parse_int_pairs(raw, path: str, what: str) -> list[tuple[int, int]]:
    if not isinstance(raw, list):
        raise InstanceFormatError(f"{path}: expected a list of {what}")
    out = []
    for i, item in enumerate(raw):
        if (
            not isinstance(item, list)
            or len(item) != 2
            or any(isinstance(v, bool) or not isinstance(v, int) for v in item)
        ):
            raise InstanceFormatError(f"{path}[{i}]: expected a pair of integers")
        out.append((item[0], item[1]))
    return out


def _parse_system(obj, path: str) -> SystemSpec:
    if not isinstance(obj, dict):
        raise InstanceFormatError(f"{path}: expected an object")
    kind = _want(obj, path, "kind", (str,))
    try:
        if kind == "explicit":
            raw = _want(obj, path, "vectors", (list,))
            try:
                if not all(isinstance(s, str) for s in raw):
                    raise TypeError
                system = ExplicitSystem(tuple(raw))
            except (TypeError, ValueError):
                # A bad string outranks the constructor's errors, and so does the flag's type.
                for i, s in enumerate(raw):
                    if not isinstance(s, str) or s.strip("01"):
                        raise InstanceFormatError(
                            f"{path}.vectors[{i}]: expected a string of 0/1 characters"
                        ) from None
                _want(obj, path, "downward_closed", (bool,), required=False)
                raise
            flagged = _want(obj, path, "downward_closed", (bool,), required=False)
            if flagged and not system.downward_closed:
                raise InstanceFormatError(f"{path}: system flagged downward_closed is not closed")
            return system
        if kind == "uniform":
            return UniformMatroid(_want(obj, path, "d", (int,)), _want(obj, path, "rank", (int,)))
        if kind == "partition":
            d = _want(obj, path, "d", (int,))
            raw = _want(obj, path, "blocks", (list,))
            blocks = []
            for i, blk in enumerate(raw):
                if not isinstance(blk, dict):
                    raise InstanceFormatError(f"{path}.blocks[{i}]: expected an object")
                elems = _want(blk, f"{path}.blocks[{i}]", "elements", (list,))
                cap = _want(blk, f"{path}.blocks[{i}]", "capacity", (int,))
                if any(isinstance(e, bool) or not isinstance(e, int) for e in elems):
                    raise InstanceFormatError(
                        f"{path}.blocks[{i}].elements: expected integers"
                    )
                blocks.append((tuple(e - 1 for e in elems), cap))
            return PartitionMatroid(d, tuple(blocks))
        if kind == "graphic":
            nv = _want(obj, path, "vertices", (int,))
            pairs = _parse_int_pairs(obj.get("edges"), f"{path}.edges", "edges")
            return GraphicMatroid(nv, tuple((u - 1, v - 1) for u, v in pairs))
        if kind == "bipartite":
            left = _want(obj, path, "left", (int,))
            right = _want(obj, path, "right", (int,))
            pairs = _parse_int_pairs(obj.get("edges"), f"{path}.edges", "edges")
            return BipartiteMatchings(
                BipartiteGraph(left, right, tuple((l - 1, r - 1) for l, r in pairs))
            )
    except ValueError as exc:
        if isinstance(exc, InstanceFormatError):
            raise
        raise InstanceFormatError(f"{path}: {exc}") from exc
    raise InstanceFormatError(f"{path}.kind: unknown system kind {kind!r}")


def parse(data: bytes | str) -> Instance:
    """Parse instance bytes; malformed input raises InstanceFormatError with
    a line/column position (syntax) or key path (schema)."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        obj = json.loads(text)
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(f"byte {exc.start}: not valid UTF-8") from exc
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise InstanceFormatError("document nested too deeply") from exc
    except ValueError as exc:  # an integer literal longer than the interpreter's digit limit
        raise InstanceFormatError(str(exc)) from exc
    if not isinstance(obj, dict):
        raise InstanceFormatError("top level: expected an object")
    version = _want(obj, "top level", "version", (int,))
    if version != 1:
        raise InstanceFormatError(f"version: unsupported value {version}")
    system = _parse_system(obj.get("system"), "system")
    n = _want(obj, "top level", "n", (int,))
    raw_c = _want(obj, "top level", "c", (list,))
    rows = []
    for i, row in enumerate(raw_c):
        # JSON yields exact types, so a bool or float entry fails the type test.
        if not isinstance(row, list) or not _EXACT_INT.issuperset(map(type, row)):
            raise InstanceFormatError(f"c[{i}]: expected a list of integers")
        rows.append(tuple(row))
    meta = None
    if "meta" in obj:
        raw_meta = obj["meta"]
        if not isinstance(raw_meta, dict):
            raise InstanceFormatError("meta: expected an object")
        meta = Meta(
            target=_want(raw_meta, "meta", "target", (int,), required=False),
            optimum=_want(raw_meta, "meta", "optimum", (int,), required=False),
            description=_want(raw_meta, "meta", "description", (str,), required=False),
        )
    try:
        return Instance(system, n, tuple(rows), meta)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc
