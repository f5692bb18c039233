import json
import random
import re
import tracemalloc
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    LiftedOracle,
    best_multiset_by_recursion,
    congestion_feasible_by_tuples,
    costs,
    dup_first_optimum_by_disjoint_recursion,
    exact_cover_by_subfamilies,
    explicit_lists,
    generalized_value_by_tuples,
    matchings_by_tuples,
    perfect_matchings_by_tuples,
    rand_binary,
    rand_closed_system,
    rand_cost,
    random_instance_by_pairwise_scan,
    sco_first_optimum_by_multisets,
    sco_value_full_tuple_enum,
    systems,
)
from shiftopt import (
    DEFAULT_BUDGET,
    BipartiteGraph,
    BipartiteMatchings,
    EnumerationBudgetExceeded,
    ExplicitSystem,
    Graph,
    GraphicMatroid,
    Instance,
    InstanceFormatError,
    Meta,
    OrthogonalSelection,
    PartitionMatroid,
    PrescribedCongestion,
    UniformMatroid,
    all_matchings,
    bipartite_to_graph,
    body_to_system,
    brute_force_dup,
    brute_force_generalized,
    brute_force_sco,
    coloring_gadget,
    congestion,
    congestion_feasible,
    congestion_to_cost,
    convex_identical,
    exact_cover_exists,
    explicit_members,
    from_columns,
    game_to_cost,
    greedy_ratio,
    hexagon_gadget,
    independent_set_gadget,
    is_downward_closed,
    level_candidate,
    matrix,
    parse,
    perfect_matchings,
    random_instance,
    serialize,
    shifted_value,
    social_cost,
)
from shiftopt.core import first_unshifted_row
from shiftopt.instances import _best_multiset

TRIANGLE = Graph(3, ((0, 1), (1, 2), (0, 2)))
PATH3 = Graph(3, ((0, 1), (1, 2)))
K4 = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


def petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
    for i in range(5):
        edges.append((i, i + 5))
    for i in range(5):
        edges.append((5 + i, 5 + (i + 2) % 5))
    return Graph(10, tuple(edges))


def prism(m: int) -> Graph:
    """The cubic prism C_m x K_2: two m-cycles joined by a perfect matching."""
    edges = []
    for i in range(m):
        edges += [(i, (i + 1) % m), (m + i, m + (i + 1) % m), (i, m + i)]
    return Graph(2 * m, tuple(edges))


# --- exact baselines


def test_brute_force_sco_cross_checked_by_tuple_enumeration():
    sys_ = ExplicitSystem(((0, 0), (0, 1), (1, 0)))
    c = matrix([[3, 1], [2, 2]])
    opt, witness = brute_force_sco(sys_, c, 2)
    assert opt == 5
    assert shifted_value(c, witness) == 5
    assert sco_value_full_tuple_enum(sys_, c, 2) == 5


def test_brute_force_sco_nonpositive_costs():
    sys_ = ExplicitSystem.closed([(1, 1, 0), (0, 1, 1)])
    c = matrix([[-1, -2]] * 3)
    opt, witness = brute_force_sco(sys_, c, 2)
    assert opt == 0
    assert witness == ((0, 0), (0, 0), (0, 0))


def test_brute_force_sco_n1_matches_scan():
    rng = random.Random(1)
    for _ in range(25):
        d = rng.randint(1, 6)
        sys_ = rand_closed_system(rng, d, 16)
        c = rand_cost(rng, d, 1)
        opt, _ = brute_force_sco(sys_, c, 1)
        w = [row[0] for row in c]
        s = sys_.maximize(w)
        assert opt == sum(wi * si for wi, si in zip(w, s))


def test_brute_force_sco_matches_tuple_enumeration_random():
    rng = random.Random(2)
    for _ in range(20):
        d = rng.randint(1, 4)
        n = rng.randint(1, 3)
        sys_ = rand_closed_system(rng, d, 8)
        c = rand_cost(rng, d, n)
        opt, _ = brute_force_sco(sys_, c, n)
        assert opt == sco_value_full_tuple_enum(sys_, c, n)


def test_brute_force_dup_examples():
    sys_ = ExplicitSystem(((0, 0), (0, 1), (1, 0)))
    assert brute_force_dup(sys_, 2, (3, 5))[0] == 8

    singles = ExplicitSystem.closed([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    opt, sel = brute_force_dup(singles, 4, (5, -2, 7))
    assert opt == 12
    assert len(sel.columns) == 4

    assert brute_force_dup(singles, 2, (-1, 0, -3))[0] == 0

    overlapping = ExplicitSystem(((1, 1), (0, 1)))
    with pytest.raises(ValueError, match="no selection of k pairwise disjoint members"):
        brute_force_dup(overlapping, 2, (4, 1))
    assert brute_force_dup(overlapping, 1, (4, -1)) == (3, OrthogonalSelection(((1, 1),), 3))


def test_brute_force_generalized_examples():
    sys_ = ExplicitSystem.closed([(1, 0), (0, 1)])
    squares = ((0, 1, 4, 9), (0, 1, 4, 9))
    assert brute_force_generalized(sys_, squares, 3) == 9

    zeros = ((0, 0, 0), (0, 0, 0))
    assert brute_force_generalized(sys_, zeros, 2) == 0


def test_brute_force_generalized_linear_matches_sco():
    rng = random.Random(3)
    for _ in range(20):
        d = rng.randint(1, 5)
        n = rng.randint(1, 3)
        sys_ = rand_closed_system(rng, d, 12)
        tables = tuple(tuple(t for t in range(n + 1)) for _ in range(d))
        ones = tuple((1,) * n for _ in range(d))
        assert brute_force_generalized(sys_, tables, n) == brute_force_sco(sys_, ones, n)[0]


def bits(d: int):
    return st.tuples(*[st.integers(0, 1)] * d)


@st.composite
def explicit_systems(draw, max_d: int = 4):
    """Explicit systems in any list order, closed or not, d = 0 included."""
    d = draw(st.integers(0, max_d))
    members = draw(st.lists(bits(d), min_size=1, max_size=6, unique=True))
    return ExplicitSystem(tuple(members))


@settings(max_examples=300, deadline=None)
@given(explicit_systems(), st.integers(1, 3), st.data())
def test_brute_force_sco_returns_the_first_optimal_multiset(sys_, n, data):
    c = data.draw(costs(sys_.ground_size(), n))
    assert brute_force_sco(sys_, c, n) == sco_first_optimum_by_multisets(sys_, c, n)


@settings(max_examples=400, deadline=None)
@given(explicit_systems(), st.integers(1, 4), st.data())
def test_brute_force_dup_matches_the_disjoint_recursion(sys_, k, data):
    # non-closed systems, d = 0 and negative weights; overlaps must never win
    w = data.draw(st.lists(st.integers(-9, 9), min_size=sys_.ground_size(),
                           max_size=sys_.ground_size()))
    try:
        expected = dup_first_optimum_by_disjoint_recursion(sys_, k, w)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            brute_force_dup(sys_, k, w)
        return
    value, sel = brute_force_dup(sys_, k, w)
    assert (value, sel.columns) == expected
    assert sel.value == value


@settings(max_examples=300, deadline=None)
@given(explicit_systems(), st.integers(1, 3), st.data())
def test_brute_force_generalized_matches_tuple_enumeration(sys_, n, data):
    d = sys_.ground_size()
    # arbitrary tables: not convex, negative entries allowed
    table = st.lists(st.integers(-9, 9), min_size=n + 1, max_size=n + 1).map(tuple)
    tables = tuple(data.draw(st.lists(table, min_size=d, max_size=d)))
    assert brute_force_generalized(sys_, tables, n) == generalized_value_by_tuples(
        sys_, tables, n
    )


@st.composite
def multiset_searches(draw):
    """(members, rows, n) as the brute forces hand them to the shared
    multiset search: a closed, non-closed or empty member list, and
    arbitrary, shifted, disjoint-union-penalty or 0/+-1 congestion rows."""
    members = draw(explicit_lists() | st.just([]))
    d = len(members[0]) if members else draw(st.integers(0, 4))
    kind = draw(st.sampled_from(["arbitrary", "shifted", "dup", "congestion"]))
    # Congestion rows need n >= 1; any other search may take n = 0, members or none.
    n = draw(st.integers(1 if kind == "congestion" else 0, 4))
    if kind == "dup":
        w = draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d))
        penalty = (-2 * sum(map(abs, w)) - 1,) * (n - 1)
        rows = tuple((wi, *penalty) for wi in w)
    elif kind == "congestion":
        sets = draw(st.lists(st.frozensets(st.integers(0, n), min_size=1), min_size=d,
                             max_size=d))
        rows = congestion_to_cost(PrescribedCongestion(n, tuple(sets)))[0]
    else:
        rows = draw(costs(d, n, -9, 9, shifted=kind == "shifted"))
    return members, rows, n


@settings(max_examples=600, deadline=None)
@given(multiset_searches(), st.sampled_from(["none", "optimum", "above"]))
@example(([], ((1, 0),), 2), "none")
@example(([], ((),), 0), "none")
@example(([()], (), 3), "optimum")
@example(([(0, 0), (1, 0), (0, 1), (1, 1)], ((2,), (-1,)), 1), "above")
@example(([(1, 0), (0, 1), (1, 1)], ((1, 1), (1, 1)), 2), "none")
def test_best_multiset_returns_the_recursions_first_optimum(search, ceiling):
    # Ties are common at these sizes, so the first optimum must be kept too.
    members, rows, n = search
    best, _ = best_multiset_by_recursion(members, rows, n)
    ceiling = None if best is None or ceiling == "none" else best + (ceiling == "above")
    assert _best_multiset(members, rows, n, DEFAULT_BUDGET, "search", ceiling) == (
        best_multiset_by_recursion(members, rows, n, ceiling)
    )


def test_brute_force_sco_takes_more_columns_than_the_recursion_limit():
    c = ((1,) + (0,) * 1499,)
    assert brute_force_sco(UniformMatroid(1, 1), c, 1500) == (1, ((0,) * 1499 + (1,),))


@st.composite
def prescriptions(draw):
    """Vector lists (duplicates allowed, possibly empty) and prescriptions."""
    d = draw(st.integers(0, 4))
    n = draw(st.integers(1, 3))
    vectors = draw(st.lists(bits(d), max_size=6))
    sets = draw(st.lists(st.frozensets(st.integers(0, n), min_size=1), min_size=d, max_size=d))
    return vectors, PrescribedCongestion(n, tuple(sets))


@settings(max_examples=400, deadline=None)
@given(prescriptions())
@example(([], PrescribedCongestion(2, (frozenset({0}),))))
@example(([], PrescribedCongestion(1, ())))
@example(([()], PrescribedCongestion(3, ())))
@example(([(1, 0), (1, 0)], PrescribedCongestion(2, (frozenset({2}), frozenset({0})))))
@example(([(1, 1), (0, 1), (1, 1)], PrescribedCongestion(1, (frozenset({1}), frozenset({1})))))
def test_congestion_feasible_matches_tuple_enumeration(instance):
    vectors, pc = instance
    assert congestion_feasible(vectors, pc) == congestion_feasible_by_tuples(vectors, pc)


def test_budget_exceeded_is_an_error():
    sys_ = ExplicitSystem.closed([(1, 1, 1, 1)])
    c = rand_cost(random.Random(0), 4, 3)
    with pytest.raises(EnumerationBudgetExceeded):
        brute_force_sco(sys_, c, 3, budget=5)
    with pytest.raises(EnumerationBudgetExceeded):
        brute_force_dup(sys_, 3, (1, 1, 1, 1), budget=5)


# --- reductions


def test_congestion_to_cost_rows():
    c, target = congestion_to_cost(PrescribedCongestion(2, (frozenset({0, 1}),)))
    assert c == ((0, -1),) and target == 0

    c, target = congestion_to_cost(PrescribedCongestion(2, (frozenset({0, 1, 2}),)))
    assert c == ((0, 0),) and target == 0

    c, target = congestion_to_cost(PrescribedCongestion(2, (frozenset({2}),)))
    assert c == ((0, 1),) and target == 1


def test_congestion_reduction_end_to_end():
    rng = random.Random(4)
    for _ in range(40):
        d = rng.randint(1, 5)
        n = rng.randint(1, 3)
        sys_ = rand_closed_system(rng, d, 12)
        pc = PrescribedCongestion(
            n,
            tuple(
                frozenset(rng.sample(range(n + 1), rng.randint(1, n + 1)))
                for _ in range(d)
            ),
        )
        c, target = congestion_to_cost(pc)
        opt, _ = brute_force_sco(sys_, c, n)
        assert opt <= target
        assert (opt == target) == congestion_feasible(sys_.vectors, pc)


def test_game_to_cost_convex_gives_shifted_rows():
    c = game_to_cost(((0, 1, 4),))
    assert c == ((-1, -3),)
    assert first_unshifted_row(c) is None
    assert game_to_cost(((5, 5, 5),)) == ((0, 0),)
    assert game_to_cost(()) == ()


def test_game_identity_on_random_solutions():
    rng = random.Random(5)
    for _ in range(60):
        d, n = rng.randint(1, 5), rng.randint(1, 4)
        tables = tuple(
            tuple(rng.randint(-6, 6) for _ in range(n + 1)) for _ in range(d)
        )
        c = game_to_cost(tables)
        x = rand_binary(rng, d, n)
        base = sum(t[0] for t in tables)
        assert base - social_cost(tables, x) == shifted_value(c, x)


def test_body_to_system_formula():
    T = ExplicitSystem(((1, 0), (0, 1)))
    c = matrix([[0, -1], [0, -1]])
    S, b = body_to_system(T, c)
    assert b == ((5, 4), (5, 4))
    assert set(S.vectors) == {(0, 0), (1, 0), (0, 1)}
    assert S.downward_closed

    S2, b2 = body_to_system(T, matrix([[0, 0], [0, 0]]))
    assert b2 == ((1, 1), (1, 1))


def test_body_to_system_rejects_mixed_cardinality():
    with pytest.raises(ValueError):
        body_to_system(ExplicitSystem(((1, 0), (1, 1))), matrix([[1], [1]]))


def test_body_optimum_attained_in_body():
    rng = random.Random(6)
    for _ in range(25):
        d = rng.randint(2, 5)
        k = rng.randint(1, min(3, d))
        n = 2
        bodies = [frozenset(cmb) for cmb in combinations(range(d), k)]
        supports = rng.sample(bodies, rng.randint(1, min(3, len(bodies))))
        T = ExplicitSystem(
            tuple(tuple(1 if i in sup else 0 for i in range(d)) for sup in supports)
        )
        c = rand_cost(rng, d, n, lo=-3, hi=3)
        S, b = body_to_system(T, c)
        opt_b, witness = brute_force_sco(S, b, n)
        for col in zip(*witness):
            assert T.contains(tuple(col))
        opt_c_over_T, _ = brute_force_sco(T, c, n)
        assert shifted_value(c, witness) == opt_c_over_T
        bump = 2 * sum(abs(v) for row in c for v in row) + 1
        assert opt_b == opt_c_over_T + bump * n * k


def test_body_closure_above_the_budget_is_refused_before_it_is_built():
    # One body vector of 24 ones has a closure of 2^24 members; only the
    # estimate min(|T| 2^24, 2^24) is computed.
    with pytest.raises(EnumerationBudgetExceeded) as info:
        body_to_system(ExplicitSystem(((1,) * 24,)), ((0,),) * 24)
    assert str(info.value) == "body closure: 16777216 candidates exceed budget 10000000"


# --- gadgets


def test_independent_set_gadget_triangle_has_no_pair():
    inst = independent_set_gadget(TRIANGLE, 2)
    opt, _ = brute_force_sco(inst.system, inst.c, 2)
    assert inst.meta.target == 0
    assert opt < 0


def test_independent_set_gadget_path_endpoints():
    inst = independent_set_gadget(PATH3, 2)
    opt, _ = brute_force_sco(inst.system, inst.c, 2)
    assert opt == 0


def test_independent_set_gadget_n1_trivial():
    inst = independent_set_gadget(TRIANGLE, 1)
    opt, _ = brute_force_sco(inst.system, inst.c, 1)
    assert opt == 0


def test_independent_set_gadget_dedups_equal_stars():
    single_edge = Graph(2, ((0, 1),))
    inst = independent_set_gadget(single_edge, 2)
    assert len(inst.system.vectors) == 1


def test_independent_set_gadget_file_records_the_computed_closure():
    # The members {(1), (0)} are closed, given in the order a star list
    # would have them, and the file says so.
    inst = Instance(ExplicitSystem(((1,), (0,))), 2, ((0, -1),))
    data = json.loads(serialize(inst))
    assert data["system"]["downward_closed"] is True
    assert parse(serialize(inst)) == inst
    # The other gadgets' star systems are not closed.
    assert json.loads(serialize(independent_set_gadget(PATH3, 2)))["system"][
        "downward_closed"
    ] is False


def hexagon_feasible(sets, k):
    graph, pc = hexagon_gadget(sets, k)
    pms = perfect_matchings(bipartite_to_graph(graph))
    if not pms:
        return False
    return congestion_feasible(pms, pc)


def test_hexagon_gadget_shape_and_yes_case():
    graph, pc = hexagon_gadget([(0, 1, 2)], 3)
    assert len(graph.edges) == 12
    assert graph.left + graph.right == 12
    assert pc.n == 2
    assert pc.sets[:6] == (frozenset({0, 1}),) * 6
    assert pc.sets[6:] == (frozenset({0, 2}),) * 6
    assert hexagon_feasible([(0, 1, 2)], 3)


def test_hexagon_gadget_no_case():
    assert not hexagon_feasible([(0, 1, 2)], 4)


def test_hexagon_gadget_matches_exact_cover_on_handmade_cases():
    cases = [
        ([(0, 1, 2)], 3, True),
        ([(0, 1, 2)], 4, False),
        ([(0, 1, 2), (3, 4, 5)], 6, True),
        ([(0, 1, 2), (2, 3, 4)], 6, False),
        ([(0, 1, 2), (3, 4, 5), (0, 3, 4)], 6, True),
    ]
    for sets, k, expected in cases:
        graph, _ = hexagon_gadget(sets, k)
        assert len(graph.edges) == 12 * len(sets)
        assert graph.left + graph.right == 6 * len(sets) + 2 * k
        assert exact_cover_exists(sets, k) == expected
        assert hexagon_feasible(sets, k) == expected


def test_hexagon_gadget_rejects_bad_sets():
    with pytest.raises(ValueError):
        hexagon_gadget([(0, 1)], 3)
    with pytest.raises(ValueError):
        hexagon_gadget([(0, 1, 3)], 3)


def test_coloring_gadget_k4_two_disjoint_perfect_matchings():
    pc = coloring_gadget(K4)
    assert pc.sets == (frozenset({0, 1}),) * 6
    pms = perfect_matchings(K4)
    assert len(pms) == 3
    assert congestion_feasible(pms, pc)


def test_coloring_gadget_petersen_infeasible():
    graph = petersen()
    pc = coloring_gadget(graph)
    pms = perfect_matchings(graph)
    assert len(pms) == 6
    assert not congestion_feasible(pms, pc)
    c, target = congestion_to_cost(pc)
    body = ExplicitSystem(pms)
    opt, _ = brute_force_sco(body, c, 2)
    assert target == 0
    assert opt < 0


def test_independent_set_gadget_rejects_an_isolated_vertex():
    # A triangle and an isolated vertex have no independent set of size 3,
    # yet the empty star of vertex 3 taken twice would meet the target.
    with pytest.raises(ValueError, match="^vertex 4 lies on no edge$"):
        independent_set_gadget(Graph(4, TRIANGLE.edges), 3)
    with pytest.raises(ValueError, match="^vertex 1 lies on no edge$"):
        independent_set_gadget(Graph(3, ((1, 2),)), 1)


def test_coloring_gadget_rejects_noncubic():
    with pytest.raises(ValueError):
        coloring_gadget(PATH3)


def test_graph_paths_ignore_declared_vertices_without_edges():
    # One edge among 10^6 declared vertices: an uncovered vertex is found
    # from the edge list, before any work sized by the declared count.
    graph = Graph(10**6, ((0, 1),))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^graph must be 3-regular$"):
            coloring_gadget(graph)
        assert perfect_matchings(graph) == ()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert graph.isolated_vertex() == 2
    assert K4.isolated_vertex() is None
    assert perfect_matchings(Graph(0, ())) == ((),)


def test_perfect_matchings_small_cases():
    assert perfect_matchings(Graph(2, ((0, 1),))) == ((1,),)
    assert perfect_matchings(TRIANGLE) == ()
    c4 = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    assert len(perfect_matchings(c4)) == 2


def test_all_matchings_path():
    assert set(all_matchings(PATH3)) == {(0, 0), (1, 0), (0, 1)}


def test_exact_cover_exists():
    assert exact_cover_exists([(0, 1, 2)], 3)
    assert not exact_cover_exists([(0, 1, 2), (2, 3, 4)], 6)
    assert exact_cover_exists([(0, 1, 2), (3, 4, 5), (1, 2, 3)], 6)


@st.composite
def set_families(draw):
    """k and up to 8 sets over 0..k-1; with out_of_range, elements -1 and k too."""
    k = draw(st.integers(0, 8))
    out_of_range = draw(st.booleans())
    if out_of_range:
        one_set = st.lists(st.integers(-1, k), max_size=4)
    else:
        one_set = st.lists(st.integers(0, k - 1), max_size=4) if k else st.just([])
    return draw(st.lists(one_set, max_size=8)), k


def _cover_outcome(decide, sets, k):
    try:
        return decide(sets, k)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(set_families())
@example(([], 0))
@example(([[0, 1], [2], [1, 2], [0]], 3))
@example(([[0, 1], [1, 2], [], [0, 1]], 3))
def test_exact_cover_matches_the_subfamily_enumeration(family):
    sets, k = family
    assert _cover_outcome(exact_cover_exists, sets, k) == _cover_outcome(
        exact_cover_by_subfamilies, sets, k
    )


# --- random instances and the file format


def test_random_instance_deterministic():
    a = random_instance(42, d=5, n=3, set_size=12, cost_range=8, shifted=True)
    b = random_instance(42, d=5, n=3, set_size=12, cost_range=8, shifted=True)
    assert serialize(a) == serialize(b)
    c = random_instance(43, d=5, n=3, set_size=12, cost_range=8, shifted=True)
    assert serialize(a) != serialize(c)


def test_random_instance_shifted_rows():
    inst = random_instance(7, d=6, n=4, set_size=10, cost_range=9, shifted=True)
    assert first_unshifted_row(inst.c) is None
    assert inst.system.downward_closed
    assert len(inst.system.vectors) <= 10


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32), st.integers(1, 8), st.integers(1, 5), st.integers(1, 40),
    st.integers(0, 7), st.booleans(),
)
def test_random_instance_equals_pairwise_scan_reference(
    seed, d, n, set_size, cost_range, shifted
):
    args = dict(d=d, n=n, set_size=set_size, cost_range=cost_range, shifted=shifted)
    assert random_instance(seed, **args) == random_instance_by_pairwise_scan(seed, **args)


def test_random_instance_memory_grows_with_the_generators_not_d():
    # At most 3 x 4 generator elements are ever tried as extensions, so a
    # wide ground set costs only the instance itself (d cost rows, and
    # members of d entries each).
    tracemalloc.start()
    try:
        inst = random_instance(1, d=20_000, n=1, set_size=4, cost_range=5, shifted=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inst.system.downward_closed and len(inst.system.vectors) <= 4
    assert peak < 5_000_000


def test_round_trip_on_random_instances():
    for seed in range(100):
        inst = random_instance(
            seed, d=4 + seed % 3, n=2 + seed % 3, set_size=9, cost_range=6,
            shifted=seed % 2 == 0,
        )
        again = parse(serialize(inst))
        assert again == inst


def test_round_trip_other_system_kinds():
    kinds = [
        UniformMatroid(4, 2),
        PartitionMatroid(4, (((0, 1), 1), ((2, 3), 2))),
        GraphicMatroid(3, ((0, 1), (1, 2))),
        BipartiteMatchings(
            __import__("shiftopt").BipartiteGraph(2, 2, ((0, 0), (1, 1)))
        ),
    ]
    for system in kinds:
        d = system.ground_size()
        inst = Instance(system, 2, tuple((1, -1) for _ in range(d)), Meta(target=3))
        assert parse(serialize(inst)) == inst


def test_parse_reports_positions():
    with pytest.raises(InstanceFormatError) as err:
        parse(b'{"version": 1,')
    assert "line 1" in str(err.value)

    with pytest.raises(InstanceFormatError) as err:
        parse(b'{"version": 1, "n": 1, "c": [], "system": {"kind": "explicit", "vectors": ["0x"]}}')
    assert "vectors[0]" in str(err.value)

    with pytest.raises(InstanceFormatError) as err:
        parse(b'{"version": 2, "n": 1, "c": [], "system": {"kind": "uniform", "d": 0, "rank": 0}}')
    assert "version" in str(err.value)

    with pytest.raises(InstanceFormatError) as err:
        parse(b'{"version": 1, "n": 1, "c": [["a"]], "system": {"kind": "uniform", "d": 1, "rank": 1}}')
    assert "c[0]" in str(err.value)


@pytest.mark.parametrize(
    "system, message",
    [
        # A bad string outranks every constructor fault, wherever it lies.
        ({"vectors": ["00", "0", "0x"]}, "system.vectors[2]: expected a string of 0/1 characters"),
        ({"vectors": ["01", "01", "+1"]}, "system.vectors[2]: expected a string of 0/1 characters"),
        ({"vectors": ["01", ["0", "1"]]}, "system.vectors[1]: expected a string of 0/1 characters"),
        ({"vectors": [5]}, "system.vectors[0]: expected a string of 0/1 characters"),
        ({"vectors": ["0\ud800"], "downward_closed": "yes"},
         "system.vectors[0]: expected a string of 0/1 characters"),
        # Then the flag's type, then the constructor's faults.
        ({"vectors": ["00", "0"], "downward_closed": "yes"},
         "system.downward_closed: expected bool, got str"),
        ({"vectors": ["00", "0"]}, "system: explicit system vectors of unequal length"),
        ({"vectors": ["01", "01"]}, "system: explicit system vectors must be distinct"),
        ({"vectors": []}, "system: explicit system must list at least one vector"),
        ({"vectors": ["11"], "downward_closed": True},
         "system: system flagged downward_closed is not closed"),
    ],
)
def test_parse_reports_explicit_faults_in_order(system, message):
    doc = json.dumps(
        {"version": 1, "n": 1, "c": [[0], [0]], "system": {"kind": "explicit", **system}}
    )
    with pytest.raises(InstanceFormatError) as info:
        parse(doc)
    assert str(info.value) == message


@pytest.mark.parametrize("entry", ["true", "false", "1.0", "2.5", "null", '"3"', "[1]"])
def test_parse_rejects_cost_entries_that_are_not_integers(entry):
    doc = (
        '{"version": 1, "n": 2, "c": [[1, 2], [3, %s]],'
        ' "system": {"kind": "uniform", "d": 2, "rank": 1}}' % entry
    )
    with pytest.raises(InstanceFormatError, match=r"^c\[1\]: expected a list of integers$"):
        parse(doc.encode())


@pytest.mark.parametrize(
    "system, message",
    [
        ('{"kind": "partition", "d": -1, "blocks": []}', "system: d must be nonnegative"),
        ('{"kind": "graphic", "vertices": -3, "edges": []}',
         "system: vertex count must be nonnegative"),
    ],
)
def test_parse_rejects_negative_sizes(system, message):
    doc = '{"version": 1, "n": 1, "c": [], "system": %s}' % system
    with pytest.raises(InstanceFormatError, match=f"^{message}$"):
        parse(doc.encode())


def test_prescribed_congestion_reports_the_first_bad_element():
    ok, empty, high = frozenset({0, 1}), frozenset(), frozenset({3})
    with pytest.raises(ValueError, match="^congestion set for element 3 is empty$"):
        PrescribedCongestion(2, (ok, ok, empty, high, empty))
    with pytest.raises(ValueError, match="^congestion set for element 2 must lie in 0..2$"):
        PrescribedCongestion(2, (ok, high, ok, empty))
    # equal sets given in other forms are converted to equal frozensets of ints
    pc = PrescribedCongestion(2, (ok, {1, 0}, [True, 0.0], "01"))
    assert pc.sets == (ok,) * 4 and all(type(v) is int for s in pc.sets for v in s)


def test_parse_rejects_bytes_that_are_not_utf8():
    with pytest.raises(InstanceFormatError, match="byte 0: not valid UTF-8"):
        parse(b"\xff")
    with pytest.raises(InstanceFormatError, match="byte 13"):
        parse(b'{"version": 1\xc3(}')


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_small = st.integers(-1, 4) | _json_values


@st.composite
def _instance_documents(draw):
    """JSON documents shaped like instances, with any field wrong or missing."""
    kind = draw(st.sampled_from(["explicit", "uniform", "partition", "graphic", "bipartite", "x"]))
    fields = {
        "kind": st.just(kind) | _json_values,
        "vectors": st.lists(st.text("01", max_size=3), max_size=4) | _json_values,
        "downward_closed": st.booleans() | _json_values,
        "d": _small, "rank": _small, "vertices": _small, "left": _small, "right": _small,
        "blocks": st.lists(
            st.fixed_dictionaries({"elements": st.lists(_small, max_size=3), "capacity": _small}),
            max_size=3,
        ) | _json_values,
        "edges": st.lists(st.lists(st.integers(-1, 4), max_size=3), max_size=4) | _json_values,
    }
    system = {k: draw(v) for k, v in fields.items() if draw(st.booleans())}
    top = {
        "version": st.just(1) | _json_values,
        "n": _small,
        "c": st.lists(st.lists(st.integers(-3, 3) | _json_values, max_size=3), max_size=4)
        | _json_values,
        "system": st.just(system) | _json_values,
        "meta": st.fixed_dictionaries({}, optional={"target": _small, "description": _small})
        | _json_values,
    }
    doc = {k: draw(v) for k, v in top.items() if draw(st.integers(0, 4))}
    return json.dumps(doc).encode()


@settings(max_examples=300, deadline=None)
@given(explicit_lists(), st.sampled_from([True, False, None]))
@example([(0, 0), (1, 1)], True)
@example([(1, 0), (0, 0)], True)
def test_parse_checks_a_downward_closed_flag_against_the_members(vectors, flag):
    # The flag is the file's claim; the system works out its own closure.
    system = {"kind": "explicit", "vectors": ["".join(map(str, v)) for v in vectors]}
    if flag is not None:
        system["downward_closed"] = flag
    doc = json.dumps({"version": 1, "n": 1, "c": [[0]] * len(vectors[0]), "system": system})
    closed = is_downward_closed(vectors)
    if flag and not closed:
        with pytest.raises(InstanceFormatError) as info:
            parse(doc)
        assert str(info.value) == "system: system flagged downward_closed is not closed"
        return
    inst = parse(doc)
    assert inst.system == ExplicitSystem(tuple(vectors))
    assert inst.system.downward_closed == closed
    assert json.loads(serialize(inst))["system"]["downward_closed"] == closed


@settings(max_examples=400, deadline=None)
@given(st.binary(max_size=64) | _json_values.map(json.dumps).map(str.encode) | _instance_documents())
@example(b"[" * 100_000)
@example(b"1" * 5000)
@example(b'{"version": 1, "n": ' + b"7" * 5000 + b"}")
def test_parse_returns_an_instance_or_raises_a_format_error(data):
    try:
        inst = parse(data)
    except InstanceFormatError:
        return
    assert isinstance(inst, Instance)


def test_parse_maps_deep_nesting_and_overlong_integers_to_format_errors():
    with pytest.raises(InstanceFormatError, match="^document nested too deeply$"):
        parse(b"[" * 100_000)
    with pytest.raises(InstanceFormatError, match="4300 digits"):
        parse(b"1" * 5000)


def test_instance_validates_dimensions():
    with pytest.raises(ValueError):
        Instance(UniformMatroid(2, 1), 2, matrix([[1, 1]]))
    with pytest.raises(ValueError):
        Instance(UniformMatroid(1, 1), 2, matrix([[1, 1, 1]]))


def test_explicit_members_materializes_matroids():
    members = explicit_members(UniformMatroid(4, 2))
    assert len(members.vectors) == 1 + 4 + 6
    assert members.downward_closed

    bip = BipartiteMatchings(
        __import__("shiftopt").BipartiteGraph(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)))
    )
    members = explicit_members(bip)
    assert len(members.vectors) == 7


@settings(max_examples=300, deadline=None)
@given(systems().filter(lambda s: not isinstance(s, ExplicitSystem)))
@example(BipartiteMatchings(BipartiteGraph(2, 2, ((0, 0), (0, 0), (1, 1)))))
def test_explicit_members_lists_what_contains_accepts(system):
    # Bipartite systems drawn here may have parallel edges.
    d = system.ground_size()
    accepted = [v for v in product((0, 1), repeat=d) if system.contains(v)]
    assert explicit_members(system).vectors == tuple(
        sorted(accepted, key=lambda v: (sum(v), v))
    )


@settings(max_examples=300, deadline=None)
@given(
    systems(max_d=5).filter(lambda s: not isinstance(s, ExplicitSystem)),
    st.integers(1, 3),
    st.integers(0, 2**32),
)
@example(BipartiteMatchings(BipartiteGraph(2, 2, ((0, 0), (0, 0), (1, 1)))), 2, 0)
@example(GraphicMatroid(2, ((0, 1), (0, 1), (1, 1))), 2, 0)
@example(UniformMatroid(0, 0), 2, 0)
@example(UniformMatroid(4, 0), 3, 0)
@example(PartitionMatroid(4, (((0, 1), 0), ((2, 3), 1))), 2, 0)
@example(BipartiteMatchings(BipartiteGraph(1, 1, ())), 1, 0)
def test_brute_forces_list_the_members_of_any_system_kind(system, n, seed):
    # Each brute force gives the same value and witness on the system as on
    # its explicit member list.
    explicit = explicit_members(system)
    d = system.ground_size()
    rng = random.Random(seed)
    c = rand_cost(rng, d, n)
    assert brute_force_sco(system, c, n) == brute_force_sco(explicit, c, n)
    w = [rng.randint(-9, 9) for _ in range(d)]
    assert brute_force_dup(system, n, w) == brute_force_dup(explicit, n, w)
    tables = tuple(tuple(rng.randint(-9, 9) for _ in range(n + 1)) for _ in range(d))
    assert brute_force_generalized(system, tables, n) == brute_force_generalized(
        explicit, tables, n
    )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=7),
    st.sampled_from([1, 1_000, 250_000]),
)
@example([(0, 0), (0, 0), (1, 1), (0, 1)], 1)
@example([(0, 0), (0, 0), (1, 1), (0, 1)], 250_000)
@example([], 1)
def test_matchings_follow_the_tuple_enumeration_in_order(edges, spread):
    # Side vertex v is numbered v * spread, so at a wide spread the declared
    # counts lie far above the at most 8 touched vertices.  Bipartite edges
    # may be parallel; the plain graph's edges are simple.
    side = 4 * spread
    edges = [(l * spread, r * spread) for l, r in edges]
    expected = matchings_by_tuples([(l, side + r) for l, r in edges], 10**6)
    expected = tuple(sorted(expected, key=lambda v: (sum(v), v)))
    system = BipartiteMatchings(BipartiteGraph(side, side, tuple(edges)))
    assert explicit_members(system).vectors == expected
    graph = bipartite_to_graph(BipartiteGraph(side, side, tuple(dict.fromkeys(edges))))
    listed = matchings_by_tuples(graph.edges, 10**6)
    assert all_matchings(graph) == listed
    # A budget of exactly the number of matchings lists them all; one less
    # raises, naming that budget.
    assert explicit_members(system, len(expected)).vectors == expected
    assert all_matchings(graph, len(listed)) == listed
    for search, size in ((lambda b: explicit_members(system, b), len(expected)),
                         (lambda b: all_matchings(graph, b), len(listed))):
        with pytest.raises(EnumerationBudgetExceeded) as info:
            search(size - 1)
        assert str(info.value) == f"matching enumeration exceeded budget {size - 1}"


@st.composite
def small_simple_graphs(draw):
    """Simple graphs on up to 8 vertices, edges in a drawn order."""
    nv = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(nv, tuple(edges))


@st.composite
def hexagon_graphs(draw):
    """The plain graphs of hexagon gadgets of up to three 3-sets over 1..6."""
    family = draw(st.lists(
        st.lists(st.integers(0, 5), min_size=3, max_size=3, unique=True), min_size=1, max_size=3
    ))
    return bipartite_to_graph(hexagon_gadget(family, 6)[0])


def _listed_or_budget_message(search, graph, budget):
    try:
        return search(graph, budget)
    except EnumerationBudgetExceeded as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(small_simple_graphs() | hexagon_graphs(), st.just(10**6) | st.integers(1, 60))
@example(K4, 10**6)
@example(petersen(), 10**6)
@example(petersen(), 5)
@example(Graph(0, ()), 1)
@example(prism(3), 10**6)
@example(prism(4), 10**6)
@example(prism(5), 10**6)
@example(prism(6), 10**6)
@example(Graph(6, tuple(combinations(range(6), 2))), 10**6)
@example(Graph(6, tuple((i, 3 + j) for i in range(3) for j in range(3))), 10**6)
@example(Graph(8, K4.edges + tuple((u + 4, v + 4) for u, v in K4.edges)), 10**6)
def test_perfect_matchings_follow_the_tuple_search_in_order(graph, budget):
    # Element for element and in search order, or the same budget message.
    assert _listed_or_budget_message(perfect_matchings, graph, budget) == (
        _listed_or_budget_message(perfect_matchings_by_tuples, graph, budget)
    )


@settings(max_examples=150, deadline=None)
@given(small_simple_graphs() | hexagon_graphs())
def test_perfect_matchings_search_as_many_nodes_as_the_tuple_search(graph):
    def fails(budget):
        return isinstance(_listed_or_budget_message(perfect_matchings_by_tuples, graph, budget), str)

    # The reference fails at every budget below b and succeeds from b on:
    # double past b, then bisect.
    lo, hi = -1, 1
    while fails(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fails(mid) else (lo, mid)
    assert perfect_matchings(graph, hi) == perfect_matchings_by_tuples(graph, hi)
    if hi > 0:
        with pytest.raises(EnumerationBudgetExceeded) as info:
            perfect_matchings(graph, hi - 1)
        assert str(info.value) == f"perfect matching enumeration exceeded budget {hi - 1}"


def test_perfect_matchings_hold_edge_masks_not_tuples():
    # The cubic prism C_100 x K_2 (300 edges): 3000 search nodes find 690
    # perfect matchings, which as 300-entry tuples peaked at about 1.8 MB.
    graph = prism(100)
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationBudgetExceeded):
            perfect_matchings(graph, budget=3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


_UNIFORM_13 = UniformMatroid(13, 13)
# 2^5 vectors would exceed a budget of 31, so n = 1 is checked on 2^5 matchings.
_FIVE_EDGES = BipartiteMatchings(BipartiteGraph(5, 5, tuple((i, i) for i in range(5))))


@pytest.mark.parametrize(
    "search, budget, message",
    [
        (lambda b: brute_force_sco(_UNIFORM_13, ((0, 0),) * 13, 2, b), 10**7,
         "shifted brute force: more than 4471 members, so at least 10001628 candidates"),
        (lambda b: brute_force_sco(_UNIFORM_13, ((0, 0, 0),) * 13, 3, b), 10**7,
         "shifted brute force: more than 390 members, so at least 10039316 candidates"),
        (lambda b: brute_force_sco(_FIVE_EDGES, ((0,),) * 5, 1, b), 31,
         "shifted brute force: more than 31 members, so at least 32 candidates"),
        (lambda b: brute_force_dup(_UNIFORM_13, 2, (0,) * 13, b), 10**7,
         "disjoint union brute force: more than 4471 members, so at least 10001628 candidates"),
        (lambda b: brute_force_generalized(_UNIFORM_13, ((0,) * 4,) * 13, 3, b), 10**7,
         "generalized brute force: more than 390 members, so at least 10039316 candidates"),
    ],
    ids=["sco-n2", "sco-n3", "sco-n1", "dup-k2", "generalized-n3"],
)
def test_brute_force_member_cap(search, budget, message):
    # The listing stops at the first member past the largest count M with
    # comb(M + n - 1, n) <= budget, before all 2^13 members (or 2^5 matchings) are built.
    with pytest.raises(EnumerationBudgetExceeded) as info:
        search(budget)
    assert str(info.value) == f"{message}, exceed budget {budget}"


def test_explicit_members_memory_ignores_untouched_bipartite_vertices():
    # One edge, and ten disjoint edges at the top ids, among 200,000 +
    # 200,000 declared vertices: the enumeration must be sized by the
    # matched vertices, not by the declared counts.
    system = BipartiteMatchings(BipartiteGraph(200_000, 200_000, ((1500, 7),)))
    top = tuple((199_990 + i, 199_990 + i) for i in range(10))
    disjoint = BipartiteMatchings(BipartiteGraph(200_000, 200_000, top))
    tracemalloc.start()
    try:
        assert explicit_members(system).vectors == ((0,), (1,))
        assert len(explicit_members(disjoint).vectors) == 2**10
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_congestion_feasible_trivial_prescription():
    sys_ = rand_closed_system(random.Random(10), 4, 8)
    pc = PrescribedCongestion(2, tuple(frozenset({0, 1, 2}) for _ in range(4)))
    assert congestion_feasible(sys_.vectors, pc)


_ONE = ExplicitSystem(((0,), (1,)))

_DOCUMENT = {
    "version": 1,
    "n": 2,
    "c": [[3, 1], [2, 2]],
    "system": {"kind": "explicit", "vectors": ["00", "10", "01"]},
}


def _parse_with(**change):
    return lambda: parse(json.dumps({**_DOCUMENT, **change}))


@pytest.mark.parametrize(
    "run, error, message",
    [
        (
            _parse_with(c=[[3, 1], [2, 2], [1, 1]]),
            InstanceFormatError,
            "cost matrix has 3 rows, oracle ground size 2",
        ),
        (
            _parse_with(system={"kind": "graphic", "vertices": 2, "edges": 5}),
            InstanceFormatError,
            "system.edges: expected a list of edges",
        ),
        (
            _parse_with(system={"kind": "graphic", "vertices": 2, "edges": [[1]]}),
            InstanceFormatError,
            "system.edges[0]: expected a pair of integers",
        ),
        (
            _parse_with(system={"kind": "partition", "d": 2, "blocks": [3]}),
            InstanceFormatError,
            "system.blocks[0]: expected an object",
        ),
        (
            _parse_with(
                system={"kind": "partition", "d": 2, "blocks": [{"elements": [1.5], "capacity": 1}]}
            ),
            InstanceFormatError,
            "system.blocks[0].elements: expected integers",
        ),
        (
            _parse_with(system={"kind": "nope"}),
            InstanceFormatError,
            "system.kind: unknown system kind 'nope'",
        ),
        (_parse_with(meta=[]), InstanceFormatError, "meta: expected an object"),
        (_parse_with(n=True), InstanceFormatError, "top level.n: expected int, got bool"),
        (
            _parse_with(
                system={"kind": "partition", "d": 3, "blocks": [{"elements": [1, 1], "capacity": 1}]}
            ),
            InstanceFormatError,
            "system: element 1 appears twice in one block",
        ),
        (
            lambda: independent_set_gadget(Graph(4, TRIANGLE.edges), 3),
            ValueError,
            "vertex 4 lies on no edge",
        ),
        (
            lambda: all_matchings(PATH3, budget=2),
            EnumerationBudgetExceeded,
            "matching enumeration exceeded budget 2",
        ),
        (
            lambda: perfect_matchings(K4, budget=1),
            EnumerationBudgetExceeded,
            "perfect matching enumeration exceeded budget 1",
        ),
        (
            lambda: brute_force_generalized(_ONE, (), 1),
            ValueError,
            "0 value tables for ground size 1",
        ),
        (
            lambda: brute_force_generalized(_ONE, ((0, 1, 2),), 1),
            ValueError,
            "value table for element 1 must have 2 entries",
        ),
        (lambda: from_columns([]), ValueError, "at least one column required"),
        (lambda: from_columns([(0,), (0, 1)]), ValueError, "columns of unequal length"),
        (lambda: congestion(((0, 2),)), ValueError, "solution entries must be 0/1, row 1 has 2"),
        (lambda: greedy_ratio(0), ValueError, "k must be >= 1"),
        (lambda: brute_force_dup(_ONE, 0, (1,)), ValueError, "k must be >= 1"),
        (
            lambda: congestion_feasible([(0, 1)], PrescribedCongestion(1, (frozenset({0}),))),
            ValueError,
            "vector length does not match congestion sets",
        ),
        (
            lambda: game_to_cost(((0,), (0, 1))),
            ValueError,
            "value tables must share a common length n+1 with n >= 1",
        ),
        (
            lambda: social_cost(((0, 1),), ((1,), (0,))),
            ValueError,
            "1 value tables for ground size 2",
        ),
        (
            lambda: social_cost(((0, 1),), ((1, 1),)),
            ValueError,
            "value table for element 1 must have 3 entries",
        ),
        (lambda: hexagon_gadget([], 3), ValueError, "at least one subset required"),
        (
            lambda: random_instance(0, d=0, n=1, set_size=1, cost_range=0, shifted=False),
            ValueError,
            "d, n, set_size must be >= 1 and cost_range >= 0",
        ),
        (
            lambda: serialize(Instance(LiftedOracle(UniformMatroid(1, 1), 1), 1, ((0,),))),
            TypeError,
            "unsupported system type LiftedOracle",
        ),
        (
            lambda: level_candidate(UniformMatroid(1, 1), ((1,),), 1, 2, 1),
            ValueError,
            "invalid level: k=2, copies=1, n=1",
        ),
        (
            lambda: convex_identical(UniformMatroid(1, 1), ((0,),), 0),
            ValueError,
            "n must be >= 1",
        ),
        (lambda: PrescribedCongestion(0, ()), ValueError, "n must be >= 1"),
        (lambda: independent_set_gadget(TRIANGLE, 0), ValueError, "n must be >= 1"),
    ],
    ids=[
        "cost-rows",
        "edges-not-a-list",
        "edge-not-a-pair",
        "block-not-an-object",
        "block-elements-not-integers",
        "unknown-kind",
        "meta-not-an-object",
        "n-is-a-bool",
        "block-repeats-an-element",
        "isolated-vertex",
        "matching-budget",
        "perfect-matching-budget",
        "value-table-count",
        "value-table-length",
        "no-columns",
        "unequal-columns",
        "congestion-not-binary",
        "greedy-ratio-k",
        "dup-brute-force-k",
        "congestion-vector-length",
        "game-table-lengths",
        "social-cost-rows",
        "social-cost-short-table",
        "hexagon-no-subset",
        "random-instance-sizes",
        "serialize-unknown-system",
        "invalid-level",
        "convex-n",
        "congestion-n",
        "independent-set-n",
    ],
)
def test_documented_errors_carry_their_messages(run, error, message):
    with pytest.raises(error) as info:
        run()
    assert str(info.value) == message


def test_generalized_brute_force_at_n_0_is_the_sum_of_the_values_at_0():
    tables = ((3,), (-4,), (5,))
    assert brute_force_generalized(UniformMatroid(3, 1), tables, 0) == 4
    assert brute_force_generalized(ExplicitSystem(((0, 0, 0),)), tables, 0) == 4


def test_explicit_members_returns_an_explicit_system_unchanged():
    # List order is kept, not replaced by canonical order.
    system = ExplicitSystem(((1, 0), (0, 0), (0, 1)))
    assert explicit_members(system) is system
