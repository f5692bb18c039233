import random
import tracemalloc
from dataclasses import fields
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    down_close_by_tuples,
    explicit_constructor_error,
    explicit_lists,
    explicit_maximize_by_scan,
    graphic_contains_by_union_find,
    graphic_maximize_by_union_find,
    is_downward_closed_by_tuples,
    lift_value_by_scan,
    lift_value_full_enum,
    needs_scipy,
    partition_maximize_by_key_sort,
    rand_closed_system,
    rand_cost,
    uniform_maximize_by_key_sort,
)
from shiftopt import (
    BipartiteGraph,
    BipartiteMatchings,
    ExplicitSystem,
    GraphicMatroid,
    Instance,
    LiftedOracle,
    PartitionMatroid,
    UniformMatroid,
    down_close,
    frobenius,
    is_downward_closed,
    lift_maximize,
    matrix,
    serialize,
)


def dot(w, s):
    return sum(wi * si for wi, si in zip(w, s))


def enumerate_optimum(oracle, w):
    d = oracle.ground_size()
    return max(dot(w, v) for v in product((0, 1), repeat=d) if oracle.contains(v))


# --- explicit systems


def test_explicit_scan_picks_maximizer():
    sys_ = ExplicitSystem(((0, 0), (1, 0), (0, 1)))
    assert sys_.maximize((3, 5)) == (0, 1)


def test_explicit_all_negative_returns_zero_vector():
    sys_ = ExplicitSystem.closed([(1, 1, 0), (0, 0, 1)])
    assert sys_.maximize((-2, -1, -9)) == (0, 0, 0)


def test_explicit_full_square():
    sys_ = ExplicitSystem(((0, 0), (1, 0), (0, 1), (1, 1)))
    s = sys_.maximize((2, 2))
    assert s == (1, 1) and dot((2, 2), s) == 4


def test_explicit_ties_break_by_list_order():
    sys_ = ExplicitSystem(((1, 0), (0, 1)))
    assert sys_.maximize((4, 4)) == (1, 0)


def test_explicit_rejects_empty_and_duplicates():
    with pytest.raises(ValueError):
        ExplicitSystem(())
    with pytest.raises(ValueError):
        ExplicitSystem(((1, 0), (1, 0)))


def test_down_close_and_check():
    closed = down_close([(1, 1, 0)])
    assert set(closed) == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)}
    assert is_downward_closed(closed)
    assert not is_downward_closed([(1, 1, 0)])


def test_explicit_ground_size_zero():
    sys_ = ExplicitSystem(((),))
    assert sys_.maximize(()) == () and sys_.ground_size() == 0


def test_explicit_weights_above_2_to_64_stay_exact():
    sys_ = ExplicitSystem(((1, 0, 0), (1, 1, 0), (0, 1, 1)))
    big = 2**64
    # (0,1,1) beats (1,1,0) by exactly 1, which a float sum would round
    # into a tie (won by list order) and an int64 sum would overflow.
    assert sys_.maximize((big, 2**70, big + 1)) == (0, 1, 1)
    assert sys_.maximize((-big, -big, -big)) == (1, 0, 0)


def test_explicit_ties_go_to_list_order_not_mask_order():
    vecs = ((0, 1), (1, 0), (0, 0), (1, 1))
    sys_ = ExplicitSystem(vecs)
    assert sys_.maximize((5, 5)) == (1, 1)
    assert sys_.maximize((5, -5)) == (1, 0)
    assert sys_.maximize((0, 0)) == (0, 1)
    assert sys_.maximize((-1, -1)) == (0, 0)


def _bit_vectors(d):
    return st.tuples(*[st.integers(0, 1)] * d)


@st.composite
def explicit_systems(draw, max_d: int = 8):
    """Closed systems in any list order, and arbitrary member lists."""
    d = draw(st.integers(0, max_d))
    if draw(st.booleans()):
        gens = draw(st.lists(_bit_vectors(d), max_size=4)) or [(0,) * d]
        members = draw(st.permutations(down_close_by_tuples(gens)))
        return ExplicitSystem(tuple(members))
    members = draw(st.lists(_bit_vectors(d), min_size=1, max_size=12, unique=True))
    return ExplicitSystem(tuple(members))


WEIGHTS = {
    "small": st.integers(-3, 3),  # many ties
    "negative": st.integers(-9, -1),
    "huge": st.integers(-(2**70), 2**70),
}


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_explicit_maximize_matches_list_scan(data):
    sys_ = data.draw(explicit_systems())
    weight = WEIGHTS[data.draw(st.sampled_from(sorted(WEIGHTS)))]
    d = sys_.ground_size()
    w = data.draw(st.lists(weight, min_size=d, max_size=d))
    assert sys_.maximize(w) == explicit_maximize_by_scan(sys_, w)
    assert sys_.maximize(tuple(w)) == explicit_maximize_by_scan(sys_, w)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 6).flatmap(lambda d: st.lists(_bit_vectors(d), max_size=10)))
def test_closure_matches_tuple_references(vectors):
    assert is_downward_closed(vectors) == is_downward_closed_by_tuples(vectors)
    closed = down_close(vectors)
    assert closed == down_close_by_tuples(vectors)  # same members, same order
    assert is_downward_closed(closed)
    for i in range(len(closed)):  # near misses: one member short of closed
        rest = closed[:i] + closed[i + 1:]
        assert is_downward_closed(rest) == is_downward_closed_by_tuples(rest)


ENTRIES = st.sampled_from((0, 1, 0, 1, True, False, 2, -1))


@settings(max_examples=600, deadline=None)
@given(st.lists(st.lists(ENTRIES, min_size=2, max_size=3).map(tuple), max_size=6))
def test_explicit_constructor_accepts_and_rejects_as_reference(vectors):
    err = explicit_constructor_error(vectors)
    if err is None:
        sys_ = ExplicitSystem(tuple(vectors))
        assert sys_.vectors == tuple(tuple(int(b) for b in v) for v in vectors)
        assert all(type(b) is int for v in sys_.vectors for b in v)
    else:
        with pytest.raises(ValueError) as exc:
            ExplicitSystem(tuple(vectors))
        assert str(exc.value) == err


# Characters other than 0 and 1, several of which int(s, 2) or int(c) would read.
BAD_CHARS = ("2", "_", " ", "+", "\uff10", "\ud800")


@st.composite
def explicit_forms(draw):
    """One explicit vector list, closed or not, possibly faulty, in three
    forms: tuples, bytes and 0/1 strings.  A bad entry is 2 in the first
    two forms and a character from BAD_CHARS in the string."""
    d = draw(st.integers(0, 4))
    vectors = draw(st.lists(st.tuples(*[st.integers(0, 1)] * d), max_size=2**d))
    if vectors and draw(st.booleans()):
        vectors = down_close(vectors)
    vectors = [list(v) for v in vectors]
    # b: a bad entry, s: one entry short, l: one too long, d: a duplicate.
    faults = st.lists(st.tuples(st.sampled_from("bsld"), st.integers(0, 99)), max_size=2)
    for fault, k in draw(faults):
        if not vectors:
            break
        v = vectors[k % len(vectors)]
        if fault == "b" and v:
            v[k % len(v)] = 2
        elif fault == "s" and v:
            v.pop()
        elif fault == "l":
            v.append(0)
        elif fault == "d":
            vectors.insert(k % (len(vectors) + 1), list(v))
    tuples = tuple(map(tuple, vectors))
    strings = tuple(
        "".join(str(b) if b < 2 else draw(st.sampled_from(BAD_CHARS)) for b in v) for v in vectors
    )
    return tuples, tuple(map(bytes, tuples)), strings


@settings(max_examples=800, deadline=None)
@given(explicit_forms(), st.data())
@example((((0, 0), (0,)), (b"\0\0", b"\0"), ("00", "0")), None)  # length fault first
@example((((0, 2), (0,)), (b"\0\2", b"\0"), ("0_", "0")), None)  # character fault first
@example((((0,), (0, 2)), (b"\0", b"\0\2"), ("0", "0\ud800")), None)
def test_explicit_system_from_strings_tuples_and_bytes_agree(forms, data):
    tuples = forms[0]
    err = explicit_constructor_error(tuples)
    if err is not None:
        for vectors in forms:
            with pytest.raises(ValueError) as exc:
                ExplicitSystem(vectors)
            assert str(exc.value) == err
        return
    built = [ExplicitSystem(vectors) for vectors in forms]
    assert built[0] == built[1] == built[2]
    assert len({hash(sys_) for sys_ in built}) == len({repr(sys_) for sys_ in built}) == 1
    d = len(tuples[0])
    w = data.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    members = set(tuples)
    for sys_ in built:
        assert sys_.vectors == tuples and all(type(v) is tuple for v in sys_.vectors)
        assert sys_.downward_closed == is_downward_closed_by_tuples(tuples)
        assert sys_.maximize(w) == explicit_maximize_by_scan(sys_, w)
        for v in product((0, 1), repeat=d):
            member = v in members
            assert sys_.contains(v) == sys_.contains(list(v)) == member
            assert sys_.contains(tuple(map(bool, v))) == member
            assert sys_.contains(tuple(map(float, v))) == member
            assert not sys_.contains(v + (0,))
            if v:
                assert not sys_.contains(v[1:]) and not sys_.contains(v[:-1] + (2,))


def test_explicit_constructor_contract():
    rejected = {
        ((0, 1), (1,)): "unequal length",
        ((0, 2),): "must be 0/1",
        ((0, 0), (0, -1)): "must be 0/1",
        ((1, 0), (1, 0)): "distinct",
        (): "at least one vector",
    }
    for vectors, message in rejected.items():
        with pytest.raises(ValueError, match=message):
            ExplicitSystem(vectors)
    # Closure is worked out, never passed: the constructor takes the members
    # only, and the worked-out field stays in repr, equality and hashing.
    with pytest.raises(TypeError):
        ExplicitSystem(((0, 0), (1, 0)), True)
    with pytest.raises(TypeError):
        ExplicitSystem(((0, 0), (1, 0)), **{"downward_closed": True})
    closure = {f.name: f for f in fields(ExplicitSystem)}["downward_closed"]
    assert (closure.init, closure.repr, closure.compare) == (False, True, True)
    sys_ = ExplicitSystem(((True, False), (0, 0)))
    assert sys_.vectors == ((1, 0), (0, 0))
    assert all(type(b) is int for v in sys_.vectors for b in v)
    assert b'"10"' in serialize(Instance(sys_, 1, ((0,), (0,))))
    # Entries that int() maps to 0/1 are still accepted.
    assert ExplicitSystem(((1.0, "0"),)).vectors == ((1, 0),)
    # The tuples are built from the member masks on first read; repr, which
    # the benchmark's digests hash, shows them as before.
    assert repr(ExplicitSystem(("01", "00"))) == (
        "ExplicitSystem(vectors=((0, 1), (0, 0)), downward_closed=True)"
    )


def test_explicit_vectors_are_built_from_the_masks_on_first_read():
    # maximize, contains and serialize work on the member masks; the tuples
    # are built once, by the first read of vectors.
    sys_ = ExplicitSystem(("00", "10", "01"))
    assert sys_.maximize([1, 2]) == (0, 1) and sys_.contains((1, 0))
    assert b'"01"' in serialize(Instance(sys_, 1, ((0,), (0,))))
    assert "vectors" not in vars(sys_)
    assert sys_.vectors == ((0, 0), (1, 0), (0, 1))
    assert sys_.vectors is sys_.vectors


@pytest.mark.parametrize("text", ["1_0", " 01", "+1", "\uff101", "\ud800"])
def test_explicit_strings_hold_only_0_and_1_characters(text):
    # int(text, 2) or int() per character would read some of these; a lone
    # surrogate must not reach encode().
    for vectors in ((text,), ("0" * len(text), text)):
        with pytest.raises(ValueError, match="^explicit system vectors must be 0/1$"):
            ExplicitSystem(vectors)


@settings(max_examples=300, deadline=None)
@given(explicit_lists())
@example([(0, 0), (1, 1)])  # the lowest-element parent of 11 is missing
@example([(0, 0), (1, 0), (1, 1)])  # only 01, 11 without its first element, is missing
@example([(1, 0)])  # the empty member is missing
@example([(1, 0), (0, 0)])
def test_explicit_closure_is_worked_out_from_the_members(vectors):
    closed = is_downward_closed(vectors)
    assert closed == is_downward_closed_by_tuples(vectors)
    sys_ = ExplicitSystem(tuple(vectors))
    assert sys_.downward_closed == closed
    # A lift is closed exactly when its base is.
    assert LiftedOracle(sys_, 2).downward_closed == closed
    assert LiftedOracle(LiftedOracle(sys_, 3), 2).downward_closed == closed


def test_matroids_and_matchings_are_downward_closed():
    for oracle in (
        UniformMatroid(3, 1),
        PartitionMatroid(2, (((0, 1), 1),)),
        GraphicMatroid(2, ((0, 1), (0, 1))),
        BipartiteMatchings(BipartiteGraph(1, 1, ((0, 0),))),
    ):
        assert oracle.downward_closed is True
        assert LiftedOracle(oracle, 2).downward_closed is True


@pytest.mark.parametrize(
    "oracle",
    [
        PartitionMatroid(2, (((0, 1), 2),)),
        GraphicMatroid(3, ((0, 1), (1, 2))),
        BipartiteMatchings(BipartiteGraph(2, 2, ((0, 0), (1, 1)))),
    ],
    ids=["partition", "graphic", "bipartite"],
)
def test_contains_rejects_vectors_that_are_not_0_1_over_the_ground_set(oracle):
    assert oracle.contains((1, 1))
    for v in ((1,), (1, 1, 0), (1, 2), (0, -1)):
        assert not oracle.contains(v)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: UniformMatroid(-1, 0), "d and rank must be nonnegative"),
        (lambda: UniformMatroid(2, -1), "d and rank must be nonnegative"),
        (lambda: PartitionMatroid(2, (((0,), -1),)), "block capacity must be nonnegative"),
        (lambda: PartitionMatroid(2, (((2,), 1),)), "block element 3 outside ground set"),
        (lambda: PartitionMatroid(2, (((0,), 1), ((0, 1), 1))), "element 1 appears in two blocks"),
        (lambda: PartitionMatroid(3, (((0, 0), 1),)), "element 1 appears twice in one block"),
        (lambda: GraphicMatroid(2, ((0, 2),)), "edge (1,3) references missing vertex"),
        (lambda: BipartiteGraph(-1, 1, ()), "vertex counts must be nonnegative"),
        (lambda: BipartiteGraph(1, 1, ((0, 1),)), "edge (1,2) outside vertex ranges"),
        (lambda: LiftedOracle(UniformMatroid(2, 1), 0), "n must be >= 1"),
    ],
    ids=[
        "uniform-negative-d",
        "uniform-negative-rank",
        "partition-negative-capacity",
        "partition-element-outside",
        "partition-element-in-two-blocks",
        "partition-element-twice-in-one-block",
        "graphic-missing-vertex",
        "bipartite-negative-count",
        "bipartite-edge-outside",
        "lift-n-zero",
    ],
)
def test_oracle_constructors_reject_invalid_arguments(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


# --- matroid oracles


def test_uniform_top_positive_weights():
    oracle = UniformMatroid(3, 2)
    s = oracle.maximize((3, -1, 5))
    assert s == (1, 0, 1) and dot((3, -1, 5), s) == 8


def test_partition_per_block_capacities():
    oracle = PartitionMatroid(3, (((0, 1), 1), ((2,), 1)))
    assert oracle.maximize((4, 7, -2)) == (0, 1, 0)


def test_graphic_kruskal_on_triangle():
    oracle = GraphicMatroid(3, ((0, 1), (1, 2), (0, 2)))
    s = oracle.maximize((5, 4, 3))
    assert s == (1, 1, 0) and dot((5, 4, 3), s) == 9
    forests = [v for v in product((0, 1), repeat=3) if oracle.contains(v)]
    assert len(forests) == 7
    assert max(dot((5, 4, 3), v) for v in forests) == 9


@needs_scipy
def test_oracles_match_enumeration_on_random_weights():
    rng = random.Random(3)
    oracles = [
        UniformMatroid(5, 2),
        PartitionMatroid(6, (((0, 1, 2), 2), ((3, 4), 1))),
        GraphicMatroid(4, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2))),
        BipartiteMatchings(
            BipartiteGraph(2, 3, ((0, 0), (0, 1), (1, 1), (1, 2), (0, 2)))
        ),
    ]
    for oracle in oracles:
        d = oracle.ground_size()
        for _ in range(40):
            w = [rng.randint(-6, 6) for _ in range(d)]
            s = oracle.maximize(w)
            assert oracle.contains(s)
            assert dot(w, s) == enumerate_optimum(oracle, w)
            assert all(si == 0 for wi, si in zip(w, s) if wi < 0)


# Small weights so that ties, zeros and negatives are common.
_tie_weights = st.integers(-3, 3)


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 9).flatmap(lambda d: st.tuples(
    st.integers(0, d + 1), st.lists(_tie_weights, min_size=d, max_size=d),
)))
@example((0, []))
@example((0, [2, 2, 2]))
def test_uniform_maximize_equals_key_sort_reference(case):
    rank, w = case
    oracle = UniformMatroid(len(w), rank)
    assert oracle.maximize(w) == uniform_maximize_by_key_sort(oracle, w)
    assert oracle.maximize(tuple(w)) == uniform_maximize_by_key_sort(oracle, w)


@st.composite
def _partitions(draw):
    d = draw(st.integers(0, 9))
    # block label per element; -1 leaves the element in no block
    labels = draw(st.lists(st.integers(-1, 3), min_size=d, max_size=d))
    caps = draw(st.lists(st.integers(0, 3), min_size=4, max_size=4))
    blocks = tuple(
        (tuple(draw(st.permutations([i for i in range(d) if labels[i] == b]))), caps[b])
        for b in range(4)
        if b in labels
    )
    return PartitionMatroid(d, blocks), draw(
        st.lists(_tie_weights, min_size=d, max_size=d)
    )


@settings(max_examples=500, deadline=None)
@given(_partitions())
@example((PartitionMatroid(3, (((2, 0, 1), 0),)), [1, 1, 1]))
@example((PartitionMatroid(4, (((3, 1, 0), 2),)), [1, 1, 0, 1]))
def test_partition_maximize_equals_key_sort_reference(case):
    oracle, w = case
    assert oracle.maximize(w) == partition_maximize_by_key_sort(oracle, w)


@st.composite
def _graphs(draw):
    used = draw(st.integers(0, 5))
    spare = draw(st.integers(0, 3))  # declared vertices that no edge touches
    vertex = st.integers(0, used - 1) if used else st.nothing()
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=10 if used else 0))
    oracle = GraphicMatroid(used + spare, tuple(edges))
    d = len(edges)
    w = draw(st.lists(_tie_weights, min_size=d, max_size=d))
    v = draw(st.lists(st.integers(0, 1), min_size=d, max_size=d))
    return oracle, w, tuple(v)


@settings(max_examples=800, deadline=None)
@given(_graphs())
@example((GraphicMatroid(0, ()), [], ()))
@example((GraphicMatroid(3, ()), [], ()))
@example((GraphicMatroid(1, ((0, 0), (0, 0))), [2, 1], (1, 0)))
@example((GraphicMatroid(4, ((0, 1), (1, 0), (0, 1), (2, 2))), [1, 1, 1, 5], (1, 1, 0, 0)))
@example((GraphicMatroid(5, ((3, 1), (1, 3), (3, 3), (1, 2))), [0, -1, 3, 0], (0, 0, 0, 1)))
def test_graphic_oracle_equals_union_find_reference(case):
    oracle, w, v = case
    s = oracle.maximize(w)
    assert s == graphic_maximize_by_union_find(oracle, w)
    assert oracle.contains(s)
    assert oracle.contains(v) == graphic_contains_by_union_find(oracle, v)


def test_graphic_per_call_memory_ignores_untouched_vertices():
    # One edge among 200,000 declared vertices: a call's work must be sized
    # by the two vertices the edge touches, not by the declared count.
    oracle = GraphicMatroid(200_000, ((0, 1),))
    for call, expected in ((lambda: oracle.maximize((5,)), (1,)),
                           (lambda: oracle.contains((1,)), True)):
        tracemalloc.start()
        try:
            assert call() == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def test_explicit_closed_matches_enumeration():
    rng = random.Random(4)
    for trial in range(30):
        sys_ = rand_closed_system(rng, 6, 20)
        w = [rng.randint(-5, 5) for _ in range(6)]
        s = sys_.maximize(w)
        assert sys_.contains(s)
        assert dot(w, s) == max(dot(w, v) for v in sys_.vectors)


# --- bipartite matching oracle


@needs_scipy
def test_matching_conflicting_path_edges():
    g = BipartiteGraph(2, 1, ((0, 0), (1, 0)))  # two edges sharing vertex b
    oracle = BipartiteMatchings(g)
    s = oracle.maximize((2, 3))
    assert s == (0, 1)


@needs_scipy
def test_matching_k22_antidiagonal():
    g = BipartiteGraph(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)))
    oracle = BipartiteMatchings(g)
    s = oracle.maximize((1, 9, 9, 1))
    assert s == (0, 1, 1, 0)
    assert dot((1, 9, 9, 1), s) == 18
    matchings = [v for v in product((0, 1), repeat=4) if oracle.contains(v)]
    assert len(matchings) == 7
    assert max(dot((1, 9, 9, 1), v) for v in matchings) == 18


def test_matching_nonpositive_weights_empty():
    g = BipartiteGraph(2, 2, ((0, 0), (1, 1)))
    oracle = BipartiteMatchings(g)
    assert oracle.maximize((0, -3)) == (0, 0)


@needs_scipy
def test_matching_parallel_edges():
    g = BipartiteGraph(1, 1, ((0, 0), (0, 0)))
    oracle = BipartiteMatchings(g)
    assert oracle.maximize((2, 5)) == (0, 1)
    assert oracle.maximize((5, 2)) == (1, 0)
    assert not oracle.contains((1, 1))


@needs_scipy
def test_bipartite_per_call_memory_ignores_untouched_vertices():
    # One edge among 2000 + 2000 declared vertices: the weight matrix must be
    # sized by the two vertices the edge touches, not by the declared counts.
    oracle = BipartiteMatchings(BipartiteGraph(2000, 2000, ((1500, 7),)))
    assert oracle.maximize((3,)) == (1,)  # numpy and scipy load outside the trace
    tracemalloc.start()
    try:
        assert oracle.maximize((3,)) == (1,)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@st.composite
def _weighted_bipartite(draw):
    left, right = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pair = st.tuples(st.integers(0, left - 1), st.integers(0, right - 1))
    edges = tuple(draw(st.lists(pair, min_size=1, max_size=8)))
    # Weights near the exact limit make sums that float64 would round.
    weight = st.one_of(
        st.integers(-(2**51), 2**51), st.integers(2**51 - 64, 2**51), st.integers(-3, 3)
    )
    w = tuple(draw(st.lists(weight, min_size=len(edges), max_size=len(edges))))
    return BipartiteMatchings(BipartiteGraph(left, right, edges)), w


@needs_scipy
@settings(max_examples=500, deadline=None)
@given(_weighted_bipartite())
def test_matching_is_exact_up_to_the_weight_limit(case):
    oracle, w = case
    s = oracle.maximize(w)
    assert oracle.contains(s)
    members = [v for v in product((0, 1), repeat=len(w)) if oracle.contains(v)]
    assert dot(w, s) == max(dot(w, v) for v in members)


@needs_scipy
def test_matching_rejects_weights_above_the_exact_limit():
    g = BipartiteGraph(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)))
    oracle = BipartiteMatchings(g)
    assert oracle.maximize((2**51, 2**51 - 1, 2**51 - 1, 2**51)) == (1, 0, 0, 1)
    # nonpositive weights never reach the solver, whatever their size
    assert oracle.maximize((-(2**70), 1, 0, 0)) == (0, 1, 0, 0)
    for w in ((2**51 + 1, 0, 0, 0), (1, 2**70, 1, 1)):
        with pytest.raises(ValueError, match=r"exceeds 2\*\*51"):
            oracle.maximize(w)


# --- the lift oracle


def test_lift_routes_rows_to_best_columns():
    oracle = UniformMatroid(2, 1)
    c = matrix([[5, 1], [2, 7]])
    x = lift_maximize(oracle, 2, c)
    assert x == ((0, 0), (0, 1))
    sys_ = ExplicitSystem(((0, 0), (1, 0), (0, 1)))
    assert frobenius(c, x) == lift_value_full_enum(sys_, c, 2) == 7


def test_lift_all_negative_gives_zero_matrix():
    oracle = UniformMatroid(2, 2)
    c = matrix([[-1, -2], [-3, -4]])
    assert lift_maximize(oracle, 2, c) == ((0, 0), (0, 0))


def test_lift_degenerates_to_single_query_at_n_1():
    rng = random.Random(5)
    for _ in range(20):
        sys_ = rand_closed_system(rng, 5, 12)
        c = rand_cost(rng, 5, 1)
        x = lift_maximize(sys_, 1, c)
        s = sys_.maximize([row[0] for row in c])
        assert x == tuple((b,) for b in s)


def test_lift_ties_break_to_lowest_column():
    oracle = UniformMatroid(1, 1)
    x = lift_maximize(oracle, 3, matrix([[4, 4, 4]]))
    assert x == ((1, 0, 0),)


def test_lift_value_matches_independent_scan():
    rng = random.Random(6)
    for _ in range(60):
        d = rng.randint(1, 6)
        n = rng.randint(1, 4)
        sys_ = rand_closed_system(rng, d, 20)
        c = rand_cost(rng, d, n)
        x = lift_maximize(sys_, n, c)
        assert frobenius(c, x) == lift_value_by_scan(sys_, c)


def test_lift_value_matches_full_enumeration_small():
    rng = random.Random(7)
    for _ in range(20):
        d = rng.randint(1, 4)
        n = rng.randint(1, 3)
        sys_ = rand_closed_system(rng, d, 12)
        c = rand_cost(rng, d, n)
        x = lift_maximize(sys_, n, c)
        assert frobenius(c, x) == lift_value_full_enum(sys_, c, n)


def test_lifted_system_is_downward_monotone():
    rng = random.Random(8)
    for _ in range(40):
        d = rng.randint(1, 5)
        n = rng.randint(1, 3)
        sys_ = rand_closed_system(rng, d, 16)
        lifted = LiftedOracle(sys_, n)
        s = rng.choice(sys_.vectors)
        # scatter the ones of s into random columns
        flat = [0] * (d * n)
        for i, bit in enumerate(s):
            if bit:
                flat[i * n + rng.randrange(n)] = 1
        assert lifted.contains(tuple(flat))
        ones = [i for i, b in enumerate(flat) if b]
        if ones:
            flat[rng.choice(ones)] = 0
            assert lifted.contains(tuple(flat))


def test_lifted_oracle_maximize_is_member_and_optimal():
    rng = random.Random(9)
    for _ in range(20):
        d = rng.randint(1, 4)
        n = rng.randint(1, 3)
        sys_ = rand_closed_system(rng, d, 10)
        lifted = LiftedOracle(sys_, n)
        w = [rng.randint(-5, 5) for _ in range(d * n)]
        s = lifted.maximize(w)
        assert lifted.contains(s)
        c = tuple(tuple(w[i * n + j] for j in range(n)) for i in range(d))
        assert dot(w, s) == lift_value_full_enum(sys_, c, n)


def test_lift_uses_exactly_one_oracle_call():
    calls = []

    class Counting(UniformMatroid):
        def maximize(self, w):
            calls.append(tuple(w))
            return super().maximize(w)

    c = rand_cost(random.Random(12), 3, 4)
    lift_maximize(Counting(3, 2), 4, c)
    assert len(calls) == 1


def test_weight_length_validated():
    with pytest.raises(ValueError):
        UniformMatroid(3, 1).maximize((1, 2))
    with pytest.raises(ValueError):
        lift_maximize(UniformMatroid(2, 1), 2, matrix([[1, 2]]))
