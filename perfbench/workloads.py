"""The four workloads: inputs generated from the seed, and their ops.

An op is one user-visible unit of work.  `run` is the timed call into the
library; it returns everything the checker needs.  `check` receives that
output and returns a list of problems.  `digest` picks the bytes that
identify the output.  Inputs are generated here, during set-up, with the
benchmark's own generators and file writer; the library only ever receives
instance bytes, seeds, graphs or set families.

Op lists come from fixed size grids, in a seeded order, so that two seeds
give the same mix of work and differ only in structure and costs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import checker

WORKLOADS = ("lift-shifted", "levels-general", "ratio-sweep", "gadget-reductions")


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    digest: Callable[[Any], bytes] = field(default=lambda out: repr(out).encode())
    # Input breaks a documented precondition of the called algorithm; a
    # ValueError raised before any output is then the correct handling.
    # Such an op is a probe: run once, untimed, and reported apart.
    precondition_broken: bool = False


# Variant name -> library function.  Ops look functions up on the library
# at call time, so that the traced run sees the wrapped ones.
ALGORITHMS = {"shifted": "constant_shifted", "log": "log_approx", "small-n": "small_n_approx"}


class MemberSet:
    """Membership of an explicit system, kept by the benchmark itself."""

    def __init__(self, vectors) -> None:
        self._members = frozenset(vectors)

    def contains(self, v) -> bool:
        return tuple(v) in self._members


def instance_bytes(system: dict, n: int, c) -> bytes:
    """An instance file in the package's documented JSON format."""
    obj = {"version": 1, "n": n, "c": [list(row) for row in c], "system": system}
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def closed_family(rng: random.Random, d: int, size: int) -> list[tuple[int, ...]]:
    """A downward-closed family of exactly `size` vectors: the closure of
    random 6-9 element generators, the last one cut off by popcount (every
    proper subset of a kept vector has a lower popcount, so is kept too).
    Sorted by (popcount, bits)."""
    masks = {0}
    while len(masks) < size:
        gen = 0
        for i in rng.sample(range(d), rng.randint(6, 9)):
            gen |= 1 << i
        subs, sub = [], gen
        while sub:
            subs.append(sub)
            sub = (sub - 1) & gen
        for sub in sorted(subs, key=lambda m: bin(m).count("1")):
            if len(masks) == size:
                break
            masks.add(sub)
    vecs = [tuple((m >> i) & 1 for i in range(d)) for m in masks]
    return sorted(vecs, key=lambda v: (sum(v), v))


def costs(rng: random.Random, d: int, n: int, lo: int, hi: int, order: str | None = None):
    rows = []
    for _ in range(d):
        row = [rng.randint(lo, hi) for _ in range(n)]
        if order == "down":
            row.sort(reverse=True)
        elif order == "up":
            row.sort()
        rows.append(tuple(row))
    return tuple(rows)


def matroid_system(lib, rng: random.Random, kind: str, d: int):
    """(file system object, reference oracle) for a matroid or matching system."""
    if kind == "uniform":
        rank = rng.randint(d // 8, d // 4)
        return {"kind": "uniform", "d": d, "rank": rank}, lib.UniformMatroid(d, rank)
    if kind == "partition":
        elems = list(range(d))
        rng.shuffle(elems)
        blocks, pos = [], 0
        while pos < d:
            size = rng.randint(4, 12)
            blocks.append((tuple(elems[pos:pos + size]), rng.randint(1, 3)))
            pos += size
        obj = {
            "kind": "partition",
            "d": d,
            "blocks": [{"elements": [e + 1 for e in b], "capacity": cap} for b, cap in blocks],
        }
        return obj, lib.PartitionMatroid(d, tuple(blocks))
    if kind == "graphic":
        nv = max(4, d // 4)
        edges = []
        while len(edges) < d:
            u, v = rng.randrange(nv), rng.randrange(nv)
            if u != v:
                edges.append((u, v))
        obj = {"kind": "graphic", "vertices": nv, "edges": [[u + 1, v + 1] for u, v in edges]}
        return obj, lib.GraphicMatroid(nv, tuple(edges))
    if kind == "bipartite":
        side = max(2, d // 10)
        edges = [(rng.randrange(side), rng.randrange(side)) for _ in range(d)]
        obj = {
            "kind": "bipartite",
            "left": side,
            "right": side,
            "edges": [[l + 1, r + 1] for l, r in edges],
        }
        return obj, lib.BipartiteMatchings(lib.BipartiteGraph(side, side, tuple(edges)))
    raise ValueError(f"unknown system kind {kind!r}")


def solve_op(lib, kind: str, data: bytes, variant: str, ref, c, n: int) -> Op:
    """parse(instance bytes) + one approximation variant."""
    algorithm = ALGORITHMS[variant]

    def run():
        inst = lib.parse(data)
        return getattr(lib, algorithm)(inst.system, inst.c, inst.n)

    return Op(kind, run, lambda res: checker.check_solve(ref, c, n, variant, res))


def convex_op(lib, kind: str, data: bytes, ref, c, n: int) -> Op:
    """parse + per-element tables from the cost rows (the rows are the
    tables' increments, as `solve --variant convex` reads them) + solve."""
    tables = tuple(tuple([0] + [sum(row[:q]) for q in range(1, n + 1)]) for row in c)

    def run():
        inst = lib.parse(data)
        cols = [[0] for _ in inst.c]
        for table, row in zip(cols, inst.c):
            for v in row:
                table.append(table[-1] + v)
        return lib.convex_identical(inst.system, [tuple(t) for t in cols], inst.n)

    return Op(kind, run, lambda out: checker.check_convex(ref, tables, out[0], out[1]))


# ---------------------------------------------------------------------------
# lift-shifted


def lift_shifted(lib, rng: random.Random) -> list[Op]:
    """constant_shifted, n = 16, nonincreasing costs, four system kinds in
    turn at fifteen sizes d = 220..500 (evenly spaced, so no latency
    percentile falls in a gap between size classes)."""
    n = 16
    kinds = ("uniform", "partition", "graphic", "bipartite")
    ops = []
    for i in range(15):
        d, kind = 220 + 20 * i, kinds[i % 4]
        obj, ref = matroid_system(lib, rng, kind, d)
        c = costs(rng, d, n, -10, 40, order="down")
        ops.append(solve_op(lib, f"{kind}-{d}", instance_bytes(obj, n, c), "shifted", ref, c, n))
    return ops


# ---------------------------------------------------------------------------
# levels-general

# The first three are the leveled variants.
LEVEL_VARIANTS = (("log", 8), ("small-n", 4), ("log", 16), ("convex", 4))


def level_op(lib, rng: random.Random, name: str, d: int, obj: dict, ref, variant: str, n: int) -> Op:
    label = f"{name}-{variant}{n}"
    if variant == "convex":
        c = costs(rng, d, n, -10, 10, order="up")
        return convex_op(lib, label, instance_bytes(obj, n, c), ref, c, n)
    c = costs(rng, d, n, -10, 10)
    return solve_op(lib, label, instance_bytes(obj, n, c), variant, ref, c, n)


def levels_general(lib, rng: random.Random) -> list[Op]:
    """Leveled variants on arbitrary costs over six downward-closed explicit
    systems (d 20..30, 1.5k..3k members, two leveled variants each), and all
    four variants over 33 bipartite-matching and graphic systems
    (d 60..380); sizes evenly spaced.  The matroid ops are the faster
    two thirds of the list: their sizes spread each variant over the same
    range, so the median op lies inside one continuous band of times, and
    the 90th percentile inside the explicit ops.  convex_identical makes one
    oracle call, so on an explicit system it would be mostly parse."""
    ops = []
    for i in range(6):
        d, target = 20 + 2 * i, 1500 + 300 * i
        vecs = closed_family(rng, d, target)
        obj = {"kind": "explicit", "vectors": ["".join(map(str, v)) for v in vecs],
               "downward_closed": True}
        ref = MemberSet(vecs)
        for k in (2 * i, 2 * i + 1):
            variant, n = LEVEL_VARIANTS[k % 3]
            ops.append(level_op(lib, rng, f"explicit-{d}", d, obj, ref, variant, n))
    for i in range(33):
        d, kind = 60 + 10 * i, ("bipartite", "graphic")[i % 2]
        obj, ref = matroid_system(lib, rng, kind, d)
        variant, n = LEVEL_VARIANTS[(i // 2) % 4]
        ops.append(level_op(lib, rng, f"{kind}-{d}", d, obj, ref, variant, n))
    return ops


# ---------------------------------------------------------------------------
# ratio-sweep

# (d, n, set_size, shifted): the `shiftopt bench` grid this workload cycles,
# one configuration per fifth of the op list, in increasing order of trial
# time, so that the median op falls in the middle one and the 90th
# percentile in the middle of the last one.
SWEEP_CONFIGS = (
    (5, 3, 10, True),
    (8, 3, 16, False),
    (6, 4, 12, True),
    (8, 4, 16, False),
    (7, 5, 16, True),
)
SWEEP_TRIALS = 49
SWEEP_COST_RANGE = 7


def sweep_op(lib, seed: int, d: int, n: int, set_size: int, shifted: bool) -> Op:
    """One `shiftopt bench` trial: instance, brute force, every applicable
    variant, and the bench's exact ratio check."""
    variants = (["shifted"] if shifted else []) + ["log"] + (["small-n"] if n <= 4 else [])

    def run():
        inst = lib.random_instance(
            seed, d=d, n=n, set_size=set_size, cost_range=SWEEP_COST_RANGE, shifted=shifted
        )
        opt, witness = lib.brute_force_sco(inst.system, inst.c, inst.n)
        results = []
        violated = False
        for variant in variants:
            res = getattr(lib, ALGORITHMS[variant])(inst.system, inst.c, inst.n)
            if opt > 0 and res.value * res.bound.denominator < res.bound.numerator * opt:
                violated = True
            results.append((variant, res))
        return inst, opt, witness, tuple(results), violated

    def check(out):
        inst, opt, witness, results, violated = out
        problems = checker.check_exact(inst.system, inst.c, n, opt, witness)
        for variant, res in results:
            problems += checker.check_solve(inst.system, inst.c, n, variant, res, opt)
        if violated:
            problems.append("bench ratio check reported a violation")
        return problems

    return Op(f"sweep-d{d}-n{n}-s{set_size}", run, check)


def full_size_seeds(lib, first: int, d: int, n: int, set_size: int, shifted: bool) -> list[int]:
    """The first SWEEP_TRIALS seeds from `first` on whose instance has exactly
    `set_size` members.  Brute-force time grows with C(|S|+n-1, n), and
    `random_instance` trims to at most `set_size`, so a free draw of seeds
    would vary each seed's mix of trial times several-fold."""
    seeds, seed = [], first
    while len(seeds) < SWEEP_TRIALS:
        inst = lib.random_instance(
            seed, d=d, n=n, set_size=set_size, cost_range=SWEEP_COST_RANGE, shifted=shifted
        )
        if len(inst.system.vectors) == set_size:
            seeds.append(seed)
        seed += 1
    return seeds


def ratio_sweep(lib, rng: random.Random) -> list[Op]:
    base = rng.randrange(10**6)
    return [
        sweep_op(lib, seed, *cfg)
        for ci, cfg in enumerate(SWEEP_CONFIGS)
        for seed in full_size_seeds(lib, base + 1000 * ci, *cfg)
    ]


# ---------------------------------------------------------------------------
# gadget-reductions

# (k, m): universe size and number of 3-sets; each with and without a planted
# exact cover.  Larger k and m stay within the default enumeration budgets.
HEXAGON_CONFIGS = ((6, 2), (6, 3), (6, 4), (9, 3), (9, 4), (9, 5))
HEXAGON_FAMILIES = 3
HEXAGON_DESCRIPTION = (
    "hexagon gadget over bipartite matchings; target met iff an exact cover by the given "
    "3-sets exists"
)
STAR_GRAPHS = 9


def three_set_family(lib, rng: random.Random, k: int, m: int, planted: bool):
    while True:
        sets = []
        if planted:
            perm = list(range(k))
            rng.shuffle(perm)
            sets = [tuple(sorted(perm[i:i + 3])) for i in range(0, k, 3)]
        while len(sets) < m:
            sets.append(tuple(sorted(rng.sample(range(k), 3))))
        rng.shuffle(sets)
        if lib.exact_cover_exists(sets, k) == planted:
            return tuple(sets)


def hexagon_op(lib, sets, k: int) -> Op:
    """Build the hexagon gadget and the instance `gadget hexagon` writes,
    round-trip it through the file format, and decide feasibility by
    enumerating perfect matchings."""
    expected = lib.exact_cover_exists(sets, k)

    def run():
        graph, pc = lib.hexagon_gadget(sets, k)
        c, target_c = lib.congestion_to_cost(pc)
        bump = 2 * sum(abs(v) for row in c for v in row) + 1
        b = tuple(tuple(v + bump for v in row) for row in c)
        target = target_c + bump * 2 * ((graph.left + graph.right) // 2)
        meta = lib.Meta(target=target, description=HEXAGON_DESCRIPTION)
        inst = lib.Instance(lib.BipartiteMatchings(graph), 2, b, meta)
        data = lib.serialize(inst)
        back = lib.parse(data)
        pms = lib.perfect_matchings(lib.bipartite_to_graph(graph))
        decision = lib.congestion_feasible(pms, pc) if pms else False
        return inst, data, back, pms, decision

    def check(out):
        inst, data, back, pms, decision = out
        problems = checker.check_decision(decision, expected)
        if back != inst:
            problems.append("serialize/parse round trip changed the instance")
        return problems

    def digest(out):
        _, data, _, pms, decision = out
        return data + repr((pms, decision)).encode()

    return Op(f"hexagon-k{k}-m{len(sets)}", run, check, digest)


def random_graph(rng: random.Random, nv: int):
    """A graph on nv vertices without isolated vertices."""
    pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
    while True:
        edges = sorted(rng.sample(pairs, rng.randint(nv // 2 + 1, len(pairs) - 1)))
        if all(any(x in e for e in edges) for x in range(nv)):
            return tuple(edges)


def star_ops(lib, rng: random.Random, nv: int, n: int) -> list[Op]:
    """Independent-set gadget: the exact decision, and the log and small-n
    solves of the same file (star systems are not downward closed)."""
    edges = random_graph(rng, nv)
    expected = checker.has_independent_set(nv, edges, n)
    stars = MemberSet(tuple(1 if x in e else 0 for e in edges) for x in range(nv))
    c = tuple((0,) + (-1,) * (n - 1) for _ in edges)
    data = lib.serialize(lib.independent_set_gadget(lib.Graph(nv, edges), n))

    def run_exact():
        inst = lib.independent_set_gadget(lib.Graph(nv, edges), n)
        out = lib.serialize(inst)
        back = lib.parse(out)
        opt, witness = lib.brute_force_sco(back.system, back.c, back.n)
        return inst, out, back, opt, witness, opt == back.meta.target

    def check_exact(out):
        inst, _, back, opt, witness, decision = out
        problems = checker.check_exact(stars, c, n, opt, witness)
        problems += checker.check_decision(decision, expected)
        if back != inst:
            problems.append("serialize/parse round trip changed the instance")
        return problems

    ops = [Op(f"star-v{nv}-n{n}-exact", run_exact, check_exact,
              lambda out: out[1] + repr(out[3:]).encode())]
    for variant in ("log", "small-n"):
        op = solve_op(lib, f"star-v{nv}-n{n}-{variant}", data, variant, stars, c, n)
        op.precondition_broken = True
        ops.append(op)
    return ops


def relabel(rng: random.Random, sets, k: int):
    """The same family under a random permutation of the universe and of
    the set order: decisions and matching counts do not change."""
    perm = list(range(k))
    rng.shuffle(perm)
    out = [tuple(sorted(perm[e] for e in s)) for s in sets]
    rng.shuffle(out)
    return tuple(out)


def gadget_reductions(lib, rng: random.Random) -> list[Op]:
    # The family shapes come from a fixed generator and the seed relabels
    # them: the cost of matching enumeration grows with the square of the
    # number of perfect matchings, which a fresh draw would vary several-fold.
    shapes = random.Random("hexagon-shapes")
    ops = []
    for k, m in HEXAGON_CONFIGS:
        for planted in (True, False):
            for _ in range(HEXAGON_FAMILIES):
                sets = relabel(rng, three_set_family(lib, shapes, k, m, planted), k)
                ops.append(hexagon_op(lib, sets, k))
    for i in range(STAR_GRAPHS):
        ops += star_ops(lib, rng, 4 + i % 4, 2 + (i // 4) % 2)
    return ops


# Every op list has a length N with N / 2 and 9 N / 10 halfway between
# integers (15, 45, 245): the median and the 90th percentile then fall in the
# middle of one op's share of the samples, not on the border between two
# ops, where a run that stops mid-round decides which of the two it reads.

BUILDERS = {
    "lift-shifted": lift_shifted,
    "levels-general": levels_general,
    "ratio-sweep": ratio_sweep,
    "gadget-reductions": gadget_reductions,
}


def build(lib, workload: str, seed: int) -> list[Op]:
    """The op list of a workload, in a seeded random order; the same seed
    gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    ops = BUILDERS[workload](lib, rng)
    rng.shuffle(ops)
    return ops


def warm_up_op(ops: list[Op]) -> Op:
    """The same kind of op on every seed, so that set-up time compares."""
    return min(ops, key=lambda op: op.kind)
