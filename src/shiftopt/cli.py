"""Command-line driver.

Subcommands:

* solve  -- run one algorithm variant on an instance file.
* bench  -- random instances vs. the exact brute force; writes a CSV of
            per-trial ratios and exits nonzero on any bound violation.
* gadget -- emit reduction/gadget instances as files.

Exit codes: 0 ok, 1 I/O, parse or missing-dependency error, 2 validation
error (including a variant applied to an instance it does not support,
such as an approximation variant on a system that is not downward closed,
a solution column outside the system, n outside 1..MAX_N in solve, bench
and the gadgets that take or read an n, and a graph whose perfect
matchings exceed the search's node budget in `gadget coloring`), 3 bound
violation detected by bench.  Subcommands raise; `main` is the one place
that turns an error into a stderr line and an exit code.
"""

from __future__ import annotations

import argparse
import csv
import sys
from collections.abc import Callable
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate

from .core import columns
from .instances import (
    DEFAULT_BUDGET,
    EnumerationBudgetExceeded,
    Graph,
    Instance,
    InstanceFormatError,
    Meta,
    PrescribedCongestion,
    body_to_system,
    brute_force_sco,
    bump_costs,
    coloring_gadget,
    congestion_to_cost,
    hexagon_gadget,
    independent_set_gadget,
    parse,
    perfect_matchings,
    random_instance,
    serialize,
)
from .oracles import BipartiteMatchings, ExplicitSystem, UniformMatroid
from .sco import _SMALL_N_LEVELS, APPROX_VARIANTS, NotDownwardClosedError, convex_identical

VARIANTS = (*APPROX_VARIANTS, "convex", "exact")

# The largest n that solve, bench and the gadgets accept (the smallest is 1):
# every printed bound (about n log10 n digits) stays under the 4300-digit
# int-to-str limit.
MAX_N = 512


def _check_columns(n: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_N:
        raise ValueError(f"n = {n} exceeds the limit of {MAX_N} columns")


def _decimal(value: int) -> str:
    """value in decimal, past the int-to-str digit limit too; parse keeps
    that limit, so only a sum of many long costs can pass it."""
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(value)
        finally:
            sys.set_int_max_str_digits(limit)


def _read_instance(path: str) -> Instance:
    with open(path, "rb") as fh:
        return parse(fh.read())


def _cmd_solve(args) -> int:
    inst = _read_instance(args.file)
    c, n, system = inst.c, inst.n, inst.system
    _check_columns(n)
    bound, level = Fraction(1), None
    if args.variant == "exact":
        value, solution = brute_force_sco(system, c, n, args.budget)
    elif args.variant == "convex":  # rows are increments of per-element value tables
        tables = [tuple(accumulate(row, initial=0)) for row in c]
        s, value = convex_identical(system, tables, n)
        solution = tuple((b,) * n for b in s)
    else:
        res = APPROX_VARIANTS[args.variant][0](system, c, n)
        value, solution, bound, level = res.value, res.solution, res.bound, res.level
    for j, col in enumerate(columns(solution), 1):
        if not system.contains(col):
            raise ValueError(f"solution column {j} is not in the system")

    print(f"variant: {args.variant}")
    print(f"value: {_decimal(value)}")
    print(f"bound: {bound} (~{float(bound):.6f})")
    if level is not None:
        print(f"level: {level}")
    if inst.meta is not None and inst.meta.target is not None:
        met = "yes" if value == inst.meta.target else "no"
        print(f"target: {inst.meta.target} met: {met}")
    if args.print_solution:
        print("solution:")
        for row in solution:
            print("".join(map(str, row)))
    return 0


def _bench_variants(n: int, shifted: bool) -> list[str]:
    variants = ["shifted"] if shifted else []
    variants.append("log")
    if n in _SMALL_N_LEVELS:
        variants.append("small-n")
    return variants


def _cmd_bench(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    _check_columns(args.n)
    variants = _bench_variants(args.n, args.shifted)
    bounds = {variant: APPROX_VARIANTS[variant][1](args.n) for variant in variants}
    rows = []
    min_ratio: dict[str, Fraction | None] = dict.fromkeys(variants)
    violations = dict.fromkeys(variants, 0)
    skipped = 0
    for trial in range(args.trials):
        inst_seed = args.seed + trial
        inst = random_instance(
            inst_seed,
            d=args.d,
            n=args.n,
            set_size=args.set_size,
            cost_range=args.cost_range,
            shifted=args.shifted,
        )
        head = [inst_seed, args.d, args.n, args.set_size]
        try:
            opt, _ = brute_force_sco(inst.system, inst.c, inst.n, args.budget)
        except EnumerationBudgetExceeded:
            skipped += 1
            for variant in variants:
                rows.append([*head, variant, "", "", "skipped", bounds[variant], "false"])
            continue
        for variant in variants:
            res = APPROX_VARIANTS[variant][0](inst.system, inst.c, inst.n)
            ratio, violated = "", False
            if opt > 0:
                ratio = Fraction(res.value, opt)
                violated = ratio < bounds[variant]
                violations[variant] += violated
                low = min_ratio[variant]
                min_ratio[variant] = ratio if low is None else min(low, ratio)
            rows.append(
                [*head, variant, res.value, opt, ratio, bounds[variant],
                 "true" if violated else "false"]
            )

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["seed", "d", "n", "set_size", "variant", "apx", "opt", "ratio", "bound", "violated"]
        )
        writer.writerows(rows)

    for variant in variants:
        low = min_ratio[variant]
        shown = "n/a" if low is None else f"{float(low):.6f}"
        print(
            f"variant={variant} trials={args.trials} min_ratio={shown} "
            f"bound={float(bounds[variant]):.6f} violations={violations[variant]} "
            f"skipped={skipped}"
        )
    total = sum(violations.values())
    if total:
        print(f"bound violations detected: {total}", file=sys.stderr)
        return 3
    return 0


def _split(text: str, sep: str, item: Callable[[str], object], what: str) -> tuple:
    """Read each nonblank sep-separated part of text with item; at least one."""
    out = tuple(item(part) for part in map(str.strip, text.split(sep)) if part)
    if not out:
        raise ValueError(f"empty {what}")
    return out


def _edge(part: str) -> tuple[int, int]:
    bits = part.split("-")
    if len(bits) != 2:
        raise ValueError(f"bad edge {part!r}; expected u-v")
    return int(bits[0]) - 1, int(bits[1]) - 1


def _prescribed(system, pc: PrescribedCongestion, description: str) -> Instance:
    """The instance over system whose target is met iff pc is feasible."""
    c, target = congestion_to_cost(pc)
    return Instance(system, pc.n, c, Meta(target=target, description=description))


def _lifted(inst: Instance, system, card: int) -> Instance:
    """inst over system with bumped costs; a target rises by bump * n * card,
    where card is the number of ones in each column of a target solution."""
    bump, b = bump_costs(inst.c)
    meta = inst.meta
    if meta is not None and meta.target is not None:
        meta = replace(meta, target=meta.target + bump * inst.n * card)
    return Instance(system, inst.n, b, meta)


def _cmd_gadget(args) -> int:
    if args.kind == "independent-set":
        _check_columns(args.n)
        graph = Graph(args.vertices, _split(args.edges, ",", _edge, "edge list"))
        inst = independent_set_gadget(graph, args.n)
    elif args.kind == "coloring":
        graph = Graph(args.vertices, _split(args.edges, ",", _edge, "edge list"))
        pc = coloring_gadget(graph)
        body = perfect_matchings(graph)
        if not body:
            raise ValueError("graph has no perfect matching")
        inst = _prescribed(
            ExplicitSystem(body),
            pc,
            "perfect matchings of a cubic graph; target met iff "
            "two edge-disjoint perfect matchings exist",
        )
    elif args.kind == "hexagon":
        family = _split(
            args.sets, ";", lambda p: tuple(int(v) - 1 for v in p.split(",")), "set family"
        )
        bgraph, pc = hexagon_gadget(family, args.k)
        system = BipartiteMatchings(bgraph)
        inst = _prescribed(
            system,
            pc,
            "hexagon gadget over bipartite matchings; target met "
            "iff an exact cover by the given 3-sets exists",
        )
        inst = _lifted(inst, system, (bgraph.left + bgraph.right) // 2)
    elif args.kind == "congestion":
        _check_columns(args.n)
        sets = _split(
            args.sets, ";", lambda p: frozenset(map(int, p.split(","))), "congestion set list"
        )
        pc = PrescribedCongestion(args.n, sets)
        d = len(pc.sets)
        inst = _prescribed(
            UniformMatroid(d, d if args.rank is None else args.rank),
            pc,
            "prescribed congestion over a uniform matroid; "
            "target met iff the prescription is feasible",
        )
    else:  # lift-body
        body = _read_instance(args.body)
        _check_columns(body.n)
        if not isinstance(body.system, ExplicitSystem):
            raise ValueError("lift-body needs an instance with an explicit system")
        closure, _ = body_to_system(body.system, body.c)
        inst = _lifted(body, closure, sum(body.system.vectors[0]))

    with open(args.out, "wb") as fh:
        fh.write(serialize(inst))
    print(f"wrote {args.out}")
    return 0


def _bool_flag(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftopt",
        description="Shifted combinatorial optimization over independence systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("file")
    solve.add_argument("--variant", choices=VARIANTS, required=True)
    solve.add_argument("--print-solution", action="store_true")
    solve.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    solve.set_defaults(func=_cmd_solve)

    bench = sub.add_parser("bench", help="benchmark algorithms against brute force")
    bench.add_argument("--d", type=int, required=True)
    bench.add_argument("--n", type=int, required=True)
    bench.add_argument("--set-size", type=int, required=True)
    bench.add_argument("--cost-range", type=int, required=True)
    bench.add_argument("--shifted", type=_bool_flag, required=True)
    bench.add_argument("--trials", type=int, required=True)
    bench.add_argument("--seed", type=int, required=True)
    bench.add_argument("--out", required=True)
    bench.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    bench.set_defaults(func=_cmd_bench)

    gadget = sub.add_parser("gadget", help="emit a reduction gadget instance")
    gadget.set_defaults(func=_cmd_gadget)
    gsub = gadget.add_subparsers(dest="kind", required=True)

    ind = gsub.add_parser("independent-set")
    ind.add_argument("--vertices", type=int, required=True)
    ind.add_argument("--edges", required=True, help='edge list like "1-2,2-3"')
    ind.add_argument("--n", type=int, required=True)

    col = gsub.add_parser("coloring")
    col.add_argument("--vertices", type=int, required=True)
    col.add_argument("--edges", required=True, help='edge list like "1-2,2-3"')

    hexa = gsub.add_parser("hexagon")
    hexa.add_argument("--k", type=int, required=True)
    hexa.add_argument("--sets", required=True, help='3-set family like "1,2,3;4,5,6"')

    cong = gsub.add_parser("congestion")
    cong.add_argument("--n", type=int, required=True)
    cong.add_argument("--sets", required=True, help='congestion sets like "0,1;0,2"')
    cong.add_argument("--rank", type=int, default=None)

    lift = gsub.add_parser("lift-body")
    lift.add_argument("--body", required=True, help="instance file with an explicit body")

    for kind in (ind, col, hexa, cong, lift):
        kind.add_argument("--out", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotDownwardClosedError:  # only solve runs a variant on a user's system
        message, code = (
            f"validation error: explicit system is not downward closed; the {args.variant} "
            "variant needs a downward-closed system (for a uniform-cardinality body, "
            "lift it with `gadget lift-body`)"
        ), 2
    except InstanceFormatError as exc:
        message, code = f"parse error: {exc}", 1
    except (OSError, ImportError) as exc:  # bipartite matchings need numpy and scipy
        message, code = f"error: {exc}", 1
    except (ValueError, EnumerationBudgetExceeded) as exc:
        message, code = f"validation error: {exc}", 2
    print(message, file=sys.stderr)
    return code
