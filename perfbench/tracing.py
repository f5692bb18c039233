"""Span recorder for the traced run, installed from outside the package.

Every public function and public method defined in the traced modules is
replaced by a wrapper that records a span (name, start, end, parent, op id)
while an op is open.  Module-level references are rebound in every loaded
`shiftopt` module, so calls made through `from .x import f` are traced too.
Nothing under `src/` is edited; `uninstall` restores the originals.

Self time is a span's duration minus the part of it covered by its child
spans.  Layer groups (see GROUPS) add up the self times of their member
spans; the five module totals plus `bench.self_ms` add up to the op span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from math import comb
from time import perf_counter_ns

MODULES = ("core", "oracles", "dup", "sco", "instances")

BASE_ORACLES = (
    "ExplicitSystem",
    "UniformMatroid",
    "PartitionMatroid",
    "GraphicMatroid",
    "BipartiteMatchings",
)

# Per-layer groups: name -> span names whose self times and calls it sums.
# A group's calls count its outermost spans only, so lift_maximize inside
# LiftedOracle.maximize is one lift call.
GROUPS: dict[str, tuple[str, ...]] = {
    "oracles.maximize": tuple(f"oracles.{c}.maximize" for c in BASE_ORACLES),
    "oracles.contains": tuple(f"oracles.{c}.contains" for c in BASE_ORACLES + ("LiftedOracle",)),
    "oracles.lift": ("oracles.LiftedOracle.maximize", "oracles.lift_maximize"),
    "oracles.closure": ("oracles.is_downward_closed", "oracles.down_close"),
    "dup.greedy_dup": ("dup.greedy_dup",),
    "dup.orthogonalize": ("dup.orthogonalize",),
    "core.reshape": ("core.from_columns", "core.columns"),
    "core.shifted_value": ("core.shifted_value",),
    "sco.solve": (
        "sco.constant_shifted",
        "sco.log_approx",
        "sco.small_n_approx",
        "sco.convex_identical",
    ),
    "sco.level_candidate": ("sco.level_candidate",),
    "sco.clean": ("sco.clean", "sco.potential_profit"),
    "instances.parse": ("instances.parse",),
    "instances.serialize": ("instances.serialize",),
    "instances.gadget_build": (
        "instances.hexagon_gadget",
        "instances.independent_set_gadget",
        "instances.congestion_to_cost",
        "instances.bipartite_to_graph",
    ),
    "instances.perfect_matchings": ("instances.perfect_matchings",),
    "instances.congestion_feasible": ("instances.congestion_feasible",),
    "instances.brute_force": (
        "instances.brute_force_sco",
        "instances.brute_force_dup",
        "instances.brute_force_generalized",
    ),
    "instances.random_instance": ("instances.random_instance",),
}

ROOT = "op"


def _parse_bytes(args, result):
    return len(args[0])


def _found(args, result):
    return len(result)


def _candidates(args, result):
    system, _, n = args[:3]
    return comb(len(system.vectors) + n - 1, n)


def _nonzero(args, result):
    return 1 if any(result) else 0


# Extra per-span counts: span name -> (counter name, f(positional args, result)).
COUNTERS = {
    "instances.parse": ("instances.parse.bytes", _parse_bytes),
    "instances.perfect_matchings": ("instances.perfect_matchings.found", _found),
    "instances.brute_force_sco": ("instances.brute_force.candidates", _candidates),
    **{
        name: ("oracles.maximize.nonzero", _nonzero)
        for name in GROUPS["oracles.maximize"]
    },
}


class Recorder:
    """In-memory spans of the ops run while tracing is on.

    A span is (name, start_ns, end_ns, parent_index, op_id); the parent of
    an op's root span is -1.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._op: int | None = None

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append((ROOT, perf_counter_ns(), 0, -1, op_id))

    def end_op(self) -> tuple[int, int]:
        """Close the op span; return (root index, op duration in ns)."""
        end = perf_counter_ns()
        root = self._stack.pop()
        name, start, _, parent, op_id = self.spans[root]
        self.spans[root] = (name, start, end, parent, op_id)
        self._op = None
        return root, end - start

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, perf_counter_ns
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self._op
            if op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, op)
            if counter is not None:
                key, count = counter
                self.counts[key] = self.counts.get(key, 0) + count(args, result)
            return result

        return traced


def self_times(spans, first: int = 0) -> list[int]:
    """Self time of each span in spans[first:], in the spans' time unit.

    A span's self time is its duration minus the length of the union of its
    children's intervals, clipped to the span.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent, _ in spans[first:]:
        if parent >= first:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx in range(first, len(spans)):
        _, start, end, _, _ = spans[idx]
        covered, reach = 0, start
        for cs, ce in sorted(children.get(idx, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append(end - start - covered)
    return out


class Tracer:
    """Installs Recorder wrappers on the traced modules and removes them."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        _assign(owner, attr, value)

    def install(self) -> None:
        wrapped: dict[object, object] = {}
        for short in MODULES:
            mod = importlib.import_module(f"shiftopt.{short}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.recorder.wrap(f"{short}.{name}", obj)
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if attr.startswith("_"):
                            continue
                        label = f"{short}.{name}.{attr}"
                        if inspect.isfunction(member):
                            self._set(obj, attr, self.recorder.wrap(label, member))
                        elif isinstance(member, classmethod):
                            fn = self.recorder.wrap(label, member.__func__)
                            self._set(obj, attr, classmethod(fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "shiftopt" and not mod_name.startswith("shiftopt."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, name, wrapped[obj])
        # constant_shifted and the leveled variants reach greedy_dup through
        # the GREEDY_DUP dataclass (their default `solver`), which holds the
        # function object itself rather than a module-level name.
        from shiftopt.dup import GREEDY_DUP

        for field in ("solve", "ratio"):
            fn = getattr(GREEDY_DUP, field)
            if fn in wrapped:
                self._set(GREEDY_DUP, field, wrapped[fn])

    def uninstall(self) -> None:
        while self._undo:
            _assign(*self._undo.pop())


def _assign(owner, attr: str, value) -> None:
    # object.__setattr__ also reaches the fields of a frozen dataclass.
    if isinstance(owner, type):
        setattr(owner, attr, value)
    else:
        object.__setattr__(owner, attr, value)


class LayerTotals:
    """Sums over ops of self time by span name, and of calls by group."""

    def __init__(self) -> None:
        self.ops = 0
        self.op_ns = 0
        self.self_ns: dict[str, int] = {}
        self.group_calls: dict[str, int] = {}
        self._group_of = {name: g for g, names in GROUPS.items() for name in names}

    def add_op(self, spans, root: int, selfs: list[int]) -> None:
        """Fold in one finished op: spans[root:] and their self times."""
        for (name, _, _, parent, _), own in zip(spans[root:], selfs):
            self.self_ns[name] = self.self_ns.get(name, 0) + own
            group = self._group_of.get(name)
            if group is not None and (
                parent < 0 or self._group_of.get(spans[parent][0]) != group
            ):
                self.group_calls[group] = self.group_calls.get(group, 0) + 1
        _, start, end, _, _ = spans[root]
        self.ops += 1
        self.op_ns += end - start

    def module_self_ns(self, module: str) -> int:
        prefix = module + "."
        return sum(v for k, v in self.self_ns.items() if k.startswith(prefix))

    def group_self_ns(self, group: str) -> int:
        return sum(self.self_ns.get(name, 0) for name in GROUPS[group])
