"""The measured process: set-up, then a closed loop over one workload's ops.

Started by run.py.  It prints `ready` on its own line once set-up is done
(imports, input generation, one warm-up op); with `--setup-only` it then
exits.  Otherwise it runs the timed phase and prints one JSON line of raw
measurements.

Ops whose input breaks a documented precondition are not timed: they are
probes, run once after the timed phase, and reported apart from the ops.

One client, one thread: the next op starts only after the previous one
returned.  Every output goes through the checker.  An op's later outputs
are compared with its first by digest; a differing output is checked again
and recorded as nondeterminism.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import shiftopt  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def problems_of(op, out) -> list[str]:
    """The checker's verdict on one output (an exception counts as output)."""
    if isinstance(out, Exception):
        if op.precondition_broken and isinstance(out, ValueError):
            return []
        return [f"raised {type(out).__name__}: {out}"]
    try:
        return op.check(out)
    except Exception as exc:  # the output did not have the expected form
        return [f"output could not be checked: {exc!r}"]


def output_digest(op, out) -> bytes:
    if isinstance(out, Exception):
        return hashlib.sha256(f"{type(out).__name__}: {out}".encode()).digest()
    return hashlib.sha256(op.digest(out)).digest()


class Loop:
    """Runs ops in list order, round after round, and keeps their verdicts."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.first_digest: list[bytes | None] = [None] * len(ops)
        self.problems: list[list[str] | None] = [None] * len(ops)
        self.nondeterministic: set[int] = set()
        self.self_time_mismatches = 0
        self.recorder: tracing.Recorder | None = None
        self.totals = tracing.LayerTotals()
        self.kind_totals: dict[str, tracing.LayerTotals] = {}

    def run_one(self, i: int) -> tuple[int, bytes, int]:
        """Run op i (mod the list); return (latency ns, digest, check ns)."""
        j = i % len(self.ops)
        op = self.ops[j]
        recorder = self.recorder
        if recorder is not None:
            recorder.begin_op(i)
        start = perf_counter_ns()
        try:
            out = op.run()
        except Exception as exc:  # counted as a failed op, never fatal
            out = exc
        latency = perf_counter_ns() - start
        checked = perf_counter_ns()
        if recorder is not None:
            root, latency = recorder.end_op()
            selfs = tracing.self_times(recorder.spans, root)
            if sum(selfs) != latency:
                self.self_time_mismatches += 1
            self.totals.add_op(recorder.spans, root, selfs)
            kind = self.kind_totals.setdefault(op.kind, tracing.LayerTotals())
            kind.add_op(recorder.spans, root, selfs)
        digest = output_digest(op, out)
        if self.first_digest[j] is None:
            self.first_digest[j] = digest
            self.problems[j] = problems_of(op, out)
        elif digest != self.first_digest[j]:
            self.nondeterministic.add(j)
            self.problems[j] = problems_of(op, out)
        return latency, digest, perf_counter_ns() - checked

    def phase(self, seconds: float) -> tuple[list[int], list[bytes], float]:
        """Closed loop for `seconds` from op 0; returns (latencies ns,
        digests, busy s).  Busy time is the phase's wall time minus the
        checker's and the tracer's bookkeeping between ops."""
        latencies, digests = [], []
        overhead = 0
        start = perf_counter()
        deadline = start + seconds
        while perf_counter() < deadline:
            latency, digest, check_ns = self.run_one(len(latencies))
            latencies.append(latency)
            digests.append(digest)
            overhead += check_ns
        return latencies, digests, perf_counter() - start - overhead / 1e9

    def failed(self, i: int) -> bool:
        return bool(self.problems[i % len(self.ops)])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    listed = workloads.build(shiftopt, args.workload, args.seed)
    ops = [op for op in listed if not op.precondition_broken]
    probes = [op for op in listed if op.precondition_broken]
    loop = Loop(ops)
    loop.run_one(ops.index(workloads.warm_up_op(ops)))  # lazy imports, first calls
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result: dict = {"ops_in_list": len(ops)}
    if args.trace:
        lat_u, dig_u, _ = loop.phase(args.seconds / 2)
        loop.recorder = tracing.Recorder()
        tracer = tracing.Tracer(loop.recorder)
        tracer.install()
        try:
            lat_t, dig_t, _ = loop.phase(args.seconds / 2)
        finally:
            tracer.uninstall()
        common = min(len(lat_u), len(lat_t))
        result.update(
            untraced_ops=len(lat_u),
            traced_ops=len(lat_t),
            common_ops=common,
            trace_digest_equal=dig_u[:common] == dig_t[:common],
            overhead_frac=sum(lat_t[:common]) / sum(lat_u[:common]) - 1,
            self_time_mismatches=loop.self_time_mismatches,
            layers=layer_metrics(loop.totals, loop.recorder),
            kinds={k: kind_summary(t) for k, t in sorted(loop.kind_totals.items())},
        )
        if args.spans_out:
            write_spans(args.spans_out, loop.recorder.spans, ops)
        ran = len(lat_u) + len(lat_t)
    else:
        latencies, _, busy = loop.phase(args.seconds)
        ran = len(latencies)
        result.update(busy_s=busy, latencies_ns=latencies)

    failing = {ops[j].kind: p for j, p in enumerate(loop.problems) if p}
    result.update(
        attempted=ran,
        failed=sum(loop.failed(i) for i in range(ran)),
        probes=probe_report(probes),
        failed_kinds=sorted(failing),
        failure_samples=dict(list(failing.items())[:5]),
        nondeterministic=sorted(loop.nondeterministic),
        checked_ops=sum(p is not None for p in loop.problems),
        digest=first_round_digest(loop),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result), flush=True)
    return 0


def probe_report(probes) -> dict:
    """Runs each precondition probe once, untimed and after the timed phase,
    and counts the ones whose handling the checker flags."""
    flagged = []
    for op in probes:
        try:
            out = op.run()
        except Exception as exc:
            out = exc
        problems = problems_of(op, out)
        if problems:
            flagged.append(f"{op.kind}: {problems[0]}")
    return {"run": len(probes), "flagged": len(flagged), "samples": flagged[:3]}


def first_round_digest(loop: Loop) -> str | None:
    """SHA-256 over the outputs of one full round of the op list, in order."""
    if any(d is None for d in loop.first_digest):
        return None
    return hashlib.sha256(b"".join(loop.first_digest)).hexdigest()


def layer_metrics(totals: tracing.LayerTotals, recorder: tracing.Recorder) -> dict:
    """Per-op averages of every group, module and counter."""
    ops = max(totals.ops, 1)
    out = {}
    for group in tracing.GROUPS:
        out[f"{group}.self_ms"] = totals.group_self_ns(group) / ops / 1e6
        out[f"{group}.calls"] = totals.group_calls.get(group, 0) / ops
    for module in tracing.MODULES:
        out[f"{module}.self_ms"] = totals.module_self_ns(module) / ops / 1e6
    out["bench.self_ms"] = totals.self_ns.get(tracing.ROOT, 0) / ops / 1e6
    out["op.traced_ms"] = totals.op_ns / ops / 1e6
    for key, _ in tracing.COUNTERS.values():
        out[key] = recorder.counts.get(key, 0) / ops
    calls = totals.group_calls.get("oracles.maximize", 0)
    nonzero = recorder.counts.get("oracles.maximize.nonzero", 0)
    out["oracles.maximize.nonzero_ratio"] = nonzero / calls if calls else 0.0
    return out


def kind_summary(totals: tracing.LayerTotals) -> dict:
    ops = max(totals.ops, 1)
    out = {"ops": totals.ops, "op_ms": totals.op_ns / ops / 1e6}
    for group in tracing.GROUPS:
        out[f"{group}.self_ms"] = totals.group_self_ns(group) / ops / 1e6
    return out


def write_spans(path: str, spans, ops) -> None:
    """The spans of the traced phase's first round over the op list, one
    JSON array each: name, start ns, end ns, parent, op id, op kind."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w") as fh:
        for name, start, end, parent, op_id in spans:
            if op_id >= len(ops):
                break
            fh.write(json.dumps([name, start, end, parent, op_id, ops[op_id].kind]) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())
