#!/usr/bin/env python3
"""shiftopt benchmark: one closed-loop workload per run, every output checked.

Usage, from the repository root:

    python3 perfbench/run.py --workload lift-shifted --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

`--trace 0` measures the end-to-end metrics; `--trace 1` runs the same ops
untraced and then traced, and reports per-layer metrics.  `--workload all`
runs every workload both ways and prints everything.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

Set-up time is the wall time from starting a fresh worker process to its
`ready` line (imports, input generation, one warm-up op).  It is taken from
SETUP_PROBES extra workers plus the measured one, and reported as their
median.  The worker runs with one BLAS/OpenMP thread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"

WORKLOADS = ("lift-shifted", "levels-general", "ratio-sweep", "gadget-reductions")
SETUP_PROBES = 2
# Longest a single run may take beyond its measuring time.
GRACE_S = 40

# Printed with the end-to-end metrics, but carried in the result line by
# `attempted` and `failed`: it is 0 on a healthy workload.
FAILED_FRAC_UNIT = "ratio"


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, in BENCHMARK.json order, for end_to_end or per_layer."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args: list[str], timeout: float) -> tuple[str, float]:
    """Run a worker to its end; return its output and its set-up time (start
    to `ready`).  The worker is stopped and reaped on every path out."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=worker_env(),
        cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        if line.strip() != "ready":
            raise RuntimeError(f"worker did not become ready (got {line!r})")
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RuntimeError("worker timed out") from None
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        return out, elapsed
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of sorted values."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    for _ in range(SETUP_PROBES):
        setups.append(run_worker(base + ["--setup-only"], GRACE_S)[1])
    extra = ["--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        extra += ["--spans-out", str(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")]
    out, elapsed = run_worker(base + extra, seconds + GRACE_S)
    setups.append(elapsed)
    raw = json.loads(out.splitlines()[-1])
    raw["setup_samples_s"] = setups
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"raw-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(raw))
    return raw


def end_to_end(raw: dict) -> dict:
    lat_ms = sorted(ns / 1e6 for ns in raw["latencies_ns"])
    return {
        "ops_per_s": len(lat_ms) / raw["busy_s"],
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": quantile(lat_ms, 0.9),
        "setup_s": statistics.median(raw["setup_samples_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw: dict) -> dict:
    metrics = dict(raw["layers"])
    metrics["trace.overhead_frac"] = raw["overhead_frac"]
    return metrics


def integrity_problems(raw: dict, trace: int) -> list[str]:
    """Checks on the benchmark's own invariants, separate from op failures."""
    problems = []
    if raw["checked_ops"] == 0:
        problems.append("no op output was checked")
    if raw["nondeterministic"]:
        problems.append(f"ops {raw['nondeterministic']} gave differing outputs")
    if raw["failed"]:
        problems.append(f"{raw['failed']} ops failed")
    if trace:
        if not raw["trace_digest_equal"]:
            problems.append("traced outputs differ from untraced outputs")
        if raw["self_time_mismatches"]:
            problems.append(
                f"{raw['self_time_mismatches']} ops whose layer self times do not sum to the op"
            )
    return problems


def report(workload: str, seed: int, trace: int, raw: dict) -> tuple[dict, list[str]]:
    """Print the human-readable lines; return (metrics with units, problems)."""
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"workload={workload} seed={seed} trace={trace} ops_in_list={raw['ops_in_list']}")
    if trace:
        units = metric_units("per_layer")
        values = per_layer(raw)
        print(
            f"  traced {raw['traced_ops']} ops, untraced {raw['untraced_ops']} ops, "
            f"digests equal on the first {raw['common_ops']}: {raw['trace_digest_equal']}"
        )
        for name in units:
            print(f"  {name:<40} {values[name]:14.4f} {units[name]}")
    else:
        units = metric_units("end_to_end")
        values = end_to_end(raw)
        n = len(raw["latencies_ns"])
        counts = {
            "ops_per_s": f"{n} ops in {raw['busy_s']:.3f} s",
            "op_p50_ms": f"n={n}",
            "op_p90_ms": f"n={n}, {n - int(0.9 * n)} beyond",
            "setup_s": f"median of {len(raw['setup_samples_s'])} set-ups",
            "peak_rss_mb": "worker process",
        }
        for name in units:
            print(f"  {name:<12} {values[name]:12.4f} {units[name]:<6} ({counts[name]})")
        frac = failed / attempted
        print(f"  {'failed_frac':<12} {frac:12.4f} {FAILED_FRAC_UNIT:<6} ({failed}/{attempted})")
    if failed:
        print(f"  failing kinds: {', '.join(raw['failed_kinds'])}")
        for kind, problems in raw["failure_samples"].items():
            print(f"    {kind}: {problems[0]}")
    probes = raw["probes"]
    if probes["run"]:
        print(
            f"  precondition probes (untimed): {probes['flagged']} of {probes['run']} "
            "handled wrongly"
        )
        for sample in probes["samples"]:
            print(f"    {sample}")
    print(f"  digest sha256 {raw['digest']}")
    problems = integrity_problems(raw, trace)
    for p in problems:
        print(f"  INTEGRITY: {p}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return metrics, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated run still stops its worker (run_worker's finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "shiftopt" / "__init__.py").is_file():
        print(f"error: no shiftopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runs = (
        [(w, t) for w in WORKLOADS for t in (0, 1)]
        if args.workload == "all"
        else [(args.workload, args.trace)]
    )
    results = {}
    for workload, trace in runs:
        try:
            raw = measure(workload, args.seed, args.seconds, trace)
        except RuntimeError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        metrics, problems = report(workload, args.seed, trace, raw)
        results[(workload, trace)] = {
            "correct": not problems,
            "attempted": raw["attempted"],
            "failed": raw["failed"],
            "metrics": metrics,
        }
    if args.workload != "all":
        print(json.dumps(results[(args.workload, args.trace)]))
        return 0
    OUT_DIR.mkdir(exist_ok=True)
    summary = {f"{w}/trace{t}": r for (w, t), r in results.items()}
    (OUT_DIR / f"all-seed{args.seed}.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{w}.{name}": m for (w, t), r in results.items() for name, m in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
