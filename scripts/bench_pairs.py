#!/usr/bin/env python3
"""Compare the benchmark of a parent commit with the working tree, in pairs.

Usage, from the repository root:

    python3 scripts/bench_pairs.py --workloads levels-general --pairs 10 \
        --first-seed 21 --out BENCH_N.json

The parent commit (default HEAD) is exported with `git archive`, and the
working tree's files that git tracks or would track are copied, each into
a fresh temporary directory, so both sides run from new directories and
no worktree is registered.  Each pair runs `perfbench/run.py` once on each
side with the same seed for BENCHMARK.json's `run_seconds`, the side that
goes first alternating from pair to pair, because the host's speed drifts
with run order.  The output JSON holds every run and, per workload and
end-to-end metric, the medians and quartiles of both sides, the number of
pairs the change won, whether the median moved in the metric's better
direction by more than the parent's interquartile range, the change's
relative worsening against the metric's bound from BENCHMARK.json, and
whether the comparison is unresolved: a side's interquartile range over
its median exceeds the bound and not every change run reads better than
every parent run.
Digests are compared per seed, and each side's median count of attempted
ops is kept per workload, because `peak_rss_mb` grows with it.  After a
workload's pairs, one traced run (`--trace 1`) per side on the first seed
records each per-layer metric of BENCHMARK.json side by side under
`layers`, to show in which layers a change of the end-to-end metrics
arises.  The file is rewritten after every pair and after each workload's
traced runs, so an interrupted series keeps what it finished.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from datetime import date
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export_commit(rev: str, dest: Path) -> None:
    """Write the files of `rev` into dest (no worktree is registered)."""
    archive = subprocess.run(
        ["git", "archive", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def export_working_tree(dest: Path) -> None:
    """Copy the working tree's tracked and untracked, not ignored, files."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file may be deleted in the working tree
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One perfbench run; its result line, digest and probe line.  The
    metrics are the end-to-end ones, or the per-layer ones when traced."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {workload} seed {seed}: {proc.stderr.strip()}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    digest = re.search(r"digest sha256 (\S+)", proc.stdout)
    probes = re.search(r"precondition probes \(untimed\): (.*)", proc.stdout)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "digest": digest.group(1) if digest else None,
        "probes": probes.group(1).strip() if probes else None,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list[dict], spec: dict) -> dict:
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_seed = {}
        for r in mine:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r
        pairs = [p for p in by_seed.values() if len(p) == 2]
        if len(pairs) < 2:
            continue
        entry = {
            "pairs": len(pairs),
            "digests_equal_per_seed": all(
                p["parent"]["digest"] == p["change"]["digest"] for p in pairs
            ),
            "failed_parent": sum(p["parent"]["failed"] for p in pairs),
            "failed_change": sum(p["change"]["failed"] for p in pairs),
            "attempted_median": {
                side: statistics.median(p[side]["attempted"] for p in pairs)
                for side in ("parent", "change")
            },
        }
        for metric in spec["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            parent = [p["parent"]["metrics"][name] for p in pairs]
            change = [p["change"]["metrics"][name] for p in pairs]
            pq1, pmed, pq3 = quartiles(parent)
            cq1, cmed, cq3 = quartiles(change)
            wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
            gain = (cmed - pmed) if higher else (pmed - cmed)
            worse_by = (1 - cmed / pmed) if higher else (cmed / pmed - 1)
            spread = max((pq3 - pq1) / pmed, (cq3 - cq1) / cmed)
            separated = min(change) > max(parent) if higher else max(change) < min(parent)
            entry[name] = {
                "parent_median": pmed,
                "parent_q1": pq1,
                "parent_q3": pq3,
                "change_median": cmed,
                "change_q1": cq1,
                "change_q3": cq3,
                "change_over_parent": cmed / pmed,
                "change_better_in_pairs": f"{wins} of {len(pairs)}",
                "median_gain_exceeds_parent_iqr": gain > pq3 - pq1,
                "change_worse_by": worse_by,
                "within_bound": worse_by <= metric["bound"],
                "relative_spread": spread,
                "unresolved": spread > metric["bound"] and not separated,
            }
        summary[workload] = entry
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    commit = subprocess.run(
        ["git", "rev-parse", "--short", args.parent], cwd=ROOT, check=True,
        capture_output=True, text=True,
    ).stdout.strip()

    out = {
        "parent_commit": commit,
        "date": date.today().isoformat(),
        "machine": {"os": f"{platform.system()} {platform.machine()}",
                    "python": platform.python_version()},
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {seconds:g} --trace 0 (1 for layers)",
    }
    runs: list[dict] = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for tree in trees.values():
            tree.mkdir()
        export_commit(args.parent, trees["parent"])
        export_working_tree(trees["change"])
        for workload in args.workloads:
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    run = run_once(trees[side], workload, seed, seconds)
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "first": order[0], **run})
                    print(f"{workload} seed {seed} {side}: ops_per_s "
                          f"{run['metrics']['ops_per_s']:.1f}", file=sys.stderr, flush=True)
                out.update(summary=summarize(runs, spec), runs=runs)
                args.out.write_text(json.dumps(out, indent=1) + "\n")
            traced = {
                side: run_once(trees[side], workload, args.first_seed, seconds, trace=1)
                for side in ("parent", "change")
            }
            out.setdefault("layers", {})[workload] = {
                "seed": args.first_seed,
                "correct": {side: run["correct"] for side, run in traced.items()},
                "metrics": {
                    name: {side: run["metrics"][name] for side, run in traced.items()}
                    for name in traced["parent"]["metrics"]
                },
            }
            args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
