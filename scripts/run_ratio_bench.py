#!/usr/bin/env python3
"""Sweep random-instance benchmarks over several configurations.

Each configuration prints a `config <tag>` line, then runs `shiftopt bench`,
which writes its CSV into the output directory and prints, per algorithm
variant, the minimum observed ratio, the proven bound and the violations.
The exit status is 1 if any configuration's bench failed.

Usage: python3 scripts/run_ratio_bench.py [--trials 200] [--seed 0] [--out-dir results]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from shiftopt.cli import main as cli_main


CONFIGS = [
    # (n, shifted, d, set_size, cost_range)
    (2, True, 6, 14, 8),
    (3, True, 6, 14, 8),
    (4, True, 6, 14, 8),
    (2, False, 6, 12, 8),
    (3, False, 6, 12, 8),
    (4, False, 6, 12, 8),
    (5, False, 5, 10, 8),
]


def run(trials: int, seed: int, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for n, shifted, d, set_size, cost_range in CONFIGS:
        tag = f"n{n}_{'shifted' if shifted else 'general'}"
        print(f"config {tag}", flush=True)
        out = out_dir / f"bench_{tag}.csv"
        code = cli_main(
            [
                "bench",
                "--d", str(d),
                "--n", str(n),
                "--set-size", str(set_size),
                "--cost-range", str(cost_range),
                "--shifted", "true" if shifted else "false",
                "--trials", str(trials),
                "--seed", str(seed),
                "--out", str(out),
            ]
        )
        failures += code != 0
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", type=Path, default=Path("results"))
    args = ap.parse_args()
    return run(args.trials, args.seed, args.out_dir)


if __name__ == "__main__":
    sys.exit(main())
