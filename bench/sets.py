"""Run one workload over several seeds and summarise each metric.

Usage (from the repository root):

    python3 bench/sets.py --workload wordnet --seeds 0-9

Each seed is one fresh, untraced `bench/run.py` process, run one after
another.  For every metric the summary gives the median, the first and
third quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median, the figure the bounds in BENCHMARK.json are set
against.  The README's reference
figures come from this command.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,5,8")
    ns = ap.parse_args()

    results = []
    for seed in parse_seeds(ns.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", ns.workload, "--seed", str(seed),
             "--seconds", "1", "--trace", "0"],
            cwd=RUN.parent.parent, capture_output=True, text=True, check=True,
        )
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(res)
        values = " ".join(f"{k}={m['value']:.6g}" for k, m in res["metrics"].items())
        print(f"seed {seed} ({time.perf_counter() - t0:.1f} s): correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']} {values}", flush=True)

    print(f"{'metric':28s} {'unit':6s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} {'spread':>7s}")
    for name, first in results[0]["metrics"].items():
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:28s} {first['unit']:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
