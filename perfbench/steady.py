#!/usr/bin/env python3
"""Steadiness self-check: rerun each workload with several seeds and
print each end-to-end metric's spread against its bound.

    python3 perfbench/steady.py [--seeds 10]

Every workload of BENCHMARK.json runs once per seed 1..N, for the
file's run_seconds. The spread of a metric is the distance between the
first and the third quartile of its values (statistics.quantiles(values,
n=4)) as a share of their median. A metric passes when its spread is
within a third of its bound from BENCHMARK.json, so that a second set of
runs stays within the bound. Exits 1 when any metric fails, or when a
run fails or prints no result.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TARGET = 1 / 3  # pass when spread <= TARGET x bound


def spread(values):
    """Interquartile range as a share of the median (0 for a zero median
    with no spread, inf for a zero median with spread)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    if q2 == 0:
        return 0.0 if q3 == q1 else float("inf")
    return abs(q3 - q1) / abs(q2)


def judge(samples, bounds):
    """Rows of (metric, median, spread, limit, ok) for one workload's
    samples ({metric: [values]}), in bound order."""
    rows = []
    for name, bound in bounds.items():
        values = samples.get(name, [])
        if len(values) < 2:
            rows.append((name, float("nan"), float("inf"), bound * TARGET, False))
            continue
        s = spread(values)
        rows.append((name, statistics.median(values), s, bound * TARGET,
                     s <= bound * TARGET))
    return rows


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        return None
    line = json.loads(lines[-1])
    if not line["correct"] or line["failed"]:
        return None
    return {k: v["value"] for k, v in line["metrics"].items()}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    all_ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        samples = {}
        for seed in range(1, args.seeds + 1):
            values = run_once(workload, seed, seconds)
            if values is None:
                print(f"{workload} seed {seed}: run failed")
                all_ok = False
                continue
            for name, value in values.items():
                samples.setdefault(name, []).append(value)
        print(f"\n{workload} ({args.seeds} seeds, {seconds} s)")
        print(f"  {'metric':<20} {'median':>12} {'spread':>8} {'limit':>8}")
        for name, med, s, limit, ok in judge(samples, bounds):
            mark = "ok" if ok else "FAIL"
            print(f"  {name:<20} {med:>12.6g} {s:>8.2%} {limit:>8.2%}  {mark}")
            all_ok = all_ok and ok
        print("  values: " + json.dumps(samples))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
