#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 10] [--first-seed 1] [--trace 0|1]

Runs ``perfbench/run.py`` once per seed and workload, one process at a time,
for its default length, ``run_seconds`` from ``BENCHMARK.json``. For every
metric it prints the median and the quartile spread, (Q3 - Q1) / median with
the quartiles of ``statistics.quantiles(values, n=4)``, next to the metric's
bound. A spread above a third of the bound marks the metric as unsteady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    steady = True
    for workload in args.workload or names:
        values: dict[str, list[float]] = {}
        for seed in seeds:
            result = run_once(workload, seed, args.trace)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
                if k in bounds or k == "trace.img_per_s"), flush=True)
        print(f"== {workload}: {len(seeds)} seeds")
        for name, vals in values.items():
            if args.trace and name != "trace.img_per_s" and len(set(vals)) == 1:
                continue  # exact counts
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and not spread <= bound / 3:
                flag, steady = "  UNSTEADY", False
            print(f"  {name:42s} median {med:12.6g}  spread {spread:7.4f}"
                  + (f"  bound {bound}" if bound is not None else "") + flag)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
