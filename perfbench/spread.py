"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/spread.py [--first-seed 100] [--record perfbench/baseline.json]

Runs ``run.py --trace 0`` once for each of ten seeds on every workload, for
BENCHMARK.json's ``run_seconds``, one run at a time with the workloads
taking turns, and prints for every end-to-end metric its median and the
distance between the first and third quartile as a share of the median (``statistics.quantiles(values, n=4)``), next to the
metric's bound in BENCHMARK.json. ``--record`` adds one traced run per
workload and writes the machine, these values, the per-layer metrics and
each workload's rationale and metric-to-layer map to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

from run import HERE, ROOT
from workloads import WORKLOADS

RUNS = 10


def run_once(name: str, seed: int, seconds: int, trace: int = 0) -> tuple[dict, float]:
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = perf_counter() - t0
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode or not out["correct"]:
        raise SystemExit(f"{name} seed {seed} failed:\n{proc.stderr}")
    return {k: v["value"] for k, v in out["metrics"].items()}, wall


def spread(values) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser()
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--record", default=None)
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = list(WORKLOADS)
    runs = {name: [] for name in names}
    walls = {name: [] for name in names}
    # workloads take turns, so slow drifts in machine load reach each of them alike
    for seed in range(args.first_seed, args.first_seed + RUNS):
        for name in names:
            metrics, wall = run_once(name, seed, seconds)
            runs[name].append(metrics)
            walls[name].append(wall)
    record = {}
    for name in names:
        print(f"{name}: {RUNS} runs, wall per run "
              f"{min(walls[name]):.1f}-{max(walls[name]):.1f} s")
        summary = {}
        for metric, bound in bounds.items():
            values = [r[metric] for r in runs[name]]
            med, rel = spread(values)
            flag = "" if rel < bound / 3 else "  <-- above bound/3"
            print(f"  {metric:<16} median {med:<12.6g} spread {rel:7.2%}  bound {bound:.0%}{flag}")
            summary[metric] = {"median": med, "spread": rel, "values": values}
        record[name] = {"why": WORKLOADS[name].why, "moves": WORKLOADS[name].moves,
                        "max_run_s": max(walls[name]), "baseline": summary}
    if args.record:
        import numpy
        for name in names:
            record[name]["per_layer"], _ = run_once(name, args.first_seed, seconds, trace=1)
        machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
                   "numpy": numpy.__version__, "machine": platform.machine()}
        data = {"machine": machine, "run_seconds": seconds,
                "seeds": list(range(args.first_seed, args.first_seed + RUNS)),
                "workloads": record}
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
