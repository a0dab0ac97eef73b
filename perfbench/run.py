"""coklab benchmark: one workload, measured for a fixed time, outputs checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload z-p2-n48 --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout and driven only
through public functions. Load model: batch, closed loop, one runner call at
a time. Each call runs in a fresh process (``probe.py``), so it pays every
first-call cost a CLI run pays; ``trials_per_s_2w`` lets the runner use a
pool of two worker processes.

Call pairs (one call with one worker, one with two, in alternating order)
repeat until ``--seconds`` have passed, and at least twice. Pair 0 uses the
golden seed ``--seed % 16``, pair 1 the run's own seed and pair i > 1 a seed
derived from it, so a run covers several distinct trial sets.

``--trace 0`` prints the end-to-end metrics, measured with tracing off:

* ``trials_per_s`` / ``trials_per_s_2w``: median over the run's calls of
  trials divided by the wall time of one runner call, with one worker and
  with two.
* ``setup_s``: median over the run's calls of the set-up time of their
  fresh process, from ``import coklab`` through ``parse_config``,
  ``run_balance_gate`` and ``partial_sum``.
* ``peak_rss_mb``: the largest peak resident memory of a call's process or
  of its worker pool.
* ``ok_frac``: share of determined trials over the one-worker calls of
  pairs 0 and 1, times the share of calls that did not fail; it is
  ``1 - fail_frac``.

The call times behind ``trials_per_s``, ``trials_per_s_2w`` and ``setup_s``
are at the nominal host speed: each is divided by its call process's host
factor (``hostspeed.py``), the time of a fixed reference run just around the
runner call over its nominal time, because the shared host drifts in speed
by more than the metrics' bounds. The raw medians and the median factor go
to standard error.

``--trace 1`` makes single-worker calls in pairs: an untraced call, then
the same call replayed with a timer at every layer boundary (``replay.py``).
It prints the per-layer metrics, medians over replays;
``trace.overhead_frac`` compares each replay with its untraced call.

Every run checks its outputs: the CSV+JSON report bytes of pair 0 must equal
the golden digest recorded in ``golden.json`` for its seed and trial count;
the reports of one and two workers must be equal; the replayed tally of
pairs 0 and 1 must equal the runner's report; and the first trials of pair 1
are recomputed with the reference ``local_snf``. The last line of output is
one JSON object with the keys ``correct``, ``attempted`` (runner calls),
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

GOLDEN_SEEDS = 16       # golden.json holds digests for seeds 0..15
MIN_PAIRS = 2           # pair 0 is golden-checked, pair 1 runs the run's own seed
ORACLE_TRIALS = 3       # leading trials of pair 1 recomputed with local_snf
PROBE_TIMEOUT_S = 120


def call_seed(seed: int, i: int) -> int:
    """Seed of the i-th call pair of a run."""
    if i == 0:
        return seed % GOLDEN_SEEDS
    return seed if i == 1 else (seed << 20) + i


def load_golden(name: str, trials: int) -> dict:
    """Recorded report digests {seed: sha256} of a workload at a trial count."""
    data = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    return data.get(name, {}).get(str(trials), {})


class Run:
    """State of one benchmark run: calls made, failures and check results."""

    def __init__(self, workload, seed: int, trials: int, out_dir: str):
        self.workload = workload
        self.seed = seed
        self.trials = trials
        self.out = out_dir
        self.golden = load_golden(workload.name, trials)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.outputs = []        # probe output of every call that ran

    def call(self, i: int, threads: int, replay: str = "none"):
        """One runner call in a fresh process; its output, or None if it failed."""
        seed = call_seed(self.seed, i)
        self.attempted += 1
        cmd = [sys.executable, str(HERE / "probe.py"), "--workload", self.workload.name,
               "--seed", str(seed), "--trials", str(self.trials), "--threads", str(threads),
               "--out", self.out, "--replay", replay,
               "--oracle", str(ORACLE_TRIALS if i == 1 and threads == 1 else 0)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
            out = json.loads(proc.stdout.strip().splitlines()[-1])
        except (subprocess.TimeoutExpired, IndexError, ValueError):
            proc, out = None, {"failed": True}
        if proc is None or proc.returncode or out.get("failed"):
            sys.stderr.write(proc.stderr if proc else f"probe timed out: {cmd}\n")
            self.failed += 1
            self.problems.append(f"runner call failed (seed {seed}, threads {threads})")
            return None
        self.problems += out.get("problems", [])
        if i == 0:
            golden = self.golden.get(str(seed))
            if golden is None:
                self.problems.append(f"no golden digest for seed {seed} at {self.trials} trials")
            elif golden != out["digest"]:
                self.failed += 1
                self.problems.append(f"report digest {out['digest']} != golden {golden} "
                                     f"(seed {seed}, threads {threads})")
        self.outputs.append(out)
        return out


def measure_end_to_end(run: Run, seconds: float) -> dict:
    rates = {1: [], 2: []}   # at the nominal host speed
    raw = {1: [], 2: []}
    t_start = perf_counter()
    i = 0
    while i < MIN_PAIRS or perf_counter() - t_start < seconds:
        digests = {}
        for threads in ((1, 2) if i % 2 == 0 else (2, 1)):
            out = run.call(i, threads, "check" if i < MIN_PAIRS and threads == 1 else "none")
            if out is not None:
                digests[threads] = out["digest"]
                raw[threads].append(run.trials / out["wall_s"])
                rates[threads].append(run.trials * out["host_factor"] / out["wall_s"])
        if len(digests) == 2 and digests[1] != digests[2]:
            run.problems.append(f"reports differ between 1 and 2 workers "
                                f"(seed {call_seed(run.seed, i)})")
        i += 1
    outs = run.outputs
    checked = [out for out in outs if "indeterminate" in out]
    determined = 1 - sum(o["indeterminate"] for o in checked) / (run.trials * len(checked) or 1)
    print(f"perfbench: measured trials_per_s {_median(raw[1]):.6g}, trials_per_s_2w "
          f"{_median(raw[2]):.6g}, setup_s {_median([o['setup_s'] for o in outs]):.6g}; "
          f"host factor median {_median([o['host_factor'] for o in outs]):.4f}",
          file=sys.stderr)
    return {
        "trials_per_s": (_median(rates[1]), "1/s"),
        "trials_per_s_2w": (_median(rates[2]), "1/s"),
        "setup_s": (_median([o["setup_s"] / o["host_factor"] for o in outs]), "s"),
        "peak_rss_mb": (max((o["peak_rss_mb"] for o in outs), default=0.0), "MB"),
        "ok_frac": (determined * (run.attempted - run.failed) / run.attempted, "ratio"),
    }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure_traced(run: Run, seconds: float) -> dict:
    passes = []
    trial_ms = []
    t_start = perf_counter()
    i = 0
    while i < MIN_PAIRS or perf_counter() - t_start < seconds:
        # an untraced call, then the same call traced, each in a fresh process
        base = run.call(i, 1)
        out = run.call(i, 1, "trace")
        i += 1
        if base is None or out is None:
            continue
        if base["digest"] != out["digest"]:
            run.problems.append(f"traced report differs (seed {call_seed(run.seed, i - 1)})")
        layers = out["layers"]
        layers["trace.overhead_frac"] = (
            out["traced_s"] / (base["wall_s"] + base["emit_s"]) - 1, "ratio")
        passes.append(layers)
        trial_ms += out["trial_ms"]
    if not passes:
        return {}
    metrics = {name: (statistics.median(p[name][0] for p in passes), unit)
               for name, (_, unit) in passes[0].items()}
    # percentiles of the per-trial span over every replayed trial
    cuts = statistics.quantiles(trial_ms, n=100, method="inclusive")
    metrics["trial_p50_ms"] = (cuts[49], "ms")
    metrics["trial_p99_ms"] = (cuts[98], "ms")
    metrics["trial_count"] = (len(trial_ms), "count")
    return metrics


def main(argv=None, trials: int | None = None) -> int:
    """Run the benchmark; ``trials`` overrides the workload's trials per call."""
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description="coklab benchmark (one workload)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coklab" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_root = ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as out_dir:
        run = Run(workload, args.seed, trials or workload.trials, out_dir)
        measure = measure_traced if args.trace else measure_end_to_end
        metrics = measure(run, args.seconds)
    for problem in run.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    correct = not run.problems and run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
