"""One runner call of a workload in a fresh process, as the CLI makes it.

    python3 perfbench/probe.py --workload W --seed S --trials T --threads N \
        --out DIR [--replay none|check|trace] [--oracle K]

Times the set-up first (``import coklab``, ``parse_config``,
``run_balance_gate`` and ``theory.partial_sum``: everything the CLI does
before the first trial), then the runner call, then writes the CSV+JSON
report and hashes its bytes. A fixed host-speed reference (``hostspeed.py``) is timed
just before and just after the runner call, and its ``host_factor`` goes
out with the times. Every cache the program keeps starts empty, so
the call pays for ring construction and support reduction as a CLI run
does. Peak resident memory covers this process and its worker pool.

``--replay check`` then replays the trial loop (``replay.py``) and compares
its tally with the report. ``--replay trace`` replays the call with a timer
at every layer boundary before the runner call, and times the report
emission as the last span. ``--oracle K`` recomputes the first K trials
with the reference ``local_snf``. Prints one JSON object as its last line; a failing
runner call prints ``{"failed": true}`` and exits with code 1. Run by
``run.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


def report_digest(summary, out_path: str) -> tuple[str, float]:
    """SHA-256 of the runner's CSV then JSON report bytes, and the emit time."""
    from coklab.experiments import emit_report
    t0 = perf_counter()
    paths = emit_report(summary, ("csv", "json"), out_path)
    seconds = perf_counter() - t0
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest(), seconds


def runner_for(kind: str):
    """The public runner a workload calls."""
    from coklab import experiments
    return {"dist": experiments.run_distribution_experiment,
            "moments": experiments.run_moment_experiment,
            "galois": experiments.run_galois_demo}[kind]


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of any worker it waited for."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trials", type=int, required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--replay", choices=("none", "check", "trace"), default="none")
    parser.add_argument("--oracle", type=int, default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    raw = workload.raw_config(args.seed, args.trials)
    sys.path.insert(0, str(SRC))

    t0 = perf_counter()
    from coklab.experiments import parse_config, run_balance_gate
    from coklab.theory import partial_sum
    cfg = parse_config(raw)
    run_balance_gate(cfg)
    partial_sum(cfg.primes, cfg.u, cfg.cap_exponent, cfg.cap_parts)
    setup_s = perf_counter() - t0
    import hostspeed  # after the set-up, which pays for importing NumPy

    traced = None
    if args.replay == "trace":
        # replayed first, so that its layers pay the same cold caches as a CLI run
        import replay
        traced = replay.replay(workload.runner, cfg)
    try:
        ref = hostspeed.reference_chunks()
        t0 = perf_counter()
        summary = runner_for(workload.runner)(cfg, threads=args.threads)
        wall_s = perf_counter() - t0
        ref += hostspeed.reference_chunks()
        digest, emit_s = report_digest(summary, f"{args.out}/report")
    except Exception:  # a failing program is reported to run.py, not hidden
        traceback.print_exc()
        print(json.dumps({"failed": True}))
        return 1
    out = {"setup_s": setup_s, "wall_s": wall_s, "emit_s": emit_s, "digest": digest,
           "host_factor": hostspeed.host_factor(ref), "peak_rss_mb": peak_rss_mb()}

    if args.replay != "none":
        import replay
        if traced:
            keys, trace = traced
            trace.seconds["experiments.emit"] += emit_s
            trace.wall += emit_s
            out["layers"] = trace.metrics()
            out["traced_s"] = trace.wall
            out["trial_ms"] = trace.trial_ms
        else:
            keys = replay.replay_trials(cfg, replay.Trace())
        out["indeterminate"] = keys.count(replay.INDETERMINATE)
        out["problems"] = replay.report_mismatches(workload.runner, cfg, Counter(keys), summary)
        if args.oracle:
            out["problems"] += replay.oracle_mismatches(cfg, keys, args.oracle)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
