"""Record the golden report digests that ``run.py`` checks against.

    python3 perfbench/record_golden.py

For every workload, at its trial count and at the self-test's, and for
each seed in 0..15, this makes one single-worker runner call and stores the
SHA-256 of its CSV+JSON report bytes in ``golden.json``. Seed 1 is the
configs' default seed. Re-record only when a change is meant to alter the
reports, and say so.
"""

from __future__ import annotations

import json
import sys
import tempfile

from probe import SRC, report_digest, runner_for
from run import GOLDEN_SEEDS, HERE, ROOT
from workloads import SELFTEST_TRIALS, WORKLOADS


def main() -> int:
    sys.path.insert(0, str(SRC))
    golden = {}
    out_root = ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    from coklab.experiments import parse_config
    with tempfile.TemporaryDirectory(dir=out_root) as out_dir:
        for name, workload in WORKLOADS.items():
            runner = runner_for(workload.runner)
            golden[name] = {}
            for trials in (workload.trials, SELFTEST_TRIALS):
                digests = golden[name][str(trials)] = {}
                for seed in range(GOLDEN_SEEDS):
                    summary = runner(parse_config(workload.raw_config(seed, trials)))
                    digests[str(seed)], _ = report_digest(summary, f"{out_dir}/report")
            print(f"{name}: {GOLDEN_SEEDS} digests at each of {sorted(golden[name])} trials",
                  file=sys.stderr)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                                      encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
