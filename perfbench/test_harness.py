"""Fast self-test of the benchmark harness (tiny trial counts).

    python3 -m pytest -q perfbench/test_harness.py

Every workload runs in both modes with a few trials per call; each run must
pass its own checks and print every metric named in BENCHMARK.json, with
its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import SELFTEST_TRIALS, WORKLOADS

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _result(capsys, argv):
    code = run.main(argv, trials=SELFTEST_TRIALS)
    line = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(line)


def test_workloads_match_benchmark_json():
    assert [(w["name"], w["why"]) for w in BENCH["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    per_layer = {m["name"] for m in BENCH["per_layer"]}
    for w in WORKLOADS.values():
        assert set(w.moves) <= end_to_end
        assert {layer for layers in w.moves.values() for layer in layers} <= per_layer


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_emitted_with_unit(capsys, name, trace):
    code, out = _result(capsys, ["--workload", name, "--seed", "7", "--seconds", "0",
                                 "--trace", str(trace)])
    assert code == 0
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
    # a time never reads as a constant: unused layers still report a measured empty span
    assert all(v["value"] > 0 for v in out["metrics"].values() if v["unit"] in ("s", "ms"))


def test_golden_mismatch_fails_the_run(capsys, monkeypatch):
    # seed 23 has no digest of its own; pair 0 runs its golden seed 23 % 16 = 7
    monkeypatch.setattr(run, "load_golden", lambda name, trials: {"7": "0" * 64})
    code, out = _result(capsys, ["--workload", "zi-galois-n12", "--seed", "23",
                                 "--seconds", "0", "--trace", "1"])
    assert code == 1
    # both calls of pass 0, untraced and traced, fail the check
    assert out["correct"] is False and out["failed"] == 2


def test_refuses_to_run_without_program():
    bare = run.ROOT / ".perfbench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "z-p2-n48", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
