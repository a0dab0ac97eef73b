"""The benchmark's workloads: one runner call each, as the CLI would make it.

Each workload is a config for one of the public runners in
``coklab.experiments``. The trial count per call is fixed here; the seed
comes from the command line. A workload has a single matrix size ``n`` so
that the traced replay can rebuild its tally trial by trial.
"""

from __future__ import annotations

from dataclasses import dataclass

SELFTEST_TRIALS = 8  # trials per call in the harness self-test

# Per-layer metrics that every workload's end-to-end metrics depend on.
_COMMON = {
    "trials_per_s": ["sampler.sample_s", "sampler.sample_calls", "theory.predict_s",
                     "experiments.emit_s", "snf.update_entries", "trial_p50_ms", "trial_p99_ms"],
    "trials_per_s_2w": ["sampler.sample_s", "trial_p50_ms"],
    "setup_s": ["sampler.audit_s", "theory.predict_s"],
    "peak_rss_mb": ["snf.update_bytes"],
}


def _moves(**extra) -> dict:
    """The common metric-to-layer map with workload-specific layers added."""
    return {metric: _COMMON.get(metric, []) + extra.get(metric, [])
            for metric in sorted(set(_COMMON) | set(extra))}


@dataclass(frozen=True)
class Workload:
    name: str
    runner: str          # "dist", "moments" or "galois"
    trials: int          # trials per runner call
    config: dict         # parse_config input without seed and trials
    why: str
    # end-to-end metric -> per-layer metrics expected to move it on this workload
    moves: dict

    def raw_config(self, seed: int, trials: int) -> dict:
        """The config mapping for one runner call."""
        return dict(self.config, seed=seed, trials=trials)


WORKLOADS = {w.name: w for w in [
    Workload(
        "z-p2-n48", "dist", 200,
        {"domain": "Z", "primes": [{"p": 2}], "u": 0, "n": [48],
         "distribution": {"builtin": "bernoulli01", "params": {"q": "1/2"}}},
        "The paper's classical case over Z at p=2; the mod2k kernel dominates, "
        "no generic path and a trivial audit.",
        _moves(trials_per_s=["snf.mod2k_s", "snf.mod2k_calls"],
               trials_per_s_2w=["snf.mod2k_s"])),
    Workload(
        "fx-x-n48-moments", "moments", 100,
        {"domain": "Fp[x]", "char": 2, "primes": [{"generator": "0,1"}], "u": 0, "n": [48],
         "distribution": {"builtin": "poly-powers", "params": {"p": 2, "m": 3}},
         "targets": ["x:(1)", "x:(1,1)"]},
        "Function-field side F_2[x] at (x) with surjection moments; the f2t kernel "
        "dominates and modules.count_sur runs.",
        _moves(trials_per_s=["snf.f2t_s", "snf.f2t_calls", "modules.count_sur_s"],
               trials_per_s_2w=["snf.f2t_s"])),
    Workload(
        "zi-galois-n12", "galois", 500,
        {"domain": "Z[i]", "primes": [{"generator": "2+i"}, {"generator": "2-i"}], "u": 0,
         "n": [12], "distribution": {"builtin": "bernoulli01", "params": {"q": "1/2"}},
         "strict_balance": False},
        "Galois demo over Z[i] at (2+i) and (2-i); singular trials climb the ladder "
        "past the int64 limit onto the generic path.",
        _moves(trials_per_s=["snf.modpk_s", "snf.generic_s", "snf.generic_calls",
                             "domains.reduce_s", "snf.saturated_calls", "snf.settled_ratio",
                             "snf.wasted_s"],
               trials_per_s_2w=["snf.generic_s", "snf.wasted_s"],
               ok_frac=["snf.saturated_calls", "snf.settled_ratio"])),
]}
