"""Traced replay of one runner call, built only from public coklab calls.

The replay repeats what a runner call does for a single ``n``: the balance
gate, the trial loop (sample, reduce into the local ring, one SNF call per
rung of the escalation ladder), and the theory and module computations of
the summary; ``probe.py`` times the runner's own report emission. It times
each of these layer boundaries and counts the work done there. Its tally is compared with the runner's own
report, so the layer numbers describe the same program as the end-to-end
numbers. The first trials are also recomputed with the reference
``local_snf``, which verifies any seed, not only those with a golden digest.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

from coklab.domains import local_ring_for, reduce_mod_prime_power
from coklab.experiments import INDETERMINATE, OTHER, run_balance_gate
from coklab.modules import ModuleType, count_sur, parse_type_string
from coklab.sampler import sample_index_matrix
from coklab.snf import (
    MODE_GENERIC,
    LocalMatrix,
    element_to_scalar,
    escalation_ladder,
    local_snf,
    make_scalar_matrix,
    matrix_mode,
    snf_valuations_array,
)
from coklab.theory import partial_sum, predicted_moment, predicted_probability

SNF_MODES = ("mod2k", "modpk", "f2t", "generic")

# Layer spans that never overlap one another; their sum is the attributed time.
LAYER_SPANS = ("sampler.audit", "sampler.sample", "domains.reduce",
               *(f"snf.{m}" for m in SNF_MODES), "theory.predict", "modules.count_sur",
               "experiments.emit")


class Trace:
    """In-memory span totals and counters for one replayed runner call."""

    def __init__(self):
        self.seconds = Counter()     # span name -> summed duration
        self.counts = Counter()      # counter name -> value
        self.trial_ms = []           # one duration per trial: sample plus all primes
        self.wall = 0.0

    def snf_call(self, mode: str, seconds: float, result, shape, itemsize: int, K: int):
        self.seconds[f"snf.{mode}"] += seconds
        self.counts[f"snf.{mode}_calls"] += 1
        if result.saturated:
            self.counts["snf.saturated_calls"] += 1
            self.seconds["snf.wasted"] += seconds
        # each pivot's rank-1 update rewrites the rows below it across the block
        rows, cols = shape
        pivots = sum(1 for v in result.valuations if v < K)
        entries = sum((rows - t - 1) * (cols - t) for t in range(pivots))
        self.counts["snf.update_entries"] += entries
        self.counts["snf.update_bytes"] += entries * itemsize

    def metrics(self) -> dict:
        """Per-layer metrics of this replay as {name: (value, unit)}."""
        c = self.counts
        calls = sum(c[f"snf.{m}_calls"] for m in SNF_MODES)
        out = {f"{s}_s": (self.seconds[s], "s") for s in LAYER_SPANS}
        out.update({f"snf.{m}_calls": (c[f"snf.{m}_calls"], "count") for m in SNF_MODES})
        out.update({
            "sampler.sample_calls": (c["sampler.sample_calls"], "count"),
            "sampler.audit_directions": (c["sampler.audit_directions"], "count"),
            "snf.saturated_calls": (c["snf.saturated_calls"], "count"),
            "snf.settled_ratio": ((calls - c["snf.saturated_calls"]) / calls, "ratio"),
            "snf.wasted_s": (self.seconds["snf.wasted"], "s"),
            "snf.update_entries": (c["snf.update_entries"], "count"),
            "snf.update_bytes": (c["snf.update_bytes"], "bytes"),
            "trace.unattributed_s": (self.wall - sum(self.seconds[s] for s in LAYER_SPANS), "s"),
        })
        return out


def _table(dist, prime, K, cache):
    """Support reduced at precision K: (mode, ring, per-index table)."""
    hit = cache.get((prime, K))
    if hit is None:
        ring = local_ring_for(prime, K)
        mode = matrix_mode(ring)
        reduced = [reduce_mod_prime_power(s, prime, K) for s in dist.support]
        if mode != MODE_GENERIC:
            reduced = make_scalar_matrix(mode, [element_to_scalar(mode, x) for x in reduced]).ravel()
        hit = cache[(prime, K)] = (mode, ring, reduced)
    return hit


def _partition(idx, dist, prime, ladder, cache, trace):
    """Cokernel partition at one prime, or None when the ladder saturates."""
    for K in ladder:
        t0 = perf_counter()
        mode, ring, table = _table(dist, prime, K, cache)
        if mode == MODE_GENERIC:
            A = LocalMatrix.of(ring, [[table[j] for j in row] for row in idx.tolist()])
            itemsize = 0  # no array: the generic path works on element objects
        else:
            A = table[idx]
            itemsize = A.itemsize
        t1 = perf_counter()
        res = local_snf(A) if mode == MODE_GENERIC else snf_valuations_array(mode, A, prime.p, K)
        t2 = perf_counter()
        trace.seconds["domains.reduce"] += t1 - t0
        trace.snf_call(mode, t2 - t1, res, idx.shape, itemsize, K)
        if not res.saturated:
            return tuple(sorted((v for v in res.valuations if v), reverse=True))
    return None


def _trial_key(idx, dist, primes, ladders, cache, trace):
    key = []
    for pi, prime in enumerate(primes):
        parts = _partition(idx, dist, prime, ladders[pi], cache, trace)
        if parts is None:
            return INDETERMINATE
        if parts:
            key.append((pi, parts))
    return tuple(key)


def replay_trials(cfg, trace: Trace) -> list:
    """The trial loop of a runner call; returns each trial's type key in order."""
    dist, primes, n = cfg.distribution, cfg.primes, cfg.n_list[-1]
    ladders = [escalation_ladder(pr, cfg.policy) for pr in primes]
    cache: dict = {}
    keys = []
    for t in range(cfg.trials):
        t0 = perf_counter()
        idx = sample_index_matrix(dist, n, cfg.u, cfg.seed, t)
        trace.seconds["sampler.sample"] += perf_counter() - t0
        keys.append(_trial_key(idx, dist, primes, ladders, cache, trace))
        trace.trial_ms.append((perf_counter() - t0) * 1e3)
    trace.counts["sampler.sample_calls"] = cfg.trials
    return keys


def replay(runner: str, cfg) -> tuple[list, Trace]:
    """Replay a runner call up to, not including, report emission.

    Returns the type key of every trial, in trial order, and the trace. The
    caller adds the ``experiments.emit`` span around the runner's own report.
    """
    trace = Trace()
    primes = cfg.primes
    t_start = perf_counter()
    # Open and close every span once, so that a layer this workload never
    # enters reports a measured empty span rather than a constant zero.
    for name in (*LAYER_SPANS, "snf.wasted"):
        t0 = perf_counter()
        trace.seconds[name] += perf_counter() - t0

    t0 = perf_counter()
    report = run_balance_gate(cfg)
    trace.seconds["sampler.audit"] += perf_counter() - t0
    # the audit scores every hyperplane direction of F_p^dim against each support element
    trace.counts["sampler.audit_directions"] = sum(
        (e.p ** e.dim - 1) // (e.p - 1) * len(cfg.distribution.support) for e in report.entries)

    keys = replay_trials(cfg, trace)
    distinct = set(keys) - {INDETERMINATE}
    t0 = perf_counter()
    if runner == "dist":
        partial_sum(primes, cfg.u, cfg.cap_exponent, cfg.cap_parts)
        for key in distinct:
            if _within_caps(key, cfg.cap_exponent, cfg.cap_parts):
                predicted_probability(key_type(key, primes), primes, cfg.u)
    elif runner == "moments":
        for target in cfg.targets:
            predicted_moment(parse_type_string(target, primes), cfg.u)
    trace.seconds["theory.predict"] += perf_counter() - t0

    if runner == "moments":
        t0 = perf_counter()
        for target in cfg.targets:
            N = parse_type_string(target, primes)
            for key in distinct:
                count_sur(key_type(key, primes), N)
        trace.seconds["modules.count_sur"] += perf_counter() - t0
    trace.wall = perf_counter() - t_start
    return keys, trace


def key_type(key, primes) -> ModuleType:
    return ModuleType.of([(primes[pi], parts) for pi, parts in key])


def _within_caps(key, cap_e, cap_m) -> bool:
    return all(parts[0] <= cap_e and len(parts) <= cap_m for _, parts in key)


def report_mismatches(runner: str, cfg, tally: Counter, summary) -> list[str]:
    """Differences between a replayed tally and the runner's summary."""
    primes = cfg.primes
    indet = tally.get(INDETERMINATE, 0)
    determined = cfg.trials - indet
    if runner == "dist":
        mine = Counter()
        for key, cnt in tally.items():
            if key == INDETERMINATE:
                mine[INDETERMINATE] += cnt
            elif _within_caps(key, cfg.cap_exponent, cfg.cap_parts):
                mine[str(key_type(key, primes))] += cnt
            else:
                mine[OTHER] += cnt
        (block,) = summary.per_n
        theirs = Counter({b.type_string: b.count for b in block.buckets if b.count})
        return [] if mine == theirs else [f"buckets {dict(theirs)} != replay {dict(mine)}"]
    if runner == "moments":
        out = []
        for row in summary.rows:
            N = parse_type_string(row.target, primes)
            total = sum(count_sur(key_type(k, primes), N) * c
                        for k, c in tally.items() if k != INDETERMINATE)
            mean = total / determined
            if (row.estimate, row.determined_trials) != (mean, determined):
                out.append(f"{row.target}: report ({row.estimate}, {row.determined_trials}) "
                           f"!= replay ({mean}, {determined})")
        return out
    equal = 0
    asym = Counter()
    for key, cnt in tally.items():
        if key == INDETERMINATE:
            continue
        parts = dict(key)
        if parts.get(0, ()) == parts.get(1, ()):
            equal += cnt
        else:
            asym[str(key_type(key, primes))] += cnt
    mine = (equal / determined if determined else 0.0, sorted(asym.items()))
    theirs = (summary.equal_fraction, sorted((t, c) for t, c, _ in summary.asymmetric_rows))
    return [] if mine == theirs else [f"galois report {theirs} != replay {mine}"]


def oracle_mismatches(cfg, keys: list, trials: int) -> list[str]:
    """Recompute the first trials with the reference local_snf and compare
    them with the replayed keys; this verifies any seed."""
    dist, primes, n = cfg.distribution, cfg.primes, cfg.n_list[-1]
    ladders = [escalation_ladder(pr, cfg.policy) for pr in primes]
    out = []
    for t in range(min(trials, len(keys))):
        idx = sample_index_matrix(dist, n, cfg.u, cfg.seed, t)
        ref = _reference_key(idx, dist, primes, ladders)
        if keys[t] != ref:
            out.append(f"trial {t}: replay {keys[t]} != local_snf {ref}")
    return out


def _reference_key(idx, dist, primes, ladders):
    key = []
    for pi, prime in enumerate(primes):
        parts = None
        for K in ladders[pi]:
            ring = local_ring_for(prime, K)
            reduced = [reduce_mod_prime_power(s, prime, K) for s in dist.support]
            res = local_snf(LocalMatrix.of(ring, [[reduced[j] for j in row]
                                                  for row in idx.tolist()]))
            if not res.saturated:
                parts = tuple(sorted((v for v in res.valuations if v), reverse=True))
                break
        if parts is None:
            return INDETERMINATE
        if parts:
            key.append((pi, parts))
    return tuple(key)
