"""Config-driven Monte Carlo experiments and report emission.

A run has one step, ``_tallies``: it passes the balance gate, samples seeded
matrices at each configured size n, extracts cokernel types at the
configured primes and tallies them. Three views read the tallies as pure
functions: type frequencies against the limiting law (exponent/parts caps,
an explicit "other" bucket, an explicit "indeterminate" bucket), surjection
averages against the moment prediction, and equal partitions at conjugate
primes. Their summaries share one report header and one JSON form.
Trials are pure functions of (seed, n, u, trial index), so tallies are
identical under any worker count; reports are byte-deterministic.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, fields, is_dataclass, replace
from decimal import Decimal

import numpy as np

from ._fppoly import degree, prime_divisors
from .domains import (
    GAUSSIAN,
    INTEGERS,
    POLYNOMIALS,
    ZI,
    DomainId,
    factor_rational_prime,
    format_element,
    parse_element,
    poly_domain,
)
from .errors import ConfigError, DiagnosticsError, ParameterError
from .modules import ModuleType, count_sur, module_size, parse_type_string
from .sampler import BalanceReport, EntryDistribution, audit_ideals, audit_pairs, \
    balance_report, builtin_distribution, sample_index_batch
from .snf import DEFAULT_POLICY, PrecisionPolicy, batch_trials, cokernel_rows, row_type
from .theory import check_caps, partial_sum, predicted_moment, predicted_probability

INDETERMINATE = "indeterminate"
OTHER = "other"

# most entries of a kernel matrix (n f x (n + u) f, widest prime): at 512 x 512 on Z, bernoulli01,
# a trial took 14.6 (p = 2) and 235 (p = 3) ms of CPU, peak RSS 84 and 308 MB (2-core sandbox)
_KERNEL_ENTRIES = 1 << 18

_DOMAIN_ALIASES = {
    "z": INTEGERS, "integers": INTEGERS,
    "z[i]": GAUSSIAN, "zi": GAUSSIAN, "gaussian-integers": GAUSSIAN,
    "fp[x]": POLYNOMIALS, "f_p[x]": POLYNOMIALS, "polynomials-over-f_p": POLYNOMIALS,
}


@dataclass(frozen=True)
class ExperimentConfig:
    domain: DomainId
    primes: tuple               # resolved PrimeIdealDesc, distinct
    u: int
    n_list: tuple
    trials: int
    distribution: EntryDistribution
    seed: int
    policy: PrecisionPolicy
    cap_exponent: int
    cap_parts: int
    strict_balance: bool
    out_path: str | None
    formats: tuple
    targets: tuple = ()         # moment-run target type strings
    raw: dict = field(default=None, compare=False, repr=False)


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a raw config mapping; raises ConfigError with a reason."""
    if not isinstance(data, dict):
        raise ConfigError(f"config must be a JSON object, not {type(data).__name__}")
    try:
        domain = _parse_domain(data)
        dist = _parse_distribution(domain, data.get("distribution"))
        primes = _parse_primes(domain, data.get("primes"), len(dist.support))
        u = _integer(data.get("u", 0), "u")
        if u < 0:
            raise ConfigError("u must be nonnegative")
        n_field = data.get("n", data.get("n_list"))
        if n_field is None:
            raise ConfigError("missing n (single value or ascending list)")
        n_list = tuple(_integer(n, "n") for n in (
            n_field if isinstance(n_field, (list, tuple)) else [n_field]))
        if not n_list or any(a >= b for a, b in zip(n_list, n_list[1:])) or n_list[0] < 1:
            raise ConfigError("n must be a nonempty ascending list of positive sizes")
        f, n = max(pr.f for pr in primes), n_list[-1]
        if n * f * (n + u) * f > _KERNEL_ENTRIES:  # refused before anything is allocated
            raise ConfigError(f"{n} x {n + u} matrices at residue degree {f} have "
                              f"{n * f * (n + u) * f} kernel entries, over {_KERNEL_ENTRIES}")
        trials = _integer(data.get("trials", 1000), "trials")
        if trials < 1:
            raise ConfigError("trials must be at least 1")
        seed = parse_seed(data.get("seed", 0))
        pol = dict(_section(data, "precision"))
        policy = PrecisionPolicy(_integer(pol.pop("k_max", DEFAULT_POLICY.k_max), "k_max"))
        if pol:
            raise ConfigError(f"unknown precision settings {sorted(pol)}: k_max is the only one")
        caps = _section(data, "type_caps")
        cap_exponent = _integer(caps.get("exponent", 6), "type_caps exponent")
        cap_parts = _integer(caps.get("parts", 6), "type_caps parts")
        check_caps(primes, u, cap_exponent, cap_parts)
        strict = data.get("strict_balance", True)
        if not isinstance(strict, bool):
            raise ConfigError(f"strict_balance must be true or false, not {strict!r}")
        out = _section(data, "output")
        out_path = out.get("path")
        formats = parse_formats(out.get("formats", ("csv", "json")))
        targets = data.get("targets", ())
        if not isinstance(targets, (list, tuple)) or not all(isinstance(t, str) for t in targets):
            raise ConfigError(f"targets must be a list of type strings, not {targets!r}")
        cfg = ExperimentConfig(domain, primes, u, n_list, trials, dist, seed, policy,
                               cap_exponent, cap_parts, strict, out_path, formats,
                               tuple(targets), raw=data)
        audit_ideals(dist, primes)  # in budget
        return cfg
    except (ParameterError, ConfigError) as e:
        raise ConfigError(str(e)) from e
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"malformed config: {e}") from e


def _integer(value, name: str) -> int:
    """A config integer as given. A string, float or boolean is refused, not
    converted: a string n would be read digit by digit, 2.5 trials would
    run 2, and True would count as 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, not {type(value).__name__} {value!r}")
    return value


def parse_seed(value) -> int:
    """A validated seed, an integer in [0, 2^64): the sampler keys its
    streams by the seed's 64 bits, so any other seed would alias one."""
    seed = _integer(value, "seed")
    if not 0 <= seed < 1 << 64:
        raise ConfigError(f"seed must be in [0, 2^64), got {seed}")
    return seed


def _section(data: dict, key: str) -> dict:
    """The mapping under ``key`` (empty when absent); anything else is refused."""
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a mapping, not {type(value).__name__}")
    return value


def parse_formats(formats) -> tuple:
    """Validated report formats, a subset of csv, json and svg in the given order."""
    formats = tuple(formats)
    bad = set(formats) - {"csv", "json", "svg"}
    if bad:
        raise ConfigError(f"unknown output formats: {sorted(bad)}")
    return formats


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ConfigError(f"config is not valid UTF-8 JSON: {e}") from e
    return parse_config(data)


def _parse_domain(data) -> DomainId:
    name = str(data.get("domain", "")).strip().lower()
    kind = _DOMAIN_ALIASES.get(name)
    if kind is None:
        raise ConfigError(f"unknown domain {data.get('domain')!r}")
    if kind == POLYNOMIALS:
        if "char" not in data:
            raise ConfigError("polynomial domain needs a char field")
        return poly_domain(_integer(data["char"], "char"))
    return DomainId(kind)


def _parse_primes(domain, selectors, support: int):
    """Resolved primes of the selectors. A polynomial generator's own ideal,
    and the ideal (p) of a Gaussian selector p, are audited, so their
    directions are counted against the audit budget for the given support
    size before the generator's Rabin test or p's factoring runs."""
    if not selectors:
        raise ConfigError("at least one prime selector is required")
    primes = []
    for sel in selectors:
        if "generator" in sel:
            gen = parse_element(domain, str(sel["generator"]))
            if domain.kind == POLYNOMIALS:
                audit_pairs([(domain.char, max(degree(gen.value), 1))], support)
                primes.extend(factor_rational_prime(domain, gen))
            elif domain.kind == GAUSSIAN:
                a, b = gen.value
                matches = [pr for p in prime_divisors(a * a + b * b)
                           for pr in factor_rational_prime(domain, p)
                           if _generates_same(pr.generator.value, (a, b))]
                if not matches:
                    raise ConfigError(f"{sel['generator']} does not generate a prime ideal")
                primes.extend(matches)
            else:
                primes.extend(factor_rational_prime(domain, abs(gen.value)))
        elif "p" in sel:
            if domain.kind == POLYNOMIALS:
                raise ConfigError("polynomial domain primes need a generator polynomial")
            p = _integer(sel["p"], "p")
            if domain.kind == GAUSSIAN and p > 1:
                audit_pairs([(p, 2)], support)  # (p) has p + 1 directions
            factors = factor_rational_prime(domain, p)
            if "index" in sel:
                idx = _integer(sel["index"], "index")
                if not 0 <= idx < len(factors):
                    raise ConfigError(f"prime index {idx} out of range for p={sel['p']}")
                primes.append(factors[idx])
            else:
                primes.extend(factors)
        else:
            raise ConfigError(f"prime selector needs 'p' or 'generator': {sel}")
    if len(set(primes)) != len(primes):
        raise ConfigError("prime selectors resolve to duplicates")
    return tuple(primes)


def _generates_same(gen, cand) -> bool:
    # same ideal iff the generators differ by a unit 1, -1, i, -i
    a, b = gen
    units = [(a, b), (-a, -b), (-b, a), (b, -a)]
    return tuple(cand) in units


def _parse_distribution(domain, spec) -> EntryDistribution:
    if not spec:
        raise ConfigError("missing distribution")
    if "builtin" in spec:
        return builtin_distribution(spec["builtin"], spec.get("params"), domain=domain)
    if "support" in spec and "weights" in spec:
        support = [parse_element(domain, str(s)) for s in spec["support"]]
        return EntryDistribution.of(domain, support, spec["weights"])
    raise ConfigError("distribution needs either builtin+params or support+weights")


def run_balance_gate(cfg: ExperimentConfig) -> BalanceReport:
    report = balance_report(cfg.distribution, cfg.domain, cfg.primes)
    if cfg.strict_balance:
        report.require_balanced()
    return report


# ---------------------------------------------------------------------------
# trial execution


def _tally_chunk(args) -> Counter:
    """Count rows of trials start, ..., stop - 1 of cfg at size n, for args =
    (cfg, n, start, stop) (pure): a Counter of each trial's tuple of
    per-prime rows, in order of first appearance, which is trial order. The
    trials are sampled, in the fewest near-equal sub-batches of at most
    :func:`batch_trials`, into one reused array of the narrowest index
    dtype, and each sub-batch takes one :func:`cokernel_rows` call."""
    cfg, n, start, stop = args
    dist, u = cfg.distribution, cfg.u
    tally, trials = Counter(), stop - start
    parts = max(1, math.ceil(trials / batch_trials(dist.support, cfg.primes, cfg.policy, n, u)))
    cuts = [start + trials * i // parts for i in range(parts + 1)]
    idx = np.empty((math.ceil(trials / parts), n, n + u),
                   dtype=np.min_scalar_type(len(dist.support) - 1))
    for first, last in zip(cuts, cuts[1:]):
        batch = idx[:last - first]
        sample_index_batch(dist, n, u, cfg.seed, first, batch)
        rows = cokernel_rows(batch, dist.support, cfg.primes, cfg.policy)
        tally.update(zip(*(map(tuple, r.tolist()) for r in rows)))
    return tally


def _run_trials(cfg: ExperimentConfig, n: int, threads: int) -> Counter:
    """Tally of cfg.trials trials at size n: the count rows of contiguous
    near-equal shares, one per worker and at most one per sub-batch
    (:func:`_forked`), merged in share order and folded by :func:`row_type`
    (or into INDETERMINATE) in order of first appearance; raises
    DiagnosticsError when more than half of the trials are indeterminate."""
    if threads > 1 and not hasattr(os, "fork"):
        raise ConfigError("--threads above 1 needs os.fork, which this platform lacks")
    size = batch_trials(cfg.distribution.support, cfg.primes, cfg.policy, n, cfg.u)
    workers = min(threads, math.ceil(cfg.trials / size))
    cuts = [cfg.trials * i // workers for i in range(workers + 1)]
    shares = _forked(_tally_chunk, [(cfg, n, a, b) for a, b in zip(cuts, cuts[1:])])
    total = Counter()
    for rows, count in sum(shares, Counter()).items():
        total[row_type(cfg.primes, n, rows) or INDETERMINATE] += count
    indet = total.get(INDETERMINATE, 0)
    if indet > cfg.trials * 0.5:
        raise DiagnosticsError(
            f"{indet}/{cfg.trials} trials indeterminate at n={n}; "
            "the matrix law is degenerate at this precision policy")
    return total


def _forked(fn, args) -> list:
    """[fn(a) for a in args]: this process runs fn(args[0]), and one forked
    child per further argument sends back its pickled _outcome over a pipe.
    The first exception in argument order is raised; every child is reaped."""
    sys.stdout.flush()
    sys.stderr.flush()  # else a child that writes would repeat the caller's buffers
    pipes, pids = [], []
    try:
        for a in args[1:]:
            r, w = os.pipe()
            pipes.append(os.fdopen(r, "rb"))
            with os.fdopen(w, "wb") as out:  # the caller's write end closes here
                pid = os.fork()
                if pid == 0:  # the child never returns into the caller
                    try:
                        out.write(_outcome(fn, a))
                        out.flush()
                    finally:
                        os._exit(0)
            pids.append(pid)
        results = [fn(args[0])]
        for pid, pipe in zip(pids, pipes):
            data = pipe.read()
            ok, value = pickle.loads(data) if data else (False, RuntimeError(f"worker {pid} died"))
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _outcome(fn, a) -> bytes:
    """Pickled (True, fn(a)), or (False, the exception it raised), or (False,
    a RuntimeError naming its type) when that exception does not pickle."""
    try:
        return pickle.dumps((True, fn(a)))
    except Exception as e:
        try:
            return pickle.dumps((False, pickle.loads(pickle.dumps(e))))
        except Exception:
            return pickle.dumps((False, RuntimeError(f"worker raised {type(e).__name__}: {e}")))


# ---------------------------------------------------------------------------
# the run step and the report header


def _tallies(cfg: ExperimentConfig, threads: int):
    """The one run step behind every view: the balance echo, then the tally of
    cfg.trials trials at each size, as ((n, Counter), ...) in cfg.n_list order."""
    balance = balance_echo(run_balance_gate(cfg))
    return balance, tuple((n, _run_trials(cfg, n, threads)) for n in cfg.n_list)


def _timed(t0: float, summary):
    summary.wall_seconds = time.perf_counter() - t0
    return summary


@dataclass(kw_only=True)
class Summary:
    """Report header shared by the three views; ``to_dict`` is the JSON report.
    Each view adds ``csv_lines`` (the CSV report's lines, header first) and
    ``svg_panels`` ((title, [(label, observed, predicted), ...]) per panel)."""
    kind: str
    domain: str
    seed: int
    trials: int
    distribution: dict
    balance: tuple          # per-ideal dicts
    config: dict            # the config mapping as given
    wall_seconds: float = field(default=0.0, compare=False)

    def to_dict(self) -> dict:
        return _plain(self)


def _plain(value):
    """JSON form of a report value: a dataclass becomes a dict of its compared
    fields (timings stay out, so reports are byte-deterministic), a tuple a list."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value) if f.compare}
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def _header(cfg: ExperimentConfig, kind: str, balance: tuple) -> dict:
    dist = cfg.distribution
    return {
        "kind": kind,
        "domain": repr(cfg.domain),
        "seed": cfg.seed,
        "trials": cfg.trials,
        "distribution": {"support": [format_element(s) for s in dist.support],
                         "weights": [str(w) for w in dist.weights]},
        "balance": balance,
        "config": cfg.raw or {},
    }


def balance_echo(report: BalanceReport) -> tuple:
    """The per-ideal dicts of a balance report, as reports and ``audit`` echo them."""
    return tuple({"ideal": e.label, "p": e.p, "dim": e.dim, "worst_hyperplane": e.worst_hyperplane,
                  "worst_mass": str(e.worst_mass), "epsilon": str(e.epsilon)}
                 for e in report.entries)


# ---------------------------------------------------------------------------
# distribution view


@dataclass(frozen=True)
class BucketRow:
    type_string: str
    count: int
    frequency: float
    stderr: float
    prediction: str        # decimal string
    truncation_bound: str


@dataclass(frozen=True)
class NSummary:
    n: int
    trials: int
    buckets: tuple          # BucketRow, deterministic order
    indeterminate_count: int
    tv_distance: float
    chi2: float
    chi2_df: int


@dataclass(kw_only=True)
class EmpiricalSummary(Summary):
    primes: tuple           # descriptors
    u: int
    type_caps: dict         # {"exponent": ..., "parts": ...}
    strict_balance: bool
    per_n: tuple            # NSummary

    @property
    def trials_per_second(self) -> float:
        return len(self.per_n) * self.trials / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def csv_lines(self) -> list:
        lines = ["n,type,count,frequency,stderr,prediction,truncation_bound"]
        for s in self.per_n:
            for b in s.buckets:
                lines.append(f"{s.n},{_csv_quote(b.type_string)},{b.count},{b.frequency:.5f},"
                             f"{b.stderr:.5f},{b.prediction},{b.truncation_bound}")
        return lines

    def svg_panels(self) -> list:
        return [(f"n={s.n}", [(b.type_string, b.frequency, float(b.prediction))
                              for b in s.buckets]) for s in self.per_n]


def run_distribution_experiment(cfg: ExperimentConfig, threads: int = 1) -> EmpiricalSummary:
    """Observed cokernel-type frequencies against the limiting law."""
    t0 = time.perf_counter()
    return _timed(t0, _distribution_view(cfg, *_tallies(cfg, threads)))


def _distribution_view(cfg, balance, tallies) -> EmpiricalSummary:
    box_mass = partial_sum(cfg.primes, cfg.u, cfg.cap_exponent, cfg.cap_parts)
    pred_cache: dict = {}
    return EmpiricalSummary(
        **_header(cfg, "distribution", balance),
        primes=tuple(pr.descriptor for pr in cfg.primes),
        u=cfg.u,
        type_caps={"exponent": cfg.cap_exponent, "parts": cfg.cap_parts},
        strict_balance=cfg.strict_balance,
        per_n=tuple(_summarize_n(cfg, n, tally, box_mass, pred_cache) for n, tally in tallies),
    )


def _summarize_n(cfg, n, tally, box_mass, pred_cache) -> NSummary:
    trials = cfg.trials
    in_cap: dict = {}
    other_count = 0
    indet = tally.get(INDETERMINATE, 0)
    for N, cnt in tally.items():
        if N == INDETERMINATE:
            continue
        if _within_caps(N, cfg.cap_exponent, cfg.cap_parts):
            in_cap[N] = cnt
        else:
            other_count += cnt
    cells = []              # (label, count, predicted mass, truncation bound), in row order
    for N, cnt in sorted(in_cap.items(), key=lambda t: (module_size(t[0]), str(t[0]))):
        if N not in pred_cache:
            pred_cache[N] = predicted_probability(N, cfg.primes, cfg.u)
        cells.append((str(N), cnt, pred_cache[N].value, pred_cache[N].truncation_bound))
    # unseen in-cap types contribute their whole predicted mass
    unseen = max(box_mass.value - sum(cell[2] for cell in cells), Decimal(0))
    cells.append((OTHER, other_count, max(Decimal(1) - box_mass.value, Decimal(0)),
                  box_mass.truncation_bound))
    rows = []
    abs_diff = Decimal(0)
    chi2 = 0.0
    chi2_df = 0
    for label, cnt, pred, bound in cells:
        freq = cnt / trials
        rows.append(BucketRow(label, cnt, freq, _binom_se(freq, trials),
                              f"{pred:.8f}", f"{float(bound):.1e}"))
        abs_diff += abs(Decimal(cnt) / trials - pred)
        expected = float(pred) * trials
        if expected >= 5:
            chi2 += (cnt - expected) ** 2 / expected
            chi2_df += 1
    indet_freq = indet / trials
    rows.append(BucketRow(INDETERMINATE, indet, indet_freq, _binom_se(indet_freq, trials),
                          "0.00000000", "0"))
    abs_diff += Decimal(indet) / trials
    abs_diff += unseen
    tv = float(abs_diff) / 2
    return NSummary(n, trials, tuple(rows), indet, tv, chi2, max(chi2_df - 1, 0))


def _within_caps(N: ModuleType, cap_e, cap_m) -> bool:
    return all(parts[0] <= cap_e and len(parts) <= cap_m for _, parts in N.components)


def _binom_se(freq: float, trials: int) -> float:
    return math.sqrt(max(freq * (1 - freq), 0.0) / trials)


# ---------------------------------------------------------------------------
# moment view


@dataclass(frozen=True)
class MomentRow:
    n: int
    target: str
    estimate: float
    stderr: float
    prediction: str
    determined_trials: int


@dataclass(kw_only=True)
class MomentSummary(Summary):
    primes: tuple           # descriptors
    u: int
    rows: tuple             # MomentRow, per n and target

    def csv_lines(self) -> list:
        return ["n,target,estimate,stderr,prediction,determined_trials"] + [
            f"{r.n},{_csv_quote(r.target)},{r.estimate:.6f},{r.stderr:.6f},"
            f"{r.prediction},{r.determined_trials}" for r in self.rows]

    def svg_panels(self) -> list:
        return [("moments", [(f"n={r.n} {r.target}", r.estimate, float(r.prediction))
                             for r in self.rows])]


def run_moment_experiment(cfg: ExperimentConfig, threads: int = 1) -> MomentSummary:
    """Surjection-count averages against the |N|^-u moment prediction."""
    t0 = time.perf_counter()
    targets = _moment_targets(cfg)  # a bad target fails before the balance audit runs
    return _timed(t0, _moment_view(cfg, targets, *_tallies(cfg, threads)))


def _moment_targets(cfg: ExperimentConfig) -> list:
    """The parsed cfg.targets; a descriptor outside cfg.primes is a ConfigError."""
    try:
        targets = [parse_type_string(t, cfg.primes) for t in cfg.targets]
    except ParameterError as e:
        raise ConfigError(f"bad moment target: {e}") from e
    if not targets:
        raise ConfigError("moment run needs at least one target type")
    return targets


def _moment_view(cfg, targets, balance, tallies) -> MomentSummary:
    rows = []
    for n, tally in tallies:
        determined = cfg.trials - tally.get(INDETERMINATE, 0)
        for target in targets:
            mean = 0.0
            second = 0.0
            for N, cnt in tally.items():
                if N == INDETERMINATE:
                    continue
                v = count_sur(N, target)
                mean += v * cnt
                second += v * v * cnt
            mean /= determined
            var = max(second / determined - mean * mean, 0.0)
            se = math.sqrt(var / determined)
            rows.append(MomentRow(n, str(target), mean, se,
                                  f"{float(predicted_moment(target, cfg.u)):.8f}", determined))
    return MomentSummary(
        **_header(cfg, "moments", balance),
        primes=tuple(pr.descriptor for pr in cfg.primes),
        u=cfg.u,
        rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# Galois view


@dataclass(kw_only=True)
class GaloisSummary(Summary):
    prime: str
    conjugate: str
    n: int
    equal_fraction: float
    asymmetric_rows: tuple   # (type string, count, frequency)

    def to_dict(self) -> dict:
        out = super().to_dict()
        out["asymmetric_types"] = [{"type": t, "count": c, "frequency": f}
                                   for t, c, f in out.pop("asymmetric_rows")]
        return out

    def csv_lines(self) -> list:
        return ["n,metric,value,count",
                f"{self.n},conjugate_equal_fraction,{self.equal_fraction:.6f},{self.trials}"] + [
            f"{self.n},asymmetric_type {_csv_quote(t)},{f:.6f},{c}"
            for t, c, f in self.asymmetric_rows]

    def svg_panels(self) -> list:
        return [("galois", [("conjugate equal", self.equal_fraction, 1.0)])]


def run_galois_demo(cfg: ExperimentConfig, threads: int = 1) -> GaloisSummary:
    """Conjugate-prime comparison over Z[i]: tau-invariant entry laws force
    equal partitions at the two primes above a split p. Runs at the last n."""
    t0 = time.perf_counter()
    if cfg.domain != ZI:
        raise ParameterError("the Galois demo runs over Z[i]")
    primes = cfg.primes
    if len(primes) == 1:  # conjugate() raises unless the prime is split
        primes = (primes[0], primes[0].conjugate())
    if len(primes) != 2 or primes[0].conjugate() != primes[1]:
        raise ParameterError("the Galois demo needs one split prime or a conjugate pair")
    cfg = replace(cfg, primes=primes, n_list=cfg.n_list[-1:])
    return _timed(t0, _galois_view(cfg, *_tallies(cfg, threads)))


def _galois_view(cfg, balance, tallies) -> GaloisSummary:
    ((n, tally),) = tallies
    equal = 0
    asym = Counter()
    for N, cnt in tally.items():
        if N == INDETERMINATE:
            continue
        if N.partition_for(cfg.primes[0]) == N.partition_for(cfg.primes[1]):
            equal += cnt
        else:
            asym[str(N)] += cnt
    # _run_trials raises unless at least half of the trials are determined
    determined = cfg.trials - tally.get(INDETERMINATE, 0)
    return GaloisSummary(
        **_header(cfg, "galois", balance),
        prime=cfg.primes[0].descriptor,
        conjugate=cfg.primes[1].descriptor,
        n=n,
        equal_fraction=equal / determined,
        asymmetric_rows=tuple(sorted((t, c, c / cfg.trials) for t, c in asym.items())),
    )


# ---------------------------------------------------------------------------
# emission


def emit_report(summary, formats=("csv", "json"), out_path=None) -> list[str]:
    """Write CSV/JSON/SVG artifacts next to out_path; returns written paths."""
    out_path = out_path or "coklab-report"
    written = []
    for fmt, render in (("csv", _render_csv), ("json", _render_json), ("svg", _render_svg)):
        if fmt in formats:  # written in this order, whatever the order of formats
            path = f"{out_path}.{fmt}"
            with open_output(path) as fh:
                fh.write(render(summary))
            written.append(path)
    return written


def open_output(path: str):
    """path opened for writing text, after creating its directory."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, "w", encoding="utf-8")


def _render_json(summary) -> str:
    return json.dumps(summary.to_dict(), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _render_csv(summary) -> str:
    return "\n".join(summary.csv_lines()) + "\n"


def _csv_quote(text: str) -> str:
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _render_svg(summary) -> str:
    """Frequency vs prediction bars, one panel per n (plain hand-rolled SVG)."""
    panels = summary.svg_panels()
    bar_w, gap, panel_pad, height = 18, 10, 40, 220
    width = max(sum(panel_pad + len(rows) * (2 * bar_w + gap) for _, rows in panels), 300)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height + 60}">']
    x = 10
    for title, rows in panels:
        parts.append(f'<text x="{x}" y="16" font-size="13">{_xml(title)}</text>')
        for label, emp, pred in rows:
            he = int(emp * height)
            hp = int(min(max(pred, 0.0), 1.0) * height)
            parts.append(f'<rect x="{x}" y="{30 + height - he}" width="{bar_w}" '
                         f'height="{he}" fill="#4878d0"/>')
            parts.append(f'<rect x="{x + bar_w}" y="{30 + height - hp}" width="{bar_w}" '
                         f'height="{hp}" fill="#ee854a"/>')
            parts.append(f'<text x="{x}" y="{height + 44}" font-size="9" '
                         f'transform="rotate(35 {x} {height + 44})">{_xml(label)}</text>')
            x += 2 * bar_w + gap
        x += panel_pad
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _xml(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
