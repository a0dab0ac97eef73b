"""Config-driven Monte Carlo experiments and report emission.

A run samples seeded matrices, extracts cokernel types at the configured
primes, buckets them (exponent/parts caps, an explicit "other" bucket, an
explicit "indeterminate" bucket), and attaches the limiting predictions.
Trials are pure functions of (seed, n, u, trial index), so tallies are
identical under any worker count; reports are byte-deterministic.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from decimal import Decimal
from fractions import Fraction

import numpy as np

from ._fppoly import prime_divisors
from .domains import (
    GAUSSIAN,
    INTEGERS,
    POLYNOMIALS,
    ZI,
    DomainId,
    Element,
    elem_mul,
    factor_rational_prime,
    gauss_elem,
    int_elem,
    parse_element,
    poly_domain,
    poly_elem,
)
from .errors import (
    BalanceError,
    ConfigError,
    DiagnosticsError,
    IndeterminateCokernelError,
    ParameterError,
)
from .modules import ModuleType, count_sur, module_size, parse_type_string
from .sampler import BalanceReport, EntryDistribution, balance_report, builtin_distribution, \
    sample_index_matrix
from .snf import DEFAULT_POLICY, PrecisionPolicy, partition_at_prime
from .theory import Prediction, partial_sum, predicted_moment, predicted_probability

INDETERMINATE = "indeterminate"
OTHER = "other"

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
    try:
        domain = _parse_domain(data)
        primes = _parse_primes(domain, data.get("primes"))
        u = int(data.get("u", 0))
        if u < 0:
            raise ConfigError("u must be nonnegative")
        n_field = data.get("n", data.get("n_list"))
        if n_field is None:
            raise ConfigError("missing n (single value or ascending list)")
        n_list = tuple([int(n_field)] if isinstance(n_field, int) else map(int, n_field))
        if not n_list or any(a >= b for a, b in zip(n_list, n_list[1:])) or n_list[0] < 1:
            raise ConfigError("n must be a nonempty ascending list of positive sizes")
        trials = int(data.get("trials", 1000))
        if trials < 1:
            raise ConfigError("trials must be at least 1")
        dist = _parse_distribution(domain, data.get("distribution"))
        seed = int(data.get("seed", 0))
        pol = data.get("precision", {})
        policy = PrecisionPolicy(int(pol.get("k_init", DEFAULT_POLICY.k_init)),
                                 int(pol.get("k_max", DEFAULT_POLICY.k_max)),
                                 int(pol.get("growth", DEFAULT_POLICY.growth)))
        caps = data.get("type_caps", {})
        cap_exponent = int(caps.get("exponent", 6))
        cap_parts = int(caps.get("parts", 6))
        strict = bool(data.get("strict_balance", True))
        out = data.get("output", {})
        out_path = out.get("path")
        formats = parse_formats(out.get("formats", ("csv", "json")))
        targets = tuple(data.get("targets", ()))
        return ExperimentConfig(domain, primes, u, n_list, trials, dist, seed, policy,
                                cap_exponent, cap_parts, strict, out_path, formats,
                                targets, raw=data)
    except (ParameterError, ConfigError) as e:
        raise ConfigError(str(e)) from e
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"malformed config: {e}") from e


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
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    return parse_config(data)


def _parse_domain(data) -> DomainId:
    name = str(data.get("domain", "")).strip().lower()
    kind = _DOMAIN_ALIASES.get(name)
    if kind is None:
        raise ConfigError(f"unknown domain {data.get('domain')!r}")
    if kind == POLYNOMIALS:
        if "char" not in data:
            raise ConfigError("polynomial domain needs a char field")
        return poly_domain(int(data["char"]))
    return DomainId(kind)


def _parse_primes(domain, selectors):
    if not selectors:
        raise ConfigError("at least one prime selector is required")
    primes = []
    for sel in selectors:
        if "generator" in sel:
            gen = parse_element(domain, str(sel["generator"]))
            if domain.kind == POLYNOMIALS:
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
            factors = factor_rational_prime(domain, int(sel["p"]))
            if "index" in sel:
                idx = int(sel["index"])
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


def audit_modulus(cfg: ExperimentConfig) -> Element:
    """Product of the distinct rational primes (or irreducibles) below cfg.primes.

    An ideal I with elementary abelian quotient contains its residue
    characteristic, so the audited ideal set does not depend on the exponent;
    first powers suffice.
    """
    domain = cfg.domain
    if domain.kind == POLYNOMIALS:
        mod = poly_elem(domain.char, [1])
        for g in sorted({pr.generator.value for pr in cfg.primes}):
            mod = elem_mul(mod, Element(domain, g))
        return mod
    chars = sorted({pr.p for pr in cfg.primes})
    total = 1
    for p in chars:
        total *= p
    return int_elem(total) if domain.kind == INTEGERS else gauss_elem(total, 0)


def run_balance_gate(cfg: ExperimentConfig) -> BalanceReport:
    report = balance_report(cfg.distribution, cfg.domain, audit_modulus(cfg))
    if cfg.strict_balance and not report.is_balanced():
        worst = min(report.entries, key=lambda e: e.epsilon)
        raise BalanceError(
            f"entry distribution is not balanced: epsilon = 0 at ideal {worst.label} "
            f"(worst affine hyperplane {worst.worst_hyperplane}); "
            "pass --no-strict-balance to run anyway")
    return report


# ---------------------------------------------------------------------------
# trial execution


# trials sampled and eliminated together; bounds a batch's memory for any chunk size
_SUB_BATCH = 64


def _tally_chunk(args) -> Counter:
    """Worker: observed type keys for a contiguous trial range (pure).

    Trials go through the cokernel driver in sub-batches of ``_SUB_BATCH``,
    sampled into one reused array of the narrowest index dtype. A trial
    leaves the batch at its first indeterminate prime. Keys are tallied in
    trial order.
    """
    dist, primes, u, seed, policy, n, start, stop = args
    tally = Counter()
    idx = np.empty((_SUB_BATCH, n, n + u), dtype=np.min_scalar_type(len(dist.support) - 1))
    for first in range(start, stop, _SUB_BATCH):
        batch = idx[:min(_SUB_BATCH, stop - first)]
        for i, dst in enumerate(batch):
            dst[...] = sample_index_matrix(dist, n, u, seed, first + i)
        keys = [[] for _ in batch]
        live = list(range(len(batch)))  # trials determined at every prime so far
        for pi, prime in enumerate(primes):
            sub = batch if len(live) == len(batch) else batch[live]
            outcomes = partition_at_prime(sub, dist.support, prime, policy)
            for t, parts in zip(live, outcomes):
                if isinstance(parts, IndeterminateCokernelError):
                    keys[t] = None
                elif parts:
                    keys[t].append((pi, parts))
            live = [t for t in live if keys[t] is not None]
        for key in keys:
            tally[INDETERMINATE if key is None else tuple(key)] += 1
    return tally


def _run_trials(cfg: ExperimentConfig, n: int, threads: int) -> Counter:
    """Merged tally of cfg.trials trials at size n; raises DiagnosticsError
    when more than half of them are indeterminate."""
    args = [(cfg.distribution, cfg.primes, cfg.u, cfg.seed, cfg.policy, n, a, b)
            for a, b in _chunks(cfg.trials, threads)]
    workers = min(threads, len(args))  # a forked worker without a chunk is wasted
    if workers <= 1:
        tallies = [_tally_chunk(a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            tallies = list(pool.map(_tally_chunk, args))
    total = Counter()
    for t in tallies:  # merged in trial-index order
        total += t
    indet = total.get(INDETERMINATE, 0)
    if indet > cfg.trials * 0.5:
        raise DiagnosticsError(
            f"{indet}/{cfg.trials} trials indeterminate at n={n}; "
            "the matrix law is degenerate at this precision policy")
    return total


def _chunks(trials: int, threads: int):
    size = max(64, math.ceil(trials / max(1, threads * 4)))
    return [(a, min(a + size, trials)) for a in range(0, trials, size)]


def _key_to_type(key, primes) -> ModuleType:
    return ModuleType.of([(primes[pi], parts) for pi, parts in key])


# ---------------------------------------------------------------------------
# summaries


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


@dataclass
class EmpiricalSummary:
    kind: str
    domain: str
    primes: tuple           # descriptors
    u: int
    seed: int
    trials: int
    caps: tuple
    strict_balance: bool
    distribution: dict
    balance: tuple          # per-ideal dicts
    per_n: tuple            # NSummary
    config_echo: dict
    wall_seconds: float = field(default=0.0, compare=False)
    trials_per_second: float = field(default=0.0, compare=False)

    def to_dict(self) -> dict:
        # timing fields stay out: emitted reports are byte-deterministic
        return {
            "kind": self.kind,
            "domain": self.domain,
            "primes": list(self.primes),
            "u": self.u,
            "seed": self.seed,
            "trials": self.trials,
            "type_caps": {"exponent": self.caps[0], "parts": self.caps[1]},
            "strict_balance": self.strict_balance,
            "distribution": self.distribution,
            "balance": [dict(b) for b in self.balance],
            "per_n": [
                {
                    "n": s.n,
                    "trials": s.trials,
                    "indeterminate_count": s.indeterminate_count,
                    "tv_distance": s.tv_distance,
                    "chi2": s.chi2,
                    "chi2_df": s.chi2_df,
                    "buckets": [vars(b) for b in s.buckets],
                }
                for s in self.per_n
            ],
            "config": self.config_echo,
        }


def _dist_echo(dist: EntryDistribution) -> dict:
    from .domains import format_element
    return {
        "support": [format_element(s) for s in dist.support],
        "weights": [str(w) for w in dist.weights],
    }


def _balance_echo(report: BalanceReport) -> tuple:
    return tuple(
        {
            "ideal": e.label,
            "p": e.p,
            "dim": e.dim,
            "worst_hyperplane": e.worst_hyperplane,
            "worst_mass": str(e.worst_mass),
            "epsilon": str(e.epsilon),
        }
        for e in report.entries)


def _fmt_pred(p: Prediction | Fraction | None):
    if p is None:
        return "0.00000000", "0"
    if isinstance(p, Fraction):
        return f"{float(p):.8f}", "0"
    return f"{p.value:.8f}", f"{float(p.truncation_bound):.1e}"


def run_distribution_experiment(cfg: ExperimentConfig, threads: int = 1) -> EmpiricalSummary:
    """Observed cokernel-type frequencies against the limiting law."""
    t0 = time.perf_counter()
    report = run_balance_gate(cfg)
    box_mass = partial_sum(cfg.primes, cfg.u, cfg.cap_exponent, cfg.cap_parts)
    pred_cache: dict = {}
    per_n = []
    for n in cfg.n_list:
        tally = _run_trials(cfg, n, threads)
        per_n.append(_summarize_n(cfg, n, tally, box_mass, pred_cache))
    wall = time.perf_counter() - t0
    summary = EmpiricalSummary(
        kind="distribution",
        domain=repr(cfg.domain),
        primes=tuple(pr.descriptor for pr in cfg.primes),
        u=cfg.u,
        seed=cfg.seed,
        trials=cfg.trials,
        caps=(cfg.cap_exponent, cfg.cap_parts),
        strict_balance=cfg.strict_balance,
        distribution=_dist_echo(cfg.distribution),
        balance=_balance_echo(report),
        per_n=tuple(per_n),
        config_echo=cfg.raw or {},
        wall_seconds=wall,
        trials_per_second=len(cfg.n_list) * cfg.trials / wall if wall > 0 else 0.0,
    )
    return summary


def _summarize_n(cfg, n, tally, box_mass, pred_cache) -> NSummary:
    trials = cfg.trials
    in_cap: dict = {}
    other_count = 0
    indet = tally.get(INDETERMINATE, 0)
    for key, cnt in tally.items():
        if key == INDETERMINATE:
            continue
        if _within_caps(key, cfg.cap_exponent, cfg.cap_parts):
            in_cap[key] = cnt
        else:
            other_count += cnt
    rows = []
    pred_mass_observed = Decimal(0)
    abs_diff = Decimal(0)
    chi2 = 0.0
    chi2_df = 0
    ordered = sorted(in_cap.items(),
                     key=lambda kv: (module_size(_key_to_type(kv[0], cfg.primes)),
                                     str(_key_to_type(kv[0], cfg.primes))))
    for key, cnt in ordered:
        N = _key_to_type(key, cfg.primes)
        if key not in pred_cache:
            pred_cache[key] = predicted_probability(N, cfg.primes, cfg.u)
        pred = pred_cache[key]
        freq = cnt / trials
        rows.append(BucketRow(str(N), cnt, freq, _binom_se(freq, trials), *_fmt_pred(pred)))
        pred_mass_observed += pred.value
        abs_diff += abs(Decimal(cnt) / trials - pred.value)
        expected = float(pred.value) * trials
        if expected >= 5:
            chi2 += (cnt - expected) ** 2 / expected
            chi2_df += 1
    other_pred = max(Decimal(1) - box_mass.value, Decimal(0))
    other_freq = other_count / trials
    rows.append(BucketRow(OTHER, other_count, other_freq, _binom_se(other_freq, trials),
                          f"{other_pred:.8f}", f"{float(box_mass.truncation_bound):.1e}"))
    abs_diff += abs(Decimal(other_count) / trials - other_pred)
    if float(other_pred) * trials >= 5:
        chi2 += (other_count - float(other_pred) * trials) ** 2 / (float(other_pred) * trials)
        chi2_df += 1
    indet_freq = indet / trials
    rows.append(BucketRow(INDETERMINATE, indet, indet_freq, _binom_se(indet_freq, trials),
                          "0.00000000", "0"))
    abs_diff += Decimal(indet) / trials
    # unseen in-cap types contribute their whole predicted mass
    unseen = box_mass.value - pred_mass_observed
    abs_diff += max(unseen, Decimal(0))
    tv = float(abs_diff) / 2
    return NSummary(n, trials, tuple(rows), indet, tv, chi2, max(chi2_df - 1, 0))


def _within_caps(key, cap_e, cap_m) -> bool:
    for _, parts in key:
        if parts and (parts[0] > cap_e or len(parts) > cap_m):
            return False
    return True


def _binom_se(freq: float, trials: int) -> float:
    return math.sqrt(max(freq * (1 - freq), 0.0) / trials)


# ---------------------------------------------------------------------------
# moment experiment


@dataclass(frozen=True)
class MomentRow:
    n: int
    target: str
    estimate: float
    stderr: float
    prediction: str
    determined_trials: int


@dataclass
class MomentSummary:
    kind: str
    domain: str
    primes: tuple
    u: int
    seed: int
    trials: int
    distribution: dict
    balance: tuple
    rows: tuple
    config_echo: dict
    wall_seconds: float = field(default=0.0, compare=False)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "domain": self.domain,
            "primes": list(self.primes),
            "u": self.u,
            "seed": self.seed,
            "trials": self.trials,
            "distribution": self.distribution,
            "balance": [dict(b) for b in self.balance],
            "rows": [vars(r) for r in self.rows],
            "config": self.config_echo,
        }


def run_moment_experiment(cfg: ExperimentConfig, targets=None, threads: int = 1) -> MomentSummary:
    """Surjection-count averages against the |N|^-u moment prediction."""
    t0 = time.perf_counter()
    report = run_balance_gate(cfg)
    try:
        target_types = [parse_type_string(t, cfg.primes) for t in (targets or cfg.targets)]
    except ParameterError as e:
        raise ConfigError(f"bad moment target: {e}") from e
    if not target_types:
        raise ConfigError("moment run needs at least one target type")
    for N in target_types:
        for prime in N.primes():
            if prime not in cfg.primes:
                raise ConfigError(f"target prime {prime} outside the configured prime set")
    rows = []
    for n in cfg.n_list:
        tally = _run_trials(cfg, n, threads)
        indet = tally.get(INDETERMINATE, 0)
        determined = cfg.trials - indet
        for N in target_types:
            mean = 0.0
            second = 0.0
            for key, cnt in tally.items():
                if key == INDETERMINATE:
                    continue
                v = count_sur(_key_to_type(key, cfg.primes), N)
                mean += v * cnt
                second += v * v * cnt
            mean /= determined
            var = max(second / determined - mean * mean, 0.0)
            se = math.sqrt(var / determined)
            rows.append(MomentRow(n, str(N), mean, se,
                                  f"{float(predicted_moment(N, cfg.u)):.8f}", determined))
    return MomentSummary(
        kind="moments",
        domain=repr(cfg.domain),
        primes=tuple(pr.descriptor for pr in cfg.primes),
        u=cfg.u,
        seed=cfg.seed,
        trials=cfg.trials,
        distribution=_dist_echo(cfg.distribution),
        balance=_balance_echo(report),
        rows=tuple(rows),
        config_echo=cfg.raw or {},
        wall_seconds=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Galois invariance demo


@dataclass
class GaloisSummary:
    kind: str
    domain: str
    prime: str
    conjugate: str
    seed: int
    trials: int
    n: int
    distribution: dict
    balance: tuple
    equal_fraction: float
    asymmetric_rows: tuple   # (pair string, count, frequency)
    config_echo: dict
    wall_seconds: float = field(default=0.0, compare=False)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "domain": self.domain,
            "prime": self.prime,
            "conjugate": self.conjugate,
            "seed": self.seed,
            "trials": self.trials,
            "n": self.n,
            "distribution": self.distribution,
            "balance": [dict(b) for b in self.balance],
            "equal_fraction": self.equal_fraction,
            "asymmetric_types": [
                {"type": t, "count": c, "frequency": f} for t, c, f in self.asymmetric_rows],
            "config": self.config_echo,
        }


def run_galois_demo(cfg: ExperimentConfig, threads: int = 1) -> GaloisSummary:
    """Conjugate-prime comparison over Z[i]: tau-invariant entry laws force
    equal partitions at the two primes above a split p."""
    t0 = time.perf_counter()
    if cfg.domain != ZI:
        raise ParameterError("the Galois demo runs over Z[i]")
    primes = list(cfg.primes)
    if len(primes) == 1:
        pr = primes[0]
        if pr.e != 1 or pr.f != 1:
            raise ParameterError(f"prime {pr} is not split; the demo needs a split prime")
        primes = [pr, pr.conjugate()]
    if len(primes) != 2 or primes[0].conjugate() != primes[1]:
        raise ParameterError("the Galois demo needs one split prime or a conjugate pair")
    cfg = replace(cfg, primes=tuple(primes))
    report = run_balance_gate(cfg)
    n = cfg.n_list[-1]
    tally = _run_trials(cfg, n, threads)
    indet = tally.get(INDETERMINATE, 0)
    equal = 0
    asym = Counter()
    for key, cnt in tally.items():
        if key == INDETERMINATE:
            continue
        parts = {pi: ps for pi, ps in key}
        if parts.get(0, ()) == parts.get(1, ()):
            equal += cnt
        else:
            asym[str(_key_to_type(key, cfg.primes))] += cnt
    determined = cfg.trials - indet
    rows = tuple(sorted((t, c, c / cfg.trials) for t, c in asym.items()))
    return GaloisSummary(
        kind="galois",
        domain=repr(cfg.domain),
        prime=primes[0].descriptor,
        conjugate=primes[1].descriptor,
        seed=cfg.seed,
        trials=cfg.trials,
        n=n,
        distribution=_dist_echo(cfg.distribution),
        balance=_balance_echo(report),
        equal_fraction=equal / determined if determined else 0.0,
        asymmetric_rows=rows,
        config_echo=cfg.raw or {},
        wall_seconds=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# emission


def emit_report(summary, formats=("csv", "json"), out_path=None) -> list[str]:
    """Write CSV/JSON/SVG artifacts next to out_path; returns written paths."""
    out_path = out_path or "coklab-report"
    directory = os.path.dirname(out_path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    written = []
    if "csv" in formats:
        path = out_path + ".csv"
        _write_text(path, _render_csv(summary))
        written.append(path)
    if "json" in formats:
        path = out_path + ".json"
        _write_text(path, json.dumps(summary.to_dict(), sort_keys=True, indent=2,
                                     ensure_ascii=False) + "\n")
        written.append(path)
    if "svg" in formats:
        path = out_path + ".svg"
        _write_text(path, _render_svg(summary))
        written.append(path)
    return written


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _render_csv(summary) -> str:
    lines = []
    if summary.kind == "distribution":
        lines.append("n,type,count,frequency,stderr,prediction,truncation_bound")
        for s in summary.per_n:
            for b in s.buckets:
                t = _csv_quote(b.type_string)
                lines.append(f"{s.n},{t},{b.count},{b.frequency:.5f},{b.stderr:.5f},"
                             f"{b.prediction},{b.truncation_bound}")
    elif summary.kind == "moments":
        lines.append("n,target,estimate,stderr,prediction,determined_trials")
        for r in summary.rows:
            lines.append(f"{r.n},{_csv_quote(r.target)},{r.estimate:.6f},{r.stderr:.6f},"
                         f"{r.prediction},{r.determined_trials}")
    elif summary.kind == "galois":
        lines.append("n,metric,value,count")
        lines.append(f"{summary.n},conjugate_equal_fraction,{summary.equal_fraction:.6f},"
                     f"{summary.trials}")
        for t, c, f in summary.asymmetric_rows:
            lines.append(f"{summary.n},asymmetric_type {_csv_quote(t)},{f:.6f},{c}")
    else:
        raise ParameterError(f"cannot render summary kind {summary.kind!r}")
    return "\n".join(lines) + "\n"


def _csv_quote(text: str) -> str:
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _render_svg(summary) -> str:
    """Frequency vs prediction bars, one panel per n (plain hand-rolled SVG)."""
    if summary.kind == "distribution":
        panels = [(f"n={s.n}", [(b.type_string, b.frequency, float(b.prediction))
                                for b in s.buckets]) for s in summary.per_n]
    elif summary.kind == "moments":
        panels = [("moments", [(f"n={r.n} {r.target}", r.estimate, float(r.prediction))
                               for r in summary.rows])]
    else:
        panels = [("galois", [("conjugate equal", summary.equal_fraction, 1.0)])]
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
