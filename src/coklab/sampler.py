"""Entry distributions, balance auditing, and seeded matrix sampling.

Weights are exact rationals so audited balance margins are exact; decimal
inputs are converted with denominator 10^12 and the vector is renormalized
to sum to exactly one. Sampling uses counter-based Philox streams keyed by
(master seed, trial index), so any parallel schedule reproduces the same
matrices bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from . import _fppoly as fp
from .domains import (
    GAUSSIAN,
    INTEGERS,
    POLYNOMIALS,
    ZI,
    ZZ,
    DomainId,
    Element,
    elementary_quotient_ideals,
    gauss_elem,
    int_elem,
    parse_element,
    poly_domain,
    poly_elem,
    poly_pretty,
    residue_vector,
)
from .errors import BalanceError, ConfigError, ParameterError

_WEIGHT_DENOM = 10 ** 12


# largest top power m of poly-powers: a 10-trial n = 4 run at (x^2+x+1) of F_2[x]
# took 0.4-0.6 s of CPU at m = 500, 1.9 at 1000 and 6.4 at 2000 (2-core sandbox),
# mostly reducing the m + 1 powers of x into the first rung's local ring
_POLY_POWERS_M = 500


def _to_fraction(w) -> Fraction:
    """A weight as an exact rational: a non-finite float (JSON's Infinity,
    NaN or 1e400) or a string Fraction refuses, such as "1/0", is refused."""
    if isinstance(w, Fraction):
        return w
    if isinstance(w, int):
        return Fraction(w)
    try:
        if isinstance(w, str):
            return Fraction(w)
        if isinstance(w, float):
            return Fraction(round(w * _WEIGHT_DENOM), _WEIGHT_DENOM)
    except (ArithmeticError, ValueError):
        raise ParameterError(f"weight {w!r} is not a finite rational number") from None
    raise ParameterError(f"cannot interpret weight {w!r}")


@dataclass(frozen=True)
class EntryDistribution:
    """Finitely supported probability law on domain elements."""

    domain: DomainId
    support: tuple      # Elements, distinct
    weights: tuple      # Fractions, positive, exact sum 1
    _cutoffs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cum = Fraction(0)
        ts = []
        for w in self.weights[:-1]:
            cum += w
            ts.append((cum.numerator << 64) // cum.denominator)
        cutoffs = np.array(ts, dtype=np.uint64)
        cutoffs.flags.writeable = False  # shared by every trial
        object.__setattr__(self, "_cutoffs", cutoffs)

    @staticmethod
    def of(domain: DomainId, support, weights) -> "EntryDistribution":
        support = tuple(support)
        if len(set(support)) != len(support):
            raise ParameterError("support elements must be distinct")
        if len(support) != len(weights) or not support:
            raise ParameterError("need matching nonempty support and weights")
        for s in support:
            if s.domain != domain:
                raise ParameterError(f"support element {s} outside {domain}")
        fracs = [_to_fraction(w) for w in weights]
        if any(w <= 0 for w in fracs):
            raise ParameterError("weights must be positive")
        total = sum(fracs)
        if abs(total - 1) > Fraction(1, 10 ** 12):
            raise ParameterError(f"weights sum to {float(total)}, not 1")
        fracs = [w / total for w in fracs]  # exact renormalization
        return EntryDistribution(domain, support, tuple(fracs))

    def thresholds(self) -> np.ndarray:
        """Cumulative 64-bit cutoffs, all but the last, computed once per
        distribution: a 64-bit draw d picks support index #{cutoffs <= d}."""
        return self._cutoffs

    def __str__(self):
        from .domains import format_element
        pairs = ", ".join(f"{format_element(s)}: {w}" for s, w in zip(self.support, self.weights))
        return "{" + pairs + "}"


def builtin_distribution(name: str, params: dict | None = None,
                         domain: DomainId | None = None) -> EntryDistribution:
    """Named entry laws: bernoulli01, uniform-support, gaussian-basis, poly-powers."""
    params = dict(params or {})
    if name == "bernoulli01":
        q = _to_fraction(params.pop("q", Fraction(1, 2)))
        domain = domain or ZZ
        _reject_extra(name, params)
        if not 0 < q < 1:
            raise ParameterError("bernoulli01 needs 0 < q < 1")
        zero, one = _zero_one(domain)
        return EntryDistribution.of(domain, (zero, one), (1 - q, q))
    if name == "uniform-support":
        if domain is None:
            raise ParameterError("uniform-support needs a domain")
        support = params.pop("support", None)
        _reject_extra(name, params)
        if not support:
            raise ParameterError("uniform-support needs a support list")
        elems = [s if isinstance(s, Element) else parse_element(domain, s) for s in support]
        w = Fraction(1, len(elems))
        return EntryDistribution.of(domain, elems, (w,) * len(elems))
    if name == "gaussian-basis":
        ws = params.pop("weights", None) or (Fraction(1, 3),) * 3
        _reject_extra(name, params)
        if len(ws) != 3:
            raise ParameterError("gaussian-basis takes three weights for {0, 1, i}")
        return EntryDistribution.of(ZI, (gauss_elem(0, 0), gauss_elem(1, 0), gauss_elem(0, 1)), ws)
    if name == "poly-powers":
        p = params.pop("p", None)
        m = params.pop("m", None)
        ws = params.pop("weights", None)
        _reject_extra(name, params)
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (p, m)) or m < 0:
            raise ParameterError(f"poly-powers needs an integer prime p and an integer top "
                                 f"power m >= 0, not p={p!r}, m={m!r}")
        if m > _POLY_POWERS_M:  # refused before any power is built
            raise ParameterError(f"poly-powers top power m={m} is over its budget of {_POLY_POWERS_M}")
        support = [poly_elem(p, [0] * k + [1]) for k in range(m + 1)]
        if ws is None:
            ws = (Fraction(1, len(support)),) * len(support)
        return EntryDistribution.of(poly_domain(p), support, ws)
    raise ParameterError(f"unknown builtin distribution {name!r}")


def _reject_extra(name, params):
    if params:
        raise ParameterError(f"unexpected parameters for {name}: {sorted(params)}")


def _zero_one(domain: DomainId):
    if domain.kind == INTEGERS:
        return int_elem(0), int_elem(1)
    if domain.kind == GAUSSIAN:
        return gauss_elem(0, 0), gauss_elem(1, 0)
    return poly_elem(domain.char, []), poly_elem(domain.char, [1])


# ---------------------------------------------------------------------------
# balance auditing


@dataclass(frozen=True)
class IdealBalance:
    label: str
    p: int
    dim: int
    worst_hyperplane: str
    worst_mass: Fraction
    epsilon: Fraction


@dataclass(frozen=True)
class BalanceReport:
    modulus: str  # the product of the distinct rational primes (generators) audited
    entries: tuple  # IdealBalance, in the auditor's deterministic order

    @property
    def overall(self) -> Fraction:
        return min((e.epsilon for e in self.entries), default=Fraction(1))

    def is_balanced(self) -> bool:
        return all(e.epsilon > 0 for e in self.entries)

    def require_balanced(self) -> None:
        """Raise BalanceError naming the worst ideal and hyperplane unless balanced."""
        if not self.is_balanced():
            worst = min(self.entries, key=lambda e: e.epsilon)
            raise BalanceError(
                f"entry distribution is not balanced: epsilon = 0 at ideal {worst.label} "
                f"(worst affine hyperplane {worst.worst_hyperplane}); "
                "pass --no-strict-balance to run anyway")


# (hyperplane direction, support element) pairs one balance audit may score,
# summed over its ideals: a pair took 3.0-5.0 us on a 2-core Xeon (Python
# 3.11), so the slowest scan within the budget, one support element against
# the 999,984 directions of the inert Z[i] prime 999983, took 4.4 s
AUDIT_PAIRS = 1_000_000


def audit_pairs(directions: int, support: int) -> None:
    """Refuse with ConfigError an audit that would score more than AUDIT_PAIRS
    (direction, support element) pairs: the hyperplane directions of its
    ideals, (p^k - 1)/(p - 1) for an ideal of index p^k, each against every
    support element."""
    pairs = directions * support
    if pairs > AUDIT_PAIRS:
        raise ConfigError(f"the balance audit would scan {directions} hyperplane directions "
                          f"against {support} support elements, {pairs} pairs, over its "
                          f"budget of {AUDIT_PAIRS}")


def _hyperplane_directions(p: int, k: int):
    """Nonzero functionals on F_p^k up to scalar, first nonzero coefficient 1,
    in lexicographic order; none other is built."""
    for lead in range(k - 1, -1, -1):
        for tail in product(range(p), repeat=k - 1 - lead) if lead < k - 1 else [()]:
            yield (0,) * lead + (1,) + tail


def audit_ideals(dist: EntryDistribution, primes) -> list:
    """The ideals a balance audit of dist at primes scans, within AUDIT_PAIRS.
    Over F_p[x] they are the products of the nonempty sets of the r distinct
    generators g, whose (prod (1 + p^deg g) - 2^r)/(p - 1) directions are
    counted before any of the 2^r products is built."""
    support = len(dist.support)
    if dist.domain.kind == POLYNOMIALS:
        p, gens = dist.domain.char, {pr.generator.value for pr in primes}
        audit_pairs((math.prod(1 + p ** fp.degree(g) for g in gens) - 2 ** len(gens)) // (p - 1),
                    support)
    ideals = elementary_quotient_ideals(dist.domain, primes)
    audit_pairs(sum((i.p ** i.k - 1) // (i.p - 1) for i in ideals), support)
    return ideals


def balance_report(dist: EntryDistribution, domain: DomainId, primes) -> BalanceReport:
    """Audit the entry law against every ideal that
    :func:`elementary_quotient_ideals` lists for the primes.

    For each ideal I the auditor scans all affine hyperplanes of T/I, which
    suffices: every proper affine subspace lies inside one, so the maximal
    hyperplane mass equals the maximal proper-affine-subspace mass. An
    epsilon of zero is reported, not raised.
    """
    if dist.domain != domain:
        raise ParameterError("distribution and domain disagree")
    entries = []
    for ideal in audit_ideals(dist, primes):
        vectors = [residue_vector(s, ideal) for s in dist.support]
        worst_mass = Fraction(0)
        worst = ""
        for phi in _hyperplane_directions(ideal.p, ideal.k):
            masses = {}
            for vec, w in zip(vectors, dist.weights):
                c = sum(a * b for a, b in zip(phi, vec)) % ideal.p
                masses[c] = masses.get(c, Fraction(0)) + w
            for c, mass in sorted(masses.items()):
                if mass > worst_mass:
                    worst_mass = mass
                    worst = f"{phi}·v={c}"
        entries.append(IdealBalance(ideal.label, ideal.p, ideal.k, worst,
                                    worst_mass, 1 - worst_mass))
    if domain.kind == POLYNOMIALS:
        modulus = (1,)
        for g in {pr.generator.value for pr in primes}:
            modulus = fp.mul(modulus, g, domain.char)
        return BalanceReport(poly_pretty(modulus), tuple(entries))
    return BalanceReport(str(math.prod({pr.p for pr in primes})), tuple(entries))


# ---------------------------------------------------------------------------
# seeded sampling


# entries whose searchsorted costs about as much as comparing with one more
# cutoff (two numpy calls); measured crossover, recorded in BENCH_cold.json
_SEARCH_ENTRIES = 192


def _shape(n: int, u: int) -> tuple:
    if n < 1 or u < 0:
        raise ParameterError("need n >= 1 and u >= 0")
    return n, n + u


def sample_index_batch(dist: EntryDistribution, n: int, u: int, seed: int, first: int,
                       out: np.ndarray) -> None:
    """Support indices of trials first, first + 1, ... into the rows of
    ``out``, of shape ``(b, n, n + u)``, schedule-independent.

    The draws of trial t are the raw 64-bit outputs of a Philox stream keyed
    by (seed, t) with counter (0, n, u, 0), in row-major order, and each
    index counts the cutoffs at or below its draw. Philox is counter-based,
    so one generator whose key and counter are set per trial gives the
    stream of a new one (Salmon et al., "Parallel random numbers: as easy
    as 1, 2, 3", SC 2011). The generator lives for one call: threads that
    sample at once never share it. Draws are compared with each cutoff in
    turn while each cutoff past the first has _SEARCH_ENTRIES entries to
    itself, and searched (searchsorted) otherwise.
    """
    shape = _shape(n, u)
    cutoffs = dist.thresholds()
    if not len(cutoffs):  # one support element: no draw decides anything
        out[...] = 0
        return
    gen = np.random.Philox(key=np.array([seed & 0xFFFFFFFFFFFFFFFF, first], dtype=np.uint64),
                           counter=np.array([0, n, u, 0], dtype=np.uint64))
    state = gen.state  # as new: counter (0, n, u, 0), buffer empty (buffer_pos 4)
    key = state["state"]["key"]
    search = (len(cutoffs) - 1) * _SEARCH_ENTRIES > shape[0] * shape[1]
    for trial, dst in enumerate(out, first):
        key[1] = trial
        gen.state = state
        draws = gen.random_raw(shape[0] * shape[1]).reshape(shape)
        if search:
            dst[...] = np.searchsorted(cutoffs, draws, side="right")
            continue
        np.greater_equal(draws, cutoffs[0], out=dst, casting="unsafe")
        for cut in cutoffs[1:]:
            dst += draws >= cut


def sample_index_matrix(dist: EntryDistribution, n: int, u: int, seed: int,
                        trial: int = 0) -> np.ndarray:
    """Support indices for one trial matrix: :func:`sample_index_batch` of one."""
    out = np.empty((1, *_shape(n, u)), dtype=np.intp)
    sample_index_batch(dist, n, u, seed, trial, out)
    return out[0]


def sample_matrix(dist: EntryDistribution, n: int, u: int, seed: int, trial: int = 0):
    """One n x (n+u) grid of independent draws as domain Elements."""
    idx = sample_index_matrix(dist, n, u, seed, trial)
    return [[dist.support[j] for j in row] for row in idx.tolist()]
