"""Exact combinatorics of finite modules over the supported domains.

A finite module is described by a ``ModuleType``: a map from prime ideals to
partitions of uniformizer exponents. Partitions are plain weakly decreasing
tuples of positive integers; the empty tuple is the trivial module.

Every closed-form count here (automorphisms, homomorphisms, surjections) is
validated against :func:`brute_force_count`, which enumerates generator
images directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from . import _fppoly as fp
from .domains import PrimeIdealDesc
from .errors import OracleBudgetError, ParameterError, RingMismatchError

ORACLE_BUDGET = 10 ** 7


def check_partition(parts) -> tuple:
    parts = tuple(int(x) for x in parts)
    if any(x < 1 for x in parts):
        raise ParameterError(f"partition parts must be positive: {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ParameterError(f"partition must be weakly decreasing: {parts}")
    return parts


def _prime_sort_key(prime: PrimeIdealDesc):
    return (prime.p, prime.f, prime.e, prime.descriptor)


@dataclass(frozen=True)
class ModuleType:
    """Finite module as an association prime ideal -> exponent partition."""

    components: tuple  # ((PrimeIdealDesc, partition), ...) canonically sorted

    @staticmethod
    def of(assoc) -> "ModuleType":
        items = list(assoc.items()) if isinstance(assoc, dict) else list(assoc)
        comps = []
        seen = set()
        for prime, parts in items:
            parts = check_partition(parts)
            if prime in seen:
                raise ParameterError(f"duplicate prime {prime} in module type")
            seen.add(prime)
            if parts:
                comps.append((prime, parts))
        comps.sort(key=lambda it: _prime_sort_key(it[0]))
        return ModuleType(tuple(comps))

    @staticmethod
    def trivial() -> "ModuleType":
        return ModuleType(())

    def partition_for(self, prime: PrimeIdealDesc) -> tuple:
        for pr, parts in self.components:
            if pr == prime:
                return parts
        return ()

    def primes(self) -> tuple:
        return tuple(pr for pr, _ in self.components)

    def __str__(self):
        if not self.components:
            return "∅"
        return "|".join(f"{pr.descriptor}:({','.join(map(str, parts))})"
                        for pr, parts in self.components)

    def __repr__(self):
        return f"ModuleType({self})"


def parse_type_string(text: str, primes) -> ModuleType:
    """Inverse of str(ModuleType) against a known prime list."""
    text = text.strip()
    if text in ("∅", ""):
        return ModuleType.trivial()
    by_desc = {pr.descriptor: pr for pr in primes}
    assoc = []
    for chunk in text.split("|"):
        desc, _, parts_s = chunk.rpartition(":")
        if desc not in by_desc:
            raise ParameterError(f"unknown prime descriptor {desc!r} in {text!r}")
        parts_s = parts_s.strip()
        if not (parts_s.startswith("(") and parts_s.endswith(")")):
            raise ParameterError(f"bad partition syntax in {text!r}")
        inner = parts_s[1:-1].strip()
        parts = tuple(int(x) for x in inner.split(",")) if inner else ()
        assoc.append((by_desc[desc], parts))
    return ModuleType.of(assoc)


def module_size(N: ModuleType) -> int:
    size = 1
    for prime, parts in N.components:
        size *= prime.q ** sum(parts)
    return size


def count_aut_local(lam, q: int) -> int:
    """Order of the automorphism group of the module with local type lam.

    Hillar-Rhea product formula with the residue size q in place of the
    prime; the brute-force oracle pins it down exactly.
    """
    lam = check_partition(lam)
    if q < 2:
        raise ParameterError("residue size must be at least 2")
    if not lam:
        return 1
    e = sorted(lam)  # weakly increasing exponents e_1 <= ... <= e_n
    n = len(e)
    d = [max(l for l in range(n) if e[l] == e[k]) + 1 for k in range(n)]
    c = [min(l for l in range(n) if e[l] == e[k]) + 1 for k in range(n)]
    out = 1
    for k in range(n):
        out *= q ** d[k] - q ** k
    for j in range(n):
        out *= (q ** e[j]) ** (n - d[j])
    for i in range(n):
        out *= (q ** (e[i] - 1)) ** (n - c[i] + 1)
    return out


def count_hom_local(lam, mu, q: int) -> int:
    lam, mu = check_partition(lam), check_partition(mu)
    return q ** sum(min(a, b) for a in lam for b in mu)


def count_sur_local(lam, mu, q: int) -> int:
    """Surjections from local type lam onto local type mu.

    Nakayama reduction: a map is onto iff its reduction to the top quotient
    space F_q^m is onto, so Moebius inversion over the subspace lattice of
    F_q^m applies, with mu(V, top) = (-1)^(m-d) q^C(m-d,2). Maps into the
    preimage submodule N_V are counted through annihilator sizes:
    #Hom(R/pi^a, N_V) = q^(sum_j min(a, mu_j - 1)) * q^dim(V n W_a), where
    W_a is the span of the coordinates with mu_j <= a. Subspaces enter only
    through (dim V, dims of the chain intersections), and those are pinned
    by the reduced-echelon pivot set, so the sum runs over pivot sets.
    """
    lam, mu = check_partition(lam), check_partition(mu)
    m = len(mu)
    if m == 0:
        return 1
    base = [sum(min(li, mj - 1) for mj in mu) for li in lam]
    # W_a occupies positions >= t[a] when coordinates follow mu decreasing
    t = {li: sum(1 for mj in mu if mj > li) for li in set(lam)}
    total = 0
    for mask in range(1 << m):
        pivots = [s for s in range(m) if mask >> s & 1]
        dim = len(pivots)
        free = sum((m - s - 1) - (dim - idx - 1) for idx, s in enumerate(pivots))
        codim = m - dim
        term = (-1) ** codim * q ** (codim * (codim - 1) // 2 + free)
        for i, li in enumerate(lam):
            before = sum(1 for s in pivots if s < t[li])
            term *= q ** (base[i] + dim - before)
        total += term
    return total


def _split_by_prime(A: ModuleType, B: ModuleType):
    primes = sorted(set(A.primes()) | set(B.primes()), key=_prime_sort_key)
    return [(A.partition_for(pr), B.partition_for(pr), pr.q) for pr in primes]


def count_aut(N: ModuleType) -> int:
    out = 1
    for prime, parts in N.components:
        out *= count_aut_local(parts, prime.q)
    return out


def count_hom(A: ModuleType, B: ModuleType) -> int:
    out = 1
    for lam, mu, q in _split_by_prime(A, B):
        out *= count_hom_local(lam, mu, q)
    return out


def count_sur(A: ModuleType, B: ModuleType) -> int:
    out = 1
    for lam, mu, q in _split_by_prime(A, B):
        out *= count_sur_local(lam, mu, q)
    return out


# ---------------------------------------------------------------------------
# brute-force oracle


@lru_cache(maxsize=None)
def _field_tables(q: int):
    """(add, mul) tables for F_q, elements encoded 0..q-1 base p."""
    divisors = fp.prime_divisors(q)
    if len(divisors) != 1:
        raise ParameterError(f"{q} is not a prime power")
    p = divisors[0]
    deg = 1
    while p ** deg < q:
        deg += 1
    polys = [_decode(v, p, deg) for v in range(q)]
    g = fp.smallest_irreducible(p, deg) if deg > 1 else None
    add = [[_encode(fp.add(a, b, p), p) for b in polys] for a in polys]
    if deg == 1:
        mul = [[(a[0] if a else 0) * (b[0] if b else 0) % p for b in polys] for a in polys]
    else:
        mul = [[_encode(fp.mod(fp.mul(a, b, p), g, p), p) for b in polys] for a in polys]
    return add, mul


def _decode(v, p, deg):
    cs = []
    for _ in range(deg):
        cs.append(v % p)
        v //= p
    return fp.normalize(cs, p)


def _encode(poly, p):
    v = 0
    for c in reversed(poly):
        v = v * p + c
    return v


class _SpanTracker:
    """Incremental echelon basis over F_q for vectors of fixed length."""

    def __init__(self, q, m):
        self.add, self.mul = _field_tables(q)
        self.q = q
        self.m = m
        self.neg = [next(b for b in range(q) if self.add[a][b] == 0) for a in range(q)]
        self.inv = [0] + [next(b for b in range(1, q) if self.mul[a][b] == 1)
                          for a in range(1, q)]

    def reduce(self, vec, rows):
        vec = list(vec)
        for pivot, row in rows:
            c = vec[pivot]
            if c:
                for j in range(pivot, self.m):
                    vec[j] = self.add[vec[j]][self.neg[self.mul[c][row[j]]]]
        return vec

    def try_extend(self, vec, rows):
        """Return rows extended by vec, or None if vec is already in the span."""
        red = self.reduce(vec, rows)
        pivot = next((j for j, c in enumerate(red) if c), None)
        if pivot is None:
            return None
        cinv = self.inv[red[pivot]]
        norm = tuple(self.mul[cinv][c] for c in red)
        return rows + ((pivot, norm),)


def brute_force_count(lam, mu, q: int, mode: str, budget: int = ORACLE_BUDGET) -> int:
    """Count maps between local types by enumerating generator images.

    A map from sum R/pi^(lam_i) is a choice, per generator, of an element of
    N annihilated by pi^(lam_i); it is surjective exactly when the residues
    of the images span N/piN (Nakayama), and bijective iff surjective since
    the modules are finite and equal-sized. Enumeration is literal, so this
    is slow and budgeted: it exists to validate the closed forms.
    """
    lam, mu = check_partition(lam), check_partition(mu)
    if mode not in ("hom", "sur", "aut"):
        raise ParameterError(f"unknown oracle mode {mode!r}")
    if mode == "aut" and lam != mu:
        raise ParameterError("aut mode needs equal source and target types")
    m = len(mu)
    level_sizes = [q ** sum(min(li, mj) for mj in mu) for li in lam]
    candidates = 1
    for s in level_sizes:
        candidates *= s
    if candidates > budget:
        raise OracleBudgetError(
            f"{candidates} candidate maps exceed the oracle budget {budget}")
    if mode == "hom":
        # every image tuple is a valid homomorphism; count the materialized lists
        count = 1
        for per_coord in _annihilator_options(lam, mu, q):
            for opts in per_coord:
                count *= len(opts)
        return count
    if m == 0:
        return 1  # one (zero) map onto the trivial module, always surjective
    tracker = _SpanTracker(q, m)
    levels = list(_annihilator_options(lam, mu, q))
    suffix = [1] * (len(levels) + 1)
    for i in range(len(levels) - 1, -1, -1):
        suffix[i] = suffix[i + 1] * level_sizes[i]

    @lru_cache(maxsize=None)  # the count below a level depends only on the span so far
    def rec(idx, rows):
        if len(rows) == m:
            # span already full: every completion stays surjective
            return suffix[idx]
        if idx == len(levels):
            return 0
        total = 0
        for red in product(*levels[idx]):
            ext = tracker.try_extend(red, rows)
            total += rec(idx + 1, ext if ext is not None else rows)
        return total

    return rec(0, ())


def _annihilator_options(lam, mu, q):
    """Per generator: per coordinate, the residue of each element of the
    annihilator N[pi^lam_i], with multiplicity (literal enumeration)."""
    for li in lam:
        coords = []
        for mj in mu:
            free = min(li, mj)
            if mj <= li:
                # residue digit free: each residue occurs q^(free-1) times
                opts = [v for v in range(q) for _ in range(q ** (free - 1))]
            else:
                opts = [0] * (q ** free)
            coords.append(opts)
        yield coords


# ---------------------------------------------------------------------------
# type enumeration


@lru_cache(maxsize=None)
def partitions_in_box(cap_exponent: int, cap_parts: int) -> tuple:
    """All partitions with parts <= cap_exponent and length <= cap_parts,
    ordered by (size, parts tuple)."""
    if cap_exponent < 0 or cap_parts < 0:
        raise ParameterError("caps must be nonnegative")
    out = [()]

    def extend(prefix, largest):
        for part in range(1, largest + 1):
            cand = prefix + (part,)
            if len(cand) <= cap_parts:
                out.append(cand)
                extend(cand, part)

    if cap_parts > 0:
        extend((), cap_exponent)
    return tuple(sorted(set(out), key=lambda t: (sum(t), t)))


def enumerate_types(primes, cap_exponent: int, cap_parts: int) -> list[ModuleType]:
    """All module types within the exponent/parts box, deterministic order."""
    primes = list(primes)
    if len(set(primes)) != len(primes):
        raise RingMismatchError("primes must be distinct")
    box = partitions_in_box(cap_exponent, cap_parts)
    out = []
    for combo in product(box, repeat=len(primes)):
        out.append(ModuleType.of(list(zip(primes, combo))))
    return out
