"""Smith normal form over truncated local rings and cokernel type extraction.

Three layers:

* :func:`local_snf` works on explicit ``LocalElement`` grids in any ring,
  following the documented pivot rule (minimal valuation, lowest row then
  column). It is the reference implementation and the generic path.
* :func:`snf_valuations_array` covers the hot representations, Z/p^K
  entries in machine words and bit-packed F_2[[t]]/t^K entries, with one
  stratified elimination loop (unit pivots, then divide the block by the
  uniformizer and go one level deeper) over three small eliminate steps.
  It is tested to agree with the reference everywhere.
* :func:`partition_at_prime` runs every cokernel computation. It takes a
  matrix as positions into an entry support, picks the kernel for each
  ring through :func:`reduction_table`, and escalates K geometrically
  while results saturate, up to the policy cap; then it raises
  ``IndeterminateCokernelError`` so callers can report the trial in an
  explicit bucket. :func:`cokernel_local_type` feeds it element grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .domains import PrimeIdealDesc, local_ring_for, reduce_mod_prime_power
from .errors import IndeterminateCokernelError, ParameterError, RingMismatchError
from .local_ring import (
    EQUAL_CHAR,
    UNRAMIFIED,
    LocalElement,
    LocalRingSpec,
    lr_mul,
    lr_sub,
    max_precision,
    shift_down,
    unit_inverse,
    valuation,
)

# largest odd-characteristic modulus whose products stay inside int64
_ODD_FAST_LIMIT = 3_037_000_499


@dataclass(frozen=True)
class PrecisionPolicy:
    """Adaptive truncation: start at k_init, multiply by growth up to k_max."""

    k_init: int = 8
    k_max: int = 64
    growth: int = 2

    def __post_init__(self):
        if self.k_init < 1 or self.k_max < self.k_init or self.growth < 2:
            raise ParameterError(f"bad precision policy {self}")


DEFAULT_POLICY = PrecisionPolicy()


@dataclass(frozen=True)
class SnfResult:
    valuations: tuple  # weakly increasing, length = rows, entries in [0, K]
    saturated: bool


@dataclass(frozen=True)
class LocalMatrix:
    ring: LocalRingSpec
    entries: tuple  # tuple of row tuples of LocalElement

    @staticmethod
    def of(ring: LocalRingSpec, rows) -> "LocalMatrix":
        entries = tuple(tuple(row) for row in rows)
        if not entries or not entries[0]:
            raise ParameterError("matrix needs at least one row and column")
        m = len(entries[0])
        if any(len(r) != m for r in entries):
            raise ParameterError("ragged matrix")
        if len(entries) > m:
            raise ParameterError("expected rows <= columns (n x (n+u) shape)")
        for row in entries:
            for x in row:
                if x.ring != ring:
                    raise RingMismatchError("matrix entry from a different ring")
        return LocalMatrix(ring, entries)

    @property
    def shape(self):
        return len(self.entries), len(self.entries[0])


def local_snf(M: LocalMatrix) -> SnfResult:
    """Diagonal valuations of a Smith normal form of M.

    Pivot rule: smallest valuation, ties broken by lowest row then lowest
    column. The pivot row is scaled by the inverse of the pivot's unit part,
    other rows are cleared by exact-division factors, and the pivot row and
    column drop out (a Schur complement step). Output is sorted ascending;
    the result does not depend on the tie-breaking, which is asserted by a
    property test rather than by construction.
    """
    ring = M.ring
    K = ring.K
    work = [list(row) for row in M.entries]
    vals = []
    while work and work[0]:
        best = None
        for i, row in enumerate(work):
            for j, x in enumerate(row):
                v = valuation(x)
                if best is None or v < best[0]:
                    best = (v, i, j)
            if best and best[0] == 0:
                break  # cannot improve on a unit
        v, bi, bj = best
        if v >= K:
            vals.extend([K] * len(work))
            break
        if bi:
            work[0], work[bi] = work[bi], work[0]
        if bj:
            for row in work:
                row[0], row[bj] = row[bj], row[0]
        unit = shift_down(work[0][0], v)
        inv = unit_inverse(unit)
        work[0] = [lr_mul(inv, x) for x in work[0]]
        pivot_row = work[0]
        for row in work[1:]:
            factor = shift_down(row[0], v)
            for j in range(len(row)):
                row[j] = lr_sub(row[j], lr_mul(factor, pivot_row[j]))
        vals.append(v)
        work = [row[1:] for row in work[1:]]
    vals = sorted(vals)
    return SnfResult(tuple(vals), any(v >= K for v in vals))


# ---------------------------------------------------------------------------
# vectorized fast paths

MODE_MOD2K = "mod2k"      # Z/2^K in uint64 (wraparound-exact)
MODE_MODPK = "modpk"      # Z/p^K, odd p, products inside int64
MODE_F2T = "f2t"          # F_2[t]/t^K, bit-packed, carryless
MODE_GENERIC = "generic"


def matrix_mode(ring: LocalRingSpec) -> str:
    if ring.style == UNRAMIFIED and ring.f == 1:
        if ring.p == 2:
            return MODE_MOD2K
        if ring.pK <= _ODD_FAST_LIMIT:
            return MODE_MODPK
    if ring.style == EQUAL_CHAR and ring.f == 1 and ring.p == 2:
        return MODE_F2T
    return MODE_GENERIC


def element_to_scalar(mode: str, x: LocalElement) -> int:
    if mode in (MODE_MOD2K, MODE_MODPK):
        return x.coeffs[0]
    if mode == MODE_F2T:
        packed = 0
        for j, bit in enumerate(x.coeffs):
            packed |= bit << j
        return packed
    raise ParameterError("generic mode has no scalar packing")


def _clmul(a: int, b: int) -> int:
    r = 0
    while b:
        lsb = b & -b
        r ^= a << (lsb.bit_length() - 1)
        b ^= lsb
    return r


def _clmul_inv(a: int, prec: int) -> int:
    """Inverse of a unit (bit 0 set) in F_2[t]/t^prec: char-2 Newton y <- a y^2."""
    mask = (1 << prec) - 1
    y = 1
    for _ in range(max(1, (prec - 1).bit_length()) + 1):
        y = _clmul(a, _clmul(y, y)) & mask
    assert _clmul(a, y) & mask == 1
    return y


def _bit_positions(x: int):
    return [s for s in range(x.bit_length()) if x >> s & 1]


_ONE = np.uint64(1)

# Eliminate steps: B[0, 0] is a unit of the ring at precision prec; clear
# column 0 below it with row operations, leaving B[1:, 1:] reduced.


def _eliminate_mod2k(B, p: int, prec: int):
    """Z/2^prec in uint64: wraparound products are exact, a mask reduces."""
    factors = B[1:, 0:1] * np.uint64(pow(int(B[0, 0]), -1, 1 << prec))
    B1 = B[1:]
    B1 -= factors * B[0:1]
    B1 &= np.uint64((1 << prec) - 1)


def _eliminate_modpk(B, p: int, prec: int):
    """Z/p^prec in int64 with %: entries stay below p^prec, products below 2^63."""
    m = p ** prec
    factors = B[1:, 0:1] * pow(int(B[0, 0]), -1, m) % m
    B1 = B[1:]
    B1 -= factors * B[0:1]
    B1 %= m


def _eliminate_f2t(B, p: int, prec: int):
    """F_2[t]/t^prec bit-packed in uint64: carryless products by shift and XOR."""
    mask = np.uint64((1 << prec) - 1)
    row = np.zeros_like(B[0])
    for s in _bit_positions(_clmul_inv(int(B[0, 0]), prec)):
        row ^= B[0] << np.uint64(s)
    row &= mask
    factors = B[1:, 0].copy()
    B1 = B[1:]
    for s in _bit_positions(int(np.bitwise_or.reduce(factors))):
        B1 ^= ((factors >> np.uint64(s)) & _ONE)[:, None] * ((row << np.uint64(s)) & mask)


def _units_2(B, p):
    return (B & _ONE).astype(bool)


def _units_p(B, p):
    return B % p != 0


def _shift_2(B, p):
    return B >> _ONE


def _shift_p(B, p):
    return B // p


# mode -> (unit test, division by the uniformizer, eliminate step)
_KERNELS = {
    MODE_MOD2K: (_units_2, _shift_2, _eliminate_mod2k),
    MODE_MODPK: (_units_p, _shift_p, _eliminate_modpk),
    MODE_F2T: (_units_2, _shift_2, _eliminate_f2t),
}


def snf_valuations_array(mode: str, B, p: int, K: int) -> SnfResult:
    """Stratified elimination of a packed scalar matrix (B is consumed).

    At level ``level < K`` the block holds entries modulo p^(K - level).
    Pivot on the first unit and clear its row and column; with no unit left,
    divide the block by the uniformizer and go one level deeper; stop once
    the block is zero. Rows still left get valuation K (saturated).
    """
    if mode not in _KERNELS:
        raise ParameterError(f"no array path for mode {mode!r}")
    units, shift, eliminate = _KERNELS[mode]
    vals = []
    level = 0
    while B.shape[0] and level < K:
        found = units(B, p)
        first = int(np.argmax(found))  # first unit in row-major order
        if found.flat[first]:
            i, j = divmod(first, B.shape[1])
            if i:
                B[[0, i]] = B[[i, 0]]
            if j:
                B[:, [0, j]] = B[:, [j, 0]]
            eliminate(B, p, K - level)
            vals.append(level)
            B = B[1:, 1:]
        elif B.any():
            B = shift(B, p)
            level += 1
        else:
            break
    vals.extend([K] * B.shape[0])
    return SnfResult(tuple(vals), bool(B.shape[0]))


def make_scalar_matrix(mode: str, rows) -> np.ndarray:
    dtype = np.int64 if mode == MODE_MODPK else np.uint64
    return np.array(rows, dtype=dtype)


# ---------------------------------------------------------------------------
# cokernels: precision escalation over per-support reduction tables

# distinct (support, prime, K) tables kept; a run needs one per ladder rung
_TABLE_CACHE_SIZE = 256


def feasible_k_max(prime: PrimeIdealDesc, policy: PrecisionPolicy) -> int:
    """Word-size cap on precision for this prime's completion."""
    return min(policy.k_max, max_precision(prime.p, prime.f))


def escalation_ladder(prime: PrimeIdealDesc, policy: PrecisionPolicy):
    """The K values the adaptive loop will try, in order."""
    cap = feasible_k_max(prime, policy)
    K = min(policy.k_init, cap)
    ladder = [K]
    while K < cap:
        K = min(K * policy.growth, cap)
        ladder.append(K)
    return ladder


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def reduction_table(support: tuple, prime: PrimeIdealDesc, K: int):
    """The support reduced into the local ring at precision K.

    Returns ``(mode, ring, table)``: the kernel the ring lowers onto, the
    ring, and a table indexed by support position. The table is a read-only
    packed scalar array for the array kernels and a tuple of
    ``LocalElement`` for the generic path.
    """
    ring = local_ring_for(prime, K)
    mode = matrix_mode(ring)
    reduced = tuple(reduce_mod_prime_power(s, prime, K) for s in support)
    if mode == MODE_GENERIC:
        return mode, ring, reduced
    table = make_scalar_matrix(mode, [element_to_scalar(mode, x) for x in reduced]).ravel()
    table.flags.writeable = False  # shared between calls; indexing copies
    return mode, ring, table


def partition_at_prime(idx, support: tuple, prime: PrimeIdealDesc,
                       policy: PrecisionPolicy) -> tuple:
    """Partition of uniformizer exponents of cok(M) tensored up at one prime.

    M is given by support positions: ``M[i][j] = support[idx[i, j]]``, with
    rows <= columns. Each rung of the escalation ladder runs M through the
    kernel its ring lowers onto; a saturated result climbs to the next K
    (for any u), and saturation at the last feasible K raises
    ``IndeterminateCokernelError``.
    """
    last = None
    for K in escalation_ladder(prime, policy):
        mode, ring, table = reduction_table(support, prime, K)
        if mode == MODE_GENERIC:
            last = local_snf(LocalMatrix.of(ring, [[table[j] for j in row]
                                                  for row in idx.tolist()]))
        else:
            last = snf_valuations_array(mode, table[idx], prime.p, K)
        if not last.saturated:
            return tuple(sorted((v for v in last.valuations if v), reverse=True))
    raise IndeterminateCokernelError(f"cokernel type at {prime} undetermined at K={K}", last)


def cokernel_local_type(M, prime: PrimeIdealDesc, policy: PrecisionPolicy = DEFAULT_POLICY) -> tuple:
    """:func:`partition_at_prime` for a grid M of domain Elements."""
    support = tuple(dict.fromkeys(x for row in M for x in row))
    position = {x: i for i, x in enumerate(support)}
    idx = np.array([[position[x] for x in row] for row in M])
    return partition_at_prime(idx, support, prime, policy)


def cokernel_type(M, primes, policy: PrecisionPolicy = DEFAULT_POLICY):
    """ModuleType of cok(M) tensored at a finite set of distinct primes."""
    from .modules import ModuleType
    primes = list(primes)
    if len(set(primes)) != len(primes):
        raise ParameterError("primes must be distinct")
    assoc = []
    for prime in primes:
        parts = cokernel_local_type(M, prime, policy)
        if parts:
            assoc.append((prime, parts))
    return ModuleType.of(assoc)


# ---------------------------------------------------------------------------
# integer SNF oracle (tests only)


def integer_snf_oracle(M) -> tuple:
    """Classical Smith normal form over Z by exact integer elimination.

    Returns the nonnegative diagonal divisors (each dividing the next,
    zeros last). Small matrices only; used to validate the local paths.
    """
    A = [[int(x) for x in row] for row in M]
    n, m = len(A), len(A[0])
    if n > 8 or m > 8:
        raise ParameterError("oracle accepts dimensions at most 8")
    if any(abs(x) > 10 ** 6 for row in A for x in row):
        raise ParameterError("oracle accepts entries up to 10^6")
    diag = []
    t = 0
    while t < min(n, m):
        sub = [(abs(A[i][j]), i, j) for i in range(t, n) for j in range(t, m) if A[i][j]]
        if not sub:
            break
        _, pi, pj = min(sub)
        A[t], A[pi] = A[pi], A[t]
        for row in A:
            row[t], row[pj] = row[pj], row[t]
        while True:
            # clear column t with floor-division steps
            for i in range(t + 1, n):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    for j in range(t, m):
                        A[i][j] -= q * A[t][j]
            # move a smaller remainder into the pivot if one appeared
            col_nonzero = [(abs(A[i][t]), i) for i in range(t + 1, n) if A[i][t]]
            if col_nonzero:
                _, i = min(col_nonzero)
                A[t], A[i] = A[i], A[t]
                continue
            for j in range(t + 1, m):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    for i in range(t, n):
                        A[i][j] -= q * A[i][t]
            row_nonzero = [(abs(A[t][j]), j) for j in range(t + 1, m) if A[t][j]]
            if row_nonzero:
                _, j = min(row_nonzero)
                for row in A:
                    row[t], row[j] = row[j], row[t]
                continue
            # pivot must divide the rest of the block for a clean recursion
            bad = next(((i, j) for i in range(t + 1, n) for j in range(t + 1, m)
                        if A[i][j] % A[t][t]), None)
            if bad is None:
                break
            bi = bad[0]
            for j in range(t, m):
                A[t][j] += A[bi][j]
        diag.append(abs(A[t][t]))
        t += 1
    diag.extend([0] * (min(n, m) - len(diag)))
    # enforce the divisibility chain
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            g = gcd(a, b)
            l = a * b // g if g else 0
            diag[i], diag[j] = g, l
    return tuple(diag)


def p_part_of_divisors(divisors, p: int) -> tuple:
    """Partition of p-adic valuations of nonzero divisors (decreasing).

    A zero divisor means the p-part is infinite; this returns None then.
    """
    if any(d == 0 for d in divisors):
        return None
    vals = []
    for d in divisors:
        v = 0
        while d % p == 0:
            d //= p
            v += 1
        if v:
            vals.append(v)
    return tuple(sorted(vals, reverse=True))
