"""Smith normal form over truncated local rings and cokernel type extraction.

Three layers:

* :func:`local_snf` works on explicit ``LocalElement`` grids in any ring,
  following the documented pivot rule (minimal valuation, lowest row then
  column). It is the reference implementation, and the generic path for
  the two rings no kernel covers: the ramified (1+i) completion of Z[i] and
  odd-characteristic F_p[[t]].
* :func:`snf_valuations_array` covers the hot representations, Z/p^K
  entries and bit-packed F_2[[t]]/t^K entries in machine words, for a whole
  batch of matrices at once. Galois rings and F_2[x]/(g^K) of residue
  degree f > 1 lower onto these base rings by restriction of scalars: such
  a ring is free of rank f over its base ring, so each entry becomes the
  f x f block of multiplication by it (:func:`element_block`) and each
  part of the cokernel appears f times. Each step of its stratified loop pivots every
  matrix on its first unit with a rank-1 update (no swaps); once no matrix
  has a unit, the batch is divided by the uniformizer and goes one level
  deeper. The 2-power kernels use the narrowest unsigned word of K bits,
  modpk int64 while products fit and exact Python ints (object) past that.
  It is tested to agree with the reference everywhere.
* :func:`partition_at_prime` runs every cokernel computation. It takes a
  batch of matrices as positions into an entry support, picks the kernel
  for each ring through :func:`reduction_table`, gathers the scalars or
  blocks through :func:`gather`, and escalates K
  geometrically for the saturated matrices only, up to the policy cap;
  a matrix still saturated there gets an ``IndeterminateCokernelError`` so
  callers can report the trial in an explicit bucket.
  :func:`cokernel_local_type` feeds it one element grid and raises that
  error.
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

# largest p^K whose products fit int64: modpk's word switches to object above it
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

MODE_MOD2K = "mod2k"      # Z/2^K in the narrowest unsigned word of K bits (wraparound-exact)
MODE_MODPK = "modpk"      # Z/p^K, odd p, in int64 up to _ODD_FAST_LIMIT, exact object ints above
MODE_F2T = "f2t"          # F_2[t]/t^K, bit-packed in the narrowest word of K bits, carryless
MODE_GENERIC = "generic"


def matrix_mode(ring: LocalRingSpec) -> str:
    """The array kernel a ring lowers onto, over its base ring Z/p^K or
    F_2[[t]]/t^K; generic for the ramified (1+i) ring and odd-characteristic
    F_p[[t]]."""
    if ring.style == UNRAMIFIED:
        return MODE_MOD2K if ring.p == 2 else MODE_MODPK
    if ring.style == EQUAL_CHAR and ring.p == 2:
        return MODE_F2T
    return MODE_GENERIC


def element_block(mode: str, x: LocalElement) -> list:
    """The f x f matrix of multiplication by x over the base ring in the basis
    1, x, ..., x^(f-1): entry (k, l) is coordinate k of x * x^l, a residue
    mod p^K, or for f2t coefficient k of every base-g digit packed into the
    bits of one word."""
    r = x.ring
    columns = [x] + [lr_mul(x, LocalElement(r, tuple(int(i == l) for i in range(len(x.coeffs)))))
                     for l in range(1, r.f)]
    if mode == MODE_F2T:
        return [[sum(bit << s for s, bit in enumerate(c.coeffs[k::r.f])) for c in columns]
                for k in range(r.f)]
    return [[c.coeffs[k] for c in columns] for k in range(r.f)]


def element_to_scalar(mode: str, x: LocalElement) -> int:
    """The packed word of x in a ring of residue degree 1."""
    if mode == MODE_GENERIC:
        raise ParameterError("generic mode has no scalar packing")
    if x.ring.f > 1:
        raise ParameterError(f"{x.ring} has residue degree {x.ring.f}: its elements lower "
                             "to f x f blocks (element_block), not to scalars")
    return element_block(mode, x)[0][0]


def _word_dtype(mode: str, K: int, p: int) -> np.dtype:
    """The array kernel's word at precision K: for modpk int64 up to _ODD_FAST_LIMIT and
    exact Python ints (object) past it, else the narrowest unsigned word of K bits."""
    if mode == MODE_MODPK:
        return np.dtype(np.int64 if p ** K <= _ODD_FAST_LIMIT else object)
    return np.dtype(f"uint{max(8, 1 << (K - 1).bit_length())}")


# Kernel steps on a batch of shape (b, n, m) at precision prec = K - level.
# Entries of the 2-power words are exact in their low prec bits; the bits
# above are cleared only when the batch is divided by the uniformizer.


def _units_2(x, p):
    return x & 1


def _units_p(x, p):
    return x % p != 0


def _scale_2k(row, a, p, prec):
    """Rows times the inverses of the odd pivots a: Newton y <- y(2 - ay) from
    y = a, which is exact mod 8 and doubles its bits each round."""
    y = a.copy()
    bits = 3
    while bits < prec:
        y *= 2 - a * y
        bits *= 2
    return row * y[:, None]


def _pow_mod(a, e: int, m: int):
    r = np.ones_like(a)
    while e:
        if e & 1:
            r = r * a % m
        a = a * a % m
        e >>= 1
    return r


def _scale_pk(row, a, p, prec):
    """Rows times the pivot inverses mod p^prec: Fermat mod p, then Newton
    lifting y <- y(2 - ay), doubling the p-adic digits each round. Non-units
    get inverse 0."""
    m = p ** prec
    y = _pow_mod(a % p, p - 2, p)
    digits = 1
    while digits < prec:
        y = y * (2 - a * y % m) % m
        digits *= 2
    return row * y[:, None] % m


def _clmul(x, y, prec):
    """Carryless products x*y in F_2[t]/t^prec of small broadcastable arrays,
    one shifted copy of x per bit of y below prec along an extra last axis."""
    s = np.arange(prec, dtype=x.dtype)
    return np.bitwise_xor.reduce((y[..., None] >> s & 1) * (x[..., None] << s), axis=-1)


def _scale_f2t(row, a, p, prec):
    """Rows times the pivot inverses in F_2[t]/t^prec: carryless Newton
    y <- a y^2 from y = 1, doubling the t-adic digits each round."""
    a = a | 1  # rows without a pivot get factor 0 later; keep their Newton defined
    y = np.ones_like(a)
    for _ in range((prec - 1).bit_length()):
        y = _clmul(a, _clmul(y, y, prec), prec)
    mask = (1 << prec) - 1
    assert np.all(_clmul(a, y, prec) & mask == 1), "carryless Newton inverse failed"
    return _clmul(row, y[:, None], prec)


def _update_2k(B, col, row, p, prec):
    B -= col[:, :, None] * row[:, None, :]


def _update_pk(B, col, row, p, prec):
    B -= col[:, :, None] * row[:, None, :]
    B %= p ** prec


def _update_f2t(B, col, row, p, prec):
    """Carryless rank-1 update, one pass over B per bit present in col."""
    present = int(np.bitwise_or.reduce(col, axis=None))
    for s in range(prec):
        if present >> s & 1:
            B ^= (col[:, :, None] >> s & 1) * (row[:, None, :] << s)


def _shift_2(B, p, prec):
    B >>= 1
    B &= (1 << prec) - 1
    return B


def _shift_p(B, p, prec):
    B //= p
    return B


# mode -> (unit test, pivot-row scaling by the pivot's inverse, rank-1 update,
# division by the uniformizer down to precision prec)
_KERNELS = {
    MODE_MOD2K: (_units_2, _scale_2k, _update_2k, _shift_2),
    MODE_MODPK: (_units_p, _scale_pk, _update_pk, _shift_p),
    MODE_F2T: (_units_2, _scale_f2t, _update_f2t, _shift_2),
}


def snf_valuations_array(mode: str, B, p: int, K: int):
    """Stratified elimination of a batch of packed scalar matrices.

    ``B`` has shape ``(b, n, m)``, or ``(n, m)`` for a single matrix; it is
    consumed when it already has the mode's word dtype. At level
    ``level < K`` entries are taken modulo p^(K - level). Each step pivots
    every matrix on its first unit in row-major order and subtracts the
    rank-1 product of the pivot column and the pivot row scaled by the
    pivot's inverse, which zeroes both; a matrix with no unit gets factor 0.
    Once no matrix has a unit, the batch is divided by the uniformizer and
    goes one level deeper, and all-zero matrices leave it. Rows without a
    pivot get valuation K (saturated). Returns one :class:`SnfResult` per
    matrix, or a single one for a 2-D ``B``.
    """
    if mode not in _KERNELS:
        raise ParameterError(f"no array path for mode {mode!r}")
    units, scale, update, shift = _KERNELS[mode]
    single = B.ndim == 2
    B = np.ascontiguousarray(B[None] if single else B, dtype=_word_dtype(mode, K, p))
    b, n, m = B.shape
    pivots = np.zeros((b, K), dtype=np.int64)  # pivots per matrix and level
    active = rows = np.arange(b)               # batch row -> matrix; batch rows
    count = np.zeros(b, dtype=np.int64)        # pivots per batch row at this level
    level = 0
    while len(B) and level < K:
        flat = B.reshape(len(B), n * m)
        found = units(flat, p)
        first = found.argmax(axis=1)
        has = found[rows, first] != 0
        if has.any():
            i, j = np.divmod(first, m)
            col = B[rows, :, j] * has[:, None]
            update(B, col, scale(B[rows, i], flat[rows, first], p, K - level), p, K - level)
            count += has
        else:
            pivots[active, level] = count
            level += 1
            B = shift(B, p, K - level)
            keep = B.reshape(len(B), n * m).any(axis=1)
            B, active = B[keep], active[keep]
            rows, count = np.arange(len(B)), np.zeros(len(B), dtype=np.int64)
    results = []
    for counts in pivots.tolist():
        vals = [v for v, c in enumerate(counts) for _ in range(c)]
        rest = n - len(vals)
        results.append(SnfResult(tuple(vals) + (K,) * rest, rest > 0))
    return results[0] if single else results


def make_scalar_matrix(mode: str, rows) -> np.ndarray:
    """Packed scalars in uint64; for modpk in int64 when all fit, else exact Python ints."""
    if mode != MODE_MODPK:
        return np.array(rows, dtype=np.uint64)
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


# ---------------------------------------------------------------------------
# cokernels: precision escalation over per-support reduction tables

# distinct (support, prime, K) tables kept; a run needs one per ladder rung
_TABLE_CACHE_SIZE = 256


def feasible_k_max(prime: PrimeIdealDesc, policy: PrecisionPolicy) -> int:
    """Word-size cap on precision for this prime's completion."""
    return min(policy.k_max, max_precision(prime.p, prime.f))


@lru_cache(maxsize=64)
def escalation_ladder(prime: PrimeIdealDesc, policy: PrecisionPolicy) -> tuple:
    """The K values the adaptive loop will try, in order."""
    cap = feasible_k_max(prime, policy)
    K = min(policy.k_init, cap)
    ladder = [K]
    while K < cap:
        K = min(K * policy.growth, cap)
        ladder.append(K)
    return tuple(ladder)


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def reduction_table(support: tuple, prime: PrimeIdealDesc, K: int):
    """The support reduced into the local ring at precision K.

    Returns ``(mode, ring, table)``: the kernel the ring lowers onto, the
    ring, and a table indexed by support position. For the array kernels the
    table is a read-only array of the mode's word dtype, of shape ``(s,)``
    when the residue degree f is 1 and of ``(s, f, f)`` blocks
    (:func:`element_block`) when it is larger; for the generic path it is a
    tuple of ``LocalElement``.
    """
    ring = local_ring_for(prime, K)
    mode = matrix_mode(ring)
    reduced = tuple(reduce_mod_prime_power(s, prime, K) for s in support)
    if mode == MODE_GENERIC:
        return mode, ring, reduced
    lower = element_to_scalar if ring.f == 1 else element_block
    table = np.array([lower(mode, x) for x in reduced], _word_dtype(mode, K, ring.p))
    table.flags.writeable = False  # shared between calls; indexing copies
    return mode, ring, table


def gather(table, idx) -> np.ndarray:
    """The scalar matrices of a batch ``idx`` of shape ``(b, n, m)`` of support
    positions: ``table[idx]``, or for a table of f x f blocks the
    ``(b, n f, m f)`` matrices over the base ring that they tile."""
    B = np.empty(idx.shape + table.shape[1:], table.dtype)
    for dst, M in zip(B, idx):  # per matrix: the gather's index temporary stays small
        dst[...] = table[M]
    if table.ndim == 1:
        return B
    b, n, m, f, _ = B.shape
    return B.swapaxes(2, 3).reshape(b, n * f, m * f)


def partition_at_prime(idx, support: tuple, prime: PrimeIdealDesc,
                       policy: PrecisionPolicy) -> list:
    """Partitions of uniformizer exponents of cok(M) tensored up at one prime.

    ``idx`` is a batch of shape ``(b, n, m)`` of support positions:
    ``M_t[i][j] = support[idx[t, i, j]]``, with rows <= columns. Each rung of
    the escalation ladder runs the matrices still saturated through the
    kernel its ring lowers onto, so only those climb to the next K (for any
    u). At residue degree f > 1 the kernel sees each matrix over the base
    ring, where every part of the cokernel appears f times; every f-th
    sorted valuation is kept. Returns one entry per matrix: its partition,
    or an ``IndeterminateCokernelError`` (not raised) when it is still
    saturated at the last feasible K.
    """
    out = [None] * len(idx)  # partition, or the last saturated SnfResult
    todo = list(range(len(idx)))
    for K in escalation_ladder(prime, policy):
        mode, ring, table = reduction_table(support, prime, K)
        sub = idx if len(todo) == len(idx) else idx[todo]
        if mode == MODE_GENERIC:
            results = [local_snf(LocalMatrix.of(ring, [[table[j] for j in row] for row in M]))
                       for M in sub.tolist()]
        else:
            results = snf_valuations_array(mode, gather(table, sub), prime.p, K)
            if ring.f > 1:
                results = [SnfResult(r.valuations[::ring.f], r.saturated) for r in results]
        for t, res in zip(todo, results):
            out[t] = res if res.saturated else tuple(
                sorted((v for v in res.valuations if v), reverse=True))
        todo = [t for t, res in zip(todo, results) if res.saturated]
        if not todo:
            return out
    for t in todo:
        out[t] = IndeterminateCokernelError(
            f"cokernel type at {prime} undetermined at K={K}", out[t])
    return out


def cokernel_local_type(M, prime: PrimeIdealDesc, policy: PrecisionPolicy = DEFAULT_POLICY) -> tuple:
    """:func:`partition_at_prime` for a grid M of domain Elements; raises
    ``IndeterminateCokernelError`` when the type stays undetermined."""
    support = tuple(dict.fromkeys(x for row in M for x in row))
    position = {x: i for i, x in enumerate(support)}
    idx = np.array([[position[x] for x in row] for row in M])
    (parts,) = partition_at_prime(idx[None], support, prime, policy)
    if isinstance(parts, IndeterminateCokernelError):
        raise parts
    return parts


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
