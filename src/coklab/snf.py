"""Smith normal form over truncated local rings and cokernel type extraction.

Three layers:

* :func:`local_snf` works on explicit ``LocalElement`` grids in any ring,
  following the documented pivot rule (minimal valuation, lowest row then
  column). It is the reference implementation, and the generic path for
  the two rings no kernel covers: the ramified (1+i) completion of Z[i] and
  odd-characteristic F_p[[t]].
* :func:`snf_valuations_array` covers the hot representations, Z/p^K
  entries and lane-spread F_2[[t]]/t^K entries in machine words, for a whole
  batch of matrices at once; its loop, :func:`_pivot_counts`, returns the
  number of pivots per matrix and level. Galois rings and F_2[x]/(g^K) of
  residue degree f > 1 lower onto these base rings by restriction of
  scalars: such a ring is free of rank f over its base ring, so each entry
  becomes the f x f block of multiplication by it (:func:`element_block`)
  and each part of the cokernel appears f times. Step r of a level of the
  loop pivots every matrix whose row r has a unit on the first one, with a
  rank-1 update of the rows below r and of those set aside (no swaps); a
  nonzero row without a unit is set aside, and only the set-aside rows are
  divided by the uniformizer and go one level deeper. Only
  :func:`_word_dtype` decides a rung's word. modpk uses int64 while products
  fit and p has an inverse table, entries nonnegative and reduced mod
  p^prec once every few updates and before each division by p, and else
  uint64 words read in Montgomery form (Montgomery, "Modular multiplication
  without trial division", 1985): a residue w stands for w 2^-64 mod
  p^prec, so the kernel eliminates the batch times a unit, and division by
  p maps a word to the one of its value over p at the next level. Its unit
  test is one wrapping multiply by p^-1 mod 2^64 and one compare; its pivot
  inverses come from a cached table and Newton rounds on int64 words, and
  from one modular inverse per step (Montgomery's batch trick) on uint64.
  f2t puts coefficient s of t into bit w*s of its word (a lane of w bits),
  so a carryless product is one wrapping integer multiply masked to the low
  bit of each lane (the "multiplication with holes" of constant-time
  GHASH): 4-bit lanes in the narrowest unsigned word of 4K bits for
  K <= 16, and 6-bit lanes in exact Python ints past that. Every kernel is
  tested to agree with the reference everywhere.
* :func:`cokernel_rows` runs every cokernel computation, for a batch of
  matrices given as positions into an entry support and for a tuple of
  primes. It picks each ring's kernel through :func:`reduction_table`,
  gathers the scalars or blocks through :func:`gather`, and runs the first
  rung of every prime's escalation ladder (:func:`escalation_ladder`) on
  every matrix. Over Z and Z[i] the first-rung rows and a Hadamard bound
  prove some of the saturated matrices singular over the fraction field
  (:func:`_certified_singular`); the others escalate K geometrically up to
  the policy cap. It returns one row of pivot counts per level per matrix
  and prime; a row below n is saturated at the cap or belongs to a
  certified singular matrix, and its matrix is indeterminate.
  :func:`batch_trials` sizes the batches, and :func:`row_type` folds a
  matrix's rows into its ``ModuleType``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, prod

import numpy as np

from .domains import GAUSSIAN, INTEGERS, PrimeIdealDesc, local_ring_for, reduce_mod_prime_power
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
from .modules import ModuleType

# largest p^K whose products fit int64: modpk's word switches to Montgomery uint64 above it
_ODD_FAST_LIMIT = 3_037_000_499
# most entries of an inverse table, and so the largest p of an int64 word (:func:`_word_dtype`)
_INVERSE_TABLE_LIMIT = 1 << 15


@dataclass(frozen=True)
class PrecisionPolicy:
    """Adaptive truncation up to k_max (and the word-size cap): see
    :func:`escalation_ladder`."""

    k_max: int = 64

    def __post_init__(self):
        if self.k_max < 1:
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
        entries = _grid(rows)
        for row in entries:
            for x in row:
                if x.ring != ring:
                    raise RingMismatchError("matrix entry from a different ring")
        return LocalMatrix(ring, entries)

    @property
    def shape(self):
        return len(self.entries), len(self.entries[0])


def _grid(rows) -> tuple:
    """rows as a tuple of row tuples, refused unless an n x m grid, 1 <= n <= m."""
    entries = tuple(tuple(row) for row in rows)
    if not entries or not entries[0]:
        raise ParameterError("matrix needs at least one row and column")
    m = len(entries[0])
    if any(len(r) != m for r in entries):
        raise ParameterError("ragged matrix")
    if len(entries) > m:
        raise ParameterError("expected rows <= columns (n x (n+u) shape)")
    return entries


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
MODE_MODPK = "modpk"      # Z/p^K, odd p, in int64 or Montgomery uint64 words (_word_dtype)
MODE_F2T = "f2t"          # F_2[t]/t^K in lanes of w bits: a carryless product is a masked multiply
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
    mod p^K, or for f2t the lane-spread word whose lane s holds coefficient
    k of base-g digit s."""
    r = x.ring
    columns = [x] + [lr_mul(x, LocalElement(r, tuple(int(i == l) for i in range(len(x.coeffs)))))
                     for l in range(1, r.f)]
    if mode == MODE_F2T:
        w = _lane_bits(r.K)
        return [[sum(bit << w * s for s, bit in enumerate(c.coeffs[k::r.f])) for c in columns]
                for k in range(r.f)]
    return [[c.coeffs[k] for c in columns] for k in range(r.f)]


def element_to_scalar(mode: str, x: LocalElement) -> int:
    """The packed word of x in a ring of residue degree 1: a residue for
    mod2k and modpk, a lane-spread word for f2t."""
    if mode == MODE_GENERIC:
        raise ParameterError("generic mode has no scalar packing")
    if x.ring.f > 1:
        raise ParameterError(f"{x.ring} has residue degree {x.ring.f}: its elements lower "
                             "to f x f blocks (element_block), not to scalars")
    return element_block(mode, x)[0][0]


def _lane_bits(K: int) -> int:
    """Bits per f2t lane at precision K. Lane s < K of a product counts s + 1
    terms, and only the top lane's carry may leave its lane (for lanes at
    or past K, masked off or wrapped out of the word), so w-bit lanes serve
    every K <= 2^w: 4 bits in machine words up to K = 16, and 6 bits in
    Python ints up to the f2t cap K = 64."""
    return 4 if K <= 16 else 6


def _word_dtype(mode: str, K: int, p: int) -> np.dtype:
    """The array kernel's word at precision K: for modpk int64 up to
    _ODD_FAST_LIMIT for p <= _INVERSE_TABLE_LIMIT, entries nonnegative and
    reduced lazily (:func:`_reduction_budget`), else uint64 words read in
    Montgomery form (:func:`_mont_mul`), up to p^K < 2^64, reduced after
    every update; for mod2k the narrowest unsigned word of K bits; for f2t
    the narrowest unsigned word of K lanes (:func:`_lane_bits`) up to 64
    bits, and exact Python ints past that."""
    if mode == MODE_MODPK:
        if p ** K >> 64:
            raise ParameterError(f"{p}^{K} does not fit a 64-bit word")
        return np.dtype(np.uint64 if p ** K > _ODD_FAST_LIMIT or p > _INVERSE_TABLE_LIMIT
                        else np.int64)
    bits = K * _lane_bits(K) if mode == MODE_F2T else K
    return np.dtype(f"uint{max(8, 1 << (bits - 1).bit_length())}" if bits <= 64 else object)


# Kernel steps on a batch of shape (b, n, m) at precision prec = K - level.
# Entries of the mod2k words are exact in their low prec bits; the bits
# above are cleared only when the batch is divided by the uniformizer.
# Entries of the f2t words hold 0 or 1 in each of their first prec lanes
# and nothing else. Entries of the int64 modpk words are nonnegative and
# only congruent mod p^prec to those of the reduced batch until it is next
# reduced; those of the uint64 modpk words are reduced, in [0, p^prec), and
# each stands for itself times 2^-64 mod p^prec (a Montgomery word).

_LO32 = np.uint64(0xFFFF_FFFF)
_32 = np.uint64(32)


def _mulhi(a, b):
    """The high 64 bits of the 128-bit products of uint64 words a and b
    (broadcast), from their 32-bit halves; no partial sum below reaches
    2^64, since (2^32 - 1)^2 + 2 (2^32 - 1) < 2^64."""
    a0, a1, b0, b1 = a & _LO32, a >> _32, b & _LO32, b >> _32
    mid = a1 * b0
    mid += a0 * b0 >> _32
    low = a0 * b1
    low += mid & _LO32
    mid >>= _32
    mid += a1 * b1
    low >>= _32
    mid += low
    return mid


@lru_cache(maxsize=None)
def _montgomery(m: int) -> tuple:
    """Constants of Montgomery arithmetic mod an odd m < 2^64 with R = 2^64:
    m and m^-1 mod R as uint64 for :func:`_mont_mul`, and R^2 mod m as a
    Python int for :func:`_batch_inverse`."""
    return np.uint64(m), np.uint64(pow(m, -1, 1 << 64)), (1 << 128) % m


def _mont_mul(a, b, m: int):
    """a b R^-1 mod m for uint64 words a < 2^64 and b < m (broadcast), with
    R = 2^64 and odd m < 2^64: the Montgomery product (REDC). q = ab m^-1
    mod R makes ab - qm divisible by R, and (ab - qm) / R = hi(ab) - hi(qm)
    lies in (-m, m), so one conditional add of m reduces it."""
    mw, minv, _ = _montgomery(m)
    t = _mulhi(a, b)
    q = a * b
    q *= minv
    s = _mulhi(q, mw)
    wrap = t < s
    t -= s
    t += mw * wrap
    return t


# entries per slice of a Montgomery product over a batch: bounds its temporaries
_MONT_SLICE = 16384


def _mont_slices(B) -> list:
    """Slices of the batch B's matrices of at most _MONT_SLICE entries (or one matrix)."""
    step = max(1, _MONT_SLICE // (B.shape[1] * B.shape[2]))
    return [slice(s, s + step) for s in range(0, len(B), step)]


def _units_2(x, p):
    """The low bit of each word, as bools; unsigned words are cast to their
    low byte first, so the mask takes one byte per entry whatever the word."""
    if x.dtype == object:
        return (x & 1).astype(bool)
    return np.bitwise_and(x, 1, dtype=np.uint8, casting="unsafe").view(bool)


def _units_p(x, p):
    """p does not divide x: one wrapping multiply and one compare, since for
    odd p and any word 0 <= x < 2^64, x * p^-1 mod 2^64 is at most
    (2^64 - 1) // p exactly when p | x (Granlund and Montgomery, "Division
    by invariant integers using multiplication", PLDI 1994). It serves the
    Montgomery words unchanged: 2^64 is a unit mod p."""
    return x.view(np.uint64) * np.uint64(pow(p, -1, 1 << 64)) > np.uint64(((1 << 64) - 1) // p)


def _reduction_budget(m: int) -> int:
    """Rank-1 updates int64 words can take between reductions mod m: each
    adds less than m^2 to entries below m, so (2^63 - 1 - m) // m^2."""
    return ((1 << 63) - 1 - m) // (m * m)


def _scale_2k(row, a, p, prec, K):
    """Rows times the inverses of the pivots a (0 for even a), read mod 2^8 from
    :func:`_inverse_table` and lifted by Newton y <- y(2 - ay), doubling the bits."""
    y = _inverse_table(2, 8)[a & 0xFF].astype(a.dtype)
    bits = 8
    while bits < prec:
        y *= 2 - a * y
        bits *= 2
    return row * y[:, None]


def _batch_inverse(a, p, prec):
    """Inverses mod m = p^prec of the pivot words a, by Montgomery's trick
    (Montgomery, "Speeding the Pollard and elliptic curve methods of
    factorization", 1987) in Python ints: one pow(., -1, m) of the product of
    the units, then a walk back through the prefix products. Non-units get 0.
    It serves the Montgomery words: a word w stands for w R^-1 (R = 2^64),
    so the word of its inverse is w^-1 R^2, carried by the product's inverse."""
    m = p ** prec
    xs = a.tolist()
    prefix = [1]
    for x in xs:
        prefix.append(prefix[-1] * x % m if x % p else prefix[-1])
    inv = pow(prefix[-1], -1, m) * _montgomery(m)[2] % m
    out = [0] * len(xs)
    for i in reversed(range(len(xs))):
        if xs[i] % p:
            out[i] = inv * prefix[i] % m
            inv = inv * xs[i] % m
    return np.array(out, a.dtype)


@lru_cache(maxsize=None)
def _inverse_table(p: int, h: int) -> np.ndarray:
    """The inverses mod p^h of 0, ..., p^h - 1 as int64, 0 for the non-units:
    Fermat's x^(p-2) mod p (1 for odd x at p = 2), then Newton rounds
    y <- y(2 - xy), each doubling the power of p it is exact mod."""
    x = np.arange(p ** h, dtype=np.int64)
    base, y, e = x % p, (x % p > 0).astype(np.int64), p - 2
    while e:
        if e & 1:
            y = y * base % p
        base = base * base % p
        e >>= 1
    k = 1
    while k < h:
        k = min(2 * k, h)
        m = p ** k
        y = y * (2 - x % m * y % m) % m
    y.flags.writeable = False
    return y


def _scale_pk(row, a, p, prec, K):
    """Rows times the pivot inverses, reduced mod m = p^prec. On int64 words,
    whose entries may be unreduced sums, rows and pivots are reduced first;
    each inverse is read mod p^h, at the largest h <= ceil(K/2) with a table
    (:func:`_inverse_table`; h >= 1 for every p of an int64 word), and lifted
    by Newton rounds y <- y(2 - ay) mod m, whose products stay below m^2.
    Montgomery words take :func:`_batch_inverse` and a Montgomery product."""
    m = p ** prec
    if row.dtype == np.uint64:
        return _mont_mul(row, _batch_inverse(a, p, prec)[:, None], m)
    row, a = row % m, a % m
    h = (K + 1) // 2
    while p ** h > _INVERSE_TABLE_LIMIT:
        h -= 1
    y = _inverse_table(p, h)[a % p ** h] % m
    while h < prec:
        y = y * (2 - a * y % m) % m
        h *= 2
    return row * y[:, None] % m


def _f2t_lanes(B, prec):
    """The lane width w of B's words (4 bits in unsigned words, 6 in object
    words) and the mask of the low bit of each of their first prec lanes,
    the sum of 2^(w s) for s < prec, in B's word type."""
    w = 6 if B.dtype == object else 4
    mask = ((1 << w * prec) - 1) // ((1 << w) - 1)
    return w, (mask if B.dtype == object else B.dtype.type(mask))


def _scale_f2t(row, a, p, prec, K):
    """Rows times the pivot inverses in F_2[t]/t^prec: carryless Newton
    y <- a y^2 from y = a (a^2 = 1 mod t^2 in characteristic 2), doubling
    the t-adic digits each round, where each carryless product is a
    wrapping multiply masked to the lanes."""
    _, lanes = _f2t_lanes(row, prec)
    unit, a = a & 1, a | 1  # Newton runs on a | 1 for every a; a zero pivot scales by 0
    y, digits = a, 2
    while digits < prec:
        y = a * (y * y & lanes) & lanes
        digits *= 2
    return row * (y * unit)[:, None] & lanes


def _update_2k(B, col, row, p, prec, steps):
    B -= col[:, :, None] * row[:, None, :]


def _update_pk(B, col, row, p, prec, steps):
    """B - col (x) row mod m = p^prec. On Montgomery words the product is a
    Montgomery product and the difference is reduced at once. On int64
    words B += (col mod m) (x) (m - row) keeps B nonnegative, and B is
    reduced once the budget of updates since the last reduction has run
    (``steps`` updates precede this one)."""
    m = p ** prec
    if B.dtype == np.uint64:
        for s in _mont_slices(B):
            product = _mont_mul(col[s, :, None], row[s, None, :], m)
            wrap = B[s] < product
            B[s] -= product
            B[s] += np.uint64(m) * wrap
        return
    B += (col % m)[:, :, None] * (m - row)[:, None, :]
    if (steps + 1) % _reduction_budget(m) == 0:
        B %= m


# matrices per slice of the f2t update: bounds its product temporary
_F2T_SLICE = 16


def _update_f2t(B, col, row, p, prec, steps):
    """Carryless rank-1 update B ^= col (x) row: one masked multiply per
    entry, a slice of matrices at a time."""
    _, lanes = _f2t_lanes(B, prec)
    for s in range(0, len(B), _F2T_SLICE):
        B[s:s + _F2T_SLICE] ^= col[s:s + _F2T_SLICE, :, None] * row[s:s + _F2T_SLICE, None, :] & lanes


def _shift_2(B, p, prec, steps):
    B >>= 1
    B &= (1 << prec) - 1
    return B


def _shift_f2t(B, p, prec, steps):
    """Division by t: drop lane 0. Updates keep every entry inside its
    first prec + 1 lanes, so no lane at or above prec is left set."""
    B >>= _f2t_lanes(B, prec)[0]
    return B


def _shift_p(B, p, prec, steps):
    """Reduce what the last of ``steps`` updates at precision p^(prec + 1)
    left pending on int64 words, then divide by p. A reduced Montgomery
    word w = x 2^64 mod p^(prec + 1) with p | x divided by p is
    (x / p) 2^64 mod p^prec, so those words are only divided."""
    m = p ** (prec + 1)
    if B.dtype == np.int64 and steps % _reduction_budget(m):
        B %= m
    B //= p
    return B


# mode -> (unit test, pivot-row scaling by the pivot's inverse (by 0 for a
# zero pivot), rank-1 update, division by the uniformizer down to precision
# prec); scaling also takes the rung's K, and the last two the number of
# updates made at this level before the call
_KERNELS = {
    MODE_MOD2K: (_units_2, _scale_2k, _update_2k, _shift_2),
    MODE_MODPK: (_units_p, _scale_pk, _update_pk, _shift_p),
    MODE_F2T: (_units_2, _scale_f2t, _update_f2t, _shift_f2t),
}


def snf_valuations_array(mode: str, B, p: int, K: int):
    """Valuations of a batch of packed scalar matrices (:func:`_pivot_counts`).

    Returns one :class:`SnfResult` per matrix, or a single one for a 2-D
    ``B`` of shape ``(n, m)``.
    """
    single = B.ndim == 2
    pivots = _pivot_counts(mode, B[None] if single else B, p, K)
    results = [_snf_result(counts, B.shape[-2], K) for counts in pivots.tolist()]
    return results[0] if single else results


def _snf_result(counts, n: int, K: int) -> SnfResult:
    """The SnfResult of an n-row matrix from its pivot counts per level."""
    vals = [v for v, c in enumerate(counts) for _ in range(c)]
    rest = n - len(vals)
    return SnfResult(tuple(vals) + (K,) * rest, rest > 0)


def _pivot_counts(mode: str, B, p: int, K: int) -> np.ndarray:
    """Stratified elimination of a batch of packed scalar matrices.

    ``B`` has shape ``(b, n, m)``; it is consumed when it already has the
    mode's word dtype. For modpk its entries are residues in [0, p^K) (read
    in Montgomery form where the word is uint64), and for f2t lane-spread
    words (:func:`element_to_scalar`) with no bit outside their K lanes. At
    level ``level < K`` entries are taken modulo p^(K - level). Step r reads
    row r of every matrix; where it has a unit, the rank-1 product of the
    pivot column and the row scaled by its first unit's inverse is taken
    from row r, the rows below and the rows set aside, zeroing the pivot's
    row and column. A row with no unit at its step is zero mod p, and stays
    so under the level's later updates (their factors are multiples of p):
    it is set aside if nonzero. A matrix keeps its set-aside rows in place,
    as a block just above row r; a spent row r takes the block's first row.
    Level 0 pivots as the first unit in row-major order would; later levels
    may meet the set-aside rows in another order, which leaves the counts,
    invariants of the matrix, as they are. After the last row, the blocks
    (the last rows of the batch) are divided by the uniformizer and are the
    next level's matrices. Returns the ``(b, K)`` array of pivots per matrix
    and level: row t holds the number of diagonal entries of valuation v at
    v; rows without a pivot (n minus the row's sum) have valuation K.
    """
    if mode not in _KERNELS:
        raise ParameterError(f"no array path for mode {mode!r}")
    units, scale, update, shift = _KERNELS[mode]
    B = np.ascontiguousarray(B, dtype=_word_dtype(mode, K, p))
    b, n, _ = B.shape
    pivots = np.zeros((b, K), dtype=np.int64)  # pivots per matrix and level
    mats, level = np.arange(b), 0
    while n and level < K:
        kept, steps = np.zeros(b, dtype=np.int64), 0  # set-aside rows per matrix, updates made
        for r in range(n):
            row = B[:, r]
            found = units(row, p)
            j = found.argmax(axis=1)
            has = found[mats, j]
            keep = row.any(axis=1) & ~has
            top = r - int(kept.max(initial=0))  # first row of the widest set-aside block
            if has.any():
                live = B[:, top:]
                pivot = row[mats, j] * has  # 0 where row r has no unit: scales to 0
                update(live, live[mats, :, j], scale(row, pivot, p, K - level, K), p, K - level, steps)
                pivots[:, level] += has
                steps += 1
            if top < r:  # refill a spent row r from the head of its matrix's block
                moved = np.flatnonzero(~keep & (kept > 0))
                head = r - kept[moved]
                B[moved, r] = B[moved, head]
                B[moved, head] = 0
            kept += keep
        level += 1
        n = int(kept.max(initial=0))
        B = shift(B[:, B.shape[1] - n:], p, K - level, steps)
    return pivots


def make_scalar_matrix(mode: str, rows) -> np.ndarray:
    """Packed scalars in uint64 (int64 for modpk) when all fit, else exact
    Python ints: modpk residues past 2^63 and f2t words of K > 16 lanes.
    :func:`snf_valuations_array` takes either and casts them to its word."""
    try:
        return np.array(rows, dtype=np.int64 if mode == MODE_MODPK else np.uint64)
    except OverflowError:
        return np.array(rows, dtype=object)


# ---------------------------------------------------------------------------
# cokernels: precision escalation over per-support reduction tables

# distinct (support, prime, K) tables kept; a run needs one per ladder rung
_TABLE_CACHE_SIZE = 256


@lru_cache(maxsize=64)
def escalation_ladder(prime: PrimeIdealDesc, policy: PrecisionPolicy) -> tuple:
    """The K values the adaptive loop will try, in order: the largest K <=
    min(8, cap) whose word is narrow (else min(8, cap)), doubling up to the
    cap (the lower of k_max and the prime's word-size cap), without the wide
    rungs below the cap: those whose :func:`_word_dtype` is Montgomery for
    modpk or object (past 16 lanes) for f2t. A result not saturated at K is
    exact at every larger K, so the ladder sets only the cost of a trial,
    never its type; and a pass in wide words costs about as much at the cap
    as below it, so past the last narrow word it goes straight to the cap."""
    cap = min(policy.k_max, max_precision(prime.p, prime.f))
    mode = matrix_mode(local_ring_for(prime, cap))

    def wide(K):  # mod2k and generic words are never object words
        return _word_dtype(mode, K, prime.p) == (np.uint64 if mode == MODE_MODPK else object)
    ladder = [max((K for K in range(1, min(8, cap) + 1) if not wide(K)), default=min(8, cap))]
    while ladder[-1] < cap:
        ladder.append(min(2 * ladder[-1], cap))
    return tuple(K for K in ladder if K == cap or not wide(K))


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def reduction_table(support: tuple, prime: PrimeIdealDesc, K: int):
    """The support reduced into the local ring at precision K.

    Returns ``(mode, ring, table)``: the kernel the ring lowers onto, the
    ring, and a read-only array indexed by support position, for
    :func:`gather`: the mode's words, of shape ``(s,)`` when the residue
    degree f is 1 and of ``(s, f, f)`` blocks (:func:`element_block`) when
    it is larger, or on the generic path ``LocalElement`` objects.
    """
    ring = local_ring_for(prime, K)
    mode = matrix_mode(ring)
    reduced = [reduce_mod_prime_power(s, prime, K) for s in support]
    if mode == MODE_GENERIC:
        table = np.fromiter(reduced, object, len(reduced))
    else:
        lower = element_to_scalar if ring.f == 1 else element_block
        table = np.array([lower(mode, x) for x in reduced], _word_dtype(mode, K, ring.p))
    table.flags.writeable = False  # shared between calls; indexing copies
    return mode, ring, table


def gather(table, idx) -> np.ndarray:
    """The scalar matrices of a batch ``idx`` of shape ``(b, n, m)`` of support
    positions: ``table[idx]``, or for a table of f x f blocks the
    ``(b, n f, m f)`` matrices over the base ring that they tile, indexed in
    that order (block row k of entry (i, j) is row i f + k), so no copy
    follows the index."""
    if table.ndim == 1:
        return table[idx]
    b, n, m = idx.shape
    f = table.shape[1]
    return table.swapaxes(0, 1)[np.arange(f)[:, None], idx[:, :, None, :]].reshape(b, n * f, m * f)


@lru_cache(maxsize=64)
def _lowering(support: tuple, prime: PrimeIdealDesc, policy: PrecisionPolicy) -> tuple:
    """What :func:`cokernel_rows` reads of a prime besides the batch: per rung
    of its ladder the ring, which fixes p, the kernel, f, K and the word,
    and the support's table as a list. Two primes with equal lowerings give
    equal rows on every batch."""
    return tuple((ring, table.tolist()) for _, ring, table in (
        reduction_table(support, prime, K) for K in escalation_ladder(prime, policy)))


# bytes of kernel words in the matrices sampled and eliminated together:
# bounds a batch's memory for any chunk size (227 matrices at n = 48 in
# mod2k's uint8 words, 455 at n = 12 in modpk's int64 words)
_BATCH_BYTES = 512 * 1024


def batch_trials(support: tuple, primes, policy: PrecisionPolicy, n: int, u: int) -> int:
    """Most matrices per batch of :func:`cokernel_rows`: as many n f x (n + u) f
    kernel matrices, in the entries of each prime's first-rung
    :func:`reduction_table` (an object pointer on the generic path), as fill
    _BATCH_BYTES at the widest prime, and at least 64, so that each numpy
    step of a small n works on enough entries to outweigh its call overhead."""
    widest = max(n * pr.f * (n + u) * pr.f * reduction_table(
        support, pr, escalation_ladder(pr, policy)[0])[2].itemsize for pr in primes)
    return max(64, _BATCH_BYTES // widest)


def _ladder_counts(idx, support, prime, rungs, todo, counts) -> None:
    """Run the matrices todo of the batch idx up the rungs at one prime: each
    rung runs the matrices still saturated through the kernel its ring lowers
    onto and writes their rows into ``counts``, of shape ``(b, cap)``. At
    residue degree f the kernel sees each part of the cokernel f times, over
    the base ring, so its counts are divided by f."""
    b, n = idx.shape[:2]
    for K in rungs:
        if not len(todo):
            break
        mode, ring, table = reduction_table(support, prime, K)
        B = gather(table, idx if len(todo) == b else idx[todo])
        if mode == MODE_GENERIC:
            rows = np.array([np.bincount(local_snf(LocalMatrix.of(ring, M)).valuations,
                                         minlength=K + 1)[:K] for M in B.tolist()])
        else:
            rows = _pivot_counts(mode, B, prime.p, K) // ring.f
        counts[todo, :K] = rows
        todo = todo[rows.sum(axis=1) < n]


@lru_cache(maxsize=64)
def _norms(support: tuple):
    """The norm of each support element that :func:`_certified_singular`
    reads, s^2 over Z and a^2 + b^2 over Z[i], as int64 when all are below
    2^31, so that any row of them sums exactly, else as Python ints; None
    over F_p[x], where a bound on the degree of a minor would need primes of
    a total degree past it, and no cheap certificate exists."""
    kind = support[0].domain.kind
    if kind == INTEGERS:
        norms = [s.value ** 2 for s in support]
    elif kind == GAUSSIAN:
        norms = [s.value[0] ** 2 + s.value[1] ** 2 for s in support]
    else:
        return None
    out = np.array(norms, np.int64 if max(norms) < 1 << 31 else object)
    out.flags.writeable = False
    return out


def _certified_singular(idx, support, primes, policy, first) -> np.ndarray:
    """Which matrices of the batch idx their rows ``first`` at the primes'
    first rungs prove singular over the fraction field, one ``(b, cap)``
    array per prime (zeros past the rung).

    By Hadamard's inequality H^2 = prod over rows of sum_j N(s_ij)
    (:func:`_norms`) bounds the norm of every n x n minor. A row at a prime
    of rung K holds the exact counts c_v of the valuations below K, and
    n - sum c valuations of at least K. So if the matrix has full rank,
    every n x n minor lies in P^V with V = sum v c_v + K (n - sum c); a
    nonzero one lies in the product of these powers of the distinct primes
    and has norm at least prod q^(w V), q the residue size, with w = 2 over
    Z (the bound is on a minor's square) and w = 1 over Z[i]. A product past
    H^2 thus leaves no nonzero minor. The comparison is exact, in Python
    ints, and equality does not certify."""
    norms = _norms(support)
    if norms is None:
        return np.zeros(len(idx), bool)
    n, w = idx.shape[1], 2 if support[0].domain.kind == INTEGERS else 1
    bounds = norms[idx].sum(axis=2).tolist()
    depths = [(prime.q ** w, (counts @ np.arange(counts.shape[1]) + escalation_ladder(prime, policy)[0]
                              * (n - counts.sum(axis=1))).tolist())
              for prime, counts in dict(zip(primes, first)).items()]  # each prime once
    return np.array([prod(q ** V[t] for q, V in depths) > prod(bound)
                     for t, bound in enumerate(bounds)], bool)


def cokernel_rows(idx, support: tuple, primes, policy: PrecisionPolicy) -> list:
    """Pivot counts per level of cok(M_t) tensored up at each prime, one
    ``(b, cap)`` int64 array per prime, for a batch ``idx`` of shape
    ``(b, n, m)`` of support positions: ``M_t[i][j] = support[idx[t, i, j]]``.
    Row t holds at v the number of diagonal entries of valuation v, at the
    rung that settled M_t (:func:`_ladder_counts`). It runs in three phases:

    1. the first rung of every prime's ladder, on every matrix;
    2. :func:`_certified_singular` on the matrices saturated there at some
       prime: a singular matrix is saturated at every rung of every prime,
       so it keeps its first-rung rows;
    3. the rest of each ladder, prime by prime, for the uncertified
       matrices saturated at that prime's first rung and settled at every
       earlier prime.

    A row summing below n is saturated at the cap, or at the first rung of a
    certified singular matrix: M_t is indeterminate, and its rows at later
    primes are zeros. A prime whose :func:`_lowering` equals an earlier
    prime's takes that prime's rows; a lone prime, with none to share,
    builds only the tables of the rungs it reaches."""
    b, n = idx.shape[:2]
    lowerings = [_lowering(support, prime, policy) if len(primes) > 1 else None for prime in primes]
    source = [lowerings.index(lowering) for lowering in lowerings]  # the prime whose rows each takes
    ladders = [escalation_ladder(prime, policy) for prime in primes]
    out = []
    for i, prime in enumerate(primes):
        if source[i] < i:
            out.append(out[source[i]].copy())
            continue
        out.append(np.zeros((b, ladders[i][-1]), np.int64))
        _ladder_counts(idx, support, prime, ladders[i][:1], np.arange(b), out[i])
    short = [counts.sum(axis=1) < n for counts in out]  # saturated at the first rung
    saturated = np.flatnonzero(sum(short))
    if not len(saturated):  # every matrix settled at every prime
        return out
    climb = np.ones(b, bool)
    climb[saturated] = ~_certified_singular(idx[saturated], support, primes, policy,
                                            [counts[saturated] for counts in out])
    live = np.ones(b, bool)  # matrices settled at every prime so far
    for i, prime in enumerate(primes):
        if source[i] == i:
            _ladder_counts(idx, support, prime, ladders[i][1:],
                           np.flatnonzero(live & climb & short[i]), out[i])
        out[i] = out[source[i]] * live[:, None]
        live &= out[i].sum(axis=1) == n
    return out


def counts_partition(counts) -> tuple:
    """The partition of a settled row of :func:`cokernel_rows`: part v
    repeated counts[v] times, largest first."""
    return tuple(v for v in range(len(counts) - 1, 0, -1) for _ in range(counts[v]))


def row_type(primes, n: int, rows):
    """The ModuleType of one matrix's rows of :func:`cokernel_rows` at the
    primes, or None when a row sums below n (the matrix is indeterminate)."""
    if any(sum(counts) < n for counts in rows):
        return None
    return ModuleType.of(zip(primes, map(counts_partition, rows)))


def cokernel_type(M, primes, policy: PrecisionPolicy = DEFAULT_POLICY):
    """ModuleType of cok(M) tensored at distinct primes, for a grid M of
    domain Elements checked as LocalMatrix.of checks it. Raises, first,
    ``IndeterminateCokernelError`` at the first prime where the type stays
    undetermined, naming the lowest rung K of its ladder with no pivot of
    valuation K or more in M's row (the cap, or the first rung of a
    certified singular M) and carrying the ``SnfResult`` of local_snf at
    that K, then ParameterError for a repeated prime."""
    M, primes = _grid(M), tuple(primes)
    position = {x: i for i, x in enumerate(dict.fromkeys(x for row in M for x in row))}
    idx = np.array([[position[x] for x in row] for row in M])
    rows = [counts[0].tolist() for counts in cokernel_rows(idx[None], tuple(position), primes, policy)]
    for prime, row in zip(primes, rows):
        if sum(row) < len(M):
            K = next(K for K in escalation_ladder(prime, policy) if not any(row[K:]))
            raise IndeterminateCokernelError(f"cokernel type at {prime} undetermined at K={K}",
                                             _snf_result(row[:K], len(M), K))
    return row_type(primes, len(M), rows)


def cokernel_local_type(M, prime: PrimeIdealDesc, policy: PrecisionPolicy = DEFAULT_POLICY) -> tuple:
    """The partition of cok(M) tensored up at one prime (:func:`cokernel_type`)."""
    return cokernel_type(M, (prime,), policy).partition_for(prime)


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
