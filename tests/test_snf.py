import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coklab import snf
from coklab.domains import (
    ZI,
    ZZ,
    elem_add,
    elem_mul,
    elem_neg,
    factor_rational_prime,
    gauss_elem,
    int_elem,
    local_ring_for,
    poly_domain,
    poly_elem,
    reduce_mod_prime_power,
)
from coklab.errors import IndeterminateCokernelError, ParameterError
from coklab.local_ring import (
    EQUAL_CHAR,
    UNRAMIFIED,
    LocalElement,
    lr_add,
    lr_mul,
    make_local_ring,
    max_precision,
    valuation,
)
from coklab.modules import ModuleType
from coklab.snf import (
    _ODD_FAST_LIMIT,
    DEFAULT_POLICY,
    MODE_MODPK,
    LocalMatrix,
    PrecisionPolicy,
    SnfResult,
    _batch_inverse,
    _lane_bits,
    _mont_mul,
    _reduction_budget,
    _shift_p,
    _units_p,
    _word_dtype,
    cokernel_local_type,
    cokernel_rows,
    cokernel_type,
    counts_partition,
    element_block,
    element_to_scalar,
    escalation_ladder,
    gather,
    integer_snf_oracle,
    local_snf,
    make_scalar_matrix,
    matrix_mode,
    p_part_of_divisors,
    reduction_table,
    snf_valuations_array,
)

P2 = factor_rational_prime(ZZ, 2)[0]
P3 = factor_rational_prime(ZZ, 3)[0]
P5 = factor_rational_prime(ZZ, 5)[0]


def int_matrix(ring, rows):
    return LocalMatrix.of(ring, [[ring.from_int(x) for x in row] for row in rows])


def test_integer_snf_oracle_examples():
    assert integer_snf_oracle([[2, 0], [0, 3]]) == (1, 6)
    assert integer_snf_oracle([[2, 1], [0, 2]]) == (1, 4)
    assert integer_snf_oracle([[1, 0], [0, 1]]) == (1, 1)
    assert integer_snf_oracle([[0, 0], [0, 0]]) == (0, 0)
    assert integer_snf_oracle([[6]]) == (6,)
    assert integer_snf_oracle([[4, 0], [0, 2]]) == (2, 4)


def test_integer_snf_oracle_randomized_invariants():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(1, 5)
        m = rng.randrange(n, 5)
        M = [[rng.randrange(-9, 10) for _ in range(m)] for _ in range(n)]
        d = integer_snf_oracle(M)
        assert len(d) == n
        for i in range(len(d) - 1):
            if d[i + 1] == 0:
                continue
            assert d[i] != 0 and d[i + 1] % d[i] == 0


def test_integer_snf_oracle_bounds():
    with pytest.raises(ParameterError):
        integer_snf_oracle([[1] * 9] * 9)
    with pytest.raises(ParameterError):
        integer_snf_oracle([[10 ** 7]])


def test_local_snf_examples():
    r = make_local_ring(3, 1, 5, UNRAMIFIED)
    res = local_snf(int_matrix(r, [[3, 0], [0, 9]]))
    assert res == SnfResult((1, 2), False)

    r2 = make_local_ring(2, 1, 6, UNRAMIFIED)
    res = local_snf(int_matrix(r2, [[2, 1], [0, 2]]))
    assert res == SnfResult((0, 2), False)

    res = local_snf(int_matrix(r2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert res == SnfResult((0, 0, 0), False)

    r4 = make_local_ring(2, 1, 4, UNRAMIFIED)
    res = local_snf(int_matrix(r4, [[0, 0], [0, 0]]))
    assert res == SnfResult((4, 4), True)


def test_cokernel_local_type_examples():
    M = [[int_elem(2), int_elem(0)], [int_elem(0), int_elem(3)]]
    assert cokernel_local_type(M, P3) == (1,)
    assert cokernel_local_type(M, P2) == (1,)

    pr, prbar = factor_rational_prime(ZI, 5)
    M5 = [[gauss_elem(5, 0)]]
    assert cokernel_local_type(M5, pr) == (1,)
    assert cokernel_local_type(M5, prbar) == (1,)

    ident = [[int_elem(1), int_elem(0)], [int_elem(0), int_elem(1)]]
    assert cokernel_local_type(ident, P2) == ()


def test_cokernel_type_examples():
    M = [[int_elem(6)]]
    t = cokernel_type(M, [P2, P3])
    assert t == ModuleType.of({P2: (1,), P3: (1,)})

    M2 = [[int_elem(4), int_elem(0)], [int_elem(0), int_elem(2)]]
    assert cokernel_type(M2, [P2]) == ModuleType.of({P2: (2, 1)})

    (ram,) = factor_rational_prime(ZI, 2)
    M3 = [[gauss_elem(1, 1)]]
    assert cokernel_type(M3, [ram]) == ModuleType.of({ram: (1,)})


def test_cokernel_type_leaves_out_trivial_parts_and_refuses_repeated_primes():
    M = [[int_elem(10)]]
    t = cokernel_type(M, [P3, P2, P5])
    assert t.components == ((P2, (1,)), (P5, (1,)))
    assert cokernel_type(M, [P3]) == ModuleType.trivial()
    assert cokernel_type(M, []) == ModuleType.trivial()
    for primes in ([P2, P2], [P3, P5, P3]):  # a repeated prime is refused, trivial or not
        with pytest.raises(ParameterError, match="duplicate prime"):
            cokernel_type(M, primes)
    # 2^8 is saturated at the first rung, and its singularity bound 2^16 is
    # met with equality when 2 counts once, not twice: it is not proved
    # singular, so the repeated prime is what gets refused
    with pytest.raises(ParameterError, match="duplicate prime"):
        cokernel_type([[int_elem(2 ** 8)]], [P2, P2])


def test_indeterminate_on_zero_matrix():
    M = [[int_elem(0)]]
    with pytest.raises(IndeterminateCokernelError) as exc:
        cokernel_local_type(M, P2, PrecisionPolicy(16))
    assert exc.value.last_result.saturated


def test_escalation_resolves_large_exponents():
    # valuation 10 saturates at K=8 and must escalate, not fail
    M = [[int_elem(2 ** 10)]]
    assert cokernel_local_type(M, P2, PrecisionPolicy(64)) == (10,)
    M = [[int_elem(3 ** 12)]]
    assert cokernel_local_type(M, P3, PrecisionPolicy(40)) == (12,)


def test_oracle_agreement_seeded():
    rng = random.Random(123)
    for _ in range(250):
        n = rng.randrange(1, 7)
        M = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        divisors = integer_snf_oracle(M)
        elems = [[int_elem(x) for x in row] for row in M]
        for prime in (P2, P3, P5):
            expected = p_part_of_divisors(divisors, prime.p)
            if expected is None:
                with pytest.raises(IndeterminateCokernelError):
                    cokernel_local_type(elems, prime)
            else:
                assert cokernel_local_type(elems, prime) == expected


PX = factor_rational_prime(poly_domain(2), poly_elem(2, [0, 1]))[0]
# residue degree f > 1: inert Z[i] primes lower onto modpk, F_2[x] primes onto f2t
ZI3 = factor_rational_prime(ZI, 3)[0]
ZI7 = factor_rational_prime(ZI, 7)[0]
ZI17 = factor_rational_prime(ZI, 17)[0]  # (4+i)
ZI5 = factor_rational_prime(ZI, 5)[0]  # (2+i)
PX2 = factor_rational_prime(poly_domain(2), poly_elem(2, [1, 1, 1]))[0]
PX3 = factor_rational_prime(poly_domain(2), poly_elem(2, [1, 1, 0, 1]))[0]
# the generic path: the ramified (1+i) and odd-characteristic F_3[x] at (x)
ZI_RAM = factor_rational_prime(ZI, 2)[0]
F3X = factor_rational_prime(poly_domain(3), poly_elem(3, [0, 1]))[0]


def _support(prime, K, extra, units):
    """The extra entries, then u * pi^v for each unit u and v in {0, 1, 2, K-1, K},
    where pi is the prime's generator (so u * pi^K reduces to zero)."""
    out = list(extra)
    for v in sorted({0, 1, 2, K - 1, K}):
        for u in units:
            for _ in range(v):
                u = elem_mul(u, prime.generator)
            out.append(u)
    return tuple(dict.fromkeys(out))


def _ints(prime, K):
    return _support(prime, K, [int_elem(0), int_elem(7), int_elem(-12)], [int_elem(1), int_elem(-5)])


def _gauss(prime, K):
    return _support(prime, K, [gauss_elem(0, 0), gauss_elem(4, 1), gauss_elem(-12, 3)],
                    [gauss_elem(1, 0), gauss_elem(-5, 2)])


def _polys(prime, K):
    return _support(prime, K, [poly_elem(2, []), poly_elem(2, [1, 0, 1, 1])],
                    [poly_elem(2, [1]), poly_elem(2, [1, 1])])


def _repeat(res, f):
    """An SnfResult with each valuation repeated f times: the result over the
    base ring for a matrix over a ring of residue degree f."""
    return SnfResult(tuple(v for v in res.valuations for _ in range(f)), res.saturated)


def test_fast_paths_match_generic():
    # Each array kernel agrees with the element-wise local_snf on every branch
    # of the shared stratified loop: unit pivots, division by the uniformizer
    # and saturation. Supports hold entries of valuation 0, 1, 2, K-1 and K
    # (the last reduce to zero); K = 64 runs mod2k and f2t at full word width,
    # and modpk crosses from int64 (3^19) to Montgomery uint64 words (3^20,
    # and 3^40 > 2^63).
    # Rings of residue degree f > 1 run over the base ring as f x f blocks,
    # where every valuation appears f times; their K reach the word-size cap.
    rng = random.Random(42)
    seen = {}
    for prime, mode, Ks, support_at in [
        (P2, "mod2k", (1, 8, 32, 64), _ints),
        (P3, "modpk", (1, 5, 8, 19, 20, 40), _ints),
        (PX, "f2t", (1, 8, 32, 64), _polys),
        (ZI3, "modpk", (1, 5, 19, 20), _gauss),
        (ZI7, "modpk", (1, 5, 11), _gauss),
        (PX2, "f2t", (1, 8, 17, 32), _polys),
        (PX3, "f2t", (1, 8, 21), _polys),
    ]:
        for K in Ks:
            support = support_at(prime, K)
            table_mode, ring, table = reduction_table(support, prime, K)
            assert table_mode == mode
            reduced = [reduce_mod_prime_power(s, prime, K) for s in support]
            for _ in range(40):
                n = rng.randrange(1, 6)
                u = rng.choice([0, 1, 2])
                idx = np.array([[rng.randrange(len(support)) for _ in range(n + u)]
                                for _ in range(n)])
                want = local_snf(LocalMatrix.of(ring, [[reduced[j] for j in row]
                                                       for row in idx.tolist()]))
                got = snf_valuations_array(mode, gather(table, idx[None])[0], prime.p, K)
                assert got == _repeat(want, ring.f)
                seen.setdefault((prime, mode), set()).update(
                    "pivot" if v == 0 else "saturated" if v == K else "shift"
                    for v in want.valuations)
    assert all(kinds == {"pivot", "shift", "saturated"} for kinds in seen.values()), seen


# the narrowest unsigned word holding K bits: mod2k's word at precision K, and
# the word of an f2t entry's K coefficient bits before they are spread into lanes
_WORDS = {1: "uint8", 5: "uint8", 8: "uint8", 9: "uint16", 16: "uint16", 17: "uint32",
          32: "uint32", 64: "uint64"}


# f2t's word at precision K: K lanes of _lane_bits(K) bits (1 up to K = 2, 2
# up to 4, 3 up to 8, 4 up to 16) in the narrowest unsigned word that holds
# them up to K = 16, Python ints (5- and 6-bit lanes) past that
_F2T_WORDS = {1: "uint8", 2: "uint8", 3: "uint8", 4: "uint8", 5: "uint16", 8: "uint32",
              9: "uint64", 16: "uint64", 17: "object", 21: "object", 32: "object", 64: "object"}


def _unspread(x, K):
    """The K-bit packed form of an f2t word: bit s is lane s. Asserts that
    the word has no bit outside the low bits of its first K lanes."""
    w = _lane_bits(K)
    packed = sum((int(x) >> w * s & 1) << s for s in range(K))
    assert sum(1 << w * s for s in range(K) if packed >> s & 1) == int(x)
    return packed


@pytest.mark.parametrize("prime, mode, K, support_at, word", [
    *[(P2, "mod2k", K, _ints, w) for K, w in _WORDS.items()],
    *[(P3, "modpk", K, _ints, "int64") for K in (1, 5, 8, 19)],
    *[(PX, "f2t", K, _polys, w) for K, w in _WORDS.items()],
    *[(P3, "modpk", K, _ints, "uint64") for K in (20, 40)],
    *[(ZI3, "modpk", K, _gauss, "int64") for K in (1, 5, 19)],
    (ZI3, "modpk", 20, _gauss, "uint64"),
    *[(ZI7, "modpk", K, _gauss, "int64") for K in (1, 11)],
    *[(PX2, "f2t", K, _polys, w) for K, w in _WORDS.items() if K <= 32],
    *[(PX3, "f2t", K, _polys, w) for K, w in {**_WORDS, 21: "uint32"}.items() if K <= 21],
    *[(PX, "f2t", K, _polys, w) for K, w in ((2, "uint8"), (3, "uint8"), (4, "uint8"))],
])
def test_batched_kernel_matches_single_and_generic(prime, mode, K, support_at, word):
    # One batch mixes full-rank, corank, all-zero and saturated matrices with
    # random ones; K crosses every word width, below it (masked) and at it.
    # Each matrix's batched result equals its 2-D result and local_snf. At
    # residue degree f > 1 the kernel sees f x f blocks over the base ring
    # and every valuation appears f times. f2t tables hold lane-spread
    # words: their K coefficient bits, packed, fit ``word``.
    rng = random.Random(K * 1000 + len(mode))
    support = support_at(prime, K)
    table_mode, ring, table = reduction_table(support, prime, K)
    if mode == "f2t":
        assert (table_mode, table.dtype) == (mode, np.dtype(_F2T_WORDS[K]))
        np.array([_unspread(x, K) for x in table.ravel()], dtype=word)  # raises if they do not fit
    else:
        assert (table_mode, table.dtype) == (mode, np.dtype(word))
    reduced = [reduce_mod_prime_power(s, prime, K) for s in support]
    vals = [valuation(x) for x in reduced]
    zero, unit = vals.index(K), vals.index(0)
    low = vals.index(1) if 1 in vals else zero  # valuation 1, zero once K = 1
    n = 4
    for u in (0, 1, 2):
        def random_idx():
            return rng.choices(range(len(support)), k=n * (n + u))

        def diagonal(diag):
            M = np.full((n, n + u), zero)
            M[range(n), range(n)] = diag
            return M

        full_rank = np.reshape(random_idx(), (n, n + u))  # made unit upper triangular
        full_rank[np.tril_indices(n, -1)] = zero
        full_rank[range(n), range(n)] = unit
        batch = [
            full_rank,
            diagonal([unit, unit, low, low]),  # corank 2 at level 0
            np.full((n, n + u), zero),
            diagonal([unit, unit, unit, zero]),
        ] + [np.reshape(random_idx(), (n, n + u)) for _ in range(8)]
        idx = np.stack(batch)
        f = ring.f
        got = snf_valuations_array(mode, gather(table, idx), prime.p, K)
        assert len(got) == len(batch)
        for M, res in zip(idx, got):
            want = _repeat(local_snf(LocalMatrix.of(ring, [[reduced[j] for j in row]
                                                            for row in M.tolist()])), f)
            assert res == want
            assert snf_valuations_array(mode, gather(table, M[None])[0], prime.p, K) == want
        assert got[0] == _repeat(SnfResult((0,) * n, False), f)
        assert got[1] == _repeat(SnfResult((0, 0, 1, 1), K == 1), f)  # saturated once p reduces to 0
        assert got[2] == _repeat(SnfResult((K,) * n, True), f)
        assert got[3] == _repeat(SnfResult((0, 0, 0, K), True), f)


def _set_aside_grid(rng, support, prime, n, u, aside):
    """An n x (n + u) grid of support entries in which each row i in
    ``aside`` reaches its step of the loop without a unit: by kind, the sum
    of two earlier rows plus pi times a random row ("sum"), pi or pi^2 times
    a random row ("pi", "pi2"), or zero ("zero")."""
    pi, zero = prime.generator, support[0]

    def random_row():
        return [rng.choice(support) for _ in range(n + u)]

    def times(c, row):
        return [elem_mul(c, x) for x in row]

    rows = []
    for i in range(n):
        kind = aside.get(i)
        if kind == "sum":
            a, b = rng.sample(rows, 2)
            rows.append([elem_add(elem_add(x, y), z) for x, y, z in zip(a, b, times(pi, random_row()))])
        elif kind in ("pi", "pi2"):
            rows.append(times(pi if kind == "pi" else elem_mul(pi, pi), random_row()))
        else:
            rows.append([zero] * (n + u) if kind == "zero" else random_row())
    return rows


# where each matrix of a batch sets rows aside: mid-matrix before later
# pivots, at the top, at the bottom, none, and in a run
_ASIDE_LAYOUTS = [
    {2: "sum", 4: "pi2", 5: "zero", 8: "pi"},
    {0: "pi", 1: "pi2"},
    {},
    {3: "zero", 4: "sum", 6: "sum", 9: "pi2"},
    {11: "pi"},
    {5: "pi", 6: "pi2", 7: "sum", 8: "pi"},
]


@pytest.mark.parametrize("prime, K, support_at, u, word", [
    (P2, 8, _ints, 0, "uint8"),
    (P2, 64, _ints, 1, "uint64"),
    (P3, 19, _ints, 0, "int64"),   # lazy reduction every 6 updates
    (P3, 40, _ints, 1, "uint64"),  # Montgomery words
    (PX, 16, _polys, 0, "uint64"),  # 4-bit lanes
    (PX, 32, _polys, 0, "object"),  # 5-bit lanes
    (ZI3, 8, _gauss, 1, "int64"),  # 2 x 2 blocks over Z/3^8
    (PX2, 8, _polys, 2, "uint32"),  # 2 x 2 blocks over F_2[t]/t^8
], ids=["mod2k-8", "mod2k-64", "modpk-int64", "modpk-montgomery", "f2t-4-bit", "f2t-object",
        "modpk-blocks", "f2t-blocks"])
def test_set_aside_rows_match_local_snf(prime, K, support_at, u, word):
    # Rows without a unit at their step, anywhere in a matrix, are set aside
    # and carried to the next level, and every later pivot of the level
    # updates them; each matrix of the batch sets aside different rows. At
    # 3^19 the int64 words are reduced every 6 updates, so n = 12 pivots
    # reduce the batch while rows are set aside.
    if K == 19:
        assert _reduction_budget(prime.p ** K) == 6
    rng = random.Random(K)
    layouts = _ASIDE_LAYOUTS * 2 + [{}] * 2
    batch = [_set_aside_grid(rng, support_at(prime, K), prime, 12, u, layout) for layout in layouts]
    support = tuple(dict.fromkeys(x for rows in batch for row in rows for x in row))
    mode, ring, table = reduction_table(support, prime, K)
    assert table.dtype == np.dtype(word)
    position = {x: i for i, x in enumerate(support)}
    idx = np.array([[[position[x] for x in row] for row in rows] for rows in batch])
    got = snf_valuations_array(mode, gather(table, idx), prime.p, K)
    for rows, layout, res in zip(batch, layouts, got):
        want = local_snf(LocalMatrix.of(ring, [[reduce_mod_prime_power(x, prime, K) for x in row]
                                               for row in rows]))
        assert res == _repeat(want, ring.f)
        assert max(want.valuations) > 0 or not layout


@pytest.mark.parametrize("f", [1, 2, 3])
@pytest.mark.parametrize("dtype", [np.int64, np.uint64, object])
@pytest.mark.parametrize("index", [np.uint8, np.intp])
def test_gather_matches_per_matrix_reference(f, dtype, index):
    # One fancy index gives each matrix's entries, and at f > 1 the f x f
    # blocks tiled in place (block (i, j) at rows i f.., columns j f..).
    rng = np.random.default_rng(f)
    table = rng.integers(0, 1 << 40, (30,) + (f, f) * (f > 1)).astype(dtype)
    idx = rng.integers(0, len(table), (5, 3, 4)).astype(index)
    if f == 1:
        want = np.stack([table[M] for M in idx])
    else:
        want = np.stack([np.block([[table[j] for j in row] for row in M]) for M in idx])
    got = gather(table, idx)
    assert got.dtype == table.dtype and got.shape == (5, 3 * f, 4 * f)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("f", [1, 2])
def test_gather_peak_memory_stays_under_twice_its_output(f):
    # No temporary the size of the batch: the cast of a uint8 index to intp
    # is buffered, and the blocks are not copied after the index.
    rng = np.random.default_rng(7)
    table = rng.integers(0, 1 << 40, (25,) + (f, f) * (f > 1))
    idx = rng.integers(0, len(table), (256, 12, 13)).astype(np.uint8)
    tracemalloc.start()
    try:
        out = gather(table, idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * out.nbytes


@pytest.mark.parametrize("mode, shape, p, K, bound", [
    ("mod2k", (64, 48, 48), 2, 8, 2.206),
    ("f2t", (64, 48, 48), 2, 8, 0.808),
    ("modpk", (256, 12, 12), 5, 8, 2.021),
], ids=["mod2k", "f2t", "modpk"])
def test_kernel_peak_memory_stays_under_its_pinned_multiple_of_the_batch(mode, shape, p, K, bound):
    # The loop packs the rows it sets aside in place and reads one row per
    # step, so no temporary outgrows the update's product. The bounds are
    # the peaks, in batch bytes, of the earlier whole-batch loop on these
    # batches.
    rng = np.random.default_rng(11)
    dtype = _word_dtype(mode, K, p)
    if mode == "f2t":  # a random bit in the low bit of each of K lanes of _lane_bits(K) bits
        w = _lane_bits(K)
        B = (rng.integers(0, 2, shape + (K,)) << np.arange(0, w * K, w)).sum(axis=-1).astype(dtype)
    else:
        B = rng.integers(0, p ** K, shape).astype(dtype)
    tracemalloc.start()
    try:
        snf._pivot_counts(mode, B, p, K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * B.nbytes


@pytest.mark.parametrize("p, K", [(3, 20), (3, 40), (5, 16), (5, 27)])
def test_modpk_wide_words_match_local_snf(p, K):
    # Past the int64 product limit (3^19 is the last power under it) modpk
    # runs in Montgomery uint64 words, up to the word-size cap
    # max_precision(p, 1) (3^40 > 2^63, so its residues do not fit int64).
    # The kernel reads residues as Montgomery words, which stand for the
    # matrix times the unit 2^-64: converting them first (times 2^64) gives
    # the same valuations.
    prime = factor_rational_prime(ZZ, p)[0]
    assert p ** K > _ODD_FAST_LIMIT and K <= max_precision(p, 1)
    support = _ints(prime, K)
    _, ring, table = reduction_table(support, prime, K)
    assert table.dtype == np.uint64
    reduced = [reduce_mod_prime_power(s, prime, K) for s in support]
    rng = random.Random(p * 100 + K)
    for _ in range(30):
        n, u = rng.randrange(1, 6), rng.randrange(3)
        idx = np.array([[rng.randrange(len(support)) for _ in range(n + u)] for _ in range(n)])
        want = local_snf(LocalMatrix.of(ring, [[reduced[j] for j in row] for row in idx.tolist()]))
        assert snf_valuations_array("modpk", table[idx], p, K) == want
        assert snf_valuations_array("modpk", _to_montgomery(table[idx], p ** K), p, K) == want


def _modpk_precisions(p):
    """K for the fuzz: small, the last int64 power, the first Montgomery power, the cap."""
    last_int64 = max(K for K in range(1, 64) if p ** K <= _ODD_FAST_LIMIT)
    return (1, 2, last_int64, last_int64 + 1, max_precision(p, 1))


# true with probability about 1/8: hypothesis favours the ends of a range, not 3
_ONE_IN_8 = st.integers(0, 7).map(lambda k: k == 3)


def _valuation(K):
    """The valuation of an entry at precision K, drawn apart from its unit:
    K, where the entry vanishes, in about one draw in 8, else 0 (a unit) or
    any v < K about equally often."""
    below = st.one_of(st.just(0), st.integers(0, K - 1))
    return _ONE_IN_8.flatmap(lambda top: st.just(K) if top else below)


def _int_entry(p, K):
    """c * p^v for a unit c (p does not divide c), small or up to p^K in size,
    and a valuation v from :func:`_valuation`; v = K is divisible by p^K."""
    unit = st.one_of(st.integers(-8, 8), st.integers(-(p ** K), p ** K)).map(
        lambda c: c if c % p else c + 1)
    return st.builds(lambda c, v: c * p ** v, unit, _valuation(K))


def _int_grid(draw, p, K, n, u, entry=None):
    """An n x (n + u) integer grid for Z/p^K of ``entry`` draws (by default
    :func:`_int_entry`), each row zeroed with probability about 1/8."""
    entry = _int_entry(p, K) if entry is None else entry
    rows = draw(st.lists(st.lists(entry, min_size=n + u, max_size=n + u), min_size=n, max_size=n))
    zero = draw(st.lists(_ONE_IN_8, min_size=n, max_size=n))
    return [[0] * (n + u) if z else row for z, row in zip(zero, rows)]


@st.composite
def _modpk_cases(draw):
    p = draw(st.sampled_from((3, 5, 7)))
    K = draw(st.sampled_from(_modpk_precisions(p)))
    n, u = draw(st.integers(1, 6)), draw(st.integers(0, 2))
    entry = _int_entry(p, K)
    if p ** K > _ODD_FAST_LIMIT:
        # Montgomery rungs: three entries in four are nonzero residues across
        # [1, p^K), so pivots, inverses and products see full-width words
        wide = st.integers(1, p ** K - 1)
        entry = st.integers(0, 3).flatmap(lambda k: wide if k else _int_entry(p, K))
    return p, K, _int_grid(draw, p, K, n, u, entry)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_modpk_cases())
def test_modpk_fuzz_matches_local_snf(case):
    # Any integer matrix, reduced into Z/p^K, gets the same valuations from
    # modpk on either side of the int64/Montgomery switch as from local_snf.
    # Residues past 2^63 come in as object arrays and are cast to uint64.
    p, K, rows = case
    ring = make_local_ring(p, 1, K, UNRAMIFIED)
    residues = [[x % p ** K for x in row] for row in rows]
    packed = make_scalar_matrix("modpk", residues)
    assert packed.dtype == (np.int64 if max(map(max, residues)) < 2 ** 63 else object)
    assert snf_valuations_array("modpk", packed, p, K) == local_snf(int_matrix(ring, rows))


# int64 moduli p^K with a budget of 1, 2 and 6 rank-1 updates between full
# reductions mod p^K, the last int64 rungs of 11, 7 and 3
_LAZY_MODULI = {(11, 9): 1, (7, 11): 2, (3, 19): 6}


@st.composite
def _lazy_cases(draw):
    p, K = draw(st.sampled_from(sorted(_LAZY_MODULI)))
    n, u = draw(st.integers(1, 6)), draw(st.integers(0, 2))
    return p, K, [_int_grid(draw, p, K, n, u) for _ in range(draw(st.integers(1, 3)))]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_lazy_cases())
def test_modpk_lazy_reduction_fuzz_matches_local_snf(case):
    # A budget of at most n updates runs out within a level, so the full
    # reduction fires between pivots, and in a batch whose matrices run out
    # of units at different steps.
    p, K, grids = case
    assert _reduction_budget(p ** K) == _LAZY_MODULI[p, K]
    ring = make_local_ring(p, 1, K, UNRAMIFIED)
    batch = np.array([[[x % p ** K for x in row] for row in rows] for rows in grids], np.int64)
    assert snf_valuations_array("modpk", batch, p, K) == [local_snf(int_matrix(ring, rows))
                                                           for rows in grids]


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_modpk_multiply_compare_unit_test(p):
    # x * p^-1 mod 2^64 > (2^64 - 1) // p exactly when p does not divide x,
    # for every int64 word: 0, multiples of p^K up to the largest below 2^63,
    # 2^63 - 1 and the words just below it; and for every uint64 word, on
    # the same points below 2^64, which the Montgomery words reach.
    for top, dtype in ((2 ** 63 - 1, np.int64), (2 ** 64 - 1, np.uint64)):
        words = {0, 1, p - 1, p, p + 1, *range(top - 2 * p, top + 1)}
        for K in range(1, 41):
            q = p ** K
            if q > top:
                break
            words |= {q, q - 1, q + 1, 3 * q, top // q * q, top // q * q - 1}
        words = sorted(w for w in words if 0 <= w <= top)
        want = [w % p != 0 for w in words]
        assert _units_p(np.array(words, dtype), p).tolist() == want


# the uniformizer's word: 2, 3, and t in lane 1 of the f2t lanes of K = 4
@pytest.mark.parametrize("mode, p, pi", [("mod2k", 2, 2), ("modpk", 3, 3), ("f2t", 2, 1 << _lane_bits(4))])
def test_kernel_makes_at_most_one_update_per_row_per_level(monkeypatch, mode, p, pi):
    # An update that clears nothing leaves every pivot row a unit row, yet
    # the loop visits each row once per level: it returns after at most one
    # update per row and level, the updates of a level counted from 0.
    # diag(1, pi, pi^2) sets rows aside to levels 1 and 2; the matrix of
    # ones has a unit in every row at level 0.
    units, scale, _, shift = snf._KERNELS[mode]
    calls = []
    monkeypatch.setitem(snf._KERNELS, mode, (
        units, scale, lambda B, col, row, p, prec, K, steps: calls.append((prec, steps)), shift))
    B = make_scalar_matrix(mode, [[[1, 0, 0, 0], [0, pi, 0, 0], [0, 0, pi * pi, 0]],
                                  [[1, 1, 1, 1]] * 3])
    snf_valuations_array(mode, B, p, 4)
    assert calls == [(4, 0), (4, 1), (4, 2), (3, 0), (2, 0)]


def test_modpk_shift_reduces_pending_updates():
    # Budgets count from residues, so the division by p at a level shift
    # first reduces what the updates of the level left pending: here 5 of
    # the 6 that 3^19 allows. The entries are congruent to 21, 0 and 0.
    m = 3 ** 19
    B = np.array([[[5 * m + 21, 3 * m, 0]]], np.int64)
    assert _shift_p(B, 3, 18, 19, 5).tolist() == [[[7, 0, 0]]]


def _to_montgomery(x, m):
    """The Montgomery words x 2^64 mod m of residues x: their Montgomery product with 2^128 mod m."""
    return _mont_mul(x, np.uint64((1 << 128) % m), m)


def _from_montgomery(x, m):
    """The residues x 2^-64 mod m of Montgomery words x: their Montgomery product with 1."""
    return _mont_mul(x, np.uint64(1), m)


# moduli of int64 words, 5^8, the last int64 power 3^19 and 11^9, on which the
# Montgomery arithmetic holds as well; and moduli of Montgomery words: the (2+i)
# cap 5^27, the Z cap 3^40 > 2^63, the square of the largest prime below 2^32,
# the largest prime below 2^64, and 65537, below the int64 product limit but
# past the inverse table limit
_MODULI = [(5, 27), (3, 40), (4294967291, 2), (2 ** 64 - 59, 1), (65537, 1), (5, 8), (3, 19),
           (11, 9)]


@pytest.mark.parametrize("p, K", _MODULI)
def test_montgomery_words_match_python_ints(p, K):
    # The words x R mod m (R = 2^64, m = p^K) against Python ints: conversion
    # in and out, the product, the multiply-compare unit test, the pivot
    # inverse, and the division of a multiple of p by p, which is the word of
    # x / p mod p^(K - 1).
    m, R = p ** K, 1 << 64
    rng = random.Random(K)
    xs = [0, 1, p - 1, p % m, m - 1, m - p, *(rng.randrange(m) for _ in range(300))]
    ys = [m - 1, m - 1, 1, m - 1, m - 1, 2, *(rng.randrange(m) for _ in range(300))]
    x, y = _to_montgomery(np.array(xs, np.uint64), m), _to_montgomery(np.array(ys, np.uint64), m)
    assert x.tolist() == [a * R % m for a in xs]
    assert _from_montgomery(x, m).tolist() == xs
    assert _from_montgomery(_mont_mul(x, y, m), m).tolist() == [a * b % m for a, b in zip(xs, ys)]
    assert _mont_mul(np.array(xs, np.uint64), np.array(ys, np.uint64), m).tolist() == [
        a * b * pow(R, -1, m) % m for a, b in zip(xs, ys)]
    assert _units_p(x, p).tolist() == [a % p != 0 for a in xs]
    # each unit times its inverse is 1, and each non-unit gets 0
    want = [int(a % p != 0) for a in xs]
    inv = _from_montgomery(_batch_inverse(x, p, K), m)
    assert [a * b % m if a % p else b for a, b in zip(xs, inv.tolist())] == want
    assert _batch_inverse(np.array([0, p % m, m - p], np.uint64), p, K).tolist() == [0, 0, 0]
    assert _batch_inverse(np.array([], np.uint64), p, K).tolist() == []
    if K > 1:
        multiples = _to_montgomery(np.array([a * p % m for a in xs], np.uint64), m)
        shifted = _shift_p(multiples[None, None], p, K - 1, K, 1).ravel()
        assert _from_montgomery(shifted, m // p).tolist() == [a % (m // p) for a in xs]


def _rank_mod(rows, p):
    """Rank of an integer grid over F_p, by Gaussian elimination in Python ints."""
    rows, rank = [[x % p for x in row] for row in rows], 0
    for j in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][j], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                c = rows[i][j] * inv % p
                rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_modpk_kernel_at_the_largest_prime_below_2_64():
    # At K = 1 the Montgomery words of F_p for p = 2^64 - 59 give one
    # valuation 0 per unit of rank and saturate the rest. (The ring itself
    # is out of reach of local_snf: building it would factor p, which is past
    # the limit of trial division.)
    p = 2 ** 64 - 59
    rng = random.Random(3)
    batch = []
    for t in range(24):
        n, u = 4, t % 3
        rows = [[rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(n + u)]
                for _ in range(n)]
        if t % 2:  # row 3 a combination of rows 0 and 1: rank at most 3
            a, b = rng.randrange(p), rng.randrange(p)
            rows[3] = [(a * x + b * y) % p for x, y in zip(rows[0], rows[1])]
        batch.append(rows)
    for rows in batch:
        r, n = _rank_mod(rows, p), len(rows)
        want = SnfResult((0,) * r + (1,) * (n - r), r < n)
        assert snf_valuations_array("modpk", make_scalar_matrix("modpk", rows), p, 1) == want
    assert any(_rank_mod(rows, p) < 4 for rows in batch)


@pytest.mark.parametrize("p, f", [(3, 1), (5, 1), (7, 1), (11, 1), (17, 1), (31, 1), (32749, 1),
                                  (32771, 1), (1000003, 1), (3, 2)])
def test_modpk_words_are_machine_words_up_to_the_cap(p, f):
    # No modpk rung of an accepted prime runs in object words: int64 up to
    # the product limit while p has an inverse table (p <= 2^15, so 32749
    # does and 32771 and 1000003 never do), Montgomery uint64 words from
    # there to the cap; p^K past 2^64 is refused.
    for K in range(1, max_precision(p, f) + 1):
        fast = p ** K <= _ODD_FAST_LIMIT and p <= 1 << 15
        assert _word_dtype("modpk", K, p) == (np.int64 if fast else np.uint64)
    with pytest.raises(ParameterError, match="64-bit word"):
        _word_dtype("modpk", max_precision(p, 1) + 1, p)


@st.composite
def _mod2k_cases(draw):
    K = draw(st.sampled_from((1, 2, 7, 8, 9, 16, 17, 32, 33, 64)))  # each word, below and at its width
    n, u = draw(st.integers(1, 6)), draw(st.integers(0, 2))
    return K, _int_grid(draw, 2, K, n, u)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_mod2k_cases())
def test_mod2k_fuzz_matches_local_snf(case):
    # Any integer matrix, reduced into Z/2^K, gets the same valuations from
    # mod2k as from local_snf; small ones also the 2-part of their integer
    # Smith form, truncated at K (a zero divisor saturates).
    K, rows = case
    got = snf_valuations_array("mod2k", make_scalar_matrix("mod2k", [[x % 2 ** K for x in row]
                                                                     for row in rows]), 2, K)
    assert got == local_snf(int_matrix(make_local_ring(2, 1, K, UNRAMIFIED), rows))
    if len(rows) <= 4 and all(abs(x) <= 64 for row in rows for x in row):
        parts = p_part_of_divisors(integer_snf_oracle(rows), 2)
        if parts is None:
            assert got.saturated
        else:
            full = sorted(parts + (0,) * (len(rows) - len(parts)))
            assert got == SnfResult(tuple(min(v, K) for v in full), max(full) >= K)


@st.composite
def _f2t_cases(draw):
    K = draw(st.sampled_from((1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 64)))  # around each lane word
    n, u = draw(st.integers(1, 6)), draw(st.integers(0, 2))
    # coefficient bits of t^v * unit, truncated to t^K (v = K is zero)
    entry = st.builds(lambda c, v: (c | 1) << v & (2 ** K - 1), st.integers(0, 2 ** K - 1),
                      _valuation(K))
    rows = draw(st.lists(st.lists(entry, min_size=n + u, max_size=n + u), min_size=n, max_size=n))
    zero = draw(st.lists(_ONE_IN_8, min_size=n, max_size=n))
    return K, [[0] * (n + u) if z else row for z, row in zip(zero, rows)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_f2t_cases())
def test_f2t_fuzz_matches_local_snf(case):
    # Any matrix over F_2[[t]]/t^K, packed into lane-spread words (lanes of
    # 1 to 4 bits in uint8 to uint64, of 5 or 6 bits in Python ints past
    # K = 16), gets the same valuations from f2t as from local_snf.
    K, rows = case
    ring = make_local_ring(2, 1, K, EQUAL_CHAR)
    grid = [[LocalElement(ring, tuple(x >> s & 1 for s in range(K))) for x in row] for row in rows]
    packed = make_scalar_matrix("f2t", [[element_to_scalar("f2t", x) for x in row] for row in grid])
    assert snf_valuations_array("f2t", packed, 2, K) == local_snf(LocalMatrix.of(ring, grid))


def _geometric_ladder(prime, policy, start=8):
    """min(start, cap), doubled up to the cap (k_max or the word-size cap), no rung dropped."""
    cap = min(policy.k_max, max_precision(prime.p, prime.f))
    ladder = [min(start, cap)]
    while ladder[-1] < cap:
        ladder.append(min(2 * ladder[-1], cap))
    return tuple(ladder)


def _ladder_reference(rows, prime, policy):
    """The rows of cokernel_rows at one prime for one grid, rung by rung with
    local_snf on the unpruned geometric ladder: the partition, or the
    SnfResult at the cap when the grid is saturated at every rung."""
    for K in _geometric_ladder(prime, policy):
        ring = local_ring_for(prime, K)
        res = local_snf(LocalMatrix.of(ring, [[reduce_mod_prime_power(x, prime, K) for x in row]
                                              for row in rows]))
        if not res.saturated:
            return tuple(sorted((v for v in res.valuations if v), reverse=True))
    return res


# the primes of the two driver fuzzes, and the conjugate pair (2+i), (2-i)
_FUZZ_PRIMES = (PX, ZI3, ZI7, PX2, PX3, ZI17, ZI_RAM, F3X, ZI5, ZI5.conjugate())


@st.composite
def _driver_cases(draw, primes):
    """A batch of 1 to 3 grids and 1 to 3 distinct primes of one domain: the
    first drawn from primes, the others from _FUZZ_PRIMES, in any order.
    Each entry is c times each prime's uniformizer to a power of up to 3,
    or in about one draw in 8 to a rung K of its ladder, where it reduces to
    zero; about one row in 8 of the first grid vanishes at the cap of one
    prime. Over Z[i], in about half the cases c is a rational integer and
    so is each uniformizer, p for pi, and (2+i) and (2-i), which then lower
    alike, are among the primes."""
    first = draw(st.sampled_from(primes))
    rational = first.domain == ZI and draw(st.booleans())
    chosen = list(dict.fromkeys([first, *((ZI5, ZI5.conjugate()) if rational else ())]))
    others = [pr for pr in _FUZZ_PRIMES if pr.domain == first.domain and pr not in chosen]
    extra = draw(st.lists(st.sampled_from(others), max_size=3 - len(chosen), unique=True)
                 if others else st.just([]))
    primes = draw(st.permutations(chosen + extra))
    policy = draw(st.sampled_from((PrecisionPolicy(4), PrecisionPolicy(16), DEFAULT_POLICY)))
    ladders = [_geometric_ladder(prime, policy) for prime in primes]
    if first.domain == ZI:
        cofactor = st.builds(gauss_elem, st.integers(-9, 9),
                             st.just(0) if rational else st.integers(-9, 9)).filter(
            lambda c: c.value != (0, 0))
    else:
        cofactor = st.builds(lambda cs: poly_elem(first.p, [1] + cs),
                             st.lists(st.integers(0, first.p - 1), max_size=4))

    def times_pi(c, powers):
        for prime, v in zip(primes, powers):
            for _ in range(v):
                c = elem_mul(c, gauss_elem(prime.p, 0) if rational else prime.generator)
        return c

    rungs = [_ONE_IN_8.flatmap(lambda top, ladder=ladder: st.sampled_from(ladder) if top
                               else st.integers(0, 3)) for ladder in ladders]
    entry = st.builds(times_pi, cofactor, st.tuples(*rungs))
    n, u = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    grid = st.lists(st.lists(entry, min_size=n + u, max_size=n + u), min_size=n, max_size=n)
    grids = draw(st.lists(grid, min_size=1, max_size=3))
    zero = draw(st.lists(_ONE_IN_8, min_size=n, max_size=n))
    deep = draw(st.sampled_from(primes))  # the prime at whose cap the zero rows vanish
    zero_elem = times_pi(draw(cofactor), [ladder[-1] * (prime == deep)
                                          for prime, ladder in zip(primes, ladders)])
    grids[0] = [[zero_elem] * (n + u) if z else row for z, row in zip(zero, grids[0])]
    return primes, policy, grids


def _local_result(rows, prime, K):
    """local_snf of a grid of domain Elements reduced at precision K."""
    return local_snf(LocalMatrix.of(local_ring_for(prime, K), [
        [reduce_mod_prime_power(x, prime, K) for x in row] for row in rows]))


def _gauss_rational(x):
    """A Z or Z[i] Element as a pair of Fractions, its real and imaginary parts."""
    assert x.domain in (ZZ, ZI)
    a, b = x.value if x.domain == ZI else (x.value, 0)
    return Fraction(a), Fraction(b)


def _rank(rows) -> int:
    """The exact rank over Q or Q(i) of a grid of Z or Z[i] Elements, by
    Gaussian elimination in Fractions."""
    def mul(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]
    A = [[_gauss_rational(x) for x in row] for row in rows]
    rank = 0
    for j in range(len(A[0])):
        pivot = next((i for i in range(rank, len(A)) if any(A[i][j])), None)
        if pivot is None:
            continue
        A[rank], A[pivot] = A[pivot], A[rank]
        a, b = A[rank][j]
        inverse = a / (a * a + b * b), -b / (a * a + b * b)
        for i in range(rank + 1, len(A)):
            factor = mul(A[i][j], inverse)
            A[i] = [(x[0] - y[0], x[1] - y[1])
                    for x, y in zip(A[i], (mul(factor, z) for z in A[rank]))]
        rank += 1
    return rank


def _result_counts(res, K, width):
    """The counts per level below K of an SnfResult at K, zeros up to width."""
    return [res.valuations.count(v) * (v < K) for v in range(width)]


def _check_counts(counts, rows, want, prime=None, policy=DEFAULT_POLICY):
    """A row of cokernel_rows against the local_snf ladder's outcome for its
    grid: a settled row sums to n and gives the partition; a saturated one
    (an indeterminate matrix) holds the counts per level of the SnfResult
    at the cap over the prime's own ring or, when the grid is singular over
    the fraction field (exact rank over Q or Q(i)), those at the first rung
    of the prime's ladder."""
    if not isinstance(want, SnfResult):
        assert sum(counts) == len(rows) and counts_partition(counts) == want
        return
    assert sum(counts) < len(rows)
    if counts != _result_counts(want, len(counts), len(counts)):
        assert prime is not None and _rank(rows) < len(rows)
        K = escalation_ladder(prime, policy)[0]
        assert counts == _result_counts(_local_result(rows, prime, K), K, len(counts))


def _check_driver_batch(case):
    """cokernel_rows on a batch of grids gives one array per prime, with one
    row per grid as wide as the prime's cap. A grid's row matches the
    local_snf ladder (:func:`_check_counts`: the cap's counts, or the first
    rung's for a singular grid) while the grid is settled at every earlier
    prime, and is zeros after a prime where it is not."""
    primes, policy, grids = case
    support = tuple(dict.fromkeys(x for rows in grids for row in rows for x in row))
    position = {x: i for i, x in enumerate(support)}
    idx = np.array([[[position[x] for x in row] for row in rows] for rows in grids])
    got = cokernel_rows(idx, support, primes, policy)
    assert len(got) == len(primes)
    settled = [True] * len(grids)
    for prime, counts in zip(primes, got):
        assert counts.dtype == np.int64
        assert counts.shape == (len(grids), _geometric_ladder(prime, policy)[-1])
        for t, (rows, row) in enumerate(zip(grids, counts.tolist())):
            if not settled[t]:
                assert not any(row)
                continue
            want = _ladder_reference(rows, prime, policy)
            _check_counts(row, rows, want, prime, policy)
            settled[t] = not isinstance(want, SnfResult)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_driver_cases((PX, ZI3, ZI7, PX2, PX3, ZI17, ZI5, ZI5.conjugate())))
def test_lowered_driver_fuzz_matches_local_snf_ladder(case):
    # The cokernel driver on f2t at (x), on the primes of residue degree
    # f > 1 that lower onto modpk and f2t, at (4+i), whose ladder starts at
    # 7, and at (2+i) and (2-i), which share one pass when the entries are
    # rational, gives, for a batch of matrices at several primes, the
    # partitions of the local_snf ladder, for an indeterminate matrix the
    # counts of its SnfResult at the cap (every f-th valuation over the base
    # ring), and zeros at the primes after it.
    _check_driver_batch(case)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_driver_cases((ZI_RAM, F3X)))
def test_generic_driver_fuzz_matches_local_snf_ladder(case):
    # The same with the generic path at the ramified (1+i) or at (x) of
    # F_3[x], where each row is the bincount of the local_snf valuations,
    # beside the lowered Z[i] primes.
    _check_driver_batch(case)


def _wide_rung(prime, K):
    """Whether the kernel of the prime's ring runs precision K in its wide
    words: modpk in Montgomery words past the int64 product limit or past
    p = 2^15, where no inverse table serves int64 words, f2t in object words
    past K = 16, whose 16 lanes of 4 bits fill a uint64 word."""
    mode = matrix_mode(local_ring_for(prime, K))
    if mode == MODE_MODPK:
        return prime.p ** K > _ODD_FAST_LIMIT or prime.p > 1 << 15
    return mode == "f2t" and K > 16


def _narrow_start(prime, policy):
    """The largest K <= min(8, cap) that is not a wide rung, else min(8, cap);
    for f2t, the largest whose K lanes of _lane_bits(K) bits fit one byte."""
    top = min(8, policy.k_max, max_precision(prime.p, prime.f))
    f2t = matrix_mode(local_ring_for(prime, top)) == "f2t"
    return next((K for K in range(top, 0, -1)
                 if not _wide_rung(prime, K) and (not f2t or K * _lane_bits(K) <= 8)), top)


_LADDER_PRIMES = (P3, ZI5, ZI3, ZI7, P2, PX, PX2, PX3, ZI_RAM, F3X, ZI17)


@pytest.mark.parametrize("policy, ladders", [
    (DEFAULT_POLICY, [(8, 16, 40), (8, 27), (8, 16, 20), (8, 11), (8, 16, 32, 64), (4, 8, 16, 64),
                      (4, 8, 16, 32), (4, 8, 16, 21), (8, 16, 32, 64), (8, 16, 32, 40), (7, 15)]),
    (PrecisionPolicy(4), [(4,)] * 11),
    (PrecisionPolicy(16), [(8, 16)] * 3 + [(8, 11), (8, 16)] + [(4, 8, 16)] * 3 + [(8, 16)] * 2
     + [(7, 15)]),
    (PrecisionPolicy(40), [(8, 16, 40), (8, 27), (8, 16, 20), (8, 11), (8, 16, 32, 40),
                           (4, 8, 16, 40), (4, 8, 16, 32), (4, 8, 16, 21), (8, 16, 32, 40),
                           (8, 16, 32, 40), (7, 15)]),
], ids=["default", "cap-4", "cap-16", "cap-40"])
def test_escalation_ladders_are_pinned(policy, ladders):
    # Each ladder starts at min(8, cap), or at (4+i) at 7, the largest K
    # whose word 17^K is not wide, or for F_2[x] primes at 4, the largest K
    # whose 2-bit lanes fit one byte, and doubles up to the cap, k_max or the
    # prime's word-size cap (40 at 3, 27 at (2+i), 20 at (3), 11 at (7), 32
    # at (x^2+x+1), 21 at (x^3+x+1), 40 at (x) of F_3[x], 15 at (4+i)), less
    # the wide rungs below the cap.
    assert [escalation_ladder(prime, policy) for prime in _LADDER_PRIMES] == ladders


@pytest.mark.parametrize("p, ladder", [(13, (8, 17)), (17, (7, 15)), (19, (7, 15)),
                                       (23, (6, 14)), (31, (6, 12)), (65537, (3,))])
def test_modpk_ladders_start_on_an_int64_rung(p, ladder):
    # Past 13^8 the ladder starts at the largest K whose p^K fits an int64
    # word, not at the Montgomery cap; past p = 2^15 every rung is wide.
    assert escalation_ladder(factor_rational_prime(ZZ, p)[0], DEFAULT_POLICY) == ladder


def test_escalation_ladder_keeps_one_object_rung():
    # modpk and f2t ladders keep every narrow-word rung of the geometric
    # ladder from their narrow start and, of its wide rungs (Montgomery
    # words for modpk, object words for f2t), only the cap; mod2k and
    # generic ladders are whole.
    for policy in (DEFAULT_POLICY, PrecisionPolicy(4), PrecisionPolicy(16), PrecisionPolicy(40)):
        for prime in _LADDER_PRIMES:
            full = _geometric_ladder(prime, policy, _narrow_start(prime, policy))
            ladder = escalation_ladder(prime, policy)
            wide = [K for K in ladder if _wide_rung(prime, K)]
            assert ladder[-1] == full[-1] and wide in ([], [full[-1]])
            assert [K for K in ladder if K not in wide] == [K for K in full
                                                            if not _wide_rung(prime, K)]


# (p, K) of every int64 modpk rung of the ladder primes and of Z at p = 17,
# 19, 23 and 31, and of the int64 moduli of the Montgomery and
# lazy-reduction tests
_INT64_RUNGS = sorted({(prime.p, K) for prime in (*_LADDER_PRIMES, *(
                           factor_rational_prime(ZZ, p)[0] for p in (17, 19, 23, 31)))
                       for K in escalation_ladder(prime, DEFAULT_POLICY)
                       if matrix_mode(local_ring_for(prime, K)) == MODE_MODPK
                       and not _wide_rung(prime, K)}
                      | {(p, K) for p, K in [*_MODULI, *_LAZY_MODULI]
                         if _word_dtype("modpk", K, p) == np.int64})


@pytest.mark.parametrize("p, K", _INT64_RUNGS)
def test_int64_pivot_inverses_match_python_ints(monkeypatch, p, K):
    # On int64 words the pivot inverses at every precision of a rung are
    # those of pow(., -1, p^prec), read from the table of inverses mod p^h,
    # h the largest at most ceil(K/2) with p^h <= 2^15, and lifted by Newton
    # rounds, for unreduced pivots and rows; non-units give 0. The
    # Python-int batch inverse never runs on int64 words.
    calls = []
    monkeypatch.setattr(snf, "_batch_inverse", lambda *args: calls.append(args) or _batch_inverse(*args))
    rng = random.Random(p * 100 + K)
    for prec in range(1, K + 1):
        m = p ** prec
        xs = [0, 1, p % m, m - p, m - 1, *(rng.randrange(m) for _ in range(200))]
        high = [rng.randrange((1 << 62) // m) * m for _ in xs]  # unreduced sums
        rs = [rng.randrange(1 << 62) for _ in xs]
        a = np.array([x + h for x, h in zip(xs, high)], np.int64)
        row = np.array([[1, r] for r in rs], np.int64)
        inv = [pow(x, -1, m) if x % p else 0 for x in xs]
        assert snf._scale_pk(row, a, p, prec, K).tolist() == [[y, r * y % m] for y, r in zip(inv, rs)]
        assert snf._scale_pk(np.ones((0, 2), np.int64), a[:0], p, prec, K).tolist() == []
    assert not calls


def _clmul(a, b, prec):
    """The carryless product of bit-packed polynomials over F_2 mod t^prec."""
    out = a * 0
    for s in range(prec):
        out ^= (a >> s & 1) * (b << s)
    return out & (1 << prec) - 1


def _check_f2t_inverses(codes, prec, K, dtype):
    """_scale_f2t at precision prec of a rung at K, on the pivots with the
    given bit-packed codes (int64 or object) and the rows [1, pivot], in
    words of dtype: unit pivots (odd codes) give their inverse mod t^prec,
    spread into the first prec lanes, and 1; the others give 0 and 0."""
    w = _lane_bits(K)
    spread = lambda x: sum((x >> s & 1) << w * s for s in range(prec))
    a = spread(codes).astype(dtype)
    y, ay = snf._scale_f2t(np.stack([np.ones_like(a), a], axis=1), a, 2, prec, K).T.astype(codes.dtype)
    y_codes = sum((y >> w * s & 1) << s for s in range(prec))
    unit = codes & 1
    assert np.array_equal(spread(y_codes), y) and np.array_equal(ay, unit)
    assert np.array_equal(_clmul(codes, y_codes, prec), unit) and not np.any(y[unit == 0])


@pytest.mark.parametrize("K", range(1, 17))
def test_f2t_pivot_inverses_of_every_unit(K):
    # In the rung's lanes of _lane_bits(K) bits, every residue of
    # F_2[t]/t^prec at every precision of the rung scales its row by its
    # carryless Newton inverse (checked by an independent carryless
    # product), and a non-unit scales it by 0.
    for prec in range(1, K + 1):
        _check_f2t_inverses(np.arange(1 << prec), prec, K, _word_dtype("f2t", K, 2))


def test_f2t_pivot_inverses_in_object_words():
    # At the f2t cap K = 64 words are Python ints with 6-bit lanes: a seeded
    # sample at every precision, with 1, 1 + t^(prec - 1), all ones and 0.
    rng = random.Random(64)
    for prec in range(1, 65):
        codes = [1, 1 | 1 << prec - 1, (1 << prec) - 1, 0,
                 *(rng.randrange(1 << prec) for _ in range(40))]
        _check_f2t_inverses(np.array(codes, object), prec, 64, object)


def test_f2t_lane_bits_are_the_fewest_that_hold_a_rung():
    assert [_lane_bits(K) for K in range(1, 65)] == [
        min(w for w in range(1, 7) if K <= 2 ** w) for K in range(1, 65)]


@pytest.mark.parametrize("K", [2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64])
def test_f2t_lane_products_match_carryless_products(K):
    # At the first and the last K of each lane width w, and at every
    # precision of the rung, the masked product of two words is the spread
    # carryless product: for all-ones operands, whose lane s sums s + 1
    # terms, up to 2^w at the top lane of prec = K = 2^w, and for random
    # words. Only that top lane's carry leaves its lane, into masked lanes.
    w, dtype = _lane_bits(K), _word_dtype("f2t", K, 2)
    rng = random.Random(K)
    for prec in range(1, K + 1):
        codes = [(1 << prec) - 1, *(rng.randrange(1 << prec) for _ in range(8))]
        spread = [sum((x >> s & 1) << w * s for s in range(prec)) for x in codes]
        a = np.array(spread, dtype)
        got = a[:, None] * a[None, :] & snf._f2t_lanes(K, prec)
        assert got.dtype == dtype and got.tolist() == [
            [sum((_clmul(x, y, prec) >> s & 1) << w * s for s in range(prec)) for y in codes]
            for x in codes]


@pytest.mark.parametrize("prime, elem, twenty, first_rows", [
    (ZI5, gauss_elem, gauss_elem(5 ** 20, 0), 3),
    (P3, lambda a, b: int_elem(a + 2 * b), int_elem(3 ** 20), 3),
    (PX, lambda a, b: poly_elem(2, [a, b]), poly_elem(2, [0] * 20 + [1]), 0),
], ids=["zi-(2+i)", "z-3", "fx-(x)"])
def test_pruned_ladder_matches_geometric_reference(prime, elem, twenty, first_rows):
    # Entries of valuation between the last fast-word rung and the cap,
    # such as p^20 or x^20, settle at the cap instead of at a dropped wide
    # rung, with the partition of the whole ladder; singular matrices stay
    # indeterminate, with the cap's counts or, over Z and Z[i] when their
    # first rungs prove them singular, the first rung's (in 3 of the 24
    # grids their rows differ). The error names the lowest rung K with no
    # pivot at or above K, and carries local_snf's result there.
    full = _geometric_ladder(prime, DEFAULT_POLICY, _narrow_start(prime, DEFAULT_POLICY))
    cap, last_int64 = full[-1], max(K for K in full if not _wide_rung(prime, K))
    assert len(escalation_ladder(prime, DEFAULT_POLICY)) < len(full)

    def times_pi(x, v):
        for _ in range(v):
            x = elem_mul(x, prime.generator)
        return x

    rng = random.Random(7)
    deep = (last_int64 + 1, (last_int64 + cap) // 2, cap - 1)
    n, settled_deep, first_rung = 3, 0, 0
    for u in (0, 1):
        grids = []
        for k in range(12):
            rows = [[times_pi(elem(rng.randrange(-2, 3), rng.randrange(-2, 3)),
                              rng.choice((0, 1) + deep)) for _ in range(n + u)] for _ in range(n)]
            if k % 3 == 1:  # upper triangular, diagonal 1, p^20 and pi^v past the word rungs
                for i in range(n):
                    rows[i][:i] = [elem(0, 0)] * i
                rows[0][0], rows[1][1] = elem(1, 0), twenty
                rows[2][2] = times_pi(elem(1, 0), deep[k // 3 % 3])
            elif k % 3 == 2:  # singular: a zero row or a repeated row
                rows[2] = [elem(0, 0)] * (n + u) if k % 2 else list(rows[0])
            grids.append(rows)
        support = tuple(dict.fromkeys(x for rows in grids for row in rows for x in row))
        position = {x: i for i, x in enumerate(support)}
        idx = np.array([[[position[x] for x in row] for row in rows] for rows in grids])
        (got,) = cokernel_rows(idx, support, (prime,), DEFAULT_POLICY)
        assert got.shape == (len(grids), cap)
        for rows, counts in zip(grids, got.tolist()):
            want = _ladder_reference(rows, prime, DEFAULT_POLICY)
            _check_counts(counts, rows, want, prime)
            if not isinstance(want, SnfResult):
                settled_deep += max(want, default=0) > last_int64
                continue
            K = next(K for K in escalation_ladder(prime, DEFAULT_POLICY) if not any(counts[K:]))
            with pytest.raises(IndeterminateCokernelError, match=f"K={K}$") as exc:
                cokernel_local_type(rows, prime)
            assert exc.value.last_result == _local_result(rows, prime, K)
            first_rung += counts != _result_counts(want, cap, cap)
    assert settled_deep >= 8 and first_rung == first_rows


def _unimodular(rng, n, elem, units):
    """A permutation matrix with the units as its nonzero entries after a few
    row operations row_i += c row_j: its determinant is a unit."""
    perm = rng.sample(range(n), n)
    U = [[rng.choice(units) if j == perm[i] else elem(0, 0) for j in range(n)] for i in range(n)]
    for _ in range(rng.randrange(3) if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = elem(rng.randrange(-2, 3), rng.randrange(-2, 3))
        U[i] = [elem_add(x, elem_mul(c, y)) for x, y in zip(U[i], U[j])]
    return U


_CERTIFICATE_PRIMES = ((P3,), (P2, P3), (P5, P2),
                       (ZI5, ZI5.conjugate()), (ZI5,), (ZI3,), (ZI_RAM, ZI5))


def _certificate_grids(rng, primes, n, u):
    """Six grids over the primes' domain, one of each kind: a zero row, a
    repeated row, a combination of two rows with large cofactors (singular,
    each of the three), p^8 times a unimodular matrix, with p the first
    prime's rational prime (nonsingular, saturated at its first rung), and
    two with small random entries."""
    elem = gauss_elem if primes[0].domain == ZI else (lambda a, b: int_elem(a + 2 * b))

    def small():
        return elem(rng.randrange(-3, 4), rng.randrange(-3, 4))

    def grid():
        return [[small() for _ in range(n + u)] for _ in range(n)]
    zero, repeated, combo = grid(), grid(), grid()
    zero[rng.randrange(n)] = [elem(0, 0)] * (n + u)
    if n > 1:
        repeated[-1] = list(repeated[0])
        x, y = elem(rng.randrange(100, 999), 0), elem(0, rng.randrange(100, 999))
        combo[-1] = [elem_add(elem_mul(x, a), elem_mul(y, b)) for a, b in zip(combo[0], combo[1])]
    scale = elem(primes[0].p ** 8, 0)
    units = [gauss_elem(*z) for z in ((1, 0), (-1, 0), (0, 1), (0, -1))] if primes[0].domain == ZI \
        else [int_elem(1), int_elem(-1)]
    unimodular = _unimodular(rng, n, elem, units)
    deep = [[elem_mul(scale, x) for x in row] + [elem(0, 0)] * u for row in unimodular]
    return [zero, repeated, combo, deep, grid(), grid()]


def test_singular_certificate_matches_exact_rank(monkeypatch):
    # cokernel_rows proves a matrix singular from its first-rung rows only
    # when it is: every certified grid has rank < n over Q or Q(i) (exact
    # Fraction elimination), every grid with a zero row is certified, and
    # p^8 times a unimodular matrix, nonsingular and saturated at its first
    # rung, is not (its bound is met with equality at a signed permutation)
    # and climbs to its partition (8, ..., 8), or (16, ..., 16) at the
    # ramified (1+i). Every row matches the
    # local_snf ladder. The certificate fires on 256 of the 840 grids, of
    # the 311 singular ones; the rest, such as combinations of rows with
    # cofactors in the hundreds, climb to the cap.
    certified = []
    real = snf._certified_singular

    def record(idx, support, primes, policy, first):
        proved = real(idx, support, primes, policy, first)
        certified.extend(tuple(map(tuple, M)) for M in idx[proved].tolist())
        return proved
    monkeypatch.setattr(snf, "_certified_singular", record)
    rng = random.Random(23)
    fired = singular = 0
    for case in range(20):
        for primes in _CERTIFICATE_PRIMES:
            n, u = rng.randrange(1, 5), rng.choice((0, 0, 1, 2))
            grids = _certificate_grids(rng, primes, n, u)
            support = tuple(dict.fromkeys(x for rows in grids for row in rows for x in row))
            position = {x: i for i, x in enumerate(support)}
            idx = np.array([[[position[x] for x in row] for row in rows] for rows in grids])
            del certified[:]
            got = cokernel_rows(idx, support, primes, DEFAULT_POLICY)
            proved = [tuple(map(tuple, M)) in certified for M in idx.tolist()]
            fired += sum(proved)
            assert proved[0] and not proved[3]
            ranks = [_rank(rows) for rows in grids]
            assert all(rank < n for rank, was in zip(ranks, proved) if was)
            singular += sum(rank < n for rank in ranks)
            settled = [True] * len(grids)
            for prime, counts in zip(primes, got):
                for t, (rows, row) in enumerate(zip(grids, counts.tolist())):
                    if not settled[t]:
                        assert not any(row)
                        continue
                    want = _ladder_reference(rows, prime, DEFAULT_POLICY)
                    _check_counts(row, rows, want, prime)
                    settled[t] = not isinstance(want, SnfResult)
                    if t == 3:
                        assert want == ((8 * prime.e,) * n if prime.p == primes[0].p else ())
    assert (fired, singular) == (256, 311)


def test_the_bound_met_with_equality_does_not_certify():
    # [5^8] at (2+i) and (2-i): both first-rung rows are saturated at K = 8,
    # so the product 5^8 5^8 meets H^2 = N(5^8) = 5^16 with equality, which
    # does not certify; the matrix climbs and settles as (8,) at both primes.
    primes = (ZI5, ZI5.conjugate())
    support, idx = (gauss_elem(5 ** 8, 0),), np.zeros((1, 1, 1), np.int64)
    first = [np.array([[0] * 27]), np.array([[0] * 27])]
    assert not snf._certified_singular(idx, support, primes, DEFAULT_POLICY, first)[0]
    assert snf._certified_singular(idx, (gauss_elem(5 ** 8 - 1, 0),), primes, DEFAULT_POLICY, first)[0]
    assert cokernel_type([[support[0]]], primes) == ModuleType.of({pr: (8,) for pr in primes})
    assert [counts.tolist() for counts in cokernel_rows(idx, support, primes, DEFAULT_POLICY)] == [
        [[0] * 8 + [1] + [0] * 18]] * 2


def test_residue_degree_f_entries_lower_to_blocks():
    # 1+2i at (3): columns (1+2i)*1 = 1+2i and (1+2i)*i = -2+i, mod 3^4
    x = reduce_mod_prime_power(gauss_elem(1, 2), ZI3, 4)
    assert element_block("modpk", x) == [[1, 79], [2, 1]]
    # x at (x^2+x+1): x*x = 1 + x + g, so its first coordinate is 1 + t, in
    # lanes 0 and 1 of 2 bits at K = 4
    y = reduce_mod_prime_power(poly_elem(2, [0, 1]), PX2, 4)
    assert element_block("f2t", y) == [[0, 0b101], [1, 1]]
    # the lanes widen with K: 3 bits up to K = 8, 4 up to 16, 5 up to 32
    for K, w in ((5, 3), (8, 3), (9, 4), (16, 4), (17, 5)):
        assert element_block("f2t", reduce_mod_prime_power(poly_elem(2, [0, 1]), PX2, K)) == [
            [0, 1 | 1 << w], [1, 1]]
    # a packed scalar would drop coordinates, so it is refused
    for mode, z in (("modpk", x), ("f2t", y)):
        with pytest.raises(ParameterError, match="residue degree 2"):
            element_to_scalar(mode, z)


def test_make_scalar_matrix_word_follows_entries():
    assert make_scalar_matrix("modpk", [[1, 2 ** 63 - 1]]).dtype == np.int64
    wide = make_scalar_matrix("modpk", [[1, 3 ** 40 - 1]])
    assert wide.dtype == object and wide[0, 1] == 3 ** 40 - 1
    assert make_scalar_matrix("mod2k", [[1, 2 ** 64 - 1]]).dtype == np.uint64
    # f2t words of more than 16 lanes pass uint64
    assert make_scalar_matrix("f2t", [[1, 1 << 60]]).dtype == np.uint64
    assert make_scalar_matrix("f2t", [[1, 1 << 6 * 31]]).dtype == object


@pytest.mark.parametrize("K", [8, 16, 32, 64])
def test_f2t_scalar_packing_matches_local_snf(K):
    # The packing path of perfbench/replay.py: element_to_scalar words through
    # make_scalar_matrix into one table, indexed per matrix and handed to
    # snf_valuations_array as 2-D packed words, which are uint64 up to K = 16
    # and exact ints past it.
    support = _polys(PX, K)
    reduced = [reduce_mod_prime_power(s, PX, K) for s in support]
    table = make_scalar_matrix("f2t", [element_to_scalar("f2t", x) for x in reduced]).ravel()
    assert table.dtype == (np.uint64 if K <= 16 else object)
    ring = local_ring_for(PX, K)
    rng = random.Random(K)
    for _ in range(30):
        n, u = rng.randrange(1, 6), rng.randrange(3)
        idx = np.array([[rng.randrange(len(support)) for _ in range(n + u)] for _ in range(n)])
        want = local_snf(LocalMatrix.of(ring, [[reduced[j] for j in row] for row in idx.tolist()]))
        assert snf_valuations_array("f2t", table[idx], 2, K) == want
    # a batch of 40 matrices spans several slices of the rank-1 update
    idx = np.array([[[rng.randrange(len(support)) for _ in range(5)] for _ in range(4)]
                    for _ in range(40)])
    assert snf_valuations_array("f2t", table[idx], 2, K) == [
        local_snf(LocalMatrix.of(ring, [[reduced[j] for j in row] for row in M])) for M in idx.tolist()]


@pytest.mark.parametrize("prime", [PX, PX2], ids=["(x)", "(x^2+x+1)"])
def test_replay_packing_matches_cokernel_rows_at_every_f2t_rung(prime):
    # perfbench/replay.py packs each support element with element_to_scalar
    # into one make_scalar_matrix table and hands each matrix to
    # snf_valuations_array; at residue degree 2, where element_to_scalar
    # refuses, the element_block tiles go the same way. At every rung K of
    # the default ladder that path gives the rows of cokernel_rows under a
    # ladder capped at K, for random matrices, a singular one, and one of
    # diagonal pi^v for each rung v below K, saturated there.
    ladder, f = escalation_ladder(prime, DEFAULT_POLICY), prime.f
    assert len(ladder) == 4 and ladder[0] == 4
    pi, one, zero = prime.generator, poly_elem(2, [1]), poly_elem(2, [])
    powers = {0: one}
    for v in range(1, ladder[-2] + 1):
        powers[v] = elem_mul(powers[v - 1], pi)
    rng = random.Random(f)
    small = [poly_elem(2, [rng.randrange(2) for _ in range(3)]) for _ in range(6)]
    grids = [[[rng.choice(small) for _ in range(4)] for _ in range(3)] for _ in range(6)]
    grids.append(grids[0][:2] + [grids[0][0]])  # a repeated row: singular
    grids += [[[powers[v] if i == j else zero for j in range(4)] for i in range(3)]
              for v in ladder[:-1]]
    support = tuple(dict.fromkeys(x for rows in grids for row in rows for x in row))
    position = {x: i for i, x in enumerate(support)}
    idx = np.array([[[position[x] for x in row] for row in rows] for rows in grids])
    for K in ladder:
        reduced = [reduce_mod_prime_power(x, prime, K) for x in support]
        if f == 1:
            table = make_scalar_matrix("f2t", [element_to_scalar("f2t", x) for x in reduced]).ravel()
            mats = [table[M] for M in idx]
        else:
            blocks = [element_block("f2t", x) for x in reduced]
            mats = [make_scalar_matrix("f2t", [[blocks[j][k][l] for j in row for l in range(f)]
                                               for row in M.tolist() for k in range(f)]) for M in idx]
        rows = [np.bincount(snf_valuations_array("f2t", A, 2, K).valuations, minlength=K + 1)[:K] // f
                for A in mats]
        (want,) = cokernel_rows(idx, support, (prime,), PrecisionPolicy(K))
        assert np.array_equal(rows, want)
        assert [sum(row) < 3 for row in rows[-4:]] == [True, *(v >= K for v in ladder[:-1])]


def _domain_det(rows, zero):
    """Leibniz determinant of a grid of domain Elements."""
    total = zero
    for perm in permutations(range(len(rows))):
        sign = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
        term = rows[0][perm[0]]
        for i in range(1, len(rows)):
            term = elem_mul(term, rows[i][perm[i]])
        total = elem_add(total, elem_neg(term) if sign % 2 else term)
    return total


def _check_driver(prime, elem, mode, cap_word):
    """Under the default policy every rung of the ladder lowers onto ``mode``
    (as f x f blocks at residue degree f > 1), and the driver reports exactly
    the singular matrices of a mixed batch as indeterminate; the rest get the
    local_snf partition at the cap."""
    ladder = escalation_ladder(prime, DEFAULT_POLICY)
    cap = ladder[-1]
    power = [elem(1, 0)]  # powers of the prime's generator
    for _ in range(cap - 5):
        power.append(elem_mul(power[-1], prime.generator))
    rng = random.Random(11)
    n = 3

    def small():
        return elem(rng.randrange(-2, 3), rng.randrange(-2, 3))

    for u in (0, 1):
        grids = []
        for k in range(12):
            rows = [[small() for _ in range(n + u)] for _ in range(n)]
            if k % 3 == 1:  # upper triangular, diagonal pi^(0, 3, cap - 5): climbs the ladder
                for i in range(n):
                    rows[i][:i] = [elem(0, 0)] * i
                    rows[i][i] = power[(0, 3, cap - 5)[i]]
            elif k % 3 == 2:  # singular: a zero row, a repeated row, or a combination of two
                x, y = small(), small()
                combo = [elem_add(elem_mul(x, a), elem_mul(y, b)) for a, b in zip(rows[0], rows[1])]
                rows[2] = ([elem(0, 0)] * (n + u), list(rows[0]), combo)[k // 3 % 3]
            grids.append(rows)
        support = tuple(dict.fromkeys(x for rows in grids for row in rows for x in row))
        position = {x: i for i, x in enumerate(support)}
        idx = np.array([[[position[x] for x in row] for row in rows] for rows in grids])
        blocks = (prime.f, prime.f) if prime.f > 1 else ()
        for K in ladder:
            table_mode, _, table = reduction_table(support, prime, K)
            assert table_mode == mode and table.shape == (len(support), *blocks)
        assert table.dtype == cap_word
        ring = local_ring_for(prime, cap)
        (got,) = cokernel_rows(idx, support, (prime,), DEFAULT_POLICY)
        assert got.shape == (len(grids), cap)
        singular = 0
        for rows, counts in zip(grids, got.tolist()):
            minors = [_domain_det([[row[j] for j in cols] for row in rows], elem(0, 0))
                      for cols in combinations(range(n + u), n)]
            if all(d.is_zero() for d in minors):
                singular += 1
                assert sum(counts) < n
                continue
            want = local_snf(LocalMatrix.of(ring, [[reduce_mod_prime_power(x, prime, cap)
                                                    for x in row] for row in rows]))
            assert not want.saturated
            _check_counts(counts, rows, tuple(sorted((v for v in want.valuations if v),
                                                     reverse=True)))
        assert singular >= 4


@pytest.mark.parametrize("prime, elem", [
    (factor_rational_prime(ZI, 5)[0], lambda a, b: gauss_elem(a, b)),
    (P3, lambda a, b: int_elem(a + 2 * b)),
], ids=["zi-(2+i)", "z-3"])
def test_driver_keeps_odd_primes_on_modpk(prime, elem):
    _check_driver(prime, elem, "modpk", np.uint64)


@pytest.mark.parametrize("prime, elem, mode, cap_word", [
    (ZI3, gauss_elem, "modpk", np.uint64),
    (ZI7, gauss_elem, "modpk", np.int64),
    (PX2, lambda a, b: poly_elem(2, [a, b]), "f2t", object),
    (PX3, lambda a, b: poly_elem(2, [a, b]), "f2t", object),
], ids=["zi-(3)", "zi-(7)", "f2x-(x^2+x+1)", "f2x-(x^3+x+1)"])
def test_driver_lowers_residue_degree_f_primes(prime, elem, mode, cap_word):
    # Inert Z[i] primes and F_2[x] primes of degree f > 1 never reach the
    # generic path: the cap is 3^20 (Montgomery uint64 words), 7^11, and 32
    # or 21 lanes of 5 bits (object words).
    _check_driver(prime, elem, mode, cap_word)


def test_permutation_invariance():
    r = make_local_ring(2, 1, 6, UNRAMIFIED)
    rng = random.Random(9)
    M = [[rng.randrange(64) for _ in range(3)] for _ in range(3)]
    base = local_snf(int_matrix(r, M))
    for rp in permutations(range(3)):
        for cp in permutations(range(3)):
            P = [[M[rp[i]][cp[j]] for j in range(3)] for i in range(3)]
            assert local_snf(int_matrix(r, P)) == base


def test_unimodular_invariance_seeded():
    rng = random.Random(77)
    r = make_local_ring(3, 1, 6, UNRAMIFIED)
    for _ in range(100):
        n = rng.randrange(1, 5)
        M = [[rng.randrange(r.pK) for _ in range(n)] for _ in range(n)]
        base = local_snf(int_matrix(r, M))
        # multiply by a unit-diagonal triangular matrix on the left
        L = [[rng.randrange(r.pK) if j < i else (1 if i == j else 0)
              for j in range(n)] for i in range(n)]
        LM = [[sum(L[i][k] * M[k][j] for k in range(n)) for j in range(n)]
              for i in range(n)]
        assert local_snf(int_matrix(r, LM)) == base
        # and a unit-upper-triangular on the right
        U = [[rng.randrange(r.pK) if j > i else (1 if i == j else 0)
              for j in range(n)] for i in range(n)]
        MU = [[sum(M[i][k] * U[k][j] for k in range(n)) for j in range(n)]
              for i in range(n)]
        assert local_snf(int_matrix(r, MU)) == base


def _det(ring, rows):
    n = len(rows)
    total = ring.zero()
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = ring.one()
        for i in range(n):
            term = lr_mul(term, rows[i][perm[i]])
        if sign < 0:
            from coklab.local_ring import lr_neg
            term = lr_neg(term)
        total = lr_add(total, term)
    return total


def test_determinant_valuation_check():
    rng = random.Random(31)
    for ring in (make_local_ring(2, 1, 8, UNRAMIFIED),
                 make_local_ring(3, 1, 6, UNRAMIFIED),
                 make_local_ring(2, 1, 8, EQUAL_CHAR)):
        for _ in range(80):
            n = rng.randrange(1, 5)
            if ring.style == UNRAMIFIED:
                rows = [[ring.from_int(rng.randrange(ring.pK)) for _ in range(n)]
                        for _ in range(n)]
            else:
                rows = [[LocalElement(ring, tuple(rng.randrange(2) for _ in range(ring.K)))
                         for _ in range(n)] for _ in range(n)]
            res = local_snf(LocalMatrix.of(ring, rows))
            if res.saturated:
                continue
            assert sum(res.valuations) == valuation(_det(ring, rows))


def test_local_matrix_shape_validation():
    r = make_local_ring(2, 1, 4, UNRAMIFIED)
    with pytest.raises(ParameterError):
        LocalMatrix.of(r, [[r.one()], [r.one()]])  # 2 rows x 1 col
    with pytest.raises(ParameterError):
        LocalMatrix.of(r, [[r.one(), r.one()], [r.one()]])


@pytest.mark.parametrize("rows", [[], [[]], [[1, 2], [3]], [[1, 0], [0, 1], [1, 1]]],
                         ids=["no-rows", "no-columns", "ragged", "3x2"])
def test_cokernel_local_type_checks_shape_as_local_matrix_does(rows):
    # An empty, ragged or taller-than-wide grid is a ParameterError from
    # cokernel_local_type, as from LocalMatrix.of, before any reduction.
    with pytest.raises(ParameterError):
        cokernel_local_type([[int_elem(x) for x in row] for row in rows], P3)
    with pytest.raises(ParameterError):
        LocalMatrix.of(local_ring_for(P3, 4), [[local_ring_for(P3, 4).from_int(x) for x in row]
                                              for row in rows])
