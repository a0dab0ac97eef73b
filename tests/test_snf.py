import random
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    LocalMatrix,
    PrecisionPolicy,
    SnfResult,
    cokernel_local_type,
    cokernel_type,
    element_block,
    element_to_scalar,
    escalation_ladder,
    gather,
    integer_snf_oracle,
    local_snf,
    make_scalar_matrix,
    p_part_of_divisors,
    partition_at_prime,
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


def test_indeterminate_on_zero_matrix():
    M = [[int_elem(0)]]
    with pytest.raises(IndeterminateCokernelError) as exc:
        cokernel_local_type(M, P2, PrecisionPolicy(4, 16, 2))
    assert exc.value.last_result.saturated


def test_escalation_resolves_large_exponents():
    # valuation 10 saturates at K=8 and must escalate, not fail
    M = [[int_elem(2 ** 10)]]
    assert cokernel_local_type(M, P2, PrecisionPolicy(8, 64, 2)) == (10,)
    M = [[int_elem(3 ** 12)]]
    assert cokernel_local_type(M, P3, PrecisionPolicy(8, 40, 2)) == (12,)


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
PX2 = factor_rational_prime(poly_domain(2), poly_elem(2, [1, 1, 1]))[0]
PX3 = factor_rational_prime(poly_domain(2), poly_elem(2, [1, 1, 0, 1]))[0]


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
    # and modpk crosses from int64 (3^19) to exact object words (3^20, 3^40).
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


# the word each 2-power kernel uses at precision K: the narrowest holding K bits
_WORDS = {1: "uint8", 5: "uint8", 8: "uint8", 9: "uint16", 16: "uint16", 17: "uint32",
          32: "uint32", 64: "uint64"}


@pytest.mark.parametrize("prime, mode, K, support_at, word", [
    *[(P2, "mod2k", K, _ints, w) for K, w in _WORDS.items()],
    *[(P3, "modpk", K, _ints, "int64") for K in (1, 5, 8, 19)],
    *[(PX, "f2t", K, _polys, w) for K, w in _WORDS.items()],
    *[(P3, "modpk", K, _ints, "object") for K in (20, 40)],
    *[(ZI3, "modpk", K, _gauss, "int64") for K in (1, 5, 19)],
    (ZI3, "modpk", 20, _gauss, "object"),
    *[(ZI7, "modpk", K, _gauss, "int64") for K in (1, 11)],
    *[(PX2, "f2t", K, _polys, w) for K, w in _WORDS.items() if K <= 32],
    *[(PX3, "f2t", K, _polys, w) for K, w in {**_WORDS, 21: "uint32"}.items() if K <= 21],
])
def test_batched_kernel_matches_single_and_generic(prime, mode, K, support_at, word):
    # One batch mixes full-rank, corank, all-zero and saturated matrices with
    # random ones; K crosses every word width, below it (masked) and at it.
    # Each matrix's batched result equals its 2-D result and local_snf. At
    # residue degree f > 1 the kernel sees f x f blocks over the base ring
    # and every valuation appears f times.
    rng = random.Random(K * 1000 + len(mode))
    support = support_at(prime, K)
    table_mode, ring, table = reduction_table(support, prime, K)
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


@pytest.mark.parametrize("p, K", [(3, 20), (3, 40), (5, 16), (5, 27)])
def test_modpk_wide_words_match_local_snf(p, K):
    # Past the int64 product limit (3^19 is the last power under it) modpk
    # runs in exact Python ints, up to the word-size cap max_precision(p, 1)
    # (3^40 > 2^63, so its residues do not fit int64 either).
    prime = factor_rational_prime(ZZ, p)[0]
    assert p ** K > _ODD_FAST_LIMIT and K <= max_precision(p, 1)
    support = _ints(prime, K)
    _, ring, table = reduction_table(support, prime, K)
    assert table.dtype == object
    reduced = [reduce_mod_prime_power(s, prime, K) for s in support]
    rng = random.Random(p * 100 + K)
    for _ in range(30):
        n, u = rng.randrange(1, 6), rng.randrange(3)
        idx = np.array([[rng.randrange(len(support)) for _ in range(n + u)] for _ in range(n)])
        want = local_snf(LocalMatrix.of(ring, [[reduced[j] for j in row] for row in idx.tolist()]))
        assert snf_valuations_array("modpk", table[idx], p, K) == want


def _modpk_precisions(p):
    """K for the fuzz: small, the last int64 power, the first object power, the cap."""
    last_int64 = max(K for K in range(1, 64) if p ** K <= _ODD_FAST_LIMIT)
    return (1, 2, last_int64, last_int64 + 1, max_precision(p, 1))


@st.composite
def _modpk_cases(draw):
    p = draw(st.sampled_from((3, 5, 7)))
    K = draw(st.sampled_from(_modpk_precisions(p)))
    n, u = draw(st.integers(1, 6)), draw(st.integers(0, 2))
    entry = st.one_of(
        st.integers(-(p ** K), p ** K),
        # c * p^v has valuation v when p does not divide c; v = K is divisible by p^K
        st.builds(lambda c, v: c * p ** v, st.integers(-8, 8), st.integers(0, K)),
    )
    rows = draw(st.lists(st.lists(entry, min_size=n + u, max_size=n + u), min_size=n, max_size=n))
    zero = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return p, K, [[0] * (n + u) if z else row for z, row in zip(zero, rows)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_modpk_cases())
def test_modpk_fuzz_matches_local_snf(case):
    # Any integer matrix, reduced into Z/p^K, gets the same valuations from
    # modpk on either side of the int64/object switch as from local_snf.
    p, K, rows = case
    ring = make_local_ring(p, 1, K, UNRAMIFIED)
    residues = [[x % p ** K for x in row] for row in rows]
    packed = make_scalar_matrix("modpk", residues)
    assert packed.dtype == (np.int64 if max(map(max, residues)) < 2 ** 63 else object)
    assert snf_valuations_array("modpk", packed, p, K) == local_snf(int_matrix(ring, rows))


def _ladder_reference(rows, prime, policy):
    """partition_at_prime for one grid, rung by rung with local_snf."""
    for K in escalation_ladder(prime, policy):
        ring = local_ring_for(prime, K)
        res = local_snf(LocalMatrix.of(ring, [[reduce_mod_prime_power(x, prime, K) for x in row]
                                              for row in rows]))
        if not res.saturated:
            return tuple(sorted((v for v in res.valuations if v), reverse=True))
    return None


@st.composite
def _driver_cases(draw):
    prime = draw(st.sampled_from((PX, ZI3, ZI7, PX2, PX3)))
    policy = draw(st.sampled_from((PrecisionPolicy(1, 4), PrecisionPolicy(2, 8), DEFAULT_POLICY)))
    ladder = escalation_ladder(prime, policy)
    if prime.domain == ZI:
        cofactor = st.builds(gauss_elem, st.integers(-9, 9), st.integers(-9, 9))
    else:
        cofactor = st.builds(lambda cs: poly_elem(2, [1] + cs), st.lists(st.integers(0, 1), max_size=4))

    def times_pi(c, v):
        for _ in range(v):
            c = elem_mul(c, prime.generator)
        return c

    # c * pi^v with v up to 3, or v equal to a rung K, where the entry reduces to zero
    entry = st.builds(times_pi, cofactor, st.one_of(st.integers(0, 3), st.sampled_from(ladder)))
    n, u = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    grid = st.lists(st.lists(entry, min_size=n + u, max_size=n + u), min_size=n, max_size=n)
    grids = draw(st.lists(grid, min_size=1, max_size=3))
    zero = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    zero_elem = times_pi(draw(cofactor), ladder[-1])
    grids[0] = [[zero_elem] * (n + u) if z else row for z, row in zip(zero, grids[0])]
    return prime, policy, grids


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_driver_cases())
def test_lowered_driver_fuzz_matches_local_snf_ladder(case):
    # The cokernel driver on f2t at (x) and on the primes of residue degree
    # f > 1 that lower onto modpk and f2t gives, for a batch of matrices, the
    # partitions (or indeterminate outcomes) of the local_snf ladder.
    prime, policy, grids = case
    support = tuple(dict.fromkeys(x for rows in grids for row in rows for x in row))
    position = {x: i for i, x in enumerate(support)}
    idx = np.array([[[position[x] for x in row] for row in rows] for rows in grids])
    got = partition_at_prime(idx, support, prime, policy)
    for rows, parts in zip(grids, got):
        want = _ladder_reference(rows, prime, policy)
        if want is None:
            assert isinstance(parts, IndeterminateCokernelError)
        else:
            assert parts == want


def test_residue_degree_f_entries_lower_to_blocks():
    # 1+2i at (3): columns (1+2i)*1 = 1+2i and (1+2i)*i = -2+i, mod 3^4
    x = reduce_mod_prime_power(gauss_elem(1, 2), ZI3, 4)
    assert element_block("modpk", x) == [[1, 79], [2, 1]]
    # x at (x^2+x+1): x*x = 1 + x + g, so its first coordinate packs 1 + t
    y = reduce_mod_prime_power(poly_elem(2, [0, 1]), PX2, 4)
    assert element_block("f2t", y) == [[0, 0b11], [1, 1]]
    # a packed scalar would drop coordinates, so it is refused
    for mode, z in (("modpk", x), ("f2t", y)):
        with pytest.raises(ParameterError, match="residue degree 2"):
            element_to_scalar(mode, z)


def test_make_scalar_matrix_word_follows_entries():
    assert make_scalar_matrix("modpk", [[1, 2 ** 63 - 1]]).dtype == np.int64
    wide = make_scalar_matrix("modpk", [[1, 3 ** 40 - 1]])
    assert wide.dtype == object and wide[0, 1] == 3 ** 40 - 1
    assert make_scalar_matrix("mod2k", [[1, 2 ** 64 - 1]]).dtype == np.uint64


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
        got = partition_at_prime(idx, support, prime, DEFAULT_POLICY)
        singular = 0
        for rows, parts in zip(grids, got):
            minors = [_domain_det([[row[j] for j in cols] for row in rows], elem(0, 0))
                      for cols in combinations(range(n + u), n)]
            if all(d.is_zero() for d in minors):
                singular += 1
                assert isinstance(parts, IndeterminateCokernelError)
                continue
            want = local_snf(LocalMatrix.of(ring, [[reduce_mod_prime_power(x, prime, cap)
                                                    for x in row] for row in rows]))
            assert not want.saturated
            assert parts == tuple(sorted((v for v in want.valuations if v), reverse=True))
        assert singular >= 4


@pytest.mark.parametrize("prime, elem", [
    (factor_rational_prime(ZI, 5)[0], lambda a, b: gauss_elem(a, b)),
    (P3, lambda a, b: int_elem(a + 2 * b)),
], ids=["zi-(2+i)", "z-3"])
def test_driver_keeps_odd_primes_on_modpk(prime, elem):
    _check_driver(prime, elem, "modpk", object)


@pytest.mark.parametrize("prime, elem, mode, cap_word", [
    (ZI3, gauss_elem, "modpk", object),
    (ZI7, gauss_elem, "modpk", np.int64),
    (PX2, lambda a, b: poly_elem(2, [a, b]), "f2t", np.uint32),
    (PX3, lambda a, b: poly_elem(2, [a, b]), "f2t", np.uint32),
], ids=["zi-(3)", "zi-(7)", "f2x-(x^2+x+1)", "f2x-(x^3+x+1)"])
def test_driver_lowers_residue_degree_f_primes(prime, elem, mode, cap_word):
    # Inert Z[i] primes and F_2[x] primes of degree f > 1 never reach the
    # generic path: the cap is 3^20 (object words), 7^11, and 32 or 21 bits.
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
                from coklab.local_ring import LocalElement
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
