import random
from itertools import permutations

import numpy as np
import pytest

from coklab.domains import (
    ZI,
    ZZ,
    factor_rational_prime,
    gauss_elem,
    int_elem,
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
    valuation,
)
from coklab.modules import ModuleType
from coklab.snf import (
    LocalMatrix,
    PrecisionPolicy,
    SnfResult,
    cokernel_local_type,
    cokernel_type,
    integer_snf_oracle,
    local_snf,
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


def _ints(p, K):
    """Integer support with entries of valuation 0, 1, 2, K-1 and K at p."""
    return tuple(dict.fromkeys([int_elem(0), int_elem(7), int_elem(-12)] + [
        int_elem(c * p ** v) for v in sorted({0, 1, 2, K - 1, K}) for c in (1, -5)]))


def _polys(p, K):
    """F_2[x] support with entries of valuation 0, 1, 2, K-1 and K at x."""
    return tuple(dict.fromkeys([poly_elem(2, []), poly_elem(2, [1, 0, 1, 1])] + [
        poly_elem(2, [0] * v + c) for v in sorted({0, 1, 2, K - 1, K}) for c in ([1], [1, 1])]))


def test_fast_paths_match_generic():
    # Each array kernel agrees with the element-wise local_snf on every branch
    # of the shared stratified loop: unit pivots, division by the uniformizer
    # and saturation. Supports hold entries of valuation 0, 1, 2, K-1 and K
    # (the last reduce to zero); K = 64 runs mod2k and f2t at full word width.
    rng = random.Random(42)
    seen = {}
    for prime, mode, Ks, support_at in [
        (P2, "mod2k", (1, 8, 32, 64), _ints),
        (P3, "modpk", (1, 5, 8, 19), _ints),  # 3^19 is the largest power below the int64 limit
        (PX, "f2t", (1, 8, 32, 64), _polys),
    ]:
        for K in Ks:
            support = support_at(prime.p, K)
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
                assert snf_valuations_array(mode, table[idx], prime.p, K) == want
                seen.setdefault(mode, set()).update(
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
])
def test_batched_kernel_matches_single_and_generic(prime, mode, K, support_at, word):
    # One batch mixes full-rank, corank, all-zero and saturated matrices with
    # random ones; K crosses every word width, below it (masked) and at it.
    # Each matrix's batched result equals its 2-D result and local_snf.
    rng = random.Random(K * 1000 + len(mode))
    support = support_at(prime.p, K)
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
        got = snf_valuations_array(mode, table[idx], prime.p, K)
        assert len(got) == len(batch)
        for M, res in zip(idx, got):
            want = local_snf(LocalMatrix.of(ring, [[reduced[j] for j in row]
                                                   for row in M.tolist()]))
            assert res == want
            assert snf_valuations_array(mode, table[M], prime.p, K) == want
        assert got[0] == SnfResult((0,) * n, False)
        assert got[1] == SnfResult((0, 0, 1, 1), K == 1)  # saturated once p reduces to 0
        assert got[2] == SnfResult((K,) * n, True)
        assert got[3] == SnfResult((0, 0, 0, K), True)



def test_modpk_rejects_moduli_past_int64_products():
    # 3^20 > 3037000499: products of two entries would overflow int64
    with pytest.raises(ParameterError, match="3\\^20"):
        snf_valuations_array("modpk", np.zeros((1, 1), dtype=np.int64), 3, 20)

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
