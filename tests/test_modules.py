import pytest

from coklab.domains import ZI, ZZ, factor_rational_prime, poly_domain, poly_elem
from coklab.errors import OracleBudgetError, ParameterError
from coklab.modules import (
    ModuleType,
    brute_force_count,
    count_aut,
    count_aut_local,
    count_hom,
    count_hom_local,
    count_sur,
    count_sur_local,
    enumerate_types,
    module_size,
    parse_type_string,
    partitions_in_box,
)


P2 = factor_rational_prime(ZZ, 2)[0]
P3 = factor_rational_prime(ZZ, 3)[0]
G5A, G5B = factor_rational_prime(ZI, 5)


def sized_partitions(q, max_size):
    """All partitions with q^{sum} <= max_size."""
    import math
    cap = int(math.log(max_size, q))
    return [parts for parts in partitions_in_box(cap, cap) if q ** sum(parts) <= max_size]


def test_module_size_examples():
    assert module_size(ModuleType.trivial()) == 1
    assert module_size(ModuleType.of({P3: (2, 1)})) == 27
    assert module_size(ModuleType.of({G5A: (1,), G5B: (1,)})) == 25


def test_count_aut_local_examples():
    assert count_aut_local((1,), 5) == 4
    assert count_aut_local((1, 1), 2) == 6
    assert count_aut_local((2, 1), 2) == 8
    assert count_aut_local((), 7) == 1


def test_count_hom_local_examples():
    assert count_hom_local((2,), (1,), 3) == 3
    assert count_hom_local((1, 1), (1,), 2) == 4
    assert count_hom_local((), (3, 2), 5) == 1


def test_count_sur_local_examples():
    assert count_sur_local((1, 1), (1,), 2) == 3
    assert count_sur_local((1,), (1, 1), 97) == 0
    # no map of F_2^3 is onto F_2^40, counted without the 2^40 pivot sets
    assert count_sur_local((1, 1, 1), (1,) * 40, 2) == 0
    assert count_sur_local((2, 1), (1, 1), 3) == 48


def test_brute_force_examples():
    assert brute_force_count((1,), (1,), 2, "hom") == 2
    assert brute_force_count((1, 1), (1, 1), 2, "aut") == 6
    assert brute_force_count((2,), (2,), 2, "sur") == 2


def test_brute_force_budget():
    with pytest.raises(OracleBudgetError):
        brute_force_count((1,) * 8, (1,) * 8, 2, "sur")
    with pytest.raises(ParameterError):
        brute_force_count((2,), (1,), 2, "aut")
    with pytest.raises(ParameterError):
        brute_force_count((1,), (1,), 2, "bogus")


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_formulas_match_oracle(q):
    parts = sized_partitions(q, 64)
    budget = 200_000
    checked = 0
    for lam in parts:
        for mu in parts:
            candidates = 1
            for li in lam:
                candidates *= q ** sum(min(li, mj) for mj in mu)
            if candidates > budget:
                continue
            assert count_hom_local(lam, mu, q) == brute_force_count(lam, mu, q, "hom", budget)
            assert count_sur_local(lam, mu, q) == brute_force_count(lam, mu, q, "sur", budget)
            if lam == mu:
                assert count_aut_local(lam, q) == brute_force_count(lam, mu, q, "aut", budget)
            checked += 1
    assert checked >= 16


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_counting_identities(q):
    parts = sized_partitions(2, 256)  # partition shapes; q varies independently
    for lam in parts:
        for mu in parts:
            hom = count_hom_local(lam, mu, q)
            sur = count_sur_local(lam, mu, q)
            assert hom == count_hom_local(mu, lam, q)  # min-sum symmetry
            assert 0 <= sur <= hom
        assert count_sur_local(lam, lam, q) == count_aut_local(lam, q)
        # hom onto the residue field counts parts
        assert count_hom_local(lam, (1,), q) == q ** len(lam)


def test_multi_prime_counts():
    N = ModuleType.of({G5A: (1,), G5B: (1,)})
    assert count_aut(N) == 16
    assert count_hom(ModuleType.trivial(), N) == 1
    A = ModuleType.of({P3: (1,)})
    B = ModuleType.of({P2: (1,)})
    assert count_sur(A, B) == 0
    assert count_sur(A, ModuleType.trivial()) == 1
    # across primes the counts multiply
    AB = ModuleType.of({P2: (2, 1), P3: (1,)})
    CD = ModuleType.of({P2: (1,), P3: (1,)})
    assert count_sur(AB, CD) == count_sur_local((2, 1), (1,), 2) * count_sur_local((1,), (1,), 3)
    assert count_hom(AB, CD) == count_hom_local((2, 1), (1,), 2) * count_hom_local((1,), (1,), 3)


def test_partition_validation():
    with pytest.raises(ParameterError):
        ModuleType.of({P2: (1, 2)})
    with pytest.raises(ParameterError):
        ModuleType.of({P2: (0,)})
    with pytest.raises(ParameterError):
        ModuleType.of([(P2, (1,)), (P2, (2,))])


def test_enumerate_types_examples():
    assert len(enumerate_types([P2], 1, 1)) == 2
    types22 = enumerate_types([P2], 2, 2)
    assert len(types22) == 6
    parts = {t.partition_for(P2) for t in types22}
    assert parts == {(), (1,), (2,), (1, 1), (2, 1), (2, 2)}
    assert len(enumerate_types([P2, P3], 1, 1)) == 4
    assert enumerate_types([P2], 0, 0) == [ModuleType.trivial()]


def test_enumerate_types_deterministic():
    assert enumerate_types([P2], 3, 2) == enumerate_types([P2], 3, 2)


def test_type_string_round_trip():
    N = ModuleType.of({P2: (2, 1), P3: (1,)})
    s = str(N)
    assert s == "2:(2,1)|3:(1)"
    assert parse_type_string(s, [P2, P3]) == N
    assert str(ModuleType.trivial()) == "∅"
    assert parse_type_string("∅", [P2]) == ModuleType.trivial()
    G = ModuleType.of({G5A: (1,)})
    assert str(G) == "2+i:(1)"
    assert parse_type_string("2+i:(1)", [G5A, G5B]) == G
    with pytest.raises(ParameterError):
        parse_type_string("7:(1)", [P2])


def test_type_string_polynomial_primes():
    F2X = poly_domain(2)
    (px,) = factor_rational_prime(F2X, poly_elem(2, [0, 1]))
    N = ModuleType.of({px: (3, 1)})
    assert str(N) == "x:(3,1)"
    assert parse_type_string("x:(3,1)", [px]) == N


def test_partitions_in_box():
    assert partitions_in_box(1, 1) == ((), (1,))
    assert set(partitions_in_box(2, 2)) == {(), (1,), (2,), (1, 1), (2, 1), (2, 2)}
    assert partitions_in_box(0, 5) == ((),)
    # box counts: partitions in an a x b box are C(a+b, a) at q = 1
    from math import comb
    assert len(partitions_in_box(3, 4)) == comb(7, 3)
