from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product

import mpmath as mp
import pytest

from coklab.domains import ZI, ZZ, factor_rational_prime, poly_domain, poly_elem
from coklab.errors import ParameterError
from coklab.modules import ModuleType, count_aut, count_sur, enumerate_types, module_size, \
    parse_type_string
from coklab.theory import (
    _aut_inverse_box_sum,
    _truncated_factor,
    check_caps,
    partial_sum,
    predicted_moment,
    predicted_probability,
)

P2 = factor_rational_prime(ZZ, 2)[0]
P3 = factor_rational_prime(ZZ, 3)[0]
G5A, G5B = factor_rational_prime(ZI, 5)


def mp_unit_product(q, u, terms=600):
    mp.mp.dps = 40
    r = mp.mpf(1)
    for j in range(1, terms + 1):
        r *= 1 - mp.mpf(q) ** (-(u + j))
    return r


def test_reference_constants():
    # frozen from an independent 40-digit evaluation of the unit products
    cases = [
        (ModuleType.trivial(), [P2], 0, "0.2887880950866024"),
        (ModuleType.of({P2: (1,)}), [P2], 0, "0.2887880950866024"),
        (ModuleType.of({P2: (2,)}), [P2], 0, "0.1443940475433012"),
        (ModuleType.trivial(), [P2], 1, "0.5775761901732048"),
        (ModuleType.of({P3: (1,)}), [P3], 0, "0.2800630389639745"),
    ]
    for N, P, u, expect in cases:
        tight = predicted_probability(N, P, u, tol=Fraction(1, 10 ** 20))
        assert abs(tight.value - Decimal(expect)) < Decimal("2e-16")
        default = predicted_probability(N, P, u)
        assert default.truncation_bound < Decimal("1e-9")
        assert abs(default.value - tight.value) <= default.truncation_bound


@pytest.mark.parametrize("q,u,prime", [(2, 0, None), (2, 1, None), (3, 0, None), (5, 0, None)])
def test_unit_product_against_mpmath(q, u, prime):
    prime = factor_rational_prime(ZZ, q)[0]
    got = predicted_probability(ModuleType.trivial(), [prime], u, tol=Fraction(1, 10 ** 15))
    want = mp_unit_product(q, u)
    assert abs(float(got.value) - float(want)) < 1e-14


def test_gaussian_split_prime_constant():
    # residue size 5 at (2+i): trivial-type mass is the q = 5 unit product
    got = predicted_probability(ModuleType.trivial(), [G5A], 0, tol=Fraction(1, 10 ** 15))
    assert abs(float(got.value) - 0.7603327958712324) < 1e-12


def test_eq1_consistency_over_Z():
    # over Z at u = 0 the law is prod(1 - p^-k) / |Aut(B)| for every type B
    for prime, q in [(P2, 2), (P3, 3)]:
        const = mp_unit_product(q, 0)
        for N in enumerate_types([prime], 3, 3):
            got = predicted_probability(N, [prime], 0, tol=Fraction(1, 10 ** 15))
            want = float(const) / count_aut(N)
            assert abs(float(got.value) - want) < 1e-12


def test_prime_outside_set_rejected():
    with pytest.raises(ParameterError):
        predicted_probability(ModuleType.of({P3: (1,)}), [P2], 0)
    with pytest.raises(ParameterError):
        predicted_probability(ModuleType.trivial(), [P2], -1)


def test_truncation_bound_is_honest():
    loose = predicted_probability(ModuleType.trivial(), [P2], 0, tol=Fraction(1, 10 ** 6))
    tight = predicted_probability(ModuleType.trivial(), [P2], 0, tol=Fraction(1, 10 ** 18))
    assert abs(loose.value - tight.value) <= loose.truncation_bound
    assert loose.truncation_bound < Fraction(1, 10 ** 6)


def test_factorization_across_primes():
    N = ModuleType.of({G5A: (1,), G5B: (2, 1)})
    both = predicted_probability(N, [G5A, G5B], 0)
    left = predicted_probability(ModuleType.of({G5A: (1,)}), [G5A], 0)
    right = predicted_probability(ModuleType.of({G5B: (2, 1)}), [G5B], 0)
    assert abs(both.value - left.value * right.value) < Decimal("1e-12")


def test_predicted_moment():
    assert predicted_moment(ModuleType.trivial(), 5) == 1
    assert predicted_moment(ModuleType.of({P2: (1,)}), 1) == Fraction(1, 2)
    assert predicted_moment(ModuleType.of({P3: (2, 1)}), 2) == Fraction(1, 729)
    assert predicted_moment(ModuleType.of({P3: (1,)}), 0) == 1


def test_partial_sum_examples():
    ps = partial_sum([P2], 0, 1, 1, tol=Fraction(1, 10 ** 15))
    assert abs(ps.value - Decimal("0.5775761901732048")) < Decimal("1e-12")
    trivial_only = partial_sum([P2], 0, 0, 0)
    single = predicted_probability(ModuleType.trivial(), [P2], 0)
    assert abs(ps.truncation_bound) < Decimal("1e-9")
    assert abs(trivial_only.value - single.value) < Decimal("1e-12")
    big = partial_sum([P2], 0, 20, 20)
    assert big.value > Decimal("0.999")
    assert big.value < 1 + big.truncation_bound


def test_caps_within_the_box_sum_budget():
    # (20, 20) and (32, 32) at q = 2 and (24, 24) at q = 5 are within the
    # budget. Refused: caps past 64, (80, 80), (16, 64) (5.3 s) and (32, 32)
    # at q = 5 with u = 2 (1.7 s), and negative caps.
    check_caps([P2], 0, 20, 20)
    check_caps([P2], 0, 32, 32)
    check_caps([P2, G5A], 0, 24, 24)
    for P, u, E, m in (([P2], 0, 65, 0), ([P2], 0, 80, 80), ([P2], 0, 16, 64),
                       ([P2, G5A], 2, 32, 32), ([P2], 0, -1, 2)):
        with pytest.raises(ParameterError, match="type caps"):
            check_caps(P, u, E, m)
        with pytest.raises(ParameterError, match="type caps"):
            partial_sum(P, u, E, m)


def test_partial_sum_matches_enumeration_small_caps():
    # dual route: DP box sum vs literal sum of per-type predictions
    for prime in (P2, P3):
        for u in (0, 1):
            for caps in [(1, 1), (2, 2), (3, 2), (2, 3)]:
                dp = partial_sum([prime], u, *caps)
                literal = sum(predicted_probability(N, [prime], u).value
                              for N in enumerate_types([prime], *caps))
                assert abs(dp.value - literal) < Decimal("1e-12")
    # multi-prime factorization route
    dp = partial_sum([G5A, G5B], 0, 2, 2)
    literal = sum(predicted_probability(N, [G5A, G5B], 0).value
                  for N in enumerate_types([G5A, G5B], 2, 2))
    assert abs(dp.value - literal) < Decimal("1e-12")


_FX = poly_domain(2)
_X2X1 = factor_rational_prime(_FX, poly_elem(2, [1, 1, 1]))
_G2I = [pr for pr in factor_rational_prime(ZI, 5) if pr.descriptor == "2+i"]


@pytest.mark.parametrize("P, target, u, top", [
    ([P2], "2:(2)", 1, 6),
    ([P2, P3], "2:(1)|3:(1)", 1, 4),
    (_X2X1, "x^2+x+1:(1)", 1, 5),
    (_G2I, "2+i:(1,1)", 0, 6),
], ids=["Z-2:(2)", "Z-2:(1)|3:(1)", "F2x-x^2+x+1", "Zi-2+i:(1,1)"])
def test_surjection_moments_of_the_law_rise_to_their_limit(P, target, u, top):
    # sum over N of P(N) #Sur(N, G) is |G|^-u in the limit law. Its terms are
    # nonnegative, so over the types within caps (E, E) it never decreases
    # as E grows; each prediction is at most its truncation bound above the
    # law, so it stays at most |G|^-u plus those bounds weighted by #Sur.
    G = parse_type_string(target, P)
    limit = Fraction(1, module_size(G) ** u)
    assert limit == predicted_moment(G, u)
    prev = Fraction(0)
    for E in range(top + 1):
        total = slack = Fraction(0)
        for N in enumerate_types(P, E, E):
            pred, sur = predicted_probability(N, P, u), count_sur(N, G)
            total += Fraction(pred.value) * sur
            slack += Fraction(pred.truncation_bound) * sur
        assert prev <= total <= limit + slack
        prev = total
    assert total > limit * Fraction(99, 100)


def test_partial_sum_monotone_in_caps():
    prev = Decimal(0)
    for caps in [(0, 0), (1, 1), (2, 2), (4, 4), (8, 8), (20, 20)]:
        cur = partial_sum([P2], 0, *caps).value
        assert cur >= prev
        prev = cur
    # and in each cap separately
    assert partial_sum([P2], 0, 3, 2).value >= partial_sum([P2], 0, 2, 2).value
    assert partial_sum([P2], 0, 2, 3).value >= partial_sum([P2], 0, 2, 2).value


def test_u_monotonicity_trivial_type():
    vals = [predicted_probability(ModuleType.trivial(), [P2], u).value for u in range(6)]
    for a, b in zip(vals, vals[1:]):
        assert b > a
    assert vals[-1] < 1


def test_function_field_prime_prediction():
    (px,) = factor_rational_prime(poly_domain(2), poly_elem(2, [0, 1]))
    got = predicted_probability(ModuleType.trivial(), [px], 0, tol=Fraction(1, 10 ** 15))
    assert abs(float(got.value) - 0.2887880950866024) < 1e-12


def _fraction_box_sum(q, u, E, m):
    """The box sum by the Fraction DP over conjugate-partition columns."""
    inv_prod = [Fraction(1)]
    for i in range(1, m + 1):
        inv_prod.append(inv_prod[-1] / (1 - Fraction(1, q ** i)))
    nxt = [Fraction(1)] + [Fraction(0)] * m
    for _ in range(E):
        nxt = [Fraction(1, q ** (c * c + u * c)) * sum(inv_prod[c - c2] * nxt[c2]
                                                       for c2 in range(c + 1))
               for c in range(m + 1)]
    return sum(nxt)


def test_integer_box_sum_matches_fraction_dp():
    for q, u, E, m in product((2, 3, 5, 9), (0, 1, 2), (0, 1, 2, 6), (0, 1, 3, 6)):
        assert _aut_inverse_box_sum(q, u, E, m) == _fraction_box_sum(q, u, E, m), (q, u, E, m)
    assert _aut_inverse_box_sum(2, 0, 20, 20) == _fraction_box_sum(2, 0, 20, 20)
    assert _aut_inverse_box_sum(3, 1, 0, 5) == 1 == _aut_inverse_box_sum(3, 1, 5, 0)


def test_cached_factor_ignores_caller_context():
    # The factor is cached; one first computed under a 10-digit context must
    # still carry 50 digits, so predictions do not depend on call order.
    N = ModuleType.of({P3: (1,)})
    _truncated_factor.cache_clear()
    with localcontext() as ctx:
        ctx.prec = 10
        low = predicted_probability(N, [P3], 1)
    assert predicted_probability(N, [P3], 1) == low
    _truncated_factor.cache_clear()
    fresh = predicted_probability(N, [P3], 1)
    assert fresh == low
    with localcontext() as ctx:
        ctx.prec = 10
        assert predicted_probability(N, [P3], 1) == fresh
    # called directly, the factor is the same 50-digit value in any context
    share = Fraction(1, 10 ** 9)
    _truncated_factor.cache_clear()
    with localcontext() as ctx:
        ctx.prec = 10
        low_prod, _ = _truncated_factor(2, 0, share)
    _truncated_factor.cache_clear()
    prod, _ = _truncated_factor(2, 0, share)
    assert prod == low_prod and len(prod.as_tuple().digits) == 50
