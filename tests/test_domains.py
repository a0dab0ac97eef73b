import random

import pytest

from coklab.domains import (
    ZI,
    ZZ,
    Element,
    elem_add,
    elem_mul,
    elementary_quotient_ideals,
    factor_rational_prime,
    format_element,
    gauss_elem,
    int_elem,
    parse_element,
    poly_domain,
    poly_elem,
    poly_pretty,
    reduce_mod_prime_power,
    residue_vector,
    split_prime_root,
)
from coklab.errors import ParameterError, RingMismatchError
from coklab.local_ring import lr_add, lr_mul, valuation


F2X = poly_domain(2)
F3X = poly_domain(3)


def primes_up_to(n):
    sieve = [True] * (n + 1)
    out = []
    for p in range(2, n + 1):
        if sieve[p]:
            out.append(p)
            for m in range(p * p, n + 1, p):
                sieve[m] = False
    return out


def test_factor_examples():
    (p7,) = factor_rational_prime(ZZ, 7)
    assert (p7.e, p7.f, p7.q) == (1, 1, 7)
    assert p7.generator == int_elem(7)

    pr5 = factor_rational_prime(ZI, 5)
    assert [pr.generator.value for pr in pr5] == [(2, 1), (2, -1)]
    assert all((pr.e, pr.f, pr.q) == (1, 1, 5) for pr in pr5)

    (p3,) = factor_rational_prime(ZI, 3)
    assert (p3.e, p3.f, p3.q) == (1, 2, 9)

    (p2,) = factor_rational_prime(ZI, 2)
    assert (p2.e, p2.f, p2.q) == (2, 1, 2)
    assert p2.generator == gauss_elem(1, 1)

    (px,) = factor_rational_prime(F2X, poly_elem(2, [0, 1]))
    assert (px.e, px.f, px.q) == (1, 1, 2)

    with pytest.raises(ParameterError):
        factor_rational_prime(ZZ, 6)
    with pytest.raises(ParameterError):
        factor_rational_prime(F2X, poly_elem(2, [1, 0, 1]))  # x^2+1 = (x+1)^2 over F_2


def test_norm_consistency_under_200():
    degree = {ZZ.kind: 1, ZI.kind: 2}
    for domain in (ZZ, ZI):
        for p in primes_up_to(199):
            primes = factor_rational_prime(domain, p)
            assert sum(pr.e * pr.f for pr in primes) == degree[domain.kind]
            for pr in primes:
                assert pr.q == pr.p ** pr.f


def test_conjugate_prime():
    pr, prbar = factor_rational_prime(ZI, 13)
    assert pr.conjugate() == prbar
    assert prbar.conjugate() == pr
    (inert,) = factor_rational_prime(ZI, 7)
    with pytest.raises(ParameterError):
        inert.conjugate()


def test_hensel_root_split_primes():
    for p in primes_up_to(199):
        if p % 4 != 1:
            continue
        pr, prbar = factor_rational_prime(ZI, p)
        for K in (1, 4, 12):
            for prime in (pr, prbar):
                r = split_prime_root(prime, K)
                assert (r * r + 1) % p ** K == 0
                a, b = prime.generator.value
                assert (a + b * r) % p == 0


def test_reduce_examples():
    (p5,) = factor_rational_prime(ZZ, 5)
    x = reduce_mod_prime_power(int_elem(7), p5, 3)
    assert x == x.ring.from_int(7) and x.ring.size == 125

    pr, _ = factor_rational_prime(ZI, 5)
    img_i = reduce_mod_prime_power(gauss_elem(0, 1), pr, 1)
    assert img_i.coeffs == (3,)  # i = -2 = 3 since 2+i = 0 mod the ideal

    (px,) = factor_rational_prime(F2X, poly_elem(2, [0, 1]))
    img = reduce_mod_prime_power(poly_elem(2, [0, 1, 1]), px, 3)  # x^2 + x
    assert img.coeffs == (0, 1, 1)  # t + t^2


def test_reduce_is_ring_homomorphism():
    rng = random.Random(7)
    cases = []
    for p in (2, 3, 5, 13):
        for pr in factor_rational_prime(ZZ, p):
            cases.append((pr, lambda r=rng: int_elem(r.randrange(-500, 500))))
    for p in (2, 3, 5, 13):
        for pr in factor_rational_prime(ZI, p):
            cases.append((pr, lambda r=rng: gauss_elem(r.randrange(-50, 50), r.randrange(-50, 50))))
    for p, g in [(2, [0, 1]), (2, [1, 1]), (2, [1, 1, 1]), (2, [1, 1, 0, 1]), (3, [1, 0, 1])]:
        for pr in factor_rational_prime(poly_domain(p), poly_elem(p, g)):
            cases.append((pr, lambda r=rng, p=p: poly_elem(p, [r.randrange(p) for _ in range(6)])))
    K = 4
    for prime, draw in cases:
        one = reduce_mod_prime_power(_one_of(prime.domain), prime, K)
        assert one == one.ring.one()
        for _ in range(300):
            x, y = draw(), draw()
            rx = reduce_mod_prime_power(x, prime, K)
            ry = reduce_mod_prime_power(y, prime, K)
            assert reduce_mod_prime_power(elem_add(x, y), prime, K) == lr_add(rx, ry)
            assert reduce_mod_prime_power(elem_mul(x, y), prime, K) == lr_mul(rx, ry)


def _one_of(domain):
    if domain.kind == "integers":
        return int_elem(1)
    if domain.kind == "gaussian-integers":
        return gauss_elem(1, 0)
    return poly_elem(domain.char, [1])


def test_reduce_uniformizer_valuations():
    # generators map to valuation-1 elements in their own completion
    pr, prbar = factor_rational_prime(ZI, 5)
    g = Element(ZI, (2, 1))
    assert valuation(reduce_mod_prime_power(g, pr, 6)) == 1
    assert valuation(reduce_mod_prime_power(g, prbar, 6)) == 0  # unit in the conjugate
    (p2,) = factor_rational_prime(ZI, 2)
    assert valuation(reduce_mod_prime_power(gauss_elem(1, 1), p2, 6)) == 1
    assert valuation(reduce_mod_prime_power(gauss_elem(2, 0), p2, 6)) == 2
    (inert,) = factor_rational_prime(ZI, 3)
    assert valuation(reduce_mod_prime_power(gauss_elem(3, 0), inert, 5)) == 1


def test_elementary_quotient_ideals_integers():
    ideals = elementary_quotient_ideals(ZZ, int_elem(12))
    assert [(i.p, i.k) for i in ideals] == [(2, 1), (3, 1)]


def test_elementary_quotient_ideals_gaussian():
    ideals = elementary_quotient_ideals(ZI, gauss_elem(5, 0))
    assert sorted((i.k, i.label) for i in ideals) == [
        (1, "(2+i)"), (1, "(2-i)"), (2, "(5)")]
    # a = 2+i: only the ideal (2+i) itself contains it
    ideals = elementary_quotient_ideals(ZI, gauss_elem(2, 1))
    assert [(i.k, i.label) for i in ideals] == [(1, "(2+i)")]
    # a = 2: the ramified ideal and (2)
    ideals = elementary_quotient_ideals(ZI, gauss_elem(2, 0))
    assert [(i.k, i.label) for i in ideals] == [(1, "(1+i)"), (2, "(2)")]


def test_elementary_quotient_ideals_polynomials():
    ideals = elementary_quotient_ideals(F2X, poly_elem(2, [0, 0, 1]))  # x^2
    assert [(i.k, i.label) for i in ideals] == [(1, "(x)"), (2, "(x^2)")]
    with pytest.raises(ParameterError):
        elementary_quotient_ideals(F2X, poly_elem(2, [1]))
    with pytest.raises(ParameterError):
        elementary_quotient_ideals(ZZ, int_elem(0))


def test_residue_vector_examples():
    (i3,) = [i for i in elementary_quotient_ideals(ZZ, int_elem(12)) if i.p == 3]
    assert residue_vector(int_elem(7), i3) == (1,)

    ideals = elementary_quotient_ideals(ZI, gauss_elem(5, 0))
    (full,) = [i for i in ideals if i.k == 2]
    assert residue_vector(gauss_elem(1, 2), full) == (1, 2)

    ideals = elementary_quotient_ideals(F2X, poly_elem(2, [0, 0, 1]))
    (x2,) = [i for i in ideals if i.k == 2]
    assert residue_vector(poly_elem(2, [0, 0, 0, 1]), x2) == (0, 0)  # x^3 in (x^2)


def test_residue_vector_additivity():
    rng = random.Random(11)
    ideals = (elementary_quotient_ideals(ZI, gauss_elem(10, 0))
              + elementary_quotient_ideals(ZZ, int_elem(60))
              + elementary_quotient_ideals(F3X, poly_elem(3, [0, 1, 2, 1])))
    for ideal in ideals:
        for _ in range(200):
            if ideal.domain.kind == "integers":
                x, y = int_elem(rng.randrange(-99, 99)), int_elem(rng.randrange(-99, 99))
            elif ideal.domain.kind == "gaussian-integers":
                x = gauss_elem(rng.randrange(-20, 20), rng.randrange(-20, 20))
                y = gauss_elem(rng.randrange(-20, 20), rng.randrange(-20, 20))
            else:
                x = poly_elem(3, [rng.randrange(3) for _ in range(5)])
                y = poly_elem(3, [rng.randrange(3) for _ in range(5)])
            lhs = residue_vector(elem_add(x, y), ideal)
            rhs = tuple((u + v) % ideal.p
                        for u, v in zip(residue_vector(x, ideal), residue_vector(y, ideal)))
            assert lhs == rhs


@pytest.mark.parametrize("domain,text,value", [
    (ZZ, "17", 17),
    (ZZ, "-4", -4),
    (ZI, "2+i", (2, 1)),
    (ZI, "2-i", (2, -1)),
    (ZI, "i", (0, 1)),
    (ZI, "-i", (0, -1)),
    (ZI, "3", (3, 0)),
    (ZI, "-1-2i", (-1, -2)),
    (ZI, "5i", (0, 5)),
    (F2X, "0,1", (0, 1)),
    (F2X, "1,1,1", (1, 1, 1)),
    (F3X, "4,0,1", (1, 0, 1)),
])
def test_parse_element(domain, text, value):
    e = parse_element(domain, text)
    assert e.value == value
    # round trip through the canonical format
    assert parse_element(domain, format_element(e)) == e


def test_parse_rejects_garbage():
    for domain, text in [(ZZ, "2+i"), (ZI, "2+"), (ZI, "ii"), (F2X, "1,x")]:
        with pytest.raises(ParameterError):
            parse_element(domain, text)


def test_poly_pretty():
    assert poly_pretty((0, 1)) == "x"
    assert poly_pretty((1, 1, 1)) == "x^2+x+1"
    assert poly_pretty((2, 0, 1)) == "x^2+2"
    assert poly_pretty(()) == "0"


def test_domain_mismatch():
    with pytest.raises(RingMismatchError):
        elem_add(int_elem(1), gauss_elem(1, 0))
    (p5,) = factor_rational_prime(ZZ, 5)
    with pytest.raises(RingMismatchError):
        reduce_mod_prime_power(gauss_elem(1, 0), p5, 2)
