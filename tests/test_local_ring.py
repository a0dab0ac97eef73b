import random

import pytest

from coklab.errors import NonUnitError, ParameterError, PrecisionRangeError, RingMismatchError
from coklab.local_ring import (
    EQUAL_CHAR,
    RAMIFIED,
    UNRAMIFIED,
    LocalElement,
    lr_add,
    lr_mul,
    lr_neg,
    lr_sub,
    make_local_ring,
    max_precision,
    shift_down,
    unit_inverse,
    valuation,
)


def ring_z3_5():
    return make_local_ring(3, 1, 5, UNRAMIFIED)


def ring_f4():
    return make_local_ring(2, 2, 1, UNRAMIFIED)


def ring_f2t3():
    return make_local_ring(2, 1, 3, EQUAL_CHAR)


SAMPLE_RINGS = [
    (3, 1, 5, UNRAMIFIED),
    (2, 2, 1, UNRAMIFIED),
    (2, 2, 4, UNRAMIFIED),
    (3, 2, 3, UNRAMIFIED),
    (2, 1, 3, EQUAL_CHAR),
    (2, 2, 3, EQUAL_CHAR),
    (3, 1, 4, EQUAL_CHAR),
    (2, 1, 5, RAMIFIED),
]


def sample_elements(ring, count, seed=0):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        if ring.style == UNRAMIFIED:
            cs = tuple(rng.randrange(ring.pK) for _ in range(ring.f))
        elif ring.style == EQUAL_CHAR:
            cs = tuple(rng.randrange(ring.p) for _ in range(ring.f * ring.K))
        else:
            cs = tuple(rng.randrange(2) for _ in range(ring.K))
        out.append(LocalElement(ring, cs))
    return out


def test_make_local_ring_examples():
    r = ring_z3_5()
    assert r.size == 3 ** 5
    assert r.q == 3

    f4 = ring_f4()
    assert f4.size == 4
    assert f4.q == 4

    f2t = ring_f2t3()
    assert f2t.size == 8


def test_make_local_ring_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        make_local_ring(4, 1, 2, UNRAMIFIED)
    with pytest.raises(ParameterError):
        make_local_ring(3, 0, 2, UNRAMIFIED)
    with pytest.raises(ParameterError):
        make_local_ring(3, 1, 0, UNRAMIFIED)
    with pytest.raises(ParameterError):
        make_local_ring(3, 1, 2, RAMIFIED)  # ramified style is only for p=2, f=1
    for style in ("weird-style", "equal-characteristic", "ramified"):  # only the three names
        with pytest.raises(ParameterError, match=style):
            make_local_ring(2, 1, 2, style)


def test_word_size_bound():
    assert max_precision(2, 1) == 64
    assert max_precision(3, 1) == 40
    assert max_precision(2, 2) == 32
    make_local_ring(2, 1, 64, UNRAMIFIED)
    with pytest.raises(PrecisionRangeError):
        make_local_ring(2, 1, 65, UNRAMIFIED)
    with pytest.raises(PrecisionRangeError):
        make_local_ring(3, 1, 41, UNRAMIFIED)


def test_modulus_selection_is_deterministic():
    a = make_local_ring(3, 2, 3, UNRAMIFIED)
    b = make_local_ring(3, 2, 3, UNRAMIFIED)
    assert a == b
    # lexicographically smallest irreducible for p=3, f=2 is x^2 + 1
    assert tuple(c % 3 for c in a.modulus) == (1, 0)
    # F_4 via x^2 + x + 1, the only irreducible quadratic over F_2
    assert ring_f4().modulus == (1, 1)


def test_add_mul_examples():
    r = ring_z3_5()
    a, b = r.from_int(80), r.from_int(163)
    assert lr_add(a, b) == r.zero()  # 243 = 3^5

    f4 = ring_f4()
    x = LocalElement(f4, (0, 1))
    assert lr_mul(x, x) == LocalElement(f4, (1, 1))  # x^2 = x + 1

    z8 = make_local_ring(2, 1, 3, UNRAMIFIED)
    assert lr_mul(z8.from_int(3), z8.from_int(3)) == z8.from_int(1)


def test_ring_size_exhaustive_small():
    for (p, f, K, style) in SAMPLE_RINGS:
        ring = make_local_ring(p, f, K, style)
        if ring.size <= 2 ** 16:
            elems = set(ring.elements())
            assert len(elems) == ring.size


@pytest.mark.parametrize("spec", SAMPLE_RINGS)
def test_ring_axioms_random(spec):
    ring = make_local_ring(*spec)
    elems = sample_elements(ring, 3 * 350, seed=hash(spec) & 0xFFFF)
    one = ring.one()
    for i in range(0, len(elems) - 2, 3):
        x, y, z = elems[i:i + 3]
        assert lr_add(lr_add(x, y), z) == lr_add(x, lr_add(y, z))
        assert lr_mul(lr_mul(x, y), z) == lr_mul(x, lr_mul(y, z))
        assert lr_add(x, y) == lr_add(y, x)
        assert lr_mul(x, y) == lr_mul(y, x)
        assert lr_mul(x, lr_add(y, z)) == lr_add(lr_mul(x, y), lr_mul(x, z))
        assert lr_mul(x, one) == x
        assert lr_add(x, lr_neg(x)) == ring.zero()


def test_uniformizer_nilpotent_of_index_K():
    for (p, f, K, style) in SAMPLE_RINGS:
        ring = make_local_ring(p, f, K, style)
        pi = ring.uniformizer()
        acc = ring.one()
        for step in range(1, K + 1):
            acc = lr_mul(acc, pi)
            if step < K:
                assert acc != ring.zero(), (ring, step)
        assert acc == ring.zero()


def test_valuation_examples():
    r = ring_z3_5()
    assert valuation(r.from_int(12)) == 1
    assert valuation(r.zero()) == 5

    gr = make_local_ring(2, 2, 4, UNRAMIFIED)
    assert valuation(gr.from_int(2)) == 1

    f2t = ring_f2t3()
    assert valuation(LocalElement(f2t, (0, 1, 0))) == 1

    ram = make_local_ring(2, 1, 5, RAMIFIED)
    assert valuation(ram.uniformizer()) == 1
    assert valuation(ram.from_int(2)) == 2  # 2 = -i (1+i)^2


@pytest.mark.parametrize("spec", SAMPLE_RINGS)
def test_valuation_product_rule(spec):
    ring = make_local_ring(*spec)
    elems = sample_elements(ring, 600, seed=1)
    K = ring.K
    for i in range(0, len(elems) - 1, 2):
        x, y = elems[i], elems[i + 1]
        assert valuation(lr_mul(x, y)) == min(valuation(x) + valuation(y), K)


def test_unit_inverse_examples():
    z8 = make_local_ring(2, 1, 3, UNRAMIFIED)
    assert unit_inverse(z8.from_int(3)) == z8.from_int(3)

    z81 = make_local_ring(3, 1, 4, UNRAMIFIED)
    assert unit_inverse(z81.from_int(7)) == z81.from_int(58)  # 7*58 = 406 = 5*81 + 1

    f4 = ring_f4()
    x = LocalElement(f4, (0, 1))
    assert unit_inverse(x) == LocalElement(f4, (1, 1))

    with pytest.raises(NonUnitError):
        unit_inverse(z8.from_int(2))


@pytest.mark.parametrize("spec", SAMPLE_RINGS)
def test_unit_inverse_on_sampled_units(spec):
    ring = make_local_ring(*spec)
    count = 0
    for x in sample_elements(ring, 400, seed=2):
        if valuation(x) == 0:
            assert lr_mul(x, unit_inverse(x)) == ring.one()
            count += 1
    assert count > 50


def test_unit_count_exhaustive():
    for (p, f, K, style) in SAMPLE_RINGS:
        ring = make_local_ring(p, f, K, style)
        if ring.size <= 4096:
            units = sum(1 for x in ring.elements() if valuation(x) == 0)
            assert units == ring.size * (ring.q - 1) // ring.q


def test_shift_down_inverts_uniformizer_multiplication():
    for (p, f, K, style) in SAMPLE_RINGS:
        ring = make_local_ring(p, f, K, style)
        pi = ring.uniformizer()
        for x in sample_elements(ring, 60, seed=3):
            y = lr_mul(x, pi)
            v = valuation(y)
            if v >= ring.K:
                continue
            # pi^v * shift_down(y, v) == y
            acc = shift_down(y, v)
            for _ in range(v):
                acc = lr_mul(acc, pi)
            assert acc == y


def test_ring_mismatch_raises():
    a = ring_z3_5().from_int(1)
    b = make_local_ring(3, 1, 4, UNRAMIFIED).from_int(1)
    with pytest.raises(RingMismatchError):
        lr_add(a, b)


def test_ramified_arithmetic_matches_gaussian_integers():
    # (1+i)^2 = 2i: squaring the uniformizer must equal from 2i
    ram = make_local_ring(2, 1, 6, RAMIFIED)
    pi = ram.uniformizer()
    from coklab.local_ring import ramified_from_gauss
    assert lr_mul(pi, pi) == ramified_from_gauss(ram, 0, 2)
    # i has all-ones digit expansion: geometric series 1/(1-(1+i)) = i
    i_elem = ramified_from_gauss(ram, 0, 1)
    assert i_elem.coeffs == (1,) * 6
    # i^2 = -1
    assert lr_mul(i_elem, i_elem) == lr_neg(ram.one())


def test_subtraction():
    r = ring_z3_5()
    assert lr_sub(r.from_int(10), r.from_int(12)) == r.from_int(-2)
