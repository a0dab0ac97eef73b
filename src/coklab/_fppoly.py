"""Polynomial arithmetic over prime fields F_p.

Polynomials are canonical tuples of coefficients in [0, p), lowest degree
first, with no trailing zeros; the zero polynomial is the empty tuple.
Everything here is exact arithmetic on Python ints and tuples. Integers are
factored by trial division under a budget of divisors tried; polynomials
are only tested for irreducibility, never factored.
"""

from __future__ import annotations

from .errors import ParameterError

# trial divisors tried before an integer is refused: at about 0.13 us per
# division (Python 3.11, 2-core Xeon) the budget runs out within about a
# second
INT_TRIAL_DIVISORS = 1 << 20


def prime_divisors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending, by trial division; empty for
    n < 2, so n is prime exactly when the list is [n]. Raises ParameterError
    before it would try more than INT_TRIAL_DIVISORS divisors (2, 3, ...),
    which no n below 2^40 needs."""
    out, rest, d = [], n, 2
    while d * d <= rest:
        if d > INT_TRIAL_DIVISORS + 1:
            raise ParameterError(f"{n} is too large to factor by trial division "
                                 "(more than 2^20 divisors)")
        if rest % d == 0:
            out.append(d)
            while rest % d == 0:
                rest //= d
        d += 1
    if rest > 1:
        out.append(rest)
    return out


def normalize(coeffs, p):
    cs = [c % p for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(a):
    """Degree of a canonical polynomial; -1 for the zero polynomial."""
    return len(a) - 1


def add(a, b, p):
    n = max(len(a), len(b))
    return normalize([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                      for i in range(n)], p)


def sub(a, b, p):
    return add(a, [-c for c in b], p)


def mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return normalize(out, p)


def scale(a, c, p):
    return normalize([x * c for x in a], p)


def divmod_poly(a, b, p):
    """Quotient and remainder of a by b (b nonzero)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [0] * max(len(a) - len(b) + 1, 1)
    inv_lead = pow(b[-1], p - 2, p)
    while len(r) >= len(b):
        while r and r[-1] % p == 0:
            r.pop()
        if len(r) < len(b):
            break
        c = (r[-1] * inv_lead) % p
        d = len(r) - len(b)
        q[d] = c
        for i, cb in enumerate(b):
            r[d + i] = (r[d + i] - c * cb) % p
        r.pop()
    return normalize(q, p), normalize(r, p)


def mod(a, b, p):
    return divmod_poly(a, b, p)[1]


def gcd(a, b, p):
    """Monic gcd."""
    while b:
        a, b = b, mod(a, b, p)
    if a:
        a = scale(a, pow(a[-1], p - 2, p), p)
    return a


def pow_mod(a, e, m, p):
    result = (1,)
    base = mod(a, m, p)
    while e:
        if e & 1:
            result = mod(mul(result, base, p), m, p)
        base = mod(mul(base, base, p), m, p)
        e >>= 1
    return result


def inv_mod(a, m, p):
    """Inverse of a modulo m via extended Euclid; a must be coprime to m."""
    r0, r1 = mod(a, m, p), m
    s0, s1 = (1,), ()
    while r1:
        q, r = divmod_poly(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, p), p)
    if degree(r0) != 0:
        raise ParameterError("element is not invertible modulo the given polynomial")
    return mod(scale(s0, pow(r0[0], p - 2, p), p), m, p)


def is_irreducible(g, p):
    """Rabin test: g | x^(p^f) - x and gcd(x^(p^(f/l)) - x, g) = 1 for primes l | f."""
    f = degree(g)
    if f < 1:
        return False
    if f == 1:
        return True
    x = (0, 1)
    for l in prime_divisors(f):
        h = sub(pow_mod(x, p ** (f // l), g, p), x, p)
        if degree(gcd(h, g, p)) != 0:
            return False
    return sub(pow_mod(x, p ** f, g, p), x, p) == ()


def monic_polys(p, f):
    """All monic degree-f polynomials, ordered by the base-p code of the
    non-leading coefficients (constant coefficient least significant)."""
    for code in range(p ** f):
        yield tuple(code // p ** i % p for i in range(f)) + (1,)


def smallest_irreducible(p, f):
    """First irreducible monic polynomial of degree f in the fixed order."""
    for g in monic_polys(p, f):
        if is_irreducible(g, p):
            return g
    raise ParameterError(f"no irreducible polynomial of degree {f} over F_{p}")
