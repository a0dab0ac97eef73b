"""Polynomial arithmetic over prime fields F_p.

Polynomials are canonical tuples of coefficients in [0, p), lowest degree
first, with no trailing zeros; the zero polynomial is the empty tuple.
Everything here is exact integer arithmetic on small inputs (the package
only ever factors moduli of single-digit degree).
"""

from __future__ import annotations

from .errors import ParameterError


# trial division tries at most 2^20 divisors: larger inputs are refused
FACTOR_LIMIT = 1 << 40


def prime_divisors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending, by trial division; empty for
    n < 2, so n is prime exactly when the list is [n]. Raises ParameterError
    for n >= FACTOR_LIMIT."""
    if n >= FACTOR_LIMIT:
        raise ParameterError(f"{n} is too large to factor by trial division (limit 2^40)")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
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
    n = max(len(a), len(b))
    return normalize([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                      for i in range(n)], p)


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
        cs = []
        c = code
        for _ in range(f):
            cs.append(c % p)
            c //= p
        yield tuple(cs) + (1,)


def smallest_irreducible(p, f):
    """First irreducible monic polynomial of degree f in the fixed order."""
    for g in monic_polys(p, f):
        if is_irreducible(g, p):
            return g
    raise ParameterError(f"no irreducible polynomial of degree {f} over F_{p}")


def irreducibles_up_to(p, max_deg):
    """All monic irreducibles of degree <= max_deg, ascending (degree, code)."""
    out = []
    for f in range(1, max_deg + 1):
        for g in monic_polys(p, f):
            if is_irreducible(g, p):
                out.append(g)
    return out


def factor(a, p):
    """Factor a nonzero polynomial into monic irreducibles.

    Returns (unit, [(g, multiplicity), ...]) with factors in the deterministic
    (degree, code) order. Trial division; intended for small moduli only.
    """
    if not a:
        raise ParameterError("cannot factor the zero polynomial")
    unit = a[-1]
    a = scale(a, pow(unit, p - 2, p), p)
    factors = []
    for g in irreducibles_up_to(p, degree(a)):
        if degree(a) < 1:
            break
        m = 0
        while True:
            q, r = divmod_poly(a, g, p)
            if r == ():
                a, m = q, m + 1
            else:
                break
        if m:
            factors.append((g, m))
    assert a == (1,), "trial division must exhaust the polynomial"
    return unit, factors

