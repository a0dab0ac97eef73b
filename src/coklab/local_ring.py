"""Exact arithmetic in finite truncations of complete local rings.

Three ring styles cover every completion the supported domains need:

* ``unramified``: mixed characteristic, Z[x]/(p^K, g) with g monic of degree
  f and irreducible mod p, its coefficients read as integers (f = 1 is plain
  Z/p^K); uniformizer p. Elements are f coefficients mod p^K.
* ``equal-char``: F_p[x]/(g^K), which is F_q[[t]]/t^K with F_q = F_p[x]/(g)
  and t = g; uniformizer g. Elements are K base-g digits, each a polynomial
  of degree < f over F_p (for f = 1 plain F_p[[t]]/t^K).
* ``ramified-quadratic``: Z[i]/(1+i)^K, the one ramified completion the
  Gaussian integers contribute; uniformizer 1+i.

Both f > 1 styles are free of rank f over Z/p^K or F_p[[t]]/t^K with basis
1, x, ..., x^(f-1), which is how :mod:`coklab.snf` lowers them onto its
array kernels. Elements are immutable and carry canonical coefficient
tuples, so equality is tuple equality. All coefficients stay below the
machine-word bound q^K <= 2^64; larger truncations are rejected at
construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from . import _fppoly as fp
from .errors import NonUnitError, ParameterError, PrecisionRangeError, RingMismatchError

UNRAMIFIED = "unramified"
EQUAL_CHAR = "equal-char"
RAMIFIED = "ramified-quadratic"

WORD_BITS = 64


def max_precision(p: int, f: int) -> int:
    """Largest K with (p^f)^K <= 2^64."""
    q = p ** f
    k = 0
    acc = 1
    while acc * q <= (1 << WORD_BITS):
        acc *= q
        k += 1
    return k


@dataclass(frozen=True)
class LocalRingSpec:
    """A truncated complete local ring with residue field of size q = p^f."""

    p: int
    f: int
    K: int
    style: str
    modulus: tuple
    # unramified: non-leading coefficients of the defining monic polynomial,
    #   as integers mod p^K (empty for f = 1);
    # equal-char: non-leading coefficients of g over F_p (empty for f = 1);
    # ramified-quadratic: always empty.

    @property
    def q(self) -> int:
        return self.p ** self.f

    @property
    def size(self) -> int:
        return self.q ** self.K

    @property
    def pK(self) -> int:
        return self.p ** self.K

    def zero(self) -> "LocalElement":
        return LocalElement(self, (0,) * self._width())

    def one(self) -> "LocalElement":
        c = [0] * self._width()
        c[0] = 1
        return LocalElement(self, tuple(c))

    def uniformizer(self) -> "LocalElement":
        c = [0] * self._width()
        if self.style == UNRAMIFIED:
            c[0] = self.p % self.pK
        else:
            # t (equal characteristic) or 1+i (ramified): digit 1 set
            if self.K > 1:
                c[self.f if self.style == EQUAL_CHAR else 1] = 1
        return LocalElement(self, tuple(c))

    def from_int(self, n: int) -> "LocalElement":
        c = [0] * self._width()
        if self.style == UNRAMIFIED:
            c[0] = n % self.pK
            return LocalElement(self, tuple(c))
        if self.style == EQUAL_CHAR:
            c[0] = n % self.p
            return LocalElement(self, tuple(c))
        return ramified_from_gauss(self, n, 0)

    def elements(self):
        """Iterate over every element (exhaustive tests only)."""
        if self.style == UNRAMIFIED:
            for cs in product(range(self.pK), repeat=self.f):
                yield LocalElement(self, cs)
        elif self.style == EQUAL_CHAR:
            for cs in product(range(self.p), repeat=self.f * self.K):
                yield LocalElement(self, cs)
        else:
            for cs in product((0, 1), repeat=self.K):
                yield LocalElement(self, cs)

    def _width(self) -> int:
        if self.style == UNRAMIFIED:
            return self.f
        if self.style == EQUAL_CHAR:
            return self.f * self.K
        return self.K

    def __repr__(self):
        return f"LocalRingSpec(p={self.p}, f={self.f}, K={self.K}, {self.style})"


@dataclass(frozen=True)
class LocalElement:
    ring: LocalRingSpec
    coeffs: tuple

    def __repr__(self):
        return f"LocalElement({self.coeffs}, {self.ring})"


@lru_cache(maxsize=None)
def make_local_ring(p: int, f: int, K: int, style: str = UNRAMIFIED) -> LocalRingSpec:
    """Construct the truncation T_p/p^K for the requested style.

    Deterministic for fixed inputs: the degree-f modulus is the first
    irreducible monic polynomial over F_p in base-p code order (for the
    unramified style its coefficients are read as integers), so equal
    parameters give interchangeable rings.
    """
    if style not in (UNRAMIFIED, EQUAL_CHAR, RAMIFIED):
        raise ParameterError(f"unknown ring style: {style!r}")
    if fp.prime_divisors(p) != [p]:
        raise ParameterError(f"p must be prime, got {p}")
    if f < 1 or K < 1:
        raise ParameterError("need f >= 1 and K >= 1")
    if style == RAMIFIED and (p, f) != (2, 1):
        raise ParameterError("ramified quadratic style is only the (1+i) completion: p=2, f=1")
    if K > max_precision(p, f):
        raise PrecisionRangeError(
            f"q^K = {p}^{f * K} exceeds the {WORD_BITS}-bit word bound; "
            f"max K here is {max_precision(p, f)}")
    return LocalRingSpec(p, f, K, style, fp.smallest_irreducible(p, f)[:-1] if f > 1 else ())


def _check_same_ring(x: LocalElement, y: LocalElement):
    if x.ring != y.ring:
        raise RingMismatchError(f"elements of {x.ring} and {y.ring} cannot be combined")


def lr_add(x: LocalElement, y: LocalElement) -> LocalElement:
    _check_same_ring(x, y)
    r = x.ring
    if r.style == UNRAMIFIED:
        m = r.pK
        return LocalElement(r, tuple((a + b) % m for a, b in zip(x.coeffs, y.coeffs)))
    if r.style == EQUAL_CHAR:
        return LocalElement(r, tuple((a + b) % r.p for a, b in zip(x.coeffs, y.coeffs)))
    ax, bx = _ramified_to_gauss(x)
    ay, by = _ramified_to_gauss(y)
    return ramified_from_gauss(r, ax + ay, bx + by)


def lr_neg(x: LocalElement) -> LocalElement:
    r = x.ring
    if r.style == UNRAMIFIED:
        m = r.pK
        return LocalElement(r, tuple((-a) % m for a in x.coeffs))
    if r.style == EQUAL_CHAR:
        return LocalElement(r, tuple((-a) % r.p for a in x.coeffs))
    a, b = _ramified_to_gauss(x)
    return ramified_from_gauss(r, -a, -b)


def lr_sub(x: LocalElement, y: LocalElement) -> LocalElement:
    return lr_add(x, lr_neg(y))


def lr_mul(x: LocalElement, y: LocalElement) -> LocalElement:
    _check_same_ring(x, y)
    r = x.ring
    if r.style == UNRAMIFIED:
        return _mul_unramified(r, x.coeffs, y.coeffs)
    if r.style == EQUAL_CHAR:
        return _mul_equal_char(r, x.coeffs, y.coeffs)
    ax, bx = _ramified_to_gauss(x)
    ay, by = _ramified_to_gauss(y)
    return ramified_from_gauss(r, ax * ay - bx * by, ax * by + bx * ay)


def _mul_unramified(r: LocalRingSpec, xc, yc) -> LocalElement:
    m = r.pK
    f = r.f
    if f == 1:
        return LocalElement(r, ((xc[0] * yc[0]) % m,))
    prod_c = [0] * (2 * f - 1)
    for i, a in enumerate(xc):
        if a:
            for j, b in enumerate(yc):
                prod_c[i + j] += a * b
    g = r.modulus  # non-leading coefficients of monic degree-f polynomial
    for d in range(2 * f - 2, f - 1, -1):
        c = prod_c[d] % m
        if c:
            for i in range(f):
                prod_c[d - f + i] -= c * g[i]
        prod_c[d] = 0
    return LocalElement(r, tuple(v % m for v in prod_c[:f]))


def _mul_equal_char(r: LocalRingSpec, xc, yc) -> LocalElement:
    p, f, K = r.p, r.f, r.K
    if f == 1:
        out = [0] * K
        for i in range(K):
            a = xc[i]
            if a:
                for j in range(K - i):
                    out[i + j] += a * yc[j]
        return LocalElement(r, tuple(v % p for v in out))
    # Digit convolution: coefficient a of digit i times coefficient b of digit
    # j is a term of x^(a+b) g^(i+j), kept in slot (i+j)w + a + b of rows of
    # w = 2f - 1 slots per digit. It vanishes when i + j >= K, which is when
    # the slot is past the last row. The rows then carry.
    w = 2 * f - 1
    xs = [(i * w + a, c) for i in range(K) for a in range(f) if (c := xc[i * f + a])]
    ys = [(i * w + a, c) for i in range(K) for a in range(f) if (c := yc[i * f + a])]
    acc = [0] * (K * w)
    for s, c in xs:
        for t, d in ys:
            if s + t >= K * w:
                break
            acc[s + t] += c * d
    return from_g_adic(r, r.modulus + (1,), [acc[k * w:(k + 1) * w] for k in range(K)])


def from_g_adic(r: LocalRingSpec, g: tuple, terms) -> LocalElement:
    """The element sum_k terms[k] g^k of F_p[x]/(g^K) in base-g digits.

    ``g`` is the prime's monic generator over F_p and the terms are
    polynomials of any degree. Digit k is the remainder of terms[k] plus
    the carry from digit k-1 on division by g; the quotient is carried into
    digit k+1. A single term is the base-g expansion of one polynomial.
    """
    p, f = r.p, r.f
    flat, carry = [], ()
    for k in range(r.K):
        if k < len(terms):
            carry = fp.add(carry, terms[k], p)
        carry, digit = fp.divmod_poly(carry, g, p) if carry else ((), ())
        flat.extend(digit + (0,) * (f - len(digit)))
    return LocalElement(r, tuple(flat))


def _ramified_to_gauss(x: LocalElement):
    """Reconstruct a Gaussian integer from (1+i)-adic digits."""
    a, b = 0, 0
    pa, pb = 1, 0  # (1+i)^j
    for d in x.coeffs:
        if d:
            a += pa
            b += pb
        pa, pb = pa - pb, pa + pb
    return a, b


def ramified_from_gauss(r: LocalRingSpec, a: int, b: int) -> LocalElement:
    """Extract K digits of a + bi in base 1+i (digits in {0,1})."""
    digits = []
    for _ in range(r.K):
        d = (a + b) & 1
        digits.append(d)
        a, b = (a - d + b) >> 1, (b - a + d) >> 1
    return LocalElement(r, tuple(digits))


def valuation(x: LocalElement) -> int:
    """Largest v <= K with x in (pi^v); the zero element reports K."""
    r = x.ring
    if r.style == UNRAMIFIED:
        v = r.K
        for c in x.coeffs:
            if c:
                w = 0
                while c % r.p == 0:
                    c //= r.p
                    w += 1
                v = min(v, w)
        return v
    if r.style == EQUAL_CHAR:
        for j in range(r.K):
            if any(x.coeffs[j * r.f:(j + 1) * r.f]):
                return j
        return r.K
    for j, d in enumerate(x.coeffs):
        if d:
            return j
    return r.K


def shift_down(x: LocalElement, v: int) -> LocalElement:
    """Exact division by pi^v for an element of valuation >= v.

    The result is the canonical representative whose ambiguity pi^(K-v)
    never leaks: callers only multiply it back against valuation->=v rows.
    """
    r = x.ring
    if v == 0:
        return x
    if r.style == UNRAMIFIED:
        s = r.p ** v
        return LocalElement(r, tuple(c // s for c in x.coeffs))
    if r.style == EQUAL_CHAR:
        w = r.f
        shifted = x.coeffs[v * w:] + (0,) * (v * w)
        return LocalElement(r, shifted)
    shifted = x.coeffs[v:] + (0,) * v
    return LocalElement(r, shifted)


def unit_inverse(x: LocalElement) -> LocalElement:
    """Inverse of a unit via a residue-field seed and Newton lifting."""
    r = x.ring
    if valuation(x) != 0:
        raise NonUnitError(f"element with valuation {valuation(x)} has no inverse")
    if r.style == UNRAMIFIED and r.f == 1:
        return LocalElement(r, (pow(x.coeffs[0], -1, r.pK),))
    if r.style == RAMIFIED:
        y = r.one()
    else:
        # seed: the residue-field inverse of the first f coefficients, read mod p
        res = fp.normalize(x.coeffs[:r.f], r.p)
        seed = (pow(res[0], -1, r.p),) if r.f == 1 else fp.inv_mod(res, r.modulus + (1,), r.p)
        y = LocalElement(r, seed + (0,) * (len(x.coeffs) - len(seed)))
    two = lr_add(r.one(), r.one())
    # error (1 - xy) squares each round; K-fold nilpotence needs ceil(log2 K)+1
    steps = max(1, (r.K - 1).bit_length() + 1)
    for _ in range(steps):
        y = lr_mul(y, lr_sub(two, lr_mul(x, y)))
    assert lr_mul(x, y) == r.one()
    return y

