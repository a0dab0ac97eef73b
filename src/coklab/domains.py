"""Concrete Dedekind domains: Z, Z[i], and F_p[x].

Provides prime ideal factorization, canonical reduction maps into the
truncated local rings of :mod:`coklab.local_ring`, and the elementary
abelian quotient ideals that the balance auditor enumerates. Elements
parse from text: integers ``"±n"``, Gaussian integers ``"a+bi"``, and
polynomials as coefficient lists ``"c0,c1,..."``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import lru_cache

from . import _fppoly as fp
from .errors import ParameterError, RingMismatchError
from .local_ring import (
    EQUAL_CHAR,
    RAMIFIED,
    UNRAMIFIED,
    LocalElement,
    LocalRingSpec,
    from_g_adic,
    make_local_ring,
    ramified_from_gauss,
)

INTEGERS = "integers"
GAUSSIAN = "gaussian-integers"
POLYNOMIALS = "polynomials-over-F_p"


@dataclass(frozen=True)
class DomainId:
    kind: str
    char: int | None = None

    def __post_init__(self):
        if self.kind not in (INTEGERS, GAUSSIAN, POLYNOMIALS):
            raise ParameterError(f"unknown domain kind: {self.kind!r}")
        if (self.kind == POLYNOMIALS) != (self.char is not None):
            raise ParameterError("char parameter is required exactly for the polynomial domain")
        if self.char is not None and fp.prime_divisors(self.char) != [self.char]:
            raise ParameterError(f"polynomial domain needs a prime characteristic, got {self.char}")

    def __repr__(self):
        if self.kind == POLYNOMIALS:
            return f"F_{self.char}[x]"
        return "Z[i]" if self.kind == GAUSSIAN else "Z"


ZZ = DomainId(INTEGERS)
ZI = DomainId(GAUSSIAN)


def poly_domain(p: int) -> DomainId:
    return DomainId(POLYNOMIALS, p)


@dataclass(frozen=True)
class Element:
    """A domain element: an integer, a Gaussian pair, or an F_p[x] tuple."""

    domain: DomainId
    value: object  # int | (int, int) | tuple of coefficients

    def is_zero(self) -> bool:
        if self.domain.kind == INTEGERS:
            return self.value == 0
        if self.domain.kind == GAUSSIAN:
            return self.value == (0, 0)
        return self.value == ()

    def __repr__(self):
        return f"Element({format_element(self)!r}, {self.domain!r})"


def int_elem(n: int) -> Element:
    return Element(ZZ, int(n))


def gauss_elem(a: int, b: int) -> Element:
    return Element(ZI, (int(a), int(b)))


def poly_elem(p: int, coeffs) -> Element:
    return Element(poly_domain(p), fp.normalize(coeffs, p))


def elem_add(x: Element, y: Element) -> Element:
    _same_domain(x, y)
    d = x.domain
    if d.kind == INTEGERS:
        return Element(d, x.value + y.value)
    if d.kind == GAUSSIAN:
        return Element(d, (x.value[0] + y.value[0], x.value[1] + y.value[1]))
    return Element(d, fp.add(x.value, y.value, d.char))


def elem_neg(x: Element) -> Element:
    d = x.domain
    if d.kind == INTEGERS:
        return Element(d, -x.value)
    if d.kind == GAUSSIAN:
        return Element(d, (-x.value[0], -x.value[1]))
    return Element(d, fp.sub((), x.value, d.char))


def elem_mul(x: Element, y: Element) -> Element:
    _same_domain(x, y)
    d = x.domain
    if d.kind == INTEGERS:
        return Element(d, x.value * y.value)
    if d.kind == GAUSSIAN:
        a, b = x.value
        c, e = y.value
        return Element(d, (a * c - b * e, a * e + b * c))
    return Element(d, fp.mul(x.value, y.value, d.char))


def _same_domain(x: Element, y: Element):
    if x.domain != y.domain:
        raise RingMismatchError(f"elements of {x.domain} and {y.domain} cannot be combined")


_INT_RE = re.compile(r"^[+-]?\d+$")


def _parse_imag_part(text: str) -> int:
    body = text[:-1]  # strip trailing i
    if body in ("", "+"):
        return 1
    if body == "-":
        return -1
    if not _INT_RE.match(body):
        raise ParameterError(f"bad imaginary part: {text!r}")
    return int(body)


def parse_element(domain: DomainId, text: str) -> Element:
    """Parse the per-domain element grammar used by configs and the CLI."""
    text = text.strip().replace(" ", "")
    if domain.kind == INTEGERS:
        if not _INT_RE.match(text):
            raise ParameterError(f"bad integer literal: {text!r}")
        return int_elem(int(text))
    if domain.kind == GAUSSIAN:
        if not text:
            raise ParameterError("empty Gaussian integer literal")
        if not text.endswith("i"):
            if not _INT_RE.match(text):
                raise ParameterError(f"bad Gaussian integer literal: {text!r}")
            return gauss_elem(int(text), 0)
        # split at the last interior sign, if any: real then imaginary
        split_at = max(text.rfind("+", 1), text.rfind("-", 1))
        if split_at <= 0:
            return gauss_elem(0, _parse_imag_part(text))
        real_part, imag_part = text[:split_at], text[split_at:]
        if not _INT_RE.match(real_part):
            raise ParameterError(f"bad Gaussian integer literal: {text!r}")
        return gauss_elem(int(real_part), _parse_imag_part(imag_part))
    try:
        coeffs = [int(c) for c in text.split(",")] if text else []
    except ValueError:
        raise ParameterError(f"bad polynomial literal: {text!r}") from None
    return poly_elem(domain.char, coeffs)


def format_element(x: Element) -> str:
    if x.domain.kind == INTEGERS:
        return str(x.value)
    if x.domain.kind == GAUSSIAN:
        a, b = x.value
        if b == 0:
            return str(a)
        if b == 1:
            imag = "i"
        elif b == -1:
            imag = "-i"
        else:
            imag = f"{b}i"
        if a == 0:
            return imag
        return f"{a}+{imag}" if not imag.startswith("-") else f"{a}{imag}"
    return ",".join(str(c) for c in x.value) if x.value else "0"


def poly_pretty(coeffs) -> str:
    """Human-facing x-notation, used for ideal and prime labels."""
    if not coeffs:
        return "0"
    terms = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if not c:
            continue
        if d == 0:
            terms.append(str(c))
        else:
            xpow = "x" if d == 1 else f"x^{d}"
            terms.append(xpow if c == 1 else f"{c}{xpow}")
    return "+".join(terms)


@dataclass(frozen=True)
class PrimeIdealDesc:
    """A maximal ideal with residue size q = p^f and ramification index e."""

    domain: DomainId
    p: int  # residue characteristic
    f: int
    e: int
    q: int
    generator: Element

    @property
    def descriptor(self) -> str:
        """Canonical short form used in type strings and reports."""
        if self.domain.kind == POLYNOMIALS:
            return poly_pretty(self.generator.value)
        return format_element(self.generator)

    def conjugate(self) -> "PrimeIdealDesc":
        """The complex-conjugate prime (split Gaussian primes only)."""
        if self.domain.kind != GAUSSIAN or self.e != 1 or self.f != 1:
            raise ParameterError("only split Gaussian primes have a distinct conjugate")
        a, b = self.generator.value
        return PrimeIdealDesc(self.domain, self.p, self.f, self.e, self.q, gauss_elem(a, -b))

    def __repr__(self):
        return f"({self.descriptor})"

    def __hash__(self):  # one tuple, not the generated hashes of domain and element
        return hash((self.p, self.f, self.generator.value))


def factor_rational_prime(domain: DomainId, p) -> list[PrimeIdealDesc]:
    """Factor pT into primes; for F_p[x] the argument is an irreducible polynomial."""
    if domain.kind == POLYNOMIALS:
        g = p.value if isinstance(p, Element) else fp.normalize(p, domain.char)
        if isinstance(p, Element) and p.domain != domain:
            raise ParameterError("polynomial belongs to a different domain")
        if fp.degree(g) < 1 or not fp.is_irreducible(g, domain.char):
            raise ParameterError(f"{poly_pretty(g)} is not irreducible over F_{domain.char}")
        if g[-1] != 1:
            g = fp.scale(g, pow(g[-1], domain.char - 2, domain.char), domain.char)
        f = fp.degree(g)
        return [PrimeIdealDesc(domain, domain.char, f, 1, domain.char ** f,
                               Element(domain, g))]
    if not isinstance(p, int) or fp.prime_divisors(p) != [p]:
        raise ParameterError(f"{p} is not a rational prime")
    if domain.kind == INTEGERS:
        return [PrimeIdealDesc(domain, p, 1, 1, p, int_elem(p))]
    # Gaussian integers
    if p == 2:
        return [PrimeIdealDesc(domain, 2, 1, 2, 2, gauss_elem(1, 1))]
    if p % 4 == 3:
        return [PrimeIdealDesc(domain, p, 2, 1, p * p, gauss_elem(p, 0))]
    a, b = _two_squares(p)
    return [PrimeIdealDesc(domain, p, 1, 1, p, gauss_elem(a, b)),
            PrimeIdealDesc(domain, p, 1, 1, p, gauss_elem(a, -b))]


def _two_squares(p: int) -> tuple[int, int]:
    """p = a^2 + b^2 with a > b > 0, unique for p = 1 mod 4."""
    b = 1
    while 2 * b * b < p:
        a2 = p - b * b
        a = int(a2 ** 0.5)
        for cand in (a - 1, a, a + 1):
            if cand > 0 and cand * cand == a2:
                return cand, b
        b += 1
    raise ParameterError(f"{p} is not a sum of two squares")


@lru_cache(maxsize=None)
def _hensel_root_of_minus_one(p: int, r0: int, K: int) -> int:
    """Lift the root r0 of x^2 + 1 mod p to modulus p^K by Newton steps."""
    r = r0 % p
    prec = 1
    while prec < K:
        prec = min(2 * prec, K)
        m = p ** prec
        r = (r - (r * r + 1) * pow(2 * r, -1, m)) % m
    assert (r * r + 1) % p ** K == 0
    return r


def split_prime_root(prime: PrimeIdealDesc, K: int) -> int:
    """Image of i in Z/p^K for a split Gaussian prime a+bi (root with a+b*r = 0 mod p)."""
    a, b = prime.generator.value
    r0 = (-a * pow(b, -1, prime.p)) % prime.p
    return _hensel_root_of_minus_one(prime.p, r0, K)


def local_ring_for(prime: PrimeIdealDesc, K: int) -> LocalRingSpec:
    """The truncation T_p/p^K attached to a prime ideal."""
    d = prime.domain
    if d.kind == INTEGERS:
        return make_local_ring(prime.p, 1, K, UNRAMIFIED)
    if d.kind == GAUSSIAN:
        if prime.e == 2:
            return make_local_ring(2, 1, K, RAMIFIED)
        if prime.f == 2:
            ring = make_local_ring(prime.p, 2, K, UNRAMIFIED)
            assert ring.modulus == (1, 0), "a + bi reduces to (a, b) only modulo x^2 + 1"
            return ring
        return make_local_ring(prime.p, 1, K, UNRAMIFIED)
    g = prime.generator.value
    f = fp.degree(g)
    ring = make_local_ring(d.char, f, K, EQUAL_CHAR)
    return ring if f == 1 else replace(ring, modulus=g[:-1])  # the prime's own residue polynomial


def reduce_mod_prime_power(x: Element, prime: PrimeIdealDesc, K: int) -> LocalElement:
    """Canonical image of x in T_p/p^K."""
    if x.domain != prime.domain:
        raise RingMismatchError("element and prime belong to different domains")
    ring = local_ring_for(prime, K)
    d = x.domain
    if d.kind == INTEGERS:
        return ring.from_int(x.value)
    if d.kind == GAUSSIAN:
        a, b = x.value
        if prime.e == 2:
            return ramified_from_gauss(ring, a, b)
        if prime.f == 2:
            m = ring.pK
            return LocalElement(ring, (a % m, b % m))
        r = split_prime_root(prime, K)
        return ring.from_int(a + b * r)
    # F_p[x]: base-g digits, each a polynomial of degree < f
    return from_g_adic(ring, prime.generator.value, [x.value])


@dataclass(frozen=True)
class ElementaryQuotientIdeal:
    """An ideal I with T/I elementary abelian of rank k over F_p.

    ``proj_kind``/``proj_data`` pin the surjection T -> F_p^k in a fixed
    basis; :func:`residue_vector` evaluates it.
    """

    domain: DomainId
    p: int
    k: int
    label: str
    proj_kind: str
    proj_data: tuple

    def __repr__(self):
        return f"ElementaryQuotientIdeal({self.label}, p={self.p}, k={self.k})"


def residue_vector(x: Element, ideal: ElementaryQuotientIdeal) -> tuple:
    """Coordinates of x + I in the chosen F_p-basis; additive in x."""
    p = ideal.p
    kind = ideal.proj_kind
    if kind == "int-prime":
        return (x.value % p,)
    if kind == "gauss-rational":
        a, b = x.value
        return (a % p, b % p)
    if kind == "gauss-split":
        a, b = x.value
        (r,) = ideal.proj_data
        return ((a + b * r) % p,)
    if kind == "gauss-ramified":
        a, b = x.value
        return ((a + b) % 2,)
    if kind == "poly-divisor":
        h = ideal.proj_data
        r = fp.mod(x.value, h, p)
        return tuple(r[i] if i < len(r) else 0 for i in range(len(h) - 1))
    raise ParameterError(f"unknown projection kind {kind!r}")


def elementary_quotient_ideals(domain: DomainId, primes) -> list[ElementaryQuotientIdeal]:
    """The ideals I the balance audit scans for the given primes: T/I is an
    elementary abelian group and I contains the rational prime p below one
    of them (over F_p[x], where p = 0, the product of their generators).

    Over Z and Z[i] these are the ideals between pT and T for each such p,
    ordered by (p, k, label); over F_p[x], the products of the nonempty sets
    of distinct generators, ordered by (k, label). Nothing is factored.
    """
    if not primes:
        raise ParameterError("the balance audit needs at least one prime")
    if any(pr.domain != domain for pr in primes):
        raise RingMismatchError("primes belong to a different domain")
    if domain.kind == POLYNOMIALS:
        p = domain.char
        products = [(1,)]
        for g in sorted({pr.generator.value for pr in primes}):
            products += [fp.mul(h, g, p) for h in products]
        out = [ElementaryQuotientIdeal(domain, p, fp.degree(h), f"({poly_pretty(h)})",
                                       "poly-divisor", h) for h in products[1:]]
        out.sort(key=lambda i: (i.k, i.label))
        return out
    out = []
    for p, pr in {pr.p: pr for pr in primes}.items():
        if domain.kind == INTEGERS:
            out.append(ElementaryQuotientIdeal(domain, p, 1, f"({p})", "int-prime", ()))
            continue
        if p == 2:
            out.append(ElementaryQuotientIdeal(domain, 2, 1, "(1+i)", "gauss-ramified", ()))
        elif p % 4 == 1:  # split: a configured prime above p and its conjugate
            for half in (pr, pr.conjugate()):
                out.append(ElementaryQuotientIdeal(domain, p, 1, f"({half.descriptor})",
                                                   "gauss-split", (split_prime_root(half, 1),)))
        out.append(ElementaryQuotientIdeal(domain, p, 2, f"({p})", "gauss-rational", ()))
    out.sort(key=lambda i: (i.p, i.k, i.label))
    return out
