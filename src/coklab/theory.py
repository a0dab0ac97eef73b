"""Closed-form limiting probabilities and moment predictions.

The limiting law assigns a module type N the mass

    1 / (|Aut(N)| |N|^u) * prod_i prod_{j>=1} (1 - q_i^(-u-j)),

one double product factor per prime in the ambient set P. Infinite products
are truncated with explicit tail control: predictions carry the value and a
rigorous upper bound on the truncation error, computed by interval
arithmetic (the lower product uses C_i - tail_i). Internal arithmetic is
50-digit decimal, far below any Monte Carlo resolution; partition sums use
exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from math import log2

from .errors import ParameterError
from .modules import ModuleType, count_aut, module_size

_DIGITS = 50
DEFAULT_TOL = Fraction(1, 10 ** 9)
# bounds on the type caps (check_caps); types past a cap of 64 have a
# limiting mass of order q^-64. The box-sum DP took 0.3-0.4 s at caps
# (32, 32) with q = 2 and u = 0, where E (m + 1) B = 1.6e6 (Python 3.11, one
# core of a Xeon host).
MAX_CAP = 64
BOX_SUM_BUDGET = 2 * 10 ** 6


@dataclass(frozen=True)
class Prediction:
    value: Decimal
    truncation_bound: Decimal

    def __float__(self):
        return float(self.value)


def _tol_fraction(tol) -> Fraction:
    tol = Fraction(tol)
    if tol <= 0:
        raise ParameterError("tolerance must be positive")
    return tol


@lru_cache(maxsize=256)
def _truncated_factor(q: int, u: int, tol_share: Fraction):
    """(product over j <= J of (1 - q^-u-j), exact tail bound) with
    tail(J) = sum_{j>J} q^(-u-j) = q^(-u-J)/(q-1) < tol_share. Computed
    once per argument triple and then served from the cache to every
    caller, so it is computed in its own 50-digit context: its value then
    depends on the arguments alone. Its caller here, _interval, already runs
    at 50 digits; a direct call in another context, as in the tests, gets
    the same value."""
    J = 1
    while Fraction(1, q ** (u + J) * (q - 1)) >= tol_share:
        J += 1
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        prod = Decimal(1)
        qd = Decimal(q)
        for j in range(1, J + 1):
            prod *= 1 - 1 / qd ** (u + j)
    return prod, Fraction(1, q ** (u + J) * (q - 1))


def _frac_to_dec(x: Fraction) -> Decimal:
    return Decimal(x.numerator) / Decimal(x.denominator)


def _interval(lead: Fraction, P, u: int, tol, box=None) -> Prediction:
    """lead times the truncated product of each prime of P (and box(q) when
    given) in 50 digits, as the value hi and the bound hi - lo, where lo
    takes each product less its tail; each tail gets tol / (2 |P|)."""
    tol = _tol_fraction(tol)
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        share = tol / (2 * len(P)) if P else tol
        hi = lo = _frac_to_dec(lead)
        for prime in P:
            prod, tail = _truncated_factor(prime.q, u, share)
            low = max(prod - _frac_to_dec(tail), Decimal(0))
            if box is not None:
                b = _frac_to_dec(box(prime.q))
                prod, low = prod * b, low * b
            hi *= prod
            lo *= low
        return Prediction(hi, hi - lo)


def predicted_probability(N: ModuleType, P, u: int, tol=DEFAULT_TOL) -> Prediction:
    """Limiting probability of observing type N among the primes P."""
    P = list(P)
    if u < 0:
        raise ParameterError("u must be nonnegative")
    known = set(P)
    for prime in N.primes():
        if prime not in known:
            raise ParameterError(f"type component at {prime} outside the prime set")
    return _interval(Fraction(1, count_aut(N) * module_size(N) ** u), P, u, tol)


def predicted_moment(N: ModuleType, u: int) -> Fraction:
    """Limiting expected number of surjections onto N: exactly |N|^-u."""
    if u < 0:
        raise ParameterError("u must be nonnegative")
    return Fraction(1, module_size(N) ** u)


def _aut_inverse_box_sum(q: int, u: int, cap_exponent: int, cap_parts: int) -> Fraction:
    """Exact sum over partitions in the box of 1 / (|Aut| * q^(u |lambda|)).

    Runs over conjugate-partition columns c_1 >= ... >= c_E (heights <= the
    part cap m), using |Aut| = q^(sum c_k^2) * prod_k prod_{i<=c_k - c_{k+1}}
    (1 - q^-i); a direct DP, so caps like (20, 20) stay cheap while agreeing
    with literal enumeration on small boxes. It runs in integers over one
    common denominator: with P_k = prod_{i<=k} (q^i - 1) and T = m^2 + u m,
    1 / prod_{i<=k} (1 - q^-i) = q^(k(k+1)/2) (P_m / P_k) / P_m and
    q^-(c^2 + u c) = q^(T - c^2 - u c) / q^T, so each column multiplies the
    denominator by P_m q^T.
    """
    E, m = cap_exponent, cap_parts
    P = [1]
    for i in range(1, m + 1):
        P.append(P[-1] * (q ** i - 1))
    inv_prod = [q ** (k * (k + 1) // 2) * (P[m] // P[k]) for k in range(m + 1)]
    weight = [q ** (m * m + u * m - c * c - u * c) for c in range(m + 1)]
    nxt = [1] + [0] * m  # chain terminator c_(E+1) = 0
    for _ in range(E):
        nxt = [weight[c] * sum(inv_prod[c - c2] * nxt[c2] for c2 in range(c + 1))
               for c in range(m + 1)]
    return Fraction(sum(nxt), (P[m] * q ** (m * m + u * m)) ** E)


def check_caps(P, u: int, cap_exponent: int, cap_parts: int) -> None:
    """Raise ParameterError for caps outside [0, MAX_CAP], or for caps whose
    box sum (:func:`_aut_inverse_box_sum`) at the largest q of P is over
    budget.

    With E = cap_exponent, m = cap_parts and B = (3m^2/2 + m/2 + u m) log2 q
    about the bits of P_m q^T, the DP makes E rounds of (m + 1)^2 / 2
    products of B-bit integers with integers of up to E B bits, so its time
    grows as (E (m + 1) B)^2; E (m + 1) B must be at most BOX_SUM_BUDGET.
    """
    E, m = cap_exponent, cap_parts
    if not (0 <= E <= MAX_CAP and 0 <= m <= MAX_CAP):
        raise ParameterError(f"type caps ({E}, {m}) must lie in [0, {MAX_CAP}]")
    work = E * (m + 1) * (m * (3 * m + 1) / 2 + u * m) * log2(max((pr.q for pr in P), default=1))
    if work > BOX_SUM_BUDGET:
        raise ParameterError(f"type caps ({E}, {m}) are over the box-sum budget: E (m + 1) "
                             f"(3m^2/2 + m/2 + u m) log2 q = {work:.3g} > {BOX_SUM_BUDGET:.0e}")


def partial_sum(P, u: int, cap_exponent: int, cap_parts: int, tol=DEFAULT_TOL) -> Prediction:
    """Total predicted mass of all types within the exponent/parts box.

    Factorizes over primes: the box of types is a product of per-prime
    partition boxes and the law is multiplicative across primes, so the sum
    is prod_i C_i(u) * S_i(box). Monotone nondecreasing in either cap.
    """
    P = list(P)
    check_caps(P, u, cap_exponent, cap_parts)
    return _interval(Fraction(1), P, u, tol,
                     lambda q: _aut_inverse_box_sum(q, u, cap_exponent, cap_parts))
