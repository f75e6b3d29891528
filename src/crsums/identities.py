"""Divisor-sum identities for Cohen-Ramanujan sums.

Central object: h_n(k) = Σ_{q|k} |c_q^(s)(n)|.  This module computes it
literally from the sum evaluators and, along independent routes, the bound
n·2**ω(k) it never exceeds, the exact closed form

    Σ_{q|k} |c_q^(s)(n)| = 2**ω(k**s / (k**s,n)_s) · (k**s,n)_s,

the orthogonality relation Σ_{q|k} c_q^(s)(n**s) = k**s·[k|n], and the
Möbius inversion S(k,n) of the closed form, which recovers |c_k^(s)(n)|.
Every comparison is an exact integer equality; there are no tolerances
anywhere in this module.
"""

from __future__ import annotations

from math import gcd

from .arith import (
    _require_positive,
    divisors,
    mobius,
    omega,
    radical,
    s_adapted_gcd,
)
from .crsum import _jordan_quotient, _multiplicative_value


def divisor_abs_sum(k: int, n: int, s: int) -> int:
    """h_n(k) = Σ_{q|k} |c_q^(s)(n)|, summed term by term."""
    _require_positive(k=k, n=n, s=s)
    return sum(abs(_multiplicative_value(q, n, s)) for q in divisors(k))


def delange_bound(k: int, n: int) -> int:
    """The bound n·2**ω(k) that divisor_abs_sum(k, n, s) never exceeds, for every s."""
    _require_positive(k=k, n=n)
    return n * 2 ** omega(k)


def grytczuk_value(k: int, n: int, s: int) -> int:
    """Exact closed form 2**ω(k**s/(k**s,n)_s) · (k**s,n)_s of divisor_abs_sum.

    It is 2**ω(k/d) · d**s at d = s_adapted_gcd(k, n, s); no k**s is built.
    """
    _require_positive(k=k, n=n, s=s)
    return _closed_form(k, s_adapted_gcd(k, n, s), s)


def _closed_form(k: int, d: int, s: int) -> int:
    """2**ω(k/d)·d**s for a divisor d of k: the one spelling of Grytczuk's value.

    It checks no operand; its callers have checked k and s and pass a d | k.
    """
    return d**s << omega(k // d)


def equality_case_holds(m: int, k: int) -> bool:
    """True when k is a multiple of m·rad(m).

    Then, for every s, divisor_abs_sum(k, m**s, s) meets the bound
    m**s·2**ω(k) exactly, so the bound is best possible.  The condition is
    sufficient; sweeps report (without asserting on) equality cells outside it.
    """
    _require_positive(m=m, k=k)
    return k % (m * radical(m)) == 0


def orthogonality_sum(k: int, n: int, s: int) -> int:
    """Σ_{q|k} c_q^(s)(n**s); equals k**s when k | n and 0 otherwise."""
    _require_positive(k=k, n=n, s=s)
    ns = n**s
    return sum(_multiplicative_value(q, ns, s) for q in divisors(k))


def s_kn_mobius(k: int, n: int, s: int) -> int:
    """S(k,n) = Σ_{d|k} 2**ω(d**s/(d**s,n)_s)·(d**s,n)_s·μ(k/d).

    The summand is the closed form of the divisor absolute sum evaluated at
    the divisor d, so by Möbius inversion S(k,n) = |c_k^(s)(n)|.

    One s-adapted gcd serves every divisor: with g = s_adapted_gcd(k, n, s),
    s_adapted_gcd(d, n, s) = gcd(d, g) for each d | k.  Both sides are
    products over the primes p of d; on the left p has exponent
    min(e_p(d), ⌊v_p(n)/s⌋), on the right min(e_p(d), min(e_p(k), ⌊v_p(n)/s⌋)),
    and these agree because e_p(d) <= e_p(k).
    """
    _require_positive(k=k, n=n, s=s)
    g = s_adapted_gcd(k, n, s)
    return sum(_closed_form(d, gcd(d, g), s) * mobius(k // d) for d in divisors(k))


def s_kn_closed_form(k: int, n: int, s: int, *, plain_gcd: bool = False) -> int:
    """Totient-quotient form of S(k,n): J_s(k)/J_s(m) if m is squarefree, else 0.

    Here m = k/d with d the largest divisor of k whose s-th power divides n
    (for s = 1, d = gcd(k, n)).  That reading of d is forced by the data:
    with ``plain_gcd=True`` the ordinary gcd is used instead, which agrees
    at s = 1 but breaks for s > 1 (e.g. k=2, n=2, s=2 yields 3 while
    |c_2^(2)(2)| = 1).  The flag exists so sweeps can report the
    discrepancy; it is never used for assertions.  Either d feeds
    ``crsum._jordan_quotient``, the quotient that crs_hoelder evaluates too.
    """
    _require_positive(k=k, n=n, s=s)
    d = gcd(k, n) if plain_gcd else s_adapted_gcd(k, n, s)
    return abs(_jordan_quotient(k, d, s))
