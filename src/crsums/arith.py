"""Exact integer primitives: factorization, divisors, Möbius, totients, gcds.

Everything here runs on Python's arbitrary-precision integers.  Quantities
like p**(s*j) outgrow 64 bits very quickly, and every identity checked by
the higher layers is an exact equality, so no floating point is allowed to
leak out of this module.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd


def _require_positive(**values: int) -> None:
    # exactly int: floats would leak into results and bools pass as 0/1
    for name, value in values.items():
        if type(value) is not int or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")


@lru_cache(maxsize=1 << 16)
def factorize(n: int, /) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n as (prime, exponent) pairs, primes increasing.

    factorize(1) == ().  Trial division with a 2,3-wheel, for operands up to
    ~10**9: the library passes bases and gcds of them, never a power like k**s.
    """
    # The one check of n for divisors, mobius, omega, radical and f_from_spec.
    # n is positional-only, so every cache key is an exact int that passed it
    # and any other operand misses the cache and is refused here.
    _require_positive(n=n)
    pairs: list[tuple[int, int]] = []
    m = n
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            pairs.append((p, e))
    p = 5
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            pairs.append((p, e))
        p += 2 if p % 6 == 5 else 4
    if m > 1:
        pairs.append((m, 1))
    return tuple(pairs)


@lru_cache(maxsize=1 << 14)
def divisors(n: int, /) -> tuple[int, ...]:
    """All positive divisors of n in increasing order (1 first, n last)."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return tuple(sorted(divs))


def mobius(n: int) -> int:
    """μ(n): 0 if a square divides n, else (-1)**omega(n)."""
    pairs = factorize(n)
    if any(e > 1 for _, e in pairs):
        return 0
    return -1 if len(pairs) % 2 else 1


def omega(n: int) -> int:
    """ω(n): number of distinct prime divisors; omega(1) == 0."""
    return len(factorize(n))


def radical(n: int) -> int:
    """rad(n): product of the distinct primes dividing n; radical(1) == 1."""
    out = 1
    for p, _ in factorize(n):
        out *= p
    return out


def jordan_totient(s: int, n: int) -> int:
    """Jordan totient J_s(n) = n**s · ∏_{p|n} (1 - p**-s), as an exact integer.

    Computed prime-power-wise as ∏ p**(s·(e-1)) · (p**s - 1) so no rational
    arithmetic is involved.  J_1 is the Euler totient φ.
    """
    _require_positive(s=s, n=n)
    total = 1
    for p, e in factorize(n):
        ps = p**s
        total *= ps ** (e - 1) * (ps - 1)
    return total


def generalized_gcd(a: int, b: int, s: int) -> int:
    """(a,b)_s: the largest s-th power d**s dividing both a and b.

    Returns the magnitude d**s itself, not d; (a,b)_1 is the ordinary gcd.
    Every common s-th power divides g = gcd(a, b), so d is the largest
    divisor of g whose s-th power divides g: s_adapted_gcd(g, g, s).
    """
    _require_positive(a=a, b=b, s=s)
    g = gcd(a, b)
    return s_adapted_gcd(g, g, s) ** s


def s_adapted_gcd(a: int, b: int, s: int) -> int:
    """Largest divisor d of a such that d**s divides b.

    For s = 1 this is gcd(a, b).  Its s-th power equals (a**s, b)_s; it is
    the one s-th-power gcd walk, behind generalized_gcd and every closed form.
    """
    _require_positive(a=a, b=b, s=s)
    if s == 1:
        return gcd(a, b)
    d = 1
    for p, e in factorize(a):
        d *= p ** min(e, _exponent_of(p, b) // s)
    return d


def _exponent_of(p: int, k: int) -> int:
    e = 0
    while k % p == 0:
        k //= p
        e += 1
    return e
