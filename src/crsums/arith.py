"""Exact integer primitives: factorization, divisors, Möbius, totients, gcds.

Everything here runs on Python's arbitrary-precision integers.  Quantities
like p**(s*j) outgrow 64 bits very quickly, and every identity checked by
the higher layers is an exact equality, so no floating point is allowed to
leak out of this module.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import count
from math import gcd

_TRIAL_LIMIT = 1000
# The trial divisors: 2, 3, then every 6j ± 1 up to a few past _TRIAL_LIMIT.
_WHEEL = (2, 3, *(p for p in range(5, _TRIAL_LIMIT + 6, 2) if p % 3))
# Miller-Rabin to these 13 bases is exact below ψ13 (Sorenson-Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI13 = 3_317_044_064_679_887_385_961_981
_RHO_BUDGET = 1 << 20  # Pollard-Brent steps allowed on one piece above ψ13


def _require_positive(**values: int) -> None:
    # exactly int: floats would leak into results and bools pass as 0/1
    for name, value in values.items():
        if type(value) is not int or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")


@lru_cache(maxsize=1 << 16)
def factorize(n: int, /) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n as (prime, exponent) pairs, primes increasing.

    factorize(1) == ().  A 2,3-wheel trial-divides by p <= 1000; Pollard-Brent
    splits the rest into pieces, prime below p**2, or below ψ13 ≈ 3.3·10**24 if
    they pass Miller-Rabin to the first 13 prime bases.  Raises ValueError on a
    piece at or above ψ13 that passes, or that a fixed step budget cannot split.
    """
    # The one check of n for divisors, mobius, omega, radical and f_from_spec.
    # n is positional-only, so every cache key is an exact int that passed it
    # and any other operand misses the cache and is refused here.
    _require_positive(n=n)
    pairs: list[tuple[int, int]] = []
    m = n
    for p in _WHEEL:  # always breaks: the last candidate is past _TRIAL_LIMIT
        if p * p > m or p > _TRIAL_LIMIT:
            break
        if m % p == 0:
            e = _exponent_of(p, m)
            m //= p**e
            pairs.append((p, e))
    if m >= p * p:  # m has no factor below p: split it into prime pieces
        primes, rest = [], [m]
        while rest:
            x = rest.pop()
            if x >= p * p and not _miller_rabin(x) and (d := _brent(x)) < x:
                rest += (d, x // d)
            elif x < _PSI13:
                primes.append(x)
            else:  # x passed Miller-Rabin, or Pollard-Brent gave up on it
                raise ValueError(f"cannot factor {n}: its factor {x} is at least ψ13 "
                                 "and is neither split nor certified prime")
        pairs += sorted(Counter(primes).items())
    elif m > 1:
        pairs.append((m, 1))
    return tuple(pairs)


def _miller_rabin(x: int) -> bool:
    """True if odd x > 41 is a strong probable prime to every base of _MR_BASES."""
    twos = ((x - 1) & (1 - x)).bit_length() - 1
    for a in _MR_BASES:
        y = pow(a, (x - 1) >> twos, x)
        if y == 1:
            continue
        for _ in range(twos):
            if y == x - 1:
                break
            y = y * y % x
        else:
            return False
    return True


def _brent(x: int) -> int:
    """A proper divisor of the composite x (Brent 1980), trying c = 1, 2, ...

    Above ψ13 it returns x itself after _RHO_BUDGET steps in all.
    """
    steps = 0
    for c in count(1):
        y, r, g, prod = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r
            if x >= _PSI13 and steps > _RHO_BUDGET:
                return x
            base = y
            for _ in range(r):
                y = (y * y + c) % x
            for k in range(0, r, 128):  # one gcd per 128 steps
                saved = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % x
                    prod = prod * (base - y) % x
                if (g := gcd(prod, x)) > 1:
                    break
            r *= 2
        if g == x:  # the block overshot: redo it one gcd per step
            g = 1
            while g == 1:
                saved = (saved * saved + c) % x
                g = gcd(base - saved, x)
        if g != x:
            return g


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
    _require_positive(s=s)
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
