"""Cohen-Ramanujan sums evaluated by four independent algorithms.

The Cohen-Ramanujan sum generalizes the classical Ramanujan sum:

    c_q^(s)(n) = Σ e(n·h / q**s)   over 1 <= h <= q**s with (h, q**s)_s = 1,

where e(x) = exp(2πi·x) and (a,b)_s is the generalized gcd.  At s = 1 it is
the classical c_q(n).  The value is always a rational integer, and the four
evaluators below compute it along unrelated routes so they can certify one
another:

* ``crs_direct``          literal root-of-unity summation, in a prime field
                          (ground truth, size-gated because it costs O(q**s)
                          terms; one streamed path in O(√(q**s)) memory,
                          cached by (q, s, gcd(n, q**s)))
* ``crs_mobius``          the divisor sum Σ_{d|q, d**s|n} μ(q/d)·d**s
                          (exact integer reference)
* ``crs_multiplicative``  prime-power product (the default fast path)
* ``crs_hoelder``         Jordan-totient closed form (see its docstring for
                          the corrected statement it implements)

``cross_check`` runs the independent evaluators on one query side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, count, repeat
from typing import Iterable, Literal

from . import arith
from .arith import (
    _require_positive,
    divisors,
    factorize,
    jordan_totient,
    mobius,
    s_adapted_gcd,
)

Method = Literal["direct", "mobius", "multiplicative", "hoelder"]

#: Past this many terms (q**s) the literal summation is refused.
DIRECT_GUARD = 10**6
#: At or below this many terms ``cross_check`` also runs the literal summation.
CHECKED_DIRECT_GUARD = 10**4

class CrossCheckError(RuntimeError):
    """Independent evaluators disagreed on the same query."""


@dataclass(frozen=True)
class CrsQuery:
    """One Cohen-Ramanujan sum evaluation point: modulus base q, argument n, power s."""

    q: int
    n: int
    s: int = 1

    def __post_init__(self) -> None:
        _require_positive(q=self.q, n=self.n, s=self.s)


@dataclass(frozen=True)
class CrsValue:
    """An exact value together with the algorithm that produced it."""

    value: int
    method: Method


@lru_cache(maxsize=4096)
def _field(modulus: int) -> tuple[int, int]:
    """The first prime P = 1 + j·modulus with j >= 2, and ω of order modulus mod P.

    ω = a**j mod P for the first a >= 2 with ω**(modulus/p) != 1 for every
    prime p | modulus; ω**modulus = a**(P-1) = 1, so its order is modulus.
    Every primitive root mod P is such an a, and Dirichlet's theorem gives
    the prime, so both scans end.
    """
    # Cached by modulus, which the (q, s, g) keys of the literal sum share.
    # The candidates P are factored uncached, as they would crowd
    # factorize's cache; it is read from arith itself, because a wrapper put
    # on this module's ``factorize`` would unwrap to the cached one.
    factor = arith.factorize.__wrapped__
    prime = next(p for p in count(1 + 2 * modulus, modulus) if factor(p) == ((p, 1),))
    cofactors = [modulus // p for p, _ in factor(modulus)]
    candidates = (pow(a, (prime - 1) // modulus, prime) for a in count(2))
    return prime, next(w for w in candidates if all(pow(w, c, prime) != 1 for c in cofactors))


def _powers(base: int, length: int, prime: int) -> tuple[int, ...]:
    """base**t mod prime for t in 0..length-1."""
    return tuple(accumulate(repeat(base, length - 1), lambda x, y: x * y % prime, initial=1))


class _RootsOnIndex:
    """ω**t mod P from two tables of ⌈√modulus⌉ powers each, so O(√modulus) memory."""

    def __init__(self, modulus: int) -> None:
        self.prime, root = _field(modulus)
        self.width = math.isqrt(modulus - 1) + 1  # t < modulus <= width**2
        self.low = _powers(root, self.width, self.prime)
        self.high = _powers(pow(root, self.width, self.prime), self.width, self.prime)

    def __getitem__(self, t: int) -> int:
        return self.high[t // self.width] * self.low[t % self.width] % self.prime


def _admissible(q: int, s: int) -> Iterable[int]:
    """Each h in 1..q**s with (h, q**s)_s = 1, i.e. p**s ∤ h for every prime p|q."""
    terms: Iterable[int] = range(1, q**s + 1)
    for p, _ in factorize(q):
        terms = filter((p**s).__rmod__, terms)  # keeps h with h % p**s != 0
    return terms


def _bounded_power(q: int, s: int) -> int | None:
    """q**s, or None once s·(bits of q - 1) >= 4096, so q**s >= 2**4096.

    q**s is built only below that threshold, where it is under 2**8192 (at
    most 2,467 digits): past every limit here, but cheap and printable.
    """
    return q**s if s * (q.bit_length() - 1) < 4096 else None


def _direct_value(q: int, n: int, s: int) -> int:
    """c_q^(s)(n) as the literal sum at g = gcd(n, q**s), refused past 10**6 terms."""
    qs = _bounded_power(q, s)
    if qs is None or qs > DIRECT_GUARD:
        raise ValueError(
            f"direct evaluation requires q**s <= {DIRECT_GUARD}, got {qs or f'{q}**{s}'}; "
            "use the mobius or multiplicative evaluator instead"
        )
    return _direct_sum(q, s, math.gcd(n, qs))


@lru_cache(maxsize=4096)
def _direct_sum(q: int, s: int, g: int) -> int:
    """Σ e(g·h/Q) over the admissible h, Q = q**s, summed as Σ ω**(g·h mod Q) in F_P.

    It is c_q^(s)(n) for every n with gcd(n, Q) = g, and the literal sum
    itself, with P and ω those of ``_field(Q)``: P is prime, P ≡ 1 (mod Q),
    P > 2Q, and ω has order Q mod P.

    * A unit u mod Q permutes the admissible h, since p ∤ u gives p**s | u·h
      exactly when p**s | h.  So the sum at u·n equals the sum at n.
    * Every n with gcd(n, Q) = g is u·g mod Q for some unit u: n/g is a
      unit mod Q/g, and units lift from Z/(Q/g) to Z/Q.  So the sum at n
      equals the sum at g, and the value depends on n only through g.
    * Each Galois map ζ ↦ ζ**u of Q(ζ_Q) fixes the sum c by the first
      point, so c is a rational integer.
    * P ∤ Q, so x**Q - 1 has distinct roots mod P, and ω, of order Q, is a
      root of the cyclotomic polynomial Φ_Q.  Hence ζ_Q ↦ ω is a ring map
      from Z[ζ_Q] = Z[x]/(Φ_Q) to F_P.  It sends Σ ζ_Q**(g·h) to the sum
      of the ω**(g·h mod Q), and the integer c to c mod P.
    * |c| <= #admissible <= Q < P/2, so the lift into (-P/2, P/2) returns c.

    The terms are added one by one, with no Möbius or multiplicative
    formula, so this route stays independent of the other evaluators.  The
    powers of ω stream from ``_RootsOnIndex``, so the memory is O(√Q).
    """
    qs = q**s
    roots = _RootsOnIndex(qs)
    residue = sum(roots[g * h % qs] for h in _admissible(q, s)) % roots.prime
    return residue - roots.prime if residue > roots.prime // 2 else residue


def _mobius_value(q: int, n: int, s: int) -> int:
    total = 0
    for d in divisors(q):
        ds = d**s
        if n % ds == 0:
            total += mobius(q // d) * ds
    return total


def _multiplicative_value(q: int, n: int, s: int) -> int:
    total = 1
    for p, j in factorize(q):
        ps = p**s
        lower = ps ** (j - 1)  # p**(s·(j-1))
        if n % lower:
            return 0
        if n % (lower * ps) == 0:
            total *= lower * (ps - 1)
        else:
            total *= -lower
    return total


def _jordan_quotient(q: int, d: int, s: int) -> int:
    """μ(m)·J_s(q)/J_s(m) at m = q/d, for a divisor d of q."""
    m = q // d
    if (mu := mobius(m)) == 0:
        return 0
    quotient, rest = divmod(jordan_totient(s, q), jordan_totient(s, m))
    if rest:
        raise ArithmeticError(f"J_s(m) must divide J_s(q) for m | q; q={q}, m={m}")
    return mu * quotient


def _hoelder_value(q: int, n: int, s: int) -> int:
    return _jordan_quotient(q, s_adapted_gcd(q, n, s), s)


def crs_direct(query: CrsQuery) -> CrsValue:
    """Evaluate by summing the roots of unity literally, refused past 10**6 terms.

    The sum is taken in a prime field where it is exact; ``_direct_sum``
    proves that the lifted residue is the integer c_q^(s)(n) itself, so no
    float or tolerance is involved.
    """
    return CrsValue(_direct_value(query.q, query.n, query.s), "direct")


def crs_mobius(query: CrsQuery) -> CrsValue:
    """Evaluate via the divisor sum Σ_{d|q, d**s|n} μ(q/d)·d**s (exact)."""
    return CrsValue(_mobius_value(query.q, query.n, query.s), "mobius")


def crs_multiplicative(query: CrsQuery) -> CrsValue:
    """Evaluate via multiplicativity in q and the prime-power case split.

    For q = p**j the value is p**(s·j) - p**(s·(j-1)) when p**(s·j) | n,
    -p**(s·(j-1)) when p**(s·(j-1)) | n but p**(s·j) ∤ n, and 0 otherwise.
    The middle condition is the divisibility reading, which is the unique
    one making the three cases exhaustive; it is validated against
    ``crs_direct`` on the cross-check grid.
    """
    return CrsValue(
        _multiplicative_value(query.q, query.n, query.s), "multiplicative"
    )


def crs_hoelder(query: CrsQuery) -> CrsValue:
    """Evaluate via the Hölder-type closed form

        c_q^(s)(n) = J_s(q) · μ(m) / J_s(m),   m = q/d,

    where d is the largest divisor of q whose s-th power divides n (so
    d**s = (q**s, n)_s).  At s = 1 this is c_q(n) = φ(q)·μ(q/(q,n))/φ(q/(q,n)).
    J_s is the Jordan totient; ``s_kn_closed_form`` shares ``_jordan_quotient``.

    A tempting variant evaluates the totients at n instead, with
    m = n/(q,n); that form fails even at s = 1 (for q=2, n=4 it yields -2
    while c_2(4) = 1, and for q=1, n=4 it yields 0 instead of 1).  The form
    implemented here is cross-certified against ``crs_mobius`` over the
    full validation grid before being trusted.
    """
    return CrsValue(_hoelder_value(query.q, query.n, query.s), "hoelder")


def cross_check(query: CrsQuery) -> dict[str, int]:
    """The query's value from each independent evaluator, keyed by method.

    Keys come in the order mobius, multiplicative, then direct, which joins
    only when q**s <= ``CHECKED_DIRECT_GUARD`` (10**4).  Callers decide what
    a disagreement means.
    """
    q, n, s = query.q, query.n, query.s
    seen = {
        "mobius": _mobius_value(q, n, s),
        "multiplicative": _multiplicative_value(q, n, s),
    }
    qs = _bounded_power(q, s)
    if qs is not None and qs <= CHECKED_DIRECT_GUARD:
        seen["direct"] = _direct_value(q, n, s)
    return seen


def _certified(query: CrsQuery, result: CrsValue) -> CrsValue:
    """``result``, once it agrees with every value of ``cross_check(query)``."""
    seen = {**cross_check(query), result.method: result.value}
    if len(set(seen.values())) != 1:
        raise CrossCheckError(f"evaluators disagree on {query}: {seen}")
    return result


def crs(query: CrsQuery, checked: bool = False) -> CrsValue:
    """Default evaluator: the multiplicative fast path.

    With ``checked=True`` the value must agree with every evaluator of
    ``cross_check(query)``; any disagreement raises ``CrossCheckError``
    rather than returning a value of uncertain provenance.
    """
    result = crs_multiplicative(query)
    return _certified(query, result) if checked else result
