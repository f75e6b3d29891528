"""Cohen-Ramanujan sum evaluators against each other and classical oracles."""

from __future__ import annotations

import cmath
import math
from itertools import accumulate, repeat

import pytest

import crsums.crsum as crsum_module
from crsums.arith import jordan_totient, mobius
from crsums.crsum import (
    CHECKED_DIRECT_GUARD,
    CrossCheckError,
    CrsQuery,
    crs,
    crs_direct,
    crs_hoelder,
    crs_mobius,
    crs_multiplicative,
    cross_check,
    _certified,
    _direct_sum,
    _field,
)


def classical_ramanujan(q: int, n: int) -> int:
    """Independent s=1 oracle: gcd-filtered root-of-unity sum via cmath."""
    total = sum(
        cmath.exp(2j * cmath.pi * n * m / q)
        for m in range(1, q + 1)
        if math.gcd(m, q) == 1
    )
    assert abs(total.imag) < 1e-9
    assert abs(total.real - round(total.real)) < 1e-9
    return round(total.real)


def literal_sums(q: int, s: int, ns) -> list[int]:
    """Σ ω**(n·h mod Q) over 1 <= h <= Q = q**s with (h, Q)_s = 1, lifted, for each n.

    Read from the definition with the field of ``_field(Q)``: no gcd of n
    with Q, and no divisor d > 1 of q with d**s | h.
    """
    modulus = q**s
    prime, root = _field(modulus)
    powers = list(accumulate(repeat(root, modulus - 1), lambda x, y: x * y % prime, initial=1))
    excluded = [d**s for d in range(2, q + 1) if q % d == 0]
    terms = [h for h in range(1, modulus + 1) if all(h % ds for ds in excluded)]
    residues = (sum(powers[n * h % modulus] for h in terms) % prime for n in ns)
    return [r - prime if r > prime // 2 else r for r in residues]


def printed_jordan_form(q: int, n: int, s: int) -> int | None:
    """The mis-stated closed form J_s(n)·μ(m)/J_s(m) with m = n/(q,n).

    Kept here only to document why crs_hoelder evaluates the totients at q:
    this variant fails its own cross-checks (see test below).
    """
    m = n // math.gcd(q, n)
    mu = mobius(m)
    if mu == 0:
        return 0
    num = jordan_totient(s, n) * mu
    den = jordan_totient(s, m)
    return num // den if num % den == 0 else None


# ---------------------------------------------------------------- queries


def test_query_validation():
    for bad in ((0, 1, 1), (1, 0, 1), (1, 1, 0), (2.5, 4, 1), (True, 4, 1)):
        with pytest.raises(ValueError):
            CrsQuery(*bad)


def test_value_carries_method():
    assert crs_direct(CrsQuery(2, 4, 2)).method == "direct"
    assert crs_mobius(CrsQuery(2, 4, 2)).method == "mobius"
    assert crs_multiplicative(CrsQuery(2, 4, 2)).method == "multiplicative"
    assert crs_hoelder(CrsQuery(2, 4, 2)).method == "hoelder"


# ---------------------------------------------------------------- direct


def test_direct_examples():
    assert crs_direct(CrsQuery(1, 5, 3)).value == 1
    assert crs_direct(CrsQuery(2, 1, 1)).value == -1
    assert crs_direct(CrsQuery(2, 4, 2)).value == 3


def test_direct_guard(monkeypatch):
    with pytest.raises(ValueError):
        crs_direct(CrsQuery(101, 1, 3))  # 101**3 > 10**6
    with pytest.raises(ValueError, match="q\\*\\*s <= 1000000, got 1002001"):
        crs_direct(CrsQuery(1001, 1, 2))
    assert crs_direct(CrsQuery(10, 1, 2)).value == 1  # μ(10)
    # the guard is inclusive: q**s equal to it is summed, one past it is refused
    monkeypatch.setattr(crsum_module, "DIRECT_GUARD", 100)
    assert crs_direct(CrsQuery(10, 1, 2)).value == 1
    with pytest.raises(ValueError, match="q\\*\\*s <= 100, got 121"):
        crs_direct(CrsQuery(11, 1, 2))


def test_direct_large_modulus_path():
    # past CHECKED_DIRECT_GUARD, where cross_check stops summing literally,
    # the sum still walks its h in rows from one table of ⌈√(q**s)⌉ powers
    query = CrsQuery(109, 109**2, 2)
    assert crs_direct(query).value == 109**2 - 1


@pytest.mark.parametrize(
    "q, s", [(1000, 2), (100, 3), (997, 2), (10201, 1), (10200, 1), (10202, 1)]
)
def test_direct_matches_mobius_at_the_top_of_the_streamed_range(q, s):
    # n = q**s sums every term to 1, the largest value to lift; n = q**s - 1
    # and n = 7 are coprime to q and give small values, of either sign.
    # 10201 = 101**2 fills its last row of h; 10200 and 10202 clip it
    for n in (q**s, q**s - 1, 7):
        query = CrsQuery(q, n, s)
        assert crs_direct(query).value == crs_mobius(query).value


def test_direct_matches_mobius_on_random_cached_moduli():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    q_max = {1: CHECKED_DIRECT_GUARD, 2: 100, 3: 21}  # the largest q with q**s <= 10**4

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(
        st.integers(1, 3).flatmap(lambda s: st.tuples(st.integers(1, q_max[s]), st.just(s))),
        st.integers(1, 10**12),
    )
    def agree(qs_pair, n):
        query = CrsQuery(qs_pair[0], n, qs_pair[1])
        assert crs_direct(query).value == crs_mobius(query).value

    agree()


def moduli_up_to(bound: int) -> list[tuple[int, int]]:
    """Every (q, s) with q**s <= bound, and q = 1 at s = 1 only."""
    return [(q, s) for s in range(1, bound.bit_length()) for q in range(1 + (s > 1), bound + 1)
            if q**s <= bound]


def test_direct_is_the_literal_sum_at_n_itself():
    # crs_direct sums at g = gcd(n, q**s) once per (q, s, g); every n of the
    # class must read the literal sum at n, also past q**s
    for q, s in moduli_up_to(300):
        ns = range(1, 2 * q**s + 1)
        assert [crs_direct(CrsQuery(q, n, s)).value for n in ns] == literal_sums(q, s, ns)


def test_direct_is_the_literal_sum_at_random_large_n():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(st.sampled_from(moduli_up_to(2000)), st.integers(1, 10**18))
    def agree(qs_pair, n):
        q, s = qs_pair
        assert crs_direct(CrsQuery(q, n, s)).value == literal_sums(q, s, [n])[0]

    agree()


# ---------------------------------------------------------------- mobius


def test_mobius_examples():
    assert crs_mobius(CrsQuery(4, 2, 1)).value == -2
    assert crs_mobius(CrsQuery(1, 7, 2)).value == 1
    assert crs_mobius(CrsQuery(4, 16, 2)).value == 12


# ---------------------------------------------------------------- multiplicative


def test_multiplicative_examples():
    assert crs_multiplicative(CrsQuery(6, 1, 1)).value == 1  # (-1)·(-1)
    assert crs_multiplicative(CrsQuery(8, 2, 1)).value == 0
    for p in (2, 3, 5, 7):
        for s in (1, 2, 3):
            n = p**s * 6
            assert crs_multiplicative(CrsQuery(p, n, s)).value == p**s - 1


def test_matches_classical_ramanujan_at_s_1():
    for q in range(1, 31):
        for n in range(1, 51):
            expected = classical_ramanujan(q, n)
            assert crs_multiplicative(CrsQuery(q, n, 1)).value == expected
            assert crs_mobius(CrsQuery(q, n, 1)).value == expected


def test_multiplicative_in_q():
    coprime_pairs = [
        (q1, q2)
        for q1 in range(1, 51)
        for q2 in range(q1 + 1, 51)
        if math.gcd(q1, q2) == 1
    ]
    for s in (1, 2, 3):
        for q1, q2 in coprime_pairs:
            for n in range(1, 201, 7):
                lhs = crs_multiplicative(CrsQuery(q1 * q2, n, s)).value
                rhs = (
                    crs_multiplicative(CrsQuery(q1, n, s)).value
                    * crs_multiplicative(CrsQuery(q2, n, s)).value
                )
                assert lhs == rhs


def test_periodicity_in_n():
    for s in (1, 2, 3):
        for q in range(1, 31):
            if q**s > 10**4:
                continue
            period = q**s
            for n in range(1, 201, 3):
                assert (
                    crs_multiplicative(CrsQuery(q, n, s)).value
                    == crs_multiplicative(CrsQuery(q, n + period, s)).value
                )


# ---------------------------------------------------------------- hoelder


def test_hoelder_examples():
    assert crs_hoelder(CrsQuery(2, 4, 2)).value == 3
    assert crs_hoelder(CrsQuery(4, 2, 1)).value == -2
    assert crs_hoelder(CrsQuery(3, 3, 1)).value == 2


def test_hoelder_agrees_with_mobius():
    for s in (1, 2, 3):
        for q in range(1, 41):
            for n in range(1, 121):
                assert (
                    crs_hoelder(CrsQuery(q, n, s)).value
                    == crs_mobius(CrsQuery(q, n, s)).value
                )


def test_totients_at_n_variant_is_wrong():
    # the roles of q and n are not interchangeable in the closed form
    assert printed_jordan_form(2, 4, 1) == -2
    assert crs_multiplicative(CrsQuery(2, 4, 1)).value == 1
    assert printed_jordan_form(1, 4, 1) == 0
    assert crs_multiplicative(CrsQuery(1, 4, 1)).value == 1


# ---------------------------------------------------------------- dispatch


def test_crs_examples():
    assert crs(CrsQuery(1, 1, 1)).value == 1
    assert crs(CrsQuery(2, 4, 2), checked=True).value == 3
    assert (
        crs(CrsQuery(12, 9, 1), checked=True).value
        == crs_mobius(CrsQuery(12, 9, 1)).value
    )


def test_crs_checked_runs_clean_on_grid():
    for s in (1, 2):
        for q in range(1, 21):
            for n in range(1, 41):
                crs(CrsQuery(q, n, s), checked=True)


def test_cross_check_order_and_direct_limit():
    assert cross_check(CrsQuery(2, 4, 2)) == {"mobius": 3, "multiplicative": 3, "direct": 3}
    assert list(cross_check(CrsQuery(100, 4, 2))) == ["mobius", "multiplicative", "direct"]
    assert list(cross_check(CrsQuery(101, 4, 2))) == ["mobius", "multiplicative"]
    assert list(cross_check(CrsQuery(101, 5, 2))) == ["mobius", "multiplicative"]


def test_crs_checked_flags_disagreement(monkeypatch):
    monkeypatch.setattr(crsum_module, "_mobius_value", lambda q, n, s: 10**9)
    with pytest.raises(CrossCheckError):
        crs(CrsQuery(6, 3, 1), checked=True)


def test_poisoned_roots_give_a_wrong_integer_that_checking_catches(ones_on_index):
    # ω reads as 1, so each sum counts its admissible h, at every size of q**s
    assert crs_direct(CrsQuery(3, 1, 1)).value == 2  # c_3(1) = -1
    with pytest.raises(CrossCheckError):
        crs(CrsQuery(3, 1, 1), checked=True)
    streamed = CrsQuery(101, 1, 2)  # 10201 terms
    assert crs_direct(streamed).value == 101**2 - 1  # c_101^(2)(1) = -1
    with pytest.raises(CrossCheckError):
        _certified(streamed, crs_direct(streamed))  # crsum --method direct --checked


def test_field_is_built_once_per_modulus():
    # the (q, s, g) keys of the literal sum share the field of their q**s
    grid = [CrsQuery(q, n, s) for q in range(1, 13) for n in range(1, 51) for s in (1, 2, 3)]
    for query in grid:
        assert crs_direct(query).value == crs_mobius(query).value, query
    keys = {(x.q, x.s, math.gcd(x.n, x.q**x.s)) for x in grid}
    moduli = {x.q**x.s for x in grid}
    assert _direct_sum.cache_info().misses == len(keys)  # one literal sum per key
    assert len(keys) > len(moduli)  # 4 = 2**2 = 4**1, and g splits each modulus
    assert _field.cache_info().misses == len(moduli)


def test_field_has_a_root_of_order_q():
    # what the exactness proof of _direct_sum needs from _field(Q)
    sympy = pytest.importorskip("sympy")
    for modulus in [*range(1, CHECKED_DIRECT_GUARD + 1), 10**4 + 1, 109**2, 997**2, 10**6]:
        prime, root = _field(modulus)
        assert sympy.isprime(prime)
        assert (prime - 1) % modulus == 0 and prime > 2 * modulus
        assert pow(root, modulus, prime) == 1
        for p in sympy.primefactors(modulus):
            assert pow(root, modulus // p, prime) != 1
