"""Divisor-sum identities: bound, exact value, orthogonality, S(k,n)."""

from __future__ import annotations

import math

import pytest

from crsums import arith
from crsums.crsum import CrsQuery, crs_hoelder, crs_mobius, crs_multiplicative
from crsums.identities import (
    delange_bound,
    divisor_abs_sum,
    equality_case_holds,
    grytczuk_value,
    orthogonality_sum,
    s_kn_closed_form,
    s_kn_mobius,
)
from crsums.arith import divisors, jordan_totient, mobius, omega, radical


# ---------------------------------------------------------------- examples


def test_divisor_abs_sum_examples():
    assert divisor_abs_sum(1, 9, 2) == 1
    assert divisor_abs_sum(2, 4, 2) == 4  # 1 + |3|
    assert divisor_abs_sum(4, 2, 1) == 4  # 1 + 1 + 2


def test_delange_bound_examples():
    assert delange_bound(1, 1) == 1
    assert delange_bound(2, 4) == 8
    assert delange_bound(6, 1) == 4
    assert divisor_abs_sum(6, 1, 1) == 4  # tight here


def test_grytczuk_examples():
    assert grytczuk_value(2, 4, 2) == 4
    assert grytczuk_value(4, 2, 1) == 4
    assert grytczuk_value(1, 123, 3) == 1


def test_orthogonality_examples():
    assert orthogonality_sum(2, 2, 1) == 2
    assert orthogonality_sum(2, 3, 1) == 0
    assert orthogonality_sum(1, 1, 3) == 1


def test_s_kn_examples():
    assert s_kn_mobius(2, 1, 1) == 1
    assert s_kn_mobius(4, 1, 1) == 0
    assert s_kn_mobius(1, 77, 2) == 1
    assert s_kn_closed_form(2, 1, 1) == 1
    assert s_kn_closed_form(4, 1, 1) == 0  # 4/(4,1) = 4 is not squarefree
    assert s_kn_closed_form(3, 3, 1) == 2


def test_bound_equality_cell_example():
    # n = 2 = 2^1 and k = 4 = 2·rad(2): a bound-equality cell
    assert (divisor_abs_sum(4, 2, 1), delange_bound(4, 2), grytczuk_value(4, 2, 1)) == (4, 4, 4)


# ---------------------------------------------------------------- grid invariants


def test_bound_and_closed_form_on_grid():
    for s in (1, 2, 3):
        for k in range(1, 41):
            for n in range(1, 81):
                h = divisor_abs_sum(k, n, s)
                assert h == grytczuk_value(k, n, s)
                assert h <= delange_bound(k, n)


def test_grytczuk_factorizes_no_operand_larger_than_k(monkeypatch):
    # (k**s, n)_s = d**s for a divisor d of k, so only k and its divisors
    # need factorizing; k**s and k**s/(k**s, n)_s never reach factorize.
    seen = []
    factorize = arith.factorize

    def recording_factorize(n):
        seen.append(n)
        return factorize(n)

    monkeypatch.setattr(arith, "factorize", recording_factorize)
    for s in (1, 2, 3):
        for k in range(1, 40):
            for n in range(1, 40):
                seen.clear()
                grytczuk_value(k, n, s)
                assert max(seen, default=1) <= k, (k, n, s, seen)


def test_grytczuk_multiplicative_in_k():
    coprime_pairs = [
        (k1, k2)
        for k1 in range(1, 31)
        for k2 in range(k1 + 1, 31)
        if math.gcd(k1, k2) == 1
    ]
    for s in (1, 2, 3):
        for k1, k2 in coprime_pairs:
            for n in range(1, 61, 5):
                assert grytczuk_value(k1 * k2, n, s) == grytczuk_value(
                    k1, n, s
                ) * grytczuk_value(k2, n, s)


def test_orthogonality_on_grid():
    for s in (1, 2, 3):
        for k in range(1, 31):
            for n in range(1, 31):
                expected = k**s if n % k == 0 else 0
                assert orthogonality_sum(k, n, s) == expected


def test_s_kn_consistency_on_grid():
    for s in (1, 2):
        for k in range(1, 31):
            for n in range(1, 61):
                inverted = s_kn_mobius(k, n, s)
                assert inverted == abs(crs_multiplicative(CrsQuery(k, n, s)).value)
                assert inverted == s_kn_closed_form(k, n, s)


def test_s_kn_plain_gcd_reading_differs_for_higher_s():
    # the ordinary-gcd reading coincides at s = 1 ...
    for k in range(1, 31):
        for n in range(1, 31):
            assert s_kn_closed_form(k, n, 1, plain_gcd=True) == s_kn_closed_form(
                k, n, 1
            )
    # ... but disagrees with the Möbius-inverted value for s > 1
    assert s_kn_closed_form(2, 2, 2, plain_gcd=True) == 3
    assert s_kn_mobius(2, 2, 2) == 1
    assert s_kn_closed_form(2, 2, 2) == 1


# ---------------------------------------------------------------- equality cases


def test_equality_case_examples():
    assert equality_case_holds(2, 4)
    assert divisor_abs_sum(4, 4, 2) == 4 * 2 ** omega(4) == 1 + 3 + 4
    assert not equality_case_holds(2, 2)
    assert divisor_abs_sum(2, 2, 1) < delange_bound(2, 2)
    for k in (1, 17, 60):
        assert equality_case_holds(1, k)
        assert divisor_abs_sum(k, 1, 2) == 2 ** omega(k)


def test_equality_on_multiples_of_m_rad_m():
    for s in (1, 2, 3):
        for m in range(1, 9):
            base = m * radical(m)
            for k in (base, 2 * base, 3 * base):
                if k > 200:
                    continue
                assert equality_case_holds(m, k)
                assert divisor_abs_sum(k, m**s, s) == m**s * 2 ** omega(k)


def test_h_value_is_a_divisor_count_weighted_sum():
    # spot check the defining sum against a literal per-divisor recomputation
    for k, n, s in ((12, 8, 1), (18, 27, 2), (30, 64, 3)):
        literal = sum(
            abs(crs_multiplicative(CrsQuery(q, n, s)).value) for q in divisors(k)
        )
        assert divisor_abs_sum(k, n, s) == literal


def test_s_adapted_gcd_of_a_divisor_is_a_gcd_with_that_of_k():
    # s_kn_mobius walks s_adapted_gcd once, for k, and reads every d | k from it.
    for s in range(1, 5):
        for k in range(1, 61):
            for n in range(1, 201):
                g = arith.s_adapted_gcd(k, n, s)
                for d in divisors(k):
                    assert arith.s_adapted_gcd(d, n, s) == math.gcd(d, g), (d, k, n, s)


# ------------------------------------------------- far outside the grids

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
FAR = 10**18


def check_far_cells(check, max_examples: int = 300) -> None:
    """Run check(k, n, s) on derandomized draws far outside the sweep grids.

    k is a product of one to four small prime powers, at most 10**18; n is
    at most 10**18, and is drawn uniformly, as such a product, or as a
    multiple of k; s is 1..8.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def smooth(draw):
        value = 1
        for p, e in draw(st.lists(st.tuples(st.sampled_from(SMALL_PRIMES), st.integers(1, 60)),
                                  min_size=1, max_size=4)):
            while value * p**e > FAR:
                e -= 1
            value *= p**e
        return value

    @st.composite
    def cells(draw):
        k = draw(smooth())
        n = draw(st.one_of(st.integers(1, FAR), smooth(),
                           st.integers(1, FAR // k).map(lambda m: k * m)))
        return k, n, draw(st.integers(1, 8))

    @hypothesis.settings(max_examples=max_examples, deadline=None, derandomize=True)
    @hypothesis.given(cells())
    def run(cell):
        check(*cell)

    run()


def test_divisor_sum_identities_far_outside_the_grids():
    def check(k, n, s):
        assert divisor_abs_sum(k, n, s) == grytczuk_value(k, n, s) <= delange_bound(k, n)
        assert orthogonality_sum(k, n, s) == (k**s if n % k == 0 else 0)
        abs_crs = abs(crs_multiplicative(CrsQuery(k, n, s)).value)
        assert s_kn_mobius(k, n, s) == s_kn_closed_form(k, n, s) == abs_crs
        g = arith.s_adapted_gcd(k, n, s)  # the one walk s_kn_mobius makes
        for d in divisors(k):
            assert arith.s_adapted_gcd(d, n, s) == math.gcd(d, g), (d, k, n, s)

    check_far_cells(check)


def test_evaluators_agree_far_outside_the_grids():
    def check(k, n, s):
        query = CrsQuery(k, n, s)
        assert (crs_hoelder(query).value == crs_mobius(query).value
                == crs_multiplicative(query).value)

    check_far_cells(check)


def test_multiplicative_functions_match_sympy_far_outside_the_grids():
    sympy = pytest.importorskip("sympy")

    def check(k, n, s):
        for m in (k, n):
            primes = sympy.primefactors(m)
            assert mobius(m) == sympy.mobius(m)
            assert radical(m) == math.prod(primes)
            assert jordan_totient(s, m) == sympy.Integer(m) ** s * sympy.prod(
                [1 - sympy.Rational(1, p**s) for p in primes])

    check_far_cells(check)
