"""Integer primitives against brute-force oracles and exact identities."""

from __future__ import annotations

import math
import random

import pytest

from crsums.arith import (
    divisors,
    factorize,
    generalized_gcd,
    jordan_totient,
    mobius,
    omega,
    radical,
    s_adapted_gcd,
)

# ---------------------------------------------------------------- oracles


def brute_divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def brute_generalized_gcd(a: int, b: int, s: int) -> int:
    best = 1
    d = 1
    while d**s <= min(a, b):
        ds = d**s
        if a % ds == 0 and b % ds == 0:
            best = ds
        d += 1
    return best


def brute_phi(n: int) -> int:
    return sum(1 for m in range(1, n + 1) if math.gcd(m, n) == 1)


def trial_division_smallest_factor(n: int) -> int:
    for d in range(2, n + 1):
        if n % d == 0:
            return d
    return n


# ---------------------------------------------------------------- factorize


def test_factorize_examples():
    assert factorize(1) == ()
    assert factorize(12) == ((2, 2), (3, 1))
    # 97 has no divisor below itself, so it is prime
    assert trial_division_smallest_factor(97) == 97
    assert factorize(97) == ((97, 1),)


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_reconstructs_product_and_is_sorted():
    primes = set(sieve(100_001))
    for n in range(1, 100_001):
        pairs = factorize(n)
        product = 1
        for p, e in pairs:
            assert e >= 1
            product *= p**e
        assert product == n
        assert list(pairs) == sorted(pairs)
        assert all(p in primes for p, _ in pairs)


# ------------------------------------------ factorize past trial division

# strong pseudoprimes to the first 12 and 13 prime bases:
# ψ12 = 318665857834031151167461 and ψ13 = 3317044064679887385961981
PSI12 = 399165290221 * 798330580441
PSI13 = 1287836182261 * 2575672364521


def sieve(limit: int) -> list[int]:
    flags = [True] * limit
    flags[:2] = [False, False]
    for p in range(2, math.isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p::p] = [False] * len(range(p * p, limit, p))
    return [p for p, prime in enumerate(flags) if prime]


KNOWN_PRIMES = sieve(3000) + [999999937, 10**9 + 7, 10**9 + 9, 10**12 + 39]


def from_pairs(pairs) -> int:
    return math.prod(p**e for p, e in pairs)


def test_factorize_products_of_known_primes():
    rng = random.Random(10)
    tested = 0
    while tested < 200:
        chosen = rng.sample(KNOWN_PRIMES, rng.randint(0, 3))
        chosen += rng.sample(KNOWN_PRIMES[-60:], rng.randint(1, 2))
        pairs = tuple(sorted((p, rng.randint(1, 3)) for p in set(chosen)))
        # what trial division leaves must stay below ψ13 to be certified
        if from_pairs((p, e) for p, e in pairs if p > 1000) < PSI13:
            assert factorize(from_pairs(pairs)) == pairs
            tested += 1


@pytest.mark.parametrize("n, pairs", [
    (3215031751, ((151, 1), (751, 1), (28351, 1))),  # spsp to bases 2, 3, 5, 7
    (3825123056546413051, ((149491, 1), (747451, 1), (34233211, 1))),
    (PSI12, ((399165290221, 1), (798330580441, 1))),
    ((10**6 + 3) ** 2, ((1000003, 2),)),
    (1000003**5, ((1000003, 5),)),
    (1009**9, ((1009, 9),)),
    (2**100, ((2, 100),)),
    # around the trial limit: 997 is the last prime it tries, 1009 the first past it
    (991 * 997, ((991, 1), (997, 1))),
    (997**2, ((997, 2),)),
    (1009**2, ((1009, 2),)),
    (997 * 1009, ((997, 1), (1009, 1))),
    (2**3 * 997 * 1009, ((2, 3), (997, 1), (1009, 1))),
    (3**40 * 1009, ((3, 40), (1009, 1))),
    ((10**12 + 39) * (10**12 + 61), ((10**12 + 39, 1), (10**12 + 61, 1))),
], ids=str)
def test_factorize_splits_hard_composites(n, pairs):
    assert from_pairs(pairs) == n
    assert factorize(n) == pairs


@pytest.mark.parametrize("n", [PSI13, 10**30 + 57, (10**15 + 37) * (10**15 + 91)])
def test_factorize_refuses_what_it_cannot_certify(n):
    # ψ13 passes all 13 bases although composite; 10**30 + 57 is prime but
    # past ψ13, so neither is returned as ((n, 1),); the last is past ψ13 and
    # its two prime factors are too large for the step budget
    with pytest.raises(ValueError, match=f"cannot factor {n}:"):
        factorize(n)


def test_factorize_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(24)
    for _ in range(300):
        n = rng.randrange(1, 10 ** rng.randint(1, 24))
        assert dict(factorize(n)) == sympy.factorint(n)


def test_multiplicative_functions_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(18)
    for _ in range(100):
        n = rng.randrange(1, 10 ** rng.randint(1, 18))
        assert mobius(n) == sympy.mobius(n)
        assert omega(n) == sympy.primenu(n)
        assert jordan_totient(1, n) == sympy.totient(n)


def test_factorize_property_up_to_10_18():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(1, 10**18))
    def check(n):
        pairs = factorize(n)
        assert from_pairs(pairs) == n
        assert [p for p, _ in pairs] == sorted({p for p, _ in pairs})
        for p, e in pairs:
            assert e >= 1 and p > 1
            # p has no factor below 1000 other than itself, and is a Fermat
            # probable prime to base 2
            assert all(p % d for d in range(2, min(p, 1000)))
            assert pow(2, p - 1, p) == 1 or p == 2

    check()


# ---------------------------------------------------------------- divisors


def test_divisors_examples():
    assert divisors(1) == (1,)
    assert divisors(6) == (1, 2, 3, 6)
    assert divisors(16) == tuple(brute_divisors(16))


def test_divisors_match_brute_force():
    for n in range(1, 201):
        divs = divisors(n)
        assert list(divs) == brute_divisors(n)
        assert divs[0] == 1 and divs[-1] == n


def test_divisors_rejects_zero():
    with pytest.raises(ValueError):
        divisors(0)


def test_keyword_operands_cannot_reach_the_cache():
    # a cached keyword call would be a key that n=2.0 or an int subclass
    # matches without reaching the check in factorize
    class Small(int):
        pass

    factorize(2)
    divisors(4)
    for func, n in ((factorize, 2), (divisors, 4)):
        for operand in (n, float(n), Small(n)):
            with pytest.raises(TypeError):
                func(n=operand)
        for operand in (float(n), Small(n)):
            with pytest.raises(ValueError):
                func(operand)


# ---------------------------------------------------------------- mobius / omega


def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(4) == 0
    assert mobius(6) == 1  # two prime factors


def test_mobius_squarefree_and_unit_convolution():
    for n in range(1, 2001):
        squarefree = all(e == 1 for _, e in factorize(n))
        assert (mobius(n) == 0) == (not squarefree)
        if squarefree:
            assert mobius(n) == (-1) ** omega(n)
        assert sum(mobius(d) for d in divisors(n)) == (1 if n == 1 else 0)


def test_omega_examples():
    assert omega(1) == 0
    assert omega(12) == 2
    assert omega(30) == len(factorize(30)) == 3


def test_radical():
    assert radical(1) == 1
    assert radical(12) == 6
    assert radical(97) == 97


# ---------------------------------------------------------------- jordan totient


def test_jordan_examples():
    assert jordan_totient(2, 1) == 1
    assert jordan_totient(1, 6) == brute_phi(6) == 2
    # pair-counting definition: #{1 <= m <= 36 : (m, 36)_2 = 1}
    count = sum(1 for m in range(1, 37) if brute_generalized_gcd(m, 36, 2) == 1)
    assert jordan_totient(2, 6) == count == 24


def test_jordan_matches_euler_totient():
    for n in range(1, 2001):
        assert jordan_totient(1, n) == brute_phi(n)


def test_jordan_rejects_bad_args():
    with pytest.raises(ValueError):
        jordan_totient(0, 5)
    with pytest.raises(ValueError):
        jordan_totient(2, 0)


# ---------------------------------------------------------------- generalized gcd


def test_generalized_gcd_examples():
    assert generalized_gcd(8, 24, 1) == brute_generalized_gcd(8, 24, 1) == 8
    assert generalized_gcd(16, 48, 2) == brute_generalized_gcd(16, 48, 2) == 16
    assert generalized_gcd(12, 18, 2) == brute_generalized_gcd(12, 18, 2) == 1


def test_generalized_gcd_matches_brute_force_small():
    for s in (1, 2, 3):
        for a in range(1, 81):
            for b in range(1, 81):
                assert generalized_gcd(a, b, s) == brute_generalized_gcd(a, b, s)


def test_generalized_gcd_structure_full_range():
    # divides both operands, is a perfect s-th power, equals gcd at s = 1
    for s in (1, 2, 3):
        for a in range(1, 501):
            for b in range(1, 501):
                g = generalized_gcd(a, b, s)
                assert a % g == 0 and b % g == 0
                root = round(g ** (1.0 / s))
                assert root**s == g
                if s == 1:
                    assert g == math.gcd(a, b)


def test_generalized_gcd_multiplicative_in_first_argument():
    coprime_pairs = [
        (m, n)
        for m in range(1, 31)
        for n in range(m + 1, 31)
        if math.gcd(m, n) == 1
    ]
    for s in (1, 2, 3):
        for m, n in coprime_pairs:
            for x in range(1, 201, 3):
                assert generalized_gcd(m * n, x, s) == generalized_gcd(
                    m, x, s
                ) * generalized_gcd(n, x, s)


def test_generalized_gcd_rejects_zero():
    for args in ((0, 3, 1), (3, 0, 1), (3, 3, 0)):
        with pytest.raises(ValueError):
            generalized_gcd(*args)


# ---------------------------------------------------------------- s-adapted gcd


def test_s_adapted_gcd_defining_property():
    for s in (1, 2, 3):
        for a in range(1, 81):
            for b in range(1, 81):
                d = s_adapted_gcd(a, b, s)
                assert a % d == 0 and b % d**s == 0
                # maximality
                for e in range(d + 1, a + 1):
                    if a % e == 0 and b % e**s == 0:
                        pytest.fail(f"{e} beats {d} for ({a},{b})_adapted_{s}")
                if s == 1:
                    assert d == math.gcd(a, b)
                assert d**s == generalized_gcd(a**s, b, s)
