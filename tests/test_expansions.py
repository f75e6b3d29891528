"""Finite-support expansions: coefficients, reconstruction, rearrangement."""

from __future__ import annotations

import copy
import pickle
import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest

from crsums import expansions
from crsums.arith import divisors, mobius, omega, s_adapted_gcd
from crsums.crsum import CrsQuery, crs_mobius
from crsums.expansions import (
    Expansion,
    MobiusSpec,
    f_from_spec,
    partial_expansion,
    rearrangement_check,
)
from crsums.identities import _closed_form, divisor_abs_sum, grytczuk_value


def random_specs(count: int, seed: int, max_bound: int = 40) -> list[MobiusSpec]:
    rng = random.Random(seed)
    specs = []
    for i in range(count):
        bound = rng.randint(1, max_bound)
        values = {k: rng.randint(-9, 9) for k in range(1, bound + 1)}
        specs.append(MobiusSpec(bound, values, label=f"random-{i}"))
    return specs


def sparse_specs(count: int, seed: int, max_bound: int = 1000) -> list[MobiusSpec]:
    rng = random.Random(seed)
    specs = []
    for i in range(count):
        bound = rng.randint(1, max_bound)
        keys = rng.sample(range(1, bound + 1), min(bound, rng.randint(0, 8)))
        values = {k: rng.choice([-7, -2, -1, 1, 3, 9]) for k in keys}
        specs.append(MobiusSpec(bound, values, label=f"sparse-{i}"))
    return specs


# The literal definitions, summed term by term in Fractions, are the
# references for the integer numerators over the common denominator.


def reference_coefficient(spec: MobiusSpec, q: int, s: int) -> Fraction:
    """a_q = Σ_{m·q <= K} f'(m·q)/(m·q)**s."""
    total = Fraction(0)
    for k in range(q, spec.support_bound + 1, q):
        total += Fraction(spec.values.get(k, 0), k**s)
    return total


def reference_condition_sum(spec: MobiusSpec, s: int) -> Fraction:
    """Σ_{k <= K} 2**ω(k)·|f'(k)|/k**s."""
    total = Fraction(0)
    for k in range(1, spec.support_bound + 1):
        total += Fraction(2 ** omega(k) * abs(spec.values.get(k, 0)), k**s)
    return total


def cached_coefficient(spec: MobiusSpec, q: int, s: int) -> Fraction:
    """a_q as the cached ``Expansion`` of (spec, s) holds it: 0 off its keys."""
    return expansions._expansion(spec, s).coefficients.get(q, Fraction(0))


def cached_condition_sum(spec: MobiusSpec, s: int) -> Fraction:
    """The condition sum of the cached ``Expansion`` of (spec, s)."""
    return expansions._expansion(spec, s).condition_sum


# ---------------------------------------------------------------- spec object


def test_spec_validation():
    with pytest.raises(ValueError):
        MobiusSpec(0, {})
    with pytest.raises(ValueError):
        MobiusSpec(3, {4: 1})
    with pytest.raises(ValueError):
        MobiusSpec(3, {0: 1})
    with pytest.raises(ValueError):
        MobiusSpec(4, {1: 2.7})  # would truncate to 2


def test_spec_drops_zero_entries_and_reads_zero_off_support():
    spec = MobiusSpec(5, {1: 1, 2: 0, 3: -2})
    assert spec.values == {1: 1, 3: -2}


def test_spec_values_are_read_only():
    given = {1: 1, 3: -2}
    spec = MobiusSpec(6, given)
    with pytest.raises(TypeError):
        spec.values[5] = 2
    with pytest.raises(TypeError):
        del spec.values[1]
    given[5] = 7  # the spec keeps its own copy
    assert spec.values == {1: 1, 3: -2}
    assert spec.to_text() == "K=6\nlabel=\n1=1\n3=-2\n"


def test_equal_specs_hash_equal():
    spec = MobiusSpec(6, {1: 1, 3: -2, 6: 5}, label="x")
    same = MobiusSpec(6, {6: 5, 3: -2, 1: 1, 2: 0}, label="x")
    assert same == spec and hash(same) == hash(spec)
    assert len({spec, same, MobiusSpec(6, {1: 1}), MobiusSpec(7, spec.values, "x")}) == 3
    for copied in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert copied == spec and hash(copied) == hash(spec)


# ---------------------------------------------------------------- f and a_q


def test_f_from_spec_examples():
    constant_one = MobiusSpec(1, {1: 1})
    assert f_from_spec(constant_one, 10) == 1
    spec = MobiusSpec(2, {1: 1, 2: 1})
    assert f_from_spec(spec, 2) == 2
    assert f_from_spec(spec, 3) == 1


def test_coefficient_examples():
    spec = MobiusSpec(2, {1: 1, 2: 1})
    assert cached_coefficient(spec, 1, 1) == Fraction(3, 2)
    assert cached_coefficient(spec, 2, 1) == Fraction(1, 2)
    assert cached_coefficient(spec, 3, 1) == 0


def test_expansion_numerators_match_the_reference():
    rng = random.Random(31)
    for spec in random_specs(15, seed=5) + sparse_specs(15, seed=6):
        support = spec.values
        for s in (1, 2, 3):
            expansion = Expansion(spec, s)
            assert expansion.denominator == lcm(*(k**s for k in support))
            assert expansion.weights == {
                k: fp * expansion.denominator // k**s for k, fp in support.items()
            }
            dividing = sorted({q for k in support for q in divisors(k)})
            assert list(expansion.numerators) == dividing
            for q, a in expansion.numerators.items():
                assert Fraction(a, expansion.denominator) == reference_coefficient(spec, q, s)
            for q in rng.sample(range(1, spec.support_bound + 1), min(spec.support_bound, 20)):
                assert cached_coefficient(spec, q, s) == reference_coefficient(spec, q, s)
            assert cached_condition_sum(spec, s) == reference_condition_sum(spec, s)


def test_expansion_of_an_empty_support():
    expansion = Expansion(MobiusSpec(5, {3: 0}), 2)
    assert (expansion.denominator, expansion.weights, expansion.numerators) == (1, {}, {})
    assert cached_coefficient(MobiusSpec(5, {}), 1, 1) == 0
    assert cached_condition_sum(MobiusSpec(5, {}), 3) == 0


def test_coefficient_additive_in_spec_values():
    left, right = random_specs(2, seed=101, max_bound=30)
    bound = max(left.support_bound, right.support_bound)
    merged_values = {
        k: left.values.get(k, 0) + right.values.get(k, 0) for k in range(1, bound + 1)
    }
    merged = MobiusSpec(bound, merged_values)
    for s in (1, 2, 3):
        for q in range(1, bound + 1):
            assert cached_coefficient(merged, q, s) == cached_coefficient(
                left, q, s
            ) + cached_coefficient(right, q, s)


def test_condition_sum_examples():
    assert cached_condition_sum(MobiusSpec(1, {1: 1}), 2) == 1
    assert cached_condition_sum(MobiusSpec(2, {1: 1, 2: 1}), 1) == 2
    assert cached_condition_sum(MobiusSpec(6, {1: 1, 6: 1}), 1) == Fraction(5, 3)


# ---------------------------------------------------------------- expansion


def test_partial_expansion_examples():
    spec = MobiusSpec(2, {1: 1, 2: 1})
    report = partial_expansion(spec, 1, 1, 2)
    assert report.partial_sum == 1 and report.residual == 0
    report = partial_expansion(spec, 2, 1, 2)
    assert report.partial_sum == 2 and report.residual == 0
    constant_one = MobiusSpec(1, {1: 1})
    for n, s in ((5, 3), (7, 1), (1, 2)):
        report = partial_expansion(constant_one, n, s, 1)
        assert report.partial_sum == 1
        assert report.coefficients[1] == 1


def test_truncation_below_support_leaves_residual():
    spec = MobiusSpec(2, {1: 1, 2: 1})
    report = partial_expansion(spec, 2, 1, q_max=1)
    assert report.partial_sum == Fraction(3, 2)
    assert report.residual == Fraction(-1, 2)


def test_exact_reconstruction_random_specs():
    for spec in random_specs(12, seed=2024, max_bound=50):
        for s in (1, 2, 3):
            for n in range(1, 101, 3):
                report = partial_expansion(spec, n, s)
                assert report.q_max == spec.support_bound
                assert report.residual == 0
                assert report.partial_sum == f_from_spec(spec, n)


def test_partial_expansion_matches_the_reference():
    rng = random.Random(2718)
    specs = random_specs(10, seed=808, max_bound=30) + sparse_specs(4, seed=809)
    for spec in specs:
        for s in (1, 2, 3):
            n = rng.randint(1, 200)
            for q_max in (rng.randint(1, spec.support_bound),
                          spec.support_bound + rng.randint(1, 30)):
                report = partial_expansion(spec, n, s, q_max)
                reference = {q: reference_coefficient(spec, q, s) for q in range(1, q_max + 1)}
                assert report.coefficients == reference
                assert list(report.coefficients) == list(reference)
                assert all(type(a) is Fraction for a in report.coefficients.values())
                partial = sum(a * crs_mobius(CrsQuery(q, n**s, s)).value
                              for q, a in reference.items())
                assert report.partial_sum == partial
                assert report.residual == partial - f_from_spec(spec, n)
                assert report.condition_sum == reference_condition_sum(spec, s)


def test_coefficients_view_reads_like_the_dict():
    spec = MobiusSpec(12, {2: 3, 6: -1, 12: 2})
    for q_max in (1, 5, 12, 30):
        coefficients = partial_expansion(spec, 4, 2, q_max).coefficients
        reference = {q: reference_coefficient(spec, q, 2) for q in range(1, q_max + 1)}
        assert len(coefficients) == q_max
        assert list(coefficients) == list(range(1, q_max + 1))
        assert all(type(a) is Fraction for a in coefficients.values())
        assert coefficients == reference and reference == coefficients
        assert coefficients != {**reference, 1: reference[1] + 1}
        assert dict(coefficients) == reference
        for key in (0, q_max + 1, -1, 1.0, "1", True, None):
            with pytest.raises(KeyError):
                coefficients[key]
            assert key not in coefficients
        with pytest.raises(TypeError):
            coefficients[1] = Fraction(0)


def test_partial_expansion_skips_the_scan_of_a_huge_sparse_support():
    # The support 1..10**12 has two entries; a_q depends only on their divisors.
    spec = MobiusSpec(10**12, {1: 1, 2**39: 3})
    start = time.perf_counter()
    report = partial_expansion(spec, 192, 2, q_max=64)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    # Σ_{q|64} c_q^(2)(192**2) = 64**2 by orthogonality, and 2**39 does not divide 192.
    assert report.partial_sum == 1 + Fraction(3 * 64**2, 2**78)
    assert report.target == 1
    assert report.residual == Fraction(3, 2**66)
    assert report.coefficients[1] == 1 + Fraction(3, 2**78)
    assert report.coefficients[64] == Fraction(3, 2**78)
    assert report.coefficients[63] == 0
    assert cached_coefficient(spec, 1, 2) == 1 + Fraction(3, 2**78)


# ---------------------------------------------------------------- rearrangement


def test_rearrangement_examples():
    assert rearrangement_check(MobiusSpec(1, {1: 1}), 1, 1)
    assert rearrangement_check(MobiusSpec(4, {1: 1, 2: 1, 3: 1, 4: 1}), 2, 1)
    assert rearrangement_check(MobiusSpec(8, {1: 2, 8: 5}), 4, 2)


def test_rearrangement_random_specs():
    for spec in random_specs(20, seed=77):
        for s in (1, 2, 3):
            for n in (1, 2, 3, 5, 8, 13, 21, 34):
                assert rearrangement_check(spec, n, s)


def test_rearrangement_sparse_specs():
    for spec in sparse_specs(6, seed=404):
        for s in (1, 2, 3):
            for n in (1, 6, 17, 36):
                assert rearrangement_check(spec, n, s)


def _shifted_at_12(original):
    # 12 is in the support and divides no other entry, so each route shifts;
    # the closed term only grows, so the chain still holds.
    return lambda k, n, s: original(k, n, s) + (k == 12)


def _named(name):
    def poison(monkeypatch, spec):
        monkeypatch.setattr(expansions, name, _shifted_at_12(getattr(expansions, name)))
    return poison


def _abs_sum_at_12_grown(monkeypatch, spec):
    # B_12 of the cached Expansion, which the pair sum alone reads
    abs_sums = expansions._expansion(spec, 2).abs_sums
    monkeypatch.setitem(abs_sums, 12, abs_sums[12] + 1)


def _divisors_of_12_cut(monkeypatch, spec):
    # the grouped sum's k-major read loses the divisor 12 of k = 12; the
    # cached Expansion read divisors(12) whole, so B_12 is kept
    original = expansions.divisors
    monkeypatch.setattr(expansions, "divisors",
                        lambda k: original(k)[:-1] if k == 12 else original(k))


@pytest.mark.parametrize("poison", [
    pytest.param(_abs_sum_at_12_grown, id="pair_side_abs_sums"),
    pytest.param(_divisors_of_12_cut, id="grouped_side_divisors"),
    pytest.param(_named("_closed_form"), id="omega_closed_side"),
    pytest.param(_named("_multiplicative_value"), id="_multiplicative_value"),
])
def test_rearrangement_detects_a_wrong_route(monkeypatch, poison):
    spec = MobiusSpec(12, {2: 3, 6: -1, 12: 2})
    assert rearrangement_check(spec, 4, 2)
    poison(monkeypatch, spec)
    expansions._crs_table.cache_clear()  # the values of the first call hide no poison
    assert not rearrangement_check(spec, 4, 2)


def test_rearrangement_checks_the_chain_at_a_support_entry(monkeypatch):
    spec = MobiusSpec(22, {2: 3, 22: 1})
    assert rearrangement_check(spec, 22, 2)
    original = expansions.omega
    # ω(22) read as 9: at g = gcd(22, 22) = 22 the chain's term 22**2 = 484
    # falls below 2**9 = 512.  ω(22) is read on the lower side only, so the
    # three sums still agree and only the chain at 22 objects.  Summed over
    # the support the bound would still hold: the entry at 2 (weight 3·121,
    # term 4 against 2**ω(2) = 2) covers the deficit.
    monkeypatch.setattr(expansions, "omega", lambda m: 9 if m == 22 else original(m))
    assert not rearrangement_check(spec, 22, 2)


def test_rearrangement_checks_the_grouped_sum_against_the_sieve(monkeypatch):
    spec = MobiusSpec(12, {2: 3, 6: -1, 12: 2})
    assert rearrangement_check(spec, 4, 2)
    # Grow |c_12| by one in the table that the pair and the grouped sum both
    # read.  12 is in the support and divides no other entry, so the two
    # still agree, and only the closed side, read from ω, objects.
    value = expansions._multiplicative_value

    def shifted_value(q, n, s):
        c = value(q, n, s)
        return c + (q == 12) * (-1 if c < 0 else 1)

    monkeypatch.setattr(expansions, "_multiplicative_value", shifted_value)
    expansions._crs_table.cache_clear()
    assert not rearrangement_check(spec, 4, 2)
    # the closed side grown by the same one at 12 agrees with both again
    monkeypatch.setattr(expansions, "_closed_form", _shifted_at_12(expansions._closed_form))
    assert rearrangement_check(spec, 4, 2)


def test_grouped_sum_is_the_library_divisor_abs_sum(monkeypatch):
    # With the closed side read from identities.divisor_abs_sum, which
    # evaluates each |c_q| itself, True says that the grouped sum, read from
    # the shared table, is Σ_k |w_k|·divisor_abs_sum(k, n**s, s).
    for spec in random_specs(20, seed=77) + sparse_specs(6, seed=404):
        for s in (1, 2, 3):
            for n in (1, 2, 3, 6, 8, 13, 17, 36):
                monkeypatch.setattr(expansions, "_closed_form",
                                    lambda k, g, s, ns=n**s: divisor_abs_sum(k, ns, s))
                assert rearrangement_check(spec, n, s), (spec.label, n, s)


def test_one_report_and_one_check_evaluate_each_q_once(monkeypatch):
    evaluated = []
    value = expansions._multiplicative_value

    def counting(q, n, s):
        evaluated.append(q)
        return value(q, n, s)

    monkeypatch.setattr(expansions, "_multiplicative_value", counting)
    for spec in random_specs(6, seed=31) + sparse_specs(6, seed=32):
        for s in (1, 2, 3):
            for n in (1, 4, 30):
                evaluated.clear()
                partial_expansion(spec, n, s)
                assert rearrangement_check(spec, n, s)
                assert evaluated == list(expansions._expansion(spec, s).numerators)


def test_sieve_term_matches_grytczuk_value():
    # The closed term as rearrangement_check reads it, against the library's.
    for s in (1, 2, 3):
        for n in range(1, 61):
            ns = n**s
            for k in range(1, 2001):
                g = gcd(k, n)
                term = _closed_form(k, g, s)
                assert term == g**s << omega(k // g) == grytczuk_value(k, ns, s), (k, n, s)


def test_rearrangement_chain_holds_off_any_support():
    # rearrangement_check checks the chain at the support entries only; off
    # them it is this theorem: ω(k) <= ω(g) + ω(k/g) and 2**ω(g) <= g <= g**s.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=500, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(1, 10**6), st.integers(1, 10**6),
                      st.integers(1, 10**6), st.integers(1, 3))
    def check(c, a, b, s):
        k, n = c * a, c * b  # up to 10**12, sharing the factor c
        g = gcd(k, n)
        term = g**s << omega(k // g)
        assert term == grytczuk_value(k, n**s, s)
        assert term >= 1 << omega(k)

    check()


def test_s_adapted_gcd_of_an_sth_power_is_the_gcd():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(1, 10**12), st.integers(1, 10**12), st.integers(1, 4))
    def check(k, n, s):
        assert s_adapted_gcd(k, n**s, s) == gcd(k, n)

    check()


def test_rearrangement_sparse_specs_up_to_10_5():
    rng = random.Random(2024)
    for spec in sparse_specs(6, seed=2024, max_bound=10**5):
        assert rearrangement_check(spec, rng.randint(1, 200), rng.randint(1, 3)), spec


# ---------------------------------------------------------------- round trip


def test_round_trip_with_mobius_transform():
    for spec in random_specs(5, seed=9, max_bound=30):
        bound = spec.support_bound
        table = {n: f_from_spec(spec, n) for n in range(1, bound + 1)}
        for k in range(1, bound + 1):
            inverted = sum(mobius(k // d) * table[d] for d in divisors(k))
            assert inverted == spec.values.get(k, 0)


# ---------------------------------------------------------------- serialization


def test_text_round_trip():
    spec = MobiusSpec(7, {1: 3, 5: -4}, label="round trip")
    parsed = MobiusSpec.from_text(spec.to_text())
    assert parsed == spec


def test_from_text_parses_comments_and_blanks():
    text = "# comment\nK=4\n\nlabel=demo\n1=1\n3=-2\n"
    spec = MobiusSpec.from_text(text)
    assert spec.support_bound == 4
    assert spec.label == "demo"
    assert spec.values == {1: 1, 3: -2}


@pytest.mark.parametrize(
    "text",
    [
        "1=1\n",  # missing K
        "K=three\n1=1\n",  # bad bound
        "K=4\n1=x\n",  # bad value
        "K=4\nfoo\n",  # not key=value
        "K=4\n5=1\n",  # entry beyond support
        "K=4\n2=1\n2=2\n",  # duplicate entry
        "K=4\nK=5\n1=1\n",  # duplicate bound
        "K=4\nlabel=a\nlabel=b\n1=1\n",  # duplicate label
    ],
)
def test_from_text_rejects_malformed(text):
    with pytest.raises(ValueError):
        MobiusSpec.from_text(text)


@pytest.mark.parametrize("label", ["x\n2=7", "x\r\n2=7", "a\x1cb", "a\u2028b", " pad ",
                                   "pad\t", "\n", None])
def test_label_that_would_not_round_trip_is_refused(label):
    # "x\n2=7" would be read back as a label "x" and an extra entry 2=7.
    with pytest.raises(ValueError, match="label"):
        MobiusSpec(3, {1: 1}, label=label)


def test_text_round_trips_every_spec_that_constructs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    entries = st.integers(1, 10**12).flatmap(lambda bound: st.tuples(
        st.just(bound),
        st.dictionaries(st.integers(1, bound), st.integers(-10**20, 10**20), max_size=6)))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(entries, st.text(max_size=12))
    def round_trips(entries, label):
        try:
            spec = MobiusSpec(*entries, label=label)
        except ValueError:  # a label that is not one stripped line
            hypothesis.reject()
        parsed = MobiusSpec.from_text(spec.to_text())
        assert parsed == spec
        assert hash(parsed) == hash(spec)

    round_trips()


# ---------------------------------------------------------------- shared Expansion


def test_dense_loop_builds_each_expansion_once(monkeypatch):
    built = []

    def counting(spec, s):
        built.append((spec, s))
        return Expansion(spec, s)

    monkeypatch.setattr(expansions, "Expansion", counting)
    specs = random_specs(4, seed=88)
    for spec in specs:
        reread = MobiusSpec.from_text(spec.to_text())
        for s in (1, 2, 3):
            for n in range(1, 51):  # the loop of acceptance criteria 7 and 8
                first, second = (spec, reread) if n % 2 else (reread, spec)
                assert partial_expansion(first, n, s).residual == 0
                assert rearrangement_check(second, n, s)
            assert cached_coefficient(reread, 1, s) == reference_coefficient(spec, 1, s)
            assert cached_condition_sum(spec, s) == reference_condition_sum(spec, s)
    assert built == [(spec, s) for spec in specs for s in (1, 2, 3)]


def test_interleaved_calls_read_the_expansion_of_their_own_spec():
    rng = random.Random(4242)
    dense = random_specs(4, seed=61, max_bound=20)
    # equal values under another bound or label are other specs
    specs = dense + sparse_specs(2, seed=62, max_bound=60) + [
        MobiusSpec(dense[0].support_bound + 3, dense[0].values, dense[0].label),
        MobiusSpec(dense[1].support_bound, dense[1].values, "relabelled"),
    ]
    calls = [(spec, s, n) for spec in specs for s in (1, 2, 3) for n in (1, 2, 6, 12, 30)]
    rng.shuffle(calls)
    for spec, s, n in calls:
        report = partial_expansion(spec, n, s)
        bound = spec.support_bound
        assert report.coefficients == {q: reference_coefficient(spec, q, s)
                                       for q in range(1, bound + 1)}
        assert report.partial_sum == report.target == f_from_spec(spec, n)
        assert report.condition_sum == reference_condition_sum(spec, s)
        assert rearrangement_check(spec, n, s)
        q = rng.randint(1, bound)
        assert cached_coefficient(spec, q, s) == reference_coefficient(spec, q, s)
        assert cached_condition_sum(spec, s) == reference_condition_sum(spec, s)


def test_a_report_hands_out_no_cached_dict():
    spec = MobiusSpec(12, {2: 3, 6: -1, 12: 2})
    for q_max in (None, 6):
        first = partial_expansion(spec, 4, 2, q_max)
        expected = dict(first.coefficients)
        first.coefficients.nonzero[1] = Fraction(99)
        first.coefficients.nonzero.pop(2)
        second = partial_expansion(spec, 5, 2, q_max)
        assert dict(second.coefficients) == expected
        assert partial_expansion(spec, 6, 2, q_max).coefficients[2] == expected[2]


def test_a_cached_expansion_never_answers_a_refused_s():
    # 2.0, True and Fraction(2) hash and compare like the cached s they equal,
    # and 4.0, True and Fraction(4) like the n of the cached table of c_q
    spec = MobiusSpec(6, {1: 1, 2: -3, 6: 2})
    calls = [
        lambda s: Expansion(spec, s),
        lambda s: partial_expansion(spec, 4, s),
        lambda s: rearrangement_check(spec, 4, s),
    ]
    for call in calls:
        for good, bad in ((2, 2.0), (1, True), (2, Fraction(2))):
            call(good)
            with pytest.raises(ValueError, match="s must be a positive integer"):
                call(bad)
    for call in (partial_expansion, rearrangement_check):
        for good, bad in ((4, 4.0), (1, True), (4, Fraction(4))):
            call(spec, good, 2)
            with pytest.raises(ValueError, match="n must be a positive integer"):
                call(spec, bad, 2)
