"""Finite-support expansions: coefficients, reconstruction, rearrangement."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from crsums.arith import mobius_transform
from crsums.expansions import (
    MobiusSpec,
    coefficient,
    delange_condition_sum,
    f_from_spec,
    partial_expansion,
    rearrangement_check,
)


def random_specs(count: int, seed: int, max_bound: int = 40) -> list[MobiusSpec]:
    rng = random.Random(seed)
    specs = []
    for i in range(count):
        bound = rng.randint(1, max_bound)
        values = {k: rng.randint(-9, 9) for k in range(1, bound + 1)}
        specs.append(MobiusSpec(bound, values, label=f"random-{i}"))
    return specs


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
    assert spec.fprime(2) == 0
    assert spec.fprime(50) == 0


# ---------------------------------------------------------------- f and a_q


def test_f_from_spec_examples():
    constant_one = MobiusSpec(1, {1: 1})
    assert f_from_spec(constant_one, 10) == 1
    spec = MobiusSpec(2, {1: 1, 2: 1})
    assert f_from_spec(spec, 2) == 2
    assert f_from_spec(spec, 3) == 1


def test_coefficient_examples():
    spec = MobiusSpec(2, {1: 1, 2: 1})
    assert coefficient(spec, 1, 1) == Fraction(3, 2)
    assert coefficient(spec, 2, 1) == Fraction(1, 2)
    assert coefficient(spec, 3, 1) == 0


def test_coefficient_additive_in_spec_values():
    left, right = random_specs(2, seed=101, max_bound=30)
    bound = max(left.support_bound, right.support_bound)
    merged_values = {
        k: left.fprime(k) + right.fprime(k) for k in range(1, bound + 1)
    }
    merged = MobiusSpec(bound, merged_values)
    for s in (1, 2, 3):
        for q in range(1, bound + 1):
            assert coefficient(merged, q, s) == coefficient(left, q, s) + coefficient(
                right, q, s
            )


def test_condition_sum_examples():
    assert delange_condition_sum(MobiusSpec(1, {1: 1}), 2) == 1
    assert delange_condition_sum(MobiusSpec(2, {1: 1, 2: 1}), 1) == 2
    assert delange_condition_sum(MobiusSpec(6, {1: 1, 6: 1}), 1) == Fraction(5, 3)


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


# ---------------------------------------------------------------- round trip


def test_round_trip_with_mobius_transform():
    for spec in random_specs(5, seed=9, max_bound=30):
        bound = spec.support_bound
        table = {n: f_from_spec(spec, n) for n in range(1, bound + 1)}
        for k in range(1, bound + 1):
            assert mobius_transform(table, k) == spec.fprime(k)


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
    ],
)
def test_from_text_rejects_malformed(text):
    with pytest.raises(ValueError):
        MobiusSpec.from_text(text)
