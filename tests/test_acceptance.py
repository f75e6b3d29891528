"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Every comparison below is an exact integer or rational equality, and the
package has no tolerance anywhere: the direct root-of-unity evaluator sums in
a prime field, where its value is exact.
"""

from __future__ import annotations

import random
import time

import pytest

from crsums.arith import omega, radical
from crsums.crsum import (
    CrsQuery,
    crs_direct,
    crs_hoelder,
    crs_mobius,
    crs_multiplicative,
)
from crsums.expansions import MobiusSpec, partial_expansion, rearrangement_check
from crsums.identities import (
    delange_bound,
    divisor_abs_sum,
    equality_case_holds,
    grytczuk_value,
    orthogonality_sum,
    s_kn_closed_form,
    s_kn_mobius,
)

SPEC_SEED = 20250810


def _criterion(number: int, name: str, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} violations)"
    extra = f"  [{detail}]" if detail else ""
    print(f"[criterion {number}] {name}: {status}{extra}")
    assert not failures, f"criterion {number} violations (first 5): {failures[:5]}"


def _direct_grid():
    """q <= 30, n <= 200, s in {1,2,3} restricted to q**s <= 10**4."""
    for s in (1, 2, 3):
        for q in range(1, 31):
            if q**s > 10**4:
                continue
            for n in range(1, 201):
                yield q, n, s


@pytest.fixture(scope="module")
def divisor_sum_grid():
    """Shared (k, n, s) -> (h, bound, closed) table for criteria 2 and 3."""
    table = {}
    for s in (1, 2, 3):
        for k in range(1, 101):
            for n in range(1, 201):
                table[(k, n, s)] = (
                    divisor_abs_sum(k, n, s),
                    delange_bound(k, n),
                    grytczuk_value(k, n, s),
                )
    return table


@pytest.fixture(scope="module")
def randomized_specs():
    rng = random.Random(SPEC_SEED)
    specs = []
    for i in range(100):
        bound = rng.randint(1, 40)
        values = {k: rng.randint(-9, 9) for k in range(1, bound + 1)}
        specs.append(MobiusSpec(bound, values, label=f"acceptance-{i}"))
    return specs


def test_1_four_way_evaluator_agreement():
    failures = []
    cells = 0
    started = time.perf_counter()
    for q, n, s in _direct_grid():
        query = CrsQuery(q, n, s)
        direct = crs_direct(query).value
        reference = crs_mobius(query).value
        fast = crs_multiplicative(query).value
        cells += 1
        if not (direct == reference == fast):
            failures.append((q, n, s, direct, reference, fast))
    elapsed = time.perf_counter() - started
    _criterion(
        1,
        "four-way evaluator agreement",
        failures,
        f"{cells} cells in {elapsed:.1f}s",
    )
    assert elapsed < 30.0


def test_2_divisor_sum_bound(divisor_sum_grid):
    failures = [
        (k, n, s, h, bound)
        for (k, n, s), (h, bound, _) in divisor_sum_grid.items()
        if h > bound
    ]
    _criterion(
        2,
        "divisor absolute sum <= n·2^omega(k)",
        failures,
        f"{len(divisor_sum_grid)} cells",
    )


def test_3_divisor_sum_closed_form(divisor_sum_grid):
    failures = [
        (k, n, s, h, closed)
        for (k, n, s), (h, _, closed) in divisor_sum_grid.items()
        if h != closed
    ]
    _criterion(
        3,
        "divisor absolute sum equals its closed form",
        failures,
        f"{len(divisor_sum_grid)} cells",
    )


def test_4_bound_equality_cells():
    failures = []
    cells = 0
    for s in (1, 2, 3):
        for m in range(1, 13):
            base = m * radical(m)
            for k in (base, 2 * base):
                if k > 200:
                    continue
                assert equality_case_holds(m, k)
                cells += 1
                h = divisor_abs_sum(k, m**s, s)
                expected = m**s * 2 ** omega(k)
                if h != expected:
                    failures.append((m, k, s, h, expected))
    _criterion(4, "bound attained at n = m^s, k multiple of m·rad(m)", failures,
               f"{cells} cells")


def test_5_orthogonality():
    failures = []
    for s in (1, 2, 3):
        for k in range(1, 61):
            for n in range(1, 61):
                expected = k**s if n % k == 0 else 0
                actual = orthogonality_sum(k, n, s)
                if actual != expected:
                    failures.append((k, n, s, actual, expected))
    _criterion(5, "divisor sum of c_q^(s)(n^s) equals k^s·[k|n]", failures,
               "10800 cells")


def test_6_skn_consistency():
    failures = []
    plain_gcd_disagreements = 0
    cells = 0
    for s in (1, 2):
        for k in range(1, 61):
            for n in range(1, 121):
                cells += 1
                inverted = s_kn_mobius(k, n, s)
                reference = abs(crs_multiplicative(CrsQuery(k, n, s)).value)
                closed = s_kn_closed_form(k, n, s)
                if inverted != reference or closed != inverted:
                    failures.append((k, n, s, inverted, reference, closed))
                # the ordinary-gcd reading is reported, never asserted
                if s_kn_closed_form(k, n, s, plain_gcd=True) != inverted:
                    plain_gcd_disagreements += 1
    _criterion(
        6,
        "S(k,n) inversion equals |c_k^(s)(n)| and its closed form",
        failures,
        f"{cells} cells; plain-gcd reading disagrees on {plain_gcd_disagreements}",
    )


def test_7_finite_support_reconstruction(randomized_specs):
    failures = []
    cells = 0
    for spec in randomized_specs:
        for s in (1, 2, 3):
            for n in range(1, 51):
                cells += 1
                report = partial_expansion(spec, n, s)
                if report.residual != 0:
                    failures.append((spec.label, n, s, str(report.residual)))
    _criterion(7, "expansion reconstructs f(n) exactly at q_max = K", failures,
               f"{cells} expansions")


def test_8_rearrangement_chain(randomized_specs):
    failures = []
    cells = 0
    for spec in randomized_specs:
        for s in (1, 2, 3):
            for n in range(1, 51):
                cells += 1
                if not rearrangement_check(spec, n, s):
                    failures.append((spec.label, n, s))
    _criterion(8, "absolute-series rearrangement identities", failures,
               f"{cells} checks")


def test_9_hoelder_gate():
    failures = []
    cells = 0
    for q, n, s in _direct_grid():
        cells += 1
        closed = crs_hoelder(CrsQuery(q, n, s)).value
        reference = crs_mobius(CrsQuery(q, n, s)).value
        if closed != reference:
            failures.append((q, n, s, closed, reference))
    _criterion(9, "Hölder closed form agrees with the Möbius evaluator", failures,
               f"{cells} cells")
