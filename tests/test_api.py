"""The public surface: the package's exports and the operands it refuses."""

from __future__ import annotations

import pytest

import crsums
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
from crsums.crsum import CrsQuery
from crsums.expansions import (
    Expansion,
    MobiusSpec,
    f_from_spec,
    partial_expansion,
    rearrangement_check,
)
from crsums.identities import (
    delange_bound,
    divisor_abs_sum,
    equality_case_holds,
    grytczuk_value,
    orthogonality_sum,
    s_kn_closed_form,
    s_kn_mobius,
)


def test_star_import_resolves_every_export():
    namespace: dict[str, object] = {}
    exec("from crsums import *", namespace)
    missing = [name for name in crsums.__all__ if name not in namespace]
    assert not missing


# ---------------------------------------------------------------- refusals


class Small(int):
    """An int subclass; only exact ints are accepted as operands."""


BAD_OPERANDS = [0, -3, 2.0, True, Small(2), "5"]

SPEC = MobiusSpec(6, {1: 1, 2: -3, 6: 2})

# (callable, valid positional operands, the name each operand is refused under;
# None marks a position that is not an integer operand)
CASES = [
    (factorize, (6,), ("n",)),
    (divisors, (6,), ("n",)),
    (mobius, (6,), ("n",)),
    (omega, (6,), ("n",)),
    (radical, (6,), ("n",)),
    (jordan_totient, (2, 6), ("s", "n")),
    (generalized_gcd, (12, 18, 2), ("a", "b", "s")),
    (s_adapted_gcd, (12, 18, 2), ("a", "b", "s")),
    (divisor_abs_sum, (6, 4, 2), ("k", "n", "s")),
    (delange_bound, (6, 4), ("k", "n")),
    (grytczuk_value, (6, 4, 2), ("k", "n", "s")),
    (equality_case_holds, (2, 4), ("m", "k")),
    (orthogonality_sum, (6, 4, 2), ("k", "n", "s")),
    (s_kn_mobius, (6, 4, 2), ("k", "n", "s")),
    (s_kn_closed_form, (6, 4, 2), ("k", "n", "s")),
    (CrsQuery, (6, 4, 2), ("q", "n", "s")),
    (MobiusSpec, (6, {1: 1}), ("support_bound", None)),
    (Expansion, (SPEC, 2), (None, "s")),
    (f_from_spec, (SPEC, 4), (None, "n")),
    (partial_expansion, (SPEC, 4, 2, 6), (None, "n", "s", "q_max")),
    (rearrangement_check, (SPEC, 4, 2), (None, "n", "s")),
]

REFUSALS = [
    pytest.param(func, args, i, name, id=f"{func.__name__}-{name}")
    for func, args, names in CASES
    for i, name in enumerate(names)
    if name is not None
]


def _clear_caches() -> None:
    factorize.cache_clear()
    divisors.cache_clear()


def _warm_caches() -> None:
    # every exact int that a bad operand equals or hashes like is cached
    for n in range(1, 50):
        factorize(n)
        divisors(n)
    for func, args, _ in CASES:
        func(*args)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("func, args, position, name", REFUSALS)
def test_refuses_each_bad_operand_with_its_message(func, args, position, name, warm):
    for bad in BAD_OPERANDS:
        _clear_caches()
        if warm:
            _warm_caches()
        operands = list(args)
        operands[position] = bad
        with pytest.raises(ValueError) as raised:
            func(*operands)
        assert str(raised.value) == f"{name} must be a positive integer, got {bad!r}"
    _clear_caches()
