"""Exact arithmetic for Cohen-Ramanujan sums and their identities."""

from .arith import (
    divisors, factorize, generalized_gcd, jordan_totient, mobius, omega,
    radical, s_adapted_gcd,
)
from .crsum import (
    CHECKED_DIRECT_GUARD, DIRECT_GUARD, CrossCheckError, CrsQuery, CrsValue,
    crs, crs_direct, crs_hoelder, crs_mobius, crs_multiplicative, cross_check,
)
from .expansions import (
    Expansion, ExpansionReport, MobiusSpec, f_from_spec, partial_expansion,
    rearrangement_check,
)
from .identities import (
    delange_bound, divisor_abs_sum, equality_case_holds, grytczuk_value,
    orthogonality_sum, s_kn_closed_form, s_kn_mobius,
)

__version__ = "0.1.0"

__all__ = [
    "CHECKED_DIRECT_GUARD",
    "DIRECT_GUARD",
    "CrossCheckError",
    "CrsQuery",
    "CrsValue",
    "Expansion",
    "ExpansionReport",
    "MobiusSpec",
    "crs",
    "crs_direct",
    "crs_hoelder",
    "crs_mobius",
    "crs_multiplicative",
    "cross_check",
    "delange_bound",
    "divisor_abs_sum",
    "divisors",
    "equality_case_holds",
    "f_from_spec",
    "factorize",
    "generalized_gcd",
    "grytczuk_value",
    "jordan_totient",
    "mobius",
    "omega",
    "orthogonality_sum",
    "partial_expansion",
    "radical",
    "rearrangement_check",
    "s_adapted_gcd",
    "s_kn_closed_form",
    "s_kn_mobius",
]
