"""Command-line front end: point queries, verification sweeps, reports.

``crsum --checked`` means the same for every ``--method``: the chosen
evaluator's value must agree with every value of ``crsum.cross_check``.  The
scalar subcommands (jordan, ggcd, mobius, hsum, grytczuk, skn) are rows of
one table, ``SCALARS``, served by one handler.  ``main`` builds the parser
of only the subcommand that argv[0] names; any other argv gets the full
parser, whose help and errors list every subcommand.  It then opens the
one sink, ``--out`` or stdout, before any computation, and every handler
``(args, sink) -> int`` prints its output there: ``sweep --format csv`` writes
each row as its check runs, so a sweep that aborts leaves the rows before it,
and ``expand`` writes its runs of zero coefficients one block of at most
1,000 keys at a time, from one template, whatever K is.

Exit codes are stable: 0 success, 2 usage/parse/precondition failure, an
operand that cannot be factored with certainty or a path that cannot be read or
written, 3 cross-method disagreement, 4 sweep with failures.  Rationals
serialize as "num/den" strings in lowest terms (bare "num" when the
denominator is 1).  A computed integer, "value" or a scalar's --json extra,
is a decimal string past 2**53 and a number otherwise.  Every other integer
is a JSON number at any size: the operands and --s, the sweep's grid,
counts and failure cells, and expand's support_bound, n, s and q_max.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from functools import lru_cache, partial
from typing import Callable, Iterator, TextIO

from .arith import generalized_gcd, jordan_totient, mobius
from .crsum import (
    CrossCheckError,
    CrsQuery,
    _certified,
    crs,
    crs_direct,
    crs_hoelder,
    crs_mobius,
    crs_multiplicative,
    cross_check,
)
from .expansions import MobiusSpec, partial_expansion
from .identities import (
    delange_bound,
    divisor_abs_sum,
    equality_case_holds,
    grytczuk_value,
    orthogonality_sum,
    s_kn_closed_form,
    s_kn_mobius,
)

_JSON_SAFE = 2**53


def _json_int(value: int):
    """Ints beyond 2**53 become decimal strings; smaller ones stay numbers."""
    return value if abs(value) <= _JSON_SAFE else str(value)


def _dumps(obj) -> str:
    """Compact JSON; int keys become strings and Fractions "num/den" strings.

    The reports hold no cycles, so the per-container check is skipped.
    ``expand`` writes its q_max-entry ``coefficients`` object itself, with
    ``_write_coefficients``, in the bytes this would give it, and passes
    only its other fields through here.
    """
    return json.dumps(obj, separators=(",", ":"), default=str, check_circular=False)


def _emit_value(args: argparse.Namespace, sink: TextIO, operands: dict, value: int,
                extras: Callable[[], dict]) -> None:
    """Print the bare value, or with --json the operands, value and extras."""
    print(_dumps({**operands, "value": _json_int(value), **extras()})
          if args.json else value, file=sink)


# ----------------------------------------------------------------------
# Verification sweeps
# ----------------------------------------------------------------------

def _check_crs_agreement(k: int, n: int, s: int) -> tuple[bool, str, str]:
    seen = cross_check(CrsQuery(k, n, s))
    passed = len(set(seen.values())) == 1
    return passed, str(seen["mobius"]), ",".join(f"{m}={v}" for m, v in seen.items())


@lru_cache(maxsize=2)
def _cell_abs_sum(k: int, n: int, s: int) -> int:
    """divisor_abs_sum for (k, n, s) or (k, n**s, s), memoised within one sweep cell."""
    return divisor_abs_sum(k, n, s)


def _check_delange_bound(k: int, n: int, s: int) -> tuple[bool, str, str]:
    h = _cell_abs_sum(k, n, s)
    bound = delange_bound(k, n)
    return h <= bound, f"<={bound}", str(h)


def _check_grytczuk(k: int, n: int, s: int) -> tuple[bool, str, str]:
    h = _cell_abs_sum(k, n, s)
    closed = grytczuk_value(k, n, s)
    return h == closed, str(closed), str(h)


def _check_orthogonality(k: int, n: int, s: int) -> tuple[bool, str, str]:
    expected = k**s if n % k == 0 else 0
    actual = orthogonality_sum(k, n, s)
    return actual == expected, str(expected), str(actual)


def _check_skn(k: int, n: int, s: int) -> tuple[bool, str, str]:
    reference = abs(crs_multiplicative(CrsQuery(k, n, s)).value)
    inverted = s_kn_mobius(k, n, s)
    closed = s_kn_closed_form(k, n, s)
    passed = inverted == reference and closed == inverted
    return passed, f"abs_crs={reference}", f"mobius={inverted},closed={closed}"


def _check_equality_case(k: int, n: int, s: int) -> tuple[bool, str, str]:
    # Cell n plays the role of m; the claim only covers k multiples of m·rad(m).
    # Off-claim cells pass vacuously but still report whether equality happened,
    # so unexpected equality (n not an s-th power of the cell base) stays visible.
    h = _cell_abs_sum(k, n**s, s)
    bound = delange_bound(k, n**s)
    if equality_case_holds(n, k):
        return h == bound, str(bound), str(h)
    return True, "(no claim)", "equality" if h == bound else "strict"


# check name -> fn(k, n, s) -> (passed, expected, actual)
CHECKS: dict[str, Callable[[int, int, int], tuple[bool, str, str]]] = {
    "crs-agreement": _check_crs_agreement,
    "delange-bound": _check_delange_bound,
    "grytczuk-equality": _check_grytczuk,
    "orthogonality": _check_orthogonality,
    "skn-consistency": _check_skn,
    "equality-case": _check_equality_case,
}


# The most (cell, check) rows a sweep may run: about 2 minutes at 7·10^4 rows/s.
_MAX_SWEEP_ROWS = 10**7


@dataclass(frozen=True)
class SweepGrid:
    """Inclusive k/n ranges, the s values to visit, and the checks to run."""

    k_range: tuple[int, int]
    n_range: tuple[int, int]
    s_values: tuple[int, ...]
    checks: tuple[str, ...]

    def __post_init__(self) -> None:
        rows = len(self.s_values) * len(self.checks)
        for name, (lo, hi) in (("k", self.k_range), ("n", self.n_range)):
            if lo < 1 or hi < lo:
                raise ValueError(f"empty or invalid {name} range {lo}..{hi}")
            rows *= hi - lo + 1
        if not self.s_values or any(s < 1 for s in self.s_values):
            raise ValueError("s values must be a non-empty list of positive integers")
        unknown = [c for c in self.checks if c not in CHECKS]
        if unknown or not self.checks:
            raise ValueError(f"unknown checks: {unknown}" if unknown else "no checks")
        if rows > _MAX_SWEEP_ROWS:
            raise ValueError(f"the grid has {rows} rows, over the limit of {_MAX_SWEEP_ROWS}")


def run_sweep(grid: SweepGrid) -> Iterator[tuple[int, int, int, str, str, str, bool]]:
    """Yield one (k, n, s, check, expected, actual, passed) row per cell and check.

    Each row is yielded as its check runs and is not kept.  The rows come
    in the order of s, then k, then n, then the grid's checks.
    """
    _cell_abs_sum.cache_clear()
    try:
        for s in grid.s_values:
            for k in range(grid.k_range[0], grid.k_range[1] + 1):
                for n in range(grid.n_range[0], grid.n_range[1] + 1):
                    for name in grid.checks:
                        passed, expected, actual = CHECKS[name](k, n, s)
                        yield k, n, s, name, expected, actual, passed
    finally:
        _cell_abs_sum.cache_clear()


# ----------------------------------------------------------------------
# Subcommand handlers
# ----------------------------------------------------------------------

# --method name -> evaluator; the keys are the choices, in the order the help shows.
_METHODS = {"auto": crs, "direct": crs_direct, "mobius": crs_mobius,
            "multiplicative": crs_multiplicative, "hoelder": crs_hoelder}


def _cmd_crsum(args: argparse.Namespace, sink: TextIO) -> int:
    query = CrsQuery(args.q, args.n, args.s)
    result = _METHODS[args.method](query)
    if args.checked:
        _certified(query, result)
    _emit_value(args, sink, {"q": args.q, "n": args.n, "s": args.s}, result.value,
                lambda: {"method": result.method})
    return 0


@dataclass(frozen=True)
class Scalar:
    """A subcommand printing one integer computed from positive operands.

    An operand named "s" is the ``--s`` option (default 1).  ``value`` and
    ``extras`` take the operands as keywords; ``extras`` gives the fields
    that only ``--json`` computes, after "value".
    """

    operands: tuple[str, ...]
    help: str
    value: Callable[..., int]
    extras: Callable[..., dict[str, int]] = lambda **_: {}


# The lambdas look the library functions up when called, not when defined.
SCALARS: dict[str, Scalar] = {
    "jordan": Scalar(("n", "s"), "Jordan totient J_s(n)",
                     lambda n, s: jordan_totient(s, n)),
    "ggcd": Scalar(("a", "b", "s"),
                   "generalized gcd (a,b)_s, returned as the s-th power d**s",
                   lambda a, b, s: generalized_gcd(a, b, s)),
    "mobius": Scalar(("n",), "Möbius function μ(n)", lambda n: mobius(n)),
    "hsum": Scalar(
        ("k", "n", "s"), "divisor absolute sum Σ_{q|k} |c_q^(s)(n)|",
        lambda k, n, s: divisor_abs_sum(k, n, s),
        lambda k, n, s: {"delange_bound": delange_bound(k, n),
                         "grytczuk_value": grytczuk_value(k, n, s)},
    ),
    "grytczuk": Scalar(
        ("k", "n", "s"), "closed form 2**w(k^s/(k^s,n)_s)·(k^s,n)_s of the divisor sum",
        lambda k, n, s: grytczuk_value(k, n, s),
        lambda k, n, s: {"divisor_abs_sum": divisor_abs_sum(k, n, s)},
    ),
    "skn": Scalar(
        ("k", "n", "s"), "Möbius-inverted divisor sum S(k,n) = |c_k^(s)(n)|",
        lambda k, n, s: s_kn_mobius(k, n, s),
        lambda k, n, s: {
            "closed_form": s_kn_closed_form(k, n, s),
            "closed_form_plain_gcd": s_kn_closed_form(k, n, s, plain_gcd=True),
            "abs_crs": abs(crs_multiplicative(CrsQuery(k, n, s)).value),
        },
    ),
}


def _cmd_scalar(args: argparse.Namespace, sink: TextIO) -> int:
    scalar = SCALARS[args.command]
    operands = {name: getattr(args, name) for name in scalar.operands}
    _emit_value(args, sink, operands, scalar.value(**operands),
                lambda: {k: _json_int(v) for k, v in scalar.extras(**operands).items()})
    return 0


def _cmd_sweep(args: argparse.Namespace, sink: TextIO) -> int:
    grid = SweepGrid((args.k_min, args.k_max), (args.n_min, args.n_max),
                     tuple(args.s), tuple(args.checks))
    if args.format == "csv":
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(["k", "n", "s", "check", "expected", "actual", "pass"])
    total, failures = 0, []
    for *row, passed in run_sweep(grid):
        total += 1
        if args.format == "csv":
            writer.writerow([*row, "true" if passed else "false"])
        if not passed:
            failures.append(row)
    if args.format == "json":
        print(_dumps({
            "grid": asdict(grid),
            "cells_total": total,
            "cells_passed": total - len(failures),
            "failures": [  # (k, n, s, check) order, which no two rows share
                {"k": k, "n": n, "s": s, "check": c, "expected": e, "actual": a}
                for k, n, s, c, e, a in sorted(failures)
            ],
        }), file=sink)
    if args.out:
        print(f"{total - len(failures)}/{total} checks passed; "
              f"{len(failures)} failures; report written to {args.out}")
    return 0 if not failures else 4


# The most coefficients an expand report may hold: about 1.5 GB of JSON.
_MAX_REPORT_ENTRIES = 10**8


def _cmd_expand(args: argparse.Namespace, sink: TextIO) -> int:
    with open(args.spec_file, encoding="utf-8") as spec_file:
        spec = MobiusSpec.from_text(spec_file.read())
    q_max = args.q_max or spec.support_bound
    if q_max > _MAX_REPORT_ENTRIES:
        raise ValueError(f"the report would hold {q_max} coefficients, more than the "
                         f"limit of {_MAX_REPORT_ENTRIES}")
    report = partial_expansion(spec, args.n, args.s, q_max)
    # The same bytes as one _dumps of the whole report, written in pieces.  All
    # but the runs of "0" become text before the first write, so a number too
    # long to print (ValueError, exit 2) leaves the sink empty.
    head = _dumps({
        "label": spec.label,
        "support_bound": spec.support_bound,
        "n": report.n,
        "s": report.s,
        "q_max": report.q_max,
    })[:-1] + ',"coefficients":{'
    members = {q: f'"{q}":"{a}"' for q, a in report.coefficients.nonzero.items()}
    tail = "}," + _dumps({
        "partial_sum": report.partial_sum,
        "target": report.target,
        "residual": report.residual,
        "condition_sum": report.condition_sum,
    })[1:] + "\n"
    sink.write(head)
    _write_coefficients(sink, members, report.q_max)
    sink.write(tail)
    return 0


# The zero members of block P, the keys q = P·1000 + r for P ≥ 1: the member
# ,"Prrr":"0" of r is the 11 characters at r*11, with "#" standing for P.
_ZERO_BLOCK = "".join(f',"#{r:03}":"0"' for r in range(1000))


def _write_coefficients(sink: TextIO, members: dict[int, str], q_max: int) -> None:
    """Write the members "q":"a_q" for q in 1..q_max, as _dumps would.

    ``members`` maps each q with a non-zero a_q, in increasing q, to its
    member text.  The runs of "0" between them are written one block of at
    most 1,000 keys at a time, so memory stays bounded whatever q_max is.
    Keys below 1,000 are joined one by one; in block P ≥ 1 a run is a slice
    of ``_ZERO_BLOCK`` with P put in for "#", which costs one ``str`` per
    write and not one per key.
    """
    start = 1
    for q, member in [*members.items(), (q_max + 1, None)]:
        while start < q:
            block, lo = divmod(start, 1000)
            hi = min(q - block * 1000, 1000)  # the keys block·1000 + lo..hi-1
            if block:
                sink.write(_ZERO_BLOCK[lo * 11:hi * 11].replace("#", str(block)))
            else:
                keys = map(str, range(lo, hi))
                sink.write(("," if lo > 1 else "") + '"' + '":"0","'.join(keys) + '":"0"')
            start = block * 1000 + hi
        if member is not None:
            sink.write(("," if q > 1 else "") + member)
        start = q + 1


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

def _positive(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _add_operands(p: argparse.ArgumentParser, operands: tuple[str, ...]) -> None:
    """Each operand is a positive positional argument, but "s" is --s (default 1)."""
    for operand in operands:
        if operand == "s":
            p.add_argument("--s", type=_positive, default=1)
        else:
            p.add_argument(operand, type=_positive)


def _crsum_arguments(p: argparse.ArgumentParser) -> None:
    _add_operands(p, ("q", "n", "s"))
    p.add_argument("--method", default="auto", choices=_METHODS)
    p.add_argument("--checked", action="store_true",
                   help="cross-verify against independent evaluators (exit 3 on mismatch)")


def _sweep_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k-min", type=_positive, default=1)
    p.add_argument("--k-max", type=_positive, default=50)
    p.add_argument("--n-min", type=_positive, default=1)
    p.add_argument("--n-max", type=_positive, default=50)
    p.add_argument("--s", type=_positive, nargs="+", default=[1, 2, 3])
    p.add_argument("--checks", nargs="+", choices=sorted(CHECKS), default=sorted(CHECKS))
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _expand_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("spec_file")
    _add_operands(p, ("n", "s"))
    p.add_argument("--q-max", type=_positive, default=None)


# name -> (help line, handler, adds the arguments after --json and --out),
# in the order the top-level help lists them.
COMMANDS = {
    "crsum": ("evaluate c_q^(s)(n)", _cmd_crsum, _crsum_arguments),
    **{name: (scalar.help, _cmd_scalar, partial(_add_operands, operands=scalar.operands))
       for name, scalar in SCALARS.items()},
    "sweep": ("run identity checks over a (k, n, s) grid", _cmd_sweep, _sweep_arguments),
    "expand": ("expand an arithmetical function from a Möbius-transform file",
               _cmd_expand, _expand_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The crsums parser, with only the subcommand ``command`` names.

    Any other ``command``, None included, builds every subcommand: the
    top-level help and the "invalid choice" errors list them all.  A
    subcommand's usage, help and errors do not depend on its siblings.
    """
    parser = argparse.ArgumentParser(
        prog="crsums",
        description="Exact Cohen-Ramanujan sums, divisor-sum identities, "
                    "and finite-support expansion checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in [command] if command in COMMANDS else COMMANDS:
        text, func, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true",
                       help="emit a JSON object instead of the bare value")
        p.add_argument("--out", metavar="PATH",
                       help="write the output to PATH instead of stdout")
        arguments(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The top-level parser has only -h, so a run that parses names its
    # subcommand first; any other argv gets the full parser's help or error.
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        spec = getattr(args, "spec_file", None)
        if spec and args.out:  # a missing spec exits 2 here, before --out is touched
            spec_stat = os.stat(spec)
            if os.path.exists(args.out) and os.path.samestat(spec_stat, os.stat(args.out)):
                raise ValueError(f"--out {args.out} is the spec file and would be emptied")
        with (open(args.out, "w", encoding="utf-8") if args.out
              else nullcontext(sys.stdout)) as sink:
            return args.func(args, sink)
    except (CrossCheckError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, CrossCheckError) else 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
