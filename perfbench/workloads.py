"""Seeded inputs, timed calls and output checks for the four workloads.

Each function in ``WORKLOADS`` turns ``(seed, size)`` into ``Call``s,
writing any input files into the current directory, where the calls also
write their reports.  A call is one timed entry into the program, through
``crsums.cli.main(argv)`` or a public library function, looked up on its
module at call time so that the tracer can interpose.  ``check`` runs after
the timer stops; it returns how many of the call's ops failed and the bytes
the call produced, which feed the pass digest.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from crsums import cli, expansions

Check = Callable[[object], tuple[int, bytes]]


@dataclass(frozen=True)
class Call:
    """One timed call; ``weight`` is the number of ops it performs.

    ``cli_output`` marks calls whose output bytes are CLI reports.
    """

    run: Callable[[], object]
    check: Check
    weight: int = 1
    cli_output: bool = True


@dataclass(frozen=True)
class Workload:
    calls: list[Call]
    # A CLI process starts with empty caches, so single queries clear them
    # before every call; the other workloads clear them once per pass.
    clear_per_call: bool


SIZES = {
    "full": {
        "sweep_n": 50,
        "dense_specs": 20,
        "dense_n": 50,
        "sparse_k": 12000,
        "sparse_ops": 12,
        "queries_per_group": 56,
    },
    "small": {
        "sweep_n": 8,
        "dense_specs": 2,
        "dense_n": 6,
        "sparse_k": 1500,
        "sparse_ops": 3,
        "queries_per_group": 2,
    },
}

SWEEP_CHECKS = 6
SPARSE_ENTRIES = 24
SPARSE_N = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``crsums.cli.main(argv)`` with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _stratified(rng: random.Random, count: int) -> list[float]:
    """``count`` points in [0, 1), one per equal stratum, in random order.

    Sizes drawn this way have the same spread for every seed, so a seed
    changes which inputs run but not how much work they add up to.
    """
    points = [(i + rng.random()) / count for i in range(count)]
    rng.shuffle(points)
    return points


# ---------------------------------------------------------------- sweep


def sweep(seed: int, size: str) -> Workload:
    """One ``crsums sweep`` over the square grid 1..N with every check.

    The grid is fixed by the size; the seed only orders the s values, which
    changes the report's row order but not the work.
    """
    n = SIZES[size]["sweep_n"]
    s_values = ["1", "2", "3"]
    random.Random(seed).shuffle(s_values)
    rows = n * n * len(s_values) * SWEEP_CHECKS
    argv = ["sweep", "--k-max", str(n), "--n-max", str(n), "--s", *s_values,
            "--format", "csv", "--out", "sweep.csv"]

    def check(result) -> tuple[int, bytes]:
        code, out, err = result
        report = Path("sweep.csv").read_bytes()
        lines = report.decode().splitlines()
        if err or len(lines) != rows + 1:
            return rows, report
        header, body = lines[0].split(","), csv.reader(lines[1:])
        passed = header.index("pass")
        failed = sum(1 for row in body if row[passed] != "true")
        if code != 0 and not failed:  # a failing exit must name its rows
            failed = rows
        return failed, report + out.encode()

    return Workload([Call(lambda: run_cli(argv), check, rows)], clear_per_call=False)


# ---------------------------------------------------------------- expansions


def _target(values: dict[int, int], n: int) -> int:
    """f(n) = Σ_{d|n} f'(d), computed here without the library's divisors."""
    return sum(v for k, v in values.items() if n % k == 0)


def expand_dense(seed: int, size: str) -> Workload:
    """Dense random specs shaped like acceptance criteria 7 and 8.

    Support bounds K are stratified over 1..40 and every f'(k) is drawn from
    -9..9; each (spec, s, n) with s in 1..3 and n in 1..N is one op.
    """
    sizes = SIZES[size]
    rng = random.Random(seed)
    calls = []
    for i, u in enumerate(_stratified(rng, sizes["dense_specs"])):
        bound = 1 + int(u * 40)
        values = {k: rng.randint(-9, 9) for k in range(1, bound + 1)}
        spec = expansions.MobiusSpec(bound, values, label=f"dense-{i}")
        for s in (1, 2, 3):
            for n in range(1, sizes["dense_n"] + 1):
                calls.append(_dense_call(spec, n, s, _target(values, n)))
    return Workload(calls, clear_per_call=False)


def _dense_call(spec, n: int, s: int, target: int) -> Call:
    def run():
        report = expansions.partial_expansion(spec, n, s)
        return report, expansions.rearrangement_check(spec, n, s)

    def check(result) -> tuple[int, bytes]:
        report, rearranged = result
        coefficients = ",".join(f"{q}:{a}" for q, a in report.coefficients.items())
        out = (f"{report.n} {report.s} {report.q_max} {report.partial_sum} "
               f"{report.target} {report.residual} {report.condition_sum} "
               f"{coefficients} {rearranged}\n").encode()
        ok = report.residual == 0 and report.target == target and rearranged is True
        return int(not ok), out

    return Call(run, check, cli_output=False)


def expand_sparse(seed: int, size: str) -> Workload:
    """Sparse specs: two dozen non-zero f'(k) spread over a large support 1..K.

    K is fixed by the size so that the 1..K scans cost the same for every
    seed, and n is a prime from 11..47, so that the k sharing a factor with
    n, whose k**s factorizations differ, stay few.  The seed picks the
    entries, their values and n.  Ops cycle through s = 1, 2, 3, so each s
    meets cold caches once per pass.
    """
    sizes = SIZES[size]
    bound = sizes["sparse_k"]
    rng = random.Random(seed)
    calls = []
    for i in range(sizes["sparse_ops"]):
        s = 1 + i % 3
        keys = rng.sample(range(1, bound + 1), SPARSE_ENTRIES)
        values = {k: rng.choice([v for v in range(-9, 10) if v]) for k in keys}
        spec = expansions.MobiusSpec(bound, values, label=f"sparse-{i}")
        path = Path(f"sparse-{i}.spec")
        path.write_text(spec.to_text(), encoding="utf-8")
        n = rng.choice(SPARSE_N)
        calls.append(_sparse_call(spec, path.name, n, s, _target(values, n)))
    return Workload(calls, clear_per_call=False)


def _sparse_call(spec, spec_file: str, n: int, s: int, target: int) -> Call:
    argv = ["expand", spec_file, str(n), "--s", str(s), "--json", "--out", "expand.json"]

    def run():
        code, out, err = run_cli(argv)
        return code, out, err, expansions.rearrangement_check(spec, n, s)

    def check(result) -> tuple[int, bytes]:
        code, out, err, rearranged = result
        raw = Path("expand.json").read_bytes()
        if code != 0 or err or out:
            return 1, raw
        report = json.loads(raw)
        bound = spec.support_bound
        ok = (
            report["residual"] == "0"
            and report["target"] == report["partial_sum"] == str(target)
            and (report["n"], report["s"]) == (n, s)
            and report["support_bound"] == report["q_max"] == bound
            and len(report["coefficients"]) == bound
            and rearranged is True
        )
        return int(not ok), raw

    return Call(run, check)


# ---------------------------------------------------------------- queries


# (kind, bound of the first operand); k stays <= 10**6 where trial
# division of k**s or the checked cross-check would not finish in time.
QUERY_KINDS = (
    ("crsum", 10**12),
    ("checked", 10**6),
    ("skn", 10**6),
    ("hsum", 10**6),
    ("jordan", 10**12),
    ("mobius", 10**12),
)
POOL_SEED = 0  # draws the first operands of every query stream; see ``queries``


def _log_uniform(u: float, bound: int) -> int:
    """The integer at quantile u of the log-uniform distribution on 1..bound."""
    return max(1, min(bound, round(bound**u)))


def queries(seed: int, size: str) -> Workload:
    """A stream of single CLI queries, each with ``--json --out``.

    Every (kind, s) group gets the same number of queries; ``mobius``, which
    takes no s, fills its three groups alike.  Both operands are
    log-uniform, drawn one per equal stratum of the exponent.  The first
    operands, whose trial division sets the latency tail, are one fixed
    sample drawn from ``POOL_SEED``: drawn afresh per seed, their
    heavy-tailed cost moved ops_per_s and op_p99_ms by about a third from
    seed to seed.  The seed picks the second operands and the order of the
    stream.
    """
    per_group = SIZES[size]["queries_per_group"]
    pool, rng = random.Random(POOL_SEED), random.Random(seed)
    calls = []
    for kind, bound in QUERY_KINDS:
        for s in (1, 2, 3):
            for u, w in zip(_stratified(pool, per_group), _stratified(rng, per_group)):
                x, other = _log_uniform(u, bound), _log_uniform(w, 10**12)
                calls.append(_query_call(kind, s, x, other))
    rng.shuffle(calls)
    return Workload(calls, clear_per_call=True)


def _query_call(kind: str, s: int, x: int, other: int) -> Call:
    tail = ["--json", "--out", "query.json"]
    if kind == "mobius":
        argv = ["mobius", str(x)] + tail
        expected = {"n": x}
    elif kind == "jordan":
        argv = ["jordan", str(x), "--s", str(s)] + tail
        expected = {"n": x, "s": s}
    elif kind in ("crsum", "checked"):
        argv = ["crsum", str(x), str(other), "--s", str(s)] + tail
        if kind == "checked":
            argv.append("--checked")
        expected = {"q": x, "n": other, "s": s}
    else:
        argv = [kind, str(x), str(other), "--s", str(s)] + tail
        expected = {"k": x, "n": other, "s": s}

    def check(result) -> tuple[int, bytes]:
        code, out, err = result
        raw = Path("query.json").read_bytes()
        if code != 0 or err or out:
            return 1, raw
        payload = json.loads(raw)
        ok = all(int(payload[key]) == value for key, value in expected.items())
        return int(not ok), raw

    return Call(lambda: run_cli(argv), check)


WORKLOADS = {
    "sweep": sweep,
    "expand-dense": expand_dense,
    "expand-sparse": expand_sparse,
    "queries": queries,
}
