"""Command-line behavior: values, JSON shapes, report files, exit codes."""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import random
import time
from types import SimpleNamespace

import pytest

import crsums.crsum as crsum_module
import crsums.identities as identities_module
from crsums import cli
from crsums.cli import CHECKS, SweepGrid, build_parser, main, run_sweep
from crsums.expansions import MobiusSpec, partial_expansion


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out.strip()


# ---------------------------------------------------------------- point queries


def test_crsum_plain_value(capsys):
    code, out = run(capsys, "crsum", "2", "4", "--s", "2")
    assert (code, out) == (0, "3")


def test_crsum_trivial(capsys):
    code, out = run(capsys, "crsum", "1", "7", "--s", "1")
    assert (code, out) == (0, "1")


def test_crsum_json_shape(capsys):
    code, out = run(capsys, "crsum", "4", "2", "--s", "1", "--json")
    assert code == 0
    assert json.loads(out) == {
        "q": 4, "n": 2, "s": 1, "value": -2, "method": "multiplicative"
    }


def test_crsum_method_selection(capsys):
    for method in ("direct", "mobius", "multiplicative", "hoelder"):
        code, out = run(capsys, "crsum", "4", "2", "--method", method, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == -2
        assert payload["method"] == method


def test_crsum_checked_ok(capsys):
    code, out = run(capsys, "crsum", "12", "9", "--checked")
    assert code == 0


def test_crsum_rejects_bad_arguments(capsys):
    assert main(["crsum", "0", "4"]) == 2
    assert main(["crsum", "x", "4"]) == 2
    assert main(["crsum", "4"]) == 2
    assert main(["nope", "1", "2"]) == 2


def test_crsum_checked_disagreement_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(crsum_module, "_mobius_value", lambda q, n, s: 10**9)
    code = main(["crsum", "6", "3", "--checked"])
    assert code == 3


def test_explicit_method_checked_disagreement_exits_3(capsys, monkeypatch):
    # --checked holds the chosen evaluator to the same cross-check as auto
    monkeypatch.setattr(crsum_module, "_multiplicative_value", lambda q, n, s: 10**9)
    assert main(["crsum", "6", "3", "--method", "hoelder"]) == 0
    assert main(["crsum", "6", "3", "--method", "hoelder", "--checked"]) == 3
    assert main(["crsum", "6", "3", "--method", "mobius", "--checked"]) == 3


def test_direct_guard_env_override(capsys, monkeypatch):
    # the guard is fixed at 10**6 terms; no environment variable can lift it
    monkeypatch.setenv("CRSUM_MAX_DIRECT", str(10**13))
    assert main(["crsum", "1000003", "1", "--s", "2", "--method", "direct"]) == 2
    assert "q**s <= 1000000, got 1000006000009" in capsys.readouterr().err
    # the CLI sums up to the guard inclusive and refuses one term past it
    monkeypatch.setattr(crsum_module, "DIRECT_GUARD", 100)
    assert run(capsys, "crsum", "10", "1", "--s", "2", "--method", "direct") == (0, "1")
    assert main(["crsum", "11", "1", "--s", "2", "--method", "direct"]) == 2


@pytest.mark.parametrize("q, n, s", [(2, 3, 100_000), (10**6, 5, 10**6), (10**6, 5, 10**7)])
def test_direct_refuses_a_huge_power_without_building_it(capsys, q, n, s):
    started = time.perf_counter()
    code = main(["crsum", str(q), str(n), "--s", str(s), "--method", "direct"])
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (f"error: direct evaluation requires q**s <= 1000000, got {q}**{s}; "
                            "use the mobius or multiplicative evaluator instead\n")
    assert elapsed < 1, f"refused after {elapsed:.2f} s"


POISONED_KEY = (6, 2, 4)  # (q, s, gcd(n, q**s)): n = 4, 8, 16, 20, 28, ... at q**s = 36


def test_poisoning_one_literal_sum_key_fails_exactly_its_cells(capsys, monkeypatch):
    # the literal route is independent: one wrong (q, s, g) value is caught by
    # --checked and by every crs-agreement cell that reads it, and by no other
    summed = crsum_module._direct_sum
    monkeypatch.setattr(crsum_module, "_direct_sum",
                        lambda q, s, g: summed(q, s, g) + ((q, s, g) == POISONED_KEY))
    assert main(["crsum", "6", "40", "--s", "2", "--checked"]) == 3
    assert main(["crsum", "6", "12", "--s", "2", "--checked"]) == 0
    capsys.readouterr()
    code, out = run(capsys, "sweep", "--k-max", "12", "--n-max", "50", "--s", "1", "2", "3",
                    "--checks", "crs-agreement")
    failed = {(f["k"], f["n"], f["s"]) for f in json.loads(out)["failures"]}
    assert code == 4
    assert failed == {(k, n, s) for k in range(1, 13) for n in range(1, 51) for s in (1, 2, 3)
                      if (k, s, math.gcd(n, k**s)) == POISONED_KEY}
    assert {4, 44} <= {n for _, n, _ in failed}


def test_jordan_ggcd_mobius(capsys):
    assert run(capsys, "jordan", "6", "--s", "2") == (0, "24")
    assert run(capsys, "ggcd", "16", "48", "--s", "2") == (0, "16")
    assert run(capsys, "mobius", "30") == (0, "-1")


def test_hsum_grytczuk_skn(capsys):
    assert run(capsys, "hsum", "4", "2") == (0, "4")
    code, out = run(capsys, "grytczuk", "4", "2", "--json")
    assert code == 0
    assert json.loads(out) == {
        "k": 4, "n": 2, "s": 1, "value": 4, "divisor_abs_sum": 4
    }
    code, out = run(capsys, "skn", "2", "2", "--s", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == payload["closed_form"] == payload["abs_crs"] == 1
    assert payload["closed_form_plain_gcd"] == 3


def test_point_query_out_file(capsys, tmp_path):
    target = tmp_path / "value.json"
    code = main(["crsum", "2", "4", "--s", "2", "--json", "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["value"] == 3


# ---------------------------------------------------------------- parser

# One valid argv per subcommand, exercising its options.
VALID_ARGV = {
    "crsum": "crsum 6 4 --s 2 --method mobius --checked --json",
    "jordan": "jordan 6 --s 2",
    "ggcd": "ggcd 16 48 --s 2 --out g.txt",
    "mobius": "mobius 30 --json",
    "hsum": "hsum 6 4 --s 3",
    "grytczuk": "grytczuk 4 2 --json",
    "skn": "skn 6 36 --s 2",
    "sweep": "sweep --k-max 3 --n-min 2 --s 1 2 --checks orthogonality --format csv",
    "expand": "expand f.spec 12 --s 2 --q-max 4 --json",
}


@pytest.mark.parametrize("command", list(VALID_ARGV))
def test_lazy_parser_gives_the_full_parsers_namespace(command):
    argv = VALID_ARGV[command].split()
    full = vars(build_parser().parse_args(argv))
    assert full["command"] == command
    assert vars(build_parser(command).parse_args(argv)) == full


ARGV_TOKENS = [*VALID_ARGV, "-h", "--help", "--he", "--json", "--s", "2", "0", "x", "--",
               "-5", "--bogus", "--method", "nope"]


def test_main_gives_the_full_parsers_output_on_an_argv_grid(capsys, monkeypatch, tmp_path):
    # main, which builds one subcommand's parser when argv[0] names it,
    # against main with the full parser forced, on every argv of 0-2 tokens
    # and every 3-token argv whose first token names a subcommand.  (Any
    # other first token builds every subcommand on both sides; each such
    # token is covered at lengths 1 and 2.)  Each parser is built once per
    # distinct argument and reused, which parse_args allows, and no sweep is
    # computed, so the grid runs in about 2 s.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_sweep", lambda grid: iter(()))
    full = build_parser(None)
    builders = (functools.cache(build_parser), lambda command=None: full)
    grid = [argv for length in range(4) for argv in itertools.product(ARGV_TOKENS, repeat=length)
            if length < 3 or argv[0] in VALID_ARGV]

    def outcome(build, argv):
        monkeypatch.setattr(cli, "build_parser", build)
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    for argv in grid:
        lazy, reference = (outcome(build, argv) for build in builders)
        assert lazy == reference, argv


def test_a_named_subcommand_builds_two_parsers(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["mobius", "5"]) == 0
    assert capsys.readouterr().out == "-1\n"
    assert built == ["crsums", "crsums mobius"]


# ---------------------------------------------------------------- sweep


def test_sweep_grid_validation():
    with pytest.raises(ValueError):
        SweepGrid((5, 1), (1, 5), (1,), ("orthogonality",))
    with pytest.raises(ValueError):
        SweepGrid((1, 5), (1, 5), (), ("orthogonality",))
    with pytest.raises(ValueError):
        SweepGrid((1, 5), (1, 5), (1,), ("not-a-check",))


def test_sweep_grid_row_limit():
    # rows = cells × checks: 10**7 rows are allowed, one more n is not
    SweepGrid((1, 1000), (1, 2000), (1, 2, 3, 4, 5), ("orthogonality",))
    with pytest.raises(ValueError, match="10005000 rows, over the limit of 10000000"):
        SweepGrid((1, 1000), (1, 2001), (1, 2, 3, 4, 5), ("orthogonality",))
    with pytest.raises(ValueError, match="10000002 rows"):
        SweepGrid((1, 1), (1, 1666667), (1,), tuple(sorted(CHECKS)))


def test_sweep_past_the_row_limit_exits_2_at_once(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_sweep", lambda grid: pytest.fail("the grid ran"))
    report = tmp_path / "sweep.csv"
    code = main(["sweep", "--k-max", "1000000", "--n-max", "1000000", "--format", "csv",
                 "--out", str(report)])
    captured = capsys.readouterr()
    assert (code, captured.out, report.read_text()) == (2, "", "")
    assert captured.err == ("error: the grid has 18000000000000 rows, over the limit of "
                            "10000000\n")


def test_run_sweep_counts():
    grid = SweepGrid((1, 10), (1, 10), (1, 2), tuple(sorted(CHECKS)))
    rows = list(run_sweep(grid))
    assert len(rows) == 10 * 10 * 2 * len(CHECKS)
    assert all(row[-1] for row in rows)


def test_run_sweep_computes_divisor_abs_sum_once_per_cell_triple(monkeypatch):
    calls = []

    def counted(k, n, s):
        calls.append((k, n, s))
        return identities_module.divisor_abs_sum(k, n, s)

    monkeypatch.setattr(cli, "divisor_abs_sum", counted)
    checks = ("delange-bound", "equality-case", "grytczuk-equality")
    assert all(row[-1] for row in run_sweep(SweepGrid((1, 4), (1, 4), (1, 2), checks)))
    # A cell needs (k, n, s) and (k, n**s, s); they coincide when s = 1 or n = 1.
    assert len(calls) == 16 + 4 + 12 * 2
    assert cli._cell_abs_sum.cache_info().currsize == 0


def test_sweep_json_report(capsys, tmp_path):
    report = tmp_path / "sweep.json"
    code = main([
        "sweep", "--k-max", "20", "--n-max", "20", "--s", "1", "2",
        "--checks", "grytczuk-equality", "--out", str(report),
    ])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["cells_total"] == 20 * 20 * 2
    assert payload["cells_passed"] == payload["cells_total"]
    assert payload["failures"] == []
    assert payload["grid"]["checks"] == ["grytczuk-equality"]


def test_sweep_single_cell(capsys):
    code, out = run(capsys, "sweep", "--k-max", "1", "--n-max", "1", "--s", "1",
                    "--checks", "delange-bound")
    assert code == 0
    payload = json.loads(out)
    assert (payload["cells_total"], payload["cells_passed"]) == (1, 1)


def test_sweep_csv_report(tmp_path, capsys):
    report = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--k-max", "6", "--n-max", "6", "--s", "1",
        "--checks", "orthogonality", "crs-agreement",
        "--format", "csv", "--out", str(report),
    ])
    assert code == 0
    with report.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "n", "s", "check", "expected", "actual", "pass"]
    assert len(rows) - 1 == 6 * 6 * 2  # one row per (cell, check)
    assert all(row[6] == "true" for row in rows[1:])


def test_sweep_failures_exit_4(capsys, monkeypatch, tmp_path):
    # force one identity to misreport so the failure path is observable
    monkeypatch.setitem(
        CHECKS, "orthogonality", lambda k, n, s: (k != 2, "0", "forced")
    )
    report = tmp_path / "sweep.json"
    code = main([
        "sweep", "--k-max", "3", "--n-max", "2", "--s", "1",
        "--checks", "orthogonality", "--out", str(report),
    ])
    assert code == 4
    payload = json.loads(report.read_text())
    failures = payload["failures"]
    assert len(failures) == 2  # k = 2 cells across the n range
    assert payload["cells_passed"] + len(failures) == payload["cells_total"]
    keys = [(f["k"], f["n"], f["s"], f["check"]) for f in failures]
    assert keys == sorted(keys)


# ---------------------------------------------------------------- expand


def test_expand_report(capsys, tmp_path):
    spec_file = tmp_path / "f.spec"
    spec_file.write_text("K=2\nlabel=demo\n1=1\n2=1\n")
    code, out = run(capsys, "expand", str(spec_file), "2", "--s", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == {"1": "3/2", "2": "1/2"}
    assert payload["partial_sum"] == "2"
    assert payload["target"] == "2"
    assert payload["residual"] == "0"
    assert payload["condition_sum"] == "2"


def _expand_bytes_and_one_dumps(capsys, tmp_path, spec, n, s, q_max):
    """What ``expand`` prints, and the one ``json.dumps`` of the whole report."""
    spec_file = tmp_path / "f.spec"
    spec_file.write_text(spec.to_text(), encoding="utf-8")
    argv = ["expand", str(spec_file), str(n), "--s", str(s)]
    assert main(argv + (["--q-max", str(q_max)] if q_max else [])) == 0
    report = partial_expansion(spec, n, s, q_max)
    reference = json.dumps({
        "label": spec.label, "support_bound": spec.support_bound, "n": n, "s": s,
        "q_max": report.q_max, "coefficients": dict(report.coefficients),
        "partial_sum": report.partial_sum, "target": report.target,
        "residual": report.residual, "condition_sum": report.condition_sum,
    }, separators=(",", ":"), default=str) + "\n"
    return capsys.readouterr().out, reference


@pytest.mark.parametrize("top_q_max", [1, 2, 5, 16384])
def test_expand_streams_the_bytes_of_one_dumps(capsys, tmp_path, top_q_max):
    # The fixed q_max are below 1,000, where the zero keys are joined one by
    # one; top_q_max = 16384 runs past K = 40 through 16 whole zero blocks.
    spec = MobiusSpec(40, {1: 2, 7: -3, 24: 1, 39: 5}, label="st\u00e9p \"x\"")
    for n, s, q_max in ((6, 1, None), (7, 2, 1), (12, 3, 24), (5, 2, 100), (6, 2, top_q_max)):
        out, reference = _expand_bytes_and_one_dumps(capsys, tmp_path, spec, n, s, q_max)
        assert out == reference


# Non-zero a_q at 999 | 1000 | 1001 across the first block edge, at the
# adjacent 1500 and 1501, then a zero run 1502..1998 inside block 1 up to 1999,
# and at 9091 and 100001 from the top entry 100001 = 11·9091.
EDGE_SPEC = MobiusSpec(100001, {1: 2, 999: -3, 1000: 1, 1001: 5, 1500: 4, 1501: 2,
                                1999: -1, 100001: 7}, label="bl\u00f6ck \"edges\"")


@pytest.mark.parametrize("q_max", [999, 1000, 1001, 1999, 2000, 9999, 10000, 10001, 100001])
def test_expand_bytes_across_block_edges(capsys, tmp_path, q_max):
    for s in (1, 2):
        out, reference = _expand_bytes_and_one_dumps(capsys, tmp_path, EDGE_SPEC, 12, s, q_max)
        assert out == reference
    nonzero = partial_expansion(EDGE_SPEC, 12, 1).coefficients.nonzero
    assert {999, 1000, 1001, 1500, 1501, 1999, 9091, 100001} <= set(nonzero)


def _write_by_key(sink, members: dict[int, str], q_max: int) -> None:
    """The writer as it was before block templates: one ``str`` per zero key."""
    start = 1
    for q, member in [*members.items(), (q_max + 1, None)]:
        for lo in range(start, q, 1 << 14):
            keys = map(str, range(lo, min(lo + (1 << 14), q)))
            sink.write(("," if lo > 1 else "") + '"' + '":"0","'.join(keys) + '":"0"')
        if member is not None:
            sink.write(("," if q > 1 else "") + member)
        start = q + 1


def test_write_coefficients_is_one_dumps_on_seeded_members():
    rng = random.Random(28)
    for _ in range(300):
        q_max = rng.choice([rng.randint(1, 2500), rng.randint(1, 30000)])
        edges = [q for b in range(0, q_max + 2, 1000) for q in (b - 1, b, b + 1)]
        pool = [q for q in edges + rng.sample(range(1, q_max + 1), min(q_max, 20))
                if 1 <= q <= q_max]
        chosen = sorted(set(rng.sample(pool, rng.randint(0, min(len(pool), 12)))))
        values = {q: f"{rng.randint(-99, 99) or 1}/{rng.randint(1, 999)}" for q in chosen}
        sink = io.StringIO()
        cli._write_coefficients(sink, {q: f'"{q}":"{a}"' for q, a in values.items()}, q_max)
        whole = {q: values.get(q, "0") for q in range(1, q_max + 1)}
        assert "{" + sink.getvalue() + "}" == json.dumps(whole, separators=(",", ":"))


def test_write_coefficients_writes_at_most_one_block_at_a_time():
    q_max = 10**6
    report = partial_expansion(MobiusSpec(q_max, {q_max: 1}), 7, 2)
    members = {q: f'"{q}":"{a}"' for q, a in report.coefficients.nonzero.items()}
    writes, by_key = [], io.StringIO()
    cli._write_coefficients(SimpleNamespace(write=writes.append), members, q_max)
    _write_by_key(by_key, members, q_max)
    # 1,000 zero members ,"qqqqqqq":"0" of 7-digit keys are 14,000 characters.
    assert max(w.count('":"0"') for w in writes) == 1000
    assert max(map(len, writes)) <= 1000 * len(',"1234567":"0"') == 14000
    assert "".join(writes) == by_key.getvalue()
    assert len(members) == 49  # a_q != 0 exactly on the divisors of 10**6


@pytest.mark.parametrize("spec_text, q_max, refused", [
    ("K=5\n1=1\n", None, False),
    ("K=6\n1=1\n", None, True),
    ("K=3\n1=1\n", "5", False),
    ("K=3\n1=1\n", "6", True),
])
def test_expand_refuses_a_report_past_the_size_limit(capsys, tmp_path, monkeypatch,
                                                    spec_text, q_max, refused):
    monkeypatch.setattr(cli, "_MAX_REPORT_ENTRIES", 5)
    spec_file = tmp_path / "f.spec"
    spec_file.write_text(spec_text)
    out = tmp_path / "r.json"
    argv = ["expand", str(spec_file), "7", "--out", str(out)]
    code = main(argv + (["--q-max", q_max] if q_max else []))
    captured = capsys.readouterr()
    if refused:
        assert (code, captured.out, out.read_text()) == (2, "", "")
        assert captured.err.startswith("error: ") and "limit of 5" in captured.err
    else:
        assert (code, captured.err) == (0, "")
        assert len(json.loads(out.read_text())["coefficients"]) == 5


def test_expand_that_cannot_be_printed_writes_nothing(capsys, tmp_path):
    # a_6 = 1/6**6000 has a denominator of 4,669 digits, past Python's limit
    # on int-to-str conversion, so the report is refused whole.
    spec_file = tmp_path / "f.spec"
    spec_file.write_text("K=6\n6=1\n")
    out = tmp_path / "x.json"
    argv = ["expand", str(spec_file), "5", "--s", "6000", "--json"]
    for extra in (["--out", str(out)], []):
        code = main(argv + extra)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        # 3.10 words it "Exceeds the limit (4300) for ...", later ones "(4300 digits)"
        assert captured.err.startswith("error: Exceeds the limit (4300")
    assert out.exists() and out.read_text() == ""


def test_expand_trivial_spec(capsys, tmp_path):
    spec_file = tmp_path / "one.spec"
    spec_file.write_text("K=1\n1=1\n")
    code, out = run(capsys, "expand", str(spec_file), "5", "--s", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["partial_sum"] == "1"
    assert payload["target"] == "1"


def test_expand_malformed_spec_exits_2(capsys, tmp_path):
    spec_file = tmp_path / "bad.spec"
    spec_file.write_text("K=2\n1=one\n")
    assert main(["expand", str(spec_file), "2"]) == 2
    assert main(["expand", str(tmp_path / "missing.spec"), "2"]) == 2
