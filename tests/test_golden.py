"""Golden CLI outputs: exact stdout bytes, report bytes and exit codes.

Every expectation here was recorded from the CLI and must not drift: a
refactor of the library or the front end keeps these bytes identical.  Large
reports are pinned by SHA-256 and size, small ones verbatim.
"""

from __future__ import annotations

import hashlib

import pytest

import crsums.crsum as crsum_module
from crsums import cli

SWEEP_GRID = "sweep --k-max 8 --n-max 8 --s 1 2 3"
SPEC = "K=6\nlabel=golden\n1=1\n2=-3\n6=2\n"


def run(capsys, command: str) -> tuple[int, str]:
    code = cli.main(command.split())
    return code, capsys.readouterr().out


def digest(text: str) -> tuple[str, int]:
    data = text.encode("utf-8")
    return hashlib.sha256(data).hexdigest(), len(data)


# ---------------------------------------------------------------- point queries

POINT_CASES = [
    ('crsum 6 4 --s 2', 0, '-3\n'),
    ('crsum 6 4 --s 2 --json', 0,
     '{"q":6,"n":4,"s":2,"value":-3,"method":"multiplicative"}\n'),
    ('crsum 6 4 --s 2 --checked', 0, '-3\n'),
    ('crsum 6 4 --s 2 --checked --json', 0,
     '{"q":6,"n":4,"s":2,"value":-3,"method":"multiplicative"}\n'),
    ('crsum 6 4 --s 2 --method direct --json', 0,
     '{"q":6,"n":4,"s":2,"value":-3,"method":"direct"}\n'),
    ('crsum 4 2 --method direct', 0, '-2\n'),
    ('crsum 6 4 --s 2 --method direct --json --checked', 0,
     '{"q":6,"n":4,"s":2,"value":-3,"method":"direct"}\n'),
    ('crsum 4 2 --method direct --checked', 0, '-2\n'),
    ('crsum 6 4 --s 2 --method mobius --json', 0,
     '{"q":6,"n":4,"s":2,"value":-3,"method":"mobius"}\n'),
    ('crsum 4 2 --method mobius', 0, '-2\n'),
    ('crsum 6 4 --s 2 --method mobius --json --checked', 0,
     '{"q":6,"n":4,"s":2,"value":-3,"method":"mobius"}\n'),
    ('crsum 4 2 --method mobius --checked', 0, '-2\n'),
    ('crsum 6 4 --s 2 --method multiplicative --json', 0,
     '{"q":6,"n":4,"s":2,"value":-3,"method":"multiplicative"}\n'),
    ('crsum 4 2 --method multiplicative', 0, '-2\n'),
    ('crsum 6 4 --s 2 --method multiplicative --json --checked', 0,
     '{"q":6,"n":4,"s":2,"value":-3,"method":"multiplicative"}\n'),
    ('crsum 4 2 --method multiplicative --checked', 0, '-2\n'),
    ('crsum 6 4 --s 2 --method hoelder --json', 0,
     '{"q":6,"n":4,"s":2,"value":-3,"method":"hoelder"}\n'),
    ('crsum 4 2 --method hoelder', 0, '-2\n'),
    ('crsum 6 4 --s 2 --method hoelder --json --checked', 0,
     '{"q":6,"n":4,"s":2,"value":-3,"method":"hoelder"}\n'),
    ('crsum 4 2 --method hoelder --checked', 0, '-2\n'),
    ('crsum 101 5 --s 2 --method direct', 0, '-1\n'),
    ('crsum 101 5 --s 2 --method direct --checked --json', 0,
     '{"q":101,"n":5,"s":2,"value":-1,"method":"direct"}\n'),
    ('crsum 1000000007 1000000014000000049 --s 2 --json', 0,
     '{"q":1000000007,"n":1000000014000000049,"s":2,"value":"1000000014000000048","method":"multiplicative"}\n'),
    ('crsum 1000000007 1000000014000000049 --s 2 --checked --method hoelder', 0,
     '1000000014000000048\n'),
    ('jordan 6 --s 2', 0, '24\n'),
    ('jordan 6 --json', 0, '{"n":6,"s":1,"value":2}\n'),
    ('jordan 1000003 --s 3 --json', 0,
     '{"n":1000003,"s":3,"value":"1000009000027000026"}\n'),
    ('ggcd 16 48 --s 2', 0, '16\n'),
    ('ggcd 16 48 --json', 0, '{"a":16,"b":48,"s":1,"value":16}\n'),
    ('mobius 30', 0, '-1\n'),
    ('mobius 12 --json', 0, '{"n":12,"value":0}\n'),
    ('hsum 6 4 --s 2', 0, '8\n'),
    ('hsum 6 4 --s 2 --json', 0,
     '{"k":6,"n":4,"s":2,"value":8,"delange_bound":16,"grytczuk_value":8}\n'),
    ('grytczuk 6 4 --s 2', 0, '8\n'),
    ('grytczuk 4 2 --json', 0, '{"k":4,"n":2,"s":1,"value":4,"divisor_abs_sum":4}\n'),
    ('skn 2 2 --s 2', 0, '1\n'),
    ('skn 2 2 --s 2 --json', 0,
     '{"k":2,"n":2,"s":2,"value":1,"closed_form":1,"closed_form_plain_gcd":3,"abs_crs":1}\n'),
    ('skn 6 4 --s 2 --json', 0,
     '{"k":6,"n":4,"s":2,"value":3,"closed_form":3,"closed_form_plain_gcd":3,"abs_crs":3}\n'),
    ('skn 1000003 1000006 --s 3 --json', 0,
     '{"k":1000003,"n":1000006,"s":3,"value":1,"closed_form":1,"closed_form_plain_gcd":1,"abs_crs":1}\n'),
    ('skn 6 36 --s 2 --json', 0,
     '{"k":6,"n":36,"s":2,"value":24,"closed_form":24,"closed_form_plain_gcd":24,"abs_crs":24}\n'),
    ('hsum 1000003 1000009000027000027 --s 3 --json', 0,
     '{"k":1000003,"n":1000009000027000027,"s":3,"value":"1000009000027000027","delange_bound":"2000018000054000054","grytczuk_value":"1000009000027000027"}\n'),
    ('grytczuk 1000003 1000009000027000027 --s 3 --json', 0,
     '{"k":1000003,"n":1000009000027000027,"s":3,"value":"1000009000027000027","divisor_abs_sum":"1000009000027000027"}\n'),
    # k = 10**9+7 is prime: trial division of k**s would run up to k
    ('grytczuk 1000000007 5 --s 2', 0, '2\n'),
    ('hsum 1000000007 5 --s 2 --json', 0,
     '{"k":1000000007,"n":5,"s":2,"value":2,"delange_bound":10,"grytczuk_value":2}\n'),
    ('skn 1000000007 5 --s 2 --json', 0,
     '{"k":1000000007,"n":5,"s":2,"value":1,"closed_form":1,"closed_form_plain_gcd":1,"abs_crs":1}\n'),
    # 10**18+3 is prime: Miller-Rabin certifies it where trial division would not finish
    ('mobius 1000000000000000003', 0, '-1\n'),
    ('jordan 1000000000000000003 --json', 0,
     '{"n":1000000000000000003,"s":1,"value":"1000000000000000002"}\n'),
]


@pytest.mark.parametrize("command, code, stdout", POINT_CASES,
                         ids=[c[0] for c in POINT_CASES])
def test_point_query(capsys, command, code, stdout):
    assert run(capsys, command) == (code, stdout)


def test_point_query_out_file(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "hsum 6 4 --s 2 --json --out h.json") == (0, "")
    assert (tmp_path / "h.json").read_bytes() == (
        b'{"k":6,"n":4,"s":2,"value":8,"delange_bound":16,"grytczuk_value":8}\n'
    )
    assert run(capsys, "crsum 6 4 --s 2 --checked --out c.txt") == (0, "")
    assert (tmp_path / "c.txt").read_bytes() == b"-3\n"


# ---------------------------------------------------------------- sweep

SWEEP_JSON = (
    '{"grid":{"k_range":[1,8],"n_range":[1,8],"s_values":[1,2,3],'
    '"checks":["crs-agreement","delange-bound","equality-case","grytczuk-equality",'
    '"orthogonality","skn-consistency"]},'
    '"cells_total":1152,"cells_passed":1152,"failures":[]}\n'
)
SWEEP_CSV = ("e9f0b85bc38cf0fe896287697145c0f59cb8856549e367feaa41f370223a8f2e", 49452)
SUBSET_CSV = (
    'k,n,s,check,expected,actual,pass\n'
    '3,5,2,crs-agreement,-1,"mobius=-1,multiplicative=-1,direct=-1",true\n'
    '3,5,2,equality-case,(no claim),strict,true\n'
    '3,6,2,crs-agreement,-1,"mobius=-1,multiplicative=-1,direct=-1",true\n'
    '3,6,2,equality-case,(no claim),strict,true\n'
    '4,5,2,crs-agreement,0,"mobius=0,multiplicative=0,direct=0",true\n'
    '4,5,2,equality-case,(no claim),strict,true\n'
    '4,6,2,crs-agreement,0,"mobius=0,multiplicative=0,direct=0",true\n'
    '4,6,2,equality-case,(no claim),strict,true\n'
)


def test_sweep_json_stdout(capsys):
    assert run(capsys, SWEEP_GRID) == (0, SWEEP_JSON)


def test_sweep_csv_stdout(capsys):
    code, out = run(capsys, SWEEP_GRID + " --format csv")
    assert code == 0
    assert out.startswith("k,n,s,check,expected,actual,pass\n1,1,1,crs-agreement,1,")
    assert digest(out) == SWEEP_CSV


def test_sweep_reports_to_files(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    summary = "1152/1152 checks passed; 0 failures; report written to {}\n"
    assert run(capsys, SWEEP_GRID + " --out r.json") == (0, summary.format("r.json"))
    assert (tmp_path / "r.json").read_text(encoding="utf-8") == SWEEP_JSON
    code, out = run(capsys, SWEEP_GRID + " --format csv --out r.csv")
    assert (code, out) == (0, summary.format("r.csv"))
    assert digest((tmp_path / "r.csv").read_text(encoding="utf-8")) == SWEEP_CSV


def test_sweep_subset_csv(capsys):
    command = ("sweep --k-min 3 --k-max 4 --n-min 5 --n-max 6 --s 2 "
               "--checks crs-agreement equality-case --format csv")
    assert run(capsys, command) == (0, SUBSET_CSV)


# ---------------------------------------------------------------- expand

EXPAND_FULL = (
    '{"label":"golden","support_bound":6,"n":12,"s":2,"q_max":6,'
    '"coefficients":{"1":"11/36","2":"-25/36","3":"1/18","4":"0","5":"0","6":"1/18"},'
    '"partial_sum":"0","target":"0","residual":"0","condition_sum":"49/18"}\n'
)
EXPAND_TRUNCATED = (
    '{"label":"golden","support_bound":6,"n":5,"s":1,"q_max":2,'
    '"coefficients":{"1":"-1/6","2":"-7/6"},'
    '"partial_sum":"1","target":"1","residual":"0","condition_sum":"16/3"}\n'
)


def test_expand(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.spec").write_text(SPEC, encoding="utf-8")
    assert run(capsys, "expand f.spec 12 --s 2") == (0, EXPAND_FULL)
    assert run(capsys, "expand f.spec 5 --q-max 2 --json") == (0, EXPAND_TRUNCATED)
    assert run(capsys, "expand f.spec 12 --s 2 --out e.json") == (0, "")
    assert (tmp_path / "e.json").read_text(encoding="utf-8") == EXPAND_FULL


# a_q cancels to 0 at q = 1 and 2, which divide support entries; an all-zero
# spec has an empty support.
EXPAND_SPECS = {
    "f.spec": SPEC,
    "c.spec": "K=4\nlabel=cancel\n2=2\n4=-4\n",
    "e.spec": "K=3\nlabel=empty\n2=0\n",
}

EXPAND_CASES = [
    ("expand f.spec 5 --q-max 9 --json",
     '{"label":"golden","support_bound":6,"n":5,"s":1,"q_max":9,'
     '"coefficients":{"1":"-1/6","2":"-7/6","3":"1/3","4":"0","5":"0","6":"1/3",'
     '"7":"0","8":"0","9":"0"},'
     '"partial_sum":"1","target":"1","residual":"0","condition_sum":"16/3"}\n'),
    ("expand f.spec 7 --s 3",
     '{"label":"golden","support_bound":6,"n":7,"s":3,"q_max":6,'
     '"coefficients":{"1":"137/216","2":"-79/216","3":"1/108","4":"0","5":"0",'
     '"6":"1/108"},'
     '"partial_sum":"1","target":"1","residual":"0","condition_sum":"193/108"}\n'),
    ("expand c.spec 6",
     '{"label":"cancel","support_bound":4,"n":6,"s":1,"q_max":4,'
     '"coefficients":{"1":"0","2":"0","3":"0","4":"-1"},'
     '"partial_sum":"2","target":"2","residual":"0","condition_sum":"4"}\n'),
    ("expand c.spec 4 --q-max 3",
     '{"label":"cancel","support_bound":4,"n":4,"s":1,"q_max":3,'
     '"coefficients":{"1":"0","2":"0","3":"0"},'
     '"partial_sum":"0","target":"-2","residual":"2","condition_sum":"4"}\n'),
    ("expand e.spec 2 --s 2",
     '{"label":"empty","support_bound":3,"n":2,"s":2,"q_max":3,'
     '"coefficients":{"1":"0","2":"0","3":"0"},'
     '"partial_sum":"0","target":"0","residual":"0","condition_sum":"0"}\n'),
    ("expand e.spec 1 --q-max 5",
     '{"label":"empty","support_bound":3,"n":1,"s":1,"q_max":5,'
     '"coefficients":{"1":"0","2":"0","3":"0","4":"0","5":"0"},'
     '"partial_sum":"0","target":"0","residual":"0","condition_sum":"0"}\n'),
]


@pytest.mark.parametrize("command,expected", EXPAND_CASES)
def test_expand_cases(capsys, tmp_path, monkeypatch, command, expected):
    monkeypatch.chdir(tmp_path)
    for name, text in EXPAND_SPECS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert run(capsys, command) == (0, expected)


# ---------------------------------------------------------------- exit codes


@pytest.mark.parametrize("command", [
    "crsum 0 4",
    "crsum x 4",
    "crsum 4",
    "crsum 4 2 --method fourier",
    "jordan 0",
    "ggcd 4",
    "mobius 1.5",
    "hsum 4 0",
    "grytczuk 4 2 --s 0",
    "skn a 2",
    "nope 1 2",
    "sweep --k-min 5 --k-max 1",
    "sweep --checks not-a-check",
    "expand missing.spec 2",
    "expand bad.spec 2",
])
def test_bad_operand_exits_2(capsys, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.spec").write_text("K=2\n1=one\n", encoding="utf-8")
    assert run(capsys, command) == (2, "")


@pytest.mark.parametrize("command, path", [
    ("mobius 5 --out {}", "missing/x"),
    ("sweep --k-max 2 --n-max 2 --s 1 --out {}", "missing/x"),
    ("expand {} 3", "."),  # a directory, not a spec file
])
def test_unusable_path_exits_2(capsys, tmp_path, command, path):
    path = str(tmp_path / path)
    code = cli.main(command.format(path).split())
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and path in captured.err


@pytest.mark.parametrize("command, computation", [
    ("sweep --out {}", "run_sweep"),
    ("expand f.spec 3 --out {}", "partial_expansion"),
    ("crsum 4 2 --out {}", "auto"),  # the default entry of cli._METHODS
], ids=["sweep", "expand", "crsum"])
def test_sweep_opens_out_before_the_grid_runs(capsys, tmp_path, monkeypatch,
                                              command, computation):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.spec").write_text(SPEC, encoding="utf-8")
    def fail(*args):
        pytest.fail(f"{computation} ran")
    if computation in cli._METHODS:
        monkeypatch.setitem(cli._METHODS, computation, fail)
    else:
        monkeypatch.setattr(cli, computation, fail)
    path = str(tmp_path / "missing" / "x")
    code = cli.main(command.format(path).split())
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and path in captured.err


@pytest.mark.parametrize("link", [None, "symlink_to", "hardlink_to"],
                         ids=["same-path", "symlink", "hardlink"])
def test_out_naming_the_spec_file_exits_2_and_keeps_the_spec(capsys, tmp_path, monkeypatch,
                                                             link):
    monkeypatch.chdir(tmp_path)
    spec = tmp_path / "f.spec"
    spec.write_text(SPEC, encoding="utf-8")
    out = "f.spec"
    if link:
        getattr(tmp_path / "g.spec", link)(spec)
        out = "g.spec"
    code = cli.main(["expand", "f.spec", "3", "--out", out])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and out in captured.err
    assert spec.read_bytes() == SPEC.encode("utf-8")


@pytest.mark.parametrize("out_text", [None, "kept\n"], ids=["new-out", "existing-out"])
def test_missing_spec_exits_2_and_leaves_out_alone(capsys, tmp_path, monkeypatch, out_text):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "r.json"
    if out_text is not None:
        out.write_text(out_text, encoding="utf-8")
    code = cli.main(["expand", "missing.spec", "3", "--out", "r.json"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and "missing.spec" in captured.err
    if out_text is None:
        assert not out.exists()
    else:
        assert out.read_text(encoding="utf-8") == out_text


def test_uncertified_operand_exits_2(capsys):
    # 10**30+57 is prime, but past the range where Miller-Rabin is exact
    code = cli.main(["mobius", "1000000000000000000000000000057"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: cannot factor 1000000000000000000000000000057")


def test_direct_guard_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("CRSUM_MAX_DIRECT", "3")
    assert run(capsys, "crsum 7 3 --method direct") == (0, "-1\n")
    assert run(capsys, "crsum 1001 7 --s 2 --method direct") == (2, "")


@pytest.mark.parametrize("command", [
    "crsum 6 3 --checked",
    "crsum 6 3 --checked --json",
    "crsum 6 3 --method hoelder --checked",
    "crsum 6 3 --method direct --checked --json",
])
def test_forced_disagreement_exits_3(capsys, monkeypatch, command):
    monkeypatch.setattr(crsum_module, "_mobius_value", lambda q, n, s: 10**9)
    assert run(capsys, command) == (3, "")


def test_poisoned_roots_exit_3_when_checked(capsys, ones_on_index):
    # every root read as 1: the sum counts the 2 admissible h, not c_3(1) = -1
    assert run(capsys, "crsum 3 1 --method direct") == (0, "2\n")
    assert run(capsys, "crsum 3 1 --method direct --checked") == (3, "")


FAILED_SWEEP_JSON = (
    '{"grid":{"k_range":[1,3],"n_range":[1,2],"s_values":[1],"checks":["orthogonality"]},'
    '"cells_total":6,"cells_passed":4,"failures":['
    '{"k":2,"n":1,"s":1,"check":"orthogonality","expected":"0","actual":"forced"},'
    '{"k":2,"n":2,"s":1,"check":"orthogonality","expected":"0","actual":"forced"}]}\n'
)
FAILED_SWEEP_CSV = (
    "k,n,s,check,expected,actual,pass\n"
    "1,1,1,orthogonality,0,forced,true\n"
    "1,2,1,orthogonality,0,forced,true\n"
    "2,1,1,orthogonality,0,forced,false\n"
    "2,2,1,orthogonality,0,forced,false\n"
    "3,1,1,orthogonality,0,forced,true\n"
    "3,2,1,orthogonality,0,forced,true\n"
)


def test_forced_sweep_failure_exits_4(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(cli.CHECKS, "orthogonality",
                        lambda k, n, s: (k != 2, "0", "forced"))
    command = "sweep --k-max 3 --n-max 2 --s 1 --checks orthogonality"
    assert run(capsys, command) == (4, FAILED_SWEEP_JSON)
    assert run(capsys, command + " --format csv --out f.csv") == (
        4, "4/6 checks passed; 2 failures; report written to f.csv\n"
    )
    assert (tmp_path / "f.csv").read_text(encoding="utf-8") == FAILED_SWEEP_CSV


def test_aborted_csv_sweep_keeps_the_rows_before_the_failing_cell(capsys, tmp_path,
                                                                   monkeypatch):
    def check(k, n, s):
        if k == 3:
            raise cli.CrossCheckError("forced at k = 3")
        return k != 2, "0", "forced"

    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(cli.CHECKS, "orthogonality", check)
    command = "sweep --k-max 3 --n-max 2 --s 1 --checks orthogonality --format csv --out f.csv"
    assert run(capsys, command) == (3, "")
    rows_before_k3 = "".join(FAILED_SWEEP_CSV.splitlines(keepends=True)[:5])
    assert (tmp_path / "f.csv").read_text(encoding="utf-8") == rows_before_k3


# ---------------------------------------------------------------- help and parse errors

TOP_USAGE = "usage: crsums [-h] command ...\n"
TOP_HELP = TOP_USAGE + """
Exact Cohen-Ramanujan sums, divisor-sum identities, and finite-support
expansion checks.

positional arguments:
  command
    crsum     evaluate c_q^(s)(n)
    jordan    Jordan totient J_s(n)
    ggcd      generalized gcd (a,b)_s, returned as the s-th power d**s
    mobius    Möbius function μ(n)
    hsum      divisor absolute sum Σ_{q|k} |c_q^(s)(n)|
    grytczuk  closed form 2**w(k^s/(k^s,n)_s)·(k^s,n)_s of the divisor sum
    skn       Möbius-inverted divisor sum S(k,n) = |c_k^(s)(n)|
    sweep     run identity checks over a (k, n, s) grid
    expand    expand an arithmetical function from a Möbius-transform file

options:
  -h, --help  show this help message and exit
"""
COMMAND_CHOICES = ("(choose from 'crsum', 'jordan', 'ggcd', 'mobius', 'hsum', "
                   "'grytczuk', 'skn', 'sweep', 'expand')")
CRSUM_USAGE = """\
usage: crsums crsum [-h] [--json] [--out PATH] [--s S]
                    [--method {auto,direct,mobius,multiplicative,hoelder}]
                    [--checked]
                    q n
"""
CHECK_NAMES = ("crs-agreement,delange-bound,equality-case,grytczuk-equality,"
               "orthogonality,skn-consistency")
SWEEP_USAGE = f"""\
usage: crsums sweep [-h] [--json] [--out PATH] [--k-min K_MIN] [--k-max K_MAX]
                    [--n-min N_MIN] [--n-max N_MAX] [--s S [S ...]]
                    [--checks {{{CHECK_NAMES}}} [{{{CHECK_NAMES}}} ...]]
                    [--format {{json,csv}}]
"""

# Subcommand help pages, by SHA-256 and size of stdout; stderr is empty.
SUBCOMMAND_HELP = {
    "crsum": ("a62f7f93de1b83483bf6f5a12e37a085ce6ce49caed550674668a58e2448554c", 595),
    "jordan": ("8d03aa326ba563514bc3d2f8cf0d951a29b4567ca086f6fe6c39c7dbb21925e2", 265),
    "ggcd": ("3d55f6ae77c62e40302c3c6a46eb124aea6a498328d21bd87f5f13d9d7c6ca48", 269),
    "mobius": ("6176330c007dd40f27b70480751188ab961f5abe91b0d978e5d8f2860f280d87", 249),
    "hsum": ("459cd83e72d903a545f67c0e3bb1c3054fd16ec9d0e813d7be95f30be69f42b9", 269),
    "grytczuk": ("9878dcca7897d924d1f37fcf43f216ff65b35b6269c2ae03f9906d75c5bbd26d", 273),
    "skn": ("2d7adaca932edae4a08668554bd4bcc8dda07ff8d872825b1867cc72a2787fd5", 268),
    "sweep": ("68f2f673eeec76c26ec950c7d2fd07df24dd15ae18b8d0dd42ea9e79139c6c70", 915),
    "expand": ("b086be4d265e7b763a4e55bd0686876d1adf94d5f205c4061defd4f51d6fe8c1", 349),
}

# argv -> (exit code, stdout, stderr)
PARSER_CASES = {
    "-h": (0, TOP_HELP, ""),
    "-h mobius": (0, TOP_HELP, ""),
    "": (2, "", TOP_USAGE + "crsums: error: the following arguments are required: command\n"),
    "nope 1": (2, "", TOP_USAGE + "crsums: error: argument command: invalid choice: "
                                  f"'nope' {COMMAND_CHOICES}\n"),
    "-- mobius 5": (2, "", TOP_USAGE + "crsums: error: argument command: invalid choice: "
                                       f"'--' {COMMAND_CHOICES}\n"),
    "--json mobius 5": (2, "", TOP_USAGE + "crsums: error: unrecognized arguments: --json\n"),
    "mobius 5 6": (2, "", TOP_USAGE + "crsums: error: unrecognized arguments: 6\n"),
    "mobius": (2, "", "usage: crsums mobius [-h] [--json] [--out PATH] n\n"
                      "crsums mobius: error: the following arguments are required: n\n"),
    "crsum 4 2 --method x": (2, "", CRSUM_USAGE + "crsums crsum: error: argument --method: "
                             "invalid choice: 'x' (choose from 'auto', 'direct', 'mobius', "
                             "'multiplicative', 'hoelder')\n"),
    "sweep --checks bogus": (2, "", SWEEP_USAGE + "crsums sweep: error: argument --checks: "
                             "invalid choice: 'bogus' (choose from 'crs-agreement', "
                             "'delange-bound', 'equality-case', 'grytczuk-equality', "
                             "'orthogonality', 'skn-consistency')\n"),
}


def run_parser(capsys, monkeypatch, command: str) -> tuple[int, str, str]:
    monkeypatch.setenv("COLUMNS", "80")
    code = cli.main(command.split())
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command", list(PARSER_CASES), ids=repr)
def test_parser_text(capsys, monkeypatch, command):
    assert run_parser(capsys, monkeypatch, command) == PARSER_CASES[command]


@pytest.mark.parametrize("name", list(SUBCOMMAND_HELP))
def test_subcommand_help(capsys, monkeypatch, name):
    code, out, err = run_parser(capsys, monkeypatch, f"{name} -h")
    assert (code, digest(out), err) == (0, SUBCOMMAND_HELP[name], "")
