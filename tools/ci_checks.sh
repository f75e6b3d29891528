#!/usr/bin/env bash
# The checks that run after the tier-1 tests and the benchmark self-test:
# time limits, peak-RSS limits and output digests of the CLI on large inputs.
# Run from anywhere with the interpreter under test first on PATH as
# `python`:  bash tools/ci_checks.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

step() { printf '\n== %s\n' "$1"; }

step "Sparse expand over a support of 3,000,000"
printf 'K=3000000\n1=1\n' > "$work/big.spec"
python -c '
import resource, subprocess, sys, time
start = time.perf_counter()
subprocess.run([sys.executable, "-m", "crsums.cli", "expand", sys.argv[1], "7", "--s", "2",
                "--json", "--out", sys.argv[2]], check=True, timeout=30)
wall = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"expand wall time {wall:.2f} s, peak RSS {peak:.0f} MiB (limit 64)")
sys.exit(peak > 64)' "$work/big.spec" "$work/big.json"
(cd "$work" && echo "0a234f2d8c9704421b076a6fdcd4c6d56ab1912ea7b45fe2509c66cf6d98fe20  big.json" | sha256sum -c)

step "Sparse expand reports keep their bytes across the 1,000-key block edges"
# Runs of zero coefficients are written one block of keys P*1000..P*1000+999
# at a time; the entries sit on and around block edges, and so do many of
# their divisors, where a_q is non-zero too.
printf 'K=123456\nlabel=block edges\n1=1\n999=-2\n1000=3\n1001=-4\n54321=5\n100000=-6\n123456=7\n' \
    > "$work/edges.spec"
for s in 1 2 3; do
    timeout 30 python -m crsums.cli expand "$work/edges.spec" 12 --s "$s" --json \
        --out "$work/edges$s.json"
done
(cd "$work" && sha256sum -c <<'EOF'
cba9f345082a5a48893b331e48073f7e84f8ce5f70c741f7ac71f88d9d933540  edges1.json
6406ac673d5f961b235657edb5b1a25f13b87eaf38198f32fe2f6808620053bf  edges2.json
a010974cb624ec07c867de6d58e76044e50a7657d07bd1d1f2538240bf648395  edges3.json
EOF
)

step "An expand report past 10^8 coefficients is refused up front"
printf 'K=1000000000000\n1=1\n' > "$work/huge.spec"
code=0; timeout 10 python -m crsums.cli expand "$work/huge.spec" 7 || code=$?
test "$code" = 2

step "An expand that cannot be printed leaves --out empty"
# a_6 = 1/6**6000 has 4,669 digits, past the int-to-str limit of 4300
printf 'K=6\n6=1\n' > "$work/f.spec"
code=0; timeout 10 python -m crsums.cli expand "$work/f.spec" 5 --s 6000 --json \
    --out "$work/x.json" || code=$?
test "$code" = 2
test -f "$work/x.json" && test ! -s "$work/x.json"

step "The default sweep reports keep their bytes"
# 50 x 50 cells x s in 1..3 x all six checks, as CSV and as JSON
timeout 120 python -m crsums.cli sweep --format csv --out "$work/sweep.csv"
timeout 120 python -m crsums.cli sweep --out "$work/sweep.json"
(cd "$work" && sha256sum -c <<'EOF'
2fb40244d13c37937c8c6602658e43b4ddac7b4b895c97ba0adab350aec31e5b  sweep.csv
1c62d30f41a030bc97111dbcba5e025d74a5f08157c1aee65f28f7d3a51a056d  sweep.json
EOF
)

step "A sweep past the row limit is refused up front"
# 10^6 x 10^6 cells x 3 values of s x 6 checks, against a limit of 10^7 rows
code=0; timeout 10 python -m crsums.cli sweep --k-max 1000000 --n-max 1000000 --format csv \
    --out "$work/huge.csv" || code=$?
test "$code" = 2
test -f "$work/huge.csv" && test ! -s "$work/huge.csv"

step "Rearrangement check over a support of 3,000,000 reads omega at its entries only"
# 2,552,550 = 5·510,510 is a multiple of 7, so gcd(k, n) > 1 there, and
# 2,999,999 is an entry at the top of the support.
timeout 60 python -c 'import sys; from crsums.expansions import MobiusSpec, rearrangement_check; sys.exit(rearrangement_check(MobiusSpec(3_000_000, {1: 1, 2_552_550: -2, 2_999_999: 3}), 7, 2) is not True)'

step "A dense expansion loop builds each Expansion once and evaluates each c_q once"
# The loop of acceptance criteria 7 and 8: 20 specs x s in 1..3 x n in 1..50.
# Each (spec, s, n) evaluates c_q^(s)(n^s) once per q of Expansion.numerators.
timeout 60 python -c '
import random, sys
from crsums import expansions
rng = random.Random(23)
specs = []
for i in range(20):
    bound = rng.randint(1, 40)
    specs.append(expansions.MobiusSpec(bound, {k: rng.randint(-9, 9) for k in range(1, bound + 1)}))
calls = 0
value = expansions._multiplicative_value
def counting(q, n, s):
    global calls
    calls += 1
    return value(q, n, s)
expansions._multiplicative_value = counting
bad = want = 0
for spec in specs:
    for s in (1, 2, 3):
        for n in range(1, 51):
            bad += expansions.partial_expansion(spec, n, s).residual != 0
            bad += expansions.rearrangement_check(spec, n, s) is not True
            want += len(expansions._expansion(spec, s).numerators)
info = expansions._expansion.cache_info()
print(f"{bad} failed of 6000 checks; Expansion built {info.misses} times (want 60); "
      f"c_q evaluated {calls} times (want {want})")
sys.exit(bad != 0 or info.misses != 60 or calls != want)'

step "Closed forms at k = 10**9+7 answer from the factorization of k"
timeout 10 python -m crsums.cli grytczuk 1000000007 5 --s 2
timeout 10 python -m crsums.cli hsum 1000000007 5 --s 2 --json
timeout 10 python -m crsums.cli skn 1000000007 5 --s 2

step "Operands near 10**18 are certified; past 3.3e24 they are refused"
timeout 10 python -m crsums.cli mobius 1000000000000000003
timeout 10 python -m crsums.cli jordan 1000000000000000003 --json
code=0; timeout 10 python -m crsums.cli mobius 1000000000000000000000000000057 || code=$?
test "$code" = 2

step "A literal sum past 10^6 terms is refused whatever the environment says"
code=0; CRSUM_MAX_DIRECT=10000000000000 timeout 10 python -m crsums.cli crsum 1000003 1 --s 2 --method direct || code=$?
test "$code" = 2

step "Literal sums of 10^6 terms are exact and stream in O(sqrt(q^s)) memory"
# With full tables of 10^6 powers and of the admissible h, these peaked at
# 93 MiB on CPython 3.11.7; the streamed sums peak near 17 MiB.
python -c '
import resource, subprocess, sys
for argv, want in ((["1000", "7"], "0"), (["997", "3"], "-1")):
    out = subprocess.run(["timeout", "10", sys.executable, "-m", "crsums.cli", "crsum", *argv,
                          "--s", "2", "--method", "direct"],
                         check=True, capture_output=True, text=True).stdout.strip()
    print("crsum", *argv, "--s 2 --method direct ->", out)
    if out != want:
        sys.exit(f"expected {want}")
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"direct sum peak RSS {peak:.1f} MiB (limit 24)")
sys.exit(peak > 24)'

printf '\nall checks passed\n'
