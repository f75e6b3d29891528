#!/usr/bin/env python3
"""Small-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at the small size, once with tracing
off and once with it on, and checks that each metric BENCHMARK.json names
is printed with its unit, that no op failed, and that the default seed's
outputs match their pinned digest.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(workload: str, trace: int, expected: dict[str, str]) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--size", "small"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["failed"] != 0 or result["correct"] is not True or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"of {result['attempted']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metrics {got} != {expected}")
    printed = dict(re.findall(r"^metric (\S+) = \S+ (\S+)", proc.stdout, re.M))
    for name, unit in {**expected, "fail_ratio": "ratio"}.items():
        if printed.get(name) != unit:
            problems.append(f"{where}: line for {name} [{unit}] missing")
    if not re.search(r"^metric fail_ratio = 0 ratio", proc.stdout, re.M):
        problems.append(f"{where}: fail_ratio is not 0")
    if "(pinned: match)" not in proc.stdout:
        problems.append(f"{where}: output digest does not match its pin")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    kinds = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in spec["workloads"]:
        for trace, metrics in kinds.items():
            expected = {m["name"]: m["unit"] for m in metrics}
            found = check_run(workload["name"], trace, expected)
            print(f"{workload['name']} trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
