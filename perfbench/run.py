#!/usr/bin/env python3
"""crsums benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 12 --trace 0

The program is imported from ``src/`` next to this directory.  Inputs and
reports are written under ``.perfbench_work/`` in the same checkout, which
is removed at exit.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

A run repeats passes over the workload's seeded calls until ``--seconds``
have gone by, with a minimum number of passes.  Caches are emptied before
each pass, and before each call for single queries.  Outputs are checked
after every call, outside the timed region.

``--trace 0`` reports the end-to-end metrics.  Set-up time and peak memory
come from fresh ``child.py`` processes that start, build the inputs and, in
the last one, run every call once.  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics from the traced ones.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Caches, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

DEFAULT_SEED = 1
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_STARTS = 21  # process starts timed for setup_s; the last one also runs a pass
HARNESS_SHARE_MAX = 0.05  # traced wall time allowed outside every program span
MODULES = ("arith", "crsum", "identities", "expansions", "cli")
LAYERS = ("harness",) + MODULES
READY = "perfbench-ready"  # child.py's line once its inputs are written

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "cli.self_s": "s",
    "cli.build_parser.self_s": "s",
    "cli.build_parser.calls": "count",
    "cli.report_bytes": "bytes",
    "crsum.crs_direct.self_s": "s",
    "crsum.crs_direct.calls": "count",
    "crsum._multiplicative_value.self_s": "s",
    "crsum._multiplicative_value.calls": "count",
    "crsum.crs_mobius.self_s": "s",
    "crsum.crs_hoelder.self_s": "s",
    "crsum.root_table.hit_ratio": "ratio",
    "crsum.admissible_h.hit_ratio": "ratio",
    **{
        f"identities.{fn}.{kind}": unit
        for fn in ("divisor_abs_sum", "grytczuk_value", "orthogonality_sum",
                   "s_kn_mobius", "s_kn_closed_form")
        for kind, unit in (("self_s", "s"), ("calls", "count"))
    },
    "expansions.partial_expansion.self_s": "s",
    "expansions.rearrangement_check.self_s": "s",
    "expansions.coefficient.calls": "count",
    "arith.self_s": "s",
    "arith.factorize.calls": "count",
    "arith.factorize.hit_ratio": "ratio",
    "arith.divisors.hit_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

# Only the sources of this checkout may be measured, and the direct
# evaluator's guard stays at its default.
os.environ.pop("CRSUM_MAX_DIRECT", None)


def load_program():
    """Import crsums from this checkout's ``src/``; exit 1 if it is absent."""
    if not (SRC / "crsums" / "cli.py").is_file():
        sys.exit(f"perfbench: no crsums sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"crsums.{name}") for name in MODULES}
    if not Path(modules["cli"].__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported crsums from {modules['cli'].__file__}, not {SRC}")
    import workloads

    return modules, workloads


def workdir() -> Path:
    return WORK / f"main-{os.getpid()}"


def leave_workdir() -> None:
    os.chdir(ROOT)
    shutil.rmtree(workdir(), ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:  # another run is still using it
        pass


def build(workloads, args):
    """Write the workload's inputs into a fresh work directory and enter it.

    The benchmark's own objects are then frozen out of the garbage
    collector's sight, so that collections during timed calls scan only
    what the program allocates.
    """
    path = workdir()
    path.mkdir(parents=True)
    os.chdir(path)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size)
    gc.collect()
    gc.freeze()
    return workload


@dataclass
class PassResult:
    """Timings, failures, output digest and counters of one pass."""

    times: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    report_bytes: int = 0
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    caches: dict[str, tuple[int, int, int]] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_pass(workload, caches, tracer=None) -> PassResult:
    """Time every call of the workload once, checking each output."""
    result = PassResult()
    caches.start_pass()
    gc.collect()
    if tracer:
        tracer.reset()
        tracer.install()
    clock = time.perf_counter
    try:
        for call in workload.calls:
            if workload.clear_per_call:
                caches.clear()
            start = clock()
            try:
                value = call.run()
            except Exception:  # a raising call is a failed op; the run goes on
                result.times.append(clock() - start)
                traceback.print_exc(file=sys.stderr)
                result.attempted += call.weight
                result.failed += call.weight
                continue
            result.times.append(clock() - start)
            failed, output = call.check(value)
            result.attempted += call.weight
            result.failed += failed
            result.digest.update(output)
            if call.cli_output:
                result.report_bytes += len(output)
    finally:
        if tracer:
            tracer.uninstall()
    result.caches = caches.counts()
    if tracer:
        result.self_s = dict(tracer.self_s)
        result.self_s["harness"] = result.wall - tracer.stack[0]
        result.calls = dict(tracer.calls)
    return result


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the nearest samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def score(passes: list[PassResult], args) -> tuple[int, int, str]:
    """Attempted and failed ops over all passes, and the digest finding.

    Every pass must produce the same bytes, and for the default seed the
    pinned ones; a pass that does not counts all its ops as failed.
    """
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    first = passes[0].digest.hexdigest()
    pin = None
    if args.seed == DEFAULT_SEED:
        pins = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
        pin = pins.get(f"{args.workload}/{args.size}")
    for p in passes:
        if p.digest.hexdigest() != (pin or first):
            failed += p.attempted - p.failed
    verdict = ("no pin for this seed" if pin is None
               else "pinned: match" if pin == first else "pinned: MISMATCH")
    return attempted, failed, f"output digest sha256 {first} ({verdict})"


def timed_passes(workload, caches, seconds: float, minimum: int, tracer=None):
    """Untraced passes, alternating with traced ones when a tracer is given."""
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(plain) < minimum:
        plain.append(run_pass(workload, caches))
        if tracer:
            traced.append(run_pass(workload, caches, tracer))
    return plain, traced


def cache_lines(result: PassResult, clear_per_call: bool) -> list[str]:
    when = "each call" if clear_per_call else "each pass"
    lines = [f"python {platform.python_implementation()} {platform.python_version()}; "
             f"caches emptied before {when}; counts from the last pass:"]
    for key, (hits, misses, size) in result.caches.items():
        lines.append(f"  cache {key}: hits {hits}, misses {misses}, size at end {size}")
    return lines


def start_child(args, mode: str) -> tuple[float, dict]:
    """Seconds from spawn until a ``child.py`` process is ready, and its JSON line."""
    cmd = [sys.executable, str(HERE / "child.py"), mode, args.workload,
           str(args.seed), args.size]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    if line.strip() != READY or code != 0:
        raise RuntimeError(f"{mode} process exited with code {code}")
    return ready, (json.loads(rest.splitlines()[-1]) if rest.strip() else {})


def end_to_end(args, modules, workloads) -> tuple[dict, int, int, list[str]]:
    setup = [start_child(args, "setup")[0] for _ in range(SETUP_STARTS - 1)]
    ready, rss = start_child(args, "rss")
    setup.append(ready)

    workload = build(workloads, args)
    passes, _ = timed_passes(workload, Caches(modules), args.seconds, MIN_PASSES)
    attempted, failed, digest = score(passes, args)
    attempted += rss["attempted"]
    failed += rss["failed"]

    ops = sum(c.weight for c in workload.calls)
    per_op_ms = [
        statistics.median(p.times[i] for p in passes) / call.weight * 1e3
        for i, call in enumerate(workload.calls)
    ]
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": ops * len(passes) / sum(p.wall for p in passes),
        "op_p50_ms": quantile(per_op_ms, 50),
        "op_p99_ms": quantile(per_op_ms, 99),
        "peak_rss_mb": rss["peak_kib"] / 1024,
    }
    lines = [
        f"{len(passes)} timed passes of {ops} ops in {len(workload.calls)} calls; "
        "ops_per_s is over all passes; an op's latency is its call's median "
        "time over the passes divided by the call's ops",
        "pass ops_per_s " + " ".join(f"{ops / p.wall:.5g}" for p in passes),
        "setup_s samples " + " ".join(f"{s:.4f}" for s in setup),
        digest,
        *cache_lines(passes[-1], workload.clear_per_call),
    ]
    return metrics, attempted, failed, lines


def layer_metrics(result: PassResult) -> dict[str, float]:
    """Per-layer values of one traced pass, without the overhead ratio."""
    out = {}
    for name in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if name == "cli.report_bytes":
            out[name] = result.report_bytes
        elif kind == "self_s":
            if span in MODULES:
                out[name] = sum(v for k, v in result.self_s.items()
                                if k.partition(".")[0] == span)
            else:
                out[name] = result.self_s.get(span, 0.0)
        elif kind == "calls":
            if span in result.caches:  # counts arith's internal calls too
                hits, misses, _ = result.caches[span]
                out[name] = hits + misses
            else:
                out[name] = result.calls.get(span, 0)
        elif kind == "hit_ratio":
            hits, misses, _ = result.caches.get(span, (0, 0, 0))
            out[name] = hits / (hits + misses) if hits + misses else 0.0
    return out


def self_time_check(result: PassResult) -> tuple[bool, str]:
    """The program layers' self times must cover nearly all traced wall time.

    Self times telescope, so the layers plus ``harness`` always sum to the
    wall time.  What can go missing is program time outside every span, which
    lands in ``harness``; it must stay below ``HARNESS_SHARE_MAX``.
    """
    by_layer = {layer: 0.0 for layer in LAYERS}
    for span, value in result.self_s.items():
        by_layer[span.partition(".")[0]] += value
    share = by_layer["harness"] / result.wall
    ok = share <= HARNESS_SHARE_MAX
    shares = ", ".join(f"{k} {v:.4f}" for k, v in by_layer.items())
    return ok, (f"self time by layer (s): {shares}; harness share {share:.4%} of traced "
                f"wall {result.wall:.4f} s (limit {HARNESS_SHARE_MAX:.0%}: "
                f"{'ok' if ok else 'MISSING TIME'})")


def per_layer(args, modules, workloads) -> tuple[dict, int, int, list[str], bool]:
    workload = build(workloads, args)
    tracer = Tracer(modules)
    plain, traced = timed_passes(workload, Caches(modules), args.seconds,
                                 MIN_TRACED_PASSES, tracer)
    attempted, failed, digest = score(plain + traced, args)

    per_pass = [layer_metrics(p) for p in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_ratio"] = (statistics.median(p.wall for p in traced)
                                       / statistics.median(p.wall for p in plain))
    checks = [self_time_check(p) for p in traced]
    lines = [
        f"{len(plain)} untraced and {len(traced)} traced passes, alternating; "
        "layer values are medians over the traced passes",
        next((line for ok, line in checks if not ok), checks[0][1]),
        digest,
        *cache_lines(traced[-1], workload.clear_per_call),
    ]
    return metrics, attempted, failed, lines, all(ok for ok, _ in checks)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "expand-dense", "expand-sparse", "queries"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="input size; small is for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    modules, workloads = load_program()
    try:
        if args.trace:
            metrics, attempted, failed, lines, correct = per_layer(args, modules, workloads)
            units = PER_LAYER
        else:
            metrics, attempted, failed, lines = end_to_end(args, modules, workloads)
            correct, units = True, END_TO_END
    finally:
        leave_workdir()
    print(f"perfbench {args.workload} seed {args.seed} size {args.size} "
          f"trace {args.trace} seconds {args.seconds:g}")
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(f"metric fail_ratio = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} ops failed)")
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
