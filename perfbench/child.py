"""A fresh process that sets up one workload, for ``setup_s`` and ``peak_rss_mb``.

    python3 perfbench/child.py <setup|rss> <workload> <seed> <size>

``run.py`` starts it and times it from spawn to its first line.  It imports
``crsums.cli`` before any benchmark module and reads its arguments without
argparse, so that the program's own imports are not already paid for by the
harness.  It writes the inputs under ``.perfbench_work/``, prints
``perfbench-ready``, and in ``rss`` mode then runs every call once, checking
each, and prints its peak resident memory and op counts as JSON.
"""

import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import crsums.cli  # noqa: E402  (first, before the benchmark's modules)
import json  # noqa: E402
import workloads  # noqa: E402


def rss_pass(workload) -> tuple[int, int]:
    """Run and check every call once from cold caches: (attempted, failed) ops."""
    import traceback

    from tracing import Caches

    caches = Caches({name: getattr(crsums, name) for name in
                     ("arith", "crsum", "identities", "expansions", "cli")})
    caches.clear()
    attempted = failed = 0
    for call in workload.calls:
        if workload.clear_per_call:
            caches.clear()
        attempted += call.weight
        try:
            failed += call.check(call.run())[0]
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += call.weight
    return attempted, failed


def main(mode: str, name: str, seed: str, size: str) -> None:
    work = ROOT / ".perfbench_work" / f"child-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        os.chdir(work)
        workload = workloads.WORKLOADS[name](int(seed), size)
        print("perfbench-ready", flush=True)
        if mode == "rss":
            import resource

            attempted, failed = rss_pass(workload)
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print(json.dumps({"peak_kib": peak_kib, "attempted": attempted,
                              "failed": failed}), flush=True)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main(*sys.argv[1:])
