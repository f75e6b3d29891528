"""Layer tracing from outside the program, and the package's cache counters.

The tracer swaps every function that one ``crsums`` module imports from
another for a timing wrapper in the importing module's namespace, so each
call that crosses a module boundary becomes a span named after the callee
(``arith.factorize``, ``crsum._multiplicative_value`` ...).  A few names are
also wrapped in their own module: the entry points the benchmark calls and
the helpers whose cost the per-layer metrics name.  Spans are aggregated in
memory as they close: a span's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from types import ModuleType

OWN_MODULE = {
    "cli": ("main", "build_parser"),
    "expansions": ("coefficient", "f_from_spec", "partial_expansion", "rearrangement_check"),
}


class Tracer:
    """Installable wrappers plus the per-span totals they accumulate."""

    def __init__(self, modules: dict[str, ModuleType]):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        # stack[0] collects the duration of top-level spans; each open span
        # pushes a slot that collects the durations of its children.
        self.stack = [0.0]
        self._patches = []
        package = {m.__name__ for m in modules.values()}
        for name, module in modules.items():
            own = OWN_MODULE.get(name, ())
            for attr, obj in vars(module).items():
                home = getattr(obj, "__module__", None)
                if not callable(obj) or isinstance(obj, type) or home not in package:
                    continue
                if home != module.__name__:
                    span = f"{home.rpartition('.')[2]}.{obj.__name__}"
                elif attr in own:
                    span = f"{name}.{attr}"
                else:
                    continue
                self._patches.append((module, attr, obj, self._wrap(obj, span)))

    def _wrap(self, fn, span: str):
        stack, self_s, calls, clock = self.stack, self.self_s, self.calls, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_s[span] += duration - stack.pop()
                calls[span] += 1
                stack[-1] += duration

        return traced

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.stack[:] = [0.0]


class Caches:
    """Every ``lru_cache`` the package defines, with hit counts that survive
    ``cache_clear()``.

    Metric names drop the leading underscore of private functions, so
    ``crsum._root_table`` reports as ``crsum.root_table``.
    """

    def __init__(self, modules: dict[str, ModuleType]):
        self.caches = {
            f"{name}.{attr.lstrip('_')}": obj
            for name, module in modules.items()
            for attr, obj in vars(module).items()
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == module.__name__
        }
        self._done = {key: [0, 0] for key in self.caches}

    def clear(self) -> None:
        """Empty every cache, keeping the counts it had gathered."""
        for key, cache in self.caches.items():
            info = cache.cache_info()
            self._done[key][0] += info.hits
            self._done[key][1] += info.misses
            cache.cache_clear()

    def start_pass(self) -> None:
        self.clear()
        for counts in self._done.values():
            counts[:] = [0, 0]

    def counts(self) -> dict[str, tuple[int, int, int]]:
        """(hits, misses, current size) of each cache since ``start_pass``."""
        out = {}
        for key, cache in self.caches.items():
            info = cache.cache_info()
            hits, misses = self._done[key]
            out[key] = (hits + info.hits, misses + info.misses, info.currsize)
        return out
