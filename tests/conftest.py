"""Every test starts with the package's caches empty.

A value cached while one test monkeypatches a helper (``expansions.omega``,
say) would otherwise be read by the next test.  The caches are found as
``perfbench/tracing.py``'s ``Caches`` finds them: every ``lru_cache`` that
a ``crsums`` module defines.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import crsums

CACHES = [
    obj
    for info in pkgutil.iter_modules(crsums.__path__)
    for module in [importlib.import_module(f"crsums.{info.name}")]
    for obj in vars(module).values()
    if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == module.__name__
]


@pytest.fixture(autouse=True)
def _empty_caches():
    for cache in CACHES:
        cache.cache_clear()
