"""Every test starts with the package's caches empty.

A value cached while one test monkeypatches a helper (``expansions.omega``,
say) would otherwise be read by the next test.  The caches are found as
``perfbench/tracing.py``'s ``Caches`` finds them: every ``lru_cache`` that
a ``crsums`` module defines.  The ``ones_on_index`` fixture poisons the
literal sum for the tests that show checking catches it.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import crsums
import crsums.crsum as crsum_module

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


@pytest.fixture
def ones_on_index(monkeypatch):
    """Poison the literal sum: ω reads as 1, so it counts its admissible h."""
    monkeypatch.setattr(crsum_module, "_field", lambda modulus: (10**9 + 7, 1))
