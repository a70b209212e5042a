"""Shared pytest setup for ``tests`` and ``perfbench/tests``.

The benchmark's own tests check what a traced computation calls, so each of
them starts from an empty basis cache: a basis cached by an earlier test
would turn a traced ``groebner`` call into a cache hit.
"""

from pathlib import Path

import pytest

from detsing import verify

PERFBENCH = Path(__file__).resolve().parent / "perfbench"


@pytest.fixture(autouse=True)
def _cold_basis_cache_for_perfbench(request):
    if PERFBENCH in request.node.path.parents:
        verify._GB_CACHE.clear()
