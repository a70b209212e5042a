"""Shared pytest setup for ``tests`` and ``perfbench/tests``.

The benchmark's own tests, and the test of its tracer, check what a traced
computation calls, so each of them starts from an empty basis cache: a
basis or saturation cached by an earlier test would turn a traced
``groebner`` call into a cache hit.
"""

from pathlib import Path

import pytest

from detsing import verify

ROOT = Path(__file__).resolve().parent
PERFBENCH = ROOT / "perfbench"
TRACING_TEST = ROOT / "tests" / "test_benchmark_tracing.py"


@pytest.fixture(autouse=True)
def _cold_basis_cache_for_perfbench(request):
    if PERFBENCH in request.node.path.parents or request.node.path == TRACING_TEST:
        verify._GB_CACHE.clear()
