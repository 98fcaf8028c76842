"""Tier-1 never collects ``benchmarks/``: import every harness here.

A bench that still imports a deleted name then fails the unit suite
instead of going stale until the next perf run.  Import only -- no
bench body runs.
"""

import importlib.util
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.mark.parametrize(
    "path", sorted(BENCHMARKS.glob("test_bench_*.py")), ids=lambda p: p.stem
)
def test_benchmark_module_imports(path):
    spec = importlib.util.spec_from_file_location(f"_bench_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
