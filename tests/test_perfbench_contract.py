"""The benchmark harness still fits the program it measures.

``perfbench/`` wraps module-level names of the package and declares its
metrics in ``BENCHMARK.json``.  A refactor that deletes a wrapped name, or
a metric list that drifts from the declaration, fails here rather than
only when the benchmark runs.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import bench
        import spans
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return bench, spans


def test_benchmark_declaration_matches_the_harness(perfbench):
    bench, _ = perfbench
    bench.check_contract(ROOT)


def test_every_wrapped_name_exists(perfbench):
    _, spans = perfbench
    spans.Tracer()
