"""The benchmark harness still fits the program it measures.

``perfbench/`` wraps module-level names of the package and declares its
metrics in ``BENCHMARK.json``.  A refactor that deletes a wrapped name,
calls a layer around the name the tracer wraps, or lets the metric list
drift from the declaration fails here rather than only when the
benchmark runs.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path

import pytest

from groundling.fixtures import benchmark_manifest, site_spec
from groundling.grammar import parse_text
from groundling.symbols import enumerate_grounding_type_space
from groundling.world import simulate

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


def test_traced_run_records_each_layer_once(perfbench, bundle, registry,
                                            site_logs):
    # The tracer wraps module attributes: ``pipeline.run`` must be looked
    # up through its module while the tracer is installed.
    _, spans = perfbench
    from groundling import pipeline

    case = next(c for c in benchmark_manifest() if "cup" in c.instruction)
    with spans.Tracer() as tracer:
        for mode in pipeline.MODES:
            pipeline.run(case.instruction, site_logs[case.site], bundle,
                         registry, mode=mode, site=case.site)
    self_time = spans._self_times(tracer.spans)
    trees = defaultdict(list)
    for span in tracer.spans:
        trees[span[5]].append(span)
    roots = {tree[0][6]["mode"]: tree for tree in trees.values()}
    assert sorted(roots) == sorted(pipeline.MODES)
    for mode, tree in roots.items():
        root = tree[0]
        assert root[1] == "pipeline.run"
        grounding = [s for s in tree if s[1] == "correspondence.infer"
                     and s[6]["domain"] == "grounding"]
        assert len(grounding) == 1, mode
        resolve = [s for s in tree if s[1] == "correspondence.resolve"]
        assert [s[4] for s in resolve] == [root[0]], mode
        assert sum(self_time[s[0]] for s in tree) == root[3] - root[2]
    kinds = {s[6]["kind"] for s in roots["B"] if s[1] == "world.stage"}
    assert kinds == set(spans.STAGE_KINDS)


def test_traced_run_at_scale_counts_symbols_and_factors(perfbench, bundle,
                                                        registry):
    # perfbench's symbols.space_size and factor_evals.grounding metrics
    # count every symbol of the space, not the rows scoring shares among
    # instances of one signature.
    bench, spans = perfbench
    from groundling import pipeline

    log = simulate(bench.tiled(site_spec("site-1"), 2), registry)
    instruction = "go to the farthest cup in the kitchen"
    with spans.Tracer() as tracer:
        result = pipeline.run(instruction, log, bundle, registry, mode="B",
                              site="site-1")
    assert not result.error
    by_name = defaultdict(list)
    for span in tracer.spans:
        by_name[span[1]].append(span[6])
    [built] = by_name["world.build"]
    [space] = by_name["symbols.space"]
    [grounding] = [a for a in by_name["correspondence.infer"]
                   if a["domain"] == "grounding"]
    type_level = len(enumerate_grounding_type_space(registry))
    assert built["objects"] == result.object_count == 2 * 37
    assert space["size"] == 2 * built["objects"] + type_level
    assert grounding["factor_evals"] == (
        len(parse_text(instruction, registry)) * space["size"])
