"""Acceptance gates for the whole system, one PASS/FAIL line per criterion.

Each test prints exactly one verdict line (bypassing capture so it shows
in any pytest run) and then asserts it.  The gates cover: exact agreement
between fast inference and the exhaustive reference on random instances;
the training gradient against finite differences; training convergence
with held-out generalization; world-model size and build-cost structure
across the four build modes on the two benchmark sites; grounding
equivalence across modes; monotonicity of world-model construction under
input subsets; and byte-level determinism of the benchmark report.
"""

from __future__ import annotations

import csv
import io
import time

import numpy as np
import pytest

from oracles import infer_exhaustive
from test_correspondence import random_instance

from groundling import corpus as corpus_mod
from groundling.correspondence import (
    assemble_design,
    infer,
    objective_and_gradient,
)
from groundling.fixtures import benchmark_manifest, site_spec
from groundling.pipeline import MODES, benchmark, train_bundle
from groundling.symbols import enumerate_semantic_space
from groundling.world import build_world_model, simulate

CUP_INSTRUCTION = "go to the farthest cup in the kitchen"
BALL_INSTRUCTION = "go to the nearest ball in the hallway"


@pytest.fixture
def verdict(capsys):
    def emit(number: int, ok: bool, detail: str) -> None:
        line = f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}"
        with capsys.disabled():
            print(line)
        assert ok, line
    return emit


def rows_by_mode(report, instruction: str):
    return {r.mode: r for r in report.results if r.instruction == instruction}


def test_criterion_1_oracle_equivalence(registry, verdict):
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    trials, agreed = 200, 0
    for _ in range(trials):
        model, tree, space = random_instance(rng, registry, pair_limit=16)
        fast = infer(model, tree, space)
        slow = infer_exhaustive(model, tree, space)
        agreed += fast.true_sets() == slow.true_sets()
    elapsed = time.perf_counter() - started
    ok = agreed == trials and elapsed < 10.0
    verdict(1, ok, f"exhaustive-search agreement {agreed}/{trials}"
                   f" in {elapsed:.2f}s (budget 10s)")


def test_criterion_2_gradient_check(corpus_examples, registry, verdict):
    started = time.perf_counter()
    space = enumerate_semantic_space()
    examples = []
    from groundling.grammar import parse_text
    for example in corpus_examples[:40]:
        tree = parse_text(example.text, registry)
        examples.append(corpus_mod.TrainingExample(
            tree=tree,
            gold=corpus_mod.gold_annotations(example, tree, "semantic")))
    design, labels, counts, _ = assemble_design(space, examples)
    rng = np.random.default_rng(1002)
    h, probes, worst = 1e-5, 100, 0.0
    for _ in range(probes):
        w = rng.normal(scale=0.5, size=design.shape[1])
        d = rng.normal(size=design.shape[1])
        d /= np.linalg.norm(d)
        _, grad = objective_and_gradient(design, labels, w, 1e-4, counts)
        analytic = float(grad @ d)
        up, _ = objective_and_gradient(design, labels, w + h * d, 1e-4, counts)
        down, _ = objective_and_gradient(design, labels, w - h * d, 1e-4, counts)
        numeric = (up - down) / (2.0 * h)
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-5 and elapsed < 5.0
    verdict(2, ok, f"worst relative error {worst:.2e} over {probes} probes"
                   f" in {elapsed:.2f}s (budgets 1e-5, 5s)")


def test_criterion_3_training_convergence(training_run, corpus_split, registry,
                                          reference, verdict):
    bundle, train_seconds = training_run
    started = time.perf_counter()
    train_set, held_out = corpus_split
    reports = {
        name: corpus_mod.evaluate(bundle.semantic, bundle.perception,
                                  bundle.grounding, examples, registry,
                                  reference)
        for name, examples in (("train", train_set), ("held-out", held_out))
    }
    elapsed = train_seconds + (time.perf_counter() - started)
    train_rates = (reports["train"].semantic_exact,
                   reports["train"].perception_exact,
                   reports["train"].action_exact)
    held_rates = (reports["held-out"].semantic_exact,
                  reports["held-out"].perception_exact,
                  reports["held-out"].action_exact)
    ok = (all(rate == 1.0 for rate in train_rates)
          and all(rate >= 0.95 for rate in held_rates)
          and elapsed < 60.0)
    verdict(3, ok, f"train exact {train_rates}, held-out exact {held_rates}"
                   f" in {elapsed:.1f}s (budgets 1.0 / >=0.95 / 60s)")


def test_criterion_4_world_model_size_structure(bench, verdict):
    report, bench_seconds = bench
    site_total = {"site-1": 37, "site-2": 36}
    ordered = 0
    for case in benchmark_manifest():
        counts = {r.mode: r.object_count for r in report.results
                  if (r.instruction, r.site) == (case.instruction, case.site)}
        ordered += (counts["OF_AP"] <= counts["AP"] <= counts["B"]
                    and counts["OF"] <= counts["B"]
                    and counts["B"] == site_total[case.site])
    cup = rows_by_mode(report, CUP_INSTRUCTION)
    cup_triple = (cup["B"].object_count, cup["AP"].object_count,
                  cup["OF_AP"].object_count)
    ok = ordered == 6 and cup_triple == (37, 11, 9) and bench_seconds < 30.0
    verdict(4, ok, f"count order holds on {ordered}/6 cases, cup row"
                   f" (B, AP, OF_AP) = {cup_triple} (want (37, 11, 9)),"
                   f" sweep {bench_seconds:.2f}s (budget 30s)")


def test_criterion_5_build_cost_structure(bench, verdict):
    report, bench_seconds = bench
    ordered = 0
    for case in benchmark_manifest():
        cost = {r.mode: r.cost_units for r in report.results
                if (r.instruction, r.site) == (case.instruction, case.site)}
        ordered += cost["OF_AP"] <= min(cost["OF"], cost["AP"]) <= cost["B"]
    ball = rows_by_mode(report, BALL_INSTRUCTION)
    ratio = ball["OF_AP"].cost_units / ball["B"].cost_units
    ok = ordered == 6 and ratio <= 0.25 and bench_seconds < 30.0
    verdict(5, ok, f"cost order holds on {ordered}/6 cases, ball-in-hallway"
                   f" OF_AP/B = {ratio:.3f} (budget 0.25),"
                   f" sweep {bench_seconds:.2f}s (budget 30s)")


def test_criterion_6_grounding_equivalence(bench_report, verdict):
    agreed = 0
    for case in benchmark_manifest():
        rows = [r for r in bench_report.results
                if (r.instruction, r.site) == (case.instruction, case.site)]
        groundings = {r.grounding for r in rows}
        errors = {r.error for r in rows}
        if len(groundings) == 1 and groundings != {""} and errors == {""}:
            agreed += 1
    ok = agreed == 6
    verdict(6, ok, f"identical non-empty grounding across {MODES} on"
                   f" {agreed}/6 instructions")


def test_criterion_7_build_monotonicity(registry, site_logs, verdict):
    started = time.perf_counter()
    rng = np.random.default_rng(1007)
    classifiers = sorted(registry.classifiers(), key=lambda s: s.canon)
    failures = 0
    trials_per_site = 100
    for site, observations in sorted(site_logs.items()):
        full = build_world_model(observations, frozenset(classifiers),
                                 registry)
        for _ in range(trials_per_site):
            obs_mask = rng.random(len(observations)) < rng.random()
            cls_mask = rng.random(len(classifiers)) < rng.random()
            subset_obs = tuple(o for o, m in zip(observations, obs_mask) if m)
            subset_cls = frozenset(
                c for c, m in zip(classifiers, cls_mask) if m)
            small = build_world_model(subset_obs, subset_cls, registry)
            if not (small.object_ids() <= full.object_ids()
                    and len(small.objects) <= len(full.objects)
                    and small.total_cost <= full.total_cost + 1e-9):
                failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 20.0
    verdict(7, ok, f"object-subset and cost relations held on"
                   f" {2 * trials_per_site - failures}/{2 * trials_per_site}"
                   f" random subset pairs in {elapsed:.2f}s (budget 20s)")


def strip_wall_time(report_csv: str) -> str:
    rows = list(csv.reader(io.StringIO(report_csv)))
    drop = rows[0].index("wall_time_s")
    kept = [row[:drop] + row[drop + 1:] for row in rows]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(kept)
    return out.getvalue()


def test_criterion_8_determinism(bench_report, registry, tmp_path, verdict):
    examples = corpus_mod.generate(corpus_mod.CorpusConfig(seed=7), registry)
    train_set, _ = corpus_mod.split(examples)
    bundle, _ = train_bundle(train_set, registry)
    sites = {site: simulate(site_spec(site), registry)
             for site in ("site-1", "site-2")}
    rerun = benchmark(benchmark_manifest(), sites, bundle, registry)

    csv_match = (strip_wall_time(bench_report.to_csv())
                 == strip_wall_time(rerun.to_csv()))
    first_audit = tmp_path / "first.json"
    second_audit = tmp_path / "second.json"
    bench_report.write_audit(first_audit)
    rerun.write_audit(second_audit)
    audit_match = first_audit.read_bytes() == second_audit.read_bytes()
    ok = csv_match and audit_match
    verdict(8, ok, "fresh end-to-end rerun reproduced the report byte for"
                   f" byte (csv match: {csv_match}, audit match: {audit_match},"
                   " wall-time column excluded)")
