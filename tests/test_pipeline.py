"""End-to-end runs, mode dominance, the benchmark report, and its files."""

from __future__ import annotations

import csv
import io
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from test_acceptance import strip_wall_time
from test_world import cups_sharing_an_id

import groundling
from groundling import corpus, correspondence, world
from groundling.errors import GroundlingError, InvalidSpec
from groundling.fixtures import benchmark_manifest, revisited, site_spec, tiled, wide_registry
from groundling.pipeline import (
    CSV_COLUMNS,
    DOMAINS,
    MODES,
    ModelBundle,
    RunResult,
    benchmark,
    run,
    train_bundle,
)
from groundling.symbols import (
    enumerate_grounding_space,
    enumerate_perception_space,
    enumerate_semantic_space,
)
from groundling.world import (
    MERGE_RADIUS,
    ObservationLog,
    build_world_model,
    planar_distance,
    simulate,
)

DATA = Path(__file__).parent / "data"


def by_case_and_mode(report):
    return {(r.instruction, r.site, r.mode): r for r in report.results}


def test_manifest_has_six_unique_cases():
    cases = benchmark_manifest()
    assert len(cases) == 6
    assert len({(c.instruction, c.site) for c in cases}) == 6
    assert {c.site for c in cases} == {"site-1", "site-2"}


def test_report_covers_every_case_and_mode(bench_report):
    seen = {(r.instruction, r.site, r.mode) for r in bench_report.results}
    want = {(c.instruction, c.site, m)
            for c in benchmark_manifest() for m in MODES}
    assert seen == want
    assert len(bench_report.results) == 24


def test_no_run_errors_on_the_manifest(bench_report):
    assert all(r.error == "" for r in bench_report.results)


def test_benchmark_matches_the_golden_files(bench_report, tmp_path):
    # The seed-7 bundle's benchmark CSV, without wall time, and audit
    # JSON, as ``groundling benchmark --out --audit`` wrote them with a
    # bundle that ``groundling train`` fit on the seed-7 corpus.  A change
    # that moves the trained weights' bits must not move the grounded
    # actions, costs or audit.
    assert (strip_wall_time(bench_report.to_csv())
            == (DATA / "seed7_benchmark.csv").read_text())
    bench_report.write_audit(tmp_path / "audit.json")
    assert ((tmp_path / "audit.json").read_text()
            == (DATA / "seed7_audit.json").read_text())


def test_trained_bundle_matches_the_golden_model_files(bundle, tmp_path):
    # The seed-7 bundle's three model files, as ``groundling train`` wrote
    # them with the default seed and split.  The benchmark goldens above
    # would miss a small drift in the weights; these do not.
    bundle.save(tmp_path)
    for name in ("semantic.json", "perception.json", "grounding.json"):
        assert ((tmp_path / name).read_bytes()
                == (DATA / "seed7_models" / name).read_bytes()), name


_LOADED_MODULES = """
import sys
import groundling.cli, groundling.pipeline
print("\\n".join(sorted(sys.modules)))
"""


def test_importing_the_program_loads_no_optimiser_or_graph_module():
    # On Python 3.11.7, importing scipy.optimize raised the peak RSS of a
    # process that imports the program from 58.4 to 77.7 MB, and
    # scipy.sparse.csgraph costs about 7.6 MB more; either one is past the
    # 0.1 bound on perfbench's peak_rss_mb.
    package_root = str(Path(groundling.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", _LOADED_MODULES],
                          check=True, capture_output=True, text=True, env=env)
    loaded = done.stdout.split()
    assert "groundling.correspondence" in loaded
    heavy = ("scipy.optimize", "scipy.sparse.csgraph")
    assert [m for m in loaded if m.startswith(heavy)] == []


def test_cost_dominance_per_case(bench_report):
    rows = by_case_and_mode(bench_report)
    for case in benchmark_manifest():
        cost = {m: rows[(case.instruction, case.site, m)].cost_units
                for m in MODES}
        assert cost["OF_AP"] <= cost["OF"] <= cost["B"]
        assert cost["OF_AP"] <= cost["AP"] <= cost["B"]


def test_object_count_dominance_per_case(bench_report):
    rows = by_case_and_mode(bench_report)
    for case in benchmark_manifest():
        count = {m: rows[(case.instruction, case.site, m)].object_count
                 for m in MODES}
        assert count["OF_AP"] <= count["AP"] <= count["B"]
        assert count["OF"] <= count["B"]


def test_grounding_agrees_across_modes(bench_report):
    rows = by_case_and_mode(bench_report)
    for case in benchmark_manifest():
        groundings = {rows[(case.instruction, case.site, m)].grounding
                      for m in MODES}
        assert len(groundings) == 1


def test_x128_logs_ground_alike_and_scale_every_world_by_128(
        bundle, registry, bench_report, corpus_split):
    # The largest builds in the suite: both sites tiled x128 (7680
    # observations and 4736 objects in B on site-1), with every warning an
    # error.  All four modes ground each manifest case and the first 24
    # held-out instructions alike on site-1, and each mode's world for a
    # manifest case is 128 copies of its world on the 60-waypoint site.
    copies = 128
    x1 = by_case_and_mode(bench_report)
    _, heldout = corpus_split
    cases = [(c.instruction, c.site) for c in benchmark_manifest()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        logs = {site: simulate(tiled(site_spec(site), copies), registry)
                for site in ("site-1", "site-2")}
        for instruction, site in cases + [(e.text, "site-1") for e in heldout[:24]]:
            results = {mode: run(instruction, logs[site], bundle, registry,
                                 mode=mode, site=site) for mode in MODES}
            outcomes = {(r.grounding, r.error.split(":")[0]) for r in results.values()}
            assert len(outcomes) == 1, (instruction, site, outcomes)
            if (instruction, site) in cases:
                assert {m: r.object_count for m, r in results.items()} == {
                    m: copies * x1[(instruction, site, m)].object_count for m in MODES}


def test_x128_revisits_ground_and_build_as_one_pass(bundle, registry, bench_report):
    # Both sites with the trajectory driven 128 times (7680 observations,
    # each object sensed 128 times as often), with every warning an
    # error.  Each manifest case grounds in all four modes as on one pass,
    # and each mode's world keeps its one-pass object count: in B, 37 on
    # site-1 and 36 on site-2.
    x1 = by_case_and_mode(bench_report)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        logs = {site: simulate(revisited(site_spec(site), 128), registry)
                for site in ("site-1", "site-2")}
        for case in benchmark_manifest():
            for mode in MODES:
                result = run(case.instruction, logs[case.site], bundle, registry,
                             mode=mode, site=case.site)
                once = x1[(case.instruction, case.site, mode)]
                assert ((result.grounding, result.error, result.object_count)
                        == (once.grounding, once.error, once.object_count)), (
                    case.instruction, case.site, mode)
    assert {case.site: x1[(case.instruction, case.site, "B")].object_count
            for case in benchmark_manifest()} == {"site-1": 37, "site-2": 36}


def test_a_wider_registry_grows_b_and_leaves_ap_and_of_ap_flat(registry, bench_report):
    # The session-scoped sweep is the x1 registry's: the seed-7 corpus, trained
    # on, and the manifest on the two sites.  With twice the classes and
    # colours, none of them on the sites, B runs more detectors and pays
    # more; AP and OF_AP run and pay the same, object for object, and all
    # four modes still ground each case alike.
    assert wide_registry(1) == registry
    wide = wide_registry(2)
    assert len(wide.object_classes) == 24 and len(wide.colors) == 12
    train_set, _ = corpus.split(corpus.generate(corpus.CorpusConfig(seed=7), wide))
    bundle, _ = train_bundle(train_set, wide)
    logs = {site: simulate(site_spec(site), wide) for site in ("site-1", "site-2")}
    x1 = by_case_and_mode(bench_report)
    x2 = by_case_and_mode(benchmark(benchmark_manifest(), logs, bundle, wide))
    for key, run_x1 in x1.items():
        run_x2 = x2[key]
        if key[2] in ("AP", "OF_AP"):
            assert ((run_x2.cost_units, run_x2.object_count)
                    == (run_x1.cost_units, run_x1.object_count)), key
        elif key[2] == "B":
            assert run_x2.cost_units > run_x1.cost_units, key
    for rows in (x1, x2):
        for case in benchmark_manifest():
            outcomes = {(rows[(case.instruction, case.site, mode)].grounding,
                         rows[(case.instruction, case.site, mode)].error) for mode in MODES}
            assert len(outcomes) == 1 and next(iter(outcomes))[0], (case, outcomes)


def test_csv_shape(bench_report):
    parsed = list(csv.reader(io.StringIO(bench_report.to_csv())))
    assert parsed[0] == list(CSV_COLUMNS)
    assert len(parsed) == 25
    assert all(len(row) == len(CSV_COLUMNS) for row in parsed[1:])


def test_audit_file_contents(bench_report, tmp_path):
    path = tmp_path / "audit.json"
    bench_report.write_audit(path)
    rows = json.loads(path.read_text())
    assert len(rows) == 24
    for row in rows:
        assert row["mode"] in MODES
        if row["mode"] in ("OF", "OF_AP"):
            assert row["kept_observations"] + row["dropped_observations"] == 60
        else:
            assert row["kept_observations"] is None
        if row["mode"] in ("AP", "OF_AP"):
            assert row["selected_classifiers"]
        assert row["cost_ledger"] is not None


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("instruction, site", [
    ("go to the nearest keyboard in the hallway", "site-1"),
    # AP and OF_AP build an empty world here: site-2 has no couch.
    ("go to the nearest couch", "site-2"),
])
def test_run_reports_missing_target(bundle, registry, site_logs, mode,
                                    instruction, site):
    result = run(instruction, site_logs[site], bundle, registry, mode=mode,
                 site=site)
    assert result.grounding == ""
    assert result.error.startswith("NoTargetObject")


def test_noisy_colour_grounds_alike_in_every_mode(bundle, registry):
    # With noise some frames of site-1's red chair at (34.5, 1.0) read
    # green; AP, which runs only the green detector, must not call it green.
    observations = simulate(replace(site_spec("site-1"), noise=0.2), registry)
    outcomes = {(r.grounding, r.error.split(":")[0]) for r in (
        run("drive to the nearest green chair", observations, bundle, registry,
            mode=mode, site="site-1") for mode in MODES)}
    assert len(outcomes) == 1, outcomes


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_run_on_noisy_cluttered_sites_returns_a_result(bundle, registry,
                                                       corpus_split, data):
    # Crash-freedom and cost bookkeeping only: whether the modes still
    # agree under noise is a separate question.
    _, heldout = corpus_split
    instruction = data.draw(st.sampled_from([e.text for e in heldout]))
    site = data.draw(st.sampled_from(["site-1", "site-2"]))
    spec = replace(site_spec(site), noise=data.draw(st.floats(0.0, 0.3)),
                   clutter_rate=data.draw(st.floats(0.0, 0.5)),
                   seed=data.draw(st.integers(0, 2**32 - 1)))
    observations = simulate(spec, registry)
    result = run(instruction, observations, bundle, registry,
                 mode=data.draw(st.sampled_from(MODES)), site=site)
    assert isinstance(result, RunResult)
    assert result.object_count == len(result.world.objects)
    assert result.cost_units == (
        registry.scene_cost_per_observation * len(observations)
        + result.world.total_cost)


def test_a_run_makes_no_object_but_its_target(bundle, registry, monkeypatch):
    # The world model keeps its objects as columns: a B run on an x8 tile
    # of site-1 makes one DetectedObject, the target, and the objects
    # themselves only when something reads them.
    observations = simulate(tiled(site_spec("site-1"), 8), registry)
    made = []
    detected_object = world.DetectedObject

    def spy(*args, **fields):
        made.append(detected_object(*args, **fields))
        return made[-1]

    monkeypatch.setattr(world, "DetectedObject", spy)
    result = run("go to the farthest cup in the kitchen", observations, bundle,
                 registry, mode="B", site="site-1")
    assert result.error == ""
    assert made == [result.target]
    assert result.object_count == len(result.world.objects) == 296
    assert result.target in result.world.objects
    assert len(made) == 1 + 296


def test_no_observation_is_made_to_simulate_load_or_run(bundle, registry, tmp_path,
                                                        monkeypatch):
    # A log is its columns: simulating, loading and every mode's run on
    # either log make no Observation and no RawDetection, and reading
    # the log makes them.
    spec = replace(tiled(site_spec("site-1"), 2), noise=0.2, clutter_rate=0.3)
    path = tmp_path / "log.jsonl"
    world.save_observations(simulate(spec, registry), path)
    made = []

    def counted(cls):
        init = cls.__init__

        def spy(self, *args, **fields):
            made.append(cls.__name__)
            init(self, *args, **fields)
        return spy

    for cls in (world.Observation, world.RawDetection):
        monkeypatch.setattr(cls, "__init__", counted(cls))
    logs = (simulate(spec, registry), world.load_observations(path))
    for log in logs:
        for instruction in ("go to the farthest cup in the kitchen", "go to the nearest ball"):
            for mode in MODES:
                run(instruction, log, bundle, registry, mode=mode, site="site-1")
    assert made == []
    assert next(iter(logs[1])).sensed
    assert set(made) == {"Observation", "RawDetection"}


@pytest.mark.parametrize("mode", MODES)
def test_run_hands_the_build_the_log_or_a_view_of_it(bundle, registry,
                                                     site_logs, mode,
                                                     monkeypatch):
    built = []

    def spy(observations, *args, **kwargs):
        built.append(observations)
        return build_world_model(observations, *args, **kwargs)

    monkeypatch.setattr("groundling.pipeline.build_world_model", spy)
    log = site_logs["site-1"]
    result = run("go to the farthest cup in the kitchen", log, bundle,
                 registry, mode=mode)
    (observations,) = built
    if mode in ("B", "AP"):
        assert observations is log
    else:
        assert observations is result.filter_decision.kept
        assert observations.rel is log.rel
        assert len(observations) == 30


def test_a_shuffled_log_grounds_like_the_ordered_log(bundle, registry, site_logs):
    # The log's columns are in t order, so its world model does not depend
    # on the order given, and the robot stands where the latest
    # observation puts it, not the last one given.
    shuffled, last = {}, {}
    for site, log in site_logs.items():
        observations = list(log)
        last[site] = observations[-1].robot_pose
        np.random.default_rng(3).shuffle(observations)
        assert observations[-1].robot_pose != last[site]
        shuffled[site] = ObservationLog.of(observations)
    for case in benchmark_manifest():
        for mode in MODES:
            result = run(case.instruction, shuffled[case.site], bundle, registry,
                         mode=mode, site=case.site)
            in_order = run(case.instruction, site_logs[case.site], bundle,
                           registry, mode=mode, site=case.site)
            assert result.world.robot_pose == last[case.site]
            assert result.row()[:4] + result.row()[5:] == (
                in_order.row()[:4] + in_order.row()[5:])
            assert result.target == in_order.target
            assert result.world == in_order.world


def test_a_run_names_only_its_target_and_the_candidates_tied_with_it(
        bundle, registry, monkeypatch):
    # A B run on an x8 tile of site-1 makes the id of its target, and of
    # the candidates at the target's distance, and no other: neither the
    # grounding space nor the resolution names the world's objects.
    observations = simulate(tiled(site_spec("site-1"), 8), registry)
    named = []
    make_id = world.WorldModel.id

    def spy(built, i):
        named.append(i)
        return make_id(built, i)

    monkeypatch.setattr(world.WorldModel, "id", spy)
    for case in benchmark_manifest():
        if case.site != "site-1":
            continue
        named.clear()
        result = run(case.instruction, observations, bundle, registry, mode="B")
        assert result.error == ""
        built = result.world
        assert "named" not in built.__dict__
        assert "_symbols" not in result.assignment.space.__dict__
        robot = built.robot_pose
        reach = planar_distance(result.target.pose, robot)
        assert result.target.id in [make_id(built, i) for i in named]
        assert all(planar_distance(built.pose[:2, i].tolist(), robot) == reach
                   for i in named)


@pytest.mark.parametrize("mode", MODES)
def test_a_run_lays_out_no_grounding_rows(bundle, registry, site_logs, mode):
    # Grounding reads the world space's entries and counts only: a run
    # makes none of its row keys, rows of symbols, symbol list or
    # positions, and the root constraints are read from the layout.
    lazy = {"row_keys", "row_of", "_symbols", "position"}
    for case in benchmark_manifest():
        result = run(case.instruction, site_logs[case.site], bundle, registry, mode=mode)
        space = result.assignment.space
        assert space.domain == "grounding"
        assert len(space) >= space.rows > len(space.layout.constraints)
        assert not lazy & space.__dict__.keys()
        assert result.assignment.root_constraints()
        assert not lazy & space.__dict__.keys()


# Python and C-builtin calls of one run of each manifest case, counted by
# a ``sys.setprofile`` hook after a run of the same case has filled every
# per-registry, per-layout and per-model table.  Counted under Python
# 3.11 and numpy 2.4.6, the versions CI pins; a run may take up to
# _CALL_SLACK times as many.
_CALLS = {
    "go to the farthest umbrella in the hallway": {"B": 525, "AP": 440},
    "navigate to the nearest suitcase in the parking lot": {"B": 525, "AP": 440},
    "go to the farthest cup in the kitchen": {"B": 546, "AP": 461},
    "go to the nearest keyboard in the office": {"B": 531, "AP": 446},
    "go to the nearest ball in the hallway": {"B": 512, "AP": 427},
    "go to the farthest ball in the lab": {"B": 540, "AP": 455},
}
_CALL_SLACK = 1.05


def count_calls(call) -> int:
    """The Python and C-builtin calls ``call()`` makes."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return count


@pytest.mark.skipif(sys.version_info[:2] != (3, 11) or np.__version__ != "2.4.6",
                    reason="the call counts are those of Python 3.11 and numpy 2.4.6")
def test_a_run_stays_within_its_call_budget(registry, site_logs):
    # A count, not a time: bookkeeping that creeps back into a B or an AP
    # run shows here, whatever the machine.
    bundle = ModelBundle.load(DATA / "seed7_models")
    counts = {}
    for case in benchmark_manifest():
        for mode in ("B", "AP"):
            def call():
                run(case.instruction, site_logs[case.site], bundle, registry, mode=mode)
            call()
            counts[case.instruction, mode] = count_calls(call)
    over = [key for key, n in counts.items() if n > _CALLS[key[0]][key[1]] * _CALL_SLACK]
    assert not over, "calls per run, over budget: " + ", ".join(map(str, over)) + "\n" + (
        "\n".join(f"{mode} {instruction!r}: {n} (counted {_CALLS[instruction][mode]})"
                  for (instruction, mode), n in counts.items()))


@pytest.mark.parametrize("mode", MODES)
def test_run_grounds_among_objects_that_share_an_id(bundle, registry, mode):
    # Two cups whose centroids round to one id used to put a duplicate
    # symbol in the grounding space, and run raised InvalidSpec.
    result = run("go to the nearest cup", ObservationLog.of(cups_sharing_an_id()), bundle,
                 registry, mode=mode)
    assert isinstance(result, RunResult)
    assert result.object_count == 2


def outcome(result):
    return result.grounding, result.error.split(":")[0]


def relabelled_by_filtering(b, of):
    """Whether OF's target lies in another region in B's world.

    The same-class object of B's world nearest OF's target, if it is
    within the merge radius, is the same physical object seen from more
    observations; its majority scene label can differ from the one the
    filtered observations give.
    """
    target = of.target
    if target is None:
        return False
    twin = min((o for o in b.world.objects if o.cls == target.cls),
               key=lambda o: planar_distance(o.pose, target.pose), default=None)
    return (twin is not None
            and planar_distance(twin.pose, target.pose) <= MERGE_RADIUS
            and twin.region != target.region)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_classifier_selection_never_changes_the_outcome_under_noise(
        bundle, registry, corpus_split, data):
    # Observation filtering can change the outcome on a noisy site; the two
    # tests below pin the two ways seen so far.
    _, heldout = corpus_split
    instruction = data.draw(st.sampled_from([e.text for e in heldout]))
    site = data.draw(st.sampled_from(["site-1", "site-2"]))
    spec = replace(site_spec(site), noise=data.draw(st.floats(0.0, 0.3)),
                   clutter_rate=data.draw(st.floats(0.0, 0.5)),
                   seed=data.draw(st.integers(0, 2**32 - 1)))
    observations = simulate(spec, registry)
    runs = {mode: run(instruction, observations, bundle, registry, mode=mode,
                      site=site) for mode in MODES}
    assert outcome(runs["B"]) == outcome(runs["AP"])
    assert outcome(runs["OF"]) == outcome(runs["OF_AP"])


def test_filtering_can_relabel_the_target_on_a_noisy_site(bundle, registry):
    # Observation 38 of this log is mislabelled laboratory.  OF keeps only
    # the laboratory frames, so the microwave at (35.4, -1.0) is seen once,
    # from frame 38, and lies in the laboratory; B sees it from five frames
    # and puts it in the kitchen, then grounds to another microwave.
    spec = replace(site_spec("site-1"), noise=0.22, clutter_rate=0.08,
                   seed=94434337)
    observations = simulate(spec, registry)
    assert list(observations)[38].scene_label == "laboratory"
    runs = {mode: run("navigate to the nearest microwave in the laboratory",
                      observations, bundle, registry, mode=mode,
                      site="site-1") for mode in MODES}
    for mode in ("B", "AP"):
        assert runs[mode].grounding == "action[navigate_to:microwave@21.2,-1.1]"
    for mode in ("OF", "OF_AP"):
        assert runs[mode].grounding == "action[navigate_to:microwave@35.4,-1.0]"
        assert runs[mode].target.region == "laboratory"
        assert runs[mode].target.provenance == {38}
    twin = next(o for o in runs["B"].world.objects
                if o.id == "microwave@35.4,-1.0")
    assert twin.region == "kitchen"
    assert len(twin.provenance) == 5
    assert relabelled_by_filtering(runs["B"], runs["OF"])


def test_filtering_can_recolour_the_target_on_a_noisy_site(bundle, registry):
    # The white person at (19.0, -1.3) reads red, white, blue and white in
    # frames 16, 18, 19 and 21.  Frame 18 is mislabelled parking_lot and OF
    # drops it; the colour vote of the other three ties, and the
    # lexicographic tie-break makes the person blue.  B's vote is white, so
    # B finds no blue person.  The region agrees in both worlds, so this is
    # not the relabelling above.
    spec = replace(site_spec("site-1"), noise=0.25, clutter_rate=0.25,
                   seed=3140)
    observations = simulate(spec, registry)
    assert list(observations)[18].scene_label == "parking_lot"
    runs = {mode: run("walk to the closest blue person in the kitchen",
                      observations, bundle, registry, mode=mode,
                      site="site-1") for mode in MODES}
    for mode in ("B", "AP"):
        assert outcome(runs[mode]) == ("", "NoTargetObject")
    for mode in ("OF", "OF_AP"):
        assert runs[mode].grounding == "action[navigate_to:person@19.0,-1.3]"
        assert runs[mode].target.color == "blue"
        assert runs[mode].target.provenance == {16, 19, 21}
    twin = next(o for o in runs["B"].world.objects
                if o.id == "person@19.0,-1.3")
    assert (twin.color, twin.region) == ("white", "kitchen")
    assert twin.provenance == {16, 18, 19, 21}
    assert not relabelled_by_filtering(runs["B"], runs["OF"])


def test_assignment_trues_are_the_thresholded_probabilities(bench_report,
                                                            registry):
    for r in bench_report.results:
        spaces = (enumerate_semantic_space(),
                  enumerate_perception_space(registry),
                  enumerate_grounding_space(r.world, registry))
        assignments = (r.filter_decision and r.filter_decision.assignment,
                       r.selection and r.selection.assignment,
                       r.assignment)
        for assignment, space in zip(assignments, spaces):
            if assignment is None:
                continue
            symbols = tuple(space)
            probabilities = expit(assignment.logits[:, space.row_of])
            assert len(assignment.trues) == len(probabilities)
            for trues, p in zip(assignment.trues, probabilities):
                assert trues == {symbols[j] for j in np.flatnonzero(p > 0.5)}


def test_no_run_makes_a_probability(bundle, registry, site_logs, monkeypatch):
    # A run decides by its row logits alone: with expit made to fail,
    # every mode still grounds the cup case.
    def refused(*args, **kwargs):
        raise AssertionError("a run called expit")

    monkeypatch.setattr(correspondence, "expit", refused)
    results = [run("go to the farthest cup in the kitchen", site_logs["site-1"], bundle,
                   registry, mode=mode, site="site-1") for mode in MODES]
    assert len({r.grounding for r in results}) == 1 and results[0].grounding


def test_run_reports_out_of_grammar(bundle, registry, site_logs):
    result = run("fetch me a sandwich", site_logs["site-1"], bundle,
                 registry, mode="B", site="site-1")
    assert result.error.startswith("OutOfGrammar")
    assert result.object_count == 0


def test_run_rejects_unknown_mode(bundle, registry, site_logs):
    with pytest.raises(ValueError):
        run("go to the nearest ball", site_logs["site-1"], bundle, registry,
            mode="FAST")


def test_benchmark_rejects_a_case_without_its_site(bundle, registry, site_logs):
    with pytest.raises(GroundlingError, match="no observations for site 'site-2'") as excinfo:
        benchmark(benchmark_manifest(), {"site-1": site_logs["site-1"]}, bundle, registry)
    assert type(excinfo.value) is GroundlingError


def test_scene_cost_is_charged_in_every_mode(bench_report, registry):
    scene_cost = registry.scene_cost_per_observation * 60
    for r in bench_report.results:
        assert r.cost_units >= scene_cost
        assert r.cost_units == pytest.approx(
            scene_cost + r.world.total_cost)


def test_training_converges_in_every_domain(train_results):
    assert set(train_results) == {"semantic", "perception", "grounding"}
    for domain, result in train_results.items():
        assert result.converged, (domain, result.iterations, result.grad_norm)


def test_bundle_round_trip(bundle, tmp_path):
    bundle.save(tmp_path / "models")
    loaded = ModelBundle.load(tmp_path / "models")
    for domain in DOMAINS:
        original = getattr(bundle, domain)
        restored = getattr(loaded, domain)
        assert restored.domain == original.domain
        assert dict(restored.weights) == dict(original.weights)


@pytest.mark.parametrize("domain", DOMAINS)
def test_a_model_file_of_another_domain_is_rejected(domain, bundle, tmp_path):
    # A semantic.json holding the grounding model grounded under B with
    # exit 0, and failed under OF with an error that named no file.
    bundle.save(tmp_path)
    other = DOMAINS[(DOMAINS.index(domain) + 1) % len(DOMAINS)]
    path = tmp_path / f"{domain}.json"
    path.write_bytes((tmp_path / f"{other}.json").read_bytes())
    with pytest.raises(InvalidSpec, match=re.escape(f"{path}: domain {other!r}")):
        ModelBundle.load(tmp_path)


def test_benchmark_command_matches_the_sweep(bench_report, bundle, tmp_path):
    # ``groundling benchmark --models --out --audit`` on a saved bundle
    # writes the sweep's CSV, wall time aside, and audit.
    bundle.save(tmp_path / "models")
    csv_path, audit_path = tmp_path / "bench.csv", tmp_path / "audit.json"
    package_root = str(Path(groundling.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    subprocess.run([sys.executable, "-m", "groundling", "benchmark",
                    "--models", str(tmp_path / "models"),
                    "--out", str(csv_path), "--audit", str(audit_path)],
                   check=True, capture_output=True, env=env)
    assert (strip_wall_time(csv_path.read_text())
            == strip_wall_time(bench_report.to_csv()))
    bench_report.write_audit(tmp_path / "expected.json")
    assert audit_path.read_bytes() == (tmp_path / "expected.json").read_bytes()
