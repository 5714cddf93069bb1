"""Simulator, scene classifier, and world-model construction."""

from __future__ import annotations

import math
import random
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groundling import world
from groundling.adapt import filter_by_labels
from groundling.errors import InvalidSpec, UnknownClassifier
from groundling.fixtures import (
    CHARACTERISTIC_CLASSES,
    COOCCURRENCE_ROWS,
    default_cooccurrence,
    revisited,
    site1_spec,
    site_spec,
    tiled,
    wide_registry,
)
from groundling.symbols import (
    SCENE_LABELS,
    PerceptionSymbol,
    default_registry,
    load_registry,
    save_registry,
)
from groundling.world import (
    MERGE_RADIUS,
    SENSING_RANGE,
    CooccurrenceModel,
    DetectedObject,
    LatentObject,
    Observation,
    ObservationLog,
    RawDetection,
    WorldModel,
    WorldSpec,
    _link,
    build_world_model,
    load_observations,
    planar_distance,
    run_classifier,
    save_observations,
    simulate,
)
import oracles


def full_classifiers(registry):
    return frozenset(registry.classifiers())


# --- simulation -----------------------------------------------------------

def test_simulation_is_deterministic(registry):
    spec = site1_spec()
    assert tuple(simulate(spec, registry)) == tuple(simulate(spec, registry))


def test_sensed_objects_are_within_range(registry):
    spec = site1_spec()
    by_id = {o.id: o for o in spec.objects}
    for obs in simulate(spec, registry):
        for raw in obs.sensed:
            if raw.noisy:
                continue
            latent = by_id[raw.latent_id]
            assert planar_distance(obs.robot_pose, latent.pose) <= SENSING_RANGE + 1e-9


def _spelled(observations):
    """Every field of every observation, each float as ``float.hex``."""
    def floats(values):
        return tuple(float(v).hex() for v in values)
    return [(o.t, floats(o.robot_pose), o.scene_label,
             [(label, float(score).hex()) for label, score in o.scene_scores],
             [(r.latent_id, floats(r.rel), r.apparent_class, r.apparent_color, r.noisy)
              for r in o.sensed])
            for o in observations]


@pytest.mark.parametrize("copies", [1, 8])
@pytest.mark.parametrize("site", ["site-1", "site-2"])
def test_simulate_writes_the_bytes_of_testing_every_object(registry, site, copies,
                                                           tmp_path):
    # The windowed range test senses what testing every object from every
    # waypoint senses, with the same draws: exact, noisy, cluttered, both.
    spec = tiled(site_spec(site), copies)
    for noise, clutter in ((0.0, 0.0), (0.2, 0.0), (0.0, 0.3), (0.2, 0.3)):
        rough = replace(spec, noise=noise, clutter_rate=clutter)
        save_observations(simulate(rough, registry), tmp_path / "log.jsonl")
        save_observations(oracles.simulate(rough, registry), tmp_path / "oracle.jsonl")
        assert ((tmp_path / "log.jsonl").read_bytes()
                == (tmp_path / "oracle.jsonl").read_bytes())


# Offsets from a waypoint on and around the sensing range and the window's
# edge, and anywhere near them.
_OFFSETS = st.one_of(
    st.sampled_from((0.0, SENSING_RANGE, -SENSING_RANGE, 4.5, -4.5,
                     math.nextafter(SENSING_RANGE, math.inf),
                     math.nextafter(4.5, 0.0), math.nextafter(-4.5, 0.0))),
    st.floats(-6.0, 6.0))


@settings(max_examples=100, deadline=None)
@given(waypoints=st.lists(st.tuples(
           st.one_of(st.floats(-1e3, 1e3), st.sampled_from((2.0**53, -1e17))),
           st.floats(-5.0, 5.0), st.floats(-4.0, 4.0)), min_size=1, max_size=6),
       placed=st.lists(st.tuples(st.integers(0, 5), _OFFSETS, _OFFSETS), max_size=12),
       noise=st.sampled_from((0.0, 0.5)), clutter=st.sampled_from((0.0, 0.5)))
def test_windowed_range_test_senses_what_testing_every_object_senses(
        registry, waypoints, placed, noise, clutter):
    objects = tuple(
        LatentObject(f"cup-{k}", "cup", "red",
                     (waypoints[i % len(waypoints)][0] + dx,
                      waypoints[i % len(waypoints)][1] + dy, 0.0), "kitchen")
        for k, (i, dx, dy) in enumerate(placed))
    spec = WorldSpec(name="window", seed=3, objects=objects, trajectory=tuple(waypoints),
                     cooccurrence=default_cooccurrence(), noise=noise,
                     clutter_rate=clutter)
    assert _spelled(simulate(spec, registry)) == _spelled(oracles.simulate(spec, registry))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_spec_with_a_non_finite_position_is_rejected(bad):
    spec = site1_spec()
    with pytest.raises(InvalidSpec, match="must be finite"):
        replace(spec, trajectory=spec.trajectory + ((bad, 0.0, 0.0),))
    stray = replace(spec.objects[0], pose=(0.0, bad, 0.0))
    with pytest.raises(InvalidSpec, match="must be finite"):
        replace(spec, objects=(stray, *spec.objects[1:]))


@pytest.mark.parametrize("make, error, message", [
    pytest.param(lambda spec, log, registry: replace(spec, objects=spec.objects * 2),
                 InvalidSpec, "duplicate latent object id", id="duplicate-id"),
    pytest.param(lambda spec, log, registry: replace(spec, noise=-0.1),
                 InvalidSpec, "noise must be in", id="noise-below-0"),
    pytest.param(lambda spec, log, registry: replace(spec, noise=1.5),
                 InvalidSpec, "noise must be in", id="noise-above-1"),
    pytest.param(lambda spec, log, registry: replace(spec, clutter_rate=-0.1),
                 InvalidSpec, "clutter rate must be in", id="clutter-below-0"),
    pytest.param(lambda spec, log, registry: replace(spec, clutter_rate=1.5),
                 InvalidSpec, "clutter rate must be in", id="clutter-above-1"),
    pytest.param(lambda spec, log, registry: replace(spec, objects=(
                     replace(spec.objects[0], region="bathroom"), *spec.objects[1:])),
                 InvalidSpec, "unknown region 'bathroom'", id="unknown-region"),
    pytest.param(lambda spec, log, registry: build_world_model(
                     log, {PerceptionSymbol("object_detector", "dragon")}, registry),
                 UnknownClassifier, "dragon", id="unknown-classifier"),
])
def test_specs_and_builds_reject_what_they_cannot_run(make, error, message,
                                                      registry, site_logs):
    with pytest.raises(error, match=message) as excinfo:
        make(site1_spec(), site_logs["site-1"], registry)
    assert type(excinfo.value) is error


def test_scene_label_maximizes_stored_scores(site_logs):
    for observations in site_logs.values():
        for obs in observations:
            scores = dict(obs.scene_scores)
            top = max(scores.values())
            winners = sorted(l for l, v in scores.items() if v == top)
            assert obs.scene_label == winners[0]


def test_site_fixture_zone_runs(site_logs):
    def runs(observations):
        out = []
        for obs in observations:
            if not out or out[-1][0] != obs.scene_label:
                out.append([obs.scene_label, 0])
            out[-1][1] += 1
        return [tuple(r) for r in out]

    assert runs(site_logs["site-1"]) == [
        ("hallway", 10), ("kitchen", 30), ("office", 10), ("lounge", 10)]
    assert runs(site_logs["site-2"]) == [
        ("parking_lot", 12), ("office", 30), ("laboratory", 18)]


# --- co-occurrence model ---------------------------------------------------

def test_cooccurrence_rows_are_distributions():
    # The fixture's rows are distributions over the characteristic
    # classes, and so are their smoothed rows: the model's terms.
    model = default_cooccurrence()
    assert [label for label, _, _ in model.terms] == sorted(COOCCURRENCE_ROWS)
    for (label, row), (_, _, log_prob) in zip(sorted(COOCCURRENCE_ROWS.items()),
                                              model.terms):
        assert set(row) == model.characteristic == set(log_prob)
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(v >= 0 for v in row.values())
        assert math.fsum(map(math.exp, log_prob.values())) == pytest.approx(1.0, abs=1e-12)


def test_cooccurrence_rejects_unnormalizable_rows():
    with pytest.raises(InvalidSpec):
        CooccurrenceModel.from_dict(
            {"hallway": {"ball": -0.5, "cup": 1.5}}, characteristic=["ball"])
    with pytest.raises(InvalidSpec):
        CooccurrenceModel.from_dict(
            {"hallway": {"ball": 0.0}}, characteristic=["ball"])
    # No row leaves no label to pick, and no prior to spread over labels.
    with pytest.raises(InvalidSpec):
        CooccurrenceModel.from_dict({}, characteristic=["ball"])


@pytest.mark.parametrize("rows", [
    {"hallway": {"ball": 1.0}, "bathroom": {"cup": 1.0}},
], ids=["row"])
def test_cooccurrence_rejects_labels_outside_the_taxonomy(rows):
    # ``simulate`` labels frames with the table's scene labels, and an
    # object's region is its frames' label: one outside the taxonomy is a
    # region no instruction can name and no grounding space can hold.
    with pytest.raises(InvalidSpec):
        CooccurrenceModel.from_dict(rows, characteristic=["ball", "cup"])


@pytest.mark.parametrize("rows", [
    {"hallway": {"ball": math.nan, "cup": 1.0}},
    {"hallway": {"ball": math.inf, "cup": 1.0}},
    {"hallway": {"ball": 1e308, "cup": 1e308}},
], ids=["nan-entry", "inf-entry", "overflowing-row-sum"])
def test_cooccurrence_rejects_non_numbers_and_bad_priors(rows):
    # Each would reach ``classify_detections``: a NaN score leaves no
    # label to pick, and a negative weight or a sum that overflows to inf
    # (every probability 0) gives wrong log terms.
    with pytest.raises(InvalidSpec):
        CooccurrenceModel.from_dict(rows, characteristic=["ball", "cup"])


def test_smoothed_log_prob_matches_formula():
    model = default_cooccurrence()
    k = len(model.characteristic)
    terms = {label: log_prob for label, _, log_prob in model.terms}
    for label, row in COOCCURRENCE_ROWS.items():
        for cls, p in row.items():
            expected = np.log((p + 1.0) / (1.0 + k))
            assert terms[label][cls] == pytest.approx(expected)


def test_scene_scores_keep_the_formula_bits(registry):
    # Scene scores are written to log files: each label's score is its log
    # prior, uniform over the labels, plus, left to right, the smoothed log
    # probability of every characteristic class sensed.
    model = CooccurrenceModel.from_dict(COOCCURRENCE_ROWS, CHARACTERISTIC_CLASSES)
    k = len(model.characteristic)
    rng = random.Random(11)
    classes = sorted(registry.object_classes)
    assert set(classes) - model.characteristic
    for _ in range(300):
        sensed = [rng.choice(classes) for _ in range(rng.randrange(8))]
        label, scores = world.classify_detections(sensed, model)
        voting = [c for c in sensed if c in model.characteristic]
        if not voting:
            assert label == world.FALLBACK_SCENE
            continue
        expected = []
        for name, row in sorted(COOCCURRENCE_ROWS.items()):
            s = math.log(1.0 / len(COOCCURRENCE_ROWS))
            for c in voting:
                s += math.log((row.get(c, 0.0) + world.LAPLACE_ALPHA)
                              / (1.0 + world.LAPLACE_ALPHA * k))
            expected.append((name, s.hex()))
        assert [(name, s.hex()) for name, s in scores] == expected


def test_uninformative_frames_inherit_previous_label(site_logs):
    observations = list(site_logs["site-1"])
    characteristic = default_cooccurrence().characteristic
    for prev, obs in zip(observations, observations[1:]):
        informative = [r for r in obs.sensed
                       if r.apparent_class in characteristic]
        if not informative:
            assert obs.scene_label == prev.scene_label
            assert obs.scene_scores == prev.scene_scores


# --- classifiers and world building ----------------------------------------

def test_run_classifier_on_empty_input(registry):
    symbol = PerceptionSymbol("object_detector", "ball")
    found, cost = run_classifier(symbol, registry, ObservationLog.of(()).detections(()))
    assert len(found) == 0
    assert cost == 0.0


def test_run_classifier_rejects_unknown(registry, site_logs):
    with pytest.raises(UnknownClassifier):
        run_classifier(PerceptionSymbol("object_detector", "dragon"), registry,
                       ObservationLog.of(site_logs["site-1"]).detections(("dragon",)))


def test_build_calls_each_stage_once_through_the_module(registry, site_logs,
                                                       monkeypatch):
    # Tracers wrap the module attribute ``run_classifier`` and read the
    # symbol from the first argument, so the build must call every stage
    # it runs through that name, once, in stage order.
    calls = []

    def recorder(*args, **kwargs):
        calls.append(args[0])
        return run_classifier(*args, **kwargs)

    monkeypatch.setattr("groundling.world.run_classifier", recorder)
    detectors = [PerceptionSymbol("object_detector", c)
                 for c in sorted(registry.object_classes)]
    colours = [PerceptionSymbol("color_detector", c) for c in sorted(registry.colors)]
    cup = PerceptionSymbol("object_detector", "cup")
    noise = PerceptionSymbol("noise_filter")
    geometry = [PerceptionSymbol("bbox_estimator"), PerceptionSymbol("pose_estimator")]
    everything = full_classifiers(registry)
    for selected, stages in [
        (everything, [*detectors, noise, *colours, *geometry]),
        ({cup, noise, *geometry}, [cup, noise, *geometry]),
        (everything - {geometry[1]}, [*detectors, noise, *colours]),
    ]:
        calls.clear()
        build_world_model(site_logs["site-1"], selected, registry)
        assert calls == stages


_ORDER_REGISTRIES = (default_registry(), wide_registry(2))
_ORDER_LOGS = [simulate(site1_spec(), r) for r in _ORDER_REGISTRIES]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_stages_run_in_the_stage_tables_order(data):
    # For any selection, with both geometry stages, one or neither, the
    # build calls the selected stages through the module in the build
    # rank of the registry's stage table, and drops a lone geometry stage.
    k = data.draw(st.sampled_from(range(len(_ORDER_REGISTRIES))))
    registry, log = _ORDER_REGISTRIES[k], _ORDER_LOGS[k]
    every = registry.classifiers()
    geometry = [PerceptionSymbol("bbox_estimator"), PerceptionSymbol("pose_estimator")]
    others = [c for c in every if c not in geometry]
    selection = set(data.draw(st.lists(st.sampled_from(others), unique=True)))
    selection |= set(data.draw(st.sampled_from((geometry, geometry[:1], geometry[1:], []))))
    expected = sorted(map(registry.stages.__getitem__, selection))
    if not set(geometry) <= selection:
        expected = [stage for stage in expected if stage.symbol not in geometry]
    calls = []

    def recorder(*args, **kwargs):
        calls.append(args[0])
        return run_classifier(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("groundling.world.run_classifier", recorder)
        build_world_model(log, frozenset(selection), registry)
    assert calls == [stage.symbol for stage in expected]
    # Unregistered classifiers among the selection name the smallest
    # unknown canon, and no stage runs.
    unknown = data.draw(st.lists(st.sampled_from((
        PerceptionSymbol("object_detector", "dragon"),
        PerceptionSymbol("object_detector", "aardvark"),
        PerceptionSymbol("color_detector", "mauve"))), min_size=1, unique=True))
    calls.clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("groundling.world.run_classifier", recorder)
        with pytest.raises(UnknownClassifier) as raised:
            build_world_model(log, frozenset(selection | set(unknown)), registry)
    assert str(raised.value) == min(c.canon for c in unknown)
    assert calls == []


def test_a_build_does_not_depend_on_classifier_identity(registry, site_logs, tmp_path,
                                                        monkeypatch):
    # The registry's tables hold its own symbols but look them up by value:
    # equal symbols made afresh, and a registry read back from its file,
    # build the same world through the same stages.
    assert registry.classifiers() is registry.classifiers()
    save_registry(registry, tmp_path / "registry.yaml")
    loaded = load_registry(tmp_path / "registry.yaml")
    assert loaded == registry
    assert all(a is not b for a, b in zip(loaded.classifiers(), registry.classifiers())
               if a.param is not None)
    calls = []

    def recorder(*args, **kwargs):
        calls.append(args[0])
        return run_classifier(*args, **kwargs)

    monkeypatch.setattr("groundling.world.run_classifier", recorder)

    def build(classifiers, registry):
        calls.clear()
        built = build_world_model(site_logs["site-1"], classifiers, registry)
        return (built.codes.tobytes(), built.pose.tobytes(), built.t.tobytes(),
                built.cost_ledger, [(c.kind, c.param) for c in calls])

    everything = full_classifiers(registry)
    for selected in (everything, {c for c in everything if c.param in (None, "cup")},
                     {c for c in everything if c.kind != "pose_estimator"}):
        afresh = [PerceptionSymbol(c.kind, c.param) for c in selected]
        assert not set(map(id, afresh)) & set(map(id, registry.classifiers()))
        own = build(selected, registry)
        assert own[3]
        assert build(afresh, registry) == own
        assert build(selected, loaded) == own
        assert build(afresh, loaded) == own


def test_build_finds_all_fixture_objects(registry, site_logs):
    world1 = build_world_model(site_logs["site-1"], full_classifiers(registry),
                               registry)
    world2 = build_world_model(site_logs["site-2"], full_classifiers(registry),
                               registry)
    assert len(world1.objects) == 37
    assert len(world2.objects) == 36


def test_object_ids_unique_and_provenance_nonempty(registry, site_logs):
    world = build_world_model(site_logs["site-1"], full_classifiers(registry),
                              registry)
    ids = [o.id for o in world.objects]
    assert len(set(ids)) == len(ids)
    assert all(o.provenance for o in world.objects)


def test_cost_ledger_additivity(registry, site_logs):
    world = build_world_model(site_logs["site-2"], full_classifiers(registry),
                              registry)
    assert world.total_cost == pytest.approx(
        sum(cost for _, cost in world.cost_ledger))


def test_one_object_three_waypoints_dedups_to_one(registry):
    spec = WorldSpec(
        name="micro", seed=5,
        objects=(LatentObject("ball-0", "ball", "red", (3.0, 0.5, 0.0),
                              "hallway"),),
        trajectory=((0.5, 0.0, 0.0), (1.5, 0.0, 0.0), (2.5, 0.0, 0.0)),
        cooccurrence=default_cooccurrence(),
    )
    observations = simulate(spec, registry)
    assert sum(len(o.sensed) for o in observations) == 3
    world = build_world_model(observations, full_classifiers(registry),
                              registry)
    assert len(world.objects) == 1
    assert len(world.objects[0].provenance) == 3


def test_dedup_idempotence(registry, site_logs):
    world = build_world_model(site_logs["site-1"], full_classifiers(registry),
                              registry)
    kept_ts = {t for o in world.objects for t in o.provenance}
    replay = [o for o in site_logs["site-1"] if o.t in kept_ts]
    rebuilt = build_world_model(replay, full_classifiers(registry), registry)
    assert rebuilt.object_ids() == world.object_ids()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_build_monotone_under_subsets(registry, site_logs, data):
    observations = site_logs["site-1"]
    full = build_world_model(observations, full_classifiers(registry),
                             registry)
    keep_obs = data.draw(st.lists(st.booleans(), min_size=len(observations),
                                  max_size=len(observations)))
    subset_obs = tuple(o for o, keep in zip(observations, keep_obs) if keep)
    all_classifiers = sorted(full_classifiers(registry), key=lambda s: s.canon)
    keep_cls = data.draw(st.lists(st.booleans(), min_size=len(all_classifiers),
                                  max_size=len(all_classifiers)))
    subset_cls = frozenset(
        c for c, keep in zip(all_classifiers, keep_cls) if keep)
    small = build_world_model(subset_obs, subset_cls, registry)
    assert small.object_ids() <= full.object_ids()
    assert small.total_cost <= full.total_cost + 1e-9


_COORDINATE = st.one_of(
    st.floats(min_value=-20.0, max_value=20.0),
    # cell boundaries, and the floats just below them
    st.integers(-80, 80).map(lambda k: k * world._CELL_SIDE),
    st.integers(-80, 80).map(lambda k: math.nextafter(k * world._CELL_SIDE, -math.inf)),
    st.sampled_from((math.inf, -math.inf, math.nan)),
    # finite, but past any int64 cell index: floor(x / side) overflows
    st.sampled_from((2.0**63, -2.0**63, 1e19, -1e19, 1e300, -1e300)),
)
# unit offsets: points exactly MERGE_RADIUS from an earlier point
_DIRECTIONS = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (0.6, 0.8),
               (-0.8, -0.6), (0.6, -0.8), (-0.8, 0.6))


@st.composite
def merge_points(draw):
    """(class, x, y) rows, each of class 0 or 1."""
    points = draw(st.lists(st.tuples(st.integers(0, 1), _COORDINATE, _COORDINATE),
                           max_size=30))
    for _ in range(draw(st.integers(0, 10)) if points else 0):
        cls, x, y = points[draw(st.integers(0, len(points) - 1))]
        ux, uy = draw(st.sampled_from(_DIRECTIONS))
        points.append((draw(st.integers(0, 1)), x + ux * MERGE_RADIUS, y + uy * MERGE_RADIUS))
    # bursts of coincident points, as a robot that stands still senses them
    for _ in range(draw(st.integers(0, 3)) if points else 0):
        points += [points[draw(st.integers(0, len(points) - 1))]] * draw(
            st.integers(2, 12))
    return draw(st.permutations(points))


def _class_0(points):
    return [(0, x, y) for x, y in points]


_BELOW_HALF = 0.49999999999999994
_BELOW_QUARTER = math.nextafter(0.25, 0.0)


@settings(max_examples=300, deadline=None)
@given(merge_points())
@example(_class_0([(1.0, 0.0), (_BELOW_HALF, 0.0)]))
@example(_class_0([(0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (1.5, 0.0), (math.nan, 0.0),
                   (math.inf, 0.0), (math.inf, 0.0)]))
# linked across a cell corner, to the right and below
@example(_class_0([(0.9, 0.05), (1.2, -0.3)]))
# a chain whose links, one row's at a time, leave trees two deep
@example(_class_0([(3.0, 0.6), (2.7, 0.4), (2.3, 0.2), (1.9, 0.4)]))
# the rounding boundary 3 cells apart: on the y axis; on the x axis, a
# cell apart on the y axis; and on both axes, too far to link
@example(_class_0([(0.0, 1.0), (0.0, _BELOW_HALF)]))
@example(_class_0([(1.0, 0.0), (_BELOW_HALF, -1e-9)]))
@example(_class_0([(1.0, 1.0), (_BELOW_HALF, _BELOW_HALF)]))
# and on the y axis, across a cell line on the x axis, up and down
@example(_class_0([(_BELOW_QUARTER, 1.0), (0.25, _BELOW_HALF)]))
@example(_class_0([(_BELOW_QUARTER, _BELOW_HALF), (0.25, 1.0)]))
# a burst that straddles a cell line, and a class-1 row in among it
@example(_class_0([(0.25, 0.1)] * 5 + [(_BELOW_QUARTER, 0.1)] * 5) + [(1, 0.25, 0.1)])
# bursts at the clamp: NaN, which never links, and 1e300, which does
@example(_class_0([(math.nan, 0.0)] * 4 + [(1e300, 1e300)] * 4 + [(0.0, math.nan)] * 3))
# a cell of 40 tied keys, more than a sort leaves in row order, interleaved
# with a class-1 row on it and a row of the next cell that it links to
@example([(0, 0.1, 0.1), (1, 0.1, 0.1), (0, 0.3, 0.1)] * 40)
# units of two classes interleaved: a pair of linked units in each class,
# and the last unit of class 0 has a class-1 unit next in key order
@example([(0, 0.1, 0.1), (1, 0.1, 0.1), (0, 0.45, 0.1), (1, 0.45, 0.1)])
# a pair 3 cells apart that links by rounding, with a unit between them in
# key order: the far one's column at cell y - 3, which links to neither
@example(_class_0([(1.0, 0.0), (_BELOW_HALF, 0.0), (1.0, -0.6)]))
def test_grid_clustering_matches_pairwise(points):
    expected = []
    for cls in (0, 1):
        rows = [row for row, (c, _, _) in enumerate(points) if c == cls]
        expected += [[rows[i] for i in group] for group in
                     oracles.pairwise_cluster([points[row][1:] for row in rows])]
    expected.sort()
    # Candidate pairs tested all at once, and one unit's or row's at a time.
    for chunk in (world._PAIRS, 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(world, "_PAIRS", chunk)
            labels = _link(np.array([c for c, _, _ in points], dtype=np.intp),
                           np.array([xy for _, *xy in points], dtype=float).reshape(-1, 2))
        groups: dict[int, list[int]] = {}
        for row, label in enumerate(labels.tolist()):
            groups.setdefault(label, []).append(row)
        assert all(label == members[0] for label, members in groups.items())
        assert list(groups.values()) == expected


def _float_bits(world):
    """Every float of a world model, spelled so that -0.0 differs from 0.0."""
    return ([tuple(float(v).hex() for v in o.pose) for o in world.objects],
            [float(c).hex() for _, c in world.cost_ledger],
            float(world.total_cost).hex())


def build_checking_rows(observations, classifiers, registry):
    """``build_world_model``, checking after every stage that each row's
    observation is the log's, gathered once and narrowed with the rows."""
    def checked(*args, **kwargs):
        found, cost = run_classifier(*args, **kwargs)
        assert found.obs.dtype == found.log.obs.dtype
        assert np.array_equal(found.obs, found.log.obs[found.rows])
        return found, cost

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(world, "run_classifier", checked)
        return build_world_model(observations, classifiers, registry)


def assert_same_world(observations, classifiers, registry):
    """The build equals the row oracle's, float bits included."""
    expected = oracles.build_world_model(observations, classifiers, registry)
    built = build_checking_rows(observations, classifiers, registry)
    assert built == expected
    assert _float_bits(built) == _float_bits(expected)


@pytest.mark.parametrize("copies", [1, 8])
@pytest.mark.parametrize("site", ["site-1", "site-2"])
def test_build_matches_row_oracle(registry, site, copies):
    observations = simulate(tiled(site_spec(site), copies), registry)
    assert_same_world(observations, full_classifiers(registry), registry)


@pytest.mark.parametrize("site", ["site-1", "site-2"])
def test_revisited_build_matches_row_oracle(registry, site):
    # Three passes of the trajectory: every object's sightings of all
    # three merge into it.
    observations = simulate(revisited(site_spec(site), 3), registry)
    assert_same_world(observations, full_classifiers(registry), registry)


def test_members_seen_together_merge_in_rel_order(registry):
    # Three sightings of one cup, two of them in one observation and
    # listed against rel order: the centroid sums them in (t, rel) order.
    def seen(t, *xs):
        return Observation(
            t=t, robot_pose=(0.0, 0.0, 0.0), scene_label="kitchen",
            scene_scores=(("kitchen", 0.0),),
            sensed=tuple(RawDetection(None, (x, 0.0, 0.0), "cup", "red")
                         for x in xs))

    observations = (seen(0, 0.25), seen(1, 0.19, 0.17))
    world = build_world_model(observations, full_classifiers(registry), registry)
    assert [o.pose[0] for o in world.objects] == [((0.25 + 0.17) + 0.19) / 3]
    assert_same_world(observations, full_classifiers(registry), registry)


def _frame(t, *sensed, scene="kitchen"):
    """An observation at ``t`` from the origin of (class, colour, rel)s."""
    return Observation(
        t=t, robot_pose=(0.0, 0.0, 0.0), scene_label=scene,
        scene_scores=((scene, 0.0),),
        sensed=tuple(RawDetection(None, rel, cls, colour)
                     for cls, colour, rel in sensed))


def cups_sharing_an_id():
    """A cup, and one observation later a ring of eight cups 0.6 around it.

    The ring links into one cluster, out of the centre's reach, whose
    centroid rounds to the centre's id ``cup@5.0,1.0``.
    """
    ring = [(0.6, 0.0), (-0.6, 0.0), (0.0, 0.6), (0.0, -0.6),
            (0.42, 0.42), (0.42, -0.42), (-0.42, 0.42), (-0.42, -0.42)]
    return (
        _frame(0, ("cup", "red", (5.0, 1.0, 0.0))),
        _frame(1, *(("cup", "red", (5.0 + dx, 1.0 + dy, 0.0)) for dx, dy in ring)))


def concentric_rings(rings):
    """A cup at (5.0, 1.0), then at each t = k a ring of 8k cups 0.6k
    around it: each ring links into one cluster, out of the reach of the
    others, and every centroid rounds to ``cup@5.0,1.0``."""
    return (_frame(0, ("cup", "red", (5.0, 1.0, 0.0))),) + tuple(
        _frame(k, *(("cup", "red", (5.0 + 0.6 * k * math.cos(math.pi * j / (4 * k)),
                                    1.0 + 0.6 * k * math.sin(math.pi * j / (4 * k)), 0.0))
                    for j in range(8 * k)))
        for k in range(1, rings + 1))


def test_objects_that_share_an_id_get_a_suffix(registry):
    observations = cups_sharing_an_id()
    world = build_world_model(observations, full_classifiers(registry), registry)
    assert [(o.id, o.provenance) for o in world.objects] == [
        ("cup@5.0,1.0", {0}), ("cup@5.0,1.0#2", {1})]
    assert_same_world(observations, full_classifiers(registry), registry)
    # From #10 on, the suffixes keep the order of the smallest member row,
    # not the order of the suffixed strings.
    observations = concentric_rings(10)
    world = build_world_model(observations, full_classifiers(registry), registry)
    assert [(o.id, o.provenance) for o in world.objects] == [("cup@5.0,1.0", {0})] + [
        (f"cup@5.0,1.0#{k + 1}", {k}) for k in range(1, 11)]
    assert_same_world(observations, full_classifiers(registry), registry)


def assert_ids_made_alike(world):
    """Each id made on its own, when read, equals the one the eager rule
    gives, and so do all the ids and the id order made at once."""
    x, y = world.pose[:2].tolist()
    expected = oracles.eager_naming(
        [world.vocabulary.classes[c] for c in world.codes[0].tolist()], x, y)
    assert "named" not in world.__dict__
    assert [world.id(i) for i in range(len(world))] == expected[0]
    assert world.named == expected


def test_ids_made_when_read_repeat_past_nine(registry):
    # The rings' columns are in t order, and their ids are made alone.
    world = build_world_model(concentric_rings(10), full_classifiers(registry), registry)
    assert world.id(10) == "cup@5.0,1.0#11"
    assert world.id(1) == "cup@5.0,1.0#2"
    assert_ids_made_alike(world)


@pytest.mark.parametrize("copies", [1, 8])
@pytest.mark.parametrize("site", ["site-1", "site-2"])
def test_ids_made_when_read_match_eager_naming(registry, site, copies):
    # Exact and noisy, cluttered sensing, every classifier and no colour
    # detector, the whole log and filtered views of it: the columns are
    # the row oracle's objects in order of smallest member row, each id
    # made when read is the one all of them named at once give, and the
    # objects come in id order.
    every = full_classifiers(registry)
    classifier_sets = (every, frozenset(c for c in every if c.kind != "color_detector"))
    spec = tiled(site_spec(site), copies)
    for sensed in (spec, replace(spec, noise=0.2, clutter_rate=0.3)):
        log = simulate(sensed, registry)
        regions = sorted({o.scene_label for o in log})
        for view in (log, log.partition(regions[:1])[0], log.partition(regions[1::2])[0]):
            for classifiers in classifier_sets:
                built = build_world_model(view, classifiers, registry)
                assert_ids_made_alike(built)
                assert list(map(built.object, range(len(built)))) == (
                    oracles.build_columns(view, classifiers, registry))
                assert built == oracles.build_world_model(view, classifiers, registry)


# Coordinates that print alike or nearly so to one decimal: -0.04 and
# -0.0 print "-0.0", the exact halves 0.25 and -0.25 round to even, and
# 0.35 and 0.45 lie just below and above their halves.
_PRINTED = st.one_of(
    st.sampled_from((-0.04, 0.04, -0.0, 0.0, 0.05, -0.05, 0.25, -0.25,
                     0.15000000000000002, 0.35, 0.45, 0.95, 1.05, 14.45, 14.5,
                     14.55, math.nan, math.inf, -math.inf, 1e300, -1e300)),
    st.integers(-40, 40).map(lambda k: k * 0.05),
    st.integers(-40, 40).map(lambda k: math.nextafter(k * 0.05, math.inf)),
    st.floats(min_value=-2.0, max_value=2.0))


@settings(max_examples=300, deadline=None)
@given(points=st.lists(st.tuples(st.sampled_from((0, 1)), _PRINTED, _PRINTED),
                       max_size=24))
@example(points=[(0, -0.04, 0.0), (0, -0.0, 0.0), (0, 0.04, 0.0), (0, -0.01, -0.0)])
@example(points=[(0, 0.25, 0.35), (0, 0.15000000000000002, 0.35), (0, 0.2, 0.3),
                 (1, 0.2, 0.3), (0, math.nan, math.inf), (0, math.nan, math.inf)])
def test_ids_made_when_read_match_eager_naming_at_print_boundaries(points):
    classes = [c for c, _, _ in points]
    built = world.WorldModel(
        vocabulary=world.Vocabulary(("ball", "cup"), (), ("kitchen",)),
        codes=np.array([classes, [-1] * len(points), [0] * len(points)],
                       dtype=np.intp).reshape(3, -1),
        pose=np.array([(x, y, 0.0) for _, x, y in points], dtype=float).reshape(-1, 3).T,
        t=np.empty(0, dtype=np.int64), start=np.zeros(len(points), dtype=np.intp),
        stop=np.zeros(len(points), dtype=np.intp), given=None, robot_pose=(0.0, 0.0, 0.0))
    assert_ids_made_alike(built)


def test_a_burst_of_coincident_rows_links_in_bounded_memory():
    # A robot parked in front of one cup for 3000 frames: 4.5 million
    # linked pairs, tested a chunk at a time.
    rows = 3000
    tracemalloc.start()
    try:
        labels = _link(np.zeros(rows, dtype=np.intp), np.full((rows, 2), 0.25))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (labels == 0).all()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("xy", [
    # 3000 rows on each side of a cell line: two units, whose box links them
    [(0.25, 0.25)] * 3000 + [(_BELOW_QUARTER, 0.25)] * 3000,
    # 3000 rows at the clamp, each a unit of its own, that all link
    [(1e300, 1e300)] * 3000,
], ids=["straddling", "clamped"])
def test_a_burst_that_no_cell_holds_links_in_bounded_memory(xy):
    rows = len(xy)
    tracemalloc.start()
    try:
        labels = _link(np.zeros(rows, dtype=np.intp), np.array(xy))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (labels == 0).all()
    assert peak < 16 * 2**20


def _cup(colour, x=2.0, theta=0.0):
    return ("cup", colour, (x, 0.0, theta))


@pytest.mark.parametrize("observations, without, expected", [
    # a 1-1-1 colour tie goes to the smallest string
    ((_frame(0, _cup("white")), _frame(1, _cup("red")), _frame(2, _cup("blue"))),
     (), {"color": "blue"}),
    # and so does a region tie
    ((_frame(0, _cup("red"), scene="office"), _frame(1, _cup("red"))),
     (), {"region": "kitchen"}),
    # the earliest t wins, then the smaller theta, not the first row
    ((_frame(0, _cup("red", 2.0, 0.3), _cup("red", 2.2, 0.1)),
      _frame(1, _cup("red", 2.1, -1.0))),
     (), {"theta": 0.1}),
    # blue is confirmed, but red wins the vote and no detector confirmed it
    ((_frame(0, _cup("red")), _frame(1, _cup("red")), _frame(2, _cup("blue"))),
     ("color_detector[red]",), {"color": None}),
], ids=["colour-tie", "region-tie", "earliest-angle", "unconfirmed-winner"])
def test_merge_votes_and_angle(registry, observations, without, expected):
    classifiers = frozenset(c for c in full_classifiers(registry)
                            if c.canon not in without)
    (obj,) = build_world_model(observations, classifiers, registry).objects
    seen = {"color": obj.color, "region": obj.region, "theta": obj.pose[2]}
    assert {key: seen[key] for key in expected} == expected
    assert_same_world(observations, classifiers, registry)


def test_finite_poses_that_overflow_build_the_oracles_world(registry, tmp_path):
    # Each pose is finite, so the loader takes it, but the robot's x plus
    # the first record's rel x, and the robot's heading plus the second
    # record's rel heading, are inf; the geometry stages sum them as
    # Python floats do, with no RuntimeWarning.
    path = tmp_path / "log.jsonl"
    save_observations([Observation(
        t=0, robot_pose=(1.7e308, 0.0, 0.0), scene_label="kitchen",
        scene_scores=(("kitchen", 0.0),),
        sensed=(RawDetection(None, (1.7e308, 0.0, 0.0), "cup", "red"),)), Observation(
        t=1, robot_pose=(0.0, 0.0, 1.7e308), scene_label="kitchen",
        scene_scores=(("kitchen", 0.0),),
        sensed=(RawDetection(None, (0.0, 0.0, 1.7e308), "ball", "red"),))], path)
    log = load_observations(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert_same_world(log, full_classifiers(registry), registry)
        built = build_world_model(log, full_classifiers(registry), registry)
    assert [(o.id, o.pose[2]) for o in built.objects] == [
        ("ball@0.0,0.0", math.inf), ("cup@inf,0.0", 0.0)]


def _turning(spec):
    """``spec`` with the robot's heading swinging along the trajectory."""
    return replace(spec, trajectory=tuple(
        (x, y, 1.3 * math.sin(0.4 * k)) for k, (x, y, _) in enumerate(spec.trajectory)))


@pytest.fixture(scope="module")
def sensed_sites(registry):
    """Logs of both sites at x1 and x2: as the fixtures sense them, with
    noise and clutter, and with noise, clutter and a turning robot."""
    logs = {}
    for site in ("site-1", "site-2"):
        for copies in (1, 2):
            spec = tiled(site_spec(site), copies)
            rough = replace(spec, noise=0.2, clutter_rate=0.3)
            for variant, sensed in (("exact", spec), ("noisy", rough),
                                    ("turning", _turning(rough))):
                logs[site, copies, variant] = simulate(sensed, registry)
    return logs


@settings(max_examples=60, deadline=None)
@given(data=st.data(), rng=st.randoms(use_true_random=False))
def test_columnar_build_matches_row_oracle(registry, sensed_sites, data, rng):
    observations = sensed_sites[data.draw(st.sampled_from(sorted(sensed_sites)))]
    keep_obs = data.draw(st.sampled_from([0.0, 0.2, 0.6, 1.0]))
    keep_cls = data.draw(st.sampled_from([0.3, 0.7, 1.0]))
    subset_obs = tuple(o for o in observations if rng.random() < keep_obs)
    subset_cls = frozenset(
        c for c in sorted(full_classifiers(registry), key=lambda s: s.canon)
        if rng.random() < keep_cls)
    assert_same_world(subset_obs, subset_cls, registry)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), rng=st.randoms(use_true_random=False))
def test_colour_does_not_depend_on_which_colour_detectors_ran(
        registry, sensed_sites, data, rng):
    # Under noise an object's members disagree on its colour.  Built with
    # any classifiers that include the geometry stages, each object has
    # the colour it has with every colour detector added, when that
    # colour's detector ran, and no colour otherwise.
    rough = sorted(key for key in sensed_sites if key[2] != "exact")
    observations = sensed_sites[data.draw(st.sampled_from(rough))]
    keep_obs = data.draw(st.sampled_from([0.2, 0.6, 1.0]))
    keep_cls = data.draw(st.sampled_from([0.1, 0.3, 0.7, 1.0]))
    subset_obs = tuple(o for o in observations if rng.random() < keep_obs)
    ordered = sorted(full_classifiers(registry), key=lambda s: s.canon)
    subset_cls = frozenset(
        c for c in ordered if c.kind in ("bbox_estimator", "pose_estimator")
        or rng.random() < keep_cls)
    every_colour = frozenset(
        c for c in ordered if c in subset_cls or c.kind == "color_detector")
    built = build_world_model(subset_obs, subset_cls, registry)
    full = build_world_model(subset_obs, every_colour, registry)
    assert built.object_ids() == full.object_ids()
    ran = {c.param for c in subset_cls if c.kind == "color_detector"}
    for obj, reference in zip(built.objects, full.objects):
        assert obj.color == (reference.color if reference.color in ran else None)


def _kept(observations, *label_sets):
    return tuple(o for o in observations
                 if all(not labels or o.scene_label in labels
                        for labels in label_sets))


labels_drawn = st.frozensets(st.sampled_from(SCENE_LABELS), max_size=3)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from([("site-1", 1, "exact"), ("site-1", 2, "noisy"),
                             ("site-2", 1, "turning"), "empty", "shuffled"]),
       labels=labels_drawn, again=labels_drawn,
       keep_cls=st.sampled_from([0.3, 0.7, 1.0]),
       rng=st.randoms(use_true_random=False))
# Keep everything; a label no observation has; every detector, cone and
# suitcase among them, which site-1 never senses; the empty log.
@example(name=("site-1", 1, "exact"), labels=frozenset(), again=frozenset(),
         keep_cls=1.0, rng=random.Random(0))
@example(name=("site-1", 1, "exact"), labels=frozenset({"parking_lot", "kitchen"}),
         again=frozenset({"parking_lot"}), keep_cls=1.0, rng=random.Random(0))
@example(name="empty", labels=frozenset({"kitchen"}), again=frozenset(),
         keep_cls=1.0, rng=random.Random(0))
@example(name="shuffled", labels=frozenset({"office"}), again=frozenset(),
         keep_cls=1.0, rng=random.Random(0))
def test_build_on_a_filtered_view_matches_row_oracle(
        registry, sensed_sites, name, labels, again, keep_cls, rng):
    # A filtered log is a view that shares the log's columns; filtering
    # it again filters the view.  The build on it equals the row build on
    # a plain tuple of the observations it keeps.  "shuffled" is a noisy
    # log written out of t order.
    if name == "empty":
        log = ObservationLog.of(())
    elif name == "shuffled":
        shuffled = list(sensed_sites["site-2", 2, "noisy"])
        rng.shuffle(shuffled)
        log = ObservationLog.of(shuffled)
    else:
        log = sensed_sites[name]
    once = filter_by_labels(log, labels)
    view = filter_by_labels(once.kept, again).kept
    assert isinstance(view, ObservationLog)
    assert tuple(once.kept) == _kept(log, labels)
    assert tuple(once.dropped) == tuple(o for o in log
                                        if labels and o.scene_label not in labels)
    assert tuple(view) == _kept(log, labels, again)
    assert view.records == sum(len(o.sensed) for o in view)
    subset_cls = frozenset(
        c for c in sorted(full_classifiers(registry), key=lambda s: s.canon)
        if rng.random() < keep_cls)
    expected = oracles.build_world_model(tuple(view), subset_cls, registry)
    built = build_checking_rows(view, subset_cls, registry)
    assert built == expected
    assert _float_bits(built) == _float_bits(expected)


@settings(max_examples=200, deadline=None)
@given(times=st.lists(st.integers(-3, 3), max_size=12),
       labels=labels_drawn, again=labels_drawn, data=st.data())
@example(times=[], labels=frozenset(), again=frozenset(), data=None)
@example(times=[2, 2, 2], labels=frozenset(), again=frozenset(), data=None)
def test_latest_observation_is_the_last_given_at_the_largest_t(
        times, labels, again, data):
    # Logs written out of t order and with repeated t, and views of them:
    # the latest observation is what the row-by-row expression picks.
    frames = [Observation(t=t, robot_pose=(float(i), 0.0, 0.0),
                          scene_label=SCENE_LABELS[(i * 7 + t) % len(SCENE_LABELS)],
                          scene_scores=(), sensed=())
              for i, t in enumerate(times)]
    if data is not None:
        frames = data.draw(st.permutations(frames))
    log = ObservationLog.of(frames)
    once = filter_by_labels(log, labels).kept
    for view in (log, once, filter_by_labels(once, again).kept):
        latest = max(reversed(tuple(view)), key=lambda o: o.t) if view else None
        assert view.latest_pose() == (latest.robot_pose if view else (0.0, 0.0, 0.0))


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_POSES = st.tuples(_FLOATS, _FLOATS, _FLOATS)
_FRAMES = st.lists(st.builds(
    Observation,
    t=st.integers(-2**63, 2**63 - 1),
    robot_pose=_POSES,
    sensed=st.lists(st.builds(
        RawDetection,
        latent_id=st.none() | st.text(max_size=4),
        rel=_POSES,
        apparent_class=st.sampled_from(("cup", "ball", "zebra")),
        apparent_color=st.sampled_from(("red", "blue")),
        noisy=st.booleans()), max_size=4).map(tuple),
    scene_label=st.sampled_from(SCENE_LABELS),
    scene_scores=st.lists(st.tuples(st.sampled_from(SCENE_LABELS), _FLOATS),
                          max_size=3).map(tuple)), max_size=8)


@settings(max_examples=200, deadline=None)
@given(frames=_FRAMES, labels=labels_drawn, again=labels_drawn)
@example(frames=[Observation(
    t=1, robot_pose=(-0.0, 0.0, math.nan), scene_label="kitchen",
    scene_scores=(("kitchen", -math.inf), ("office", -0.0)),
    sensed=(RawDetection(None, (math.nan, -0.0, 1.5), "cup", "red", True),
            RawDetection("a", (0.5, 0.5, 0.0), "ball", "blue"))), Observation(
    t=0, robot_pose=(1.0, 2.0, math.inf), scene_label="office", scene_scores=(),
    sensed=())], labels=frozenset({"kitchen"}), again=frozenset())
@example(frames=[Observation(
    t=0, robot_pose=(-0.0, math.inf, -math.inf), scene_label="office", scene_scores=(),
    sensed=()), Observation(
    t=1, robot_pose=(math.nan, 1e300, -0.0), scene_label="office", scene_scores=(),
    sensed=())], labels=frozenset(), again=frozenset())
def test_a_log_gives_back_the_observations_it_encodes(frames, labels, again):
    # Out of t order, with repeated t, empty records, -0.0, NaN and -inf:
    # the log reads back every observation in the order given, each float
    # with its bits, whole and through views of views.
    log = ObservationLog.of(frames)
    # Each pose's frame is its x, y, and its angle's cosine and sine from
    # ``math``, bit for bit; an infinite angle, on which ``math`` raises,
    # has a NaN pair.
    frame = [(x, y, *((math.nan,) * 2 if math.isinf(a) else (math.cos(a), math.sin(a))))
             for x, y, a in (o.robot_pose for o in frames)]
    assert log.frame.tobytes() == np.array(frame, dtype=float).tobytes()
    assert log.frame.shape == (len(frames), 4)
    assert len(log) == len(frames)
    assert log.records == sum(len(o.sensed) for o in frames)
    assert _spelled(log) == _spelled(frames)
    kept, dropped = log.partition(labels)
    in_labels = [o for o in frames if o.scene_label in labels]
    wanted = (in_labels, [o for o in frames if o.scene_label not in labels],
              [o for o in in_labels if o.scene_label in again],
              [o for o in in_labels if o.scene_label not in again])
    for view, observations in zip((kept, dropped, *kept.partition(again)), wanted):
        assert len(view) == len(observations)
        assert view.records == sum(len(o.sensed) for o in observations)
        assert _spelled(view) == _spelled(observations)
    # Every view reads the observations the whole log made.
    assert all(a is b for a, b in zip(kept, (o for o in log if o.scene_label in labels)))


_OBJECTS = st.lists(st.builds(
    DetectedObject,
    id=st.text(max_size=6),
    cls=st.sampled_from(("cup", "ball", "zebra")),
    color=st.none() | st.sampled_from(("red", "blue")),
    pose=st.tuples(*[st.floats(allow_nan=True, allow_infinity=True)] * 3),
    region=st.sampled_from(("kitchen", "office")),
    provenance=st.frozensets(st.integers(-2**63, 2**63 - 1), max_size=4)), max_size=8)


@settings(max_examples=100, deadline=None)
@given(objects=_OBJECTS)
def test_a_world_model_gives_back_the_objects_it_encodes(objects):
    world = WorldModel.of(objects=objects, robot_pose=(0.0, 0.0, 0.0))
    made = world.objects
    assert [(o.id, o.cls, o.color, o.region, o.provenance) for o in made] == [
        (o.id, o.cls, o.color, o.region, o.provenance) for o in objects]
    assert [[v.hex() for v in o.pose] for o in made] == [
        [float(v).hex() for v in o.pose] for o in objects]
    assert world.object_ids() == frozenset(o.id for o in objects)


def test_geometry_needs_both_bbox_and_pose(registry, site_logs):
    partial = frozenset(
        s for s in full_classifiers(registry) if s.kind != "pose_estimator")
    world = build_world_model(site_logs["site-1"], partial, registry)
    assert world.objects == ()


# --- serialization ----------------------------------------------------------

def test_observation_log_round_trip(tmp_path, site_logs):
    path = tmp_path / "obs.jsonl"
    save_observations(site_logs["site-2"], path)
    loaded = load_observations(path)
    assert tuple(loaded) == tuple(site_logs["site-2"])
    # Both ways of making a log index it, and a log is not indexed again.
    for log in (loaded, site_logs["site-2"]):
        assert isinstance(log, ObservationLog)
        assert ObservationLog.of(log) is log


def _columns(log):
    """Every column of a log, each array as its dtype, shape and bytes."""
    def spelled(value):
        if isinstance(value, np.ndarray):
            return value.dtype, value.shape, value.tobytes()
        if isinstance(value, tuple) and value and isinstance(value[0], np.ndarray):
            return [spelled(v) for v in value]
        return value
    return {f.name: spelled(getattr(log, f.name))
            for f in fields(ObservationLog) if f.name != "_made"}


def test_a_saved_log_loads_to_the_same_columns(tmp_path, sensed_sites):
    path = tmp_path / "obs.jsonl"
    for log in sensed_sites.values():
        save_observations(log, path)
        assert _columns(load_observations(path)) == _columns(log)


def test_unsupported_schema_rejected(tmp_path, site_logs):
    from groundling.errors import UnknownSchemaVersion
    path = tmp_path / "obs.jsonl"
    save_observations(site_logs["site-1"], path)
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace('"schema": 1', '"schema": 9')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(UnknownSchemaVersion):
        load_observations(path)
