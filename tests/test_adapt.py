"""Observation filtering and classifier selection."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundling import corpus
from groundling.adapt import (
    STRUCTURAL_STAGES,
    filter_by_labels,
    filter_observations,
    infer_classifiers,
    scene_labels,
)
from groundling.correspondence import infer, resolve_action
from groundling.errors import GroundlingError
from groundling.fixtures import SITES, site_spec
from groundling.grammar import parse_text
from groundling.symbols import (
    REGION_SURFACE_FORMS,
    SCENE_LABELS,
    SemanticSymbol,
    enumerate_semantic_space,
)
from groundling.world import ObservationLog, build_world_model, simulate

label_sets = st.frozensets(st.sampled_from(SCENE_LABELS), max_size=4)
SENSING = (0.0, 0.2)


def obs_key(observation):
    return observation.t


@settings(max_examples=60, deadline=None)
@given(left=label_sets.filter(bool), right=label_sets.filter(bool))
def test_filter_label_union_additivity(site_logs, left, right):
    observations = site_logs["site-1"]
    union = filter_by_labels(observations, left | right)
    kept_left = set(map(obs_key, filter_by_labels(observations, left).kept))
    kept_right = set(map(obs_key, filter_by_labels(observations, right).kept))
    assert set(map(obs_key, union.kept)) == kept_left | kept_right


@settings(max_examples=40, deadline=None)
@given(labels=label_sets, seed=st.integers(min_value=0, max_value=999))
def test_filter_is_order_invariant(site_logs, labels, seed):
    import random

    observations = list(site_logs["site-2"])
    shuffled = observations[:]
    random.Random(seed).shuffle(shuffled)
    direct = filter_by_labels(ObservationLog.of(observations), labels)
    mixed = filter_by_labels(ObservationLog.of(shuffled), labels)
    assert set(map(obs_key, direct.kept)) == set(map(obs_key, mixed.kept))


def test_empty_label_set_keeps_everything(site_logs):
    observations = site_logs["site-1"]
    decision = filter_by_labels(observations, frozenset())
    assert tuple(decision.kept) == tuple(observations)
    assert tuple(decision.dropped) == ()


def test_kept_and_dropped_partition_the_log(site_logs):
    observations = site_logs["site-1"]
    decision = filter_by_labels(observations, {"kitchen"})
    assert len(decision.kept) + len(decision.dropped) == len(observations)
    assert all(o.scene_label == "kitchen" for o in decision.kept)
    assert all(o.scene_label != "kitchen" for o in decision.dropped)


def test_instruction_filtering_keeps_named_zone(bundle, registry, site_logs):
    tree = parse_text("go to the farthest cup in the kitchen", registry)
    decision = filter_observations(site_logs["site-1"], bundle.semantic, tree)
    assert decision.inferred_labels == {"kitchen"}
    assert len(decision.kept) == 30


def test_unscoped_instruction_keeps_everything(bundle, registry, site_logs):
    tree = parse_text("go to the nearest ball", registry)
    decision = filter_observations(site_logs["site-1"], bundle.semantic, tree)
    assert decision.inferred_labels == frozenset()
    assert tuple(decision.kept) == tuple(site_logs["site-1"])


def test_semantic_inference_names_the_region(bundle, registry):
    tree = parse_text("navigate to the nearest suitcase in the parking lot",
                      registry)
    assignment = infer(bundle.semantic, tree, enumerate_semantic_space())
    assert scene_labels(assignment) == {"parking_lot"}


def test_selection_always_includes_structural_stages(bundle, registry):
    for text in ("go to the nearest ball",
                 "go to the farthest red cup in the office"):
        tree = parse_text(text, registry)
        selection = infer_classifiers(bundle.perception, tree, registry)
        assert STRUCTURAL_STAGES <= selection.selected
        assert selection.inferred <= selection.selected
        assert selection.selected <= frozenset(registry.classifiers())


def test_selection_names_the_mentioned_detectors(bundle, registry):
    tree = parse_text("go to the farthest red cup in the office", registry)
    selection = infer_classifiers(bundle.perception, tree, registry)
    canons = {s.canon for s in selection.inferred}
    assert canons == {"object_detector[cup]", "color_detector[red]"}


# The paper's sufficiency claim: the observations the instruction's scene
# labels keep, and the classifiers it names plus the structural stages,
# ground its gold constraints as the whole log under every classifier
# does.  No model is run: the subsets are the corpus's gold annotations.


@pytest.fixture(scope="module")
def sensed_logs(registry):
    """Each site's log at each noise and clutter rate in ``SENSING``."""
    return {(site, noise, clutter): simulate(
                replace(site_spec(site), noise=noise, clutter_rate=clutter), registry)
            for site in SITES for noise in SENSING for clutter in SENSING}


def ground(example, observations, classifiers, registry, robot_pose):
    """``("action", canon)`` of the gold root symbols' action in a build of
    ``observations``, or ``("error", name)`` of the error that stops it."""
    world = build_world_model(observations, classifiers, registry, robot_pose=robot_pose)
    try:
        return "action", resolve_action(corpus.gold_root_symbols(example), world)[0].canon
    except GroundlingError as exc:
        return "error", type(exc).__name__


def gold_root(example, registry, domain):
    """The canons ``domain``'s gold annotation makes true at the root."""
    return corpus.gold_annotations(example, parse_text(example.text, registry), domain)[-1]


@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_gold_classifiers_ground_as_every_classifier(registry, corpus_examples,
                                                     sensed_logs, data):
    example = data.draw(st.sampled_from(corpus_examples), label="example")
    log = sensed_logs[data.draw(st.sampled_from(sorted(sensed_logs)), label="log")]
    gold = gold_root(example, registry, "perception")
    needed = {s for s in registry.classifier_set if s.canon in gold} | STRUCTURAL_STAGES
    extra = data.draw(st.frozensets(st.sampled_from(sorted(
        registry.classifier_set, key=lambda s: s.canon))), label="extra")
    pose = log.latest_pose()
    assert (ground(example, log, needed | extra, registry, pose)
            == ground(example, log, registry.classifier_set, registry, pose))


@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_gold_scene_labels_ground_as_the_whole_log(registry, corpus_examples,
                                                   sensed_logs, data):
    example = data.draw(st.sampled_from([e for e in corpus_examples if e.region]),
                        label="example")
    log = sensed_logs[data.draw(st.sampled_from(sorted(SITES)), label="site"), 0.0, 0.0]
    gold = gold_root(example, registry, "semantic")
    labels = {label for label in SCENE_LABELS if SemanticSymbol(label).canon in gold}
    kept, _ = log.partition(labels)
    pose = log.latest_pose()
    assert (ground(example, kept, registry.classifier_set, registry, pose)
            == ground(example, log, registry.classifier_set, registry, pose))


@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_gold_scene_labels_ground_a_named_object_as_the_whole_log(
        registry, corpus_examples, sensed_logs, data):
    # The property above, on instructions with a referent: a region-bearing
    # example's class, colour and region slots are filled from one of the
    # noise-free site's objects, its region spelled as a surface form of
    # the object's zone.
    site = data.draw(st.sampled_from(sorted(SITES)), label="site")
    target = data.draw(st.sampled_from(site_spec(site).objects), label="object")
    example = data.draw(st.sampled_from([e for e in corpus_examples if e.region]),
                        label="example")
    surface = data.draw(st.sampled_from(REGION_SURFACE_FORMS[target.region]), label="surface")
    example = replace(example, noun=target.cls, color=example.color and target.color,
                      region=target.region, region_surface=" ".join(surface))
    log = sensed_logs[site, 0.0, 0.0]
    gold = gold_root(example, registry, "semantic")
    labels = {label for label in SCENE_LABELS if SemanticSymbol(label).canon in gold}
    kept, _ = log.partition(labels)
    pose = log.latest_pose()
    assert (ground(example, kept, registry.classifier_set, registry, pose)
            == ground(example, log, registry.classifier_set, registry, pose))


def test_the_whole_log_grounds_some_gold_instructions(registry, corpus_examples,
                                                      sensed_logs):
    """The two properties above compare more than errors: over each one's
    pool of instructions, on the noise-free sites, the whole log grounds
    some instructions and stops on others."""
    logs = [sensed_logs[site, 0.0, 0.0] for site in sorted(SITES)]
    for pool in (corpus_examples, [e for e in corpus_examples if e.region]):
        outcomes = [ground(e, log, registry.classifier_set, registry, log.latest_pose())
                    for log in logs for e in pool]
        grounded = sum(kind == "action" for kind, _ in outcomes)
        assert 0 < grounded < len(outcomes)
