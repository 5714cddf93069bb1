"""Observation filtering and classifier selection."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from groundling.adapt import (
    STRUCTURAL_STAGES,
    filter_by_labels,
    filter_observations,
    infer_classifiers,
    scene_labels,
)
from groundling.correspondence import infer
from groundling.grammar import parse_text
from groundling.symbols import SCENE_LABELS, enumerate_semantic_space

label_sets = st.frozensets(st.sampled_from(SCENE_LABELS), max_size=4)


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
    direct = filter_by_labels(observations, labels)
    mixed = filter_by_labels(shuffled, labels)
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
