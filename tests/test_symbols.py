"""Symbol spaces and the classifier registry."""

from __future__ import annotations

from dataclasses import replace

import pytest
import yaml

from groundling.errors import UnknownClassifier, UnknownSchemaVersion
from groundling.symbols import (
    SCENE_LABELS,
    STRUCTURAL_KINDS,
    ClassifierRegistry,
    CostModel,
    PerceptionSymbol,
    default_registry,
    enumerate_grounding_space,
    enumerate_grounding_type_space,
    enumerate_perception_space,
    enumerate_semantic_space,
    load_registry,
    save_registry,
)
from groundling.world import WorldModel, build_world_model


def empty_world() -> WorldModel:
    return WorldModel(objects=(), total_cost=0.0, robot_pose=(0.0, 0.0, 0.0))


def canons(space):
    return tuple(s.canon for s in space)


def test_spaces_are_sorted_and_duplicate_free(registry):
    for space in (enumerate_semantic_space(),
                  enumerate_perception_space(registry),
                  enumerate_grounding_type_space(registry)):
        cs = canons(space)
        assert cs == tuple(sorted(cs))
        assert len(set(cs)) == len(cs)


def test_space_enumeration_is_stable(registry):
    first = canons(enumerate_perception_space(registry))
    second = canons(enumerate_perception_space(registry))
    assert first == second


def test_semantic_space_has_exactly_the_scene_labels(registry):
    space = enumerate_semantic_space()
    assert len(space) == len(registry.scene_labels)
    assert {s.scene_label for s in space} == set(registry.scene_labels)


def test_grounding_space_is_linear_in_objects(registry, site_logs):
    constant = len(enumerate_grounding_space(empty_world(), registry))
    world = build_world_model(site_logs["site-1"],
                              frozenset(registry.classifiers()), registry)
    space = enumerate_grounding_space(world, registry)
    assert len(space) == 2 * len(world.objects) + constant


def test_instance_symbols_reference_world_ids(registry, site_logs):
    world = build_world_model(site_logs["site-2"],
                              frozenset(registry.classifiers()), registry)
    ids = world.object_ids()
    space = enumerate_grounding_space(world, registry)
    for symbol in space:
        if symbol.variant in ("object", "action"):
            assert symbol.value in ids


def test_registry_round_trip(registry, tmp_path):
    path = tmp_path / "registry.yaml"
    save_registry(registry, path)
    assert load_registry(path) == registry


def test_schema_1_registry_rejected(registry, tmp_path):
    path = tmp_path / "registry.yaml"
    save_registry(registry, path)
    doc = yaml.safe_load(path.read_text())
    doc.update(schema=1, scene_labels=list(SCENE_LABELS))
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(UnknownSchemaVersion):
        load_registry(path)


def test_schema_2_registry_rejected(registry, tmp_path):
    # Schema 2 declared the structural stages; they are fixed now.
    path = tmp_path / "registry.yaml"
    save_registry(registry, path)
    doc = yaml.safe_load(path.read_text())
    doc.update(schema=2, structural_stages=list(STRUCTURAL_KINDS))
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(UnknownSchemaVersion):
        load_registry(path)


def test_cost_override_beats_kind_cost(registry):
    symbol = PerceptionSymbol("object_detector", "ball")
    override = CostModel(base_cost=9.0, per_item_cost=0.5)
    patched = ClassifierRegistry(
        cost_overrides=((symbol.canon, override),))
    assert patched.cost_for(symbol) == override
    other = PerceptionSymbol("object_detector", "cup")
    assert patched.cost_for(other) == registry.cost_for(other)


def test_unknown_classifier_rejected(registry):
    with pytest.raises(UnknownClassifier):
        registry.cost_for(PerceptionSymbol("object_detector", "dragon"))


def test_registry_equality_ignores_cost_table_order(registry):
    shuffled = tuple(reversed(registry.kind_costs))
    assert ClassifierRegistry(kind_costs=shuffled) == registry


def test_with_extra_class_extends_detectors(registry):
    extended = replace(registry, object_classes=registry.object_classes + ("drone",))
    assert "drone" in extended.object_classes
    assert PerceptionSymbol("object_detector", "drone") in set(
        extended.classifiers())
