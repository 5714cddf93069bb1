"""Symbol spaces and the classifier registry."""

from __future__ import annotations

import os
import pickle
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import groundling
from groundling.correspondence import Assignment
from groundling.errors import InvalidSpec, UnknownClassifier, UnknownSchemaVersion
from groundling.symbols import (
    INSTANCE_VARIANTS,
    SCENE_LABELS,
    STRUCTURAL_KINDS,
    ClassifierRegistry,
    CostModel,
    GroundingSymbol,
    PerceptionSymbol,
    SymbolSpace,
    _entries,
    action_instance,
    default_registry,
    enumerate_grounding_space,
    enumerate_grounding_type_space,
    enumerate_perception_space,
    enumerate_semantic_space,
    load_registry,
    relation_symbol,
    save_registry,
)
from groundling.fixtures import site_spec, tiled
from groundling.world import DetectedObject, WorldModel, build_world_model, simulate
import oracles
from oracles import object_instance, symbol_space


def empty_world() -> WorldModel:
    return WorldModel.of(objects=(), robot_pose=(0.0, 0.0, 0.0))


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


def generic_space(objects, registry) -> SymbolSpace:
    """The grounding space of a world whose columns hold ``objects``, in
    that order, built the generic way: constraint symbols sorted by
    canon, each variant's instance symbols in one block in column order,
    and keys numbered as they first appear."""
    symbols = list(enumerate_grounding_type_space(registry))
    symbols += [f(o) for o in objects for f in (object_instance, action_instance)]
    return symbol_space("grounding", symbols)


def laid_out(space) -> list:
    """Each symbol with its canon and the names of its row's keys, in order."""
    names = space.layout.names
    return [(symbol, symbol.canon, tuple(names[k] for k in space.row_keys[row]))
            for symbol, row in zip(space, space.row_of.tolist())]


def fired_as_children(space) -> list:
    """What each constraint of ``space``'s layout fires as a child, by
    name: its canon and ordinal, its ``cv=`` token, its ``ceq`` key, and
    the ``cmatch`` cells of it that some row of the space has."""
    layout, present = space.layout, set(space.entry_key.tolist())
    names = layout.names
    return [(canon, c, layout.cv[layout.cv_rank[c]], names[layout.constraint_keys[c][0]],
             sorted(names[k] for k in layout.cmatch_cells[c] if k in present))
            for canon, c in layout.ordinal.items()]


# (class, colour, region) signatures, with a class and a scene label
# outside the default registry's vocabulary.
_SIGNATURES = st.tuples(
    st.sampled_from(("cup", "ball", "drone")),
    st.none() | st.sampled_from(("red", "blue")),
    st.sampled_from(("kitchen", "office", "bathroom")))


@st.composite
def signature_worlds(draw):
    """(registry, world): objects that repeat a few signatures, with ids
    that share prefixes (``cup@5.0,1.0``, ``cup@5.0,1.0#2``, ``#10``), in
    any order.  The registry is the default one, or one whose classes and
    colours are drawn, in any order, from a few names, so that it may
    lack a class or a colour of the objects."""
    registry = default_registry()
    if draw(st.booleans()):
        names = st.sampled_from
        registry = replace(
            registry,
            object_classes=tuple(draw(st.lists(names(("cup", "ball", "drone", "chair")),
                                               min_size=1, unique=True))),
            colors=tuple(draw(st.lists(names(("red", "blue", "green")),
                                       min_size=1, unique=True))))
    signatures = draw(st.lists(_SIGNATURES, min_size=1, max_size=3))
    objects, seen = [], {}
    for _ in range(draw(st.integers(0, 14))):
        cls, color, region = draw(st.sampled_from(signatures))
        name = f"{cls}@{draw(st.sampled_from(('5.0,1.0', '5.0,1.05', '5.0,10.0')))}"
        repeat = seen[name] = seen.get(name, 0) + 1
        objects.append(DetectedObject(
            id=name if repeat == 1 else f"{name}#{repeat}", cls=cls,
            color=color, pose=(0.0, 0.0, 0.0), region=region,
            provenance=frozenset()))
    objects = draw(st.permutations(objects))
    return registry, WorldModel.of(objects=tuple(objects), robot_pose=(0.0, 0.0, 0.0))


def one_signature_world(count: int) -> WorldModel:
    return WorldModel.of(objects=tuple(
        DetectedObject(id=f"cup@5.0,1.0#{k}" if k > 1 else "cup@5.0,1.0",
                       cls="cup", color=None, pose=(0.0, 0.0, 0.0),
                       region="kitchen", provenance=frozenset())
        for k in range(1, count + 1)), robot_pose=(0.0, 0.0, 0.0))


@settings(max_examples=150, deadline=None)
@given(case=signature_worlds())
@example(case=(default_registry(), empty_world()))
@example(case=(default_registry(), one_signature_world(12)))
def test_grounding_space_matches_the_generic_construction(case):
    registry, world = case
    # The fixed spaces lay out their symbols as the generic layout does.
    # The semantic and perception spaces number only their own symbols'
    # keys; the grounding type space's layout also numbers instance
    # keys, which no row of it has (test_fixed_designs_match_the_generic_layout).
    types = enumerate_grounding_type_space(registry)
    for fixed in (enumerate_semantic_space(), enumerate_perception_space(registry), types):
        reference = symbol_space(fixed.domain, fixed)
        if fixed is not types:
            assert fixed.layout.names == reference.layout.names
        assert laid_out(fixed) == laid_out(reference)
        assert fired_as_children(fixed) == fired_as_children(reference)
    if any(o.cls not in registry.object_classes or o.region not in SCENE_LABELS
           or o.color not in (None, *registry.colors) for o in world.objects):
        with pytest.raises(InvalidSpec):
            enumerate_grounding_space(world, registry)
        return
    # The world's columns hold the objects in the order drawn.
    assert_laid_out_in_column_order(world, world.objects, registry)


@settings(max_examples=150, deadline=None)
@given(case=signature_worlds())
@example(case=(default_registry(), empty_world()))
@example(case=(default_registry(), one_signature_world(12)))
def test_a_world_space_lays_out_its_rows_when_read(case):
    # A world's space is made with its entries, its row count and its
    # symbol count; its row keys, the row of each symbol and its symbol
    # list are made when read, and agree with the entries.
    registry, world = case
    if any(o.cls not in registry.object_classes or o.region not in SCENE_LABELS
           or o.color not in (None, *registry.colors) for o in world.objects):
        with pytest.raises(InvalidSpec):
            enumerate_grounding_space(world, registry)
        return
    space = enumerate_grounding_space(world, registry)
    assert not {"row_keys", "row_of", "_symbols", "position"} & space.__dict__.keys()
    signatures, codes = world.signatures
    t, n = len(space.layout.constraints), len(world)
    assert len(space) == t + 2 * n
    assert space.rows == len(space.row_keys) == t + 2 * len(signatures)
    assert (space.entry_row.tolist(), space.entry_key.tolist()) == tuple(
        a.tolist() for a in _entries(space.row_keys))
    assert space.row_of.tolist() == [*range(t), *(t + 2 * codes).tolist(),
                                     *(t + 2 * codes + 1).tolist()]
    assert len(list(space)) == len(space)


def assert_laid_out_in_column_order(world, objects, registry):
    """The world's grounding space is the type space, symbol for symbol
    and row for row, then the action symbols and then the object symbols
    of ``objects``, each in column order; and it is the generic layout of
    the same symbols."""
    space = enumerate_grounding_space(world, registry)
    types = enumerate_grounding_type_space(registry)
    t, n = len(space.layout.constraints), len(objects)
    assert t == len(types) and len(space) == t + 2 * n
    assert laid_out(space)[:t] == laid_out(types)
    assert space.layout is types.layout
    assert space.layout.ordinal == {s.canon: c for c, s in enumerate(types)}
    assert [(s.variant, s.value) for s in list(space)[t:]] == [
        (v, o.id) for v in ("action", "object") for o in objects]
    generic = generic_space(objects, registry)
    assert laid_out(space) == laid_out(generic)
    assert fired_as_children(space) == fired_as_children(generic)
    # The constraints among any assignment's root-true symbols are its
    # leading rows.
    logits = np.random.default_rng(len(space)).normal(size=(2, len(space.row_keys)))
    assignment = Assignment(logits, space)
    assert assignment.root_constraints() == {
        s for s in assignment.trues[-1] if s.variant not in INSTANCE_VARIANTS}


@pytest.mark.parametrize("copies", [1, 8])
def test_grounding_space_of_a_built_world_is_in_column_order(registry, copies):
    # A build's columns are in order of smallest member row, which is not
    # id order: ``umbrella@3.0,1.0`` comes first, before ``ball@5.5,1.0``.
    observations = simulate(tiled(site_spec("site-1"), copies), registry)
    every = frozenset(registry.classifiers())
    world = build_world_model(observations, every, registry)
    columns = oracles.build_columns(observations, every, registry)
    assert columns[0].id == "umbrella@3.0,1.0" != world.objects[0].id
    assert_laid_out_in_column_order(world, columns, registry)


def assert_signatures_follow_the_objects(world, objects):
    """The column-derived signatures and digest equal the ones read off
    ``objects``, the world's objects in column order: signatures in order
    of first appearance among them, and one code per object."""
    assert len(objects) == len(world)
    index: dict[tuple, int] = {}
    codes = [index.setdefault((o.cls, o.color, o.region), len(index))
             for o in objects]
    signatures, got = world.signatures
    assert signatures == tuple(index)
    assert got.tolist() == codes
    assert world.digest() == frozenset(
        pair for o in objects
        for pair in (("class", o.cls), ("color", o.color), ("region", o.region))
        if pair[1] is not None)


@settings(max_examples=100, deadline=None)
@given(case=signature_worlds())
def test_signatures_and_digest_cover_every_object(case):
    _, world = case
    signatures, codes = world.signatures
    assert [signatures[c] for c in codes.tolist()] == [
        (o.cls, o.color, o.region) for o in world.objects]
    assert len(set(signatures)) == len(signatures)
    assert_signatures_follow_the_objects(world, world.objects)


@pytest.mark.parametrize("copies", [1, 8])
@pytest.mark.parametrize("site", ["site-1", "site-2"])
def test_signatures_and_digest_of_built_worlds(registry, site, copies):
    # Exact and noisy sensing, every classifier and no colour detector, the
    # whole log and filtered views of it.
    every = frozenset(registry.classifiers())
    classifier_sets = (every, frozenset(c for c in every if c.kind != "color_detector"))
    spec = tiled(site_spec(site), copies)
    for sensed in (spec, replace(spec, noise=0.2, clutter_rate=0.3)):
        log = simulate(sensed, registry)
        regions = sorted({o.scene_label for o in log})
        views = [log, log.partition(regions[:1])[0], log.partition(regions[1::2])[0]]
        for observations in views:
            for classifiers in classifier_sets:
                assert_signatures_follow_the_objects(
                    build_world_model(observations, classifiers, registry),
                    oracles.build_columns(observations, classifiers, registry))


def test_an_empty_build_is_the_world_model_of_no_objects(registry, site_logs):
    # No observations, no object detector, and no pose stage: each build
    # finds no object, and agrees with a world model of none.
    every = frozenset(registry.classifiers())
    log = site_logs["site-1"]
    builds = [build_world_model((), every, registry),
              build_world_model(log, {c for c in every if c.kind != "object_detector"},
                                registry),
              build_world_model(log, {c for c in every if c.kind != "pose_estimator"},
                                registry)]
    none = WorldModel.of((), (0.0, 0.0, 0.0))
    types = enumerate_grounding_type_space(registry)
    assert types is enumerate_grounding_type_space(registry)
    for world in [*builds, none]:
        assert len(world) == 0 and world.objects == () == none.objects
        signatures, codes = world.signatures
        assert signatures == () and codes.tolist() == []
        assert world.digest() == frozenset() == none.digest()
        space = enumerate_grounding_space(world, registry)
        assert len(space) == len(types) and space.layout is types.layout
    assert builds[2].total_cost > 0 and builds[2].cost_ledger


def test_instances_of_one_signature_share_a_row(registry):
    space = enumerate_grounding_space(one_signature_world(12), registry)
    rows = {s.variant: set() for s in space}
    for s, row in zip(space, space.row_of.tolist()):
        rows[s.variant].add(row)
    assert len(rows["object"]) == len(rows["action"]) == 1
    assert len(space.row_keys) == len(enumerate_grounding_type_space(registry)) + 2


def world_of(signatures) -> WorldModel:
    """A world of one object per (class, colour, region), in that order."""
    return WorldModel.of(objects=tuple(
        DetectedObject(id=f"{cls}@{k}.0,0.0", cls=cls, color=color,
                       pose=(float(k), 0.0, 0.0), region=region, provenance=frozenset())
        for k, (cls, color, region) in enumerate(signatures)), robot_pose=(0.0, 0.0, 0.0))


def test_signature_rows_do_not_depend_on_the_worlds_met_before():
    # A layout keeps each signature's key rows from the first world that
    # has it.  A fresh registry's layout meets worlds in different orders,
    # with a new signature, a failed one and a repeat of the first world;
    # each space has the entries of its own row keys, and the space a
    # layout that met only that world makes.
    layout = ClassifierRegistry()._grounding_layout
    cup, ball = ("cup", "red", "kitchen"), ("ball", None, "office")
    chair = ("chair", "blue", "hallway")
    worlds = [world_of([cup, ball]), world_of([ball, cup, ball]),
              world_of([chair, ball]), world_of([cup, ball]), world_of([])]
    for k, world in enumerate(worlds):
        if k == 3:
            # A signature outside the vocabulary fails, naming it, and
            # leaves the layout as it was for the worlds that follow.
            outside = ("drone", "red", "kitchen")
            with pytest.raises(InvalidSpec, match=re.escape(str(outside))):
                layout.space(world.id, [0, 1], (("umbrella", None, "lounge"), outside))
        signatures, codes = world.signatures
        space = layout.space(world.id, codes, signatures)
        assert (space.entry_row.tolist(), space.entry_key.tolist()) == tuple(
            a.tolist() for a in _entries(space.row_keys))
        alone = ClassifierRegistry()._grounding_layout.space(world.id, codes, signatures)
        assert space.row_keys == alone.row_keys
        assert space.row_of.tolist() == alone.row_of.tolist()
        assert space.entry_key.tolist() == alone.entry_key.tolist()


def test_cells_of_is_one_read_only_mask_per_pair_set(registry):
    layout = enumerate_grounding_type_space(registry).layout
    pairs = [("class", "cup"), ("color", "red"), ("region", "kitchen"), ("class", "drone")]
    mask = layout.cells_of(frozenset(pairs))
    again = layout.cells_of(set(reversed(pairs)))
    # A cell's name is (pair, variant); a pair's and a variant's first
    # item is a string.
    assert mask.tolist() == again.tolist() == [
        not isinstance(name, str) and name[0] in pairs for name in layout.names]
    assert mask.any() and not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[0] = True
    assert not layout.cells_of(()).any()


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


@pytest.mark.parametrize("kind, param, message", [
    ("object_detector", None, "object_detector needs a parameter"),
    ("color_detector", "", "color_detector needs a parameter"),
    ("noise_filter", "cup", "noise_filter takes no parameter"),
    ("laser", None, "unknown classifier kind 'laser'"),
])
def test_perception_symbol_checks_kind_and_parameter(kind, param, message):
    with pytest.raises(InvalidSpec) as excinfo:
        PerceptionSymbol(kind, param)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: GroundingSymbol("shape", "round").canon,
                 "unknown grounding variant 'shape'", id="grounding-variant"),
    pytest.param(lambda: relation_symbol("leftmost"),
                 "unknown relation kind 'leftmost'", id="relation-kind"),
    pytest.param(lambda: ClassifierRegistry(object_classes=("cup", "ball", "cup")),
                 "duplicate object class", id="duplicate-class"),
])
def test_symbols_and_registries_reject_unknown_or_repeated_names(make, message):
    with pytest.raises(InvalidSpec) as excinfo:
        make()
    assert type(excinfo.value) is InvalidSpec
    assert str(excinfo.value) == message


def test_cost_override_beats_kind_cost(registry):
    symbol = PerceptionSymbol("object_detector", "ball")
    override = CostModel(base_cost=9.0, per_item_cost=0.5)
    patched = ClassifierRegistry(
        cost_overrides=((symbol.canon, override),))
    assert patched.stages[symbol].cost == override
    other = PerceptionSymbol("object_detector", "cup")
    assert patched.stages[other].cost == registry.stages[other].cost


def listed_cost(registry, symbol) -> CostModel:
    """The cost rule read off the tables: the first override with the
    symbol's canon, else the cost of its kind."""
    for canon, model in registry.cost_overrides:
        if canon == symbol.canon:
            return model
    return dict(registry.kind_costs)[symbol.kind]


_COSTS = st.builds(CostModel, st.floats(0.0, 10.0), st.floats(0.0, 1.0))


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_cost_for_follows_the_tables(data):
    registry = default_registry()
    if data.draw(st.booleans()):
        registry = replace(registry,
                           object_classes=registry.object_classes + ("drone",))
    symbols = registry.classifiers()
    overridden = data.draw(st.lists(st.sampled_from(symbols), unique=True))
    registry = replace(
        registry,
        kind_costs=tuple((kind, data.draw(_COSTS)) for kind, _ in registry.kind_costs),
        cost_overrides=tuple((s.canon, data.draw(_COSTS)) for s in overridden))
    for symbol in symbols:
        assert registry.stages[symbol].cost == listed_cost(registry, symbol)


def test_unknown_classifier_rejected(registry):
    # A classifier outside the registry has no stage, and a build that
    # selects it raises before it runs anything.
    for symbol in (PerceptionSymbol("object_detector", "dragon"),
                   PerceptionSymbol("color_detector", "mauve")):
        assert symbol not in registry.stages
        with pytest.raises(UnknownClassifier):
            build_world_model((), {symbol, *registry.classifiers()}, registry)


_LOOK_UP_PICKLED = """
import pickle, sys
from groundling.symbols import default_registry
stages = default_registry().stages
for symbol in pickle.loads(sys.stdin.buffer.read()):
    print(stages[symbol].canon)
"""


def test_a_pickled_classifier_finds_its_stage_under_another_hash_seed():
    # A symbol keeps the hash of its fields made when it was made; a copy
    # unpickled where strings hash otherwise must hash its fields afresh,
    # or the stage table, keyed by hash, misses it.
    symbols = (PerceptionSymbol("object_detector", "cup"),
               PerceptionSymbol("color_detector", "red"), PerceptionSymbol("noise_filter"))
    package_root = str(Path(groundling.__file__).parents[1])
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (package_root, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-c", _LOOK_UP_PICKLED],
                              input=pickle.dumps(symbols), capture_output=True,
                              check=True, env=env)
        assert done.stdout.decode().split() == [s.canon for s in symbols]


def test_registry_equality_ignores_cost_table_order(registry):
    shuffled = tuple(reversed(registry.kind_costs))
    assert ClassifierRegistry(kind_costs=shuffled) == registry


def test_with_extra_class_extends_detectors(registry):
    extended = replace(registry, object_classes=registry.object_classes + ("drone",))
    assert "drone" in extended.object_classes
    assert PerceptionSymbol("object_detector", "drone") in set(
        extended.classifiers())
