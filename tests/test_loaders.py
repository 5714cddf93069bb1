"""File readers: every malformed input is a GroundlingError, never a crash."""

from __future__ import annotations

import copy
import json
import math
import re
from dataclasses import replace

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from groundling.correspondence import CorrespondenceModel, load_model, save_model
from groundling.corpus import load_corpus, save_corpus
from groundling.errors import GroundlingError, InvalidSpec
from groundling.fixtures import site_spec
from groundling.symbols import load_registry, save_registry
from groundling.world import (
    build_world_model,
    load_observations,
    save_observations,
    simulate,
)

LOADERS = {
    "observations": load_observations,
    "corpus": load_corpus,
    "model": load_model,
    "registry": load_registry,
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory, registry, site_logs, corpus_examples):
    """One small valid file per reader."""
    root = tmp_path_factory.mktemp("valid")
    paths = {name: root / name for name in LOADERS}
    save_observations(list(site_logs["site-1"])[2:5], paths["observations"])
    save_corpus(corpus_examples[:5], paths["corpus"])
    save_model(CorrespondenceModel(domain="semantic",
                                   weights={"bias|v=scene": 0.5, "w=red|v=scene": -1.25},
                                   regularization=0.01), paths["model"])
    save_registry(registry, paths["registry"])
    return paths


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "input"


def _records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def _write_records(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")


# --- specific faults ----------------------------------------------------------

@pytest.mark.parametrize("edit", [
    lambda r: r["sensed"][0]["rel"].__setitem__(0, float("nan")),
    lambda r: r["sensed"][0]["rel"].__setitem__(1, float("inf")),
    lambda r: r["robot_pose"].__setitem__(2, float("-inf")),
    lambda r: r["scene_scores"][0].__setitem__(1, float("nan")),
    lambda r: r["scene_scores"][0].__setitem__(1, float("inf")),
    lambda r: r.__setitem__("t", 2),
    lambda r: r.__setitem__("t", 2.0),
    lambda r: r.__setitem__("t", 2**63),
    lambda r: r["sensed"][0].__setitem__("apparent_class", ["cup"]),
    lambda r: r["sensed"][0]["rel"].pop(),
    lambda r: r.__setitem__("scene_label", "bathroom"),
    lambda r: r["sensed"][0].__setitem__("noisy", "false"),
    lambda r: r["sensed"][0].__setitem__("latent_id", 17),
], ids=["nan-rel", "inf-rel", "inf-robot-pose", "nan-scene-score",
        "inf-scene-score", "repeated-t", "float-t", "huge-t", "list-class",
        "short-rel", "unknown-scene-label", "string-noisy", "int-latent-id"])
def test_observation_log_rejects(edit, valid_files, tmp_path):
    records = _records(valid_files["observations"])
    edit(records[2])
    path = tmp_path / "obs.jsonl"
    _write_records(path, records)
    with pytest.raises(InvalidSpec, match=re.escape(f"{path} line 3:")):
        load_observations(path)


@pytest.mark.parametrize("edit", [
    {"template": "fancy"},
    {"verb": "run"},
    {"superlative": "biggest"},
    {"superlative": "nearest"},
    {"noun": "dragon"},
    {"color": "red"},
    {"region": "kitchen"},
    {"region_surface": "lab"},
    {"region": "kitchen", "region_surface": "lab"},
    {"text": "go to the farthest microwave"},
    {"color": "red", "text": "walk to the farthest red microwave"},
], ids=["unknown-template", "unknown-verb", "unknown-superlative",
        "superlative-off-text", "noun-off-text", "color-off-text",
        "region-without-surface", "surface-without-region",
        "surface-not-a-form", "text-off-fields", "template-off-slots"])
def test_corpus_line_whose_fields_disagree_is_rejected(edit, valid_files, tmp_path):
    # The first example reads "walk to the farthest microwave".
    records = _records(valid_files["corpus"])
    records[1] |= edit
    path = tmp_path / "corpus.jsonl"
    _write_records(path, records)
    with pytest.raises(InvalidSpec, match=re.escape(f"{path} line 2:")):
        load_corpus(path)


@pytest.mark.parametrize("name, other", [("observations", "corpus"),
                                         ("corpus", "observations")])
def test_a_file_of_the_other_kind_is_rejected(name, other, valid_files):
    # Both JSON-lines files are schema 1; only the header's kind tells them apart.
    with pytest.raises(InvalidSpec, match="header kind"):
        LOADERS[name](valid_files[other])


def test_log_of_a_zero_prior_scene_round_trips(registry, tmp_path):
    # A scene with prior 0 scores -inf: the log must read back the
    # scores it was given.
    observations = [
        replace(o, scene_scores=tuple((label, -math.inf if label == "kitchen" else score)
                                      for label, score in o.scene_scores))
        for o in simulate(site_spec("site-1"), registry)]
    path = tmp_path / "obs.jsonl"
    save_observations(observations, path)
    assert tuple(load_observations(path)) == tuple(observations)


@pytest.mark.parametrize("edit", [
    lambda doc: doc["weights"].__setitem__("bias|v=scene", True),
    lambda doc: doc["weights"].__setitem__("bias|v=scene", "0.5"),
    lambda doc: doc["weights"].__setitem__("bias|v=scene", float("nan")),
    lambda doc: doc["weights"].__setitem__("bias|v=scene", float("-inf")),
    lambda doc: doc.__setitem__("regularization", -1.0),
    lambda doc: doc.__setitem__("regularization", float("inf")),
    lambda doc: doc.__setitem__("domain", 3),
], ids=["bool-weight", "string-weight", "nan-weight", "infinite-weight",
        "negative-regularization", "infinite-regularization", "int-domain"])
def test_model_file_rejects(edit, valid_files, tmp_path):
    doc = json.loads(valid_files["model"].read_text())
    edit(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidSpec, match=re.escape(str(path))):
        load_model(path)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_undecodable_bytes_are_invalid(name, valid_files, tmp_path):
    path = tmp_path / name
    path.write_bytes(valid_files[name].read_bytes()[:40] + b"\xff\xfe\xfa\n")
    with pytest.raises(InvalidSpec):
        LOADERS[name](path)


@pytest.mark.parametrize("key", ["object_classes", "colors", "kind_costs",
                                 "cost_overrides", "scene_cost_per_observation"])
def test_registry_file_rejects_missing_key(key, valid_files, tmp_path):
    # No key falls back to a default: a registry without kind_costs would
    # load and then fail every build, and the built-in scene cost is 0.2.
    doc = yaml.safe_load(valid_files["registry"].read_text())
    del doc[key]
    path = tmp_path / "registry.yaml"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(InvalidSpec):
        load_registry(path)


@pytest.mark.parametrize("edit", [
    lambda doc: doc["colors"].append(doc["colors"][0]),
    lambda doc: doc["kind_costs"].pop("noise_filter"),
    lambda doc: doc["kind_costs"].__setitem__(
        "laser", {"base_cost": 1.0, "per_item_cost": 0.1}),
    lambda doc: doc["cost_overrides"].__setitem__(
        "object_detector[dragon]", {"base_cost": 1.0, "per_item_cost": 0.1}),
    lambda doc: doc.__setitem__("object_classes", "cup"),
    lambda doc: doc.__setitem__("colors", [1, 2]),
    lambda doc: doc.__setitem__("scene_cost_per_observation", float("nan")),
    lambda doc: doc["kind_costs"]["noise_filter"].__setitem__("base_cost", float("inf")),
    lambda doc: doc["kind_costs"]["noise_filter"].__setitem__("per_item_cost", True),
    lambda doc: doc.__setitem__("scene_cost_per_observation", "0.2"),
    lambda doc: doc["kind_costs"]["noise_filter"].__setitem__("base_cost", 10**400),
    lambda doc: doc.__setitem__("object_classes", []),
    lambda doc: doc.__setitem__("colors", []),
    lambda doc: doc["object_classes"].append("Vase"),
    lambda doc: doc["object_classes"].append("ice cream"),
    lambda doc: doc["colors"].append("navy-blue"),
], ids=["repeated-color", "kind-costs-lack-a-kind", "kind-costs-unknown-kind",
        "override-unknown-classifier", "string-object-classes", "int-colors",
        "nan-scene-cost", "inf-base-cost", "bool-per-item-cost", "string-scene-cost",
        "huge-int-base-cost", "no-object-classes", "no-colors", "upper-case-class",
        "two-word-class", "punctuated-color"])
def test_registry_file_rejects_inconsistent_tables(edit, valid_files, tmp_path):
    # Each of these would load, then fail or be ignored at the first build.
    doc = yaml.safe_load(valid_files["registry"].read_text())
    edit(doc)
    path = tmp_path / "registry.yaml"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(InvalidSpec, match=re.escape(str(path))):
        load_registry(path)


@pytest.mark.parametrize("name", ["registry"])
def test_unparsable_yaml_is_invalid(name, tmp_path):
    path = tmp_path / f"{name}.yaml"
    path.write_text("a: [1, 2\n")
    with pytest.raises(InvalidSpec):
        LOADERS[name](path)


# --- properties -----------------------------------------------------------------

def _outcome(loader, path):
    """Load ``path``; a GroundlingError is an accepted outcome, and an
    ``InvalidSpec`` names the file."""
    try:
        return loader(path)
    except InvalidSpec as exc:
        assert str(path) in str(exc)
    except GroundlingError:
        pass
    return None


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(LOADERS)), blob=st.binary(max_size=300))
def test_arbitrary_bytes_load_or_raise_domain_error(name, blob, scratch_file):
    scratch_file.write_bytes(blob)
    _outcome(LOADERS[name], scratch_file)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    # integers past int64 and past the largest float
    | st.sampled_from([2**63, -2**63 - 1, 10**400]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=6,
)


def _paths(doc, prefix=()):
    """Every location in a JSON document, the document itself first."""
    yield prefix
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated(draw, doc):
    """``doc`` with one location replaced by a JSON value, or removed."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return draw(JSON_VALUES)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JSON_VALUES)
    return doc


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(LOADERS)), data=st.data())
def test_one_field_mutations_load_or_raise_domain_error(
        name, data, valid_files, scratch_file, registry):
    if name == "model":
        doc = json.loads(valid_files["model"].read_text())
        scratch_file.write_text(json.dumps(data.draw(mutated(doc))))
    elif name == "registry":
        doc = yaml.safe_load(valid_files["registry"].read_text())
        scratch_file.write_text(yaml.safe_dump(data.draw(mutated(doc))))
    else:
        records = _records(valid_files[name])
        line = data.draw(st.integers(0, len(records) - 1))
        records[line] = data.draw(mutated(records[line]))
        _write_records(scratch_file, records)
    loaded = _outcome(LOADERS[name], scratch_file)
    if name == "model" and loaded is not None:
        values = [*loaded.weights.values(), loaded.regularization]
        assert all(type(v) is float and math.isfinite(v) for v in values)
    if name == "observations" and loaded is not None:
        try:
            build_world_model(loaded, registry.classifiers(), registry)
        except GroundlingError:
            pass
