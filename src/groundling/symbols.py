"""Symbol spaces and the perception-classifier registry.

Three families of discrete symbols are inferred by the correspondence
models:

* scene symbols -- one per scene label in the fixed eight-label taxonomy;
* perception symbols -- one per registered classifier (object detectors,
  color detectors, and the structural stages that turn detections into
  world-model objects);
* grounding symbols -- type-level constraints (object type, color, region,
  spatial relation) plus one object symbol and one navigate-to action
  symbol per detected object.

Every symbol renders to a canonical string; spaces are ordered
lexicographically by that string so symbol indices are stable across runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path

import numpy as np
import yaml

from .errors import (
    InvalidSpec,
    MALFORMED_INPUT,
    UnknownClassifier,
    UnknownSchemaVersion,
)

# Surface word sequences that name each scene label in instructions.
REGION_SURFACE_FORMS: dict[str, tuple[tuple[str, ...], ...]] = {
    "hallway": (("hallway",),),
    "kitchen": (("kitchen",),),
    "laboratory": (("laboratory",), ("lab",)),
    "lounge": (("lounge",),),
    "office": (("office",),),
    "parking_lot": (("parking", "lot"),),
    "warehouse": (("warehouse",),),
    "workshop": (("workshop",),),
}

# The fixed scene taxonomy, in sorted order.
SCENE_LABELS = tuple(REGION_SURFACE_FORMS)

DEFAULT_OBJECT_CLASSES = (
    "ball",
    "bottle",
    "chair",
    "cone",
    "couch",
    "cup",
    "fork",
    "keyboard",
    "microwave",
    "person",
    "suitcase",
    "umbrella",
)

DEFAULT_COLORS = ("black", "blue", "green", "red", "white", "yellow")

# Classifier kinds.
OBJECT_DETECTOR = "object_detector"
COLOR_DETECTOR = "color_detector"
BBOX_ESTIMATOR = "bbox_estimator"
POSE_ESTIMATOR = "pose_estimator"
NOISE_FILTER = "noise_filter"

STRUCTURAL_KINDS = (BBOX_ESTIMATOR, NOISE_FILTER, POSE_ESTIMATOR)

# Every classifier kind, in the order a world-model build runs them.
CLASSIFIER_KINDS = (OBJECT_DETECTOR, NOISE_FILTER, COLOR_DETECTOR,
                    BBOX_ESTIMATOR, POSE_ESTIMATOR)

RELATION_KINDS = ("farthest", "nearest")

REGISTRY_SCHEMA = 3


@dataclass(frozen=True)
class SemanticSymbol:
    """One scene label from the fixed taxonomy."""

    scene_label: str

    @property
    def canon(self) -> str:
        return f"scene={self.scene_label}"

    @property
    def variant(self) -> str:
        return "scene"

    @property
    def attributes(self) -> tuple[tuple[str, str], ...]:
        return (("scene", self.scene_label),)


@dataclass(frozen=True)
class PerceptionSymbol:
    """One runnable classifier: a detector, a color stage, or a structural stage."""

    kind: str
    param: str | None = None

    def __post_init__(self):
        if self.kind in (OBJECT_DETECTOR, COLOR_DETECTOR):
            if not self.param:
                raise InvalidSpec(f"{self.kind} needs a parameter")
        elif self.kind in STRUCTURAL_KINDS:
            if self.param is not None:
                raise InvalidSpec(f"{self.kind} takes no parameter")
        else:
            raise InvalidSpec(f"unknown classifier kind {self.kind!r}")

    @property
    def canon(self) -> str:
        if self.param is None:
            return self.kind
        return f"{self.kind}[{self.param}]"

    @property
    def variant(self) -> str:
        return {
            OBJECT_DETECTOR: "detector",
            COLOR_DETECTOR: "colordet",
            BBOX_ESTIMATOR: "bbox",
            POSE_ESTIMATOR: "posest",
            NOISE_FILTER: "denoise",
        }[self.kind]

    @property
    def attributes(self) -> tuple[tuple[str, str], ...]:
        if self.kind == OBJECT_DETECTOR:
            return (("class", self.param),)
        if self.kind == COLOR_DETECTOR:
            return (("color", self.param),)
        return ()


@dataclass(frozen=True)
class GroundingSymbol:
    """A grounding-space symbol.

    ``variant`` is one of objtype / color / region / rel / object / action;
    ``value`` carries the class, color, label, relation kind, or object id.
    Instance symbols (object, action) additionally carry the attributes of
    the detected object they denote, so features can compare them against
    child constraints.
    """

    variant: str
    value: str
    attrs: tuple[tuple[str, str], ...] = ()

    @property
    def canon(self) -> str:
        if self.variant == "objtype":
            return f"type[{self.value}]"
        if self.variant == "color":
            return f"color[{self.value}]"
        if self.variant == "region":
            return f"region[{self.value}]"
        if self.variant == "rel":
            return f"relation[{self.value}]"
        if self.variant == "object":
            return f"object[{self.value}]"
        if self.variant == "action":
            return f"action[navigate_to:{self.value}]"
        raise InvalidSpec(f"unknown grounding variant {self.variant!r}")

    @property
    def attributes(self) -> tuple[tuple[str, str], ...]:
        if self.variant == "objtype":
            return (("class", self.value),)
        if self.variant == "color":
            return (("color", self.value),)
        if self.variant == "region":
            return (("region", self.value),)
        if self.variant == "rel":
            return (("rel", self.value),)
        return self.attrs


def object_type(cls: str) -> GroundingSymbol:
    return GroundingSymbol("objtype", cls)


def color_symbol(color: str) -> GroundingSymbol:
    return GroundingSymbol("color", color)


def region_symbol(label: str) -> GroundingSymbol:
    return GroundingSymbol("region", label)


def relation_symbol(kind: str) -> GroundingSymbol:
    if kind not in RELATION_KINDS:
        raise InvalidSpec(f"unknown relation kind {kind!r}")
    return GroundingSymbol("rel", kind)


def _object_attrs(obj) -> tuple[tuple[str, str], ...]:
    attrs = [("class", obj.cls)]
    if obj.color is not None:
        attrs.append(("color", obj.color))
    if obj.region is not None:
        attrs.append(("region", obj.region))
    return tuple(attrs)


def object_instance(obj) -> GroundingSymbol:
    """Symbol for one detected object in the current world model."""
    return GroundingSymbol("object", obj.id, _object_attrs(obj))


def action_instance(obj) -> GroundingSymbol:
    """Navigate-to action targeting one detected object."""
    return GroundingSymbol("action", obj.id, _object_attrs(obj))


class SymbolSpace:
    """Ordered, duplicate-free collection of symbols for one domain.

    Symbols are sorted by canonical string, so a symbol's index is stable
    across runs; ``position`` maps each canonical string to its index.

    The space also indexes its symbols by variant and attribute pair.
    Every symbol has a few keys: its variant, and for each of its attribute
    pairs, the pair and the (pair, variant) cell.  Keys are numbered in the
    order the space's symbols first have them.  ``variants`` and ``pairs``
    list ``(key, variant)`` and ``(key, pair)``; ``cells`` maps each pair
    to the ``(key, variant)`` of its cells.  ``keys_of`` lists each
    symbol's keys, and so does entry ``e`` of the flat arrays: symbol
    ``entry_symbol[e]`` has key ``entry_key[e]``.  A symbol's attribute
    keys are distinct, so its cells are too.
    """

    def __init__(self, domain: str, symbols):
        ordered = sorted(symbols, key=lambda s: s.canon)
        position: dict[str, int] = {}
        # A variant is a string, a pair a (key, value) tuple, and a cell a
        # (pair, variant) tuple, so one dictionary numbers all three.
        key: dict = {}
        keys_of = []
        for j, sym in enumerate(ordered):
            canon = sym.canon
            if canon in position:
                raise InvalidSpec(f"duplicate symbol {canon}")
            position[canon] = j
            variant = sym.variant
            keys = [key.setdefault(variant, len(key))]
            for pair in sym.attributes:
                keys.append(key.setdefault(pair, len(key)))
                keys.append(key.setdefault((pair, variant), len(key)))
            keys_of.append(tuple(keys))
        variants, pairs, cells = [], [], {}
        for name, k in key.items():
            if isinstance(name, str):
                variants.append((k, name))
            elif isinstance(name[0], str):
                pairs.append((k, name))
            else:
                cells.setdefault(name[0], []).append((k, name[1]))
        self.domain = domain
        self.symbols = tuple(ordered)
        self.position = position
        self.variants = tuple(variants)
        self.pairs = tuple(pairs)
        self.cells = {p: tuple(c) for p, c in cells.items()}
        self.key_count = len(key)
        self.keys_of = tuple(keys_of)
        self.entry_symbol = np.repeat(np.arange(len(keys_of)),
                                      [len(keys) for keys in keys_of])
        self.entry_key = np.fromiter(itertools.chain.from_iterable(keys_of),
                                     dtype=np.intp, count=len(self.entry_symbol))

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __getitem__(self, j: int):
        return self.symbols[j]

    def __contains__(self, symbol) -> bool:
        return getattr(symbol, "canon", None) in self.position


@dataclass(frozen=True)
class CostModel:
    """Fixed invocation cost plus a per-scanned-item increment."""

    base_cost: float
    per_item_cost: float

    def __post_init__(self):
        if self.base_cost < 0 or self.per_item_cost < 0:
            raise InvalidSpec("costs must be non-negative")

    def cost(self, items_scanned: int) -> float:
        return self.base_cost + self.per_item_cost * items_scanned


# Default cost parameters, calibrated so that a full-registry build over the
# site-1 fixture comes to roughly 400 cost units (see tests).
_DEFAULT_COSTS = (
    (OBJECT_DETECTOR, CostModel(2.0, 0.1)),
    (COLOR_DETECTOR, CostModel(1.0, 0.03)),
    (BBOX_ESTIMATOR, CostModel(1.0, 0.08)),
    (POSE_ESTIMATOR, CostModel(1.0, 0.08)),
    (NOISE_FILTER, CostModel(0.5, 0.02)),
)


@dataclass(frozen=True)
class ClassifierRegistry:
    """Declares the available classifiers and their cost parameters.

    The registry also carries the object-class and color vocabularies.
    Scene labels are not registry data: they are the fixed taxonomy
    ``SCENE_LABELS`` that the grammar and the scene classifier share.
    """

    object_classes: tuple[str, ...] = DEFAULT_OBJECT_CLASSES
    colors: tuple[str, ...] = DEFAULT_COLORS
    kind_costs: tuple[tuple[str, CostModel], ...] = _DEFAULT_COSTS
    cost_overrides: tuple[tuple[str, CostModel], ...] = ()
    scene_cost_per_observation: float = 0.2

    def __post_init__(self):
        # Canonicalise cost-table ordering so registries compare equal no
        # matter how their tables were assembled (construction vs. a file
        # loader, say).
        for field_name in ("kind_costs", "cost_overrides"):
            table = tuple(sorted(getattr(self, field_name), key=lambda item: item[0]))
            object.__setattr__(self, field_name, table)
        if len(set(self.object_classes)) != len(self.object_classes):
            raise InvalidSpec("duplicate object class")
        if len(set(self.colors)) != len(self.colors):
            raise InvalidSpec("duplicate color")
        kinds = [kind for kind, _ in self.kind_costs]
        if kinds != sorted(CLASSIFIER_KINDS):
            raise InvalidSpec(f"kind_costs must price each of"
                              f" {sorted(CLASSIFIER_KINDS)} once, got {kinds}")
        canons = {c.canon for c in self.classifier_set}
        for canon, _ in self.cost_overrides:
            if canon not in canons:
                raise InvalidSpec(f"cost override for unknown classifier {canon}")
        if self.scene_cost_per_observation < 0:
            raise InvalidSpec("scene cost must be non-negative")

    @property
    def scene_labels(self) -> tuple[str, ...]:
        """The fixed scene taxonomy; no registry can change it."""
        return SCENE_LABELS

    def classifiers(self) -> tuple[PerceptionSymbol, ...]:
        out = [PerceptionSymbol(OBJECT_DETECTOR, c) for c in self.object_classes]
        out += [PerceptionSymbol(COLOR_DETECTOR, c) for c in self.colors]
        out += [PerceptionSymbol(kind) for kind in STRUCTURAL_KINDS]
        return tuple(sorted(out, key=lambda s: s.canon))

    @cached_property
    def classifier_set(self) -> frozenset[PerceptionSymbol]:
        return frozenset(self.classifiers())

    @cached_property
    def _perception_space(self) -> SymbolSpace:
        return SymbolSpace("perception", self.classifiers())

    def cost_for(self, symbol: PerceptionSymbol) -> CostModel:
        if symbol not in self.classifier_set:
            raise UnknownClassifier(symbol.canon)
        for canon, model in self.cost_overrides:
            if canon == symbol.canon:
                return model
        return dict(self.kind_costs)[symbol.kind]


def default_registry() -> ClassifierRegistry:
    return ClassifierRegistry()


@cache
def enumerate_semantic_space() -> SymbolSpace:
    """The fixed scene-symbol space; always eight symbols, built once."""
    return SymbolSpace("semantic", [SemanticSymbol(l) for l in SCENE_LABELS])


def enumerate_perception_space(registry: ClassifierRegistry) -> SymbolSpace:
    """One symbol per registered classifier; built once per registry."""
    return registry._perception_space


def _type_level_symbols(registry: ClassifierRegistry) -> list[GroundingSymbol]:
    syms = [object_type(c) for c in registry.object_classes]
    syms += [color_symbol(c) for c in registry.colors]
    syms += [region_symbol(l) for l in SCENE_LABELS]
    syms += [relation_symbol(k) for k in RELATION_KINDS]
    return syms


def enumerate_grounding_type_space(registry: ClassifierRegistry) -> SymbolSpace:
    """Constraint symbols only -- the subspace the grounding model trains on."""
    return SymbolSpace("grounding", _type_level_symbols(registry))


def enumerate_grounding_space(world, registry: ClassifierRegistry) -> SymbolSpace:
    """Type-level constraints plus object and action symbols for ``world``.

    The size is linear in the number of detected objects: two instance
    symbols per object on top of the fixed type-level set.
    """
    syms = _type_level_symbols(registry)
    for obj in world.objects:
        syms.append(object_instance(obj))
        syms.append(action_instance(obj))
    return SymbolSpace("grounding", syms)


def save_registry(registry: ClassifierRegistry, path) -> None:
    doc = {
        "schema": REGISTRY_SCHEMA,
        "object_classes": list(registry.object_classes),
        "colors": list(registry.colors),
        "kind_costs": {
            kind: {"base_cost": m.base_cost, "per_item_cost": m.per_item_cost}
            for kind, m in registry.kind_costs
        },
        "cost_overrides": {
            canon: {"base_cost": m.base_cost, "per_item_cost": m.per_item_cost}
            for canon, m in registry.cost_overrides
        },
        "scene_cost_per_observation": registry.scene_cost_per_observation,
    }
    Path(path).write_text(yaml.safe_dump(doc, sort_keys=True))


def load_registry(path) -> ClassifierRegistry:
    try:
        doc = yaml.safe_load(Path(path).read_text())
        if not isinstance(doc, dict):
            raise InvalidSpec("registry file is not a mapping")
        if doc.get("schema") != REGISTRY_SCHEMA:
            raise UnknownSchemaVersion(doc.get("schema"), REGISTRY_SCHEMA)
        kind_costs = tuple(
            (kind, CostModel(m["base_cost"], m["per_item_cost"]))
            for kind, m in sorted(doc["kind_costs"].items())
        )
        overrides = tuple(
            (canon, CostModel(m["base_cost"], m["per_item_cost"]))
            for canon, m in sorted(doc["cost_overrides"].items())
        )
        return ClassifierRegistry(
            object_classes=tuple(doc["object_classes"]),
            colors=tuple(doc["colors"]),
            kind_costs=kind_costs,
            cost_overrides=overrides,
            scene_cost_per_observation=float(doc["scene_cost_per_observation"]),
        )
    except (*MALFORMED_INPUT, yaml.YAMLError) as exc:
        raise InvalidSpec(f"malformed registry file {path}: {exc!r}") from exc
