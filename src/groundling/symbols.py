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

Three closed vocabularies are one table each: ``KIND_TABLE`` gives each
classifier kind, in build order, its variant and the attribute its
parameter names, ``GROUNDING_VARIANTS`` each grounding variant its canon
form and the attribute its value names, and ``SUPERLATIVE_RELATIONS`` the
relation each superlative names.  The kind, instance-variant and
relation lists derive from them.

Every symbol renders to a canonical string.  A space lays out its
constraint symbols first, sorted by that string so their indices are
stable across runs; a grounding space then holds a world's action
symbols and then its object symbols, each block in the world's column
order.

A symbol's logit sums weights over its layout keys: its variant, and for
each attribute pair the pair and the (pair, variant) cell.  Each domain
has one ``Layout``: it numbers the keys, holds the constraint symbols
and what each fires when it is a resolved child, and makes every space
of the domain, which groups symbols with the same keys into rows.  The
semantic layout is built once per process, the perception and grounding
layouts once per registry.  The grounding layout also numbers every key
an object or action symbol over the registry's classes, colours and
scene labels can have.  Its space with no world is the type-level space
that training uses; a world's space only adds one action row and one
object row per distinct (class, colour, region) signature, by lookups
into it.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import asdict, dataclass
from functools import cache, cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np
import yaml

from .errors import (
    InvalidSpec,
    UnknownSchemaVersion,
    number,
    reading,
    typed,
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

_PUNCT = re.compile(r"[^\w\s]")


def split_words(text: str) -> list[str]:
    """The words of ``text``: lower-cased, every punctuation mark read as a
    space, split on whitespace.  This is how the grammar tokenizes an
    instruction, so a registry name must be its own one word."""
    return _PUNCT.sub(" ", text.lower()).split()


# Classifier kinds.
OBJECT_DETECTOR = "object_detector"
COLOR_DETECTOR = "color_detector"
BBOX_ESTIMATOR = "bbox_estimator"
POSE_ESTIMATOR = "pose_estimator"
NOISE_FILTER = "noise_filter"

# Each classifier kind, in build order: (variant, attribute its parameter
# names); a structural stage names none and takes no parameter.
KIND_TABLE = {
    OBJECT_DETECTOR: ("detector", "class"),
    NOISE_FILTER: ("denoise", None),
    COLOR_DETECTOR: ("colordet", "color"),
    BBOX_ESTIMATOR: ("bbox", None),
    POSE_ESTIMATOR: ("posest", None),
}
CLASSIFIER_KINDS = tuple(KIND_TABLE)
STRUCTURAL_KINDS = tuple(k for k, (_, attribute) in KIND_TABLE.items()
                         if attribute is None)

# Every superlative the grammar reads, sorted, and the relation it names.
SUPERLATIVE_RELATIONS = {"closest": "nearest", "farthest": "farthest", "nearest": "nearest"}
RELATION_KINDS = tuple(sorted(set(SUPERLATIVE_RELATIONS.values())))

# Each grounding variant: (canon form of its value, attribute its value
# names).  An instance variant's value is an object id and names none: its
# symbols denote one detected object each, and carry that object's
# attributes.  The symbols of every other variant are constraints.
GROUNDING_VARIANTS = {
    "objtype": ("type[{}]", "class"),
    "color": ("color[{}]", "color"),
    "region": ("region[{}]", "region"),
    "rel": ("relation[{}]", "rel"),
    "action": ("action[navigate_to:{}]", None),
    "object": ("object[{}]", None),
}
INSTANCE_VARIANTS = tuple(v for v, (_, attribute) in GROUNDING_VARIANTS.items()
                          if attribute is None)

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
        if self.kind not in KIND_TABLE:
            raise InvalidSpec(f"unknown classifier kind {self.kind!r}")
        if KIND_TABLE[self.kind][1] is None:
            if self.param is not None:
                raise InvalidSpec(f"{self.kind} takes no parameter")
        elif not self.param:
            raise InvalidSpec(f"{self.kind} needs a parameter")
        # Every table lookup of a build hashes its symbol: hash it once.
        object.__setattr__(self, "_hash", hash((self.kind, self.param)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # A copy, in this process or another, hashes its fields afresh.
        return PerceptionSymbol, (self.kind, self.param)

    @property
    def canon(self) -> str:
        if self.param is None:
            return self.kind
        return f"{self.kind}[{self.param}]"

    @property
    def variant(self) -> str:
        return KIND_TABLE[self.kind][0]

    @property
    def attributes(self) -> tuple[tuple[str, str], ...]:
        attribute = KIND_TABLE[self.kind][1]
        return () if attribute is None else ((attribute, self.param),)


# One symbol per structural kind: every registry's classifiers hold these
# same objects.
STRUCTURAL_SYMBOLS = {kind: PerceptionSymbol(kind) for kind in STRUCTURAL_KINDS}


@dataclass(frozen=True)
class GroundingSymbol:
    """A grounding-space symbol.

    ``variant`` is a key of ``GROUNDING_VARIANTS``; ``value`` carries the
    class, color, label, relation kind, or object id.  Instance symbols
    (object, action) additionally carry the attributes of the detected
    object they denote, so features can compare them against child
    constraints.
    """

    variant: str
    value: str
    attrs: tuple[tuple[str, str], ...] = ()

    def _form(self) -> tuple[str, str | None]:
        try:
            return GROUNDING_VARIANTS[self.variant]
        except KeyError:
            raise InvalidSpec(f"unknown grounding variant {self.variant!r}") from None

    @property
    def canon(self) -> str:
        return self._form()[0].format(self.value)

    @property
    def attributes(self) -> tuple[tuple[str, str], ...]:
        attribute = self._form()[1]
        return self.attrs if attribute is None else ((attribute, self.value),)


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


# The attributes an object signature can have: class, colour, region.
_SIGNATURE_ATTRIBUTES = 3


def signature_attrs(cls: str, color: str | None,
                    region: str | None) -> tuple[tuple[str, str], ...]:
    """The attributes of an object with this (class, colour, region)."""
    attrs = [("class", cls)]
    if color is not None:
        attrs.append(("color", color))
    if region is not None:
        attrs.append(("region", region))
    return tuple(attrs)


def action_instance(obj) -> GroundingSymbol:
    """Navigate-to action targeting one detected object."""
    return GroundingSymbol("action", obj.id,
                           signature_attrs(obj.cls, obj.color, obj.region))


def key_names(variant: str, attributes) -> tuple:
    """The layout keys of a symbol of ``variant`` with ``attributes``.

    The names come in the order the symbol's logit adds the keys' weights.
    A symbol of variant ``v`` has the key ``v`` and, for each of its
    attribute pairs ``p`` in order, the keys ``p`` and ``(p, v)``: a
    variant is a string, a pair a (key, value) tuple and a cell a
    (pair, variant) tuple.  A symbol's attribute keys are distinct, so its
    cells are too.
    """
    names = [variant]
    for pair in attributes:
        names += (pair, (pair, variant))
    return tuple(names)


class KeyTable(dict):
    """A dict that makes a missing value as ``make(key)``, once, and keeps
    it."""

    def __init__(self, make) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _entries(row_keys) -> tuple[np.ndarray, np.ndarray]:
    """``(entry_row, entry_key)`` of rows with the keys ``row_keys``: entry
    ``e`` is key ``entry_key[e]`` of row ``entry_row[e]``."""
    lengths = list(map(len, row_keys))
    return (np.repeat(np.arange(len(lengths)), lengths),
            np.fromiter(itertools.chain.from_iterable(row_keys), dtype=np.intp,
                        count=sum(lengths)))


class Layout:
    """One domain's symbol layout: its keys, its constraints, its spaces.

    Keys are layout keys: variants, attribute pairs and cells.
    ``names[k]`` is the name of key ``k`` (see ``key_names``) and
    ``index`` maps a name to its number.  The keys are the constraint
    symbols', in canon order and in the order each first has them, and
    then, when ``instance_pairs`` is given, every key an action or object
    symbol with some of those attribute pairs can have.  ``variants`` and
    ``pairs`` list ``(key, variant)`` and ``(key, pair)``, and ``cells``
    maps each pair to the ``(key, variant)`` of its cells, in key order.

    The T ``constraints``, sorted by canon, are symbols and rows 0 to
    T - 1 of every space the layout makes, and ``constraint_keys[c]`` are
    constraint ``c``'s keys, its variant's first.  A world adds, for its
    i-th distinct (class, colour, region) signature, row T + 2i for the
    action symbols and row T + 2i + 1 for the object symbols that have it.

    A constraint resolved true at a phrase conditions the phrase's
    parent, and the layout holds what each one fires as a child, so
    inference reads children as ordinals and makes or reads no symbol.
    ``ordinal`` maps each constraint's canon to ``c``.  Constraint ``c``
    fires the token ``cv[cv_rank[c]]``, ``cv=`` its variant; ``cv`` is
    sorted, so the ranks sort as the variants do.  A parent's row ``c``,
    which repeats it, fires ``ceq`` at its variant's key
    ``constraint_keys[c][0]``, and ``cmatch_cells[c]`` lists the keys of
    the cells of its attribute pairs, where ``cmatch`` fires.

    A constraint's attribute pair names its variant's key and its value,
    so no two constraints share a pair, nor a cell; constraints that did
    would make a set of children fire ``cmatch`` at a cell twice, and
    raise ``InvalidSpec``.

    ``Layout.stack`` lays several domains' layouts end to end, so that one
    walk of a parse tree scores them all: the first part's keys and
    constraints, then the next part's, each part's in its own order.
    ``parts`` lists ``(layout, keys, columns)``: a part, the slice of the
    keys it numbers and the slice of the symbols its constraints are.  A
    layout that is no stack is its own one part, over every key and every
    symbol, instances included.
    """

    def __init__(self, domain: str, constraint_symbols, instance_pairs=(),
                 parts=()):
        self.domain = domain
        # A stack keeps its parts' constraints in their order.
        self.constraints = tuple(constraint_symbols if parts else
                                 sorted(constraint_symbols, key=lambda s: s.canon))
        pairs = [pair for s in self.constraints for pair in s.attributes]
        if len(set(pairs)) < len(pairs):
            raise InvalidSpec("constraint symbols share an attribute pair")
        named = [key_names(s.variant, s.attributes) for s in self.constraints]
        self.names = tuple(dict.fromkeys(itertools.chain(
            *named, *(key_names(v, instance_pairs)
                      for v in INSTANCE_VARIANTS if instance_pairs))))
        if parts and self.names != tuple(n for part in parts for n in part.names):
            raise InvalidSpec("stacked layouts must hold constraint keys only,"
                              " and no key of another")
        self.parts = self._parts(parts)
        self.index = {name: k for k, name in enumerate(self.names)}
        self.variants = tuple((k, n) for k, n in enumerate(self.names)
                              if isinstance(n, str))
        self.pairs = tuple((k, n) for k, n in enumerate(self.names)
                           if not isinstance(n, str) and isinstance(n[0], str))
        cells: dict = {}
        for k, name in enumerate(self.names):
            if not isinstance(name, str) and not isinstance(name[0], str):
                cells.setdefault(name[0], []).append((k, name[1]))
        self.cells = {pair: tuple(c) for pair, c in cells.items()}
        self.constraint_keys = tuple(tuple(map(self.index.__getitem__, names))
                                     for names in named)
        self.ordinal = {s.canon: c for c, s in enumerate(self.constraints)}
        self.cv = tuple(sorted({f"cv={s.variant}" for s in self.constraints}))
        rank = {token: r for r, token in enumerate(self.cv)}
        self.cv_rank = tuple(rank[f"cv={s.variant}"] for s in self.constraints)
        self.cmatch_cells = tuple(tuple(k for pair in s.attributes
                                        for k, _ in self.cells.get(pair, ()))
                                  for s in self.constraints)
        self._entries = _entries(self.constraint_keys)
        self._signature_keys = KeyTable(self._keys_of)
        # Signature s's action and object keys are rows 0 and 1 of
        # _key_rows[_signature_number[s]], padded with -1 to the widest
        # symbol's: a variant, then a pair and a cell per attribute.
        self._signature_number = KeyTable(self._add_key_rows)
        self._key_rows = np.empty((0, 2, 1 + 2 * _SIGNATURE_ATTRIBUTES), dtype=np.intp)
        self._cells = KeyTable(self._cell_mask)

    @classmethod
    def stack(cls, layouts) -> Layout:
        """The layouts' keys and constraints, end to end, as one domain."""
        return cls("+".join(part.domain for part in layouts),
                   [s for part in layouts for s in part.constraints], parts=tuple(layouts))

    def _parts(self, parts) -> tuple:
        if not parts:
            return ((self, slice(0, None), slice(0, None)),)
        keys = [0, *itertools.accumulate(len(part.names) for part in parts)]
        columns = [0, *itertools.accumulate(len(part.constraints) for part in parts)]
        return tuple((part, slice(*keys[i:i + 2]), slice(*columns[i:i + 2]))
                     for i, part in enumerate(parts))

    def cells_of(self, pairs) -> np.ndarray:
        """A mask over the keys: the cells of ``pairs`` that are numbered.

        The mask is made once per set of pairs and kept, and it is
        read-only.
        """
        return self._cells[frozenset(pairs)]

    def _cell_mask(self, pairs: frozenset) -> np.ndarray:
        fired = np.zeros(len(self.names), dtype=bool)
        fired[[k for p in pairs for k, _ in self.cells.get(p, ())]] = True
        fired.flags.writeable = False
        return fired

    def tokens(self, own, kids):
        """What a phrase whose own tokens are ``own`` fires given ``kids``,
        the ordinals of its children's true constraints: ``own``, then
        ``child_tokens(kids)``.  Training reads a phrase's token set here;
        inference scores ``own`` and then ``child_tokens(kids)`` in turn."""
        if not kids:
            return own
        return [*own, *self.child_tokens(kids)]

    def child_tokens(self, kids) -> list[str]:
        """The ``cv=`` token of each distinct variant among the constraints
        ``kids`` (ordinals), in sorted order: the one place the ``cv=``
        rule is spelled."""
        cv, rank = self.cv, self.cv_rank
        return [cv[r] for r in sorted({rank[c] for c in kids})]

    @cached_property
    def constraint_space(self) -> SymbolSpace:
        """The space of the constraint symbols alone: a world with no objects."""
        return self.space()

    def _keys_of(self, signature) -> tuple:
        """The keys of the (action, object) symbols of one signature.

        An attribute the layout does not number raises ``InvalidSpec``.
        """
        attrs = signature_attrs(*signature)
        try:
            return tuple(tuple(self.index[n] for n in key_names(v, attrs))
                         for v in INSTANCE_VARIANTS)
        except KeyError:
            raise InvalidSpec(f"object signature {signature} is outside the"
                              f" {self.domain} vocabulary") from None

    def _add_key_rows(self, signature) -> int:
        rows = np.full(self._key_rows.shape[1:], -1, dtype=np.intp)
        for row, keys in zip(rows, self._signature_keys[signature]):
            row[:len(keys)] = keys
        self._key_rows = np.concatenate((self._key_rows, rows[None]))
        return len(self._key_rows) - 1

    def space(self, name=None, codes=(), signatures=()) -> SymbolSpace:
        """The space of the constraint symbols and of the objects' instances.

        Object ``i`` has the id ``name(i)`` and the signature
        ``signatures[codes[i]]``.  The T constraint symbols come first;
        then object ``i``'s action symbol is symbol T + i and its object
        symbol T + n + i: instances are laid out in object order, not
        sorted.  The space is made with only what a walk reads: its
        entries, its row count and its symbol count.

        The constraint rows' entries are the layout's.  The layout keeps
        each signature's keys, and its action and object rows of keys
        padded to one width, from the first world that has it; a world's
        instance entries are those rows, gathered by signature, less the
        padding.  A signature outside the layout's vocabulary raises
        ``InvalidSpec`` here.
        """
        entries, t = self._entries, len(self.constraints)
        if signatures:
            number = np.fromiter(map(self._signature_number.__getitem__, signatures),
                                 dtype=np.intp, count=len(signatures))
            padded = self._key_rows.take(number, axis=0).reshape(2 * len(number), -1)
            fired = padded >= 0
            entries = (np.concatenate((entries[0], t + fired.nonzero()[0])),
                       np.concatenate((entries[1], padded[fired])))
        return SymbolSpace(self, entries, np.asarray(codes, dtype=np.intp), signatures, name)


class SymbolSpace:
    """Ordered, duplicate-free collection of symbols for one domain.

    ``layout`` is the domain's ``Layout``, which numbers the keys and
    holds the T constraint symbols: they come first, sorted by canonical
    string, so a symbol's index is stable across runs, and they are
    symbols and rows 0 to T - 1.  A grounding space then holds the
    world's action symbols and then its object symbols, each block in the
    world's column order: object ``i`` has the signature
    ``signatures[codes[i]]`` and the id ``name(i)``.  ``position`` maps
    each canonical string to its index.

    A symbol's logit is a sum over its layout keys (``key_names``).
    Symbols with the same keys share a row: the i-th signature's action
    symbols share row T + 2i and its object symbols row T + 2i + 1.  Row
    ``r`` has the keys ``row_keys[r]``, symbol ``j`` is in row
    ``row_of[j]``, and entry ``e`` of the flat arrays is key
    ``entry_key[e]`` of row ``entry_row[e]``; ``rows`` counts the rows and
    ``len`` the symbols, T + 2n.  Only instance symbols share rows: a
    constraint symbol's keys name its variant and value.

    Spaces come from ``Layout.space``, through the ``enumerate_*``
    functions.  Inference reads only the entries and the two counts, so
    ``row_keys``, ``row_of`` and the symbol list are made on first read,
    and an instance symbol, and its object's name, only when it is read.
    """

    def __init__(self, layout: Layout, entries, codes: np.ndarray, signatures,
                 name=None) -> None:
        self.domain = layout.domain
        self.layout = layout
        self.entry_row, self.entry_key = entries
        t = len(layout.constraints)
        self.rows = t + 2 * len(signatures)
        self._size = t + 2 * len(codes)
        self._codes, self._signatures, self._name = codes, signatures, name

    @cached_property
    def row_keys(self) -> tuple:
        keys = self.layout._signature_keys
        return self.layout.constraint_keys + tuple(itertools.chain.from_iterable(
            map(keys.__getitem__, self._signatures)))

    @cached_property
    def row_of(self) -> np.ndarray:
        t = len(self.layout.constraints)
        actions = t + 2 * self._codes
        return np.concatenate((np.arange(t), actions, actions + 1))

    @cached_property
    def _symbols(self) -> list:
        # None marks an instance symbol not yet made.
        constraints = self.layout.constraints
        return [*constraints, *[None] * (self._size - len(constraints))]

    @cached_property
    def position(self) -> dict[str, int]:
        return {s.canon: j for j, s in enumerate(self)}

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        return map(self.__getitem__, range(self._size))

    def __getitem__(self, j: int):
        symbols = self._symbols
        symbol = symbols[j]
        if symbol is None:
            j = range(self._size)[j]
            symbol = symbols[j] = self._instance(j)
        return symbol

    def _instance(self, j: int) -> GroundingSymbol:
        t, n = len(self.layout.constraints), len(self._codes)
        variant, i = divmod(j - t, n)
        return GroundingSymbol(INSTANCE_VARIANTS[variant], self._name(i),
                               signature_attrs(*self._signatures[self._codes[i]]))


@dataclass(frozen=True)
class CostModel:
    """Fixed invocation cost plus a per-scanned-item increment."""

    base_cost: float
    per_item_cost: float

    def __post_init__(self):
        number(self.base_cost, "base_cost", 0)
        number(self.per_item_cost, "per_item_cost", 0)

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


class Stage(NamedTuple):
    """One classifier's row of its registry's stage table."""

    rank: int
    symbol: PerceptionSymbol
    canon: str
    cost: CostModel


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
        # The corpus samples a class and a colour for every instruction.
        if not self.object_classes or not self.colors:
            raise InvalidSpec("object_classes and colors must not be empty")
        # An instruction names a class or colour in one word.
        for name in (*self.object_classes, *self.colors):
            if split_words(name) != [name]:
                raise InvalidSpec(f"{name!r} is not one lower-case word"
                                  " an instruction can spell")
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
        number(self.scene_cost_per_observation, "scene_cost_per_observation", 0)

    @property
    def scene_labels(self) -> tuple[str, ...]:
        """The fixed scene taxonomy; no registry can change it."""
        return SCENE_LABELS

    def classifiers(self) -> tuple[PerceptionSymbol, ...]:
        """Every registered classifier, sorted by canon.

        The tuple is made once per registry, and every classifier is one
        object: the classifier set, the perception layout and the stage
        table hold these same symbols, and the structural stages are the
        module's ``STRUCTURAL_SYMBOLS``.
        """
        return self._classifiers

    @cached_property
    def _classifiers(self) -> tuple[PerceptionSymbol, ...]:
        out = [PerceptionSymbol(OBJECT_DETECTOR, c) for c in self.object_classes]
        out += [PerceptionSymbol(COLOR_DETECTOR, c) for c in self.colors]
        out += STRUCTURAL_SYMBOLS.values()
        return tuple(sorted(out, key=lambda s: s.canon))

    @cached_property
    def classifier_set(self) -> frozenset[PerceptionSymbol]:
        return frozenset(self.classifiers())

    @cached_property
    def _perception_layout(self) -> Layout:
        return Layout("perception", self.classifiers())

    @cached_property
    def lexicon(self) -> dict[str, frozenset[str]]:
        """The grammar's word -> preterminal categories for this registry's
        vocabulary (``grammar.lexicon``), made once per registry."""
        from .grammar import lexicon
        return lexicon(self)

    @cached_property
    def _instruction_layout(self) -> Layout:
        return Layout.stack((enumerate_semantic_space().layout, self._perception_layout))

    @cached_property
    def _grounding_layout(self) -> Layout:
        return Layout("grounding", _type_level_symbols(self),
                      [("class", c) for c in self.object_classes]
                      + [("color", c) for c in self.colors]
                      + [("region", l) for l in SCENE_LABELS])

    @cached_property
    def stages(self) -> dict[PerceptionSymbol, Stage]:
        """Each classifier's ``Stage``: its place in build order, by kind
        in ``CLASSIFIER_KINDS`` order and then by canon, its canon, and its
        cost model, its override, else its kind's.  The table is in build
        order, so a build walks it to run the stages it selects."""
        kinds, overrides = dict(self.kind_costs), dict(self.cost_overrides)
        order = sorted(self.classifiers(),
                       key=lambda c: (CLASSIFIER_KINDS.index(c.kind), c.canon))
        return {c: Stage(rank, c, c.canon, overrides.get(c.canon, kinds[c.kind]))
                for rank, c in enumerate(order)}


def default_registry() -> ClassifierRegistry:
    return ClassifierRegistry()


@cache
def enumerate_semantic_space() -> SymbolSpace:
    """The fixed scene-symbol space; always eight symbols, built once."""
    return Layout("semantic", [SemanticSymbol(l) for l in SCENE_LABELS]).constraint_space


def enumerate_perception_space(registry: ClassifierRegistry) -> SymbolSpace:
    """One symbol per registered classifier; built once per registry."""
    return registry._perception_layout.constraint_space


def enumerate_instruction_space(registry: ClassifierRegistry) -> SymbolSpace:
    """The semantic symbols, then the perception symbols, as one space.

    Its layout is ``Layout.stack`` of the two domains' layouts, built once
    per registry, so that one walk of a parse tree scores both.
    """
    return registry._instruction_layout.constraint_space


def _type_level_symbols(registry: ClassifierRegistry) -> list[GroundingSymbol]:
    syms = [object_type(c) for c in registry.object_classes]
    syms += [color_symbol(c) for c in registry.colors]
    syms += [region_symbol(l) for l in SCENE_LABELS]
    syms += [relation_symbol(k) for k in RELATION_KINDS]
    return syms


def enumerate_grounding_type_space(registry: ClassifierRegistry) -> SymbolSpace:
    """Constraint symbols only -- the subspace the grounding model trains on.

    It is the grounding layout's space with no world, cached on the
    registry: its layout also numbers the instance keys, which no row of
    it has, and is every world's space's layout.
    """
    return registry._grounding_layout.constraint_space


def enumerate_grounding_space(world, registry: ClassifierRegistry) -> SymbolSpace:
    """Type-level constraints plus object and action symbols for ``world``.

    The size is linear in the number of detected objects: two instance
    symbols per object on top of the fixed type-level set.  The space is
    laid out on the registry's grounding layout from each object's
    signature (``WorldModel.signatures``), in the world's column order, so
    objects that share one share a row; an instance symbol names its
    object (``WorldModel.id``) only when it is read.  An object whose
    class, colour or region the registry cannot name raises
    ``InvalidSpec``.
    """
    signatures, codes = world.signatures
    return registry._grounding_layout.space(world.id, codes, signatures)


def save_registry(registry: ClassifierRegistry, path) -> None:
    doc = {
        "schema": REGISTRY_SCHEMA,
        "object_classes": list(registry.object_classes),
        "colors": list(registry.colors),
        "kind_costs": {kind: asdict(m) for kind, m in registry.kind_costs},
        "cost_overrides": {canon: asdict(m) for canon, m in registry.cost_overrides},
        "scene_cost_per_observation": registry.scene_cost_per_observation,
    }
    Path(path).write_text(yaml.safe_dump(doc, sort_keys=True))


def _names(value, field: str) -> tuple[str, ...]:
    # ``tuple("cup")`` would be three one-letter classes.
    return tuple(typed(v, (str,), field) for v in typed(value, (list,), field))


def _cost_table(table) -> tuple[tuple[str, CostModel], ...]:
    return tuple((name, CostModel(m["base_cost"], m["per_item_cost"]))
                 for name, m in table.items())


def load_registry(path) -> ClassifierRegistry:
    with reading(path, "registry file", yaml.YAMLError):
        doc = yaml.safe_load(Path(path).read_text())
        if not isinstance(doc, dict):
            raise InvalidSpec("not a mapping")
        if doc.get("schema") != REGISTRY_SCHEMA:
            raise UnknownSchemaVersion(doc.get("schema"), REGISTRY_SCHEMA)
        return ClassifierRegistry(
            object_classes=_names(doc["object_classes"], "object_classes"),
            colors=_names(doc["colors"], "colors"),
            kind_costs=_cost_table(doc["kind_costs"]),
            cost_overrides=_cost_table(doc["cost_overrides"]),
            scene_cost_per_observation=doc["scene_cost_per_observation"],
        )
