"""Synthetic instruction corpus: generation, gold labels, and evaluation.

An instruction reads ``<verb> to the <superlative> [<color>] <noun> [in
the <region>]``.  ``TEMPLATES`` is the one table of templates and the
optional slots each fills; an example's template, text and gold symbols
are made from its slots (``CorpusExample.slots``), and ``_SLOT_SYMBOLS``
is the one table of the symbol each slot licenses in each domain.

Gold correspondence annotations are derived from the surface form: each
constraint symbol is licensed at the phrase that owns its slot's words
and propagates to every ancestor, so the root carries the full constraint
set.  Evaluation measures exact-match of inferred root symbols per domain
and of the resolved navigation action against a fixed reference world.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cache, partial

import numpy as np

from .correspondence import (
    CorrespondenceModel,
    StackedModel,
    TrainingExample,
    infer,
    resolve_action,
)
from .errors import (
    AmbiguousRelation,
    InvalidConfig,
    InvalidFraction,
    InvalidSpec,
    NoTargetObject,
    read_records,
    typed,
    write_records,
)
from .grammar import SUPERLATIVES, VERBS, ParseTree, parse_text
from .symbols import (
    COLOR_DETECTOR,
    ClassifierRegistry,
    OBJECT_DETECTOR,
    PerceptionSymbol,
    REGION_SURFACE_FORMS,
    SCENE_LABELS,
    SUPERLATIVE_RELATIONS,
    SemanticSymbol,
    color_symbol,
    enumerate_grounding_type_space,
    enumerate_instruction_space,
    object_type,
    region_symbol,
    relation_symbol,
)
from .world import WorldModel

CORPUS_SCHEMA = 1
# Each template and the optional slots it fills, in the order ``generate``
# samples them.  Every template fills the noun and superlative slots.
TEMPLATES = {
    "plain": (),
    "color": ("color",),
    "region": ("region",),
    "color_region": ("color", "region"),
}
_TEMPLATE_OF_SLOTS = {slots: template for template, slots in TEMPLATES.items()}
# Each scene label's surface forms, as an instruction spells them.
_SURFACES = {label: [" ".join(form) for form in forms]
             for label, forms in REGION_SURFACE_FORMS.items()}


@dataclass(frozen=True)
class CorpusConfig:
    """Counts per template plus the sampling seed."""

    plain: int = 80
    color: int = 120
    region: int = 140
    color_region: int = 160
    seed: int = 7

    def __post_init__(self):
        counts = [self.count(template) for template in TEMPLATES]
        if any(c < 0 for c in counts):
            raise InvalidConfig("template counts must be non-negative")
        if sum(counts) == 0:
            raise InvalidConfig("corpus would be empty")

    def count(self, template: str) -> int:
        return getattr(self, template)


@dataclass(frozen=True)
class CorpusExample:
    uid: str
    verb: str
    superlative: str
    noun: str
    color: str | None = None
    region: str | None = None
    region_surface: str | None = None

    @property
    def text(self) -> str:
        """The instruction, spelled from the fields by the templates."""
        words = [self.verb, "to", "the", self.superlative]
        if self.color:
            words.append(self.color)
        words.append(self.noun)
        if self.region_surface:
            words += ["in", "the", self.region_surface]
        return " ".join(words)

    def slots(self) -> dict[str, tuple[str, tuple[str, ...]]]:
        """Each filled slot: the value it names and the words that spell it.

        The noun and superlative, which names its relation, come first;
        the colour and region are filled when the text spells them.
        """
        slots = {"noun": (self.noun, (self.noun,)),
                 "superlative": (self.relation(), (self.superlative,))}
        if self.color:
            slots["color"] = (self.color, (self.color,))
        if self.region_surface:
            slots["region"] = (self.region, tuple(self.region_surface.split()))
        return slots

    @property
    def template(self) -> str:
        """The template whose optional slots this example fills."""
        return _TEMPLATE_OF_SLOTS[tuple(self.slots())[2:]]

    def relation(self) -> str:
        return SUPERLATIVE_RELATIONS[self.superlative]


def _pick(rng: np.random.Generator, values) -> str:
    return str(values[int(rng.integers(len(values)))])


def _sample_region(rng: np.random.Generator, registry: ClassifierRegistry) -> dict:
    region = _pick(rng, SCENE_LABELS)
    return {"region": region, "region_surface": _pick(rng, _SURFACES[region])}


# The fields each optional slot samples.
_SAMPLE_SLOT = {
    "color": lambda rng, registry: {"color": _pick(rng, registry.colors)},
    "region": _sample_region,
}


def generate(config: CorpusConfig,
             registry: ClassifierRegistry) -> tuple[CorpusExample, ...]:
    """Sample the corpus deterministically from the config seed."""
    rng = np.random.default_rng(config.seed)
    examples: list[CorpusExample] = []
    for template, slots in TEMPLATES.items():
        for _ in range(config.count(template)):
            fields = {"verb": _pick(rng, VERBS),
                      "superlative": _pick(rng, SUPERLATIVES),
                      "noun": _pick(rng, registry.object_classes)}
            for slot in slots:
                fields |= _SAMPLE_SLOT[slot](rng, registry)
            examples.append(CorpusExample(uid=f"ex{len(examples):04d}", **fields))
    return tuple(examples)


def split(examples, fraction: float = 0.8,
          seed: int = 0) -> tuple[tuple[CorpusExample, ...], tuple[CorpusExample, ...]]:
    """Stratified train / held-out split by template."""
    if not 0.0 < fraction <= 1.0:
        raise InvalidFraction(f"training fraction {fraction!r} not in (0, 1]")
    rng = np.random.default_rng(seed)
    train: list[CorpusExample] = []
    held: list[CorpusExample] = []
    for template in TEMPLATES:
        group = [e for e in examples if e.template == template]
        order = rng.permutation(len(group))
        cut = int(round(fraction * len(group)))
        for rank, position in enumerate(order):
            (train if rank < cut else held).append(group[int(position)])
    train.sort(key=lambda e: e.uid)
    held.sort(key=lambda e: e.uid)
    return tuple(train), tuple(held)


# ---------------------------------------------------------------------------
# Gold annotation

# The symbol each slot's value licenses, per domain.
_SLOT_SYMBOLS = {
    "semantic": {"region": SemanticSymbol},
    "perception": {"noun": partial(PerceptionSymbol, OBJECT_DETECTOR),
                   "color": partial(PerceptionSymbol, COLOR_DETECTOR)},
    "grounding": {"noun": object_type, "superlative": relation_symbol,
                  "color": color_symbol, "region": region_symbol},
}


@cache
def _slot_canon(domain: str, slot: str, value: str) -> str | None:
    """The canon of the symbol a slot's value licenses in ``domain``."""
    symbols = _SLOT_SYMBOLS[domain]
    return symbols[slot](value).canon if slot in symbols else None


def gold_annotations(example: CorpusExample, tree: ParseTree,
                     domain: str) -> tuple[frozenset, ...]:
    """Gold true-symbol canons per phrase: licensed locally, unioned upward.

    A slot's symbol is licensed at each phrase that owns all its words.
    """
    if domain not in _SLOT_SYMBOLS:
        raise InvalidConfig(f"unknown annotation domain {domain!r}")
    # Each slot's words and the canon it licenses, for the slots that do.
    licensed = [(frozenset(words), canon)
                for slot, (value, words) in example.slots().items()
                if (canon := _slot_canon(domain, slot, value)) is not None]
    gold = [frozenset()] * len(tree)
    for phrase in tree.phrases():
        words = frozenset(phrase.words)
        found = {canon for spelled, canon in licensed if spelled <= words}
        for child in phrase.children:
            found |= gold[child.index]
        gold[phrase.index] = frozenset(found)
    return tuple(gold)


def gold_root_symbols(example: CorpusExample) -> frozenset:
    """Type-level grounding symbols implied by the whole instruction."""
    symbols = _SLOT_SYMBOLS["grounding"]
    return frozenset(symbols[slot](value)
                     for slot, (value, _) in example.slots().items())


def gold_action(example: CorpusExample, reference: WorldModel):
    """Resolve the gold navigation target against the reference world."""
    return resolve_action(gold_root_symbols(example), reference)


def training_sets(examples, registry: ClassifierRegistry,
                  reference: WorldModel) -> dict[str, list[TrainingExample]]:
    """Per-domain training examples (grounding sees the reference digest)."""
    digest = reference.digest()
    sets: dict[str, list[TrainingExample]] = {
        "semantic": [], "perception": [], "grounding": [],
    }
    for example in examples:
        tree = parse_text(example.text, registry)
        for domain, domain_set in sets.items():
            domain_set.append(TrainingExample(
                tree=tree, gold=gold_annotations(example, tree, domain),
                digest=digest if domain == "grounding" else frozenset()))
    return sets


# ---------------------------------------------------------------------------
# Evaluation

@dataclass(frozen=True)
class EvaluationReport:
    """Exact-match rates for inferred root symbols and resolved actions."""

    examples: int
    semantic_hits: int
    perception_hits: int
    action_hits: int

    @property
    def semantic_exact(self) -> float:
        return self.semantic_hits / self.examples if self.examples else 0.0

    @property
    def perception_exact(self) -> float:
        return self.perception_hits / self.examples if self.examples else 0.0

    @property
    def action_exact(self) -> float:
        return self.action_hits / self.examples if self.examples else 0.0


def _structural_free(symbols) -> frozenset:
    return frozenset(s.canon for s in symbols if s.attributes)


def evaluate(semantic_model: CorrespondenceModel,
             perception_model: CorrespondenceModel,
             grounding_model: CorrespondenceModel,
             examples, registry: ClassifierRegistry,
             reference: WorldModel) -> EvaluationReport:
    """Score the three models on a list of examples.

    The semantic and perception models score each instruction in one walk
    of its parse tree, as a run that filters and selects does
    (``correspondence.StackedModel``).  Perception exact-match ignores the
    structural stages (they are added unconditionally at build time, not
    predicted).  Action exact-match resolves the inferred type-level
    constraints against the reference world and compares target ids;
    resolution failures count as misses.
    """
    instruction = StackedModel((semantic_model, perception_model))
    instruction_space = enumerate_instruction_space(registry)
    grounding_space = enumerate_grounding_type_space(registry)
    digest = reference.digest()
    semantic_hits = perception_hits = action_hits = 0
    examples = tuple(examples)
    for example in examples:
        tree = parse_text(example.text, registry)
        semantic, perception = infer(instruction, tree, instruction_space).parts()
        if (frozenset(s.canon for s in semantic.root_constraints())
                == gold_annotations(example, tree, "semantic")[-1]):
            semantic_hits += 1
        if (_structural_free(perception.root_constraints())
                == gold_annotations(example, tree, "perception")[-1]):
            perception_hits += 1

        inferred = infer(grounding_model, tree, grounding_space, digest=digest)
        try:
            _, target = resolve_action(inferred.root_constraints(), reference)
            _, wanted = gold_action(example, reference)
            if target.id == wanted.id:
                action_hits += 1
        except (NoTargetObject, AmbiguousRelation):
            pass
    return EvaluationReport(examples=len(examples),
                            semantic_hits=semantic_hits,
                            perception_hits=perception_hits,
                            action_hits=action_hits)


# ---------------------------------------------------------------------------
# Serialization

# A corpus line's fields: strings, and the optional ones may be null.  The
# text and the template are made from the others.
_TEXT_FIELDS = ("uid", "verb", "superlative", "noun")
_OPTIONAL_FIELDS = ("color", "region", "region_surface")
_MADE_FIELDS = ("text", "template")


def save_corpus(examples, path) -> None:
    write_records(path, CORPUS_SCHEMA, "corpus",
                  (asdict(e) | {k: getattr(e, k) for k in _MADE_FIELDS}
                   for e in examples))


def _example(rec) -> CorpusExample:
    fields = ({k: typed(rec[k], (str,), k) for k in _TEXT_FIELDS}
              | {k: typed(rec.get(k), (str, type(None)), k) for k in _OPTIONAL_FIELDS})
    made = {k: typed(rec[k], (str,), k) for k in _MADE_FIELDS}
    example = CorpusExample(**fields)
    surfaces = (_SURFACES.get(example.region, []) if example.region is not None
                else [None])
    for k, known in (("verb", VERBS), ("superlative", SUPERLATIVE_RELATIONS),
                     ("region_surface", surfaces)):
        if fields[k] not in known:
            raise InvalidSpec(f"corpus example {example.uid}: {k} {fields[k]!r}"
                              f" is not one of {list(known)}")
    for k, given in made.items():
        if given != getattr(example, k):
            raise InvalidSpec(f"corpus example {example.uid}: {k} {given!r} is"
                              f" not its fields' {getattr(example, k)!r}")
    return example


def load_corpus(path) -> tuple[CorpusExample, ...]:
    return tuple(read_records(path, CORPUS_SCHEMA, "corpus", _example))
