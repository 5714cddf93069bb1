"""Synthetic instruction corpus: generation, gold labels, and evaluation.

Instructions follow four templates over the registry vocabulary::

    <verb> to the <superlative> <noun>
    <verb> to the <superlative> <color> <noun>
    <verb> to the <superlative> <noun> in the <region>
    <verb> to the <superlative> <color> <noun> in the <region>

Gold correspondence annotations are derived from the surface form: each
constraint symbol is licensed at the phrase that owns its trigger words
and propagates to every ancestor, so the root carries the full constraint
set.  Evaluation measures exact-match of inferred root symbols per domain
and of the resolved navigation action against a fixed reference world.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .correspondence import (
    CorrespondenceModel,
    TrainingExample,
    infer,
    resolve_action,
)
from .errors import (
    AmbiguousRelation,
    InvalidConfig,
    InvalidFraction,
    InvalidSpec,
    MALFORMED_INPUT,
    NoTargetObject,
    UnknownSchemaVersion,
)
from .grammar import SUPERLATIVES, VERBS, ParseTree, parse_text
from .symbols import (
    COLOR_DETECTOR,
    ClassifierRegistry,
    OBJECT_DETECTOR,
    PerceptionSymbol,
    REGION_SURFACE_FORMS,
    SCENE_LABELS,
    STRUCTURAL_KINDS,
    SemanticSymbol,
    color_symbol,
    enumerate_grounding_type_space,
    enumerate_perception_space,
    enumerate_semantic_space,
    object_type,
    region_symbol,
    relation_symbol,
)
from .world import WorldModel

CORPUS_SCHEMA = 1
TEMPLATES = ("plain", "color", "region", "color_region")
RELATION_FOR_SUPERLATIVE = {
    "closest": "nearest",
    "nearest": "nearest",
    "farthest": "farthest",
}


@dataclass(frozen=True)
class CorpusConfig:
    """Counts per template plus the sampling seed."""

    plain: int = 80
    color: int = 120
    region: int = 140
    color_region: int = 160
    seed: int = 7

    def __post_init__(self):
        counts = (self.plain, self.color, self.region, self.color_region)
        if any(c < 0 for c in counts):
            raise InvalidConfig("template counts must be non-negative")
        if sum(counts) == 0:
            raise InvalidConfig("corpus would be empty")

    def count(self, template: str) -> int:
        return {
            "plain": self.plain,
            "color": self.color,
            "region": self.region,
            "color_region": self.color_region,
        }[template]

    def total(self) -> int:
        return self.plain + self.color + self.region + self.color_region


@dataclass(frozen=True)
class CorpusExample:
    uid: str
    template: str
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

    def relation(self) -> str:
        return RELATION_FOR_SUPERLATIVE[self.superlative]


def _pick(rng: np.random.Generator, values) -> str:
    return str(values[int(rng.integers(len(values)))])


def generate(config: CorpusConfig,
             registry: ClassifierRegistry) -> tuple[CorpusExample, ...]:
    """Sample the corpus deterministically from the config seed."""
    rng = np.random.default_rng(config.seed)
    examples: list[CorpusExample] = []
    for template in TEMPLATES:
        for _ in range(config.count(template)):
            verb = _pick(rng, VERBS)
            superlative = _pick(rng, SUPERLATIVES)
            noun = _pick(rng, registry.object_classes)
            color = region = surface = None
            if template in ("color", "color_region"):
                color = _pick(rng, registry.colors)
            if template in ("region", "color_region"):
                region = _pick(rng, SCENE_LABELS)
                forms = REGION_SURFACE_FORMS[region]
                surface = " ".join(forms[int(rng.integers(len(forms)))])
            examples.append(CorpusExample(
                uid=f"ex{len(examples):04d}",
                template=template,
                verb=verb,
                superlative=superlative,
                noun=noun,
                color=color,
                region=region,
                region_surface=surface,
            ))
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

def _licensed_canons(example: CorpusExample, words: frozenset,
                     domain: str) -> set[str]:
    out: set[str] = set()
    surface_words = (frozenset(example.region_surface.split())
                     if example.region_surface else None)
    region_here = surface_words is not None and surface_words <= words
    if domain == "semantic":
        if region_here:
            out.add(SemanticSymbol(example.region).canon)
    elif domain == "perception":
        if example.noun in words:
            out.add(PerceptionSymbol(OBJECT_DETECTOR, example.noun).canon)
        if example.color and example.color in words:
            out.add(PerceptionSymbol(COLOR_DETECTOR, example.color).canon)
    elif domain == "grounding":
        if example.noun in words:
            out.add(object_type(example.noun).canon)
        if example.color and example.color in words:
            out.add(color_symbol(example.color).canon)
        if example.superlative in words:
            out.add(relation_symbol(example.relation()).canon)
        if region_here:
            out.add(region_symbol(example.region).canon)
    else:
        raise InvalidConfig(f"unknown annotation domain {domain!r}")
    return out


def gold_annotations(example: CorpusExample, tree: ParseTree,
                     domain: str) -> tuple[frozenset, ...]:
    """Gold true-symbol canons per phrase: licensed locally, unioned upward."""
    phrases = tree.phrases()
    gold: list[frozenset] = [frozenset()] * len(phrases)
    for phrase in phrases:
        here = _licensed_canons(example, frozenset(phrase.words()), domain)
        for child in phrase.children:
            here |= gold[child.index]
        gold[phrase.index] = frozenset(here)
    return tuple(gold)


def gold_root_symbols(example: CorpusExample) -> frozenset:
    """Type-level grounding symbols implied by the whole instruction."""
    symbols = {object_type(example.noun),
               relation_symbol(example.relation())}
    if example.color:
        symbols.add(color_symbol(example.color))
    if example.region:
        symbols.add(region_symbol(example.region))
    return frozenset(symbols)


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
        sets["semantic"].append(TrainingExample(
            tree=tree, gold=gold_annotations(example, tree, "semantic")))
        sets["perception"].append(TrainingExample(
            tree=tree, gold=gold_annotations(example, tree, "perception")))
        sets["grounding"].append(TrainingExample(
            tree=tree, gold=gold_annotations(example, tree, "grounding"),
            digest=digest))
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
    return frozenset(s.canon for s in symbols
                     if getattr(s, "kind", None) not in STRUCTURAL_KINDS)


def evaluate(semantic_model: CorrespondenceModel,
             perception_model: CorrespondenceModel,
             grounding_model: CorrespondenceModel,
             examples, registry: ClassifierRegistry,
             reference: WorldModel) -> EvaluationReport:
    """Score the three models on a list of examples.

    Perception exact-match ignores the structural stages (they are added
    unconditionally at build time, not predicted).  Action exact-match
    resolves the inferred type-level constraints against the reference
    world and compares target ids; resolution failures count as misses.
    """
    semantic_space = enumerate_semantic_space()
    perception_space = enumerate_perception_space(registry)
    grounding_space = enumerate_grounding_type_space(registry)
    digest = reference.digest()
    semantic_hits = perception_hits = action_hits = 0
    examples = tuple(examples)
    for example in examples:
        tree = parse_text(example.text, registry)

        inferred = infer(semantic_model, tree, semantic_space)
        gold = gold_annotations(example, tree, "semantic")
        if frozenset(s.canon for s in inferred.root_trues()) == gold[-1]:
            semantic_hits += 1

        inferred = infer(perception_model, tree, perception_space)
        gold = gold_annotations(example, tree, "perception")
        if _structural_free(inferred.root_trues()) == gold[-1]:
            perception_hits += 1

        inferred = infer(grounding_model, tree, grounding_space, digest=digest)
        try:
            _, target = resolve_action(inferred.root_trues(), reference)
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

def save_corpus(examples, path) -> None:
    lines = [json.dumps({"schema": CORPUS_SCHEMA, "kind": "corpus"},
                        sort_keys=True)]
    for e in examples:
        lines.append(json.dumps({
            "uid": e.uid,
            "text": e.text,
            "template": e.template,
            "verb": e.verb,
            "superlative": e.superlative,
            "noun": e.noun,
            "color": e.color,
            "region": e.region,
            "region_surface": e.region_surface,
        }, sort_keys=True))
    Path(path).write_text("\n".join(lines) + "\n")


# A corpus line's fields: strings, and the optional ones may be null.
_TEXT_FIELDS = ("uid", "text", "template", "verb", "superlative", "noun")
_OPTIONAL_FIELDS = ("color", "region", "region_surface")


def load_corpus(path) -> tuple[CorpusExample, ...]:
    try:
        lines = Path(path).read_text().splitlines()
        if not lines:
            raise UnknownSchemaVersion(None, CORPUS_SCHEMA)
        header = json.loads(lines[0])
        if header.get("schema") != CORPUS_SCHEMA:
            raise UnknownSchemaVersion(header.get("schema"), CORPUS_SCHEMA)
        out = []
        for line in lines[1:]:
            if not line.strip():
                continue
            rec = json.loads(line)
            fields = ({k: rec[k] for k in _TEXT_FIELDS}
                      | {k: rec.get(k) for k in _OPTIONAL_FIELDS})
            for k, v in fields.items():
                if not (isinstance(v, str) or v is None and k in _OPTIONAL_FIELDS):
                    raise InvalidSpec(f"corpus field {k} must be a string, got {v!r}")
            text = fields.pop("text")
            example = CorpusExample(**fields)
            surfaces = ([" ".join(form) for form in REGION_SURFACE_FORMS.get(example.region, ())]
                        if example.region is not None else [None])
            for k, known in (("template", TEMPLATES), ("verb", VERBS),
                             ("superlative", RELATION_FOR_SUPERLATIVE),
                             ("region_surface", surfaces)):
                if fields[k] not in known:
                    raise InvalidSpec(f"corpus example {example.uid}: {k} {fields[k]!r}"
                                      f" is not one of {list(known)}")
            if text != example.text:
                raise InvalidSpec(f"corpus example {example.uid}: text {text!r} is not"
                                  f" its fields' {example.text!r}")
            out.append(example)
    except MALFORMED_INPUT as exc:
        raise InvalidSpec(f"malformed corpus file {path}: {exc!r}") from exc
    return tuple(out)
