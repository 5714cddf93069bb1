"""Correspondence model: inference, oracle agreement, training gradient."""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

import groundling
from groundling import correspondence
from groundling.adapt import infer_instruction
from groundling.correspondence import (
    CorrespondenceModel,
    StackedModel,
    TrainingExample,
    assemble_design,
    infer,
    load_model,
    objective_and_gradient,
    resolve_action,
    save_model,
    train,
)
from groundling.errors import (
    AmbiguousRelation,
    CorpusDomainMismatch,
    DivergedLoss,
    InvalidSpec,
    NoTargetObject,
    NonFiniteScore,
)
from groundling.fixtures import site_spec, tiled
from groundling.grammar import ParseTree, Phrase, parse_text
from groundling.pipeline import ModelBundle
from groundling.symbols import (
    INSTANCE_VARIANTS,
    SCENE_LABELS,
    Layout,
    PerceptionSymbol,
    color_symbol,
    default_registry,
    enumerate_grounding_space,
    enumerate_grounding_type_space,
    enumerate_instruction_space,
    enumerate_perception_space,
    enumerate_semantic_space,
    object_type,
    region_symbol,
    relation_symbol,
)
from groundling.world import (
    DetectedObject,
    Observation,
    RawDetection,
    WorldModel,
    build_world_model,
    simulate,
)
import oracles
from oracles import (
    TooLarge,
    extract_features,
    infer_exhaustive,
    symbol_logits,
    symbol_space,
)


class HashWeights:
    """Deterministic pseudo-random weights in [-3, 3], keyed by name.

    Every feature name gets a weight derived from a salted hash, so two
    runs (or two machines) agree bit for bit without materializing the
    feature vocabulary up front.  With a ``poison``, the names whose hash
    falls in the lowest ``POISONED`` share weigh ``poison`` instead.
    """

    POISONED = 0.003

    def __init__(self, salt: str, poison: float | None = None):
        self.salt = salt
        self.poison = poison

    def get(self, name: str, default: float = 0.0) -> float:
        digest = hashlib.blake2b(f"{self.salt}|{name}".encode(),
                                 digest_size=8).digest()
        unit = int.from_bytes(digest, "big") / 2.0 ** 64
        if self.poison is not None and unit < self.POISONED:
            return self.poison
        return 6.0 * unit - 3.0


_VOCAB = ("go", "to", "the", "nearest", "farthest", "ball", "cup", "red",
          "kitchen", "office", "in")
_CATS = ("VP", "PP", "NP")


def random_tree(rng: np.random.Generator, max_phrases: int = 4) -> ParseTree:
    """Random phrase tree with dense post-order indices.

    Phrases are created in post-order; each new phrase adopts a suffix of
    the currently rootless subtrees, which keeps creation order equal to
    post-order position.
    """
    count = int(rng.integers(1, max_phrases + 1))
    roots: list[Phrase] = []
    for i in range(count):
        last = i == count - 1
        adopt = len(roots) if last else int(rng.integers(0, len(roots) + 1))
        children = tuple(roots[len(roots) - adopt:]) if adopt else ()
        del roots[len(roots) - adopt:]
        words = tuple(_VOCAB[int(rng.integers(0, len(_VOCAB)))]
                      for _ in range(int(rng.integers(1, 4))))
        category = _CATS[int(rng.integers(0, len(_CATS)))]
        roots.append(Phrase(category, words, children, index=i))
    return ParseTree(root=roots[0])


def random_instance(rng: np.random.Generator, registry, pair_limit: int = 16):
    """(model, tree, space) with |phrases| x |symbols| <= pair_limit."""
    tree = random_tree(rng)
    pools = {
        "semantic": tuple(enumerate_semantic_space()),
        "perception": tuple(enumerate_perception_space(registry)),
        "grounding": tuple(enumerate_grounding_type_space(registry)),
    }
    domain = ("semantic", "perception", "grounding")[int(rng.integers(0, 3))]
    pool = pools[domain]
    max_symbols = min(len(pool), pair_limit // len(tree))
    n_symbols = int(rng.integers(1, max_symbols + 1))
    chosen = rng.choice(len(pool), size=n_symbols, replace=False)
    space = symbol_space(domain, [pool[j] for j in sorted(chosen)])
    model = CorrespondenceModel(domain=domain,
                                weights=HashWeights(f"salt-{rng.integers(1 << 30)}"))
    return model, tree, space


# --- inference ---------------------------------------------------------------

def test_factor_evaluation_count_is_phrases_times_symbols(registry):
    rng = np.random.default_rng(11)
    for _ in range(25):
        model, tree, space = random_instance(rng, registry)
        assignment = infer(model, tree, space)
        assert assignment.factor_evals == len(tree) * len(space)


def test_inference_is_deterministic(registry):
    rng = np.random.default_rng(12)
    model, tree, space = random_instance(rng, registry)
    first = infer(model, tree, space)
    second = infer(model, tree, space)
    assert first.true_sets() == second.true_sets()
    assert first.logits.tobytes() == second.logits.tobytes()


def test_probabilities_are_proper(registry):
    rng = np.random.default_rng(13)
    model, tree, space = random_instance(rng, registry)
    probs = expit(infer(model, tree, space).logits[:, space.row_of])
    assert np.all((probs > 0.0) & (probs < 1.0))


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(min_value=0.01, max_value=100.0,
                       allow_nan=False, allow_infinity=False),
       seed=st.integers(min_value=0, max_value=2 ** 20))
def test_scaling_log_odds_preserves_assignment(registry, scale, seed):
    rng = np.random.default_rng(seed)
    base_model, tree, space = random_instance(rng, registry)
    baseline = infer(base_model, tree, space)

    class Scaled:
        def __init__(self, inner, factor):
            self.inner, self.factor = inner, factor

        def get(self, name, default=0.0):
            return self.factor * self.inner.get(name, default)

    scaled_model = CorrespondenceModel(
        domain=base_model.domain,
        weights=Scaled(base_model.weights, scale))
    assert infer(scaled_model, tree, space).true_sets() == baseline.true_sets()


def test_oracle_agrees_on_random_instances(registry):
    rng = np.random.default_rng(14)
    for _ in range(50):
        model, tree, space = random_instance(rng, registry)
        fast = infer(model, tree, space)
        slow = infer_exhaustive(model, tree, space)
        assert fast.true_sets() == slow.true_sets()


def test_oracle_guard_rejects_large_instances(registry):
    model = CorrespondenceModel(domain="perception", weights=HashWeights("g"))
    tree = parse_text("go to the nearest red ball in the kitchen", registry)
    space = enumerate_perception_space(registry)
    assert len(tree) * len(space) > 20
    with pytest.raises(TooLarge):
        infer_exhaustive(model, tree, space)


def test_domain_mismatch_rejected(registry):
    model = CorrespondenceModel(domain="semantic", weights={})
    tree = parse_text("go to the nearest ball", registry)
    with pytest.raises(CorpusDomainMismatch):
        infer(model, tree, enumerate_perception_space(registry))


def assert_non_finite(model, tree, space, digest, canon, value):
    """Inference and the symbol oracle both raise ``NonFiniteScore``
    naming ``canon`` and ``value``, and ``canon`` is the first symbol of
    its row: inference checks rows, and names a symbol only to report."""
    message = f"factor score for {canon} is {np.float64(value)!r}"
    for infer_with in (infer, oracles.infer_by_symbols):
        with pytest.raises(NonFiniteScore) as raised:
            infer_with(model, tree, space, digest)
        assert str(raised.value) == message
    j = space.position[canon]
    assert j == np.flatnonzero(space.row_of == space.row_of[j])[0]


def test_non_finite_weights_rejected(registry, reference):
    tree = parse_text("go to the nearest ball", registry)
    space = enumerate_grounding_space(reference, registry)
    # The first phrase's first object symbol: object rows are the only
    # ones a bias|v=object weight reaches.
    first_object = next(s for s in space if s.variant == "object")
    for value in (math.inf, -math.inf, math.nan):
        model = CorrespondenceModel(domain="semantic",
                                    weights={"bias|v=scene": value})
        assert_non_finite(model, tree, enumerate_semantic_space(), frozenset(),
                          "scene=hallway", value)
        model = CorrespondenceModel(domain="grounding",
                                    weights={"bias|v=object": value})
        assert_non_finite(model, tree, space, reference.digest(),
                          first_object.canon, value)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_a_later_signature_row_names_its_first_symbol(registry, site_worlds, value):
    # Once type[cup] holds at the noun phrase, its parent fires the cmatch
    # weight at the cells of (class, cup), and only the object rows of
    # the cup signatures have the object cell.  None of them is the first
    # signature's, and the first object symbol of a cup, the one named,
    # is not the symbol at its row's index.
    world = site_worlds["site-1", 1, False]
    space = enumerate_grounding_space(world, registry)
    t = len(space.layout.constraints)
    j = next(j for j in range(t, len(space)) if space[j].variant == "object"
             and ("class", "cup") in space[j].attributes)
    assert space.row_of[j] > t + 1 and space.row_of[j] != j
    weights = {"w=cup|a=class=cup": 10.0}
    tree = parse_text("go to the cup", registry)
    noun = tree.phrases()[0]
    healthy = CorrespondenceModel(domain="grounding", weights=weights)
    assert object_type("cup") in infer(healthy, tree, space, world.digest()).trues[noun.index]
    model = CorrespondenceModel(domain="grounding",
                                weights={**weights, "cmatch|class|v=object": value})
    assert_non_finite(model, tree, space, world.digest(), space[j].canon, value)


# A weight each child token fires at, and the symbol it first reaches.
_CHILD_WEIGHTS = {
    "cv": ("semantic", "cv=scene|v=scene", "scene=hallway"),
    "cmatch": ("semantic", "cmatch|scene|v=scene", "scene=kitchen"),
    "ceq": ("semantic", "ceq|v=scene", "scene=kitchen"),
    "cmatch-instance": ("grounding", "cmatch|class|v=action", None),
}


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("token", sorted(_CHILD_WEIGHTS))
def test_a_child_token_trips_the_parent(bundle, registry, reference, token, value):
    # The trained model resolves scene=kitchen, or type[ball], at the noun
    # phrase; a non-finite weight that only a true child fires leaves the
    # noun phrase finite and trips its parent.
    domain, name, canon = _CHILD_WEIGHTS[token]
    trained = getattr(bundle, domain)
    text, child = {"semantic": ("go to the kitchen", "scene=kitchen"),
                   "grounding": ("go to the ball", "type[ball]")}[domain]
    tree = parse_text(text, registry)
    noun = tree.phrases()[0]
    if domain == "semantic":
        space, digest = enumerate_semantic_space(), frozenset()
    else:
        space, digest = enumerate_grounding_space(reference, registry), reference.digest()
        canon = next(s.canon for s in space
                     if s.variant == "action" and ("class", "ball") in s.attributes)
    assert child in {s.canon for s in infer(trained, tree, space, digest).trues[noun.index]}
    model = CorrespondenceModel(domain=domain, weights={**trained.weights, name: value})
    assert np.all(np.isfinite(symbol_logits(model, noun, space, (), digest)))
    assert_non_finite(model, tree, space, digest, canon, value)


@pytest.fixture(scope="module")
def site_worlds(registry):
    """{(site, copies, noisy): world}: both sites at x1 and x8, exact and
    with noise 0.2 and clutter 0.3, built with every classifier."""
    worlds = {}
    for site in ("site-1", "site-2"):
        for copies in (1, 8):
            for noisy in (False, True):
                spec = tiled(site_spec(site), copies)
                if noisy:
                    spec = replace(spec, noise=0.2, clutter_rate=0.3)
                worlds[site, copies, noisy] = build_world_model(
                    simulate(spec, registry), registry.classifier_set, registry)
    return worlds


def test_infer_is_bit_equal_to_the_symbol_oracle(bundle, corpus_split, registry,
                                                 site_worlds):
    # The oracle derives each phrase's tokens and each child's features
    # from the symbols and passes child symbols up the tree; inference
    # reads them from the tree and the space's layout.  Every logit has
    # the same bits, a changed sign of zero included, with the seed-7
    # models and with hashed weights, under which many more children hold.
    hashed = ModelBundle(**{d: CorrespondenceModel(domain=d, weights=HashWeights(f"bits-{d}"))
                            for d in ("semantic", "perception", "grounding")})
    fixed = [enumerate_semantic_space(), enumerate_perception_space(registry)]
    grounding = [(enumerate_grounding_space(w, registry), w.digest())
                 for w in site_worlds.values()]
    calls = 0
    for example in corpus_split[1]:
        tree = parse_text(example.text, registry)
        for models in (bundle, hashed):
            for space, digest in ([(s, frozenset()) for s in fixed] + grounding):
                model = getattr(models, space.domain)
                got = infer(model, tree, space, digest)
                want = oracles.infer_by_symbols(model, tree, space, digest)
                assert got.factor_evals == want.factor_evals
                assert got.logits.tobytes() == want.logits.tobytes()
                calls += 1
    assert calls == len(corpus_split[1]) * 2 * (2 + 8)


def separate_walks(models, tree, registry, infer_with=infer):
    """The semantic and then the perception assignment, each inferred in
    its own space, or the ``NonFiniteScore`` message of the first walk
    that raises, as a run that filters and then selects would meet it."""
    spaces = (enumerate_semantic_space(), enumerate_perception_space(registry))
    try:
        return [infer_with(model, tree, space) for model, space in zip(models, spaces)]
    except NonFiniteScore as exc:
        return str(exc)


def stacked_walk(models, tree, registry):
    """``separate_walks``, from one walk over the stacked space."""
    try:
        return list(infer_instruction(StackedModel(tuple(models)), tree, registry))
    except NonFiniteScore as exc:
        return str(exc)


@st.composite
def instruction_cases(draw):
    """(models, tree, registry): hashed semantic and perception weights,
    poisoned with a non-finite value at a few features or not, a random
    tree, and the default registry or one whose classes and colours are
    drawn from a few names, as ``test_symbols.signature_worlds`` draws."""
    registry = default_registry()
    if draw(st.booleans()):
        names = st.sampled_from
        registry = replace(
            registry,
            object_classes=tuple(draw(st.lists(names(("cup", "ball", "drone", "chair")),
                                               min_size=1, unique=True))),
            colors=tuple(draw(st.lists(names(("red", "blue", "green")),
                                       min_size=1, unique=True))))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    poison = draw(st.sampled_from((None, math.inf, -math.inf, math.nan)))
    models = [CorrespondenceModel(domain=d, weights=HashWeights(
        f"stack-{d}-{rng.integers(1 << 30)}", poison)) for d in ("semantic", "perception")]
    return models, random_tree(rng, max_phrases=6), registry


@settings(max_examples=150, deadline=None)
@given(case=instruction_cases())
def test_the_stacked_walk_is_the_two_walks_bit_for_bit(case):
    # Hashed weights give every feature name a weight, so a token that
    # leaked into the other domain's block (a cv= token, say, which each
    # domain's own walk fires only for its own children) would show.
    models, tree, registry = case
    got = stacked_walk(models, tree, registry)
    for want in (separate_walks(models, tree, registry),
                 separate_walks(models, tree, registry, oracles.infer_by_symbols)):
        assert type(got) is type(want)
        if isinstance(want, str):
            assert got == want
            continue
        for mine, theirs in zip(got, want, strict=True):
            assert mine.space is theirs.space
            assert mine.factor_evals == theirs.factor_evals
            assert mine.logits.tobytes() == theirs.logits.tobytes()
            assert mine.root_constraints() == theirs.root_constraints()
            # An assignment over a plain space is its own one part.
            assert len(theirs.parts()) == 1 and theirs.parts()[0] is theirs


def naive_finite(z, space):
    """A check of every logit in phrase order, whatever domain it is of."""
    finite = np.isfinite(z)
    if not finite.all():
        at = np.unravel_index(np.argmin(finite), z.shape)
        raise NonFiniteScore(f"factor score for {space[int(at[-1])].canon} is {z[at]!r}")
    return z


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_the_stacked_walk_checks_every_semantic_column_first(registry, monkeypatch,
                                                             value):
    # The perception logits are non-finite from the noun phrase on, the
    # semantic ones only at the root, which alone has "go": the semantic
    # walk, which runs first, names a scene symbol.
    tree = parse_text("go to the ball", registry)
    models = (CorrespondenceModel(domain="semantic", weights={"w=go|v=scene": value}),
              CorrespondenceModel(domain="perception", weights={"w=ball|v=detector": value}))
    want = f"factor score for scene=hallway is {np.float64(value)!r}"
    assert separate_walks(models, tree, registry) == want
    assert stacked_walk(models, tree, registry) == want
    # Checked in phrase order alone, the noun phrase's detector comes first.
    monkeypatch.setattr(correspondence, "_finite", naive_finite)
    assert stacked_walk(models, tree, registry) == (
        f"factor score for object_detector[ball] is {np.float64(value)!r}")


def test_the_threshold_is_where_expit_exceeds_one_half():
    half = correspondence._HALF
    assert expit(half) > 0.5
    assert not expit(np.nextafter(half, 0.0)) > 0.5
    rng = np.random.default_rng(29)
    z = np.concatenate((
        [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan],
        half + np.spacing(half) * np.arange(-1 << 12, 1 << 12),
        rng.normal(scale=1e-15, size=1 << 16),
        rng.normal(scale=1e-300, size=1 << 12),
        rng.normal(size=1 << 12)))
    assert np.array_equal(z >= half, expit(z) > 0.5)


@pytest.mark.parametrize("bias", [correspondence._HALF,
                                  np.nextafter(correspondence._HALF, 0.0), 0.0, -0.0])
def test_a_child_at_the_threshold_conditions_its_parent(registry, bias):
    # Every scene logit of a phrase without true children is the bias; a
    # parent repeats its true children, which adds the ceq weight.
    tree = parse_text("go to the kitchen", registry)
    model = CorrespondenceModel(domain="semantic",
                                weights={"bias|v=scene": bias, "ceq|v=scene": 1.0})
    space = enumerate_semantic_space()
    got = infer(model, tree, space)
    want = oracles.infer_by_symbols(model, tree, space)
    assert got.logits.tobytes() == want.logits.tobytes()
    assert len(got.root_constraints()) == (len(space) if expit(bias) > 0.5 else 0)
    assert (expit(got.logits[-1]) > expit(bias)).all() == (expit(bias) > 0.5)


def test_a_grounding_assignment_is_its_own_one_part(bundle, registry, site_worlds):
    world = next(iter(site_worlds.values()))
    space = enumerate_grounding_space(world, registry)
    got = infer(bundle.grounding, parse_text("go to the ball", registry), space,
                world.digest())
    parts = got.parts()
    assert len(parts) == 1 and parts[0] is got


def test_a_stack_of_layouts_that_share_a_key_is_rejected(registry):
    semantic = enumerate_semantic_space().layout
    with pytest.raises(InvalidSpec):
        Layout.stack((semantic, semantic))
    # A grounding layout also numbers instance keys, which no stack holds.
    with pytest.raises(InvalidSpec):
        Layout.stack((semantic, enumerate_grounding_type_space(registry).layout))
    stacked = enumerate_instruction_space(registry)
    assert stacked.domain == "semantic+perception"
    assert [s.canon for s in stacked] == [
        s.canon for s in (*enumerate_semantic_space(), *enumerate_perception_space(registry))]


def test_child_table_matches_the_symbols(registry, site_worlds):
    # For every constraint, the cv= variant, the cmatch cells and the ceq
    # (row, key) that inference reads from the table are what the oracle
    # derives from the symbol, in layout-made spaces and in the generic
    # layout of the same symbols.
    worlds = [site_worlds[site, copies, False]
              for site in ("site-1", "site-2") for copies in (1, 8)]
    made = [enumerate_semantic_space(), enumerate_perception_space(registry),
            enumerate_grounding_type_space(registry),
            *(enumerate_grounding_space(w, registry) for w in worlds)]
    # One layout per domain, shared by every space it makes: the grounding
    # type space is the grounding layout's space with no world.
    assert all(space.layout is made[2].layout for space in made[2:])
    phrase = parse_text("go to the ball", registry).phrases()[0]
    for space in made + [symbol_space(s.domain, tuple(s)) for s in made[:4]]:
        table = space.layout
        assert table.ordinal == {space[c].canon: c for c in range(len(table.constraints))}
        assert all(s.variant in INSTANCE_VARIANTS
                   for s in list(space)[len(table.constraints):])
        assert list(table.cv) == sorted(set(table.cv))
        for c in range(len(table.constraints)):
            tokens, pairs, ceq = oracles.phrase_side(phrase, {space[c]}, space)
            assert tokens[-1] == table.cv[table.cv_rank[c]]
            assert table.tokens(tokens[:-1], [c]) == tokens
            assert sorted(table.cmatch_cells[c]) == np.flatnonzero(
                space.layout.cells_of(pairs)).tolist()
            assert ceq == [(c, int(table.constraint_keys[c][0]))]
        cells = [k for keys in table.cmatch_cells for k in keys]
        assert len(set(cells)) == len(cells)
    # Children sharing a cell would fire cmatch at it twice.
    with pytest.raises(InvalidSpec):
        symbol_space("grounding", [object_type("cup"),
                                   PerceptionSymbol("object_detector", "cup")])


def random_signature(rng: np.random.Generator, registry) -> tuple:
    cls = registry.object_classes[int(rng.integers(len(registry.object_classes)))]
    color = (None if rng.random() < 0.3 else
             registry.colors[int(rng.integers(len(registry.colors)))])
    return cls, color, SCENE_LABELS[int(rng.integers(len(SCENE_LABELS)))]


def random_world(rng: np.random.Generator, registry, max_objects: int = 6):
    """A small world model of objects with random attributes.

    Objects draw from one to three signatures, so some repeat one."""
    signatures = [random_signature(rng, registry)
                  for _ in range(int(rng.integers(1, 4)))]
    objects = []
    for i in range(int(rng.integers(0, max_objects + 1))):
        cls, color, region = signatures[int(rng.integers(len(signatures)))]
        objects.append(DetectedObject(
            id=f"{cls}@{i}.0,0.0", cls=cls, color=color, pose=(float(i), 0.0, 0.0),
            region=region, provenance=frozenset()))
    return WorldModel.of(objects=tuple(objects), robot_pose=(0.0, 0.0, 0.0))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       domain=st.sampled_from(("semantic", "perception", "grounding",
                               "grounding-world")),
       with_digest=st.booleans())
def test_symbol_logits_match_the_per_factor_featurizer(registry, seed, domain,
                                                       with_digest):
    # The symbol oracle, which gate 1's exhaustive oracle scores with,
    # against the per-factor featurizer that names the oracle design's
    # columns: each logit is its features' weights summed.
    rng = np.random.default_rng(seed)
    world = random_world(rng, registry)
    space = {
        "semantic": enumerate_semantic_space,
        "perception": lambda: enumerate_perception_space(registry),
        "grounding": lambda: enumerate_grounding_type_space(registry),
        "grounding-world": lambda: enumerate_grounding_space(world, registry),
    }[domain]()
    weights = HashWeights(f"salt-{rng.integers(1 << 30)}")
    model = CorrespondenceModel(domain=space.domain, weights=weights)
    digest = world.digest() if with_digest else frozenset()
    symbols = tuple(space)
    # The same symbols, each in a row of its own, keys numbered afresh.
    generic = symbol_space(space.domain, symbols)
    for phrase in random_tree(rng).phrases():
        picked = rng.random(len(symbols)) < rng.choice((0.0, 0.1, 0.5))
        child_trues = {s for s, keep in zip(symbols, picked) if keep}
        z = symbol_logits(model, phrase, space, child_trues, digest)
        assert np.array_equal(z, symbol_logits(model, phrase, generic,
                                                child_trues, digest))
        for j, symbol in enumerate(symbols):
            features = extract_features(phrase, symbol, child_trues, digest)
            terms = [weights.get(name, 0.0) * value
                     for name, value in features.items()]
            oracle = sum(terms)
            assert (expit(z[j]) > 0.5) == (expit(oracle) > 0.5)
            assert abs(z[j] - oracle) <= 1e-12 * (1.0 + sum(map(abs, terms)))


# Class, colour and region constraints, each with a value no object has.
_CLASSES = ("cup", "ball", "umbrella")
_COLORS = ("red", "blue")
_REGIONS = ("kitchen", "office", "hallway")


@st.composite
def root_trues(draw):
    """Root-true constraints: any classes, colours and regions (one
    outside every world), and no, one or two relations."""
    return frozenset(
        [object_type(c) for c in draw(st.sets(st.sampled_from(_CLASSES + ("drone",))))]
        + [color_symbol(c) for c in draw(st.sets(st.sampled_from(_COLORS + ("green",))))]
        + [region_symbol(r) for r in draw(st.sets(st.sampled_from(_REGIONS + ("lab",))))]
        + [relation_symbol(r) for r in draw(st.sets(st.sampled_from(("nearest", "farthest"))))])


@st.composite
def tied_worlds(draw):
    """Worlds whose objects tie on distance: a few points, each shared by
    objects ``cup@5.0,1.0``, ``cup@5.0,1.0#2``, ...  in any order, some
    without a colour."""
    points = draw(st.lists(st.sampled_from(
        ((5.0, 1.0), (-5.0, -1.0), (1.0, 5.0), (0.0, 0.0), (3.0, 4.0))), min_size=0, max_size=12))
    objects, seen = [], {}
    for x, y in points:
        cls = draw(st.sampled_from(_CLASSES))
        name = f"{cls}@{x:.1f},{y:.1f}" if draw(st.booleans()) else f"{cls}@5.0,1.0"
        repeat = seen[name] = seen.get(name, 0) + 1
        objects.append(DetectedObject(
            id=name if repeat == 1 else f"{name}#{repeat}", cls=cls,
            color=draw(st.none() | st.sampled_from(_COLORS)), pose=(x, y, 0.0),
            region=draw(st.sampled_from(_REGIONS)),
            provenance=frozenset(draw(st.sets(st.integers(0, 9), max_size=3)))))
    return WorldModel.of(objects=draw(st.permutations(objects)),
                      robot_pose=draw(st.sampled_from(((0.0, 0.0, 0.0), (1.0, 2.0, 0.5)))))


def assert_resolves_like_the_oracle(trues, world):
    """The columnar resolution equals the object-list one: the same action
    and target, float bits included, or the same error and message."""
    try:
        expected = oracles.resolve_action(trues, world.objects, world.robot_pose)
    except (NoTargetObject, AmbiguousRelation) as exc:
        with pytest.raises(type(exc)) as raised:
            resolve_action(trues, world)
        assert str(raised.value) == str(exc)
        return
    action, target = resolve_action(trues, world)
    assert (action, target) == expected
    assert [v.hex() for v in target.pose] == [v.hex() for v in expected[1].pose]


def twins() -> WorldModel:
    """``cup@5.0,1.0#2`` and ``cup@5.0,1.0`` at one point, in that order."""
    return WorldModel.of(objects=[
        DetectedObject(id=i, cls="cup", color=None, pose=(5.0, 1.0, 0.0),
                       region="kitchen", provenance=frozenset())
        for i in ("cup@5.0,1.0#2", "cup@5.0,1.0")], robot_pose=(0.0, 0.0, 0.0))


@settings(max_examples=300, deadline=None)
@given(trues=root_trues(), world=tied_worlds())
@example(trues=frozenset({object_type("cup"), relation_symbol("nearest")}), world=twins())
@example(trues=frozenset({object_type("cup"), relation_symbol("farthest")}), world=twins())
def test_resolution_matches_the_object_list_oracle(trues, world):
    assert_resolves_like_the_oracle(trues, world)


@pytest.mark.parametrize("relation", ["nearest", "farthest"])
def test_a_non_finite_position_ranks_last(registry, relation):
    # A record at a NaN range puts its object at (nan, nan), whose
    # distance is NaN: the other cup wins either way, and among NaN
    # distances alone the smaller id does.
    sensed = (RawDetection(None, (math.nan, 0.0, 0.0), "cup", "red"),
              RawDetection(None, (3.0, 0.0, 0.0), "cup", "red"))
    frame = Observation(t=0, robot_pose=(0.0, 0.0, 0.0), sensed=sensed,
                        scene_label="kitchen", scene_scores=(("kitchen", 0.0),))
    world = build_world_model([frame], frozenset(registry.classifiers()), registry)
    assert sorted(world.object_ids()) == ["cup@3.0,0.0", "cup@nan,nan"]
    trues = frozenset({object_type("cup"), relation_symbol(relation)})
    assert resolve_action(trues, world)[1].id == "cup@3.0,0.0"
    lost = next(o for o in world.objects if o.id == "cup@nan,nan")
    alone = WorldModel.of(objects=[replace(lost, id="cup@nan,nan#2"), lost],
                          robot_pose=(0.0, 0.0, 0.0))
    assert resolve_action(trues, alone)[1].id == "cup@nan,nan"


@pytest.fixture(scope="module")
def built_worlds(registry):
    """Both sites at x1, exact and with noise 0.2 and clutter 0.3, built
    with every classifier and without the colour detectors."""
    every = frozenset(registry.classifiers())
    colourless = frozenset(c for c in every if c.kind != "color_detector")
    worlds = []
    for site in ("site-1", "site-2"):
        for spec in (site_spec(site), replace(site_spec(site), noise=0.2, clutter_rate=0.3)):
            observations = simulate(spec, registry)
            worlds += [build_world_model(observations, c, registry) for c in (every, colourless)]
    return worlds


@settings(max_examples=200, deadline=None)
@given(trues=root_trues(), data=st.data())
def test_resolution_matches_the_oracle_on_built_worlds(built_worlds, reference,
                                                       trues, data):
    world = data.draw(st.sampled_from([reference, *built_worlds]))
    assert_resolves_like_the_oracle(trues, world)


DOMAINS = ("semantic", "perception", "grounding")
# The type-level spaces give every symbol a row of its own; a built
# world's grounding space also has instance symbols that share rows.
DESIGN_SPACES = (*DOMAINS, "grounding-world")


@pytest.fixture(scope="module")
def seed7_training(corpus_split, registry, reference):
    """{domain: (training space, seed-7 training set)}, and under
    "grounding-world" the reference world's grounding space with a few of
    the grounding examples (2332 symbols in 1180 rows)."""
    from groundling import corpus as corpus_mod
    sets = corpus_mod.training_sets(corpus_split[0], registry, reference)
    spaces = {"semantic": enumerate_semantic_space(),
              "perception": enumerate_perception_space(registry),
              "grounding": enumerate_grounding_type_space(registry)}
    training = {domain: (spaces[domain], sets[domain]) for domain in DOMAINS}
    training["grounding-world"] = (enumerate_grounding_space(reference, registry),
                                   sets["grounding"][:6])
    return training


@pytest.mark.parametrize("domain", DESIGN_SPACES)
def test_design_rows_score_like_phrase_logits(seed7_training, domain):
    # Training lists each row's feature columns from the one table of
    # feature names.  On the seed-7 training set, each row of the full
    # design (the oracle's, which the package's distinct rows are tied to
    # below) dotted with the weights is the logit the symbol oracle gives
    # that (phrase, symbol), and inference's logits have the symbol
    # oracle's bits (test_infer_is_bit_equal_to_the_symbol_oracle).
    space, examples = seed7_training[domain]
    weights = HashWeights(f"design-{domain}")
    model = CorrespondenceModel(domain=space.domain, weights=weights)
    design, _, names = oracles.assemble_design(space, examples)
    w = np.array([weights.get(name) for name in names])
    rows, bounds = design @ w, 1.0 + abs(design) @ abs(w)
    by_canon = {s.canon: s for s in space}
    start = 0
    for example in examples:
        for phrase in example.tree.phrases():
            child_trues = {by_canon[c] for child in phrase.children
                           for c in example.gold[child.index]}
            z = symbol_logits(model, phrase, space, child_trues, example.digest)
            stop = start + len(space)
            assert np.all(np.abs(z - rows[start:stop]) <= 1e-12 * bounds[start:stop])
            start = stop
    assert start == design.shape[0]


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def oracle_rows(space, examples):
    """The oracle's full design, labels and names, and its distinct
    (column list, label) rows in the order they first occur, with their
    labels and how often each occurs."""
    design, labels, names = oracles.assemble_design(space, examples)
    rank: dict[tuple, int] = {}
    firsts: list[int] = []
    counts: list[int] = []
    for i, (a, b, y) in enumerate(zip(design.indptr, design.indptr[1:], labels)):
        r = rank.setdefault((tuple(design.indices[a:b]), y), len(rank))
        if r == len(firsts):
            firsts.append(i)
            counts.append(0)
        counts[r] += 1
    return design, labels, names, (design[firsts], labels[firsts], np.array(counts))


def assert_same_rows(space, examples):
    """The package's design is the oracle's distinct rows, array for array;
    returns the package's design and the oracle's full one."""
    design, labels, counts, names = assemble_design(space, examples)
    full, full_labels, want_names, (want, want_labels, want_counts) = \
        oracle_rows(space, examples)
    assert_same_csr(design, want)
    for got, wanted in ((labels, want_labels), (counts, want_counts)):
        assert got.dtype == wanted.dtype and np.array_equal(got, wanted)
    assert names == want_names
    return (design, labels, counts), (full, full_labels)


@pytest.mark.parametrize("digests", ("as given", "varied"))
@pytest.mark.parametrize("domain", DESIGN_SPACES)
def test_design_matches_the_phrase_by_phrase_oracle(seed7_training, reference,
                                                    domain, digests):
    # Only the distinct rows are built, each distinct phrase's once; they
    # are the rows of the design built row by row from extract_features,
    # counted in the order they first occur.  Every seed-7 example of a
    # domain has the same digest, so "varied" gives the examples different
    # parts of the reference world's.
    space, examples = seed7_training[domain]
    if digests == "varied":
        pairs = sorted(reference.digest())
        examples = [replace(e, digest=frozenset(pairs[:i % (len(pairs) + 1)]))
                    for i, e in enumerate(examples)]
    assert_same_rows(space, examples)


@pytest.mark.parametrize("domain", DOMAINS)
def test_fixed_designs_match_the_generic_layout(seed7_training, domain):
    # A fixed space's design is the design on the generic layout of the
    # same symbols, whose layout numbers only their own keys.  The
    # grounding type space is the grounding layout's space with no world,
    # so its layout also numbers the instance keys; no column is named
    # at them, nor at their cmatch and dig cells.
    space, examples = seed7_training[domain]
    generic = symbol_space(space.domain, space)
    if domain == "grounding":
        assert len(space.layout.names) > len(generic.layout.names)
    else:
        assert space.layout.names == generic.layout.names
    design, labels, counts, names = assemble_design(space, examples)
    want, want_labels, want_counts, want_names = assemble_design(generic, examples)
    assert_same_csr(design, want)
    for got, wanted in ((labels, want_labels), (counts, want_counts)):
        assert got.dtype == wanted.dtype and np.array_equal(got, wanted)
    assert names == want_names


def without_pp_words(phrase):
    words = () if phrase.category == "PP" else phrase.words
    return replace(phrase, words=words,
                   children=tuple(map(without_pp_words, phrase.children)))


def draw_rows(data, seed7_training):
    """A few seed-7 examples, some repeated, with in-space canons added to
    or removed from their gold, so that some equal rows differ only in
    their label; returns the package's distinct rows and the oracle's full
    design, after checking the one against the other.  In the world's
    space, an instance row has several cells, and a child of each of its
    attributes fires ``cmatch`` at each of them.  Some trees lose the words
    of their prepositional phrases, which the grammar never does: a phrase
    with no word gives the rows of one variant the same columns, whatever
    their attribute values."""
    space, examples = seed7_training[data.draw(st.sampled_from(DESIGN_SPACES))]
    canons = sorted(s.canon for s in space)
    picked = []
    for i in data.draw(st.lists(st.integers(0, len(examples) - 1),
                                min_size=1, max_size=8)):
        gold = list(examples[i].gold)
        for _ in range(data.draw(st.integers(0, 4))):
            at = data.draw(st.integers(0, len(gold) - 1))
            remove = bool(gold[at]) and data.draw(st.booleans())
            gold[at] ^= {data.draw(st.sampled_from(sorted(gold[at]) if remove else canons))}
        tree = examples[i].tree
        if data.draw(st.booleans()):
            tree = ParseTree(root=without_pp_words(tree.root))
        picked.append(replace(examples[i], tree=tree, gold=tuple(gold)))
    rows, full = assert_same_rows(space, picked)
    phrases = sum(len(e.tree.phrases()) for e in picked)
    return rows, full, phrases * len(space)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_collapsed_rows_expand_to_the_design(seed7_training, data):
    # The rows are the oracle's distinct rows in the order they first
    # occur, counted; they are distinct, and their counts add up to the
    # full design's rows.
    (design, labels, counts), (full, _), n_rows = draw_rows(data, seed7_training)
    distinct = {(tuple(design.indices[a:b]), y) for a, b, y in
                zip(design.indptr, design.indptr[1:], labels)}
    assert len(distinct) == design.shape[0]
    assert counts.sum() == n_rows == full.shape[0]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), scale=st.sampled_from([0.1, 1.0, 5.0]),
       seed=st.integers(0, 2**32 - 1))
def test_collapsed_objective_matches_the_full_design(seed7_training, data,
                                                     scale, seed):
    (design, labels, counts), (full, full_labels), _ = draw_rows(data, seed7_training)
    # Every term of the objective is negative, so it cannot cancel; a
    # gradient entry is bounded by the sum of its terms' magnitudes.
    w = np.random.default_rng(seed).normal(scale=scale, size=design.shape[1])
    want, want_gradient = objective_and_gradient(full, full_labels, w, 1e-4)
    objective, gradient = objective_and_gradient(design, labels, w, 1e-4, counts)
    assert abs(objective - want) <= 1e-12 * abs(want)
    bound = abs(full).T @ abs(full_labels - expit(full @ w)) + 2e-4 * abs(w)
    assert np.all(np.abs(gradient - want_gradient) <= 1e-12 * bound)


def test_design_rejects_gold_that_does_not_fit_the_space(seed7_training):
    space, examples = seed7_training["semantic"]
    example = examples[0]
    with pytest.raises(CorpusDomainMismatch, match="does not cover every phrase"):
        assemble_design(space, [replace(example, gold=example.gold[:-1])])
    gold = (*example.gold[:-1], example.gold[-1] | {"objtype=dragon"})
    with pytest.raises(CorpusDomainMismatch, match="outside the 'semantic' space"):
        assemble_design(space, [example, replace(example, gold=gold)])


def test_an_empty_training_set_has_no_rows_and_trains_no_weights(seed7_training):
    space, _ = seed7_training["grounding"]
    design, labels, counts, names = assemble_design(space, [])
    assert design.shape == (0, 0) and names == ()
    assert labels.shape == counts.shape == (0,)
    result = train(space, [])
    assert result.converged and result.iterations == 0
    assert result.model.weights == {}


_CUP_LOGITS = """
import hashlib, sys
from groundling.fixtures import benchmark_manifest, site_spec
from groundling.pipeline import ModelBundle, run
from groundling.symbols import default_registry
from groundling.world import simulate

registry = default_registry()
bundle = ModelBundle.load(sys.argv[1])
case = next(c for c in benchmark_manifest() if "cup" in c.instruction)
log = simulate(site_spec(case.site), registry)
digest = hashlib.sha256()
for mode in ("B", "OF_AP"):
    result = run(case.instruction, log, bundle, registry, mode=mode)
    for assignment in (result.filter_decision and result.filter_decision.assignment,
                       result.selection and result.selection.assignment,
                       result.assignment):
        if assignment is not None:
            digest.update(assignment.space.domain.encode())
            digest.update(assignment.logits.tobytes())
print(digest.hexdigest())
"""


def test_inference_does_not_depend_on_string_hashing(bundle, tmp_path):
    bundle.save(tmp_path / "models")
    package_root = str(Path(groundling.__file__).parents[1])
    printed = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (package_root, os.environ.get("PYTHONPATH")))))
        done = subprocess.run(
            [sys.executable, "-c", _CUP_LOGITS, str(tmp_path / "models")],
            check=True, capture_output=True, text=True, env=env)
        printed.append(done.stdout)
    assert printed[0] == printed[1]


# --- training ----------------------------------------------------------------

def make_semantic_training_set(corpus_examples, registry, count=40):
    from groundling import corpus as corpus_mod
    examples = []
    for example in corpus_examples[:count]:
        tree = parse_text(example.text, registry)
        gold = corpus_mod.gold_annotations(example, tree, "semantic")
        examples.append(TrainingExample(tree=tree, gold=gold))
    return examples


def test_gradient_matches_finite_differences(corpus_examples, registry):
    space = enumerate_semantic_space()
    examples = make_semantic_training_set(corpus_examples, registry)
    design, labels, counts, _ = assemble_design(space, examples)
    rng = np.random.default_rng(21)
    h = 1e-5
    for _ in range(20):
        w = rng.normal(scale=0.5, size=design.shape[1])
        d = rng.normal(size=design.shape[1])
        d /= np.linalg.norm(d)
        _, grad = objective_and_gradient(design, labels, w, 1e-4, counts)
        analytic = float(grad @ d)
        f_plus, _ = objective_and_gradient(design, labels, w + h * d, 1e-4, counts)
        f_minus, _ = objective_and_gradient(design, labels, w - h * d, 1e-4, counts)
        numeric = (f_plus - f_minus) / (2.0 * h)
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)
        assert rel < 1e-5


def test_training_improves_objective(corpus_examples, registry):
    space = enumerate_semantic_space()
    examples = make_semantic_training_set(corpus_examples, registry, count=30)
    design, labels, counts, _ = assemble_design(space, examples)
    zero = np.zeros(design.shape[1])
    initial, _ = objective_and_gradient(design, labels, zero, 1e-4, counts)
    result = train(space, examples)
    assert result.objective > initial
    assert result.iterations >= 1


@pytest.mark.parametrize("nan_call, message", [
    (1, "at the start of training"), (3, "during training")])
def test_a_non_finite_objective_raises_diverged_loss(nan_call, message, corpus_examples,
                                                     registry, monkeypatch):
    # ``train`` looks the objective up on its module at every call.
    calls = []

    def objective(*args):
        calls.append(args)
        value, gradient = objective_and_gradient(*args)
        return (math.nan if len(calls) == nan_call else value), gradient

    monkeypatch.setattr(correspondence, "objective_and_gradient", objective)
    examples = make_semantic_training_set(corpus_examples, registry, count=20)
    with pytest.raises(DivergedLoss, match=message):
        train(enumerate_semantic_space(), examples)
    assert len(calls) == nan_call


def test_a_nan_gradient_raises_diverged_loss(corpus_examples, registry, monkeypatch):
    # A finite objective whose gradient is NaN sends the next step to NaN
    # weights, where the objective is NaN.
    calls = []

    def objective(*args):
        calls.append(args)
        value, gradient = objective_and_gradient(*args)
        return value, (np.full_like(gradient, math.nan) if len(calls) == 2 else gradient)

    monkeypatch.setattr(correspondence, "objective_and_gradient", objective)
    examples = make_semantic_training_set(corpus_examples, registry, count=20)
    with pytest.raises(DivergedLoss, match="during training"):
        train(enumerate_semantic_space(), examples)
    assert len(calls) == 3


def test_training_stops_unconverged_after_max_iterations(corpus_examples, registry,
                                                         monkeypatch):
    monkeypatch.setattr(correspondence, "MAX_ITERATIONS", 3)
    space = enumerate_semantic_space()
    examples = make_semantic_training_set(corpus_examples, registry, count=20)
    result = train(space, examples)
    assert not result.converged and result.iterations == 3
    assert result.grad_norm >= correspondence.TOLERANCE
    # The model is still one that inference can use.
    assert result.model.weights
    assert all(math.isfinite(w) for w in result.model.weights.values())
    assert np.isfinite(infer(result.model, examples[0].tree, space).logits).all()


def test_training_stops_unconverged_when_the_step_underflows(corpus_examples, registry,
                                                            monkeypatch):
    # Every trial point scores 1e9 below what it should, so no step
    # passes the Armijo test: the line search halves the step from 1 until
    # it falls below 1e-12, 40 trials, and training stops where it started.
    calls = []

    def objective(*args):
        calls.append(args)
        value, gradient = objective_and_gradient(*args)
        return (value if len(calls) == 1 else value - 1e9), gradient

    monkeypatch.setattr(correspondence, "objective_and_gradient", objective)
    examples = make_semantic_training_set(corpus_examples, registry, count=20)
    result = train(enumerate_semantic_space(), examples)
    assert not result.converged and result.iterations == 1
    assert result.model.weights == {}
    assert len(calls) == 1 + 40


EXACT_RATE = {"semantic": "semantic_exact", "perception": "perception_exact",
              "grounding": "action_exact"}


@pytest.fixture(scope="module")
def seed7_fits(seed7_training, corpus_split, registry, reference):
    """{"package" | "oracle": ({domain: TrainResult}, {domain: objective
    evaluations}, held-out EvaluationReport of the three models)}."""
    from groundling import corpus as corpus_mod
    fits = {}
    for side, fit in (("package", train), ("oracle", oracles.train)):
        results, evaluations = {}, {}
        for domain in DOMAINS:
            calls = []

            def objective(*args, calls=calls):
                calls.append(None)
                return objective_and_gradient(*args)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(correspondence, "objective_and_gradient", objective)
                results[domain] = fit(*seed7_training[domain])
            evaluations[domain] = len(calls)
        report = corpus_mod.evaluate(*(results[d].model for d in DOMAINS),
                                     corpus_split[1], registry, reference)
        fits[side] = (results, evaluations, report)
    return fits


@pytest.mark.parametrize("domain", DOMAINS)
def test_lbfgs_fits_like_the_reference_ascent_in_half_its_evaluations(seed7_fits,
                                                                      domain):
    results, evaluations, report = seed7_fits["package"]
    want, want_evaluations, want_report = seed7_fits["oracle"]
    got = results[domain]
    assert got.converged and got.grad_norm < correspondence.TOLERANCE
    reference_objective = want[domain].objective
    assert got.objective >= reference_objective - 1e-6 * abs(reference_objective)
    assert 2 * evaluations[domain] <= want_evaluations[domain]
    rate = EXACT_RATE[domain]
    assert getattr(report, rate) == getattr(want_report, rate)


@pytest.mark.parametrize("regularization", [-1.0, math.inf, math.nan, True, "0.1"])
def test_training_rejects_a_negative_or_non_finite_regularization(regularization):
    # At -1 training ran its 1000 iterations to an objective of 2.5e152.
    with pytest.raises(InvalidSpec, match="regularization"):
        train(enumerate_semantic_space(), [], regularization=regularization)


def test_trained_model_fits_its_training_set(corpus_examples, registry):
    from groundling import corpus as corpus_mod
    space = enumerate_semantic_space()
    examples = make_semantic_training_set(corpus_examples, registry, count=60)
    model = train(space, examples).model
    for example, training in zip(corpus_examples[:60], examples):
        assignment = infer(model, training.tree, space)
        gold_root = corpus_mod.gold_root_symbols(example)
        want = frozenset(s for s in gold_root if s in set(space))
        assert assignment.root_constraints() == want


def test_model_round_trip(tmp_path, corpus_examples, registry):
    space = enumerate_semantic_space()
    examples = make_semantic_training_set(corpus_examples, registry, count=20)
    model = train(space, examples).model
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.domain == model.domain
    assert loaded.regularization == model.regularization
    assert dict(loaded.weights) == dict(model.weights)


# Perception, and grounding: the one domain whose digest fires ``dig``
# from a frozenset.
_TRAIN_MODELS = """
import sys
from pathlib import Path
from groundling import corpus
from groundling.correspondence import save_model, train
from groundling.fixtures import reference_world
from groundling.symbols import (default_registry, enumerate_grounding_type_space,
                                enumerate_perception_space)

registry = default_registry()
config = corpus.CorpusConfig(plain=10, color=10, region=10, color_region=10)
examples = corpus.generate(config, registry)
sets = corpus.training_sets(examples, registry, reference_world(registry))
for space in (enumerate_perception_space(registry),
              enumerate_grounding_type_space(registry)):
    result = train(space, sets[space.domain])
    save_model(result.model, Path(sys.argv[1]) / f"{space.domain}.json")
"""


def test_trained_weights_do_not_depend_on_string_hashing(tmp_path):
    package_root = str(Path(groundling.__file__).parents[1])
    written = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"models-{hash_seed}"
        out.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (package_root, os.environ.get("PYTHONPATH")))))
        subprocess.run([sys.executable, "-c", _TRAIN_MODELS, str(out)],
                       check=True, capture_output=True, env=env)
        written.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert sorted(written[0]) == ["grounding.json", "perception.json"]
    assert written[0] == written[1]
