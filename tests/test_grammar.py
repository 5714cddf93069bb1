"""Parser behaviour: totality over the corpus, tree shape, error tokens."""

from __future__ import annotations

import gc
from dataclasses import replace

import pytest

from groundling.errors import EmptyInstruction, OutOfGrammar
from groundling.fixtures import benchmark_manifest
from groundling.grammar import ParseTree, feature_tokens, parse_text, tokenize


def dump_tree(tree: ParseTree) -> str:
    """Serialize to the bracketed form ``(VP go (PP to (NP the ball)))``."""

    def render(p) -> str:
        parts = [p.category, *p.words] + [render(c) for c in p.children]
        return "(" + " ".join(parts) + ")"

    return render(tree.root)


def all_phrase_words(tree):
    return [w for p in tree.phrases() for w in p.words]


def test_parse_is_total_over_corpus(corpus_examples, registry):
    for example in corpus_examples:
        tree = parse_text(example.text, registry)
        assert tree.root.category == "VP"
        assert len(tree) >= 1


def test_post_order_indices_are_dense(corpus_examples, registry):
    for example in corpus_examples[:50]:
        phrases = parse_text(example.text, registry).phrases()
        assert [p.index for p in phrases] == list(range(len(phrases)))


def test_feature_tokens_are_made_once_per_tree(registry):
    # The three models of a run read one tree's post-order and tokens.
    tree = parse_text("walk to the closest blue person in the parking lot", registry)
    assert tree.phrases() is tree.phrases()
    assert tree.feature_tokens is tree.feature_tokens
    assert tree.feature_tokens == tuple(map(feature_tokens, tree.phrases()))
    assert tree.feature_tokens[0] == (
        "bias", "cat=NP", "w=the", "w=closest", "w=blue", "w=person")
    # A word the phrase owns twice is one token.
    parking = tree.phrases()[1]
    assert feature_tokens(replace(parking, words=parking.words * 2)) == (
        "bias", "cat=NP", "w=the", "w=parking", "w=lot")
    # Each token is made once, per category and per word, and every parse
    # after shares it.
    again = parse_text("go to the blue person", registry).feature_tokens
    shared = dict(zip(tree.feature_tokens[0], tree.feature_tokens[0]))
    assert all(shared[token] is token for token in again[0])


def test_a_parse_leaves_no_reference_cycle(registry):
    # A parse is freed by reference counting alone: nothing is left for the
    # cyclic collector, which a closed loop of runs would otherwise fill.
    texts = [case.instruction for case in benchmark_manifest()]
    for text in texts:
        parse_text(text, registry)  # makes the registry's lexicon once
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            for text in texts:
                tree = parse_text(text, registry)
                tree.phrases()
                tree.feature_tokens
        del tree
        assert gc.collect() == 0
    finally:
        gc.enable()
    # A tree made from its root alone derives the parser's post-order.
    for text in texts:
        tree = parse_text(text, registry)
        assert ParseTree(root=tree.root).phrases() == tree.phrases()


def test_phrases_partition_the_tokens(corpus_examples, registry):
    for example in corpus_examples[:50]:
        tree = parse_text(example.text, registry)
        words = all_phrase_words(tree)
        assert sorted(words) == sorted(tokenize(example.text))


def test_parse_is_deterministic(registry):
    text = "go to the nearest red ball in the kitchen"
    assert parse_text(text, registry) == parse_text(text, registry)


@pytest.mark.parametrize("text, expected", [
    ("go to the ball",
     "(VP go (PP to (NP the ball)))"),
    ("drive to the nearest red cup",
     "(VP drive (PP to (NP the nearest red cup)))"),
    ("walk to the farthest chair in the kitchen",
     "(VP walk (PP to (NP the farthest chair) (PP in (NP the kitchen))))"),
    ("navigate to the closest suitcase in the parking lot",
     "(VP navigate (PP to (NP the closest suitcase) (PP in (NP the parking lot))))"),
    ("go to the nearest ball in the kitchen in the lab",
     "(VP go (PP to (NP the nearest ball) (PP in (NP the kitchen)"
     " (PP in (NP the lab)))))"),
    ("go to the office",
     "(VP go (PP to (NP the office)))"),
    ("go in the kitchen",
     "(VP go (PP in (NP the kitchen)))"),
])
def test_golden_trees(text, expected, registry):
    assert dump_tree(parse_text(text, registry)) == expected


@pytest.mark.parametrize("text, expected", [
    ("go to the red", "(VP go (PP to (NP the red)))"),
    ("go to the nearest red", "(VP go (PP to (NP the nearest red)))"),
    ("go to the red in the kitchen",
     "(VP go (PP to (NP the red) (PP in (NP the kitchen))))"),
    ("go to the red ball", "(VP go (PP to (NP the red ball)))"),
    ("go to the red red", "(VP go (PP to (NP the red red)))"),
])
def test_color_that_is_also_a_class(text, expected, registry):
    """A color word is the noun unless a noun follows it."""
    extended = replace(registry, object_classes=registry.object_classes + ("red",))
    assert dump_tree(parse_text(text, extended)) == expected


@pytest.mark.parametrize("text, expected", [
    ("go to the nearest red cup", "(VP go (PP to (NP the nearest red cup)))"),
    ("go to the nearest cup", "(VP go (PP to (NP the nearest cup)))"),
    ("go to the nearest", "(VP go (PP to (NP the nearest)))"),
])
def test_superlative_that_is_also_a_class(text, expected, registry):
    """A superlative word is the noun unless a noun, or a colour and then a
    noun, follows it."""
    extended = replace(registry, object_classes=registry.object_classes + ("nearest",))
    assert dump_tree(parse_text(text, extended)) == expected


def test_empty_instruction_rejected(registry):
    with pytest.raises(EmptyInstruction):
        parse_text("   ", registry)


@pytest.mark.parametrize("text, token", [
    ("purple elephant dances", "purple"),
    ("go go go", "go"),
    ("to the ball", "to"),
    ("go to the nearest ball in the bathroom", "bathroom"),
    ("go the ball purple", "purple"),
    ("go to the", "the"),
])
def test_out_of_grammar_rejected(text, token, registry):
    """Unknown words are reported first, else the first token not consumed."""
    with pytest.raises(OutOfGrammar) as excinfo:
        parse_text(text, registry)
    assert excinfo.value.token == token
