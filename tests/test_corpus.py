"""Corpus generation, gold annotation consistency, splitting, round-trips."""

from __future__ import annotations

import pytest

from groundling import corpus
from groundling.correspondence import CorrespondenceModel, resolve_action
from groundling.errors import AmbiguousRelation, InvalidConfig, InvalidFraction
from groundling.grammar import parse_text
from groundling.symbols import (
    color_symbol,
    object_type,
    region_symbol,
    relation_symbol,
)


def test_default_config_yields_500(corpus_examples):
    assert len(corpus_examples) == 500


def test_template_mix_matches_config(corpus_examples):
    config = corpus.CorpusConfig()
    by_template = {}
    for example in corpus_examples:
        by_template[example.template] = by_template.get(example.template, 0) + 1
    assert by_template == {t: config.count(t) for t in corpus.TEMPLATES}


def test_generation_is_deterministic(registry, corpus_examples):
    again = corpus.generate(corpus.CorpusConfig(seed=7), registry)
    assert again == corpus_examples


def test_uids_are_unique(corpus_examples):
    uids = [e.uid for e in corpus_examples]
    assert len(set(uids)) == len(uids)


def test_invalid_config_rejected():
    with pytest.raises(InvalidConfig):
        corpus.CorpusConfig(plain=-1)
    with pytest.raises(InvalidConfig):
        corpus.CorpusConfig(plain=0, color=0, region=0, color_region=0)


def test_gold_annotation_rejects_an_unknown_domain(corpus_examples, registry):
    example = corpus_examples[0]
    with pytest.raises(InvalidConfig, match="unknown annotation domain 'action'") as excinfo:
        corpus.gold_annotations(example, parse_text(example.text, registry), "action")
    assert type(excinfo.value) is InvalidConfig


def test_split_is_stratified(corpus_examples):
    train_set, held_out = corpus.split(corpus_examples)
    assert len(train_set) == 400 and len(held_out) == 100
    assert {e.uid for e in train_set}.isdisjoint(e.uid for e in held_out)
    for side in (train_set, held_out):
        assert {e.template for e in side} == set(corpus.TEMPLATES)


def test_split_rejects_bad_fraction(corpus_examples):
    for fraction in (0.0, -0.2, 1.5):
        with pytest.raises(InvalidFraction):
            corpus.split(corpus_examples, fraction=fraction)


def test_closest_maps_to_nearest(corpus_examples):
    for example in corpus_examples:
        expected = "farthest" if example.superlative == "farthest" else "nearest"
        assert example.relation() == expected


def test_gold_root_symbols_are_consistent(corpus_examples, registry):
    for example in corpus_examples[::4]:
        gold = corpus.gold_root_symbols(example)
        tree = parse_text(example.text, registry)
        assert ({s.canon for s in gold}
                == corpus.gold_annotations(example, tree, "grounding")[-1])
        assert object_type(example.noun) in gold
        assert relation_symbol(example.relation()) in gold
        assert (color_symbol(example.color) in gold if example.color
                else not any(s.variant == "color" for s in gold))
        region_symbols = {s for s in gold if s.variant == "region"}
        if example.region is not None:
            assert region_symbols == {region_symbol(example.region)}
        else:
            assert not region_symbols


def test_gold_annotations_cover_each_domain(corpus_examples, registry):
    for example in corpus_examples[::9]:
        tree = parse_text(example.text, registry)
        root = tree.root.index
        perception = corpus.gold_annotations(example, tree, "perception")[root]
        assert f"object_detector[{example.noun}]" in perception
        has_color = any(c.startswith("color_detector") for c in perception)
        assert has_color == (example.color is not None)
        semantic = corpus.gold_annotations(example, tree, "semantic")[root]
        if example.region is not None:
            assert semantic == {f"scene={example.region}"}
        else:
            assert not semantic


def test_gold_is_licensed_at_trigger_phrases(corpus_examples, registry):
    for example in corpus_examples[::9]:
        tree = parse_text(example.text, registry)
        gold = corpus.gold_annotations(example, tree, "grounding")
        noun_canon = object_type(example.noun).canon
        for phrase in tree.phrases():
            here = gold[phrase.index]
            subtree_words = set()

            def collect(p):
                subtree_words.update(p.words)
                for c in p.children:
                    collect(c)

            collect(phrase)
            if noun_canon in here:
                assert example.noun in subtree_words
            if example.noun in phrase.words:
                assert noun_canon in here


def test_round_trip(tmp_path, corpus_examples):
    path = tmp_path / "corpus.jsonl"
    corpus.save_corpus(corpus_examples, path)
    assert corpus.load_corpus(path) == corpus_examples


def test_evaluation_report_rates(bundle, registry, corpus_split, reference):
    _, held_out = corpus_split
    report = corpus.evaluate(bundle.semantic, bundle.perception,
                             bundle.grounding, held_out[:25], registry,
                             reference)
    assert report.examples == 25
    for rate in (report.semantic_exact, report.perception_exact,
                 report.action_exact):
        assert 0.0 <= rate <= 1.0


def test_empty_report_rates_are_zero():
    report = corpus.EvaluationReport(examples=0, semantic_hits=0,
                                     perception_hits=0, action_hits=0)
    assert report.semantic_exact == 0.0
    assert report.perception_exact == 0.0
    assert report.action_exact == 0.0


def test_evaluation_counts_a_failed_resolution_as_a_miss(bundle, corpus_examples,
                                                         registry, reference):
    # With no weight every logit is 0, at no phrase is a constraint true,
    # and an unconstrained pick among the reference world's objects has no
    # relation to rank them: each resolution fails, and each is a miss.
    blank = CorrespondenceModel(domain="grounding", weights={})
    with pytest.raises(AmbiguousRelation):
        resolve_action(frozenset(), reference)
    examples = corpus_examples[:20]
    report = corpus.evaluate(bundle.semantic, bundle.perception, blank, examples,
                             registry, reference)
    trained = corpus.evaluate(bundle.semantic, bundle.perception, bundle.grounding,
                              examples, registry, reference)
    assert report.examples == 20 and report.action_hits == 0 < trained.action_hits
    assert (report.semantic_hits, report.perception_hits) == (
        trained.semantic_hits, trained.perception_hits)
