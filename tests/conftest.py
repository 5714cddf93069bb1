"""Shared fixtures: registry, site logs, corpus, trained model bundle.

The expensive artifacts (simulated observation logs, the 500-instruction
corpus, the trained bundle, the benchmark sweep) are session-scoped so
the suite pays for each exactly once.  Timings for training and the
benchmark sweep are recorded alongside the artifacts because the
acceptance gates assert runtime budgets on them.
"""

from __future__ import annotations

import time

import pytest

from groundling import corpus
from groundling.fixtures import (
    benchmark_manifest,
    reference_world,
    site_spec,
)
from groundling.pipeline import benchmark, train_bundle
from groundling.symbols import default_registry
from groundling.world import simulate


@pytest.fixture(scope="session")
def registry():
    return default_registry()


@pytest.fixture(scope="session")
def site_logs(registry):
    return {
        site: simulate(site_spec(site), registry)
        for site in ("site-1", "site-2")
    }


@pytest.fixture(scope="session")
def corpus_examples(registry):
    return corpus.generate(corpus.CorpusConfig(seed=7), registry)


@pytest.fixture(scope="session")
def corpus_split(corpus_examples):
    return corpus.split(corpus_examples)


@pytest.fixture(scope="session")
def reference(registry):
    return reference_world(registry)


@pytest.fixture(scope="session")
def trained(registry, corpus_split):
    """(bundle, {domain: TrainResult}, seconds) on the standard split.

    The clock covers design assembly and optimization for all three
    domains -- everything a retraining would have to redo.
    """
    train_set, _ = corpus_split
    started = time.perf_counter()
    bundle, results = train_bundle(train_set, registry)
    return bundle, results, time.perf_counter() - started


@pytest.fixture(scope="session")
def training_run(trained):
    """(bundle, seconds): models fit on the standard split, with wall time."""
    return trained[0], trained[2]


@pytest.fixture(scope="session")
def train_results(trained):
    return trained[1]


@pytest.fixture(scope="session")
def bundle(training_run):
    return training_run[0]


@pytest.fixture(scope="session")
def bench(registry, site_logs, bundle):
    """(report, seconds): the full cases x modes benchmark sweep."""
    started = time.perf_counter()
    report = benchmark(benchmark_manifest(), site_logs, bundle, registry)
    elapsed = time.perf_counter() - started
    return report, elapsed


@pytest.fixture(scope="session")
def bench_report(bench):
    return bench[0]
