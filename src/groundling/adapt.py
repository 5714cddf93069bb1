"""Instruction-adaptive observation filtering and classifier selection.

Two trained correspondence models turn an instruction into build-time
decisions before any perception runs: the semantic model predicts which
scene labels the instruction cares about (observations from other scenes
are dropped), and the perception model predicts which classifiers are
worth paying for (all others stay cold).  The structural stages -- noise
filter, bounding box, pose -- are always selected because nothing can
become a world-model object without them.

Filtering reads no record: it masks the observation log by scene label
and keeps a view that shares the log's indexed records, so the build
gathers only the kept observations' rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .correspondence import Assignment, CorrespondenceModel, infer
from .grammar import ParseTree
from .symbols import (
    ClassifierRegistry,
    PerceptionSymbol,
    STRUCTURAL_KINDS,
    enumerate_perception_space,
    enumerate_semantic_space,
)
from .world import ObservationLog

STRUCTURAL_STAGES = frozenset(PerceptionSymbol(kind) for kind in STRUCTURAL_KINDS)


@dataclass(frozen=True, eq=False)
class FilterDecision:
    """Outcome of instruction-guided observation filtering."""

    kept: ObservationLog
    dropped: ObservationLog
    inferred_labels: frozenset[str]
    assignment: Assignment | None = None


@dataclass(frozen=True, eq=False)
class ClassifierSelection:
    """Classifiers chosen for an instruction.

    ``inferred`` is what the model asked for; ``selected`` adds the
    structural stages.
    """

    selected: frozenset[PerceptionSymbol]
    inferred: frozenset[PerceptionSymbol]
    assignment: Assignment | None = None


def infer_semantics(model: CorrespondenceModel, tree: ParseTree) -> Assignment:
    """Infer scene symbols for an instruction over the fixed semantic space."""
    return infer(model, tree, enumerate_semantic_space())


def scene_labels(assignment: Assignment) -> frozenset[str]:
    return frozenset(s.scene_label for s in assignment.root_trues())


def filter_by_labels(observations, labels,
                     assignment: Assignment | None = None) -> FilterDecision:
    """Keep only observations whose scene label is in ``labels``.

    An empty label set keeps everything: with no evidence about where the
    target is, dropping observations could hide it.  ``kept`` is the log
    itself or a view of it, and ``dropped`` a view, both sharing the log's
    columns and in log order.
    """
    log = ObservationLog.of(observations)
    labels = frozenset(labels)
    kept, dropped = log.partition(labels)
    if not labels:
        # No label is in the empty set: keep the log itself, and drop none.
        kept, dropped = log, kept
    return FilterDecision(kept=kept, dropped=dropped, inferred_labels=labels,
                          assignment=assignment)


def filter_observations(observations, model: CorrespondenceModel,
                        tree: ParseTree) -> FilterDecision:
    """Keep only observations whose scene label the instruction mentions."""
    assignment = infer_semantics(model, tree)
    return filter_by_labels(observations, scene_labels(assignment), assignment)


def infer_classifiers(model: CorrespondenceModel, tree: ParseTree,
                      registry: ClassifierRegistry) -> ClassifierSelection:
    """Select the classifiers an instruction needs.

    The model's root-true perception symbols are taken verbatim and the
    structural stages are appended unconditionally.
    """
    assignment = infer(model, tree, enumerate_perception_space(registry))
    inferred = frozenset(assignment.root_trues())
    return ClassifierSelection(selected=inferred | STRUCTURAL_STAGES,
                               inferred=inferred, assignment=assignment)
