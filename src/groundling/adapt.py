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

Neither model reads the world, only the parse tree.  A run that both
filters and selects infers the two assignments in one walk of the tree
(``infer_instruction``): the stacked model of the two scores the stacked
space of the two domains, and the result splits into the assignment of
each, bit for bit what the two walks would give.  ``filter_observations``
and ``infer_classifiers`` then take their assignment already made.
"""

from __future__ import annotations

from dataclasses import dataclass

from .correspondence import Assignment, CorrespondenceModel, StackedModel, infer
from .grammar import ParseTree
from .symbols import (
    ClassifierRegistry,
    PerceptionSymbol,
    STRUCTURAL_SYMBOLS,
    enumerate_instruction_space,
    enumerate_perception_space,
    enumerate_semantic_space,
)
from .world import ObservationLog

STRUCTURAL_STAGES = frozenset(STRUCTURAL_SYMBOLS.values())


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


def infer_instruction(model: StackedModel, tree: ParseTree,
                      registry: ClassifierRegistry) -> tuple[Assignment, ...]:
    """The semantic and the perception assignment of an instruction, in
    one walk of its parse tree.

    ``model`` stacks the semantic and perception models
    (``ModelBundle.instruction``); it scores the registry's instruction
    space, the semantic symbols and then the perception symbols, and the
    result is split into one assignment per domain.
    """
    return infer(model, tree, enumerate_instruction_space(registry)).parts()


def scene_labels(assignment: Assignment) -> frozenset[str]:
    return frozenset(s.scene_label for s in assignment.root_constraints())


def filter_by_labels(observations: ObservationLog, labels,
                     assignment: Assignment | None = None) -> FilterDecision:
    """Keep only observations whose scene label is in ``labels``.

    An empty label set keeps everything: with no evidence about where the
    target is, dropping observations could hide it.  ``kept`` is the log
    itself or a view of it, and ``dropped`` a view, both sharing the log's
    columns and in log order.
    """
    labels = frozenset(labels)
    kept, dropped = observations.partition(labels)
    if not labels:
        # No label is in the empty set: keep the log itself, and drop none.
        kept, dropped = observations, kept
    return FilterDecision(kept=kept, dropped=dropped, inferred_labels=labels,
                          assignment=assignment)


def filter_observations(observations: ObservationLog, model: CorrespondenceModel,
                        tree: ParseTree,
                        assignment: Assignment | None = None) -> FilterDecision:
    """Keep only observations whose scene label the instruction mentions.

    ``assignment`` is the semantic assignment of ``tree`` when it is
    already made (``infer_instruction``); otherwise ``model`` infers it
    over the fixed semantic space.
    """
    if assignment is None:
        assignment = infer(model, tree, enumerate_semantic_space())
    return filter_by_labels(observations, scene_labels(assignment), assignment)


def infer_classifiers(model: CorrespondenceModel, tree: ParseTree,
                      registry: ClassifierRegistry,
                      assignment: Assignment | None = None) -> ClassifierSelection:
    """Select the classifiers an instruction needs.

    The model's root-true perception symbols are taken verbatim and the
    structural stages are appended unconditionally.  ``assignment`` is
    the perception assignment of ``tree`` when it is already made
    (``infer_instruction``); otherwise ``model`` infers it.
    """
    if assignment is None:
        assignment = infer(model, tree, enumerate_perception_space(registry))
    inferred = assignment.root_constraints()
    return ClassifierSelection(selected=inferred | STRUCTURAL_STAGES,
                               inferred=inferred, assignment=assignment)
