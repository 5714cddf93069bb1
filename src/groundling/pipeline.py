"""End-to-end runs: instruction -> world model -> grounded action.

Four build modes bracket the efficiency comparison:

- ``B``     baseline: every observation, every registered classifier
- ``OF``    observation filtering by the instruction's scene symbols
- ``AP``    adaptive perception: only the inferred classifiers run
- ``OF_AP`` both reductions together

Every mode grounds from the robot's final pose of the full trajectory and
pays the scene classifier's per-observation cost (labels are consumed by
filtering and by object region attribution); modes differ only in which
observations and classifiers feed the world model.  Grounding failures
(no target, ambiguous relation, out-of-grammar instruction) are recorded
on the run result rather than raised, so a benchmark sweep always yields
a full table.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from . import corpus, correspondence
from .adapt import (
    ClassifierSelection,
    FilterDecision,
    filter_observations,
    infer_classifiers,
    infer_instruction,
)
from .correspondence import (
    DEFAULT_REGULARIZATION,
    Assignment,
    CorrespondenceModel,
    StackedModel,
    TrainResult,
    infer,
    load_model,
    save_model,
    train,
)
from .errors import (
    AmbiguousRelation,
    EmptyInstruction,
    GroundlingError,
    NoTargetObject,
    OutOfGrammar,
)
from .fixtures import reference_world
from .grammar import parse_text
from .symbols import (
    ClassifierRegistry,
    enumerate_grounding_space,
    enumerate_grounding_type_space,
    enumerate_perception_space,
    enumerate_semantic_space,
)
from .world import DetectedObject, ObservationLog, WorldModel, build_world_model

MODES = ("B", "OF", "AP", "OF_AP")
DOMAINS = ("semantic", "perception", "grounding")
CSV_COLUMNS = ("instruction", "site", "mode", "cost_units", "wall_time_s",
               "object_count", "grounding", "error")


@dataclass(frozen=True, eq=False)
class ModelBundle:
    """The three trained correspondence models.

    ``instruction`` stacks the semantic and perception models, so that a
    run that filters and selects scores both in one walk of the parse
    tree; it is made once per bundle.
    """

    semantic: CorrespondenceModel
    perception: CorrespondenceModel
    grounding: CorrespondenceModel

    @cached_property
    def instruction(self) -> StackedModel:
        return StackedModel((self.semantic, self.perception))

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for domain in DOMAINS:
            save_model(getattr(self, domain), directory / f"{domain}.json")

    @staticmethod
    def load(directory) -> "ModelBundle":
        """Read ``<domain>.json`` for each domain; each must hold its domain's model."""
        return ModelBundle(**{domain: load_model(Path(directory) / f"{domain}.json", domain)
                              for domain in DOMAINS})


def train_bundle(examples, registry: ClassifierRegistry,
                 regularization: float = DEFAULT_REGULARIZATION,
                 ) -> tuple[ModelBundle, dict[str, TrainResult]]:
    """Fit the three models on ``examples`` against the reference world.

    Returns the bundle and each domain's training result, so callers can
    report iterations, convergence, objective and gradient norm.
    """
    sets = corpus.training_sets(examples, registry, reference_world(registry))
    spaces = {
        "semantic": enumerate_semantic_space(),
        "perception": enumerate_perception_space(registry),
        "grounding": enumerate_grounding_type_space(registry),
    }
    results = {domain: train(space, sets[domain],
                             regularization=regularization)
               for domain, space in spaces.items()}
    bundle = ModelBundle(**{domain: result.model
                            for domain, result in results.items()})
    return bundle, results


@dataclass(frozen=True, eq=False)
class RunResult:
    """One (instruction, mode) build-and-ground outcome.

    ``grounding`` is the canon of the resolved navigation action and
    ``target`` the world-model object it drives to; both are empty when
    ``error`` names the grounding failure.  ``assignment`` is grounding
    inference's own output: its ``trues`` are its thresholded row
    logits and do not include the resolved action.
    """

    instruction: str
    site: str
    mode: str
    cost_units: float
    wall_time_s: float
    object_count: int
    grounding: str
    error: str
    world: WorldModel | None = None
    filter_decision: FilterDecision | None = None
    selection: ClassifierSelection | None = None
    assignment: Assignment | None = None
    target: DetectedObject | None = None

    def row(self) -> tuple:
        return (self.instruction, self.site, self.mode,
                f"{self.cost_units:.4f}", f"{self.wall_time_s:.6f}",
                str(self.object_count), self.grounding, self.error)


def run(instruction: str, observations: ObservationLog, models: ModelBundle,
        registry: ClassifierRegistry, mode: str = "B",
        site: str = "") -> RunResult:
    """Build a world model under one mode and ground the instruction in it.

    Grounding is two steps: ``infer`` scores the grounding space against
    the world's digest, then ``correspondence.resolve_action`` picks the
    target the root-true constraints imply among the world's objects; no
    instance symbol is made.  Every mode grounds from the pose of the
    log's latest observation (``ObservationLog.latest_pose``).  ``OF_AP``
    infers its semantic and perception assignments in one walk of the
    parse tree (``adapt.infer_instruction``); ``OF`` and ``AP`` each
    infer the one they need.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    started = time.perf_counter()
    scene_cost = registry.scene_cost_per_observation * len(observations)
    robot_pose = observations.latest_pose()

    decision = selection = assignment = target = None
    world = None
    grounding = ""
    error = ""
    try:
        tree = parse_text(instruction, registry)
        kept = observations
        semantic = perception = None
        if mode == "OF_AP":
            semantic, perception = infer_instruction(models.instruction, tree, registry)
        if mode in ("OF", "OF_AP"):
            decision = filter_observations(observations, models.semantic, tree, semantic)
            kept = decision.kept
        if mode in ("AP", "OF_AP"):
            selection = infer_classifiers(models.perception, tree, registry, perception)
            classifiers = selection.selected
        else:
            classifiers = registry.classifier_set
        world = build_world_model(kept, classifiers, registry,
                                  robot_pose=robot_pose)
        space = enumerate_grounding_space(world, registry)
        assignment = infer(models.grounding, tree, space, world.digest())
        action, target = correspondence.resolve_action(
            assignment.root_constraints(), world)
        grounding = action.canon
    except (EmptyInstruction, OutOfGrammar, NoTargetObject,
            AmbiguousRelation) as exc:
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - started

    cost = scene_cost + (world.total_cost if world is not None else 0.0)
    return RunResult(
        instruction=instruction, site=site, mode=mode,
        cost_units=cost, wall_time_s=elapsed,
        object_count=len(world) if world is not None else 0,
        grounding=grounding, error=error, world=world,
        filter_decision=decision, selection=selection, assignment=assignment,
        target=target,
    )


@dataclass(frozen=True, eq=False)
class BenchmarkReport:
    """Ordered run results for a benchmark sweep (cases x modes)."""

    results: tuple[RunResult, ...]

    def write_csv(self, path) -> None:
        Path(path).write_text(self.to_csv())

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for result in self.results:
            writer.writerow(result.row())
        return buffer.getvalue()

    def to_table(self) -> str:
        """Human-readable summary with per-instruction cost ratios."""
        lines = []
        header = (f"{'instruction':44s} {'site':7s} {'mode':6s}"
                  f" {'objects':>7s} {'cost':>9s} {'vs B':>6s} grounding")
        lines.append(header)
        lines.append("-" * len(header))
        baseline: dict[tuple[str, str], float] = {}
        for r in self.results:
            if r.mode == "B":
                baseline[(r.instruction, r.site)] = r.cost_units
        for r in self.results:
            base = baseline.get((r.instruction, r.site))
            ratio = f"{r.cost_units / base:6.2f}" if base else "   n/a"
            outcome = r.grounding if not r.error else f"ERROR {r.error}"
            lines.append(
                f"{r.instruction:44s} {r.site:7s} {r.mode:6s}"
                f" {r.object_count:7d} {r.cost_units:9.2f} {ratio} {outcome}"
            )
        return "\n".join(lines) + "\n"

    def write_audit(self, path) -> None:
        """Machine-readable per-run detail: filtering, selection, ledger."""
        rows = []
        for r in self.results:
            decision = r.filter_decision
            selection = r.selection
            rows.append({
                "instruction": r.instruction,
                "site": r.site,
                "mode": r.mode,
                "cost_units": r.cost_units,
                "object_count": r.object_count,
                "grounding": r.grounding,
                "error": r.error,
                "inferred_labels": (sorted(decision.inferred_labels)
                                    if decision else None),
                "kept_observations": len(decision.kept) if decision else None,
                "dropped_observations": (len(decision.dropped)
                                         if decision else None),
                "selected_classifiers": (sorted(s.canon for s in selection.selected)
                                         if selection else None),
                "cost_ledger": (list(map(list, r.world.cost_ledger))
                                if r.world is not None else None),
            })
        Path(path).write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")


def benchmark(cases, site_observations, models: ModelBundle,
              registry: ClassifierRegistry) -> BenchmarkReport:
    """Run every case under every mode, in declared order.

    ``site_observations`` maps site name to its observation log.
    """
    cases = tuple(cases)
    for case in cases:
        if case.site not in site_observations:
            raise GroundlingError(f"no observations for site {case.site!r}")
    return BenchmarkReport(results=tuple(
        run(case.instruction, site_observations[case.site], models, registry,
            mode=mode, site=case.site)
        for case in cases for mode in MODES
    ))
