"""Workloads, output checks and end-to-end metrics of the benchmark.

Load follows how a robot uses groundling: one process, one thread, a
closed loop with one client.  The next instruction is issued only after
the previous ``pipeline.run`` returns.  Latency is timed from outside
around each ``pipeline.run`` call and covers every attempted run,
failures included.  Every call into the program goes through its module
(``pipeline.run``, ``correspondence.train``, ...) so that the traced run
of spans.py sees it.

End-to-end times are in reference seconds (yardstick.py): wall time, less
the loop's own, scaled by the host's speed near it, which a fixed loop
run between the program's calls measures.  ``runs_per_s`` counts runs
per reference second of ``pipeline.run`` time.  Wall-clock percentiles
are in the JSON report line.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from groundling import corpus, correspondence, fixtures, pipeline, world
from groundling.symbols import (
    ClassifierRegistry,
    default_registry,
    enumerate_grounding_type_space,
    enumerate_perception_space,
    enumerate_semantic_space,
)

from spans import DOMAINS, MODES, PER_LAYER, Tracer, layer_metrics
from yardstick import Yardstick

WHY = {
    "paper_sweep": "the paper's comparison: 6 manifest cases x 4 modes on the"
                   " 60-waypoint sites, the same 24 inputs repeated, so parsing"
                   " and inference dominate and an instruction cache would help",
    "long_log": "a robot with a long log: both sites tiled x8 (480 waypoints,"
                " ~290 objects in B) and fresh corpus instructions, so the"
                " world build dominates B and an instruction cache misses",
}

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("latency_p50_ms.B", "ms", "lower"),
    ("latency_p90_ms.B", "ms", "lower"),
    ("latency_p50_ms.OF", "ms", "lower"),
    ("latency_p50_ms.AP", "ms", "lower"),
    ("latency_p50_ms.OF_AP", "ms", "lower"),
    ("latency_p90_ms.OF_AP", "ms", "lower"),
    ("runs_per_s", "1/s", "higher"),
    ("ok_share", "ratio", "higher"),
    ("mode_agreement", "ratio", "higher"),
    ("cost_ratio.OF_AP", "ratio", "lower"),
    ("objects_ratio.OF_AP", "ratio", "lower"),
    ("train_s", "s", "lower"),
    ("heldout_exact", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# The bundle every sweep grounds with is trained on this corpus seed, the
# one the acceptance gates use, so the paper's rows hold.
BUNDLE_SEED = 7
SETUP_REPEATS = 2
TILES = 8
TILE_M = 60.0
SITES = ("site-1", "site-2")
# Blocks of the long_log skeleton per run at least: two give 48 samples
# per mode, each skeleton input twice.
LONG_LOG_BLOCKS = 2
# During set-up, the yardstick is read before every this many objective
# evaluations of the training: about 200 times per set-up, 5% of its time.
OBJECTIVE_CALLS_PER_SAMPLE = 25
CUP_ROW = ("go to the farthest cup in the kitchen",
           {"B": 37, "AP": 11, "OF_AP": 9})


class ContractError(RuntimeError):
    """BENCHMARK.json and this file disagree on workloads or metrics."""


def check_contract(root: Path) -> None:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": [(m["name"], m["unit"], m["better"])
                       for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"], m["better"])
                      for m in spec["per_layer"]],
    }
    emitted = {"workloads": list(WORKLOADS), "end_to_end": list(END_TO_END),
               "per_layer": list(PER_LAYER)}
    for key, names in emitted.items():
        if declared[key] != names:
            raise ContractError(f"BENCHMARK.json {key} do not match bench.py")


# ---------------------------------------------------------------------------
# Inputs

def tiled(spec: world.WorldSpec, copies: int) -> world.WorldSpec:
    """``spec`` repeated along the corridor, each tile 60 m further on.

    Object ids get a ``~k`` suffix so every tile's objects stay distinct.
    """
    objects = tuple(
        replace(o, id=f"{o.id}~{k}",
                pose=(o.pose[0] + TILE_M * k, o.pose[1], o.pose[2]))
        for k in range(copies) for o in spec.objects)
    trajectory = tuple((x + TILE_M * k, y, theta)
                       for k in range(copies) for x, y, theta in spec.trajectory)
    return replace(spec, name=f"{spec.name}x{copies}", objects=objects,
                   trajectory=trajectory)


def label_runs(observations) -> str:
    return " ".join(f"{label}*{sum(1 for _ in group)}" for label, group
                    in itertools.groupby(o.scene_label for o in observations))


def instruction_blocks(registry, seed: int):
    """Endless blocks of corpus instructions on one fixed skeleton.

    A block asks for every object class once: every third class without a
    region, the others each with the next scene label in turn (each label
    once, for the default registry), and every second class with a color.
    The class, region and color asked for set the latency of every mode:
    filtering keeps only a named region, selection adds the color stage,
    and the grounding space grows with the objects of the class.  So the
    skeleton is fixed, and a run's percentiles do not swing with the seed.
    The seed draws the rest of each instruction from ``corpus.generate``:
    which color, verb and superlative.
    """
    # Enough examples that every (class, region, color or not) cell of the
    # skeleton has some.
    config = corpus.CorpusConfig(plain=400, color=400, region=800,
                                 color_region=800, seed=seed)
    cells = defaultdict(list)
    for example in corpus.generate(config, registry):
        cells[(example.noun, example.region, example.color is not None)
              ].append(example.text)
    labels = itertools.cycle(registry.scene_labels)
    skeleton = [(noun, None if i % 3 == 0 else next(labels), i % 2 == 1)
                for i, noun in enumerate(registry.object_classes)]
    rng = np.random.default_rng(seed)
    while True:
        yield [cells[key][rng.integers(len(cells[key]))] for key in skeleton]


# ---------------------------------------------------------------------------
# Set-up

def train_bundle(examples, registry, reference, lap) -> pipeline.ModelBundle:
    sets = corpus.training_sets(examples, registry, reference)
    spaces = {
        "semantic": enumerate_semantic_space(),
        "perception": enumerate_perception_space(registry),
        "grounding": enumerate_grounding_type_space(registry),
    }
    lap("train.training_sets")
    models = {}
    for d in DOMAINS:
        models[d] = correspondence.train(spaces[d], sets[d]).model
        lap(f"train.{d}")
    return pipeline.ModelBundle(**models)


def heldout_exact(bundle, held, registry, reference) -> float:
    report = corpus.evaluate(bundle.semantic, bundle.perception,
                             bundle.grounding, held, registry, reference)
    return min(report.semantic_exact, report.perception_exact,
               report.action_exact)


@dataclass
class Setup:
    registry: ClassifierRegistry
    reference: world.WorldModel
    sites: dict
    held: tuple
    bundle: pipeline.ModelBundle | None = None
    steps: dict = field(default_factory=dict)


def set_up(workload: str, yardstick: Yardstick) -> Setup:
    """Corpus, bundle and site logs, built from scratch.

    ``steps`` gets each step's wall ``(start, end, seconds in the
    yardstick's loop)``; the loop runs once before the first step and
    after each one.
    """
    steps = {}

    def lap(name):
        nonlocal mark
        steps[name] = (mark[0], perf_counter(), yardstick.spent - mark[1])
        yardstick.sample()
        mark = (perf_counter(), yardstick.spent)

    yardstick.sample()
    mark = (perf_counter(), yardstick.spent)
    registry = default_registry()
    examples = corpus.generate(corpus.CorpusConfig(seed=BUNDLE_SEED), registry)
    train_split, held = corpus.split(examples)
    reference = fixtures.reference_world(registry)
    lap("corpus")
    setup = Setup(registry, reference, {}, held, steps=steps)
    setup.bundle = train_bundle(train_split, registry, reference, lap)
    copies = TILES if workload == "long_log" else 1
    for name in SITES:
        spec = fixtures.site_spec(name)
        if copies > 1:
            spec = tiled(spec, copies)
        setup.sites[name] = world.simulate(spec, registry)
        lap(f"simulate.{name}")
    return setup


# ---------------------------------------------------------------------------
# Timed runs and their checks

@dataclass
class Record:
    """Everything a workload measured, untraced and traced apart.

    ``latency`` holds, per mode, the wall ``(start, seconds)`` of every
    untraced timed run.
    """

    yardstick: Yardstick = field(default_factory=Yardstick)
    latency: dict = field(default_factory=lambda: defaultdict(list))
    traced_latency: list = field(default_factory=list)
    untraced_latency: list = field(default_factory=list)
    window_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    raised: Counter = field(default_factory=Counter)
    raised_example: dict = field(default_factory=dict)
    check_failures: list = field(default_factory=list)
    agreement: list = field(default_factory=list)
    sums: Counter = field(default_factory=Counter)
    setups: list = field(default_factory=list)
    heldout: list = field(default_factory=list)
    passes: int = 0


def run_row(setup, bundle, instruction, site, mode, record=None):
    """One ``pipeline.run`` call as a comparable row, plus its start and
    latency.

    A run that raises yields ``("raised", class)``; the exception is
    counted, never hidden.
    """
    started = perf_counter()
    try:
        result = pipeline.run(instruction, setup.sites[site], bundle,
                              setup.registry, mode=mode, site=site)
        row = (result.cost_units, result.object_count, result.grounding,
               result.error)
    except Exception as exc:  # counted per class; the sweep goes on
        row = ("raised", type(exc).__name__)
        if record is not None:
            record.raised[row[1]] += 1
            record.raised_example.setdefault(row[1], f"{row[1]}: {exc}")
    return row, started, perf_counter() - started


def outcome(row) -> str:
    """The grounding, or the error class, of a row."""
    if row[0] == "raised":
        return row[1]
    return row[2] or row[3].split(":", 1)[0]


def agree(rows_by_mode) -> bool:
    return len({outcome(row) for row in rows_by_mode.values()}) == 1


def add_sums(record, rows_by_mode) -> None:
    base, small = rows_by_mode["B"], rows_by_mode["OF_AP"]
    if "raised" in (base[0], small[0]):
        return
    record.sums["cost.B"] += base[0]
    record.sums["cost.OF_AP"] += small[0]
    record.sums["objects.B"] += base[1]
    record.sums["objects.OF_AP"] += small[1]


def paper_checks(reference) -> dict:
    """Keys of manifest rows that break the paper's result, with why.

    All four modes must ground each case alike, and the cup row must keep
    its (B, AP, OF_AP) object counts.
    """
    bad = {}
    cases = {case for case, _ in reference}
    for case in cases:
        rows = {mode: reference[(case, mode)] for mode in MODES}
        if not agree(rows):
            for mode in MODES:
                bad[(case, mode)] = (f"modes disagree on {case.instruction!r}:"
                                     f" {sorted(map(outcome, rows.values()))}")
        if case.instruction == CUP_ROW[0]:
            for mode, objects in CUP_ROW[1].items():
                if rows[mode][1] != objects:
                    bad[(case, mode)] = (f"cup row {mode} has {rows[mode][1]}"
                                         f" objects, expected {objects}")
    return bad


def timed(record, mode, row, started, elapsed, expected, traced, why=None):
    """Count one timed run and check it against its reference row."""
    record.attempted += 1
    (record.traced_latency if traced else record.untraced_latency).append(
        elapsed)
    if not traced:
        record.latency[mode].append((started, elapsed))
    problem = why
    if row != expected:
        problem = f"row {row!r} differs from the reference {expected!r}"
    if row[0] == "raised" or problem:
        record.failed += 1
    if problem and len(record.check_failures) < 20:
        record.check_failures.append(problem)


def manifest_passes(setup, bundle, record, rng, tracer, seconds):
    """Untimed warm-up pass, then timed passes over the 24 manifest runs.

    Every timed row must equal the warm-up row of the same (case, mode).
    Passes stop once ``seconds`` have passed, after at least one pass of
    each kind.  With a tracer, odd passes are traced.  The yardstick is
    read before and after every pass.
    """
    reference = {}
    for case in fixtures.benchmark_manifest():
        rows = {mode: run_row(setup, bundle, case.instruction, case.site,
                              mode)[0] for mode in MODES}
        record.agreement.append(agree(rows))
        add_sums(record, rows)
        reference.update({(case, mode): row for mode, row in rows.items()})
    work = list(reference)
    bad = paper_checks(reference)
    gc.collect()
    record.yardstick.sample()
    started = perf_counter()
    done = 0
    while True:
        traced = tracer is not None and done % 2 == 1
        with tracer if traced else nullcontext():
            for i in rng.permutation(len(work)):
                case, mode = work[i]
                row, began, elapsed = run_row(setup, bundle, case.instruction,
                                              case.site, mode, record)
                timed(record, mode, row, began, elapsed,
                      reference[(case, mode)], traced, bad.get((case, mode)))
        record.yardstick.sample()
        done += 1
        if (perf_counter() - started >= seconds
                and done >= (2 if tracer else 1)):
            break
    record.window_s += perf_counter() - started
    record.passes += done


# ---------------------------------------------------------------------------
# Workloads

def paper_sweep(setup, seed, seconds, tracer, record):
    with tracer or nullcontext():
        record.heldout.append(heldout_exact(setup.bundle, setup.held,
                                            setup.registry, setup.reference))
    rng = np.random.default_rng(seed)
    manifest_passes(setup, setup.bundle, record, rng, tracer, seconds)


def long_log(setup, seed, seconds, tracer, record):
    """Blocks of instructions, each on both tiled sites under all 4 modes.

    Instructions are met cold: their reference rows come from a pass after
    the timed window, which re-runs every timed (instruction, site, mode).
    A short warm-up on instructions not used later primes the code paths.
    Whole blocks run while the next one, as long as the ones before,
    would end within ``seconds``; at least ``LONG_LOG_BLOCKS`` run.  With
    a tracer every timed run is traced, and the untraced re-runs of the
    same inputs are the base of the tracing overhead.  The yardstick is
    read after each instruction's runs on a site.
    """
    with tracer or nullcontext():
        record.heldout.append(heldout_exact(setup.bundle, setup.held,
                                            setup.registry, setup.reference))
    blocks = instruction_blocks(setup.registry, seed)
    for instruction in next(blocks)[:2]:
        for site in SITES:
            for mode in MODES:
                run_row(setup, setup.bundle, instruction, site, mode)
    mode_rng = np.random.default_rng(seed)
    gc.collect()
    record.yardstick.sample()
    timed_rows = []
    started = perf_counter()
    with tracer or nullcontext():
        for block in blocks:
            for instruction in block:
                for site in SITES:
                    rows = {}
                    for k in mode_rng.permutation(len(MODES)):
                        mode = MODES[k]
                        rows[mode], began, elapsed = run_row(
                            setup, setup.bundle, instruction, site, mode,
                            record)
                        timed_rows.append((instruction, site, mode,
                                           rows[mode], began, elapsed))
                    record.yardstick.sample()
                    record.agreement.append(agree(rows))
                    add_sums(record, rows)
            record.passes += 1
            spent = perf_counter() - started
            if (record.passes >= LONG_LOG_BLOCKS
                    and spent * (record.passes + 1) / record.passes > seconds):
                break
    record.window_s = perf_counter() - started
    traced = tracer is not None
    for instruction, site, mode, row, began, elapsed in timed_rows:
        again, _, again_s = run_row(setup, setup.bundle, instruction, site,
                                    mode)
        if traced:
            record.untraced_latency.append(again_s)
        timed(record, mode, row, began, elapsed, again, traced)


WORKLOADS = {"paper_sweep": paper_sweep, "long_log": long_log}


# ---------------------------------------------------------------------------
# Report

def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def percentile(values, share: int) -> float:
    """The ``share``-th percentile (exclusive method) of ``values``."""
    if share == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100)[share - 1]


def wall_percentiles(record) -> dict:
    """Wall-clock p50/p90 in ms over the untraced timed runs, per mode."""
    return {mode: {f"p{share}": percentile([e for _, e in runs], share) * 1e3
                   for share in (50, 90)}
            for mode, runs in record.latency.items() if len(runs) > 1}


def end_to_end(record) -> dict:
    seconds = record.yardstick.seconds
    latency = {mode: [seconds(s, s + e) for s, e in runs]
               for mode, runs in record.latency.items()}
    setup_s, train_s = [], []
    for steps in record.setups:
        step_s = {step: seconds(*interval) for step, interval in steps.items()}
        setup_s.append(sum(step_s.values()))
        train_s.append(sum(v for step, v in step_s.items()
                           if step.startswith("train.")))
    metrics = {"setup_s": statistics.median(setup_s)}
    for name, _, _ in END_TO_END:
        if name.startswith("latency_"):
            share, mode = name[len("latency_p"):].split("_ms.")
            metrics[name] = percentile(latency[mode], int(share)) * 1e3
    metrics.update({
        "runs_per_s": (sum(map(len, latency.values()))
                       / sum(map(sum, latency.values()))),
        "ok_share": (record.attempted - record.failed) / record.attempted,
        "mode_agreement": sum(record.agreement) / len(record.agreement),
        "cost_ratio.OF_AP": record.sums["cost.OF_AP"] / record.sums["cost.B"],
        "objects_ratio.OF_AP": (record.sums["objects.OF_AP"]
                                / record.sums["objects.B"]),
        "train_s": statistics.median(train_s),
        "heldout_exact": min(record.heldout),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    return metrics


def main(root: Path, workload: str, seed: int, seconds: int,
         trace: bool) -> int:
    check_contract(root)
    tracer = Tracer() if trace else None
    record = Record()
    for attempt in range(SETUP_REPEATS):
        gc.collect()
        with tracer or record.yardstick.every_call(
                correspondence, "objective_and_gradient",
                OBJECTIVE_CALLS_PER_SAMPLE):
            fresh = set_up(workload, record.yardstick)
        record.setups.append(fresh.steps)
        if attempt == 0:
            setup = fresh
        del fresh
    labels = {name: label_runs(obs) for name, obs in setup.sites.items()}
    if workload == "long_log":
        for name in SITES:
            single = world.simulate(fixtures.site_spec(name), setup.registry)
            labels[f"{name}x1"] = label_runs(single)
            labels[f"{name}x{TILES}_seam_drift_waypoints"] = sum(
                a.scene_label != b.scene_label for a, b in
                zip(setup.sites[name], itertools.cycle(single)))
    WORKLOADS[workload](setup, seed, seconds, tracer, record)

    if trace:
        metrics = layer_metrics(tracer.spans, record.untraced_latency,
                                record.traced_latency)
        units = {name: unit for name, unit, _ in PER_LAYER}
        out_dir = root / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{workload}-{seed}.jsonl"
        tracer.write(spans_file)
    else:
        metrics = end_to_end(record)
        units = {name: unit for name, unit, _ in END_TO_END}
        spans_file = None

    samples = {f"latency.{mode}": len(record.latency[mode]) for mode in MODES}
    samples.update({"traced_runs": len(record.traced_latency),
                    "untraced_runs": len(record.untraced_latency),
                    "agreement_units": len(record.agreement),
                    "setups": len(record.setups)})
    report = {
        "workload": workload, "why": WHY[workload], "seed": seed,
        "seconds": seconds, "trace": int(trace), "machine": machine(),
        "load": "closed loop, one client, one thread",
        "samples": samples, "passes": record.passes,
        "window_s": record.window_s, "raised": dict(record.raised),
        "wall_latency_ms": wall_percentiles(record),
        "wall_setup_s": [sum(end - start - in_loop
                             for start, end, in_loop in steps.values())
                         for steps in record.setups],
        "yardstick": record.yardstick.summary(),
        "raised_example": record.raised_example,
        "check_failures": record.check_failures, "label_runs": labels,
        "spans": str(spans_file.relative_to(root)) if spans_file else None,
    }
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not record.check_failures,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    sys.stdout.flush()
    return 0
