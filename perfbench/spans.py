"""Per-layer spans recorded from outside the program.

The traced run swaps module-level names of the ``groundling`` package for
wrappers that record a span per call, then puts the originals back.  Each
name below is one that ``pipeline.run``, ``adapt``, ``build_world_model``,
``correspondence.infer`` or ``correspondence.train`` looks up at call time,
or a public entry point the benchmark calls through its module.  A name
that no longer exists, or a wrapped layer that records no span in the
whole traced run, stops the benchmark: a refactor must not silently zero
a layer.

A span is ``(id, name, start, end, parent, run, attrs)``, with integer
nanosecond clock readings so that self times add up exactly.  ``run`` is the id
of the root span of its call tree (one ``pipeline.run`` call, one
``correspondence.train`` call, ...).  Spans stay in memory until
``Tracer.write``.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import defaultdict
from time import perf_counter_ns

from groundling import adapt, corpus, correspondence, pipeline, world

MODES = pipeline.MODES
DOMAINS = ("semantic", "perception", "grounding")
STAGE_KINDS = ("object_detector", "noise_filter", "color_detector",
               "bbox_estimator", "pose_estimator")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _domain(args, kwargs):
    return {"domain": args[0].domain}


def _build_attrs(args, kwargs, result):
    observations = _arg(args, kwargs, 0, "observations")
    return {"records_in": sum(len(o.sensed) for o in observations),
            "objects": len(result.objects), "cost_units": result.total_cost}


def _train_attrs(args, kwargs, result):
    return {"iterations": result.iterations,
            "converged": int(result.converged), "grad_norm": result.grad_norm}


# (module, attribute, span name, attrs read from the arguments before the
# call, attrs read from the arguments and the result after it).
WRAPPED = (
    (pipeline, "run", "pipeline.run",
     lambda a, k: {"mode": _arg(a, k, 4, "mode")}, None),
    (pipeline, "parse_text", "grammar.parse", None, None),
    (pipeline, "filter_observations", "adapt.filter", None,
     lambda a, k, r: {"offered": len(r.kept) + len(r.dropped),
                      "kept": len(r.kept)}),
    (pipeline, "infer_classifiers", "adapt.select", None,
     lambda a, k, r: {"selected": len(r.selected),
                      "available": len(_arg(a, k, 2, "registry").classifiers())}),
    (adapt, "infer", "correspondence.infer", _domain,
     lambda a, k, r: {"factor_evals": r.factor_evals}),
    (pipeline, "build_world_model", "world.build", None, _build_attrs),
    (world, "run_classifier", "world.stage",
     lambda a, k: {"kind": _arg(a, k, 0, "symbol").kind}, None),
    (pipeline, "enumerate_grounding_space", "symbols.space", None,
     lambda a, k, r: {"size": len(r)}),
    (pipeline, "infer", "correspondence.infer", _domain,
     lambda a, k, r: {"factor_evals": r.factor_evals}),
    (correspondence, "resolve_action", "correspondence.resolve", None, None),
    (correspondence, "train", "correspondence.train", _domain, _train_attrs),
    (correspondence, "assemble_design", "correspondence.assemble", None, None),
    (correspondence, "objective_and_gradient", "correspondence.objective",
     None, None),
    (corpus, "training_sets", "corpus.training_sets", None, None),
    (corpus, "evaluate", "corpus.evaluate", None, None),
    (world, "simulate", "world.simulate", None, None),
)


def _per_layer():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [("grammar.parse_ms", "ms", "lower")]
    for m in ("OF", "OF_AP"):
        out.append((f"adapt.filter_ms.{m}", "ms", "lower"))
    for m in ("AP", "OF_AP"):
        out.append((f"adapt.select_ms.{m}", "ms", "lower"))
    for d in ("semantic", "perception"):
        out.append((f"correspondence.infer_ms.{d}", "ms", "lower"))
        out.append((f"correspondence.factor_evals.{d}", "count", "lower"))
    for m in ("OF", "OF_AP"):
        out.append((f"adapt.obs_kept_ratio.{m}", "ratio", "lower"))
    for m in ("AP", "OF_AP"):
        out.append((f"adapt.classifiers_selected_ratio.{m}", "ratio", "lower"))
    for m in MODES:
        out += [
            (f"correspondence.infer_ms.grounding.{m}", "ms", "lower"),
            (f"correspondence.factor_evals.grounding.{m}", "count", "lower"),
            (f"correspondence.resolve_ms.{m}", "ms", "lower"),
            (f"symbols.space_ms.{m}", "ms", "lower"),
            (f"symbols.space_size.{m}", "count", "lower"),
            (f"world.build_ms.{m}", "ms", "lower"),
            (f"world.merge_ms.{m}", "ms", "lower"),
        ]
        out += [(f"world.stage_ms.{k}.{m}", "ms", "lower") for k in STAGE_KINDS]
        out += [
            (f"world.records_in.{m}", "count", "lower"),
            (f"world.objects.{m}", "count", "lower"),
            (f"world.cost_units.{m}", "cost_units", "lower"),
            (f"pipeline.run_ms.{m}", "ms", "lower"),
            (f"pipeline.self_ms.{m}", "ms", "lower"),
        ]
    out.append(("corpus.training_sets_s", "s", "lower"))
    for d in DOMAINS:
        out += [
            (f"correspondence.assemble_s.{d}", "s", "lower"),
            (f"correspondence.optimise_s.{d}", "s", "lower"),
            (f"correspondence.objective_evals.{d}", "count", "lower"),
            (f"correspondence.iterations.{d}", "count", "lower"),
            (f"correspondence.converged.{d}", "flag", "higher"),
            (f"correspondence.grad_norm.{d}", "max_abs", "lower"),
        ]
    out += [("corpus.evaluate_s", "s", "lower"),
            ("world.simulate_s", "s", "lower"),
            ("trace_overhead_ratio", "ratio", "lower")]
    return tuple(out)


PER_LAYER = _per_layer()


class TraceError(RuntimeError):
    """The traced run no longer matches the program it wraps."""


class Tracer:
    """Records spans while installed; restores every wrapped name on exit."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[tuple[int, int]] = []
        self._saved: list[tuple] = []
        for module, attr, *_ in WRAPPED:
            if not callable(getattr(module, attr, None)):
                raise TraceError(f"{module.__name__}.{attr} is gone; the"
                                 " traced run cannot time that layer")

    def __enter__(self):
        if self._saved:
            raise TraceError("the tracer is already installed")
        for module, attr, name, before, after in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, before, after))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def _wrap(self, fn, name, before, after):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent, run = stack[-1] if stack else (None, sid)
            attrs = before(args, kwargs) if before else {}
            spans.append(None)
            stack.append((sid, run))
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter_ns()
                stack.pop()
                attrs["error"] = type(exc).__name__
                spans[sid] = (sid, name, start, end, parent, run, attrs)
                raise
            end = perf_counter_ns()
            stack.pop()
            if after:
                attrs.update(after(args, kwargs, result))
            spans[sid] = (sid, name, start, end, parent, run, attrs)
            return result

        return traced

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "run", "attrs")
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def _self_times(spans) -> dict[int, int]:
    """Span duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for s in spans:  # in start order, so each child list is too
        if s[4] is not None:
            children[s[4]].append(s)
    out = {}
    for s in spans:
        covered, reach = 0, s[2]
        for c in children[s[0]]:
            lo, hi = max(c[2], reach), min(c[3], s[3])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s[0]] = (s[3] - s[2]) - covered
    return out


def _median(values, name):
    if not values:
        raise TraceError(f"no samples for per-layer metric {name}")
    return statistics.median(values)


def layer_metrics(spans, untraced_run_s, traced_run_s) -> dict[str, float]:
    """The per-layer metrics, each a median over runs or over trainings.

    Fails if a wrapped layer recorded no span at all, and checks per
    ``pipeline.run`` tree that the self times of its spans add up to the
    root span, which holds only if every child lies inside its parent and
    siblings do not overlap.
    """
    self_time = _self_times(spans)
    seen = {s[1] for s in spans} | {s[6]["kind"] for s in spans
                                    if s[1] == "world.stage"}
    missing = sorted(({w[2] for w in WRAPPED} | set(STAGE_KINDS)) - seen)
    if missing:
        raise TraceError(f"layers recorded no spans: {', '.join(missing)}")
    trees = defaultdict(list)
    for s in spans:
        trees[s[5]].append(s)
    samples = defaultdict(list)
    for tree in trees.values():
        root = tree[0]
        if root[1] == "pipeline.run":
            _run_samples(root, tree, self_time, samples)
        elif root[1] == "correspondence.train":
            domain = root[6]["domain"]
            assemble = sum(s[3] - s[2] for s in tree
                           if s[1] == "correspondence.assemble")
            samples[f"correspondence.assemble_s.{domain}"].append(
                assemble / 1e9)
            samples[f"correspondence.optimise_s.{domain}"].append(
                (root[3] - root[2] - assemble) / 1e9)
            samples[f"correspondence.objective_evals.{domain}"].append(
                sum(1 for s in tree if s[1] == "correspondence.objective"))
            for key in ("iterations", "converged", "grad_norm"):
                samples[f"correspondence.{key}.{domain}"].append(root[6][key])
        elif root[1] in ("corpus.training_sets", "corpus.evaluate",
                         "world.simulate"):
            samples[f"{root[1]}_s"].append((root[3] - root[2]) / 1e9)
    metrics = {name: _median(samples[name], name)
               for name, _, _ in PER_LAYER[:-1]}
    metrics["trace_overhead_ratio"] = (
        _median(traced_run_s, "traced runs")
        / _median(untraced_run_s, "untraced runs"))
    return metrics


def _run_samples(root, tree, self_time, samples) -> None:
    """Add one ``pipeline.run`` call's per-layer values to ``samples``."""
    duration = root[3] - root[2]
    total_self = sum(self_time[s[0]] for s in tree)
    if total_self != duration:
        raise TraceError(f"spans of run {root[0]} do not nest: self times"
                         f" sum to {total_self!r}, the run took {duration!r}")
    mode = root[6]["mode"]
    stage_ms = dict.fromkeys(STAGE_KINDS, 0.0)
    resolve_ms = 0.0
    built = grounded = False
    for s in tree:
        name, attrs = s[1], s[6]
        ms = (s[3] - s[2]) / 1e6
        if name == "grammar.parse":
            samples["grammar.parse_ms"].append(ms)
        elif name == "adapt.filter":
            samples[f"adapt.filter_ms.{mode}"].append(self_time[s[0]] / 1e6)
            if attrs.get("offered"):
                samples[f"adapt.obs_kept_ratio.{mode}"].append(
                    attrs["kept"] / attrs["offered"])
        elif name == "adapt.select":
            samples[f"adapt.select_ms.{mode}"].append(self_time[s[0]] / 1e6)
            if "selected" in attrs:
                samples[f"adapt.classifiers_selected_ratio.{mode}"].append(
                    attrs["selected"] / attrs["available"])
        elif name == "correspondence.infer":
            key = attrs["domain"]
            if key == "grounding":
                key = f"grounding.{mode}"
                grounded = True
            samples[f"correspondence.infer_ms.{key}"].append(ms)
            if "factor_evals" in attrs:
                samples[f"correspondence.factor_evals.{key}"].append(
                    attrs["factor_evals"])
        elif name == "correspondence.resolve":
            resolve_ms += ms
        elif name == "symbols.space":
            samples[f"symbols.space_ms.{mode}"].append(ms)
            if "size" in attrs:
                samples[f"symbols.space_size.{mode}"].append(attrs["size"])
        elif name == "world.build":
            built = True
            samples[f"world.build_ms.{mode}"].append(ms)
            samples[f"world.merge_ms.{mode}"].append(self_time[s[0]] / 1e6)
            for key in ("records_in", "objects", "cost_units"):
                if key in attrs:
                    samples[f"world.{key}.{mode}"].append(attrs[key])
        elif name == "world.stage":
            stage_ms[attrs["kind"]] += ms
    # A stage the selection left out costs nothing in that run, and a run
    # whose world holds no object never reaches action resolution.
    if built:
        for kind, ms in stage_ms.items():
            samples[f"world.stage_ms.{kind}.{mode}"].append(ms)
    if grounded:
        samples[f"correspondence.resolve_ms.{mode}"].append(resolve_ms)
    samples[f"pipeline.run_ms.{mode}"].append(duration / 1e6)
    samples[f"pipeline.self_ms.{mode}"].append(self_time[root[0]] / 1e6)
