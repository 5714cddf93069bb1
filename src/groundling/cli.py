"""Command-line interface.

Subcommands cover the full workflow: sample an instruction corpus, turn a
site spec into an observation log, train the three correspondence models,
ground a single instruction, sweep the build-mode benchmark, and score a
trained bundle against corpus gold.  Domain failures exit with status 1;
argparse handles usage errors with status 2.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import corpus as corpus_mod
from .correspondence import DEFAULT_REGULARIZATION
from .errors import GroundlingError
from .fixtures import SITES, benchmark_manifest, reference_world, site_spec
from .pipeline import MODES, ModelBundle, benchmark, run, train_bundle
from .symbols import default_registry, load_registry, save_registry
from .world import load_observations, save_observations, simulate


def _registry(args):
    if args.registry:
        return load_registry(args.registry)
    return default_registry()


def _cmd_generate_corpus(args) -> int:
    config = corpus_mod.CorpusConfig(seed=args.seed)
    examples = corpus_mod.generate(config, _registry(args))
    corpus_mod.save_corpus(examples, args.out)
    print(f"wrote {len(examples)} instructions to {args.out}")
    return 0


def _cmd_generate_world(args) -> int:
    spec = site_spec(args.site)
    observations = simulate(spec, _registry(args))
    save_observations(observations, args.out)
    print(f"wrote {len(observations)} observations for {spec.name} to {args.out}")
    return 0


def _split_corpus(args):
    examples = corpus_mod.load_corpus(args.corpus)
    return corpus_mod.split(examples, fraction=args.fraction, seed=args.seed)


def _cmd_train(args) -> int:
    registry = _registry(args)
    train_set, held = _split_corpus(args)
    bundle, results = train_bundle(train_set, registry,
                                   regularization=args.regularization)
    for domain, result in results.items():
        print(f"{domain}: {result.iterations} iterations,"
              f" converged={result.converged},"
              f" objective {result.objective:.3f},"
              f" grad norm {result.grad_norm:.2e}")
    bundle.save(args.out)
    print(f"saved models to {args.out}"
          f" (trained on {len(train_set)}, held out {len(held)})")
    return 0


def _cmd_evaluate(args) -> int:
    registry = _registry(args)
    train_set, held = _split_corpus(args)
    bundle = ModelBundle.load(args.models)
    reference = reference_world(registry)
    for name, examples in (("train", train_set), ("held-out", held)):
        report = corpus_mod.evaluate(bundle.semantic, bundle.perception,
                                     bundle.grounding, examples, registry,
                                     reference)
        # An empty split has no rate to print, not a rate of zero.
        rates = (("semantic", report.semantic_exact),
                 ("perception", report.perception_exact),
                 ("action", report.action_exact))
        print(f"{name}: {report.examples} examples", *(
            f"{domain} {rate:.3f}" if report.examples else f"{domain} n/a"
            for domain, rate in rates), sep=" | ")
    return 0


def _observations_for(args, registry):
    if args.observations:
        return load_observations(args.observations)
    return simulate(site_spec(args.site), registry)


def _cmd_ground(args) -> int:
    registry = _registry(args)
    observations = _observations_for(args, registry)
    bundle = ModelBundle.load(args.models)
    result = run(args.instruction, observations, bundle, registry,
                 mode=args.mode, site=args.site or "")
    if result.error:
        print(result.error, file=sys.stderr)
        return 1
    target = result.target
    print(f"grounding: {result.grounding}")
    print(f"target: {target.id} at ({target.pose[0]:.2f}, {target.pose[1]:.2f})"
          f" in {target.region}")
    print(f"world model: {result.object_count} objects,"
          f" cost {result.cost_units:.2f}")
    return 0


def _cmd_benchmark(args) -> int:
    registry = _registry(args)
    bundle = ModelBundle.load(args.models)
    cases = benchmark_manifest()
    sites = {name: simulate(site_spec(name), registry)
             for name in sorted({c.site for c in cases})}
    report = benchmark(cases, sites, bundle, registry)
    if args.out:
        report.write_csv(args.out)
        print(f"wrote {len(report.results)} rows to {args.out}")
    if args.audit:
        report.write_audit(args.audit)
        print(f"wrote audit detail to {args.audit}")
    print(report.to_table(), end="")
    return 0


def _cmd_dump_registry(args) -> int:
    save_registry(_registry(args), args.out)
    print(f"wrote classifier registry to {args.out}")
    return 0


def seed(text: str) -> int:
    """A ``--seed`` value: a non-negative integer, else a usage error."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groundling",
        description="Language-guided compact world models for instruction "
                    "grounding.",
    )
    parser.add_argument("--registry", help="classifier registry YAML "
                        "(defaults to the built-in registry)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-corpus", help="sample an instruction corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=seed, default=7)
    p.set_defaults(func=_cmd_generate_corpus)

    p = sub.add_parser("generate-world",
                       help="simulate a site into an observation log")
    p.add_argument("--site", default="site-1", choices=tuple(SITES))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate_world)

    p = sub.add_parser("train", help="train the three correspondence models")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--fraction", type=float, default=0.8)
    p.add_argument("--seed", type=seed, default=0, help="split seed")
    p.add_argument("--regularization", type=float, default=DEFAULT_REGULARIZATION)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="score a model bundle on corpus gold")
    p.add_argument("--corpus", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--fraction", type=float, default=0.8)
    p.add_argument("--seed", type=seed, default=0, help="split seed")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("ground", help="ground one instruction in a site")
    p.add_argument("--instruction", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--site", default="site-1")
    p.add_argument("--observations", help="observation log JSONL "
                   "(overrides --site)")
    p.add_argument("--mode", default="B", choices=MODES)
    p.set_defaults(func=_cmd_ground)

    p = sub.add_parser("benchmark", help="run the build-mode comparison")
    p.add_argument("--models", required=True)
    p.add_argument("--out", help="write results CSV here")
    p.add_argument("--audit", help="write per-run audit JSON here")
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("dump-registry", help="write the active registry YAML")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_dump_registry)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except GroundlingError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader of stdout has gone (``groundling ... | head``).  Point
        # stdout at the null device so the interpreter's last flush of the
        # unwritten output does not fail again on the way out.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        # Caught after BrokenPipeError, an OSError subclass: a missing file,
        # a directory where a file goes, a permission denied.
        print(f"{exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
