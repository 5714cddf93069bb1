"""End-to-end reproduction of the build-mode efficiency comparison.

Trains the model bundle from scratch (or loads one with ``--models``),
simulates both benchmark sites, runs every manifest case under all four
build modes, and writes the result CSV plus a per-run audit JSON.  The
printed table shows, per case, the world-model size and build cost of
each mode alongside its cost ratio against the build-everything
baseline.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from groundling import corpus
from groundling.cli import seed
from groundling.fixtures import benchmark_manifest, site_spec
from groundling.pipeline import ModelBundle, benchmark, train_bundle
from groundling.symbols import default_registry
from groundling.world import simulate


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--models", type=Path, default=None,
                        help="load a saved bundle instead of training")
    parser.add_argument("--out", type=Path, default=Path("benchmark.csv"))
    parser.add_argument("--audit", type=Path, default=Path("benchmark_audit.json"))
    parser.add_argument("--seed", type=seed, default=7, help="corpus sampling seed")
    args = parser.parse_args(argv)

    registry = default_registry()
    if args.models is not None:
        bundle = ModelBundle.load(args.models)
        print(f"loaded bundle from {args.models}")
    else:
        examples = corpus.generate(corpus.CorpusConfig(seed=args.seed), registry)
        train_set, _ = corpus.split(examples)
        bundle, _ = train_bundle(train_set, registry)
        print("trained bundle from scratch")

    site_observations = {
        site: simulate(site_spec(site), registry) for site in ("site-1", "site-2")
    }
    report = benchmark(benchmark_manifest(), site_observations, bundle,
                       registry)
    report.write_csv(args.out)
    report.write_audit(args.audit)
    print(report.to_table())
    print(f"wrote {args.out} and {args.audit}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
