"""Mode agreement and OF_AP savings on a grid of sensing noise and clutter.

Trains the seed-7 model bundle (or loads one with ``--models``), then, for
each (noise, clutter) cell, simulates both benchmark sites with that
noise and clutter rate and runs every held-out instruction of the seed-7
corpus on both sites under all four build modes, as one
``pipeline.benchmark`` sweep.  It prints one markdown
row per cell:

- agreement: the share of (instruction, site) inputs on which the four
  modes give the same outcome, the grounded action or the error class;
- cost ratio: OF_AP cost units over B's (scene classification plus the
  world-model build), summed over the inputs;
- objects ratio: OF_AP world-model objects over B's, summed likewise.

The ratios are perfbench's ``cost_ratio.OF_AP`` and
``objects_ratio.OF_AP``, and agreement its ``mode_agreement``.

This is data, not a check: nothing here fails on disagreement.
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from pathlib import Path

from groundling import corpus
from groundling.fixtures import SITES, BenchmarkCase, site_spec
from groundling.pipeline import MODES, ModelBundle, benchmark, train_bundle
from groundling.symbols import default_registry
from groundling.world import simulate

CORPUS_SEED = 7
NOISE = (0.0, 0.1, 0.2, 0.3)
CLUTTER = (0.0, 0.25, 0.5)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--models", type=Path, default=None,
                        help="load a saved bundle instead of training")
    args = parser.parse_args(argv)

    registry = default_registry()
    train_set, heldout = corpus.split(
        corpus.generate(corpus.CorpusConfig(seed=CORPUS_SEED), registry))
    if args.models is not None:
        bundle = ModelBundle.load(args.models)
    else:
        bundle, _ = train_bundle(train_set, registry)
    cases = [BenchmarkCase(e.text, site) for site in SITES for e in heldout]

    print(f"{len(heldout)} held-out instructions x {len(SITES)} sites "
          f"x {len(MODES)} modes per cell\n")
    print("| noise | clutter | modes agree | cost ratio OF_AP | objects ratio OF_AP |")
    print("| ---: | ---: | ---: | ---: | ---: |")
    for noise in NOISE:
        for clutter in CLUTTER:
            logs = {site: simulate(replace(site_spec(site), noise=noise,
                                           clutter_rate=clutter), registry)
                    for site in SITES}
            results = benchmark(cases, logs, bundle, registry).results
            # Each case's runs, one per mode in MODES order, follow each other.
            runs = list(zip(*[iter(results)] * len(MODES)))
            agree = sum(len({r.grounding or r.error.split(":", 1)[0] for r in run}) == 1
                        for run in runs)
            b, of_ap = ([r for r in results if r.mode == mode] for mode in ("B", "OF_AP"))
            cost = sum(r.cost_units for r in of_ap) / sum(r.cost_units for r in b)
            objects = sum(r.object_count for r in of_ap) / sum(r.object_count for r in b)
            print(f"| {noise:.2f} | {clutter:.2f} | {agree}/{len(runs)} "
                  f"| {cost:.4f} | {objects:.4f} |", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
