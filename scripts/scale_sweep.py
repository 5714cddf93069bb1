"""Run wall time and world-model size per build mode as the log grows.

Trains the seed-7 model bundle (or loads one with ``--models``), then, for
site-1 tiled x1, x8, x32 and x128 (60 to 7680 observations), runs the
first 24 held-out seed-7 instructions under all four build modes,
five times each.  It prints one markdown row per tiling: per
mode, the median wall milliseconds of a ``pipeline.run`` call over all
its calls, and the median world-model object count over the
instructions.

This is data, not a check: wall times depend on the machine and its
load, and nothing here fails.
"""

from __future__ import annotations

import argparse
import statistics
import time
from pathlib import Path

from groundling import corpus
from groundling.fixtures import site_spec, tiled
from groundling.pipeline import MODES, ModelBundle, run, train_bundle
from groundling.symbols import default_registry
from groundling.world import simulate

CORPUS_SEED = 7
SITE = "site-1"
TILES = (1, 8, 32, 128)
INSTRUCTIONS = 24
REPEATS = 5


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
    instructions = [e.text for e in heldout[:INSTRUCTIONS]]

    print(f"{SITE}, {len(instructions)} held-out instructions x "
          f"{REPEATS} calls per mode; p50 wall ms / median objects\n")
    print("| tiles | observations | records | "
          + " | ".join(MODES) + " |")
    print("| ---: | ---: | ---: | " + " | ".join("---:" for _ in MODES) + " |")
    for copies in TILES:
        observations = simulate(tiled(site_spec(SITE), copies), registry)
        wall = {mode: [] for mode in MODES}
        objects = {mode: [] for mode in MODES}
        for instruction in instructions:
            for mode in MODES:
                for _ in range(REPEATS):
                    started = time.perf_counter()
                    result = run(instruction, observations, bundle, registry,
                                 mode=mode, site=SITE)
                    wall[mode].append(time.perf_counter() - started)
                objects[mode].append(result.object_count)
        cells = [f"{statistics.median(wall[m]) * 1e3:.2f} / "
                 f"{statistics.median(objects[m]):g}" for m in MODES]
        print(f"| x{copies} | {len(observations)} | {observations.records} | "
              + " | ".join(cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
