"""groundling benchmark: grounding latency, set-up cost and training.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads are listed in BENCHMARK.json with the reason for each.
The seed only makes the inputs.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics, measured
with tracing off; with ``--trace 1`` it carries the per-layer metrics of
spans.py, and untraced runs of the same inputs give the tracing
overhead.  The line
before it is a JSON report: machine, sample counts behind every
percentile, failures by exception class and scene-label runs.  Exit
status 2 means the sources, or BENCHMARK.json, are missing or disagree
with the benchmark.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = ROOT / "src"
    if not (src / "groundling" / "__init__.py").is_file():
        print(f"perfbench: no groundling sources under {src}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    # One thread: keep numpy's BLAS pool from competing with the client.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    import bench
    from spans import TraceError

    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")
    try:
        return bench.main(ROOT, args.workload, args.seed, args.seconds,
                          bool(args.trace))
    except (bench.ContractError, TraceError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
