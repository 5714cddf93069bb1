"""Run perfbench for a parent commit and for the working tree, in pairs.

    python3 scripts/bench_pairs.py --number 29 --parent HEAD --note "Claims ..."

It works on the git checkout it sits in.  The parent side is a ``git
archive`` of ``--parent`` and the change side a copy of the working tree's files
(tracked, and untracked but not ignored), each in a new directory.  For
each workload in BENCHMARK.json's ``workloads``, pair ``i`` runs
``perfbench/run.py`` for BENCHMARK.json's ``run_seconds`` with the seed
``number * 100 + i`` on both sides, one run at a time; the parent runs
first in odd pairs and the change in even ones.  The last line of each
run's standard output is kept as it is, and the pairs are written to
``BENCH_<number>_<workload>.json`` in the working tree's root.  A run that
exits non-zero, or whose last line does not report ``correct`` true and
``failed`` 0, stops the script.  For each metric, the standard error
gets both sides' medians, in how many pairs the change is better in the
metric's ``better`` direction from BENCHMARK.json, the parent's
interquartile range, and whether a gain could be claimed; for each
end-to-end metric, also the change of the medians relative to the
parent's, next to the metric's ``bound``, and two verdicts: whether the
change is worse beyond the bound, and whether the parent's spread leaves
the bound unresolved (``bound_verdicts``).  At the end, the standard
output gets README's harness tables rendered from the new files
(``readme_tables``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# Two values that agree within this relative tolerance differ only by
# float rounding, and neither side wins the pair.
TIE = 1e-12


def git(*args: str) -> str:
    return subprocess.run(("git", *args), cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def export_parent(rev: str, into: Path) -> None:
    archive = subprocess.run(("git", "archive", "--format=tar", rev), cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(("tar", "xf", "-"), cwd=into, input=archive, check=True)


def copy_change(into: Path) -> None:
    files = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, files.split("\0")):
        source = ROOT / name
        if source.is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} in {checkout} exited"
                         f" {done.returncode}:\n{done.stderr}")
    last = json.loads(done.stdout.splitlines()[-1])
    # perfbench exits 0 even when a run differs from its reference row or
    # raises; its last line says so.
    if last["correct"] is not True or last["failed"] != 0:
        raise SystemExit(f"{' '.join(command)} in {checkout}: correct"
                         f" {last['correct']}, failed {last['failed']}")
    return last


def machine() -> str:
    return (f"{os.cpu_count()} CPUs, {platform.platform()}, Python"
            f" {platform.python_version()}, numpy {np.__version__}; runs one at a time")


def bound_verdicts(before: float, after: float, iqr: float, sign: int,
                   bound: float) -> tuple[bool, bool] | None:
    """Whether the change is worse beyond ``bound``, and whether the
    bound is unresolved, for an end-to-end metric whose parent median is
    ``before``, change median ``after`` and parent interquartile range
    ``iqr``; ``sign`` is 1 where higher is better and -1 where lower is.

    Worse beyond the bound: the change's median is worse than the
    parent's by more than ``bound`` of the parent's.  Unresolved: the
    parent's IQR is more than ``bound`` of its median, so the runs
    spread too widely to tell such a change from noise.  None when the
    parent's median is 0, where neither share is defined.
    """
    if not before:
        return None
    scale = abs(before)
    return sign * (before - after) / scale > bound, iqr / scale > bound


def summarise(pairs, better: dict[str, str], bounds: dict[str, float]) -> None:
    """Print each metric's median on both sides, in how many pairs the
    change is better in the direction ``better`` gives it (two values
    within a relative ``TIE`` of each other are a tie, not a win), and the
    interquartile range of the parent's values.  A gain can be claimed on
    a metric when the change is better in at least nine pairs of ten and
    its median beats the parent's by more than that range.  An end-to-end
    metric, one with a bound in ``bounds``, also gets the change of the
    medians relative to the parent's, next to that bound on how much
    worse it may get, and ``bound_verdicts``' two verdicts."""
    for name in pairs[0]["parent"]["metrics"]:
        parent, change = ([p[side]["metrics"][name]["value"] for p in pairs]
                          for side in ("parent", "change"))
        sign = {"lower": -1, "higher": 1}.get(better.get(name), 0)
        wins = sum(sign * (c - p) > 0 and not math.isclose(c, p, rel_tol=TIE)
                   for p, c in zip(parent, change))
        q1, q3 = np.percentile(parent, [25, 75])
        before, after = statistics.median(parent), statistics.median(change)
        gain = sign * (after - before)
        met = sign and 10 * wins >= 9 * len(pairs) and gain > q3 - q1
        bound = ""
        if name in bounds:
            relative = f"{(after - before) / before:+.1%}" if before else "undefined"
            verdicts = bound_verdicts(before, after, q3 - q1, sign, bounds[name])
            worse, unresolved = (["undefined"] * 2 if verdicts is None
                                 else ["yes" if v else "no" for v in verdicts])
            bound = (f"; relative change {relative}, bound {bounds[name]:.0%};"
                     f" worse beyond bound {worse}; unresolved {unresolved}")
        print(f"  {name} ({better.get(name, 'no')} is better):"
              f" parent {before:.6g}, change {after:.6g}; change better in"
              f" {wins} of {len(pairs)} pairs; parent IQR {q3 - q1:.3g};"
              f" claim rule {'met' if met else 'not met'}{bound}", file=sys.stderr)


def _figure(digits: int):
    return lambda value: f"{value:.{digits}f}"


def _share(value: float) -> str:
    return f"{value:.3f}".rstrip("0").rstrip(".")


def _gap(value: float) -> str:
    return f"{value:+.3f}".replace("-", "−")


MODES = ("B", "OF", "AP", "OF_AP")
# Each row of README's per-workload table: its label, the metrics it
# lists, how a median of each is written, and the unit after the last.
METRIC_ROWS = (
    ("setup_s", ("setup_s",), _figure(3), " s"),
    ("train_s", ("train_s",), _figure(3), " s"),
    ("latency_p50_ms B / OF / AP / OF_AP",
     tuple(f"latency_p50_ms.{m}" for m in MODES), _figure(3), " ms"),
    ("latency_p90_ms B / OF_AP", ("latency_p90_ms.B", "latency_p90_ms.OF_AP"),
     _figure(3), " ms"),
    ("runs_per_s", ("runs_per_s",), _figure(0), ""),
    ("peak_rss_mb", ("peak_rss_mb",), _figure(1), " MB"),
    ("cost_ratio.OF_AP / objects_ratio.OF_AP",
     ("cost_ratio.OF_AP", "objects_ratio.OF_AP"), _figure(3), ""),
    ("ok_share / mode_agreement / heldout_exact",
     ("ok_share", "mode_agreement", "heldout_exact"), _share, ""),
)


def readme_tables(docs: dict[str, dict]) -> list[str]:
    """README's harness tables, from the change-side medians of the BENCH
    files ``docs`` (workload -> the file's JSON): one table per workload,
    introduced by its name, and then the table of the paper's cost ratio
    next to the OF_AP − AP and OF − B gaps of the p50 medians, in ms.

    Times and ratios have three decimals, runs_per_s is whole,
    peak_rss_mb has one decimal, the shares drop trailing zeros, and a
    gap is signed, with "−" for a negative one.
    """
    blocks, gaps = [], []
    for workload, doc in docs.items():
        median = {name: statistics.median(p["change"]["metrics"][name]["value"]
                                          for p in doc["pairs"])
                  for name in doc["pairs"][0]["change"]["metrics"]}
        lines = [f"{workload}:", "", "| metric | median |", "| --- | ---: |"]
        for label, names, written, unit in METRIC_ROWS:
            figures = " / ".join(written(median[name]) for name in names)
            lines.append(f"| {label} | {figures}{unit} |")
        blocks.append("\n".join(lines))
        p50 = {m: median[f"latency_p50_ms.{m}"] for m in MODES}
        gaps.append(f"| {workload} | {median['cost_ratio.OF_AP']:.3f}"
                    f" | {_gap(p50['OF_AP'] - p50['AP'])} | {_gap(p50['OF'] - p50['B'])} |")
    blocks.append("\n".join(["| workload | cost_ratio.OF_AP | OF_AP − AP | OF − B |",
                             "|---|---|---|---|", *gaps]))
    return blocks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--number", type=int, required=True,
                        help="the number in the BENCH_<number>_<workload>.json names")
    parser.add_argument("--parent", default="HEAD", help="the commit to compare against")
    parser.add_argument("--note", required=True,
                        help="what the change claims, written into each file")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workdir", type=Path, default=None,
                        help="where to make the two checkouts (default: the system's)")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    better = {metric["name"]: metric["better"]
              for metric in benchmark["end_to_end"] + benchmark["per_layer"]}
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    parent = git("rev-parse", "--short", args.parent).strip()
    docs = {}
    with tempfile.TemporaryDirectory(dir=args.workdir) as work:
        sides = {"parent": Path(work, "parent"), "change": Path(work, "change")}
        for path in sides.values():
            path.mkdir()
        export_parent(parent, sides["parent"])
        copy_change(sides["change"])
        for workload in (w["name"] for w in benchmark["workloads"]):
            pairs = []
            for i in range(1, args.pairs + 1):
                seed = args.number * 100 + i
                order = ("parent", "change") if i % 2 else ("change", "parent")
                entry = {"pair": i, "seed": seed, "first": order[0]}
                for side in order:
                    entry[side] = run_once(sides[side], workload, seed, seconds)
                    print(f"{workload} pair {i} {side}: correct {entry[side]['correct']}",
                          file=sys.stderr)
                pairs.append({key: entry[key] for key in
                              ("pair", "seed", "first", "parent", "change")})
            doc = {
                "workload": workload,
                "command": (f"python3 perfbench/run.py --workload {workload}"
                            f" --seed <seed> --seconds {seconds} --trace 0"),
                "parent_commit": parent,
                "change_commit": f"working tree of this change, on {parent}",
                "machine": machine(),
                "note": ("The parent side is a git archive of its commit and the"
                         " change side a copy of the change's files; parent and"
                         " change alternate which runs first. Each entry is the"
                         " last JSON line of that run's standard output. "
                         + args.note),
                "pairs": pairs,
            }
            out = ROOT / f"BENCH_{args.number}_{workload}.json"
            out.write_text(json.dumps(doc, indent=1) + "\n")
            print(f"wrote {out.name}", file=sys.stderr)
            summarise(pairs, better, bounds)
            docs[workload] = doc
    print("\n\n".join(readme_tables(docs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
