"""``scripts/bench_pairs.py`` stops on a bad run and states the claim rule,
and README's harness tables are what it renders from the newest BENCH
files.

No test here runs perfbench: ``run_once`` runs a stand-in
``perfbench/run.py`` in a temporary checkout, ``summarise`` reads
synthetic pairs, and ``readme_tables`` the committed BENCH files.
"""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(path: Path, last: dict) -> Path:
    (path / "perfbench").mkdir()
    (path / "perfbench" / "run.py").write_text(
        f"print('metric lines')\nprint({json.dumps(json.dumps(last))})\n")
    return path


@pytest.mark.parametrize("correct, failed", [(False, 0), (True, 1), (None, 0)])
def test_a_run_that_reports_a_bad_result_stops_the_script(bench_pairs, tmp_path,
                                                          correct, failed):
    last = {"correct": correct, "attempted": 4, "failed": failed, "metrics": {}}
    with pytest.raises(SystemExit, match=f"correct {correct}, failed {failed}"):
        bench_pairs.run_once(_checkout(tmp_path, last), "paper_sweep", 1, 1)


def test_a_good_run_returns_its_last_line(bench_pairs, tmp_path):
    last = {"correct": True, "attempted": 4, "failed": 0,
            "metrics": {"ok_share": {"value": 1.0, "unit": "ratio"}}}
    assert bench_pairs.run_once(_checkout(tmp_path, last), "paper_sweep", 1, 1) == last


def _claim(bench_pairs, capsys, parent, change, better="lower") -> bool:
    pairs = [{side: {"metrics": {"m": {"value": value}}}
              for side, value in (("parent", p), ("change", c))}
             for p, c in zip(parent, change)]
    bench_pairs.summarise(pairs, {"m": better}, {})
    line = capsys.readouterr().err
    assert line.count("claim rule") == 1
    return "claim rule met" in line


# The parent's values are 1.00 to 1.09: a median of 1.045 and an
# interquartile range of 0.045.
PARENT = [1.0 + 0.01 * i for i in range(10)]


@pytest.mark.parametrize("worse, gap, met", [
    (0, 0.1, True),     # better in 10 of 10, by more than the range
    (1, 0.1, True),     # 9 of 10 is enough
    (2, 0.1, False),    # 8 of 10 is not
    (0, 0.04, False),   # 10 of 10, but by less than the range
])
def test_the_claim_rule_needs_nine_wins_in_ten_and_a_gap_over_the_iqr(
        bench_pairs, capsys, worse, gap, met):
    change = [p + 0.01 if i < worse else p - gap for i, p in enumerate(PARENT)]
    assert _claim(bench_pairs, capsys, PARENT, change) is met
    # The same pairs, read as a metric where higher is better, mirrored.
    assert _claim(bench_pairs, capsys, [-p for p in PARENT], [-c for c in change],
                  better="higher") is met


def test_a_metric_with_no_direction_is_never_claimed(bench_pairs, capsys):
    assert not _claim(bench_pairs, capsys, PARENT, [p - 1 for p in PARENT], better=None)


def _verdicts(bench_pairs, capsys, parent, change, bound, better="lower"):
    pairs = [{side: {"metrics": {"m": {"value": value}}}
              for side, value in (("parent", p), ("change", c))}
             for p, c in zip(parent, change)]
    bench_pairs.summarise(pairs, {"m": better}, {"m": bound})
    line = capsys.readouterr().err
    worse = re.search(r"worse beyond bound (\w+)", line)[1]
    unresolved = re.search(r"unresolved (\w+)", line)[1]
    return worse, unresolved


@pytest.mark.parametrize("factor, worse", [
    (1.30, "yes"),    # 30% worse than the parent's median, past a 25% bound
    (1.20, "no"),     # 20% worse is within it
    (0.70, "no"),     # 30% better is never worse
])
def test_worse_beyond_bound_compares_the_medians_with_the_bound(
        bench_pairs, capsys, factor, worse):
    change = [factor * p for p in PARENT]
    assert _verdicts(bench_pairs, capsys, PARENT, change, 0.25)[0] == worse
    # Where higher is better, the mirror image: 30% lower is worse.
    assert _verdicts(bench_pairs, capsys, PARENT, [(2 - factor) * p for p in PARENT],
                     0.25, better="higher")[0] == worse
    # The share is of the parent's median, whatever the unit.
    assert _verdicts(bench_pairs, capsys, [100 * p for p in PARENT],
                     [100 * c for c in change], 0.25)[0] == worse


@pytest.mark.parametrize("bound, unresolved", [
    (0.04, "yes"),    # the parent's IQR is 4.3% of its median
    (0.05, "no"),
])
def test_unresolved_compares_the_parents_spread_with_the_bound(
        bench_pairs, capsys, bound, unresolved):
    # The change's values spread ten times as widely, about a median twice
    # the parent's: only the parent's spread decides, and it is read
    # relative to the parent's median.
    change = [2.09 + 10 * (p - 1.045) for p in PARENT]
    assert _verdicts(bench_pairs, capsys, PARENT, change, bound)[1] == unresolved
    scaled = [100 * p for p in PARENT]
    assert _verdicts(bench_pairs, capsys, scaled, scaled, bound)[1] == unresolved


def test_the_verdicts_are_undefined_on_a_zero_median(bench_pairs, capsys):
    zeros = [0.0] * 10
    assert _verdicts(bench_pairs, capsys, zeros, PARENT, 0.25) == ("undefined",) * 2


def test_readme_tables_are_the_newest_bench_pair(bench_pairs):
    # README's two metric tables and its gap table copy the change-side
    # medians of the highest-numbered BENCH pair in the repository root.
    workloads = [w["name"] for w in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    numbers = [{int(re.fullmatch(rf"BENCH_(\d+)_{w}\.json", path.name)[1])
                for path in ROOT.glob(f"BENCH_*_{w}.json")} for w in workloads]
    newest = max(set.intersection(*numbers))
    docs = {w: json.loads((ROOT / f"BENCH_{newest}_{w}.json").read_text())
            for w in workloads}
    readme = (ROOT / "README.md").read_text()
    blocks = bench_pairs.readme_tables(docs)
    assert len(blocks) == len(workloads) + 1
    for block in blocks:
        assert readme.count(block) == 1, f"README lacks, from BENCH_{newest}:\n{block}"
