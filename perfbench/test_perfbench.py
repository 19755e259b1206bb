"""Self-test of the benchmark: tiny runs emit every metric, and the
oracle is not vacuous.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import workloads  # noqa: E402

#: end-to-end metrics each workload's report must name
COMMON = ["setup_s", "peak_rss_mb", "cpu_ms_per_op"]
REPORTED = {
    "ipl_batch": COMMON + ["batch_s"],
    "ipl_serve": COMMON + [
        "read_p50_ms", "read_p95_ms", "read_slo_ratio",
        "gesture_p50_ms", "gesture_p95_ms",
    ],
    "ipl_refresh": COMMON + [
        "read_p50_ms", "read_p95_ms", "read_slo_ratio",
        "refresh_p50_ms", "freshness_p50_ms",
    ],
}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "3", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _report(stdout: str, workload: str) -> dict[str, str]:
    """``metric -> unit`` from the report lines."""
    found = {}
    for line in stdout.splitlines():
        match = re.match(rf"{workload} (\S+) = \S+ (\S+)", line)
        if match:
            found[match.group(1)] = match.group(2)
    return found


@pytest.mark.parametrize("workload", sorted(REPORTED))
def test_tiny_run_emits_every_end_to_end_metric(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--trace", "0",
                  "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = _declared("end_to_end")
    assert set(result["metrics"]) == set(declared)
    for name, record in result["metrics"].items():
        assert record["unit"] == declared[name]
        assert record["value"] > 0
    report = _report(proc.stdout, workload)
    for name in REPORTED[workload]:
        assert name in report, f"{name} missing from the report"
    assert "n=" in proc.stdout


@pytest.mark.parametrize("workload", sorted(REPORTED))
def test_tiny_traced_run_emits_every_per_layer_metric(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--trace", "1",
                  "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    declared = _declared("per_layer")
    assert set(result["metrics"]) == set(declared)
    for name, record in result["metrics"].items():
        assert record["unit"] == declared[name]
    assert result["metrics"]["trace.coverage_ratio"]["value"] > 0


def test_corrupted_reference_fails_the_oracle(tmp_path):
    class Corrupted(workloads.BatchWorkload):
        def prepare(self):
            super().prepare()
            self.reference.endpoints["players_tweets"][0]["count"] += 1

    run = Corrupted(3, 3.0, False, workloads.TINY, tmp_path / "run",
                    ROOT / "src")
    try:
        outcome = run.run()
    finally:
        workloads.cleanup(tmp_path / "run")
    assert outcome.failed >= 1
    assert any(p.startswith("players_tweets") for p in outcome.problems)


ROWS = [
    {"team": "CSK", "date": "d1", "n": 5},
    {"team": "MI", "date": "d1", "n": 3},
    {"team": "CSK", "date": "d2", "n": 3},
]


def _body(rows):
    return {"total_rows": len(rows), "rows": rows}


def test_read_check_evaluates_queries_on_its_own():
    grouped = oracle.Expected({"t": ROWS}, "t/groupby/team/sum/n")
    assert grouped.check_page(_body([{"team": "MI", "sum_n": 3},
                                     {"team": "CSK", "sum_n": 8}]), 0, 10) is None
    assert grouped.check_page(_body([{"team": "MI", "sum_n": 3},
                                     {"team": "CSK", "sum_n": 5}]), 0, 10)
    top = oracle.Expected({"t": ROWS}, "t/orderby/n/desc/limit/2")
    # either row with n == 3 may come second: the tie-break is not defined
    assert top.check_page(_body([ROWS[0], ROWS[2]]), 0, 10) is None
    assert top.check_page(_body([ROWS[0], ROWS[1]]), 0, 10) is None
    assert top.check_page(_body([ROWS[1], ROWS[0]]), 0, 10)
    point = oracle.Expected({"t": ROWS}, "t/filter/n/ge/4")
    assert point.check_page({"total_rows": 1, "rows": []}, 1, 10) is None
    assert point.check_page({"total_rows": 2, "rows": [ROWS[0]]}, 0, 10)


def test_widget_check_computes_the_shown_data():
    endpoints = {"team_tweets": [
        {"team": "CSK", "date": "2013-05-02", "noOfTweets": 4},
        {"team": "MI", "date": "2013-05-03", "noOfTweets": 2},
    ]}
    selections = oracle.Selections(endpoints)
    selections.select("teams", {"values": ["CSK"]})
    shown = {"series": {"CSK": {"2013-05-02": 4.0}}, "domain": ["2013-05-02"]}
    assert selections.check("relativeteamtweets", shown)
    selections.select("teams", {})
    assert not selections.check("relativeteamtweets", shown)
    words = {"words": [{"text": "CSK", "size": 4.0}, {"text": "MI", "size": 2.0}]}
    assert selections.check("teamtweets", words)
    selections.select("ipl_duration", {"range": ["2013-05-03", "2013-05-27"]})
    assert not selections.check("teamtweets", words)


def test_without_the_program_it_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "ipl_batch", "--seed", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_topn_check_separates_ties_from_wrong_counts():
    totals = {("d", "a"): 5, ("d", "b"): 3, ("d", "c"): 3}
    want = [{"date": "d", "word": "a", "count": 5},
            {"date": "d", "word": "b", "count": 3}]
    tie = [want[0], {"date": "d", "word": "c", "count": 3}]
    assert oracle.check_topn(tie, want, totals) == ([], 1)
    wrong = [want[0], {"date": "d", "word": "c", "count": 4}]
    problems, divergent = oracle.check_topn(wrong, want, totals)
    assert problems and divergent == 0
