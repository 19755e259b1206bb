"""Incremental refresh vs full re-run: the O(changed rows) claim.

The acceptance benchmark for the refresh path (docs/incremental.md).
An IPL-style ball-by-ball feed lands as JSON lines; the dashboard
aggregates it per team and keeps a top-n leaderboard.  After the
priming full run, the feed grows by **1%** and the dashboard catches
up two ways:

* **incremental**: ``refresh_dashboard`` — the file connector's cursor
  reads only the appended tail, and the flows advance per-task delta
  states;
* **full**: a complete re-run over the whole file (cursor dropped,
  sources re-read), the cost every pre-refresh re-run paid.

Both must produce byte-identical endpoint tables before any timing —
the speedup is only meaningful if the fast path is exact.  Full mode
asserts the refresh is at least **5x** faster than the re-run and
records the measurement in ``results/BENCH_incremental.json``; with
``BENCH_SMOKE=1`` the feed shrinks and the assertion relaxes to
"strictly faster".
"""

from __future__ import annotations

import json
import os
import random
import time

from conftest import report_json

from repro.platform import Platform

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
ROWS = int(os.environ.get("BENCH_ROWS", "0")) or (
    5_000 if SMOKE else 200_000
)
DELTA_ROWS = max(ROWS // 100, 1)  # the 1% append
REPEATS = 1 if SMOKE else 3
MIN_SPEEDUP = 1.0 if SMOKE else 5.0

TEAMS = [
    "CSK", "MI", "RCB", "KKR", "SRH", "DD", "KXIP", "RR", "GL", "RPS",
]

FLOW = (
    "D:\n"
    "    balls: [team, batsman, runs]\n"
    "    team_totals: [team, total, balls_faced]\n"
    "    leaderboard: [team, total, balls_faced]\n"
    "D.balls:\n"
    "    source: balls.jsonl\n"
    "    format: jsonl\n"
    "F:\n"
    "    D.team_totals: D.balls | T.keep_scoring | T.per_team\n"
    "    D.leaderboard: D.team_totals | T.top\n"
    "    D.leaderboard:\n        endpoint: true\n"
    "    D.team_totals:\n        endpoint: true\n"
    "T:\n"
    "    keep_scoring:\n"
    "        type: filter_by\n"
    "        filter_expression: runs >= 1\n"
    "    per_team:\n"
    "        type: groupby\n"
    "        groupby: [team]\n"
    "        aggregates:\n"
    "            - operator: sum\n"
    "              apply_on: runs\n"
    "              out_field: total\n"
    "            - operator: count\n"
    "              out_field: balls_faced\n"
    "    top:\n"
    "        type: topn\n"
    "        orderby_column: [total DESC]\n"
    "        limit: 5\n"
)


def _ball(rng: random.Random) -> str:
    team = rng.choice(TEAMS)
    return json.dumps(
        {
            "team": team,
            "batsman": f"{team}_player_{rng.randint(1, 11)}",
            "runs": rng.choice([0, 0, 1, 1, 1, 2, 2, 3, 4, 6]),
        }
    )


def _write_feed(path, rng, n):
    with path.open("w", encoding="utf-8") as handle:
        for _ in range(n):
            handle.write(_ball(rng) + "\n")


def _append_feed(path, rng, n):
    with path.open("a", encoding="utf-8") as handle:
        for _ in range(n):
            handle.write(_ball(rng) + "\n")


def _endpoints(dashboard):
    return {
        name: dashboard.endpoint(name).to_json_records()
        for name in ("leaderboard", "team_totals")
    }


def test_incremental_refresh_vs_full_rerun(tmp_path):
    rng = random.Random(2015)
    feed = tmp_path / "balls.jsonl"
    _write_feed(feed, rng, ROWS)

    platform = Platform()
    platform.create_dashboard("ipl", FLOW, data_dir=str(tmp_path))
    platform.run_dashboard("ipl")
    platform.refresh_dashboard("ipl")  # bootstrap the delta cursors
    dashboard = platform.get_dashboard("ipl")

    incremental_seconds = []
    full_seconds = []
    for _ in range(REPEATS):
        _append_feed(feed, rng, DELTA_ROWS)

        start = time.perf_counter()
        report = platform.refresh_dashboard("ipl")
        incremental_seconds.append(time.perf_counter() - start)
        assert report.mode == "incremental"
        assert report.delta_rows == DELTA_ROWS
        incremental_out = _endpoints(dashboard)

        # The cost the refresh avoided: a fresh platform doing one full
        # run over the current file (full decode + full recompute).
        reference = Platform()
        reference.create_dashboard("ref", FLOW, data_dir=str(tmp_path))
        start = time.perf_counter()
        reference.run_dashboard("ref")
        full_seconds.append(time.perf_counter() - start)
        full_out = _endpoints(reference.get_dashboard("ref"))

        # Equivalence first; the timing is meaningless without it.
        assert incremental_out == full_out

    incremental_best = min(incremental_seconds)
    full_best = min(full_seconds)
    speedup = full_best / incremental_best if incremental_best else 0.0

    report_json(
        "incremental", "refresh_1pct_delta",
        {
            "mode": "smoke" if SMOKE else "full",
            "rows": ROWS,
            "delta_rows": DELTA_ROWS,
            "repeats": REPEATS,
            "incremental_ms": round(incremental_best * 1000, 2),
            "full_rerun_ms": round(full_best * 1000, 2),
            "speedup": round(speedup, 2),
            "threshold": MIN_SPEEDUP,
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"incremental refresh only {speedup:.2f}x faster than a full "
        f"re-run (threshold {MIN_SPEEDUP}x): "
        f"{incremental_best * 1000:.1f} ms vs {full_best * 1000:.1f} ms"
    )
