"""Shared benchmark fixtures and result reporting.

Every figure-regeneration benchmark both *times* its computation (via
pytest-benchmark) and *reports* the regenerated series: rows are printed
and appended to ``benchmarks/results/<name>.txt`` so the paper-vs-
measured comparison in EXPERIMENTS.md can be refreshed from a run.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

def report(name: str, text: str) -> None:
    """Print a figure's series and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}")


def report_json(stem: str, section: str, payload: dict) -> None:
    """Merge one benchmark's numbers into ``results/BENCH_<stem>.json``.

    Each benchmark owns one top-level ``section`` key, so partial runs
    (e.g. CI smoke mode) update their section without clobbering the
    rest of the file.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{stem}.json"
    merged: dict = {}
    if path.exists():
        merged = json.loads(path.read_text(encoding="utf-8"))
    merged[section] = payload
    path.write_text(
        json.dumps(merged, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"\n{section}: {json.dumps(payload, sort_keys=True)}")


@pytest.fixture(scope="session")
def hackathon_result():
    """One full 52-team Race2Insights simulation, shared by the figure
    benchmarks (the simulation itself is timed separately)."""
    from repro.hackathon import run_hackathon

    return run_hackathon(num_teams=52, seed=2015)


@pytest.fixture(scope="session")
def apache_dashboard():
    """A ready-to-run Apache dashboard on the default platform."""
    from repro import Platform
    from repro.workloads import APACHE_FLOW, apache

    platform = Platform()
    dashboard = platform.create_dashboard(
        "apache", APACHE_FLOW, inline_tables=apache.all_tables()
    )
    platform.run_dashboard("apache")
    return platform, dashboard
