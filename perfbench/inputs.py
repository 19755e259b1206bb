"""Seeded inputs: tweet feeds, the ad-hoc query universe, gesture scripts.

Everything here is a pure function of the workload seed (and of the
reference endpoint tables, which are themselves a function of the
seed), so the same seed always gives the same inputs.  The system
under test receives only the files and request streams built here.
"""

from __future__ import annotations

import datetime as dt
import json
import random
from pathlib import Path
from urllib.parse import quote, unquote

from repro.server.query_language import parse_adhoc_query
from repro.workloads import IPL_PROCESSING_FLOW, ipl

JSON_SOURCE = "ipl_tweets.json"
JSONL_SOURCE = "ipl_tweets.jsonl"

#: rows per ``/ds/`` response when a read names no ``limit`` (the
#: server's default page)
SERVER_PAGE = 1000

#: the processing flow reading a JSON-lines feed (delta-capable format)
IPL_PROCESSING_FLOW_JSONL = IPL_PROCESSING_FLOW.replace(
    f"source: {JSON_SOURCE}\n    format: json",
    f"source: {JSONL_SOURCE}\n    format: jsonl",
)
if IPL_PROCESSING_FLOW_JSONL == IPL_PROCESSING_FLOW:
    raise RuntimeError("the IPL flow's source section changed; update inputs.py")

#: processing flow by feed format
FLOWS = {"json": IPL_PROCESSING_FLOW, "jsonl": IPL_PROCESSING_FLOW_JSONL}

#: the numeric column each endpoint's aggregates and orderings use
MEASURES = {
    "players_tweets": "count",
    "player_tweets": "noOfTweets",
    "team_tweets": "noOfTweets",
    "team_region_tweets": "noOfTweets",
    "tagcloud_tweets": "count",
    "dim_teams": "sort_order",
}

#: widgets re-rendered after a gesture on each selectable widget
AFFECTED_WIDGETS = {
    "teams": ["relativeteamtweets", "playertweets", "regiontweets"],
    "ipl_duration": [
        "relativeteamtweets", "playertweets", "teamtweets",
        "wordtweets", "regiontweets",
    ],
}


def tweets(count: int, seed: int) -> list[dict]:
    """``count`` Gnip-shaped tweets; a prefix of a longer feed is stable."""
    return ipl.generate_tweets(count, seed=seed)


def write_json_array(path: Path, docs: list[dict]) -> int:
    """The paper's JSON-array tweet file; returns its size in bytes."""
    data = json.dumps(docs).encode("utf-8")
    path.write_bytes(data)
    return len(data)


def jsonl_bytes(docs: list[dict]) -> bytes:
    return b"".join(json.dumps(d).encode("utf-8") + b"\n" for d in docs)


# ---------------------------------------------------------------------------
# ad-hoc queries
# ---------------------------------------------------------------------------


def _categoricals(rows: list[dict]) -> dict[str, list[str]]:
    """String columns with 2..100 distinct URL-safe non-null values."""
    columns: dict[str, set] = {}
    for row in rows:
        for key, value in row.items():
            columns.setdefault(key, set()).add(value)
    out = {}
    for key, values in columns.items():
        strings = sorted(
            v for v in values if isinstance(v, str) and "/" not in v
        )
        if all(isinstance(v, str) or v is None for v in values) and (
            2 <= len(strings) <= 100
        ):
            out[key] = strings
    return out


def _classes(endpoint: str, rows: list[dict]) -> list[list[str]]:
    """Candidate query paths of one endpoint, one list per query kind."""
    measure = MEASURES[endpoint]
    cats = _categoricals(rows)
    base = [endpoint]
    top = [f"{endpoint}/orderby/{measure}/desc/limit/{n}" for n in (5, 10, 25)]
    ranged = [f"{endpoint}/filter/{measure}/ge/{k}" for k in (1, 2, 5, 10, 20)]
    grouped, point, point_top, point_grouped = [], [], [], []
    for col, values in sorted(cats.items()):
        for agg in ("sum", "count", "max"):
            grouped.append(f"{endpoint}/groupby/{col}/{agg}/{measure}")
        for value in values:
            v = f"{endpoint}/filter/{col}/eq/{quote(value, safe='')}"
            point.append(v)
            point_top.append(f"{v}/orderby/{measure}/desc/limit/5")
            point_grouped.extend(
                f"{v}/groupby/{other}/sum/{measure}"
                for other in sorted(cats) if other != col
            )
    return [base, top, ranged, grouped, point, point_top, point_grouped]


def fingerprint(path: str) -> str:
    segments = [unquote(s) for s in path.split("/") if s]
    return parse_adhoc_query(segments).canonicalized().fingerprint()


def query_universe(
    reference: dict[str, list[dict]], seed: int, size: int
) -> list[str]:
    """``size`` ad-hoc query paths with distinct canonical fingerprints,
    in popularity order (rank 0 is the most popular).

    Ranks cycle over (endpoint, query kind) classes in a fixed order
    and the seed picks the member of each class, so every seed asks
    the same mix of endpoints and kinds at every popularity level.
    """
    rng = random.Random(seed)
    classes = []
    for kind in range(7):
        for endpoint in sorted(MEASURES):
            members = _classes(endpoint, reference[endpoint])[kind]
            rng.shuffle(members)
            classes.append(members)
    chosen, seen = [], set()
    while len(chosen) < size and any(classes):
        for members in classes:
            while members:
                path = members.pop()
                fp = fingerprint(path)
                if fp not in seen:
                    seen.add(fp)
                    chosen.append(path)
                    break
    if len(chosen) < size:
        raise ValueError(f"only {len(chosen)} distinct queries available")
    return chosen[:size]


def zipf_reads(
    universe: list[str], totals: list[int], count: int, seed: int,
    skew: float, later_share: float,
) -> list[str]:
    """``count`` request targets: Zipf picks over ``universe``.

    A read asks for the server's default page (``SERVER_PAGE`` rows,
    no query string).  When the picked result (``totals[rank]`` rows)
    spans more than one page, a ``later_share`` of its reads ask for a
    later page instead (pagination).
    """
    rng = random.Random(seed ^ 0x5EED)
    weights = [1.0 / (rank + 1) ** skew for rank in range(len(universe))]
    ranks = rng.choices(range(len(universe)), weights=weights, k=count)
    out = []
    for rank in ranks:
        pages = -(-totals[rank] // SERVER_PAGE)
        if pages > 1 and rng.random() < later_share:
            offset = SERVER_PAGE * rng.randint(1, pages - 1)
            out.append(f"{universe[rank]}?offset={offset}")
        else:
            out.append(universe[rank])
    return out


def hot_set(universe: list[str], size: int = 32) -> list[str]:
    """At most ``size`` queries, a few per endpoint: fits the cache."""
    per_endpoint: dict[str, list[str]] = {}
    for path in universe:
        per_endpoint.setdefault(path.split("/", 1)[0], []).append(path)
    share = max(1, size // len(per_endpoint))
    chosen = [p for paths in per_endpoint.values() for p in paths[:share]]
    return chosen[:size]


# ---------------------------------------------------------------------------
# widget gestures (the consumption dashboard, Appendix A.2)
# ---------------------------------------------------------------------------


def gestures(count: int, seed: int) -> list[tuple[str, dict, list[str]]]:
    """``(widget, selection body, widgets to re-render)`` per gesture.

    The kinds alternate in a fixed pattern (two teams, an eight-day
    range, and a cleared team list every tenth gesture) so every seed
    does the same amount of work; the seed picks the teams and dates.
    """
    rng = random.Random(seed ^ 0x6E57)
    teams = [key for key, _full, _color, _order in ipl.TEAMS]
    days = (ipl.SEASON_END - ipl.SEASON_START).days
    out = []
    for j in range(count):
        if j % 10 == 9:
            body, widget = {}, "teams"
        elif j % 2 == 0:
            body = {"values": rng.sample(teams, 2)}
            widget = "teams"
        else:
            start = rng.randint(0, days - 7)
            body = {"range": [_day(start), _day(start + 7)]}
            widget = "ipl_duration"
        out.append((widget, body, AFFECTED_WIDGETS[widget]))
    return out


def _day(offset: int) -> str:
    return (ipl.SEASON_START + dt.timedelta(days=offset)).isoformat()
