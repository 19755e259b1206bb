"""The correctness oracle: reference endpoints and their comparison.

The local engine on a fresh :class:`~repro.Platform` defines the
reference endpoints.  Endpoint rows are compared as multisets, because
no row order is defined across engines today.  ``tagcloud_tweets`` is
a grouped top-n (limit 20 per date) whose tie-break is not defined
either, so it is checked exactly as far as the flow defines it: per
date the multiset of counts, and every row's count equal to that
word's total.  Rows that pass those checks but differ from the local
engine's choice among tied words are counted, never hidden, as
``check.topn_tie_divergent_rows``.

Ad-hoc reads and widget payloads are checked against results computed
here, in plain Python over the reference endpoint rows: they share no
code with the program's query planner, datacube or widgets, so a wrong
result from any of those layers fails the check.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from typing import Any, Mapping
from urllib.parse import unquote

from repro import Platform
from repro.data import Table
from repro.workloads import ipl

TOPN_ENDPOINT = "tagcloud_tweets"
TOPN_RAW = "tagcloud_tweets_raw"
TOPN_LIMIT = 20

Rows = list[dict[str, Any]]


def dimension_tables() -> dict[str, Table]:
    """The flow's inline dimension tables (constants of the workload)."""
    return {
        "dim_teams": ipl.dim_teams_table(),
        "team_players": ipl.team_players_table(),
        "lat_long": ipl.lat_long_table(),
    }


def rows_of(table: Table) -> Rows:
    """Rows as the wire sees them (the server's JSON encoding)."""
    return json.loads(table.to_json_records())


class Reference:
    """Reference endpoint rows for one input, from the local engine."""

    def __init__(
        self,
        flow: str,
        data_dir: str | None = None,
        tweets: Table | None = None,
    ):
        platform = Platform()
        inline = dimension_tables()
        if tweets is not None:
            inline["ipltweets"] = tweets
        dashboard = platform.create_dashboard(
            "reference", flow, data_dir=data_dir, inline_tables=inline,
            dictionaries=ipl.dictionaries(),
        )
        platform.run_dashboard("reference", engine="local")
        self.endpoints = {
            name: rows_of(dashboard.endpoint(name))
            for name in dashboard.endpoint_names()
        }
        self.word_totals = {
            (r["date"], r["word"]): r["count"]
            for r in rows_of(dashboard.materialized(TOPN_RAW))
        }


def _key(row: Mapping[str, Any]) -> str:
    return json.dumps(row, sort_keys=True, default=str)


def multiset_diff(got: Rows, want: Rows) -> tuple[int, int]:
    """(rows missing from ``got``, rows ``got`` has in excess)."""
    g, w = Counter(map(_key, got)), Counter(map(_key, want))
    return sum((w - g).values()), sum((g - w).values())


def check_topn(
    got: Rows, want: Rows, word_totals: Mapping[tuple, int]
) -> tuple[list[str], int]:
    """Strict grouped top-n check; returns (problems, tie-divergent rows)."""
    problems = []
    by_date_got: dict[str, list[int]] = defaultdict(list)
    by_date_want: dict[str, list[int]] = defaultdict(list)
    seen = set()
    for row in got:
        key = (row["date"], row["word"])
        if key in seen:
            problems.append(f"{TOPN_ENDPOINT}: duplicate row {key}")
        seen.add(key)
        if word_totals.get(key) != row["count"]:
            problems.append(
                f"{TOPN_ENDPOINT}: {key} count {row['count']} != "
                f"word total {word_totals.get(key)}"
            )
        by_date_got[row["date"]].append(row["count"])
    for row in want:
        by_date_want[row["date"]].append(row["count"])
    for date in sorted(set(by_date_got) | set(by_date_want)):
        if sorted(by_date_got[date]) != sorted(by_date_want[date]):
            problems.append(
                f"{TOPN_ENDPOINT}: counts for {date} differ from the "
                f"top-{TOPN_LIMIT} reference"
            )
    _missing, excess = multiset_diff(got, want)
    return problems, (0 if problems else excess)


def check_endpoints(
    got: Mapping[str, Rows], reference: Reference
) -> tuple[list[str], int]:
    """Compare every endpoint; returns (problems, tie-divergent rows)."""
    want = reference.endpoints
    problems: list[str] = []
    divergent = 0
    for name in sorted(want):
        if name not in got:
            problems.append(f"{name}: endpoint missing")
            continue
        if name == TOPN_ENDPOINT:
            found, divergent = check_topn(
                got[name], want[name], reference.word_totals
            )
            problems.extend(found)
            continue
        missing, excess = multiset_diff(got[name], want[name])
        if missing or excess:
            problems.append(
                f"{name}: {missing} reference rows missing, "
                f"{excess} unexpected rows"
            )
    return problems, divergent


# ---------------------------------------------------------------------------
# ad-hoc reads, evaluated independently of the program's query planner
# ---------------------------------------------------------------------------


def _typed(rows: Rows, column: str, raw: str) -> Any:
    """A filter value as the column's values are typed: a string column
    compares strings, anything else compares numbers."""
    values = [r[column] for r in rows if r[column] is not None]
    if values and all(isinstance(v, str) for v in values):
        return raw
    return float(raw) if "." in raw else int(raw)


_AGGREGATES = {
    "sum": lambda vs: sum(v for v in vs if v is not None)
    if any(v is not None for v in vs) else None,
    "max": lambda vs: max((v for v in vs if v is not None), default=None),
    "count": len,
}


class Expected:
    """The answer to one ad-hoc query path over reference rows.

    ``rows`` is the full result.  For an ``orderby`` query, ``order``
    names the sort column and ``candidates`` holds the rows before the
    sort and limit: the order among tied values is not defined, so a
    page must take its rows from ``candidates`` and its sort values
    from ``rows``.
    """

    def __init__(self, endpoints: Mapping[str, Rows], path: str):
        segments = [unquote(s) for s in path.split("/") if s]
        rows = list(endpoints[segments[0]])
        self.order: str | None = None
        self.candidates = rows
        i = 1
        while i < len(segments):
            verb, args = segments[i], segments[i + 1:]
            if verb == "filter":
                column, op, raw = args[:3]
                value = _typed(rows, column, raw)
                keep = {"eq": lambda v: v == value,
                        "ge": lambda v: v is not None and v >= value}[op]
                rows = [r for r in rows if keep(r[column])]
                i += 4
            elif verb == "groupby":
                key, aggregate, measure = args[:3]
                groups: dict[Any, list] = defaultdict(list)
                for r in rows:
                    groups[r[key]].append(r[measure])
                out = measure if aggregate == "count" else f"{aggregate}_{measure}"
                rows = [{key: k, out: _AGGREGATES[aggregate](vs)}
                        for k, vs in groups.items()]
                i += 4
            elif verb == "orderby" and args[1] == "desc":
                self.order, self.candidates = args[0], rows
                rows = sorted(rows, key=lambda r: r[args[0]], reverse=True)
                i += 3
            elif verb == "limit":
                rows = rows[: int(args[0])]
                i += 2
            else:
                raise ValueError(f"the oracle has no rule for {path!r}")
        if self.order is None:
            self.candidates = rows
        self.rows = rows

    def check_page(self, body: Mapping[str, Any], offset: int,
                   limit: int) -> str | None:
        """What is wrong with one response page, or ``None``."""
        window = self.rows[offset: offset + limit]
        page = body["rows"]
        if body["total_rows"] != len(self.rows):
            return f"{body['total_rows']} rows, expected {len(self.rows)}"
        if len(page) != len(window):
            return f"page has {len(page)} rows, expected {len(window)}"
        if Counter(map(_key, page)) - Counter(map(_key, self.candidates)):
            return "page holds rows outside the expected result"
        if self.order is not None and (
            [r[self.order] for r in page] != [r[self.order] for r in window]
        ):
            return f"page is not ordered by {self.order} as expected"
        return None


# ---------------------------------------------------------------------------
# widget payloads of the consumption dashboard (Appendix A.2)
# ---------------------------------------------------------------------------


class Selections:
    """One analyst's selections, and the data each affected widget must
    show, computed from the processing endpoints' reference rows.

    Only the data is checked (series points, word sizes, marker sizes
    and tooltips); layout values such as fonts and radii are not.
    """

    def __init__(self, endpoints: Mapping[str, Rows]):
        self.endpoints = endpoints
        self.teams: list[str] | None = None
        self.dates: tuple[str, str] | None = None

    def select(self, widget: str, body: Mapping[str, Any]) -> None:
        if widget == "teams":
            self.teams = body.get("values") or None
        else:
            low, high = body["range"]
            self.dates = (low, high)

    def _rows(self, endpoint: str, by_team: bool) -> Rows:
        out = []
        for r in self.endpoints[endpoint]:
            if self.dates and not self.dates[0] <= r["date"] <= self.dates[1]:
                continue
            if by_team and self.teams and r["team"] not in self.teams:
                continue
            out.append(r)
        return out

    @staticmethod
    def _sums(rows: Rows, keys: tuple[str, ...], measure: str) -> dict:
        sums: dict[tuple, Any] = defaultdict(int)
        for r in rows:
            sums[tuple(r[k] for k in keys)] += r[measure]
        return sums

    def _words(self, endpoint: str, text: str, measure: str,
               by_team: bool) -> list:
        rows = [r for r in self._rows(endpoint, by_team) if r[text] is not None]
        return sorted((k[0], s) for k, s in
                      self._sums(rows, (text,), measure).items())

    def expected(self, widget: str) -> Any:
        if widget == "relativeteamtweets":
            rows = self._rows("team_tweets", by_team=True)
            series: dict[str, dict] = defaultdict(dict)
            for (team, date), total in self._sums(
                    rows, ("team", "date"), "noOfTweets").items():
                series[team][date] = total
            return {"series": dict(series),
                    "domain": sorted({r["date"] for r in rows})}
        if widget == "playertweets":
            return self._words("player_tweets", "player", "noOfTweets", True)
        if widget == "teamtweets":
            return self._words("team_tweets", "team", "noOfTweets", False)
        if widget == "wordtweets":
            return self._words("tagcloud_tweets", "word", "count", False)
        if widget == "regiontweets":
            rows = self._rows("team_region_tweets", by_team=True)
            keys = ("team", "point_one", "state", "color")
            return sorted(_key({
                "latlong": point, "size": float(total) or 1.0, "color": color,
                "tooltip": {"state": state, "team": team, "noOfTweets": total},
            }) for (team, point, state, color), total in self._sums(
                rows, keys, "noOfTweets").items())
        raise ValueError(f"the oracle has no rule for widget {widget!r}")

    def check(self, widget: str, payload: Mapping[str, Any]) -> bool:
        """Whether a served payload shows the expected data."""
        want = self.expected(widget)
        if widget == "relativeteamtweets":
            return {"series": payload["series"],
                    "domain": payload["domain"]} == want
        if widget == "regiontweets":
            return sorted(map(_key, payload["markers"])) == want
        return sorted((w["text"], w["size"]) for w in payload["words"]) == want
