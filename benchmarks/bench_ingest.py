"""Ingestion fast path: columnar decoders and zero-copy serialization
vs the historical row-at-a-time loaders.

The acceptance benchmark for the ingestion fast path.  A 100k-row CSV
feed and a 100k-line JSONL feed (nested documents, ``=>`` path
mappings) decode twice:

* **fast**: the shipping path — ``iter_decoded_lines`` straight into
  per-column lists, compiled payload-path getters resolved once per
  schema, memoized cell coercion, ``Table.from_columns`` adoption;
* **legacy**: a faithful replica of the pre-fast-path decoders —
  dict-per-row records through ``Table.from_rows``, per-cell
  ``coerce_cell``, and an *uncached* payload-path parse per cell
  (``parse_path`` had no memo before this PR).

Both decodes must agree record for record before any timing.  Full
mode asserts the combined decode speedup is at least 2.5x and records
the measured numbers in ``results/BENCH_ingest.json``; with
``BENCH_SMOKE=1`` the feeds shrink and the assertion relaxes to
"strictly faster".

Three further sections record the satellite wins: columnar endpoint
serialization (``to_json_records`` vs ``json.dumps(to_records())``),
paged ``/ds/`` serving (slice-then-materialize vs materialize-then-
slice), and parallel ``load_many`` equivalence at parallelism 1 vs 4.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import time
from typing import Any

from conftest import report_json

from repro.connectors.loader import DataObjectLoader
from repro.data import Column, Schema, Table
from repro.formats import CsvFormat, JsonFormat
from repro.formats.base import coerce_cell
from repro.formats.csv_format import _header_positions
from repro.formats.json_format import JsonLinesFormat, _documents
from repro.formats.jsonpath import _walk, clear_parse_cache
from repro.observability import Observability

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
#: BENCH_ROWS overrides the feed size in either mode — set it to a few
#: million to stress the decoders at multi-core scale (see
#: bench_multicore.py, which does exactly that for the full matrix).
ROWS = int(os.environ.get("BENCH_ROWS", "0")) or (5_000 if SMOKE else 100_000)
REPEATS = 1 if SMOKE else 3
MIN_SPEEDUP = 1.0 if SMOKE else 2.5

REGIONS = [f"region_{i:02d}" for i in range(20)]
DATES = [f"2026-{m:02d}-{d:02d}" for m in range(1, 13) for d in (1, 8, 15, 22)]
TAGS = ["alpha", "beta", "gamma", "delta", "epsilon"]


# ---------------------------------------------------------------------------
# legacy replicas (the pre-fast-path decoders, verbatim)
# ---------------------------------------------------------------------------


_LEGACY_SEGMENT_RE = re.compile(r"(?P<field>[^.\[\]]+)|\[(?P<index>\d+|\*)\]")


def _legacy_parse_path(path: str) -> list:
    """The pre-memo ``parse_path``: a fresh regex scan on every call."""
    segments: list = []
    pos = 0
    text = path.strip()
    while pos < len(text):
        if text[pos] == ".":
            pos += 1
            continue
        match = _LEGACY_SEGMENT_RE.match(text, pos)
        if match.group("field") is not None:
            segments.append(match.group("field"))
        else:
            index = match.group("index")
            segments.append("*" if index == "*" else int(index))
        pos = match.end()
    return segments


def _legacy_extract_path(document: Any, path: str) -> Any:
    return _walk(document, _legacy_parse_path(path))


def _legacy_csv_decode(payload, schema, options=None):
    options = options or {}
    separator = str(options.get("separator", ","))
    has_header = options.get("header", True)
    encoding = str(options.get("encoding", "utf-8"))
    text = payload.decode(encoding)
    reader = csv.reader(io.StringIO(text), delimiter=separator)
    rows = [row for row in reader if row]
    if not rows:
        return Table.empty(schema)
    if has_header:
        header = [h.strip() for h in rows[0]]
        body = rows[1:]
        positions = _header_positions(header, schema)
    else:
        body = rows
        positions = list(range(len(schema)))
    names = schema.names
    records = []
    for row in body:
        record = {}
        for name, position in zip(names, positions):
            if position is None or position >= len(row):
                record[name] = None
            else:
                record[name] = coerce_cell(row[position])
        records.append(record)
    return Table.from_rows(schema, records)


def _legacy_json_decode(payload, schema, options=None):
    options = options or {}
    encoding = str(options.get("encoding", "utf-8"))
    text = payload.decode(encoding)
    documents = list(_documents(text, options.get("root")))
    records = [
        {
            column.name: _legacy_extract_path(
                doc, column.source_path or column.name
            )
            for column in schema
        }
        for doc in documents
    ]
    return Table.from_rows(schema, records)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _csv_payload() -> bytes:
    lines = ["region,day,amount,flag,note"]
    for i in range(ROWS):
        lines.append(
            f"{REGIONS[i % 20]},{DATES[i % len(DATES)]},"
            f"{(i * 7) % 1000},{'true' if i % 3 else 'false'},"
            f"note {i % 50}"
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def _jsonl_payload() -> bytes:
    lines = [
        json.dumps(
            {
                "region": REGIONS[i % 20],
                "detail": {"amount": (i * 7) % 1000, "day": DATES[i % 48]},
                "tags": [TAGS[i % 5], TAGS[(i + 2) % 5]],
            }
        )
        for i in range(ROWS)
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


CSV_SCHEMA = Schema.of("region", "day", "amount", "flag", "note")
JSON_SCHEMA = Schema(
    [
        Column("region"),
        Column("amount", source_path="detail.amount"),
        Column("day", source_path="detail.day"),
        Column("first_tag", source_path="tags[0]"),
    ]
)


def _best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_columnar_decode_beats_row_at_a_time():
    csv_payload = _csv_payload()
    jsonl_payload = _jsonl_payload()

    # Correctness first: the columnar decoders must agree with the
    # legacy replicas record for record.
    fast_csv = CsvFormat().decode(csv_payload, CSV_SCHEMA)
    legacy_csv = _legacy_csv_decode(csv_payload, CSV_SCHEMA)
    assert fast_csv.to_records() == legacy_csv.to_records()
    fast_json = JsonLinesFormat().decode(jsonl_payload, JSON_SCHEMA)
    legacy_json = _legacy_json_decode(jsonl_payload, JSON_SCHEMA)
    assert fast_json.to_records() == legacy_json.to_records()

    clear_parse_cache()
    fast_csv_s = _best_of(
        REPEATS, lambda: CsvFormat().decode(csv_payload, CSV_SCHEMA)
    )
    fast_json_s = _best_of(
        REPEATS, lambda: JsonLinesFormat().decode(jsonl_payload, JSON_SCHEMA)
    )
    legacy_csv_s = _best_of(
        REPEATS, lambda: _legacy_csv_decode(csv_payload, CSV_SCHEMA)
    )
    legacy_json_s = _best_of(
        REPEATS, lambda: _legacy_json_decode(jsonl_payload, JSON_SCHEMA)
    )
    fast_s = fast_csv_s + fast_json_s
    legacy_s = legacy_csv_s + legacy_json_s
    speedup = legacy_s / fast_s
    report_json(
        "ingest", "columnar_decode",
        {
            "rows_per_feed": ROWS,
            "legacy_csv_ms": round(legacy_csv_s * 1000, 2),
            "fast_csv_ms": round(fast_csv_s * 1000, 2),
            "csv_speedup": round(legacy_csv_s / fast_csv_s, 2),
            "legacy_jsonl_ms": round(legacy_json_s * 1000, 2),
            "fast_jsonl_ms": round(fast_json_s * 1000, 2),
            "jsonl_speedup": round(legacy_json_s / fast_json_s, 2),
            "speedup": round(speedup, 2),
            "smoke": SMOKE,
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"columnar decode only {speedup:.2f}x faster "
        f"(required {MIN_SPEEDUP}x at {ROWS} rows per feed)"
    )


def test_columnar_serialization_matches_and_beats_dumps():
    table = CsvFormat().decode(_csv_payload(), CSV_SCHEMA)

    fast = table.to_json_records(default=str)
    legacy = json.dumps(table.to_records(), default=str)
    assert fast == legacy

    fast_s = _best_of(REPEATS, lambda: table.to_json_records(default=str))
    legacy_s = _best_of(
        REPEATS, lambda: json.dumps(table.to_records(), default=str)
    )
    report_json(
        "ingest", "endpoint_serialization",
        {
            "rows": table.num_rows,
            "legacy_ms": round(legacy_s * 1000, 2),
            "fast_ms": round(fast_s * 1000, 2),
            "speedup": round(legacy_s / fast_s, 2),
            "smoke": SMOKE,
        },
    )
    assert fast_s <= legacy_s or SMOKE


def test_paged_serving_skips_full_materialization():
    table = CsvFormat().decode(_csv_payload(), CSV_SCHEMA)
    offset, limit = table.num_rows // 2, 50

    def legacy_page():
        return json.dumps(
            table.to_records()[offset:offset + limit], default=str
        )

    def fast_page():
        window = range(table.num_rows)[offset:offset + limit]
        return table.take(window).to_json_records(default=str)

    assert fast_page() == legacy_page()
    fast_s = _best_of(REPEATS, fast_page)
    legacy_s = _best_of(REPEATS, legacy_page)
    report_json(
        "ingest", "ds_pagination",
        {
            "rows": table.num_rows,
            "page": limit,
            "legacy_ms": round(legacy_s * 1000, 2),
            "fast_ms": round(fast_s * 1000, 2),
            "speedup": round(legacy_s / fast_s, 2),
            "smoke": SMOKE,
        },
    )
    assert fast_s < legacy_s


def test_parallel_load_many_is_equivalent(tmp_path):
    (tmp_path / "feed.csv").write_bytes(_csv_payload())
    (tmp_path / "feed.jsonl").write_bytes(_jsonl_payload())
    base = str(tmp_path)
    specs = [
        (CSV_SCHEMA, {"source": "feed.csv", "base_dir": base,
                      "stream": True}),
        (JSON_SCHEMA, {"source": "feed.jsonl", "base_dir": base,
                       "format": "jsonl"}),
        (CSV_SCHEMA, {"source": "feed.csv", "base_dir": base}),
    ]

    def load(parallelism):
        loader = DataObjectLoader(observability=Observability())
        return loader.load_many(specs, parallelism=parallelism)

    sequential = load(1)
    concurrent = load(4)
    assert [t.to_records() for t in concurrent] == [
        t.to_records() for t in sequential
    ]
    seq_s = _best_of(REPEATS, lambda: load(1))
    par_s = _best_of(REPEATS, lambda: load(4))
    report_json(
        "ingest", "parallel_loading",
        {
            "sources": len(specs),
            "rows_per_feed": ROWS,
            "sequential_ms": round(seq_s * 1000, 2),
            "parallel_ms": round(par_s * 1000, 2),
            "smoke": SMOKE,
        },
    )
