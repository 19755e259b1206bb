"""Typed-encoding benchmarks: kernel fast paths and page-codec size.

Two claims, each verified for *equivalence before timing* (the encoded
run must produce row-identical output to the plain run, else the
speedup is meaningless):

1. **Group-by/sort chain** — a low-cardinality analytics chain
   (columnar filter → group-by with aggregates → multi-key sort) over
   dictionary/typed-encoded columns runs ≥2x faster than over plain
   boxed lists (measured on the reference container; the full-mode
   assertion keeps 1.5x headroom for runner noise).  The win comes from
   comparing dictionary *codes* instead of strings: predicates evaluate
   once per unique value, group-by buckets by dense code, and sort
   ranks the dictionary once.

2. **IPL page bytes** — the binary page codec writes the IPL fact
   pages (low-cardinality team/player/date strings + small ints, in
   the time order the tweet stream arrives in) in ≤1/3 the bytes of
   the historical pickled-table page, for both spilled shuffle pages
   and pool-transport frames.

``BENCH_SMOKE=1`` (the CI ``bench`` job) shrinks the tables and
relaxes the timing assertion to "encoded must be strictly faster";
the size ratio is machine-independent and asserts ≥3x in both modes.
The plain-table baseline is produced with the real ablation switch
(:func:`repro.data.encodings.set_enabled`), not a mock.
"""

from __future__ import annotations

import os
import pickle
import random
import time

from conftest import report_json

from repro.data import Schema, Table
from repro.data import encodings
from repro.data.kernels import ComparePredicate
from repro.data.pages import codec_name, encode_table
from repro.tasks.base import TaskContext
from repro.tasks.registry import default_task_registry
from repro.workloads import ipl

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

ROWS = 4_000 if SMOKE else 60_000
REPEATS = 2 if SMOKE else 3


def _chain_data(rows: int) -> dict[str, list]:
    rng = random.Random(2015)
    players = [name for name, _team, _forms in ipl.PLAYERS]
    teams = [key for key, _full, _color, _order in ipl.TEAMS]
    dates = [f"2013-05-{day:02d}" for day in range(1, 29)]
    return {
        "player": [rng.choice(players) for _ in range(rows)],
        "team": [rng.choice(teams) for _ in range(rows)],
        "date": [rng.choice(dates) for _ in range(rows)],
        "runs": [rng.randrange(0, 120) for _ in range(rows)],
        "strike_rate": [
            round(rng.uniform(40.0, 220.0), 2) for _ in range(rows)
        ],
    }


def _build(data: dict[str, list], encoded: bool) -> Table:
    previous = encodings.set_enabled(encoded)
    try:
        return Table.from_columns(
            Schema.of(*data), {k: list(v) for k, v in data.items()}
        )
    finally:
        encodings.set_enabled(previous)


def _run_chain(table: Table) -> Table:
    filtered = table.filter_rows(ComparePredicate("team", "!=", "PWI"))
    ordered = filtered.sorted_by(
        ["team", "player", "date"], [False, False, True]
    )
    task = default_task_registry().create(
        "per_player",
        {
            "type": "groupby",
            "groupby": ["player", "date"],
            "aggregates": [
                {"operator": "sum", "apply_on": "runs", "out_field": "runs"},
            ],
        },
    )
    grouped = task.apply([ordered], TaskContext())
    return grouped.sorted_by(["date", "player"], [False, True])


def _time(fn, *args) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - started)
    return best


def test_groupby_sort_chain_speedup():
    data = _chain_data(ROWS)
    encoded = _build(data, encoded=True)
    plain = _build(data, encoded=False)
    assert encoded.encoded_column("team") is not None
    assert plain.encoded_column("team") is None

    # Equivalence first: identical rows in identical order, down to the
    # raw column lists the determinism fingerprints read.
    encoded_out = _run_chain(encoded)
    previous = encodings.set_enabled(False)
    try:
        plain_out = _run_chain(plain)
    finally:
        encodings.set_enabled(previous)
    assert encoded_out == plain_out
    assert dict(encoded_out._data) == dict(plain_out._data)

    encoded_s = _time(_run_chain, encoded)
    previous = encodings.set_enabled(False)
    try:
        plain_s = _time(_run_chain, plain)
    finally:
        encodings.set_enabled(previous)
    speedup = plain_s / encoded_s if encoded_s else float("inf")
    report_json(
        "encoding", "groupby_sort_chain",
        {
            "rows": ROWS,
            "plain_seconds": round(plain_s, 6),
            "encoded_seconds": round(encoded_s, 6),
            "speedup": round(speedup, 2),
            "smoke": SMOKE,
        },
    )
    if SMOKE:
        assert speedup > 1.0, f"encoded chain not faster ({speedup:.2f}x)"
    else:
        assert speedup >= 1.5, f"encoded chain only {speedup:.2f}x faster"


def _page_data(rows: int) -> dict[str, list]:
    """One IPL fact page: what a spill/transport frame actually holds.

    The tweet stream arrives in time order, and the hash shuffle
    preserves input order within each partition, so real pages are
    date-clustered — which is what lets the codec's zlib pass squeeze
    the date codes to almost nothing.
    """
    data = _chain_data(rows)
    del data["strike_rate"]
    data["balls"] = [
        random.Random(2016 + rows).randrange(0, 80) for _ in range(rows)
    ]
    order = sorted(range(rows), key=data["date"].__getitem__)
    return {name: [cells[i] for i in order] for name, cells in data.items()}


def test_ipl_page_bytes_ratio():
    """Codec pages ≥3x smaller than pickled-table pages on IPL data."""
    rows = 2_000 if SMOKE else 20_000
    data = _page_data(rows)
    table = _build(data, encoded=True)

    # The historical page format: one pickle of the schema plus the
    # boxed per-column lists (what SpillBucket._flush and the pool
    # frames shipped before the codec).
    legacy = pickle.dumps(
        (table.schema, {n: table.column(n) for n in table.schema.names}),
        pickle.HIGHEST_PROTOCOL,
    )
    page = encode_table(table)

    # Equivalence before size: the page must decode to the same table.
    from repro.data.pages import decode_table

    decoded = decode_table(page)
    assert decoded == table
    assert dict(decoded._data) == dict(table._data)

    ratio = len(legacy) / len(page)
    report_json(
        "encoding", "ipl_page_bytes",
        {
            "rows": rows,
            "pickle_bytes": len(legacy),
            "codec_bytes": len(page),
            "codec": codec_name(page),
            "ratio": round(ratio, 2),
            "smoke": SMOKE,
        },
    )
    assert ratio >= 3.0, f"codec page only {ratio:.2f}x smaller"
