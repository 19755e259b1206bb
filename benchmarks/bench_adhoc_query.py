"""Interactive ad-hoc query latency: vectorized kernels vs row-at-a-time.

The acceptance benchmark for the fast interactive path.  One
representative ``/ds/`` chain — filter + groupby + orderby + limit over
a 100k-row endpoint payload — runs twice:

* **vectorized**: the shipping path (:class:`AdhocQuery` canonicalized
  by the planner, executed through the columnar kernels);
* **baseline**: a faithful inline replica of the pre-kernel
  row-at-a-time path (row-dict filter lambdas, per-row tuple group keys
  feeding incremental ``Aggregate`` objects, ``Table.from_rows``
  reassembly, full sort + head).

Full mode asserts the vectorized path is at least 3x faster and records
the measured speedup in ``results/BENCH_interactive.json``.  With
``BENCH_SMOKE=1`` (the CI ``bench`` job) the table shrinks and the
assertion relaxes to "strictly faster", keeping the job quick and
hardware-tolerant.

Both paths are checked for byte-identical JSON output before timing —
a speedup over a wrong answer counts for nothing.
"""

from __future__ import annotations

import json
import os
import time

from conftest import report_json

from repro.data import Schema, Table
from repro.data.expressions import _compare
from repro.server.query_language import AdhocQuery
from repro.tasks.groupby import _AGGREGATE_FACTORIES

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
ROWS = 10_000 if SMOKE else 100_000
REPEATS = 1 if SMOKE else 3
MIN_SPEEDUP = 1.0 if SMOKE else 3.0

CHAIN = [
    ("filter", ("noOfTweets", "ge", "100")),
    ("groupby", ("team", "sum", "noOfTweets")),
    ("orderby", ("sum_noOfTweets", "desc")),
    ("limit", ("5",)),
]


def endpoint(n: int) -> Table:
    return Table.from_rows(
        Schema.of("team", "date", "noOfTweets"),
        [
            (f"T{i % 9}", f"2013-05-{(i % 26) + 2:02d}", i % 500)
            for i in range(n)
        ],
    )


def vectorized(table: Table) -> Table:
    query = AdhocQuery(dataset="bench", steps=list(CHAIN)).canonicalized()
    return query.execute(table)


def baseline(table: Table) -> Table:
    """The pre-kernel execution of CHAIN, step by step."""
    # filter: one row dict + one lambda frame per row
    table = table.filter_rows(
        lambda row: _compare(">=", row["noOfTweets"], 100)
    )
    # groupby: per-row tuple keys into incremental Aggregate objects
    groups: dict[tuple, list] = {}
    order: list[tuple] = []
    group_cols = [table.column("team")]
    apply_col = table.column("noOfTweets")
    factory = _AGGREGATE_FACTORIES["sum"]
    for i in range(table.num_rows):
        key = tuple(col[i] for col in group_cols)
        aggs = groups.get(key)
        if aggs is None:
            aggs = [factory()]
            groups[key] = aggs
            order.append(key)
        aggs[0].add(apply_col[i])
    records = []
    for key in order:
        record = dict(zip(["team"], key))
        record["sum_noOfTweets"] = groups[key][0].result()
        records.append(record)
    result = Table.from_rows(Schema.of("team", "sum_noOfTweets"), records)
    # orderby + limit: full sort, then head
    return result.sorted_by(["sum_noOfTweets"], [True]).head(5)


def best_of(repeats: int, fn, table: Table) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(table)
        best = min(best, time.perf_counter() - start)
    return best


def test_vectorized_chain_beats_row_at_a_time():
    table = endpoint(ROWS)
    fast = vectorized(table)
    slow = baseline(table)
    assert json.dumps(fast.to_records()) == json.dumps(slow.to_records())

    fast_s = best_of(REPEATS, vectorized, table)
    slow_s = best_of(REPEATS, baseline, table)
    speedup = slow_s / fast_s
    report_json(
        "interactive", "adhoc_chain",
        {
            "rows": ROWS,
            "chain": "filter+groupby+orderby+limit",
            "row_at_a_time_ms": round(slow_s * 1000, 2),
            "vectorized_ms": round(fast_s * 1000, 2),
            "speedup": round(speedup, 2),
            "smoke": SMOKE,
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized path only {speedup:.2f}x faster "
        f"(required {MIN_SPEEDUP}x at {ROWS} rows)"
    )


def test_adhoc_chain_latency(benchmark):
    """Absolute latency of the shipping path, for the results ledger."""
    table = endpoint(ROWS)
    out = benchmark(vectorized, table)
    assert out.num_rows == 5
