"""Batch engine fast path: columnar shuffle + value-memoized maps vs
the historical row-at-a-time engine.

The acceptance benchmark for the batch fast path.  The IPL processing
workload (the paper's §3.7 dashboard: 17 stages, four shared outputs,
shuffles behind every group-by and join) runs twice on the distributed
engine:

* **fast**: the shipping path — column-wise single-pass shuffle with a
  memoized stable hash, multi-way gather, the value-only columnar map
  kernel (regex date parsing, per-value memo), ``parallelism=4``;
* **legacy**: a faithful replica of the pre-fast-path engine,
  monkeypatched in for the run — dict-per-row shuffle into
  ``Table.from_rows`` buckets, un-memoized ``crc32(repr())`` per key,
  pairwise-fold gather, the row-dict map loop with strptime-chain date
  parsing, sequential scheduling.

Both runs execute the same compiled plan over the same partitions, so
their outputs must be *identical* (including row order) — checked
before any timing.  Full mode asserts the fast path is at least 2x
faster and records the measured speedup in ``results/BENCH_batch.json``
(measured ≥2.5x on the reference container).  With ``BENCH_SMOKE=1``
the feed shrinks and the assertion relaxes to "strictly faster".

A second section records what map-chain fusion does to a fusable
pipeline: scheduled stage count before/after, with identical results.
"""

from __future__ import annotations

import datetime as _dt
import os
import time
import zlib
from typing import Any, Mapping, Sequence

from conftest import report_json

from repro import Platform
from repro.data import Table
from repro.dsl import parse_flow_file
from repro.engine import DistributedExecutor, LocalExecutor, distributed
from repro.engine import optimize_plan
from repro.formats import JsonFormat
from repro.tasks import map_ops
from repro.tasks.map_ops import MapTask, java_to_strptime
from repro.workloads import IPL_PROCESSING_FLOW, ipl

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
#: BENCH_ROWS overrides the tweet count in either mode — crank it to
#: hundreds of thousands to push the engine to multi-core scale (the
#: full million-row matrix lives in bench_multicore.py).
TWEETS = int(os.environ.get("BENCH_ROWS", "0")) or (300 if SMOKE else 3000)
REPEATS = 1 if SMOKE else 3
MIN_SPEEDUP = 1.0 if SMOKE else 2.0


# ---------------------------------------------------------------------------
# legacy replicas (the pre-fast-path engine, verbatim)
# ---------------------------------------------------------------------------


def _legacy_stable_hash(key: Any) -> int:
    return zlib.crc32(repr(key).encode("utf-8", "surrogatepass"))


def _legacy_hash_shuffle(
    partitions: Sequence[Table], keys: Sequence[str], parts: int
) -> tuple[list[Table], int, int]:
    buckets: list[list[dict[str, Any]]] = [[] for _ in range(parts)]
    records = 0
    total_bytes = 0
    for partition in partitions:
        total_bytes += partition.estimated_bytes()
        for row in partition.rows():
            key = tuple(distributed._hashable(row[k]) for k in keys)
            buckets[_legacy_stable_hash(key) % parts].append(row)
            records += 1
    schema = partitions[0].schema
    return (
        [Table.from_rows(schema, bucket) for bucket in buckets],
        records,
        total_bytes,
    )


def _legacy_gather(partitions: Sequence[Table]) -> Table:
    result = partitions[0]
    for part in partitions[1:]:
        result = result.concat(part)
    return result


def _legacy_date_factory(config: Mapping[str, Any]):
    """The pre-kernel date operator: strptime chain, no regex."""
    input_format = config.get("input_format")
    output_format = config.get("output_format", "yyyy-MM-dd")
    in_pattern = java_to_strptime(str(input_format)) if input_format else None
    out_pattern = java_to_strptime(str(output_format))

    def convert(value: Any, _row: Mapping[str, Any]) -> Any:
        if value is None:
            return None
        if isinstance(value, (_dt.date, _dt.datetime)):
            return value.strftime(out_pattern)
        text = str(value).strip()
        parsed: _dt.datetime | None = None
        if in_pattern:
            try:
                parsed = _dt.datetime.strptime(text, in_pattern)
            except ValueError:
                parsed = None
        if parsed is None:
            parsed = map_ops._parse_fallback(text)
        if parsed is None:
            return None
        return parsed.strftime(out_pattern)

    return convert


class _LegacyEngine:
    """Context manager that swaps the fast paths for the replicas."""

    def __enter__(self):
        self._shuffle = distributed._hash_shuffle
        self._gather = distributed._gather
        self._value_only = MapTask._is_value_only
        self._date = map_ops._OPERATOR_FACTORIES["date"]
        distributed._hash_shuffle = _legacy_hash_shuffle
        distributed._gather = _legacy_gather
        # Row-dict map loop everywhere (also disables the value memo).
        MapTask._is_value_only = lambda self: False
        map_ops._OPERATOR_FACTORIES["date"] = _legacy_date_factory
        return self

    def __exit__(self, *exc_info):
        distributed._hash_shuffle = self._shuffle
        distributed._gather = self._gather
        MapTask._is_value_only = self._value_only
        map_ops._OPERATOR_FACTORIES["date"] = self._date
        return False


# ---------------------------------------------------------------------------
# workload
# ---------------------------------------------------------------------------


def _ipl_dashboard():
    platform = Platform()
    schema = parse_flow_file(IPL_PROCESSING_FLOW).data["ipltweets"].schema
    tweets = JsonFormat().decode(
        ipl.tweets_json(count=TWEETS, seed=7), schema
    )
    return platform.create_dashboard(
        "ipl_processing",
        IPL_PROCESSING_FLOW,
        inline_tables={
            "ipltweets": tweets,
            "dim_teams": ipl.dim_teams_table(),
            "team_players": ipl.team_players_table(),
            "lat_long": ipl.lat_long_table(),
        },
        dictionaries=ipl.dictionaries(),
    )


def _run(dashboard, parallelism):
    executor = DistributedExecutor(
        dashboard._resolve_source,
        num_partitions=4,
        parallelism=parallelism,
    )
    return executor.run(dashboard.compiled.plan, dashboard._task_context())


def _fingerprint(result):
    return {
        name: (table.schema.names, dict(table._data))
        for name, table in result.tables.items()
    }


def _best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_batch_fast_path_beats_row_at_a_time():
    dashboard = _ipl_dashboard()

    # Correctness first: same plan, same partitions, same hash routing —
    # the two engines must agree byte for byte, including row order.
    fast = _run(dashboard, parallelism=4)
    with _LegacyEngine():
        legacy = _run(dashboard, parallelism=1)
    assert _fingerprint(fast) == _fingerprint(legacy)

    fast_s = _best_of(REPEATS, lambda: _run(dashboard, parallelism=4))
    with _LegacyEngine():
        legacy_s = _best_of(
            REPEATS, lambda: _run(dashboard, parallelism=1)
        )
    speedup = legacy_s / fast_s
    report_json(
        "batch", "ipl_batch",
        {
            "workload": "ipl_processing",
            "tweets": TWEETS,
            "partitions": 4,
            "parallelism": 4,
            "stages": len(fast.stages),
            "legacy_ms": round(legacy_s * 1000, 2),
            "fast_ms": round(fast_s * 1000, 2),
            "speedup": round(speedup, 2),
            "smoke": SMOKE,
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batch fast path only {speedup:.2f}x faster "
        f"(required {MIN_SPEEDUP}x at {TWEETS} tweets)"
    )


FUSABLE_FLOW = (
    "D:\n    raw: [k, v]\n"
    "D.raw:\n    source: raw.csv\n"
    "F:\n    D.out: D.raw | T.up | T.double | T.keep\n"
    "T:\n"
    "    up:\n        type: map\n        operator: upper\n"
    "        transform: k\n        output: K\n"
    "    double:\n        type: add_column\n        expression: v * 2\n"
    "        output: v2\n"
    "    keep:\n        type: filter_by\n        filter_expression: v2 > 2\n"
)


def test_map_chain_fusion_cuts_scheduled_stages():
    """Fusion removes whole scheduled stages, not per-row work.

    Partitions already flow between adjacent map-side stages without
    re-gathering, so what fusion eliminates is per-stage machinery:
    stage spans, per-partition unit scheduling and retry bookkeeping,
    and stage-stats accounting.  The honest measurement therefore uses
    cheap (memoized) operators over many partitions, where that
    machinery is a visible fraction of the run — and reports the
    scheduled-stage reduction, which is the guaranteed effect.
    """
    from repro.compiler.dag import build_dag
    from repro.data import Schema
    from repro.engine import build_logical_plan
    from repro.tasks.registry import default_task_registry

    rows = 1_000 if SMOKE else 5_000
    partitions = 4 if SMOKE else 32
    repeats = REPEATS if SMOKE else 5
    raw = Table.from_rows(
        Schema.of("k", "v"),
        [(f"key{i % 97}", i % 11) for i in range(rows)],
    )

    def compile_plan(optimize):
        ff = parse_flow_file(FUSABLE_FLOW)
        registry = default_task_registry()
        tasks = registry.build_section(
            {name: spec.config for name, spec in ff.tasks.items()}
        )
        plan = build_logical_plan(build_dag(ff), tasks)
        if optimize:
            optimize_plan(plan)
        return plan

    plain, fused = compile_plan(False), compile_plan(True)
    unfused_out = LocalExecutor(lambda n: raw).run(plain).table("out")
    fused_out = LocalExecutor(lambda n: raw).run(fused).table("out")
    assert fused_out.to_records() == unfused_out.to_records()

    def run(plan):
        return DistributedExecutor(
            lambda n: raw, num_partitions=partitions
        ).run(plan)

    unfused_stages = len(run(plain).stages)
    fused_stages = len(run(fused).stages)
    unfused_s = _best_of(repeats, lambda: run(plain))
    fused_s = _best_of(repeats, lambda: run(fused))
    report_json(
        "batch", "map_chain_fusion",
        {
            "rows": rows,
            "partitions": partitions,
            "stages_unfused": unfused_stages,
            "stages_fused": fused_stages,
            "unfused_ms": round(unfused_s * 1000, 2),
            "fused_ms": round(fused_s * 1000, 2),
            "speedup": round(unfused_s / fused_s, 2),
            "smoke": SMOKE,
        },
    )
    assert fused_stages < unfused_stages
    assert fused_out.num_rows == unfused_out.num_rows
