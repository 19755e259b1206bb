"""Integration: parallel scheduling is invisible in every output.

The distributed engine's worker pool must change wall time only.
These tests run the IPL workload across the full {threads, processes
with and without a lent pool} x parallelism {1, 4} matrix — with and
without every named fault-injection profile — and require
byte-identical results: materialized tables (including row order),
stage statistics, shuffle telemetry, simulated-clock sleeps, the injector's fault log,
and the span tree.  Spill-enabled shuffles must be byte-identical to
in-memory ones under the same matrix.  A second group pins the
cross-engine contract: distributed output matches the local engine
(up to row order) on both bundled workloads at every parallelism.
"""

import pytest

from repro import Platform
from repro.dsl import parse_flow_file
from repro.engine import DistributedExecutor, LocalExecutor
from repro.formats import JsonFormat
from repro.observability import Tracer
from repro.resilience import FaultInjector, RetryPolicy, SimulatedClock
from repro.workloads import APACHE_FLOW, IPL_PROCESSING_FLOW, apache, ipl

pytestmark = pytest.mark.resilience

PROFILES = [None, "transient", "lost", "straggler", "flaky", "chaos:7"]


def _ipl_dashboard():
    platform = Platform()
    schema = parse_flow_file(IPL_PROCESSING_FLOW).data["ipltweets"].schema
    tweets = JsonFormat().decode(ipl.tweets_json(count=200, seed=7), schema)
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


def _apache_dashboard():
    platform = Platform()
    return platform.create_dashboard(
        "apache", APACHE_FLOW, inline_tables=apache.all_tables()
    )


def _run(dashboard, profile, parallelism, executor="threads",
         spill_bytes=0, pool=None):
    """One distributed run with fully observable shared state."""
    clock = SimulatedClock()
    tracer = Tracer(clock=clock)
    injector = FaultInjector.from_profile(profile)
    engine = DistributedExecutor(
        dashboard._resolve_source,
        num_partitions=4,
        fault_injector=injector,
        retry_policy=RetryPolicy(max_attempts=3, jitter=0.0),
        clock=clock,
        tracer=tracer,
        parallelism=parallelism,
        executor=executor,
        spill_bytes=spill_bytes,
        pool=pool,
    )
    result = engine.run(dashboard.compiled.plan, dashboard._task_context())
    spans = tracer.trace(tracer.last_trace_id or "")
    return result, clock, injector, spans


def _table_fingerprint(result):
    # _data exposes column lists verbatim: row ORDER matters here.
    return {
        name: (table.schema.names, dict(table._data))
        for name, table in result.tables.items()
    }


def _stage_fingerprint(result):
    # Everything except wall time, which legitimately varies.
    return [
        (
            s.task, s.kind, s.input_rows, s.output_rows,
            s.shuffled_records, s.shuffled_bytes, s.attempts,
            s.retried_partitions, s.speculative_wins,
            s.recovered_partitions,
        )
        for s in result.stages
    ]


def _span_fingerprint(spans):
    return [
        (s.name, s.span_id, s.parent_id, sorted(s.attrs.items()))
        for s in spans
    ]


def _fault_fingerprint(injector):
    if injector is None:
        return []
    return [repr(record) for record in injector.log]


class TestParallelismIsInvisible:
    @pytest.mark.parametrize(
        "profile", PROFILES, ids=[p or "none" for p in PROFILES]
    )
    @pytest.mark.parametrize("executor", ["threads", "processes"])
    def test_ipl_identical_across_matrix(self, profile, executor):
        dashboard = _ipl_dashboard()
        base, base_clock, base_inj, base_spans = _run(dashboard, profile, 1)
        for parallelism in (1, 4):
            wide, wide_clock, wide_inj, wide_spans = _run(
                dashboard, profile, parallelism, executor=executor
            )
            key = f"{executor}/parallelism={parallelism}"
            assert _table_fingerprint(wide) == _table_fingerprint(base), key
            assert _stage_fingerprint(wide) == _stage_fingerprint(base), key
            assert wide.recovered_stages == base.recovered_stages, key
            assert wide.rows_produced == base.rows_produced, key
            # Resilience side effects are consumed in the same order:
            # the simulated clock slept the same sleeps and the
            # injector fired the same faults.
            assert wide_clock.sleeps == base_clock.sleeps, key
            assert _fault_fingerprint(wide_inj) == _fault_fingerprint(
                base_inj
            ), key
            # Span trees (ids, parents, attributes) are byte-identical.
            assert _span_fingerprint(wide_spans) == _span_fingerprint(
                base_spans
            ), key

    @pytest.mark.parametrize(
        "profile", [None, "transient", "chaos:7"],
        ids=["none", "transient", "chaos7"],
    )
    def test_ipl_spill_is_byte_identical(self, profile):
        # A 1-byte budget spills every shuffle page to disk; outputs,
        # stages and spans must not notice.
        dashboard = _ipl_dashboard()
        base, _c, _i, base_spans = _run(dashboard, profile, 4)
        spilled, _c2, _i2, spilled_spans = _run(
            dashboard, profile, 4, spill_bytes=1
        )
        assert _table_fingerprint(spilled) == _table_fingerprint(base)
        assert _stage_fingerprint(spilled) == _stage_fingerprint(base)
        assert _span_fingerprint(spilled_spans) == _span_fingerprint(
            base_spans
        )

    @pytest.mark.parametrize(
        "profile", PROFILES, ids=[p or "none" for p in PROFILES]
    )
    def test_ipl_warm_pool_is_byte_identical(self, profile):
        # A lent (warm) pool must be indistinguishable from the
        # no-lent-pool process run, which forks a private pool per
        # stage — including on a *reused* (second-run) pool, where
        # recycled state could otherwise leak between runs.
        from repro.engine.scheduler import ProcessPool, fork_available

        if not fork_available():
            pytest.skip("requires os.fork")
        dashboard = _ipl_dashboard()
        base, base_clock, base_inj, base_spans = _run(
            dashboard, profile, 1
        )
        private = _run(dashboard, profile, 4, executor="processes")
        with ProcessPool(workers=4) as pool:
            runs = {
                key: _run(dashboard, profile, parallelism,
                          executor="processes", pool=pool)
                for key, parallelism in (
                    ("lent-p1", 1), ("lent-p4", 4), ("lent-p4-reused", 4),
                )
            }
            assert pool.stats.warm_hits > 0, "pool never dispatched"
            assert pool.stats.dispatch_fallbacks == 0
        p_result, p_clock, p_inj, p_spans = private
        assert _table_fingerprint(p_result) == _table_fingerprint(base)
        assert _span_fingerprint(p_spans) == _span_fingerprint(base_spans)
        for key, (wide, wide_clock, wide_inj, wide_spans) in runs.items():
            assert _table_fingerprint(wide) == _table_fingerprint(
                p_result
            ), key
            assert _stage_fingerprint(wide) == _stage_fingerprint(
                p_result
            ), key
            assert wide.recovered_stages == p_result.recovered_stages, key
            assert wide_clock.sleeps == p_clock.sleeps == base_clock.sleeps
            assert _fault_fingerprint(wide_inj) == _fault_fingerprint(
                p_inj
            ) == _fault_fingerprint(base_inj), key
            assert _span_fingerprint(wide_spans) == _span_fingerprint(
                p_spans
            ), key

    @pytest.mark.parametrize("profile", ["transient", "flaky", "chaos:7"])
    def test_faults_actually_fired(self, profile):
        # Guard against the suite passing vacuously: the profiles used
        # above must inject real faults into this workload.
        dashboard = _ipl_dashboard()
        _result, _clock, injector, _spans = _run(dashboard, profile, 4)
        assert injector is not None and injector.faults_injected > 0


class TestWorkerDeathHygiene:
    """A worker killed mid-run must cost neither results nor disk."""

    def test_death_during_spilled_run_leaves_no_orphans(self):
        import glob
        import os
        import signal
        import tempfile
        import time

        from repro.engine.scheduler import ProcessPool, fork_available

        if not fork_available():
            pytest.skip("requires os.fork")

        def _tmp(prefix):
            return set(
                glob.glob(
                    os.path.join(tempfile.gettempdir(), prefix + "*")
                )
            )

        spill_before = _tmp("repro-spill-")
        dashboard = _ipl_dashboard()
        base, _c, _i, _spans = _run(dashboard, None, 4, spill_bytes=1)
        with ProcessPool(workers=4) as pool:
            pool.prefork()
            victim = next(
                w.pid for w in pool._slots if w is not None
            )
            os.kill(victim, signal.SIGKILL)
            time.sleep(0.1)
            wide, _c2, _i2, _spans2 = _run(
                dashboard, None, 4, executor="processes", pool=pool,
                spill_bytes=1,
            )
            # The kill really hit mid-run: the pool replaced a worker.
            assert pool.stats.respawns >= 1
        # Lineage recovery absorbed the loss: outputs match the clean
        # spilled baseline byte for byte, at the cost of extra attempts
        # (the recomputed units) visible in the stage stats.
        assert _table_fingerprint(wide) == _table_fingerprint(base)
        assert wide.rows_produced == base.rows_produced
        assert sum(s.attempts for s in wide.stages) >= sum(
            s.attempts for s in base.stages
        )
        # No stranded shuffle spill directories, and every forked
        # child (including the killed one) has been reaped.
        assert _tmp("repro-spill-") == spill_before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def _mr_mapper(row):
    yield row["k"], row["v"]


def _mr_reducer(key, values):
    yield {"k": key, "s": sum(values)}


class TestNativeMapReduceOnAPool:
    """``native_mr`` map and reduce units pickle into a lent pool."""

    def _run(self, parallelism, pool=None):
        from repro.data import Schema, Table
        from repro.engine.plan import LogicalPlan
        from repro.tasks.udf import NativeMapReduceTask

        raw = Table.from_rows(
            Schema.of("k", "v"), [("abc"[i % 3], i) for i in range(60)]
        )
        task = NativeMapReduceTask(
            "mr",
            {"mapper": _mr_mapper, "reducer": _mr_reducer,
             "output_columns": ["k", "s"]},
        )
        plan = LogicalPlan()
        load = plan.add_load("raw")
        plan.add_task(task, [load.id], materializes="out")
        engine = DistributedExecutor(
            lambda _name: raw,
            num_partitions=4,
            parallelism=parallelism,
            executor="processes" if pool is not None else "threads",
            pool=pool,
        )
        return engine.run(plan)

    def test_units_dispatch_and_match_sequential(self):
        from repro.engine.scheduler import ProcessPool, fork_available

        if not fork_available():
            pytest.skip("requires os.fork")
        base = self._run(1)
        with ProcessPool(workers=2) as pool:
            wide = self._run(2, pool=pool)
            assert pool.stats.dispatch_fallbacks == 0
            # one batch for the map phase, one for the reduce phase
            assert pool.stats.warm_hits == 2
        assert _table_fingerprint(wide) == _table_fingerprint(base)
        assert {r["k"]: r["s"] for r in wide.table("out").rows()} == {
            key: sum(range(i, 60, 3)) for i, key in enumerate("abc")
        }


def _sorted_rows(table):
    return sorted(map(repr, table.to_records()))


class TestDistributedMatchesLocal:
    """Cross-engine agreement, mirroring the fault-tolerance suite's
    contract: every output matches local up to row order, except where
    top-N tie-breaking is partitioning-sensitive — and those outputs
    must still agree between parallelism settings and keep the local
    cardinality."""

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_ipl_outputs_match_local(self, parallelism):
        dashboard = _ipl_dashboard()
        local = LocalExecutor(dashboard._resolve_source).run(
            dashboard.compiled.plan, dashboard._task_context()
        )
        dist, _clock, _inj, _spans = _run(dashboard, None, parallelism)
        assert set(dist.tables) == set(local.tables)
        diverging = []
        for name, table in local.tables.items():
            if _sorted_rows(dist.tables[name]) != _sorted_rows(table):
                diverging.append(name)
                assert (
                    dist.tables[name].num_rows == table.num_rows
                ), name
        # Only the top-N outputs may diverge (tie-breaking depends on
        # partition boundaries); the catalog-published shared outputs
        # must agree exactly.
        for name in ("players_tweets", "player_tweets", "team_tweets",
                     "team_region_tweets"):
            assert name not in diverging
        assert set(diverging) <= {"tagcloud_tweets", "latlong_tweets"}

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_apache_outputs_match_local(self, parallelism):
        dashboard = _apache_dashboard()
        local = LocalExecutor(dashboard._resolve_source).run(
            dashboard.compiled.plan, dashboard._task_context()
        )
        dist, _clock, _inj, _spans = _run(dashboard, None, parallelism)
        assert set(dist.tables) == set(local.tables)
        for name, table in local.tables.items():
            assert _sorted_rows(dist.tables[name]) == _sorted_rows(
                table
            ), name
