"""Unit tests for the deterministic parallel scheduling primitives."""

import json
import logging
import os
import pickle
import threading

import pytest

from repro.data import Schema, Table
from repro.engine.scheduler import (
    EXECUTORS,
    ProcessPool,
    ProcessTransportError,
    UnitOutcome,
    WorkerPool,
    resolve_executor,
)
from repro.errors import WorkerLostError
from repro.tasks.base import TaskContext


class TestWorkerPool:
    def test_outcomes_preserve_submission_order(self):
        pool = WorkerPool(workers=4)
        barrier = threading.Barrier(2)

        def slow_first():
            barrier.wait(timeout=5)
            return "first"

        def other():
            barrier.wait(timeout=5)
            return "other"

        thunks = [slow_first, other, lambda: "third"]
        values = [o.value for o in pool.map_ordered(thunks)]
        assert values == ["first", "other", "third"]

    def test_errors_are_captured_not_raised(self):
        pool = WorkerPool(workers=2)

        def boom():
            raise ValueError("unit failed")

        outcomes = list(pool.map_ordered([lambda: 1, boom, lambda: 3]))
        assert [o.failed for o in outcomes] == [False, True, False]
        assert outcomes[0].value == 1
        assert isinstance(outcomes[1].error, ValueError)
        assert outcomes[2].value == 3

    def test_sequential_pool_is_lazy(self):
        # At workers=1 a consumer that stops after unit i must leave
        # unit i+1 un-executed — byte-identical to the historical
        # sequential loop's failure behaviour.
        ran = []

        def unit(i):
            def thunk():
                ran.append(i)
                return i

            return thunk

        pool = WorkerPool(workers=1)
        iterator = pool.map_ordered([unit(0), unit(1), unit(2)])
        assert next(iterator).value == 0
        assert ran == [0]
        assert next(iterator).value == 1
        assert ran == [0, 1]

    def test_workers_floor_is_one(self):
        assert WorkerPool(workers=0).workers == 1
        assert WorkerPool(workers=-3).workers == 1
        assert WorkerPool(workers=4).workers == 4

    def test_parallel_pool_runs_concurrently(self):
        # Two units that each wait for the other can only finish when
        # they genuinely overlap in time.
        pool = WorkerPool(workers=2)
        gate = threading.Barrier(2)

        def meet():
            gate.wait(timeout=5)
            return "met"

        values = [o.value for o in pool.map_ordered([meet, meet])]
        assert values == ["met", "met"]

    def test_outcome_repr(self):
        assert "value=3" in repr(UnitOutcome(value=3))
        assert "error=" in repr(UnitOutcome(error=RuntimeError("x")))

    def test_executor_vocabulary(self):
        assert EXECUTORS == ("threads", "processes")
        assert resolve_executor("Threads") == "threads"
        with pytest.raises(ValueError, match="unknown executor"):
            WorkerPool(2, executor="fibers")


# Pool dispatch pickles the thunks, so the test units live at module
# level (a lambda would make its batch run inline on the coordinator).
class _Square:
    def __init__(self, i):
        self.i = i

    def __call__(self):
        return self.i * self.i


class _SquareTable:
    """A one-row ``Table`` result: it ships as a page-codec blob."""

    def __init__(self, i):
        self.i = i

    def __call__(self):
        return Table.from_columns(Schema.of("sq"), {"sq": [self.i * self.i]})


class _Boom:
    def __call__(self):
        raise ValueError("unit failed")


class _Exit:
    def __call__(self):
        os._exit(3)


class _LockMaker:
    """Runs fine, but its *result* refuses to pickle."""

    def __call__(self):
        return threading.Lock()


class _Pid:
    def __call__(self):
        return os.getpid()


class _Big:
    def __init__(self, offset):
        self.offset = offset

    def __call__(self):
        return {"col": list(range(self.offset, self.offset + 200_000))}


class TestProcessPool:
    """``executor='processes'`` with no pool lent: a pool per batch."""

    def test_results_in_submission_order(self):
        pool = WorkerPool(workers=4, executor="processes")
        thunks = [_Square(i) for i in range(10)]
        assert [o.value for o in pool.map_ordered(thunks)] == [
            i * i for i in range(10)
        ]

    def test_closures_need_no_pickling(self):
        # Closures still run under the process executor without being
        # pickled: these capture an unpicklable lock, so the batch is
        # not dispatched and runs inline on the coordinator instead.
        lock = threading.Lock()
        pool = WorkerPool(workers=2, executor="processes")
        outcomes = list(
            pool.map_ordered([lambda: bool(lock), lambda: os.getpid()])
        )
        assert outcomes[0].value is True
        assert outcomes[1].value == os.getpid()

    def test_errors_are_captured_and_pickled_back(self):
        pool = WorkerPool(workers=2, executor="processes")
        outcomes = list(
            pool.map_ordered([_Square(1), _Boom(), _Square(3)])
        )
        assert [o.failed for o in outcomes] == [False, True, False]
        assert isinstance(outcomes[1].error, ValueError)
        assert "unit failed" in str(outcomes[1].error)

    def test_unpicklable_result_degrades_to_transport_error(self):
        pool = WorkerPool(workers=2, executor="processes")
        outcomes = list(pool.map_ordered([_LockMaker(), _Square(2)]))
        assert isinstance(outcomes[0].error, ProcessTransportError)
        assert outcomes[1].value == 4

    def test_dead_worker_surfaces_as_worker_lost(self):
        # A worker that exits without reporting must not hang the
        # coordinator; its units come back as WorkerLostError so the
        # engine's lineage recovery can recompute them inline.
        pool = WorkerPool(workers=2, executor="processes")
        thunks = [_Exit(), _Square(1), _Square(2), _Square(3)]
        outcomes = list(pool.map_ordered(thunks))
        # Worker 0 owned the strided units 0 and 2 and died on 0, so
        # both are lost; worker 1's units 1 and 3 still come back.
        assert isinstance(outcomes[0].error, WorkerLostError)
        assert isinstance(outcomes[2].error, WorkerLostError)
        assert outcomes[1].value == 1
        assert outcomes[3].value == 9

    def test_no_orphan_workers_after_map(self):
        pool = WorkerPool(workers=4, executor="processes")
        pids = {o.value for o in pool.map_ordered([_Pid()] * 8)}
        assert os.getpid() not in pids  # really ran in workers
        # The batch's private pool has been closed and every forked
        # child reaped: waitpid finds no zombies.
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_single_worker_stays_lazy_and_forkless(self):
        ran = []

        def unit(i):
            def thunk():
                ran.append(i)  # visible ⇒ ran in this process
                return i

            return thunk

        pool = WorkerPool(workers=1, executor="processes")
        iterator = pool.map_ordered([unit(0), unit(1)])
        assert next(iterator).value == 0
        assert ran == [0]

    def test_large_columnar_results_round_trip(self):
        # Multi-megabyte results cross the result pipe intact.
        pool = WorkerPool(workers=2, executor="processes")
        outcomes = list(pool.map_ordered([_Big(0), _Big(7)]))
        assert outcomes[0].value["col"][:3] == [0, 1, 2]
        assert outcomes[1].value["col"][-1] == 7 + 200_000 - 1


class TestWarmProcessPool:
    """A lent pool: workers forked once, then one dispatch per batch."""

    def test_vocabulary(self):
        # One process mechanism: "auto" is the only pool mode left,
        # kept for callers that still pass it.
        from repro import Platform

        with pytest.raises(ValueError, match="unknown pool mode"):
            Platform().run_dashboard("any", pool="per-stage")

    # Every result rides a pipe frame: plain values as pickled entries,
    # tables as binary page-codec entries inside the frame.
    @pytest.mark.parametrize(
        "unit, read",
        [(_Square, lambda v: v), (_SquareTable, lambda t: t.column("sq")[0])],
        ids=["frame", "page"],
    )
    def test_batch_results_in_unit_order(self, unit, read):
        with ProcessPool(workers=3) as pool:
            outcomes = pool.run_batch([unit(i) for i in range(10)])
            assert [read(o.value) for o in outcomes] == [
                i * i for i in range(10)
            ]

    def test_workers_stay_warm_across_batches(self):
        with ProcessPool(workers=2) as pool:
            first = {o.value for o in pool.run_batch([_Pid(), _Pid()])}
            second = {o.value for o in pool.run_batch([_Pid(), _Pid()])}
            assert first == second  # same processes, no refork
            assert pool.stats.forks == 2
            assert pool.stats.warm_hits == 2

    def test_errors_come_back_pickled(self):
        with ProcessPool(workers=2) as pool:
            outcomes = pool.run_batch([_Square(1), _Boom(), _Square(3)])
            assert [o.failed for o in outcomes] == [False, True, False]
            assert isinstance(outcomes[1].error, ValueError)
            assert "unit failed" in str(outcomes[1].error)

    def test_unpicklable_result_degrades_to_transport_error(self):
        with ProcessPool(workers=2) as pool:
            outcomes = pool.run_batch([_LockMaker(), _Square(2)])
            assert isinstance(outcomes[0].error, ProcessTransportError)
            assert outcomes[1].value == 4

    def test_unpicklable_thunk_falls_back_inline(self, caplog):
        lock = threading.Lock()
        with ProcessPool(workers=2) as pool:
            workers = WorkerPool(2, executor="processes", pool=pool)
            with caplog.at_level(logging.WARNING, logger="repro.pool"):
                outcomes = list(
                    workers.map_ordered([_Pid(), lambda: bool(lock)])
                )
            # Same outcomes, computed on the coordinator.
            assert [o.value for o in outcomes] == [os.getpid(), True]
            assert pool.stats.dispatch_fallbacks == 1
            assert pool.alive() == 0  # refused before any fork
            # One structured line names the unit that refused to pickle.
            (record,) = caplog.records
            line = json.loads(record.getMessage())
            assert line["event"] == "pool.dispatch_fallback"
            assert line["unit_type"] == "function"
            assert (line["unit"], line["units"]) == (1, 2)

    def test_dead_worker_units_lost_then_respawned(self):
        with ProcessPool(workers=2) as pool:
            thunks = [_Exit(), _Square(1), _Square(2), _Square(3)]
            outcomes = pool.run_batch(thunks)
            # Worker 0 owned strided units 0 and 2 and died on 0.
            assert isinstance(outcomes[0].error, WorkerLostError)
            assert isinstance(outcomes[2].error, WorkerLostError)
            assert outcomes[1].value == 1
            assert outcomes[3].value == 9
            assert pool.stats.respawns == 1
            assert pool.alive() == 2  # respawned before returning
            # The fresh worker serves the next batch normally.
            again = pool.run_batch([_Square(i) for i in range(4)])
            assert [o.value for o in again] == [0, 1, 4, 9]

    def test_recycle_on_max_tasks(self):
        with ProcessPool(workers=1, max_tasks_per_worker=2) as pool:
            first = pool.run_batch([_Pid(), _Pid()])[0].value
            assert pool.stats.recycled == 1
            second = pool.run_batch([_Pid(), _Pid()])[0].value
            assert first != second  # retired + replaced
            assert pool.stats.recycled == 2
            assert pool.stats.forks == 3

    def test_max_workers_caps_stride_not_results(self):
        with ProcessPool(workers=4) as pool:
            outcomes = pool.run_batch(
                [_Square(i) for i in range(8)], max_workers=2
            )
            assert [o.value for o in outcomes] == [
                i * i for i in range(8)
            ]
            assert pool.alive() == 2  # only 2 slots ever forked

    def test_close_reaps_workers(self):
        pool = ProcessPool(workers=3)
        pool.prefork()
        list(pool.run_batch([_Square(i) for i in range(6)]))
        pool.close()
        assert pool.alive() == 0
        # Every forked child has been reaped: no zombies left behind.
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        # A closed pool refuses batches instead of hanging.
        assert pool.run_batch([_Square(1)]) is None

    def test_pool_metrics_family(self):
        from repro.observability import MetricsRegistry
        from repro.observability.instruments import (
            POOL_FORKS,
            POOL_WARM_HITS,
        )

        metrics = MetricsRegistry()
        with ProcessPool(workers=2, metrics=metrics) as pool:
            pool.run_batch([_Square(i) for i in range(4)])
        assert metrics.counter(POOL_FORKS).total() == 2
        assert metrics.counter(POOL_WARM_HITS).total() == 1

    def test_dispatch_span_is_opt_in(self):
        from repro.observability import Tracer

        # Default: no tracer, so canonical replay's span tree is
        # untouched by pool internals.
        with ProcessPool(workers=2) as silent:
            assert silent.tracer is None
            silent.run_batch([_Square(1), _Square(2)])
        tracer = Tracer()
        with ProcessPool(workers=2, tracer=tracer) as pool:
            pool.run_batch([_Square(i) for i in range(4)])
        spans = tracer.trace(tracer.last_trace_id or "")
        dispatch = [s for s in spans if s.name == "pool.dispatch"]
        assert len(dispatch) == 1
        assert dispatch[0].attrs["units"] == 4
        assert dispatch[0].attrs["workers"] == 2

    def test_stats_as_dict_round_trips(self):
        with ProcessPool(workers=2) as pool:
            pool.run_batch([_Square(i) for i in range(4)])
            stats = pool.stats.as_dict()
        assert stats["forks"] == 2
        assert stats["warm_hits"] == 1
        assert set(stats) == {
            "forks",
            "recycled",
            "respawns",
            "warm_hits",
            "dispatch_fallbacks",
        }


class _MemoProbe:
    """Reports how many entries its run's value cache held on entry,
    then adds one."""

    def __init__(self, context):
        self.context = context

    def __call__(self):
        cache = self.context.value_cache("probe")
        seen = len(cache)
        cache[seen] = os.getpid()
        return seen


class TestRunScopedWorkerContext:
    """A context crossing into a pool worker is revived once per run."""

    def test_value_cache_persists_across_a_runs_units(self):
        context = TaskContext()
        with ProcessPool(workers=2) as pool:
            first = [o.value for o in pool.run_batch(
                [_MemoProbe(context) for _ in range(4)]
            )]
            second = [o.value for o in pool.run_batch(
                [_MemoProbe(context) for _ in range(4)]
            )]
        # Units stride over two workers; each worker's memo grows
        # across units and batches of the same run.
        assert first == [0, 0, 1, 1]
        assert second == [2, 2, 3, 3]

    def test_new_run_starts_with_empty_caches(self):
        first, second = TaskContext(), TaskContext()
        with ProcessPool(workers=2) as pool:
            pool.run_batch([_MemoProbe(first) for _ in range(4)])
            fresh = [o.value for o in pool.run_batch(
                [_MemoProbe(second) for _ in range(4)]
            )]
        assert fresh == [0, 0, 1, 1]

    def test_caches_and_counters_do_not_travel(self):
        context = TaskContext(dictionaries={"d": {"a": "A"}})
        context.value_cache("k")["v"] = 1
        context.bump("rows", 5)
        copy = pickle.loads(pickle.dumps(context))
        # Outside a pool worker an unpickled context is independent,
        # with empty run-local state and the same configuration.
        assert copy is not context
        assert copy.value_cache("k") == {}
        assert copy.counters == {}
        assert copy.dictionary("d") == {"a": "A"}
        copy.bump("rows")
        assert context.counters == {"rows": 5}
