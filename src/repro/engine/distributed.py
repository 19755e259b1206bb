"""Simulated distributed (map-reduce) executor.

Stands in for the paper's Hadoop/Pig/Spark backend.  Data objects are
hash/round-robin partitioned; partition-local tasks run map-side;
key-based tasks (groupby, join, topn, distinct, native MR) go through a
real shuffle — rows are hash-partitioned by key so each reducer owns its
keys — and the engine records per-stage telemetry (records and bytes
shuffled, stage counts).  Algebraic group-bys optionally run a combiner
(map-side partial aggregation), the classic MR optimization, which the
ablation benchmarks measure.

Fault tolerance mirrors what real MR engines provide, built on
:mod:`repro.resilience`:

- every partition task runs under a :class:`~repro.resilience.RetryPolicy`
  with per-partition attempt tracking and deterministic backoff;
- a lost worker triggers **lineage recovery**: only the lost partition
  is recomputed from its upstream inputs, not the whole stage;
- straggler partitions trigger **speculative execution** — a duplicate
  attempt is launched and the first finisher wins;
- materialized flow outputs are **checkpointed** to an optional
  :class:`~repro.resilience.CheckpointStore`, so a resumed run skips
  completed stages;
- a seeded :class:`~repro.resilience.FaultInjector` can target work by
  stage kind, task, partition and attempt to exercise all of the above.

Results are identical to the local executor up to row order — including
under any injected fault plan that stays within the retry budget.
"""

from __future__ import annotations

import datetime
import math
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.data import DictColumn, Table
from repro.engine.plan import LogicalPlan, PlanNode, PreludeGroupByTask
from repro.engine.scheduler import ProcessPool, WorkerPool
from repro.errors import (
    ExecutionError,
    ShareInsightsError,
    TaskExecutionError,
    TransientTaskError,
    WorkerLostError,
    is_retryable,
)
from repro.observability import (
    MetricsRegistry,
    Tracer,
    record_run,
    record_stage,
)
from repro.resilience import (
    FATAL,
    LOST,
    SLOW,
    TRANSIENT,
    CheckpointStore,
    Clock,
    FaultInjector,
    RetryPolicy,
    SimulatedClock,
    check_deadline,
)
from repro.tasks.base import Task, TaskContext
from repro.tasks.groupby import GroupByTask, _explode
from repro.tasks.join import JoinTask
from repro.tasks.misc import DistinctTask, LimitTask, SortTask, UnionTask
from repro.tasks.topn import TopNTask
from repro.tasks.udf import NativeMapReduceTask

DataResolver = Callable[[str], Table]

#: aggregates with an algebraic combiner rewrite
_COMBINABLE = {"sum", "min", "max", "count"}


@dataclass
class StageStats:
    """Telemetry for one executed stage."""

    task: str
    kind: str  # map | shuffle | gather | load | checkpoint
    input_rows: int
    output_rows: int
    shuffled_records: int = 0
    shuffled_bytes: int = 0
    #: wall time of the whole stage (its tracing span's duration)
    seconds: float = 0.0
    #: partition attempts, including retries and speculative duplicates
    attempts: int = 0
    #: partitions that needed more than one attempt
    retried_partitions: int = 0
    #: stragglers beaten by their speculative duplicate
    speculative_wins: int = 0
    #: partitions recomputed from lineage after a worker loss
    recovered_partitions: int = 0

    @property
    def needed_recovery(self) -> bool:
        return bool(
            self.kind == "checkpoint"
            or self.retried_partitions
            or self.recovered_partitions
            or self.speculative_wins
        )


@dataclass
class _StageRun:
    """Mutable per-stage resilience counters, folded into StageStats."""

    attempts: int = 0
    retried_partitions: int = 0
    speculative_wins: int = 0
    recovered_partitions: int = 0


@dataclass
class _AttemptEvent:
    """One partition attempt, as resolved against the fault injector."""

    number: int  # 1-based, matches the span's ``attempt`` attribute
    error: str | None = None  # exception type name; None = success


@dataclass
class _UnitScript:
    """The pre-resolved fate of one partition's work.

    The coordinator walks the retry loop against the fault injector
    *before* any compute runs — in canonical partition order, consuming
    PRNG draws, rule budgets and backoff sleeps exactly as sequential
    execution would — so workers are left with pure compute only.
    ``events`` replays as attempt spans; the trailing state fields seed
    a live continuation if the compute itself fails.
    """

    index: int
    compute: Callable[[], Any]
    events: list[_AttemptEvent] = field(default_factory=list)
    # state at the moment compute runs (for resuming the retry loop on
    # an intrinsic compute failure)
    attempt: int = 0
    failures: int = 0
    recovered: bool = False
    retried: bool = False
    #: (wrapped error, cause) when injected faults alone doom the unit
    terminal: tuple[ExecutionError, BaseException] | None = None


@dataclass
class DistributedResult:
    """Materialized outputs plus per-stage statistics."""

    tables: dict[str, Table]
    stages: list[StageStats] = field(default_factory=list)
    seconds: float = 0.0
    #: rows in flow outputs (task-materialized tables only)
    rows_produced: int = 0
    #: stage labels that needed the resilience layer to complete
    #: (retry, lineage recovery, speculation, or checkpoint restore)
    recovered_stages: list[str] = field(default_factory=list)

    def table(self, name: str) -> Table:
        table = self.tables.get(name)
        if table is None:
            raise ExecutionError(
                f"no materialized data object {name!r}; "
                f"have {sorted(self.tables)}"
            )
        return table

    @property
    def total_shuffled_records(self) -> int:
        return sum(s.shuffled_records for s in self.stages)

    @property
    def total_shuffled_bytes(self) -> int:
        return sum(s.shuffled_bytes for s in self.stages)

    @property
    def num_shuffle_stages(self) -> int:
        return sum(1 for s in self.stages if s.kind == "shuffle")

    @property
    def attempts(self) -> int:
        return sum(s.attempts for s in self.stages)

    @property
    def retried_partitions(self) -> int:
        return sum(s.retried_partitions for s in self.stages)

    @property
    def speculative_wins(self) -> int:
        return sum(s.speculative_wins for s in self.stages)

    @property
    def recovered_partitions(self) -> int:
        return sum(s.recovered_partitions for s in self.stages)


def _partition(table: Table, parts: int) -> list[Table]:
    """Round-robin split (models block placement of an input file)."""
    if parts <= 1 or table.num_rows == 0:
        return [table]
    buckets: list[list[int]] = [[] for _ in range(parts)]
    for i in range(table.num_rows):
        buckets[i % parts].append(i)
    return [table.take(bucket) for bucket in buckets]


def _hash_shuffle(
    partitions: Sequence[Table],
    keys: Sequence[str],
    parts: int,
    spill_bytes: int = 0,
    metrics=None,
) -> tuple[list[Table], int, int]:
    """Repartition by key hash; returns (partitions, records, bytes).

    Column-wise single pass: key columns are read directly (no row
    dicts), rows are routed to buckets as per-partition index lists, and
    each output partition is assembled by index-``take`` plus one
    multi-way concat.  Output row order — (input partition, row) — and
    the records/bytes telemetry are identical to the historical
    row-at-a-time implementation.

    ``spill_bytes > 0`` bounds each bucket's in-memory buffer: pages
    past the limit overflow to temp files
    (:class:`~repro.engine.spill.SpillBucket`) and are re-read in
    append order during assembly, so the outputs are byte-identical to
    an in-memory run while peak memory stays ~``parts * spill_bytes``
    plus one output partition.

    ``metrics`` (optional) is handed to the spill manager so flushed
    pages record ``repro_page_codec_bytes_total`` by codec.
    """
    from repro.engine.spill import SpillManager

    schema = partitions[0].schema
    records = 0
    total_bytes = 0
    with SpillManager(spill_bytes, metrics=metrics) as spill:
        buckets = [spill.bucket() for _ in range(parts)]
        for partition in partitions:
            total_bytes += partition.estimated_bytes()
            rows = partition.num_rows
            records += rows
            if not rows:
                continue
            index_lists: list[list[int]] = [[] for _ in range(parts)]
            encoded = (
                partition.encoded_column(keys[0])
                if len(keys) == 1
                else None
            )
            if type(encoded) is DictColumn:
                # Dictionary-encoded key: hash each distinct string
                # once, then route rows by code — identical
                # destinations to hashing every row (same
                # ``_stable_hash((value,))``), at cardinality cost.
                dests = [
                    _stable_hash((value,)) % parts
                    for value in encoded.values
                ]
                dests.append(_stable_hash((None,)) % parts)
                for i, code in enumerate(encoded.codes):
                    index_lists[dests[code]].append(i)
            elif len(keys) == 1:
                column = partition.column(keys[0])
                for i in range(rows):
                    key = (_hashable(column[i]),)
                    index_lists[_stable_hash(key) % parts].append(i)
            else:
                key_columns = [partition.column(k) for k in keys]
                for i, raw in enumerate(zip(*key_columns)):
                    key = tuple(_hashable(v) for v in raw)
                    index_lists[_stable_hash(key) % parts].append(i)
            for bucket, indices in enumerate(index_lists):
                if indices:
                    buckets[bucket].append(partition.take(indices))
        outputs = []
        for bucket in buckets:
            piece = list(bucket.pages())
            if len(piece) == 1:
                # The take() above already produced a fresh table we own.
                outputs.append(piece[0])
            else:
                outputs.append(Table.concat_all(piece, schema=schema))
    return outputs, records, total_bytes


def _hashable(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(value)
    if isinstance(value, dict):
        return tuple(sorted(value.items()))
    return value


#: crc32 results by type-tagged key — repr() on the hot path is pure
#: re-derivation for repeated keys (group-by columns are low-cardinality
#: by nature), so remember them.  Bounded; on overflow new keys simply
#: pay the repr() again.
_HASH_MEMO: dict[Any, int] = {}
_HASH_MEMO_LIMIT = 100_000


def _memo_key(value: Any) -> Any:
    """A memo key that never aliases values with different ``repr``.

    ``1``, ``True`` and ``1.0`` are equal as dict keys but repr (and so
    hash) differently; tagging non-string scalars with their class keeps
    them distinct.  Tuples (from list/dict keys via ``_hashable``) are
    tagged recursively for the same reason.  Only classes where
    equality provably implies identical ``repr`` are memoized at all —
    floats need the zero sign carried explicitly (``-0.0 == 0.0`` but
    their reprs differ), and anything exotic (``Decimal('1.0')`` equals
    ``Decimal('1.00')`` with a different repr) raises ``TypeError`` so
    the caller hashes it directly.
    """
    cls = value.__class__
    if cls is str:
        return value
    if cls is tuple:
        return (tuple, tuple(_memo_key(v) for v in value))
    if cls is float:
        if value == 0.0:
            return (float, value, math.copysign(1.0, value))
        return (float, value)
    if cls in (int, bool, datetime.date) or value is None:
        return (cls, value)
    raise TypeError(f"unmemoizable shuffle key type {cls.__name__}")


def _stable_hash(key: Any) -> int:
    """Process-independent shuffle hash.

    Built-in ``hash()`` is randomized per process for strings
    (PYTHONHASHSEED), which would make partition-targeted fault plans
    and their telemetry unreproducible across runs.  Values are exactly
    ``crc32(repr(key))`` — unchanged across releases, so recorded
    telemetry and partition-targeted fault plans stay valid — with a
    memo in front for repeated keys.
    """
    try:
        tag = _memo_key(key)
        cached = _HASH_MEMO.get(tag)
    except TypeError:
        return zlib.crc32(repr(key).encode("utf-8", "surrogatepass"))
    if cached is None:
        cached = zlib.crc32(repr(key).encode("utf-8", "surrogatepass"))
        if len(_HASH_MEMO) < _HASH_MEMO_LIMIT:
            _HASH_MEMO[tag] = cached
    return cached


class _TaskUnit:
    """One partition's pure compute, as a picklable callable.

    Behaviourally identical to ``lambda: task.apply(inputs, context)``,
    but a module-level class lets the process pool pickle the unit into
    an already-forked worker.  A task or input that refuses to pickle
    simply runs the whole batch inline on the coordinator.
    """

    __slots__ = ("task", "inputs", "context")

    def __init__(
        self, task: Task, inputs: Sequence[Table], context: TaskContext
    ):
        self.task = task
        self.inputs = inputs
        self.context = context

    def __call__(self) -> Any:
        return self.task.apply(list(self.inputs), self.context)


class _ConcatUnit:
    """Sort-stage unit: concat range-bucket pieces, then apply."""

    __slots__ = ("task", "pieces", "schema", "context")

    def __init__(
        self,
        task: Task,
        pieces: Sequence[Table],
        schema: Any,
        context: TaskContext,
    ):
        self.task = task
        self.pieces = pieces
        self.schema = schema
        self.context = context

    def __call__(self) -> Any:
        merged = Table.concat_all(list(self.pieces), schema=self.schema)
        return self.task.apply([merged], self.context)


class _NativeMapUnit:
    """``native_mr`` map unit: the user's mapper over one partition.

    Returns ``(bucket, key, value)`` triples routed by stable hash.
    Picklable whenever the task's mapper is (a module-level function);
    a closure mapper makes the batch run inline on the coordinator.
    """

    __slots__ = ("task", "partition", "parts")

    def __init__(
        self, task: NativeMapReduceTask, partition: Table, parts: int
    ):
        self.task = task
        self.partition = partition
        self.parts = parts

    def __call__(self) -> list[tuple[int, Any, Any]]:
        emitted = []
        for row in self.partition.rows():
            for key, value in self.task._mapper(row):
                emitted.append(
                    (_stable_hash(_hashable(key)) % self.parts, key, value)
                )
        return emitted


class _NativeReduceUnit:
    """``native_mr`` reduce unit: group one bucket, run the reducer."""

    __slots__ = ("task", "bucket", "schema")

    def __init__(
        self,
        task: NativeMapReduceTask,
        bucket: list[tuple[Any, Any]],
        schema: Any,
    ):
        self.task = task
        self.bucket = bucket
        self.schema = schema

    def __call__(self) -> Table:
        grouped: dict[Any, list[Any]] = {}
        key_order: list[tuple[Any, Any]] = []
        for key, value in self.bucket:
            hkey = _hashable(key)
            if hkey not in grouped:
                grouped[hkey] = []
                key_order.append((hkey, key))
            grouped[hkey].append(value)
        out = Table.empty(self.schema)
        for hkey, key in key_order:
            for row in self.task._reducer(key, grouped[hkey]):
                out.append_row(row)
        return out


def _gather(partitions: Sequence[Table]) -> Table:
    if len(partitions) == 1:
        return partitions[0]
    return Table.concat_all(partitions)


class DistributedExecutor:
    """Runs logical plans over partitioned data with simulated shuffles.

    ``retry_policy`` bounds per-partition attempts; ``fault_injector``
    (usually built via :meth:`FaultInjector.from_profile`) injects
    deterministic faults; ``checkpoints`` enables stage-skip on resumed
    runs; ``speculative=False`` disables straggler duplicates (slowed
    attempts then pay their latency on the simulated clock).
    ``parallelism`` bounds how many partition attempts run concurrently
    within a stage; ``executor`` picks the backend that runs them
    (``"threads"`` or ``"processes"`` — see
    :class:`~repro.engine.scheduler.WorkerPool` and
    ``docs/parallelism.md``); outputs, stage stats and span trees are
    identical at every setting of both (see :meth:`_run_units`).
    ``spill_bytes > 0`` bounds each shuffle bucket's in-memory buffer,
    overflowing to temp-file pages (``docs/parallelism.md`` §spill).
    """

    def __init__(
        self,
        resolver: DataResolver,
        num_partitions: int = 4,
        use_combiner: bool = True,
        retry_policy: RetryPolicy | None = None,
        fault_injector: FaultInjector | None = None,
        checkpoints: CheckpointStore | None = None,
        speculative: bool = True,
        straggler_delay: float = 1.0,
        clock: Clock | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        parallelism: int = 1,
        executor: str = "threads",
        spill_bytes: int = 0,
        pool: ProcessPool | None = None,
    ):
        self._resolver = resolver
        self._parts = max(1, num_partitions)
        self._use_combiner = use_combiner
        self._retry = retry_policy or RetryPolicy()
        self._faults = fault_injector
        self._checkpoints = checkpoints
        self._speculative = speculative
        self._straggler_delay = straggler_delay
        self._clock = clock or SimulatedClock()
        self._tracer = tracer or Tracer()
        self._metrics = metrics or MetricsRegistry()
        self._pool = WorkerPool(parallelism, executor=executor, pool=pool)
        self._spill_bytes = max(0, int(spill_bytes))

    @property
    def parallelism(self) -> int:
        return self._pool.workers

    @property
    def executor(self) -> str:
        return self._pool.executor

    def _shuffle(
        self, partitions: Sequence[Table], keys: Sequence[str], parts: int
    ) -> tuple[list[Table], int, int]:
        """Hash-shuffle with this executor's spill budget applied.

        Resolves the module-global ``_hash_shuffle`` at call time (the
        ablation benchmarks monkeypatch it with the legacy row-at-a-time
        implementation) and passes ``spill_bytes``/``metrics`` only to
        the shipped implementation, so 3-argument replacements keep
        working.
        """
        shuffle = globals()["_hash_shuffle"]
        if self._spill_bytes:
            if shuffle is _hash_shuffle:
                return shuffle(
                    partitions,
                    keys,
                    parts,
                    spill_bytes=self._spill_bytes,
                    metrics=self._metrics,
                )
            return shuffle(
                partitions, keys, parts, spill_bytes=self._spill_bytes
            )
        return shuffle(partitions, keys, parts)

    def run(
        self, plan: LogicalPlan, context: TaskContext | None = None
    ) -> DistributedResult:
        context = context or TaskContext()
        started = time.perf_counter()
        partitioned: dict[str, list[Table]] = {}
        materialized: dict[str, Table] = {}
        stages: list[StageStats] = []
        recovered_stages: list[str] = []
        produced_rows = 0
        with self._tracer.span(
            "engine.run", engine="distributed", partitions=self._parts
        ) as root:
            for node in plan.topological_order():
                # Stage-boundary deadline poll (see resilience.deadline):
                # completed stages are already checkpointed, so a rerun
                # after the 504 resumes instead of starting over.
                check_deadline(f"stage {node.label()!r}")
                before = len(stages)
                with self._tracer.span(
                    "stage", task=node.label()
                ) as span:
                    produced_rows += self._run_node(
                        node,
                        partitioned,
                        materialized,
                        stages,
                        recovered_stages,
                        context,
                    )
                self._finish_stage_span(span, stages[before:])
            root.set(rows_produced=produced_rows)
        seconds = time.perf_counter() - started
        record_run(self._metrics, "distributed", seconds)
        return DistributedResult(
            tables=materialized,
            stages=stages,
            seconds=seconds,
            rows_produced=produced_rows,
            recovered_stages=recovered_stages,
        )

    def _run_node(
        self,
        node: PlanNode,
        partitioned: dict[str, list[Table]],
        materialized: dict[str, Table],
        stages: list[StageStats],
        recovered_stages: list[str],
        context: TaskContext,
    ) -> int:
        """Execute one plan node end to end; returns rows produced."""
        name = node.materializes
        if (
            node.kind == "task"
            and name
            and self._checkpoints is not None
            and name in self._checkpoints
        ):
            # Resume path: this flow output survived a previous
            # (partial) run; restore it instead of recomputing.
            table = self._checkpoints.get(name)
            partitioned[node.id] = _partition(table, self._parts)
            materialized[name] = table
            stages.append(
                StageStats(
                    task=node.label(),
                    kind="checkpoint",
                    input_rows=0,
                    output_rows=table.num_rows,
                )
            )
            recovered_stages.append(node.label())
            return 0
        before = len(stages)
        outputs = self._execute_node(node, partitioned, context, stages)
        partitioned[node.id] = outputs
        for stage in stages[before:]:
            if stage.needed_recovery:
                recovered_stages.append(stage.task)
        produced = 0
        if name:
            gathered = _gather(outputs)
            materialized[name] = gathered
            if node.kind == "task":
                produced = gathered.num_rows
                if self._checkpoints is not None:
                    self._checkpoints.put(name, gathered)
        return produced

    def _finish_stage_span(self, span, new_stages: list[StageStats]) -> None:
        """Stamp wall time onto the node's stats and record metrics.

        Each plan node yields exactly one :class:`StageStats`; the whole
        node body (shuffle, partition attempts, gather, checkpoint put)
        ran inside ``span``, so its duration *is* the stage's wall time
        — which is what makes the ``run --profile`` table sum to the
        ``engine.run`` root span.
        """
        if not new_stages:
            return
        stage = new_stages[-1]
        stage.seconds = span.duration
        span.set(
            kind=stage.kind,
            rows_in=stage.input_rows,
            rows_out=stage.output_rows,
            shuffled_records=stage.shuffled_records,
            shuffled_bytes=stage.shuffled_bytes,
            attempts=stage.attempts,
        )
        for stats in new_stages:
            record_stage(
                self._metrics,
                "distributed",
                stats.kind,
                stats.seconds,
                stats.input_rows,
                stats.output_rows,
                shuffled_records=stats.shuffled_records,
                shuffled_bytes=stats.shuffled_bytes,
                attempts=stats.attempts,
                retried_partitions=stats.retried_partitions,
                speculative_wins=stats.speculative_wins,
                recovered_partitions=stats.recovered_partitions,
            )

    # ------------------------------------------------------------------
    # fault-tolerant partition execution
    # ------------------------------------------------------------------
    def _resolve_unit(
        self,
        stage_kind: str,
        task_name: str,
        index: int,
        compute: Callable[[], Any],
        run: _StageRun,
    ) -> _UnitScript:
        """Walk one unit's retry loop against the injector, sans compute.

        Injected faults fully determine the loop's control flow up to
        the attempt on which real compute finally runs (or the unit
        terminally fails), so the whole schedule — injector draws, rule
        budgets, backoff and straggler sleeps, attempt counters — can be
        resolved on the coordinator in canonical partition order before
        any work is dispatched.  That is what keeps parallel execution
        byte-identical to sequential under every fault profile.
        """
        script = _UnitScript(index=index, compute=compute)
        budget = max(1, self._retry.max_attempts)
        attempt = 0  # 0-based, matched against fault-rule targeting
        failures = 0  # retryable failures charged against the budget
        recovered = False
        retried = False
        while True:
            fault = None
            if self._faults is not None:
                fault = self._faults.check(
                    stage_kind=stage_kind,
                    task=task_name,
                    partition=index,
                    attempt=attempt,
                )
            attempt += 1
            run.attempts += 1
            if fault == FATAL:
                cause = TaskExecutionError(
                    f"injected fatal fault in task {task_name!r} "
                    f"partition {index}"
                )
                script.events.append(
                    _AttemptEvent(attempt, type(cause).__name__)
                )
                script.terminal = (
                    ExecutionError(
                        f"task {task_name!r} failed permanently on "
                        f"partition {index}: {cause}",
                        task=task_name,
                        partition=index,
                    ),
                    cause,
                )
                return script
            if fault == LOST:
                cause = WorkerLostError(
                    f"worker running task {task_name!r} "
                    f"partition {index} was lost"
                )
                script.events.append(
                    _AttemptEvent(attempt, type(cause).__name__)
                )
                if recovered:
                    script.terminal = (
                        ExecutionError(
                            f"task {task_name!r} partition {index}: "
                            f"worker lost again after lineage recovery",
                            task=task_name,
                            partition=index,
                        ),
                        cause,
                    )
                    return script
                # Lineage recovery: recompute only this partition from
                # its upstream inputs on a fresh worker.  Does not
                # consume the retry budget — the old worker is written
                # off, not retried.
                recovered = True
                retried = True
                run.recovered_partitions += 1
                continue
            if fault == TRANSIENT:
                cause = TransientTaskError(
                    f"injected transient fault in task "
                    f"{task_name!r} partition {index} "
                    f"(attempt {attempt})"
                )
                script.events.append(
                    _AttemptEvent(attempt, type(cause).__name__)
                )
                failures += 1
                if failures >= budget:
                    script.terminal = (
                        ExecutionError(
                            f"task {task_name!r} partition {index} "
                            f"failed after {failures} attempt(s): "
                            f"{cause}",
                            task=task_name,
                            partition=index,
                        ),
                        cause,
                    )
                    return script
                retried = True
                self._clock.sleep(
                    self._retry.delay(failures, key=(task_name, index))
                )
                continue
            if fault == SLOW:
                if self._speculative:
                    # Straggler: a speculative duplicate is launched on
                    # a healthy worker; being unslowed, it finishes
                    # first and its result wins.
                    run.attempts += 1
                    run.speculative_wins += 1
                else:
                    self._clock.sleep(self._straggler_delay)
            script.events.append(_AttemptEvent(attempt))
            script.attempt = attempt
            script.failures = failures
            script.recovered = recovered
            script.retried = retried
            return script

    def _replay_attempts(
        self,
        stage_kind: str,
        task_name: str,
        index: int,
        events: Sequence[_AttemptEvent],
    ) -> None:
        """Emit attempt spans for pre-resolved events, in order.

        Span ids are assigned in creation order, so replaying in unit
        order under the still-open stage span reproduces the exact span
        tree sequential execution would have produced.
        """
        for event in events:
            span = self._tracer.start_span(
                "attempt",
                task=task_name,
                kind=stage_kind,
                partition=index,
                attempt=event.number,
            )
            if event.error is not None:
                span.attrs.setdefault("error", event.error)
            self._tracer.end_span(span)

    def _live_resume(
        self,
        stage_kind: str,
        task_name: str,
        index: int,
        compute: Callable[[], Any],
        run: _StageRun,
        exc: BaseException,
        attempt: int,
        failures: int,
        recovered: bool,
        retried: bool,
    ) -> Any:
        """Finish a unit whose *compute* raised, under the retry policy.

        Pre-resolution only predicts injected faults; a real failure
        inside ``compute`` re-enters the classic retry loop here, live
        against the injector.  (With rate-based fault rules this can
        consume PRNG draws in a different order than a pure sequential
        run — intrinsic failures are outside the determinism contract,
        which covers injected fault plans.)
        """
        budget = max(1, self._retry.max_attempts)
        while True:
            if isinstance(exc, WorkerLostError):
                if recovered:
                    raise ExecutionError(
                        f"task {task_name!r} partition {index}: "
                        f"worker lost again after lineage recovery",
                        task=task_name,
                        partition=index,
                    ) from exc
                recovered = True
                retried = True
                run.recovered_partitions += 1
            elif isinstance(exc, ShareInsightsError):
                if not is_retryable(exc):
                    raise ExecutionError(
                        f"task {task_name!r} failed permanently on "
                        f"partition {index}: {exc}",
                        task=task_name,
                        partition=index,
                    ) from exc
                failures += 1
                if failures >= budget:
                    raise ExecutionError(
                        f"task {task_name!r} partition {index} failed "
                        f"after {failures} attempt(s): {exc}",
                        task=task_name,
                        partition=index,
                    ) from exc
                retried = True
                self._clock.sleep(
                    self._retry.delay(failures, key=(task_name, index))
                )
            else:
                raise ExecutionError(
                    f"task {task_name!r} failed on the distributed "
                    f"engine (partition {index}): {exc}",
                    task=task_name,
                    partition=index,
                ) from exc
            fault = None
            if self._faults is not None:
                fault = self._faults.check(
                    stage_kind=stage_kind,
                    task=task_name,
                    partition=index,
                    attempt=attempt,
                )
            attempt += 1
            run.attempts += 1
            try:
                with self._tracer.span(
                    "attempt",
                    task=task_name,
                    kind=stage_kind,
                    partition=index,
                    attempt=attempt,
                ):
                    if fault == FATAL:
                        raise TaskExecutionError(
                            f"injected fatal fault in task {task_name!r} "
                            f"partition {index}"
                        )
                    if fault == LOST:
                        raise WorkerLostError(
                            f"worker running task {task_name!r} "
                            f"partition {index} was lost"
                        )
                    if fault == TRANSIENT:
                        raise TransientTaskError(
                            f"injected transient fault in task "
                            f"{task_name!r} partition {index} "
                            f"(attempt {attempt})"
                        )
                    if fault == SLOW:
                        if self._speculative:
                            run.attempts += 1
                            run.speculative_wins += 1
                            result = compute()
                        else:
                            self._clock.sleep(self._straggler_delay)
                            result = compute()
                    else:
                        result = compute()
                if retried:
                    run.retried_partitions += 1
                return result
            except ShareInsightsError as next_exc:
                exc = next_exc
            except Exception as next_exc:
                raise ExecutionError(
                    f"task {task_name!r} failed on the distributed "
                    f"engine (partition {index}): {next_exc}",
                    task=task_name,
                    partition=index,
                ) from next_exc

    def _run_units(
        self,
        stage_kind: str,
        task_name: str,
        units: Sequence[tuple[int, Callable[[], Any]]],
        run: _StageRun,
    ) -> list[Any]:
        """Run per-partition units under the retry policy, possibly
        concurrently, with results merged in unit order.

        Each ``compute`` must be pure: it recomputes the partition from
        its upstream inputs (captured in the closure), which is exactly
        the lineage-recovery contract — a retry or a recompute
        re-derives the same partition, never a corrupted half-state.

        Fault schedules are resolved up front in unit order (see
        :meth:`_resolve_unit`); workers then execute pure compute via
        the :class:`~repro.engine.scheduler.WorkerPool`, and attempt
        spans are replayed in unit order, so traces, telemetry and
        outputs do not depend on the ``parallelism`` setting.
        """
        scripts: list[_UnitScript] = []
        terminal: _UnitScript | None = None
        for index, compute in units:
            script = self._resolve_unit(
                stage_kind, task_name, index, compute, run
            )
            if script.terminal is not None:
                terminal = script
                break
            scripts.append(script)
        results: list[Any] = []
        outcomes = self._pool.map_ordered(
            [script.compute for script in scripts]
        )
        for script, outcome in zip(scripts, outcomes):
            self._replay_attempts(
                stage_kind, task_name, script.index, script.events[:-1]
            )
            final = script.events[-1]
            if outcome.error is None:
                self._replay_attempts(
                    stage_kind, task_name, script.index, [final]
                )
                if script.retried:
                    run.retried_partitions += 1
                results.append(outcome.value)
                continue
            self._replay_attempts(
                stage_kind,
                task_name,
                script.index,
                [_AttemptEvent(final.number, type(outcome.error).__name__)],
            )
            results.append(
                self._live_resume(
                    stage_kind,
                    task_name,
                    script.index,
                    script.compute,
                    run,
                    outcome.error,
                    attempt=final.number,
                    failures=script.failures,
                    recovered=script.recovered,
                    retried=script.retried,
                )
            )
        if terminal is not None:
            self._replay_attempts(
                stage_kind, task_name, terminal.index, terminal.events
            )
            error, cause = terminal.terminal
            raise error from cause
        return results

    def _apply_each(
        self,
        stage_kind: str,
        task: Task,
        partitions: Sequence[Table],
        context: TaskContext,
        run: _StageRun,
        skip_empty: bool = False,
    ) -> list[Table]:
        """Apply ``task`` to each partition under the retry policy."""
        units: list[tuple[int, Callable[[], Any]]] = [
            (i, _TaskUnit(task, (part,), context))
            for i, part in enumerate(partitions)
            if not (skip_empty and not part.num_rows)
        ]
        if not units:
            units = [(0, _TaskUnit(task, (partitions[0],), context))]
        return self._run_units(stage_kind, task.name, units, run)

    @staticmethod
    def _stats(
        task_name: str,
        kind: str,
        input_rows: int,
        outputs: Sequence[Table],
        run: _StageRun,
        shuffled_records: int = 0,
        shuffled_bytes: int = 0,
    ) -> StageStats:
        return StageStats(
            task=task_name,
            kind=kind,
            input_rows=input_rows,
            output_rows=sum(p.num_rows for p in outputs),
            shuffled_records=shuffled_records,
            shuffled_bytes=shuffled_bytes,
            attempts=run.attempts,
            retried_partitions=run.retried_partitions,
            speculative_wins=run.speculative_wins,
            recovered_partitions=run.recovered_partitions,
        )

    # ------------------------------------------------------------------
    def _execute_node(
        self,
        node: PlanNode,
        partitioned: dict[str, list[Table]],
        context: TaskContext,
        stages: list[StageStats],
    ) -> list[Table]:
        if node.kind == "load":
            assert node.load_name is not None
            run = _StageRun()
            label = f"load({node.load_name})"
            table = self._run_units(
                "load",
                label,
                [(0, lambda: self._resolver(node.load_name))],
                run,
            )[0]
            stages.append(
                self._stats(label, "load", 0, [table], run)
            )
            return _partition(table, self._parts)

        assert node.task is not None
        inputs = [partitioned[input_id] for input_id in node.inputs]
        context.input_names = list(node.input_names)  # type: ignore[attr-defined]
        task = node.task
        try:
            if task.partition_local():
                return self._map_side(task, inputs[0], context, stages)
            if isinstance(task, PreludeGroupByTask):
                return self._groupby(
                    task.groupby, inputs[0], context, stages, fused=task
                )
            if isinstance(task, GroupByTask):
                return self._groupby(task, inputs[0], context, stages)
            if isinstance(task, JoinTask):
                return self._join(task, inputs, context, stages)
            if isinstance(task, TopNTask):
                return self._topn(task, inputs[0], context, stages)
            if isinstance(task, DistinctTask):
                return self._distinct(task, inputs[0], context, stages)
            if isinstance(task, UnionTask):
                flattened = [p for group in inputs for p in group]
                return self._union(task, flattened, stages)
            if isinstance(task, NativeMapReduceTask):
                return self._native_mr(task, inputs[0], context, stages)
            if isinstance(task, SortTask):
                return self._sort(task, inputs[0], context, stages)
            if isinstance(task, LimitTask):
                return self._gathered(task, inputs[0], context, stages)
            # Unknown/custom tasks run gathered (single reducer).
            return self._gathered(task, inputs[0], context, stages)
        except ShareInsightsError:
            raise
        except Exception as exc:
            raise ExecutionError(
                f"task {task.name!r} failed on the distributed engine: "
                f"{exc}"
            ) from exc

    # -- strategies ------------------------------------------------------
    def _map_side(self, task, partitions, context, stages) -> list[Table]:
        run = _StageRun()
        outputs = self._apply_each("map", task, partitions, context, run)
        stages.append(
            self._stats(
                task.name,
                "map",
                sum(p.num_rows for p in partitions),
                outputs,
                run,
            )
        )
        return outputs

    def _groupby(
        self,
        task: GroupByTask,
        partitions,
        context,
        stages,
        fused: PreludeGroupByTask | None = None,
    ) -> list[Table]:
        """Group ``partitions`` by key, through a combiner when it can.

        ``fused`` carries a combiner prelude: with a combiner each
        partition runs prelude + partial aggregate as one unit, so the
        prelude's output never leaves the worker; without one the
        prelude runs first as its own map stage.
        """
        specs = task._aggregate_specs()
        combinable = (
            self._use_combiner
            and len(partitions) > 1
            and all(
                str(s["operator"]).lower() in _COMBINABLE for s in specs
            )
        )
        if fused is not None and not combinable:
            partitions = self._map_side(
                fused.prelude, partitions, context, stages
            )
            fused = None
        input_rows = sum(p.num_rows for p in partitions)
        run = _StageRun()
        if combinable:
            # Map-side combine: partial aggregates per partition, then a
            # shuffle of partials, then a merge aggregation where COUNT
            # partials are SUMmed.
            partials = self._apply_each(
                "map", fused or task, partitions, context, run
            )
            merge_specs = []
            for spec in specs:
                out_field = str(
                    spec.get("out_field")
                    or spec.get("apply_on")
                    or spec["operator"]
                )
                operator = str(spec["operator"]).lower()
                merge_specs.append(
                    {
                        "operator": "sum" if operator == "count" else operator,
                        "apply_on": out_field,
                        "out_field": out_field,
                    }
                )
            merge_task = GroupByTask(
                task.name + "_merge",
                {
                    "groupby": task.group_columns,
                    "aggregates": merge_specs,
                    "orderby_aggregates": task.config.get(
                        "orderby_aggregates", False
                    ),
                },
            )
            shuffled, records, size = self._shuffle(
                partials, task.group_columns, self._parts
            )
            outputs = self._apply_each(
                "shuffle", merge_task, shuffled, context, run,
                skip_empty=True,
            )
        else:
            # List-valued keys (extract_words) must explode before the
            # shuffle: routing by the whole list would split one
            # (date, word) group across reducers.
            shuffled, records, size = self._shuffle(
                [_explode(p, task.group_columns) for p in partitions],
                task.group_columns,
                self._parts,
            )
            outputs = self._apply_each(
                "shuffle", task, shuffled, context, run, skip_empty=True
            )
        stages.append(
            self._stats(
                (fused or task).name, "shuffle", input_rows, outputs, run,
                shuffled_records=records, shuffled_bytes=size,
            )
        )
        return outputs

    def _join(
        self, task: JoinTask, inputs, context, stages
    ) -> list[Table]:
        if len(inputs) != 2:
            raise ExecutionError(
                f"join task {task.name!r} needs 2 inputs, got {len(inputs)}"
            )
        # Respect the flow's declared input order (same logic as the
        # task's own _ordered, but at partition granularity).
        names = list(getattr(context, "input_names", []) or [])
        left_parts, right_parts = inputs[0], inputs[1]
        if (
            len(names) == 2
            and names[0].lower() == task.right_name.lower()
            and names[1].lower() == task.left_name.lower()
        ):
            left_parts, right_parts = right_parts, left_parts
            names = [names[1], names[0]]
        left_keys = task._left_keys
        right_keys = task._right_keys
        left_shuffled, l_records, l_bytes = self._shuffle(
            left_parts, left_keys, self._parts
        )
        right_shuffled, r_records, r_bytes = self._shuffle(
            right_parts, right_keys, self._parts
        )
        context.input_names = names or [task.left_name, task.right_name]  # type: ignore[attr-defined]
        run = _StageRun()
        outputs = self._run_units(
            "shuffle",
            task.name,
            [
                (i, _TaskUnit(task, (lp, rp), context))
                for i, (lp, rp) in enumerate(
                    zip(left_shuffled, right_shuffled)
                )
            ],
            run,
        )
        stages.append(
            self._stats(
                task.name, "shuffle", l_records + r_records, outputs, run,
                shuffled_records=l_records + r_records,
                shuffled_bytes=l_bytes + r_bytes,
            )
        )
        return outputs

    def _topn(
        self, task: TopNTask, partitions, context, stages
    ) -> list[Table]:
        input_rows = sum(p.num_rows for p in partitions)
        run = _StageRun()
        if task.group_columns:
            shuffled, records, size = self._shuffle(
                partitions, task.group_columns, self._parts
            )
            outputs = self._apply_each(
                "shuffle", task, shuffled, context, run, skip_empty=True
            )
        else:
            # Per-partition top-N as a combiner, then a single reducer.
            partials = self._apply_each(
                "map", task, partitions, context, run
            )
            gathered = _gather(partials)
            records = gathered.num_rows
            size = gathered.estimated_bytes()
            outputs = self._run_units(
                "shuffle",
                task.name,
                [(0, lambda: task.apply([gathered], context))],
                run,
            )
        stages.append(
            self._stats(
                task.name, "shuffle", input_rows, outputs, run,
                shuffled_records=records, shuffled_bytes=size,
            )
        )
        return outputs

    def _distinct(
        self, task: DistinctTask, partitions, context, stages
    ) -> list[Table]:
        input_rows = sum(p.num_rows for p in partitions)
        keys = task.columns or list(partitions[0].schema.names)
        run = _StageRun()
        # Map-side dedup first (combiner), then shuffle survivors.
        partials = self._apply_each("map", task, partitions, context, run)
        shuffled, records, size = self._shuffle(partials, keys, self._parts)
        outputs = self._apply_each(
            "shuffle", task, shuffled, context, run, skip_empty=True
        )
        stages.append(
            self._stats(
                task.name, "shuffle", input_rows, outputs, run,
                shuffled_records=records, shuffled_bytes=size,
            )
        )
        return outputs

    def _union(self, task: UnionTask, partitions, stages) -> list[Table]:
        rows = sum(p.num_rows for p in partitions)
        stages.append(
            StageStats(
                task=task.name, kind="map", input_rows=rows, output_rows=rows
            )
        )
        return list(partitions)

    def _native_mr(
        self, task: NativeMapReduceTask, partitions, context, stages
    ) -> list[Table]:
        input_rows = sum(p.num_rows for p in partitions)
        run = _StageRun()

        # Map phase: run the user's mapper per partition.  Each map unit
        # is pure — it returns its (bucket, key, value) triples, which
        # are merged only after the attempt succeeds, so a retried
        # mapper never double-emits.
        buckets: list[list[tuple[Any, Any]]] = [
            [] for _ in range(self._parts)
        ]
        records = 0
        emitted_lists = self._run_units(
            "map",
            task.name,
            [
                (i, _NativeMapUnit(task, partition, self._parts))
                for i, partition in enumerate(partitions)
            ],
            run,
        )
        for emitted in emitted_lists:
            for bucket_index, key, value in emitted:
                buckets[bucket_index].append((key, value))
                records += 1
        # Reduce phase per bucket.
        from repro.data import Schema

        schema = Schema(task.output_columns)
        outputs = self._run_units(
            "shuffle",
            task.name,
            [
                (i, _NativeReduceUnit(task, bucket, schema))
                for i, bucket in enumerate(buckets)
            ],
            run,
        )
        stages.append(
            self._stats(
                task.name, "shuffle", input_rows, outputs, run,
                shuffled_records=records, shuffled_bytes=records * 24,
            )
        )
        return outputs

    def _sort(
        self, task: SortTask, partitions, context, stages
    ) -> list[Table]:
        """Total sort via sampled range partitioning (TeraSort-style).

        Sample the primary sort key, pick P-1 cut points, route rows by
        range so partition i's keys all precede partition i+1's, then
        sort each partition locally.  Gathering partitions in order
        yields a totally sorted table.  Falls back to a single-reducer
        sort when the key mixes incomparable types.
        """
        input_rows = sum(p.num_rows for p in partitions)
        order = task._order
        primary, primary_desc = order[0]
        sample: list[Any] = []
        for partition in partitions:
            values = [
                v for v in partition.column(primary) if v is not None
            ]
            stride = max(1, len(values) // 32)
            sample.extend(values[::stride])
        try:
            sample.sort()
        except TypeError:
            return self._gathered(task, partitions, context, stages)
        if len(partitions) == 1 or len(sample) < self._parts:
            return self._gathered(task, partitions, context, stages)
        step = len(sample) / self._parts
        cuts = [sample[int(step * i)] for i in range(1, self._parts)]

        import bisect

        pieces: list[list[Table]] = [[] for _ in range(self._parts)]
        records = 0
        total_bytes = 0
        for partition in partitions:
            total_bytes += partition.estimated_bytes()
            records += partition.num_rows
            index_lists: list[list[int]] = [
                [] for _ in range(self._parts)
            ]
            for i, value in enumerate(partition.column(primary)):
                if value is None:
                    index = 0  # None sorts first ascending
                else:
                    try:
                        index = bisect.bisect_left(cuts, value)
                    except TypeError:
                        return self._gathered(
                            task, partitions, context, stages
                        )
                index_lists[index].append(i)
            for bucket, indices in enumerate(index_lists):
                if indices:
                    pieces[bucket].append(partition.take(indices))
        schema = partitions[0].schema
        run = _StageRun()
        outputs = self._run_units(
            "shuffle",
            task.name,
            [
                (i, _ConcatUnit(task, piece, schema, context))
                for i, piece in enumerate(pieces)
            ],
            run,
        )
        if primary_desc:
            outputs = list(reversed(outputs))
        stages.append(
            self._stats(
                task.name, "shuffle", input_rows, outputs, run,
                shuffled_records=records, shuffled_bytes=total_bytes,
            )
        )
        return outputs

    def _gathered(self, task: Task, partitions, context, stages) -> list[Table]:
        gathered = _gather(partitions)
        run = _StageRun()
        output = self._run_units(
            "gather",
            task.name,
            [(0, lambda: task.apply([gathered], context))],
            run,
        )[0]
        stages.append(
            self._stats(
                task.name, "gather", gathered.num_rows, [output], run,
                shuffled_records=gathered.num_rows,
                shuffled_bytes=gathered.estimated_bytes(),
            )
        )
        return [output]
