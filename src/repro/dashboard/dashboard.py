"""The dashboard runtime.

Lifecycle (mirroring the generated single-page app of paper §4.4):

1. ``run_flows()`` executes the batch half of the compiled flow file on
   an engine, materializing every flow output; endpoint objects become
   REST-visible payloads and ``publish:`` objects go to the shared
   catalog.
2. Widgets are instantiated from the registry; each non-static widget
   gets a :class:`~repro.engine.datacube.DataCube` holding its *server-
   side* pipeline output (the §6 transfer-minimized payload).
3. ``select()`` updates a widget's selection; dependent widgets re-render
   by re-running their client-side pipelines in their cubes — the §3.5.1
   interaction model, with no event handlers anywhere.
4. ``render()`` lays the widget views out on the 12-column grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.collab.catalog import SharedDataCatalog
from repro.compiler.compiler import CompiledFlowFile, WidgetPlan
from repro.connectors.loader import DataObjectLoader
from repro.dashboard.environment import EnvironmentProfile
from repro.data import Schema, Table
from repro.engine.datacube import DataCube
from repro.engine.distributed import DistributedExecutor
from repro.engine.local import LocalExecutor
from repro.errors import ExecutionError, WidgetError
from repro.observability import Observability
from repro.observability.instruments import CUBE_QUERIES
from repro.tasks.base import TaskContext, WidgetSelection
from repro.widgets.base import Widget, WidgetView
from repro.widgets.charts import Slider
from repro.widgets.layout import GridRenderer, LayoutWidget, TabLayout
from repro.widgets.registry import WidgetRegistry, default_widget_registry


@dataclass
class DashboardView:
    """A fully rendered dashboard."""

    name: str
    html: str
    text: str
    widget_views: dict[str, WidgetView] = field(default_factory=dict)


@dataclass
class RunReport:
    """Telemetry from one ``run_flows`` call."""

    engine: str
    seconds: float
    rows_loaded: int = 0
    rows_produced: int = 0
    shuffled_records: int = 0
    published: list[str] = field(default_factory=list)
    endpoints: list[str] = field(default_factory=list)
    #: flow outputs reused from a previous run (incremental mode)
    flows_skipped: list[str] = field(default_factory=list)
    #: resilience telemetry (distributed engine only)
    attempts: int = 0
    retried_partitions: int = 0
    speculative_wins: int = 0
    recovered_stages: list[str] = field(default_factory=list)
    #: tracing id of this run; resolvable via ``GET /trace/<run_id>``
    trace_id: str | None = None


@dataclass
class RefreshReport:
    """Telemetry from one ``refresh_flows`` call."""

    mode: str  # "incremental" or "full"
    seconds: float = 0.0
    #: new source rows ingested via delta cursors this cycle
    delta_rows: int = 0
    #: flows advanced through incremental view maintenance
    flows_incremental: list[str] = field(default_factory=list)
    #: flows recomputed from scratch (unsupported operators, multi-input)
    flows_full: list[str] = field(default_factory=list)
    #: flows whose inputs were unchanged (no work at all)
    flows_skipped: list[str] = field(default_factory=list)
    #: endpoints whose tables changed (version bumped)
    endpoints_changed: list[str] = field(default_factory=list)
    #: current endpoint versions after this refresh
    versions: dict[str, int] = field(default_factory=dict)
    trace_id: str | None = None


class Dashboard:
    """A live dashboard built from a compiled flow file."""

    def __init__(
        self,
        compiled: CompiledFlowFile,
        loader: DataObjectLoader | None = None,
        catalog: SharedDataCatalog | None = None,
        widget_registry: WidgetRegistry | None = None,
        environment: EnvironmentProfile | None = None,
        data_dir: str | Path | None = None,
        dictionaries: Mapping[str, Mapping[str, str]] | None = None,
        inline_tables: Mapping[str, Table] | None = None,
        observability: Observability | None = None,
    ):
        self.observability = observability or Observability()
        self.compiled = compiled
        self.flow_file = compiled.flow_file
        self.name = compiled.flow_file.name
        self.loader = loader or DataObjectLoader()
        self.catalog = catalog
        self.environment = environment or EnvironmentProfile.laptop()
        self._widget_registry = widget_registry or default_widget_registry()
        self._data_dir = Path(data_dir) if data_dir else None
        self._dictionaries = dict(dictionaries or {})
        #: programmatically supplied tables, taking priority over loads
        self._inline_tables = dict(inline_tables or {})
        self._materialized: dict[str, Table] = {}
        #: per-run snapshot of concurrently prefetched source tables
        self._prefetched: dict[str, Table] = {}
        self._widgets: dict[str, Widget] = {}
        self._cubes: dict[str, DataCube] = {}
        self.last_run: RunReport | None = None
        self._last_node_stats: list = []
        self._last_stages: list = []
        #: CSS uploaded through the extension services (§4.2 "Styling")
        self.stylesheet: str = ""
        #: outputs adopted from a previous version (incremental runs)
        self._fresh_outputs: set[str] = set()
        # -- refresh state (see refresh_flows) --------------------------
        #: per-source delta-loader state (cursors + captured preambles)
        self._delta_states: dict[str, dict | None] = {}
        #: maintained full source tables, fed by delta ingestion
        self._source_tables: dict[str, Table] = {}
        #: (object identity, row count) watermarks for inline/catalog
        #: tables, to detect in-place growth vs replacement
        self._source_watermarks: dict[str, tuple[int, int]] = {}
        #: per-flow incremental maintenance state
        self._flow_states: dict[str, Any] = {}
        #: monotonic version per endpoint table; bumped when it changes
        self._endpoint_versions: dict[str, int] = {}
        self.last_refresh: RefreshReport | None = None
        self._build_widgets()

    # ------------------------------------------------------------------
    # flow execution
    # ------------------------------------------------------------------
    def run_flows(
        self,
        engine: str | None = None,
        incremental: bool = False,
        fault_profile: str | None = None,
        parallelism: int = 1,
        executor: str = "threads",
        pool: Any = None,
        small_job_bytes: int | None = None,
    ) -> RunReport:
        """Execute the batch half; returns the run report.

        ``engine`` is ``"local"``, ``"distributed"``, or ``None`` to let
        the environment profile decide from the input size (§4.1).

        ``incremental=True`` skips flows whose results were adopted from
        a previous dashboard version (see :meth:`adopt_materialized`) —
        only the stale part of the DAG re-runs.

        ``fault_profile`` names a seeded fault-injection profile (see
        :meth:`repro.resilience.FaultInjector.from_profile`) and forces
        the distributed engine, which absorbs the injected faults and
        reports the recovery cost in the run report.

        ``parallelism`` sizes the distributed engine's worker pool and
        the source-prefetch pool (independent data objects load
        concurrently before the engine starts); ``executor`` picks the
        pool backend — ``"threads"`` (default) or ``"processes"`` for
        CPU-bound work (see ``docs/parallelism.md``).  Results,
        telemetry and traces are identical at every setting of both;
        only wall time changes.

        ``pool`` lends a warm
        :class:`~repro.engine.scheduler.ProcessPool` to both the
        source prefetch and the distributed engine (``processes``
        executor only; ignored otherwise) — outputs stay identical,
        stages just skip the fork cost.  ``small_job_bytes``
        overrides the prefetch small-job threshold for this run
        (``None`` = the loader's configured default).
        """
        context = self._task_context()
        plan = self.compiled.plan
        skipped: list[str] = []
        # A run re-reads its sources.  The copies the last run
        # materialized go stale when a source changes (and the
        # distributed engine's are reordered by partitioning), and
        # _resolve_source would prefer them, so they are dropped first.
        for source in self.compiled.dag.sources:
            self._materialized.pop(source, None)
        if incremental and self._fresh_outputs:
            plan, skipped = self._incremental_plan()
        if fault_profile and engine is None:
            engine = "distributed"
        if fault_profile and engine == "local":
            raise ExecutionError(
                "fault profiles exercise the distributed engine; "
                "run with engine='distributed' (or let it default)"
            )
        if engine is None:
            estimated = sum(
                t.num_rows for t in self._inline_tables.values()
            )
            engine = self.environment.choose_engine(estimated)
        obs = self.observability
        with obs.tracer.span(
            "dashboard.run", dashboard=self.name, engine=engine
        ) as root:
            try:
                self._prefetch_sources(
                    plan,
                    parallelism,
                    executor,
                    pool=pool,
                    small_job_bytes=small_job_bytes,
                )
                if engine == "local":
                    result = LocalExecutor(
                        self._resolve_source,
                        tracer=obs.tracer,
                        metrics=obs.metrics,
                    ).run(plan, context)
                    report = RunReport(
                        engine=engine,
                        seconds=result.stats.seconds,
                        rows_loaded=result.stats.rows_loaded,
                        rows_produced=result.stats.rows_produced,
                    )
                    self._materialized.update(result.tables)
                    self._last_node_stats = list(result.stats.node_stats)
                    self._last_stages = []
                elif engine == "distributed":
                    from repro.resilience import FaultInjector

                    injector = FaultInjector.from_profile(fault_profile)
                    result = DistributedExecutor(
                        self._resolve_source,
                        fault_injector=injector,
                        tracer=obs.tracer,
                        metrics=obs.metrics,
                        parallelism=parallelism,
                        executor=executor,
                        pool=pool,
                    ).run(plan, context)
                    report = RunReport(
                        engine=engine,
                        seconds=result.seconds,
                        rows_produced=result.rows_produced,
                        shuffled_records=result.total_shuffled_records,
                        attempts=result.attempts,
                        retried_partitions=result.retried_partitions,
                        speculative_wins=result.speculative_wins,
                        recovered_stages=list(result.recovered_stages),
                    )
                    self._materialized.update(result.tables)
                    self._last_node_stats = []
                    self._last_stages = list(result.stages)
                else:
                    raise ExecutionError(f"unknown engine {engine!r}")
                report.flows_skipped = skipped
                # A full run refreshes everything: nothing stays "fresh".
                self._fresh_outputs = set(skipped)
                # Refresh state is anchored to the data a run loaded;
                # a full run re-reads sources from scratch, so cursors
                # and per-flow states reset (the next refresh cycle
                # re-bootstraps them) and every endpoint version bumps.
                self._reset_refresh_state()
                for endpoint in self.compiled.endpoint_names:
                    self._bump_version(endpoint)
                report.endpoints = self.compiled.endpoint_names
                with obs.tracer.span("publish"):
                    report.published = self._publish()
                with obs.tracer.span("cubes.rebuild"):
                    self._rebuild_cubes()
                report.trace_id = root.trace_id
            finally:
                # The snapshot only serves this run; later lazy resolves
                # (e.g. widget rebuilds) go back through the loader.
                self._prefetched = {}
        self.last_run = report
        return report

    # ------------------------------------------------------------------
    # delta refresh (incremental view maintenance)
    # ------------------------------------------------------------------
    def endpoint_version(self, name: str) -> int:
        """Monotonic version of an endpoint's table (0 before any run).

        Bumped whenever the table's content may have changed — on every
        full run, and on refresh cycles whose deltas reached it.  The
        server surfaces this as a response header and uses the bump as
        the query-cache invalidation boundary.
        """
        return self._endpoint_versions.get(name, 0)

    def endpoint_versions(self) -> dict[str, int]:
        return dict(self._endpoint_versions)

    def _bump_version(self, name: str) -> None:
        self._endpoint_versions[name] = (
            self._endpoint_versions.get(name, 0) + 1
        )

    def _reset_refresh_state(self) -> None:
        self._delta_states.clear()
        self._source_tables.clear()
        self._source_watermarks.clear()
        self._flow_states.clear()

    def refresh_flows(self, incremental: bool = True) -> RefreshReport:
        """Re-run the flows at O(changed rows) cost.

        The delta pipeline, per cycle:

        1. every external source reports how it changed — file-backed
           sources via :meth:`DataObjectLoader.load_delta` cursors,
           inline/catalog tables via identity + row-count watermarks;
        2. flows walk in DAG order: a flow whose inputs are unchanged is
           skipped outright; a single-input flow whose whole task chain
           is incrementally maintainable (see
           :mod:`repro.engine.incremental`) advances its
           :class:`~repro.engine.incremental.FlowDeltaState`; anything
           else — multi-input, joins, UDFs, widget-sourced filters —
           falls back to a full recompute through the real engine
           (pruned to just those flows, so the fallback never spreads
           wider than it must);
        3. endpoints whose tables changed get a version bump, changed
           outputs republish, and widget cubes rebuild.

        The first refresh after a full run is a **bootstrap**: delta
        cursors don't exist yet, so sources reload fully and per-flow
        states prime from complete inputs.  Outputs are byte-identical
        to a full recompute in every mode — incremental maintenance is
        a fast path, never a semantics change.

        ``incremental=False`` recomputes everything (equivalent to
        :meth:`run_flows`) but still reports through the refresh
        surface, bumping versions only where tables were recomputed.
        """
        from time import perf_counter

        obs = self.observability
        start = perf_counter()
        report = RefreshReport(
            mode="incremental" if incremental else "full"
        )
        with obs.tracer.span(
            "dashboard.refresh", dashboard=self.name, mode=report.mode
        ) as root:
            if not incremental:
                # A full refresh must re-read every source: drop the
                # materialized source copies so the loader hits the
                # connectors again instead of serving the last run's
                # tables.
                for source in self.compiled.dag.sources:
                    self._materialized.pop(source, None)
                self._prefetched = {}
                run = self.run_flows()
                report.flows_full = [
                    flow.output for flow in self.compiled.dag.ordered_flows()
                ]
                report.endpoints_changed = list(run.endpoints)
            else:
                self._refresh_incremental(report)
            report.versions = self.endpoint_versions()
            report.trace_id = root.trace_id
        report.seconds = perf_counter() - start
        self.last_refresh = report
        return report

    def _refresh_incremental(self, report: RefreshReport) -> None:
        from repro.engine.incremental import (
            Delta,
            FlowDeltaState,
            flow_supports_delta,
        )

        context = self._task_context()
        context.widget_selections = {}  # batch half is selection-free
        deltas: dict[str, "Delta"] = {}
        with self.observability.tracer.span("refresh.sources"):
            for name in sorted(self.compiled.dag.sources):
                deltas[name] = self._source_delta(name)
                if deltas[name].kind == "append":
                    report.delta_rows += deltas[name].rows.num_rows
        #: outputs needing the engine (incremental not possible)
        recompute: set[str] = set()
        for flow in self.compiled.dag.ordered_flows():
            output = flow.output
            input_deltas = [deltas.get(i) for i in flow.inputs]
            if any(i in recompute for i in flow.inputs):
                # An upstream recompute means this flow's input delta is
                # unknown until the engine runs; recompute it too.
                recompute.add(output)
                continue
            if (
                all(d is not None and d.kind == "none" for d in input_deltas)
                and output in self._materialized
            ):
                deltas[output] = Delta("none")
                report.flows_skipped.append(output)
                continue
            tasks = [self.compiled.tasks[t] for t in flow.tasks]
            if len(flow.inputs) == 1 and flow_supports_delta(tasks):
                state = self._flow_states.get(output)
                if state is None:
                    state = FlowDeltaState(tasks)
                    self._flow_states[output] = state
                    delta_in = Delta(
                        "full", self._refresh_input(flow.inputs[0])
                    )
                else:
                    delta_in = input_deltas[0]
                    if delta_in is None:
                        delta_in = Delta(
                            "full", self._refresh_input(flow.inputs[0])
                        )
                table, delta_out = state.advance(delta_in, context)
                self._materialized[output] = table
                deltas[output] = delta_out
                report.flows_incremental.append(output)
            else:
                recompute.add(output)
        if recompute:
            self._refresh_recompute(sorted(recompute), context)
            report.flows_full = sorted(recompute)
        changed = {
            name
            for name, delta in deltas.items()
            if delta.kind != "none"
        } | recompute
        for endpoint in self.compiled.endpoint_names:
            if endpoint in changed:
                self._bump_version(endpoint)
                report.endpoints_changed.append(endpoint)
        if changed:
            with self.observability.tracer.span("publish"):
                self._publish()
            with self.observability.tracer.span("cubes.rebuild"):
                self._rebuild_cubes()

    def _source_delta(self, name: str):
        """How one external source changed since the last cycle."""
        from repro.engine.incremental import Delta

        if name in self._inline_tables:
            return self._watermark_delta(name, self._inline_tables[name])
        obj = self.flow_file.data.get(name)
        if obj is not None and obj.is_source:
            config = dict(obj.config)
            if self._data_dir and "base_dir" not in config:
                config["base_dir"] = str(self._data_dir)
            schema = obj.schema or Schema.of()
            load = self.loader.load_delta(
                schema, config, self._delta_states.get(name)
            )
            self._delta_states[name] = load.state
            if load.mode == "none":
                return Delta("none")
            if load.mode == "append":
                prior = self._source_tables.get(name)
                self._source_tables[name] = (
                    load.table
                    if prior is None
                    else Table.concat_all([prior, load.table])
                )
                if prior is None:
                    # No base to append to (state handed in from a
                    # previous process?): treat as a first full load.
                    return Delta("full", self._source_tables[name])
                return Delta("append", load.table)
            self._source_tables[name] = load.table
            return Delta("full", load.table)
        if self.catalog is not None and name in self.catalog:
            return self._watermark_delta(name, self.catalog.resolve(name))
        # Unresolvable here; flows using it recompute via the engine.
        return Delta("full", self._resolve_source(name))

    def _watermark_delta(self, name: str, table: Table):
        """Delta for an in-memory table, by identity + row count.

        The same table object having grown is an append (callers extend
        inline tables in place); a different object or a shrink is a
        replacement.
        """
        from repro.engine.incremental import Delta

        mark = self._source_watermarks.get(name)
        self._source_watermarks[name] = (id(table), table.num_rows)
        if mark is None:
            return Delta("full", table)
        prev_id, prev_rows = mark
        if prev_id == id(table) and table.num_rows == prev_rows:
            return Delta("none")
        if prev_id == id(table) and table.num_rows > prev_rows:
            return Delta(
                "append",
                table.take(list(range(prev_rows, table.num_rows))),
            )
        return Delta("full", table)

    def _refresh_input(self, name: str) -> Table:
        """A full current input table (for state bootstraps).

        Delta-tracked source tables win over ``_materialized`` — the
        materialized copy is from the last full run, while
        ``_source_tables`` was just advanced by ``_source_delta``.
        """
        if name in self._source_tables:
            return self._source_tables[name]
        if name in self._materialized:
            return self._materialized[name]
        return self._resolve_source(name)

    def _refresh_recompute(
        self, outputs: list[str], context: TaskContext
    ) -> None:
        """Recompute ``outputs`` through the real engine.

        Builds a plan pruned to just those flows — everything else
        (incrementally maintained outputs, unchanged flows, sources)
        acts as an external input — and runs it on the local engine.
        Reusing the engine keeps multi-input lowering (joins, unions)
        exactly as a full run would execute it, which is what makes the
        fallback byte-identical by construction.
        """
        from repro.compiler.dag import build_dag
        from repro.dsl.ast_nodes import FlowFile
        from repro.engine.local import LocalExecutor
        from repro.engine.plan import build_logical_plan

        wanted = set(outputs)
        stale = [
            flow
            for flow in self.flow_file.flows
            if flow.output in wanted
        ]
        pruned = FlowFile(
            name=self.flow_file.name,
            data=self.flow_file.data,
            tasks=self.flow_file.tasks,
            flows=stale,
            widgets={},
            layout=None,
        )
        external = (
            {
                flow.output
                for flow in self.flow_file.flows
                if flow.output not in wanted
            }
            | set(self.compiled.dag.sources)
        )
        dag = build_dag(pruned, external=external)
        plan = build_logical_plan(dag, self.compiled.tasks)
        # Serve delta-maintained source tables to the engine without a
        # re-fetch.  The stale materialized copies from the last full
        # run must not shadow them (_resolve_source prefers
        # _materialized), so they are dropped first; the engine's
        # result tables repopulate them.
        self._prefetched = dict(self._source_tables)
        for source in self._source_tables:
            self._materialized.pop(source, None)
        try:
            obs = self.observability
            result = LocalExecutor(
                self._resolve_source,
                tracer=obs.tracer,
                metrics=obs.metrics,
            ).run(plan, context)
            self._materialized.update(result.tables)
        finally:
            self._prefetched = {}

    # ------------------------------------------------------------------
    # incremental recomputation (§4.5.3 fast feedback, §6 optimization)
    # ------------------------------------------------------------------
    def adopt_materialized(self, previous: "Dashboard") -> list[str]:
        """Carry over results of flows unchanged since ``previous``.

        Compares per-output content fingerprints (pipe expression, all
        upstream task configurations, upstream source configurations);
        matching outputs are copied and marked fresh, so a subsequent
        ``run_flows(incremental=True)`` only re-runs the stale part of
        the DAG.  Returns the adopted output names.
        """
        from repro.compiler.compiler import flow_fingerprints

        mine = flow_fingerprints(self.compiled)
        theirs = flow_fingerprints(previous.compiled)
        adopted: list[str] = []
        for output, fingerprint in mine.items():
            if (
                theirs.get(output) == fingerprint
                and output in previous._materialized
            ):
                self._materialized[output] = previous._materialized[
                    output
                ]
                adopted.append(output)
        self._fresh_outputs = set(adopted)
        return adopted

    def _incremental_plan(self):
        """A plan covering only stale flows; fresh outputs act as
        sources (their tables are served from ``_materialized``)."""
        from repro.compiler.dag import build_dag
        from repro.engine.plan import build_logical_plan
        from repro.dsl.ast_nodes import FlowFile

        fresh = set(self._fresh_outputs)
        stale_flows = [
            flow
            for flow in self.flow_file.flows
            if flow.output not in fresh
        ]
        skipped = sorted(
            flow.output
            for flow in self.flow_file.flows
            if flow.output in fresh
        )
        if not stale_flows:
            from repro.engine.plan import LogicalPlan

            return LogicalPlan(), skipped
        pruned = FlowFile(
            name=self.flow_file.name,
            data=self.flow_file.data,
            tasks=self.flow_file.tasks,
            flows=stale_flows,
            widgets={},
            layout=None,
        )
        catalog_names = set(
            self.catalog.names()
        ) if self.catalog is not None else set()
        dag = build_dag(pruned, external=fresh | catalog_names)
        return build_logical_plan(dag, self.compiled.tasks), skipped

    def _task_context(self) -> TaskContext:
        return TaskContext(
            data_dir=self._data_dir,
            dictionaries=self._dictionaries,
            widget_selections=self._selections(),
        )

    def _prefetch_sources(
        self,
        plan,
        parallelism: int,
        executor: str = "threads",
        pool: Any = None,
        small_job_bytes: int | None = None,
    ) -> None:
        """Load the plan's loader-backed sources up front, concurrently.

        Collects the plan's load nodes in canonical (topological) order,
        keeps the ones :meth:`_resolve_source` would send through the
        loader, and loads them in one :meth:`DataObjectLoader.load_many`
        call under a ``sources.load`` span.  The engines then hit the
        prefetched snapshot instead of fetching mid-run.  Spec order is
        canonical and ``load_many`` replays telemetry canonically, so
        the trace and metrics are identical at every ``parallelism``.
        """
        names: list[str] = []
        seen: set[str] = set()
        for node in plan.topological_order():
            if node.kind != "load" or node.load_name is None:
                continue
            name = node.load_name
            if name in seen:
                continue
            seen.add(name)
            if name in self._inline_tables or name in self._materialized:
                continue
            obj = self.flow_file.data.get(name)
            if obj is None or not obj.is_source:
                continue  # catalog-resolved or unresolvable: stay lazy
            names.append(name)
        if not names:
            return
        specs = []
        for name in names:
            obj = self.flow_file.data[name]
            config = dict(obj.config)
            if self._data_dir and "base_dir" not in config:
                config["base_dir"] = str(self._data_dir)
            specs.append((obj.schema or Schema.of(), config))
        with self.observability.tracer.span(
            "sources.load", sources=len(names)
        ):
            tables = self.loader.load_many(
                specs,
                parallelism,
                executor,
                pool=pool,
                small_job_bytes=small_job_bytes,
            )
        self._prefetched = dict(zip(names, tables))

    def _resolve_source(self, name: str) -> Table:
        if name in self._inline_tables:
            return self._inline_tables[name]
        if name in self._materialized:
            return self._materialized[name]
        if name in self._prefetched:
            return self._prefetched[name]
        obj = self.flow_file.data.get(name)
        if obj is not None and obj.is_source:
            config = dict(obj.config)
            if self._data_dir and "base_dir" not in config:
                config["base_dir"] = str(self._data_dir)
            schema = obj.schema or Schema.of()
            return self.loader.load(schema, config)
        if self.catalog is not None and name in self.catalog:
            return self.catalog.resolve(name)
        raise ExecutionError(
            f"dashboard {self.name!r}: cannot resolve data object "
            f"{name!r} (no source config, no inline table, not published)"
        )

    def _publish(self) -> list[str]:
        published = []
        if self.catalog is None:
            return published
        for obj in self.flow_file.published():
            table = self._materialized.get(obj.name)
            if table is None and obj.is_source:
                # A raw source (dimension table) can be published too.
                table = self._resolve_source(obj.name)
            if table is None:
                continue
            assert obj.publish is not None
            self.catalog.publish(
                obj.publish, table, owner=self.name, source_object=obj.name
            )
            published.append(obj.publish)
        return published

    def bottleneck_report(self, top: int = 5) -> str:
        """Where the last run spent its time (§6: "tools to identify
        performance bottlenecks need to be provided").

        For local runs: the slowest plan nodes with their row/cell
        output.  For distributed runs: the heaviest shuffle stages.
        """
        if self.last_run is None:
            return "no run recorded; run_flows() first"
        lines = [
            f"run on the {self.last_run.engine} engine: "
            f"{self.last_run.seconds * 1000:.1f} ms total"
        ]
        if self._last_node_stats:
            ranked = sorted(
                self._last_node_stats, key=lambda s: -s.seconds
            )[:top]
            total = sum(s.seconds for s in self._last_node_stats) or 1e-12
            for stat in ranked:
                lines.append(
                    f"  {stat.label}: {stat.seconds * 1000:.2f} ms "
                    f"({stat.seconds / total:.0%}), "
                    f"{stat.rows_out} rows out"
                )
        if self._last_stages:
            shuffles = sorted(
                (s for s in self._last_stages if s.shuffled_records),
                key=lambda s: -s.shuffled_records,
            )[:top]
            for stage in shuffles:
                lines.append(
                    f"  shuffle {stage.task}: "
                    f"{stage.shuffled_records} records "
                    f"({stage.shuffled_bytes} bytes), "
                    f"{stage.input_rows} -> {stage.output_rows} rows"
                )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # endpoint data (REST surface, §4.4)
    # ------------------------------------------------------------------
    def endpoint_names(self) -> list[str]:
        return self.compiled.endpoint_names

    def endpoint(self, name: str) -> Table:
        """Endpoint payload (capped per the environment profile)."""
        if name not in set(self.compiled.endpoint_names):
            raise ExecutionError(
                f"data object {name!r} is not an endpoint of "
                f"dashboard {self.name!r}"
            )
        table = self._materialized.get(name)
        if table is None:
            table = self._resolve_source(name)
        limit = self.environment.max_payload_rows
        return table.head(limit) if table.num_rows > limit else table

    def export_endpoint(
        self, name: str, config: Mapping[str, Any]
    ) -> None:
        """Write an endpoint's data through a sink connector/format.

        ``config`` is data-object configuration (``source``/``format``/
        protocol parameters, resolved against the data directory) — the
        write-side counterpart of the data section, e.g.::

            dashboard.export_endpoint(
                "region_summary", {"source": "out.csv", "format": "csv"}
            )
        """
        table = self.endpoint(name)
        sink_config = dict(config)
        if self._data_dir and "base_dir" not in sink_config:
            sink_config["base_dir"] = str(self._data_dir)
        self.loader.save(table, sink_config)

    def materialized(self, name: str) -> Table:
        table = self._materialized.get(name)
        if table is None:
            raise ExecutionError(
                f"data object {name!r} has not been materialized; "
                f"run_flows() first"
            )
        return table

    # ------------------------------------------------------------------
    # widgets & interaction
    # ------------------------------------------------------------------
    def _build_widgets(self) -> None:
        for name, plan in self.compiled.widget_plans.items():
            widget = self._widget_registry.create(
                name, plan.widget.type_name, plan.widget.config
            )
            if isinstance(widget, Slider) and plan.is_static:
                widget.set_domain(list(plan.static_values or []))
            self._widgets[name] = widget

    def widget(self, name: str) -> Widget:
        widget = self._widgets.get(name)
        if widget is None:
            raise WidgetError(
                f"dashboard {self.name!r} has no widget {name!r}"
            )
        return widget

    def widget_names(self) -> list[str]:
        return sorted(self._widgets)

    def _selections(self) -> dict[str, WidgetSelection]:
        return {
            name: widget.selection
            for name, widget in self._widgets.items()
            if not widget.selection.is_empty()
        }

    def _rebuild_cubes(self) -> None:
        """Materialize each widget's server-side pipeline into a cube.

        Widgets whose (source, server pipeline) coincide share one cube
        — the payload is computed and shipped once, not per widget (the
        §6 transfer minimization applied across widgets).
        """
        self._cubes.clear()
        context = self._task_context()
        context.widget_selections = {}  # server side is selection-free
        shared: dict[tuple, DataCube] = {}
        for name, plan in self.compiled.widget_plans.items():
            if plan.is_static or plan.source_name is None:
                continue
            key = (
                plan.source_name,
                tuple(task.name for task in plan.server_tasks),
            )
            cube = shared.get(key)
            if cube is None:
                table = self._widget_base_table(plan)
                for task in plan.server_tasks:
                    table = task.apply([table], context)
                limit = self.environment.max_payload_rows
                if table.num_rows > limit:
                    table = table.head(limit)
                cube = DataCube(f"{key[0]}|{'|'.join(key[1])}", table)
                shared[key] = cube
            self._cubes[name] = cube

    def _widget_base_table(self, plan: WidgetPlan) -> Table:
        assert plan.source_name is not None
        if plan.source_name in self._materialized:
            return self._materialized[plan.source_name]
        return self._resolve_source(plan.source_name)

    @property
    def transferred_bytes(self) -> int:
        """Total endpoint payload shipped to the client.

        Shared cubes (widgets with identical server pipelines) count
        once — that is the point of sharing them.
        """
        distinct = {id(cube): cube for cube in self._cubes.values()}
        return sum(cube.transferred_bytes for cube in distinct.values())

    def select(
        self,
        widget_name: str,
        column: str | None = None,
        values: list[Any] | None = None,
        value_range: tuple[Any, Any] | None = None,
    ) -> None:
        """Apply a user gesture to a widget (click, drag, pick).

        ``column`` defaults to the widget's selection attribute.
        Requires an interactive client (§4.1: with JavaScript disabled
        the platform serves a static pre-rendered representation, so
        there is nothing to gesture at).
        """
        if not self.environment.interactive:
            raise WidgetError(
                f"dashboard {self.name!r} is served statically "
                f"(client has no interactivity); selections are disabled"
            )
        widget = self.widget(widget_name)
        column = column or widget.selection_attribute
        if column is None:
            raise WidgetError(
                f"widget {widget_name!r} does not support selection"
            )
        if values is not None:
            widget.select_values(column, values)
        elif value_range is not None:
            widget.select_range(column, value_range[0], value_range[1])
        else:
            widget.clear_selection()

    def widget_view(self, name: str) -> WidgetView:
        """Render one widget with the current interaction state."""
        widget = self.widget(name)
        plan = self.compiled.widget_plans[name]
        if isinstance(widget, (LayoutWidget, TabLayout)):
            return widget.render_composite(self.widget_view)
        if plan.is_static:
            return widget.render(None)
        if plan.source_name is None:
            return widget.render(None)
        cube = self._cubes.get(name)
        if cube is None:
            self._rebuild_cubes()
            cube = self._cubes.get(name)
        if cube is None:
            return widget.render(None)
        obs = self.observability
        with obs.tracer.span(
            "cube.query", dashboard=self.name, widget=name
        ) as span:
            table = cube.query(plan.client_tasks, self._selections())
            span.set(rows_out=table.num_rows)
        obs.metrics.counter(
            CUBE_QUERIES, "Datacube slices evaluated for widget views"
        ).inc(dashboard=self.name)
        return widget.render(table)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def render(self) -> DashboardView:
        """Render the full dashboard (grid of widget views)."""
        views: dict[str, WidgetView] = {}

        def resolve(widget_name: str) -> WidgetView:
            if widget_name not in views:
                views[widget_name] = self.widget_view(widget_name)
            return views[widget_name]

        layout = self.flow_file.layout
        if layout is None or not layout.rows:
            # No layout section (data-processing mode): summary only.
            text = (
                f"dashboard {self.name!r}: data-processing mode, "
                f"endpoints: {', '.join(self.endpoint_names()) or '-'}"
            )
            return DashboardView(name=self.name, html="", text=text)
        html, text = GridRenderer().render_rows(layout, resolve)
        title = layout.description or self.name
        style = (
            f"<style>{self.stylesheet}</style>" if self.stylesheet else ""
        )
        html = (
            f"<html><head><title>{title}</title>{style}</head>"
            f"<body><h1>{title}</h1>{html}</body></html>"
        )
        return DashboardView(
            name=self.name,
            html=html,
            text=f"== {title} ==\n{text}",
            widget_views=views,
        )
