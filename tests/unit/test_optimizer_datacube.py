"""Unit tests for the optimizer and the interactive data cube."""

import pytest

from repro.compiler.dag import build_dag
from repro.data import Schema, Table
from repro.dsl import parse_flow_file
from repro.engine import LocalExecutor, build_logical_plan, optimize_plan
from repro.engine.datacube import DataCube, split_widget_pipeline
from repro.engine.plan import PreludeGroupByTask
from repro.tasks.base import TaskContext, WidgetSelection
from repro.tasks.registry import default_task_registry


def compile_plan(source, optimize=False):
    ff = parse_flow_file(source)
    registry = default_task_registry()
    tasks = registry.build_section(
        {name: spec.config for name, spec in ff.tasks.items()}
    )
    plan = build_logical_plan(build_dag(ff), tasks)
    report = optimize_plan(plan) if optimize else None
    return plan, tasks, report


MAP_THEN_FILTER = (
    "D:\n    raw: [k, v]\n"
    "D.raw:\n    source: raw.csv\n"
    "F:\n    D.out: D.raw | T.derive | T.keep\n"
    "T:\n"
    "    derive:\n"
    "        type: add_column\n"
    "        expression: v * 2\n"
    "        output: v2\n"
    "    keep:\n"
    "        type: filter_by\n"
    "        filter_expression: v > 2\n"
)

RAW = Table.from_rows(
    Schema.of("k", "v", "unused1", "unused2"),
    [("a", 1, 0, 0), ("b", 3, 0, 0), ("c", 5, 0, 0)],
)


class TestFilterPushdown:
    def test_filter_hops_over_independent_map(self):
        plan, _tasks, report = compile_plan(MAP_THEN_FILTER, optimize=True)
        assert report.filters_pushed == 1
        # After the hop the chain is filter -> map; map-chain fusion then
        # collapses it, so the pushed order shows up in the fused label.
        order = [n.label() for n in plan.topological_order()]
        assert "fused:keep+derive" in order

    def test_pushdown_preserves_results(self):
        raw = Table.from_rows(
            Schema.of("k", "v"), [("a", 1), ("b", 3), ("c", 5)]
        )
        plain, _t, _r = compile_plan(MAP_THEN_FILTER, optimize=False)
        optimized, _t, _r = compile_plan(MAP_THEN_FILTER, optimize=True)
        run = lambda p: LocalExecutor(lambda n: raw).run(p).table("out")
        assert run(plain).to_records() == run(optimized).to_records()

    def test_filter_depending_on_map_output_not_moved(self):
        source = MAP_THEN_FILTER.replace(
            "filter_expression: v > 2", "filter_expression: v2 > 2"
        )
        _plan, _tasks, report = compile_plan(source, optimize=True)
        assert report.filters_pushed == 0

    def test_widget_filter_not_moved(self):
        source = MAP_THEN_FILTER.replace(
            "        type: filter_by\n"
            "        filter_expression: v > 2\n",
            "        type: filter_by\n"
            "        filter_by: [k]\n"
            "        filter_source: W.w\n",
        )
        _plan, _tasks, report = compile_plan(source, optimize=True)
        assert report.filters_pushed == 0


class TestProjectionPruning:
    SOURCE = (
        "D:\n    raw: [k, v, unused1, unused2]\n"
        "D.raw:\n    source: raw.csv\n"
        "F:\n    D.out: D.raw | T.agg\n"
        "T:\n"
        "    agg:\n"
        "        type: groupby\n"
        "        groupby: [k]\n"
        "        aggregates:\n"
        "            - operator: sum\n"
        "              apply_on: v\n"
        "              out_field: t\n"
    )

    def test_unused_columns_pruned_after_load(self):
        plan, _tasks, report = compile_plan(self.SOURCE, optimize=True)
        assert report.projections_inserted == 1
        # The prune projection feeds only the groupby, so combiner
        # fusion makes it the groupby's prelude.
        (fused,) = [
            n for n in plan.topological_order() if n.kind == "task"
        ]
        assert isinstance(fused.task, PreludeGroupByTask)
        assert fused.task.prelude.type_name == "project"
        assert fused.task.prelude.columns == ["k", "v"]

    def test_pruned_plan_result_unchanged(self):
        plain, _t, _r = compile_plan(self.SOURCE, optimize=False)
        optimized, _t, _r = compile_plan(self.SOURCE, optimize=True)
        run = lambda p: LocalExecutor(lambda n: RAW).run(p).table("out")
        assert run(plain).to_records() == run(optimized).to_records()

    def test_no_pruning_when_sink_is_raw_passthrough(self):
        source = (
            "D:\n    raw: [k, v]\n"
            "D.raw:\n    source: raw.csv\n"
            "F:\n    D.out: D.raw | T.keep\n"
            "T:\n"
            "    keep:\n"
            "        type: filter_by\n"
            "        filter_expression: v > 0\n"
        )
        _plan, _tasks, report = compile_plan(source, optimize=True)
        # The filter's output is a sink keeping every column: no pruning.
        assert report.projections_inserted == 0


class TestWidgetPipelineSplit:
    def make_tasks(self):
        registry = default_task_registry()
        return registry.build_section(
            {
                "agg": {
                    "groupby": ["k"],
                    "type": "groupby",
                },
                "flt": {
                    "type": "filter_by",
                    "filter_by": ["k"],
                    "filter_source": "W.picker",
                },
                "agg2": {
                    "groupby": ["k"],
                    "type": "groupby",
                },
            }
        )

    def test_split_at_first_selection_dependent_task(self):
        tasks = self.make_tasks()
        server, client = split_widget_pipeline(
            [tasks["agg"], tasks["flt"], tasks["agg2"]]
        )
        assert [t.name for t in server] == ["agg"]
        assert [t.name for t in client] == ["flt", "agg2"]

    def test_all_static_pipeline_is_fully_server_side(self):
        tasks = self.make_tasks()
        server, client = split_widget_pipeline([tasks["agg"]])
        assert len(server) == 1 and not client

    def test_filter_first_pipeline_is_fully_client_side(self):
        tasks = self.make_tasks()
        server, client = split_widget_pipeline(
            [tasks["flt"], tasks["agg"]]
        )
        assert not server and len(client) == 2


class TestDataCube:
    def make(self):
        table = Table.from_rows(
            Schema.of("k", "v"),
            [("a", 1), ("b", 2), ("a", 3)],
        )
        return DataCube("test", table)

    def make_filter(self):
        registry = default_task_registry()
        return registry.create(
            "flt",
            {"type": "filter_by", "filter_by": ["k"],
             "filter_source": "W.picker", "filter_val": ["text"]},
        )

    def test_query_applies_tasks(self):
        cube = self.make()
        task = self.make_filter()
        selection = {"picker": WidgetSelection(values={"text": ["a"]})}
        out = cube.query([task], selection)
        assert out.num_rows == 2

    def test_repeated_gesture_hits_cache(self):
        cube = self.make()
        task = self.make_filter()
        selection = {"picker": WidgetSelection(values={"text": ["a"]})}
        cube.query([task], selection)
        cube.query([task], selection)
        assert cube.stats.queries == 2
        assert cube.stats.cache_hits == 1
        assert cube.stats.rows_scanned == 3  # only the first scan

    def test_different_selection_misses_cache(self):
        cube = self.make()
        task = self.make_filter()
        cube.query([task], {"picker": WidgetSelection(values={"text": ["a"]})})
        cube.query([task], {"picker": WidgetSelection(values={"text": ["b"]})})
        assert cube.stats.cache_hits == 0

    def test_replace_table_invalidates(self):
        cube = self.make()
        task = self.make_filter()
        selection = {"picker": WidgetSelection(values={"text": ["a"]})}
        cube.query([task], selection)
        cube.replace_table(
            Table.from_rows(Schema.of("k", "v"), [("a", 9)])
        )
        out = cube.query([task], selection)
        assert out.column("v") == [9]

    def test_cache_eviction_bounded(self):
        cube = DataCube(
            "t",
            Table.from_rows(Schema.of("k"), [("a",)]),
            max_cache_entries=2,
        )
        task = self.make_filter()
        for value in ("a", "b", "c"):
            cube.query(
                [task],
                {"picker": WidgetSelection(values={"text": [value]})},
            )
        assert len(cube._cache) == 2

    def test_transferred_bytes_reflects_table(self):
        cube = self.make()
        assert cube.transferred_bytes == cube.table.estimated_bytes()
