"""Unit tests for map-chain fusion and :class:`FusedPipelineTask`."""

import pytest

from repro.compiler.dag import build_dag
from repro.data import Schema, Table
from repro.dsl import parse_flow_file
from repro.engine import (
    DistributedExecutor,
    LocalExecutor,
    build_logical_plan,
    optimize_plan,
)
from repro.engine.plan import FusedPipelineTask, PreludeGroupByTask
from repro.errors import CompilationError
from repro.tasks.base import TaskContext
from repro.tasks.groupby import GroupByTask
from repro.tasks.registry import default_task_registry


def compile_plan(source, optimize=True):
    ff = parse_flow_file(source)
    registry = default_task_registry()
    tasks = registry.build_section(
        {name: spec.config for name, spec in ff.tasks.items()}
    )
    plan = build_logical_plan(build_dag(ff), tasks)
    report = optimize_plan(plan) if optimize else None
    return plan, report


CHAIN = (
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

RAW = Table.from_rows(
    Schema.of("k", "v"), [("a", 1), ("b", 3), ("c", 5), ("d", 0)]
)


class TestFusionPass:
    def test_adjacent_partition_local_nodes_fuse(self):
        plain, _ = compile_plan(CHAIN, optimize=False)
        fused, report = compile_plan(CHAIN)
        assert report.maps_fused == 3
        assert len(fused) == len(plain) - 2
        labels = [n.label() for n in fused.topological_order()]
        assert "fused:up+double+keep" in labels

    def test_fused_node_keeps_tail_identity(self):
        plain, _ = compile_plan(CHAIN, optimize=False)
        tail_id = plain.node_for_output("out").id
        fused, _ = compile_plan(CHAIN)
        node = fused.node_for_output("out")
        # The chain's tail node survives in place: same id, same
        # materialization, so checkpoints and downstream edges hold.
        assert node.id == tail_id
        assert isinstance(node.task, FusedPipelineTask)

    def test_materialized_intermediate_blocks_fusion(self):
        source = (
            "D:\n    raw: [k, v]\n"
            "D.raw:\n    source: raw.csv\n"
            "F:\n"
            "    D.mid: D.raw | T.up | T.double\n"
            "    D.out: D.mid | T.keep\n"
            "T:\n"
            "    up:\n        type: map\n        operator: upper\n"
            "        transform: k\n        output: K\n"
            "    double:\n        type: add_column\n"
            "        expression: v * 2\n        output: v2\n"
            "    keep:\n        type: filter_by\n"
            "        filter_expression: v2 > 2\n"
        )
        plan, report = compile_plan(source)
        labels = [n.label() for n in plan.topological_order()]
        # up+double fuse (both inside D.mid's flow) but the chain stops
        # at the node materializing D.mid — D.out's filter stays alone.
        assert "fused:up+double" in labels
        assert "filter_by:keep" in labels

    def test_fan_out_blocks_fusion(self):
        source = (
            "D:\n    raw: [k, v]\n"
            "D.raw:\n    source: raw.csv\n"
            "F:\n"
            "    D.mid: D.raw | T.double\n"
            "    D.one: D.mid | T.keep\n"
            "    D.two: D.mid | T.strict\n"
            "T:\n"
            "    double:\n        type: add_column\n"
            "        expression: v * 2\n        output: v2\n"
            "    keep:\n        type: filter_by\n"
            "        filter_expression: v2 > 2\n"
            "    strict:\n        type: filter_by\n"
            "        filter_expression: v2 > 8\n"
        )
        plan, report = compile_plan(source)
        assert report.maps_fused == 0
        labels = {n.label() for n in plan.topological_order()}
        assert {"add_column:double", "filter_by:keep",
                "filter_by:strict"} <= labels

    def test_non_partition_local_stage_breaks_the_chain(self):
        source = (
            "D:\n    raw: [k, v]\n"
            "D.raw:\n    source: raw.csv\n"
            "F:\n    D.out: D.raw | T.double | T.agg | T.keep\n"
            "T:\n"
            "    double:\n        type: add_column\n"
            "        expression: v * 2\n        output: v2\n"
            "    agg:\n        type: groupby\n        groupby: [k]\n"
            "        aggregates:\n"
            "            - operator: sum\n"
            "              apply_on: v2\n"
            "              out_field: t\n"
            "    keep:\n        type: filter_by\n"
            "        filter_expression: t > 0\n"
        )
        plan, report = compile_plan(source)
        # groupby shuffles, so the map chain breaks there: the pruning
        # projection and the map fuse upstream of it (and then become
        # the groupby's combiner prelude), while the downstream filter
        # stays its own stage.
        labels = [n.label() for n in plan.topological_order()]
        assert labels == [
            "load(raw)", "fused:__prune_raw+double+agg", "filter_by:keep"
        ]
        assert report.maps_fused == 2
        assert report.combiners_fused == 1

    def test_fused_results_match_unfused_local_and_distributed(self):
        plain, _ = compile_plan(CHAIN, optimize=False)
        fused, _ = compile_plan(CHAIN)
        expected = (
            LocalExecutor(lambda n: RAW).run(plain).table("out").to_records()
        )
        assert (
            LocalExecutor(lambda n: RAW).run(fused).table("out").to_records()
            == expected
        )
        for parallelism in (1, 4):
            result = DistributedExecutor(
                lambda n: RAW, num_partitions=3, parallelism=parallelism
            ).run(fused)
            assert result.table("out").to_records() == expected

    def test_telemetry_still_attributed_per_sub_task(self):
        fused, _ = compile_plan(CHAIN)
        context = TaskContext()
        LocalExecutor(lambda n: RAW).run(fused, context)
        # Each sub-task of the fused pipeline still bumps its own row
        # counter, so profiles remain complete after fusion.
        assert context.counters.get("task.up.rows") == RAW.num_rows
        assert context.counters.get("task.keep.rows_in") == RAW.num_rows
        assert context.counters.get("task.keep.rows_out") == 2


class TestFusedPipelineTask:
    def _subs(self):
        registry = default_task_registry()
        ff = parse_flow_file(CHAIN)
        tasks = registry.build_section(
            {name: spec.config for name, spec in ff.tasks.items()}
        )
        return [tasks["up"], tasks["double"], tasks["keep"]]

    def test_requires_two_sub_tasks(self):
        subs = self._subs()
        with pytest.raises(CompilationError):
            FusedPipelineTask(subs[:1])

    def test_required_columns_skip_chain_produced_columns(self):
        fused = FusedPipelineTask(self._subs())
        # v2 is produced inside the chain; K likewise.  Only the raw
        # inputs remain external requirements.
        assert fused.required_columns() == {"k", "v"}

    def test_preserves_rows_is_conjunctive(self):
        subs = self._subs()
        keep = subs[2]
        # Two filters: every sub preserves rows, so the chain does too.
        assert FusedPipelineTask([keep, keep]).preserves_rows()
        # A map in the chain does not guarantee row preservation.
        assert not FusedPipelineTask(subs).preserves_rows()

    def test_partition_local(self):
        assert FusedPipelineTask(self._subs()).partition_local()

    def test_apply_chains_sub_tasks(self):
        fused = FusedPipelineTask(self._subs())
        out = fused.apply([RAW], TaskContext())
        assert out.to_records() == [
            {"k": "b", "v": 3, "K": "B", "v2": 6},
            {"k": "c", "v": 5, "K": "C", "v2": 10},
        ]

    def test_fingerprint_distinguishes_sub_configs(self):
        subs = self._subs()
        a = FusedPipelineTask(subs)
        b = FusedPipelineTask(subs[:2])
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == FusedPipelineTask(self._subs()).fingerprint()

    def test_output_schema_folds_through_chain(self):
        fused = FusedPipelineTask(self._subs())
        schema = fused.output_schema([RAW.schema])
        assert schema.names == ["k", "v", "K", "v2"]


COMBINE = (
    "D:\n    raw: [k, v]\n"
    "D.raw:\n    source: raw.csv\n"
    "F:\n    D.out: D.raw | T.up | T.double | T.agg\n"
    "T:\n"
    "    up:\n        type: map\n        operator: upper\n"
    "        transform: k\n        output: K\n"
    "    double:\n        type: add_column\n        expression: v * 2\n"
    "        output: v2\n"
    "    agg:\n        type: groupby\n        groupby: [K]\n"
    "        aggregates:\n"
    "            - operator: sum\n"
    "              apply_on: v2\n"
    "              out_field: t\n"
    "            - operator: count\n"
    "              out_field: n\n"
)

WIDE = Table.from_rows(
    Schema.of("k", "v"), [("abc"[i % 3], i) for i in range(40)]
)


def _compile_with_tasks(source):
    ff = parse_flow_file(source)
    tasks = default_task_registry().build_section(
        {name: spec.config for name, spec in ff.tasks.items()}
    )
    plan = build_logical_plan(build_dag(ff), tasks)
    return plan, tasks, optimize_plan(plan)


class TestCombinerFusion:
    def test_fused_chain_becomes_the_groupby_prelude(self):
        plan, tasks, report = _compile_with_tasks(COMBINE)
        # The pruning projection, the map and the column add fuse into
        # one chain, which becomes the groupby's prelude.
        assert report.maps_fused == 3
        assert report.combiners_fused == 1
        node = plan.node_for_output("out")
        assert node.label() == "fused:__prune_raw+up+double+agg"
        assert isinstance(node.task, PreludeGroupByTask)
        assert [t.name for t in node.task.prelude.sub_tasks] == [
            "__prune_raw", "up", "double"
        ]
        assert plan.nodes[node.inputs[0]].kind == "load"

    def test_compiled_groupby_is_shared_not_mutated(self):
        # Incremental refresh reads the compiled task set, so the
        # wrapper must hold the very same, untouched group-by.
        plan, tasks, _ = _compile_with_tasks(COMBINE)
        before = tasks["agg"].fingerprint()
        node = plan.node_for_output("out")
        assert node.task.groupby is tasks["agg"]
        assert tasks["agg"].fingerprint() == before
        assert type(tasks["agg"]) is GroupByTask

    def test_materialized_feeder_stays_its_own_stage(self):
        source = COMBINE.replace(
            "    D.out: D.raw | T.up | T.double | T.agg\n",
            "    D.mid: D.raw | T.up | T.double\n"
            "    D.out: D.mid | T.agg\n",
        )
        plan, _tasks, report = _compile_with_tasks(source)
        assert report.combiners_fused == 0
        assert plan.node_for_output("out").label() == "groupby:agg"

    def test_fan_out_feeder_stays_its_own_stage(self):
        # Two flows read raw, so the pruning projection inserted after
        # the load feeds both group-bys and fuses into neither.
        source = (
            "D:\n    raw: [k, v, unused]\n"
            "D.raw:\n    source: raw.csv\n"
            "F:\n    D.out: D.raw | T.agg\n    D.other: D.raw | T.agg\n"
            "T:\n    agg:\n        type: groupby\n        groupby: [k]\n"
            "        aggregates:\n"
            "            - operator: sum\n"
            "              apply_on: v\n"
        )
        plan, _tasks, report = _compile_with_tasks(source)
        assert report.projections_inserted == 1
        assert report.combiners_fused == 0
        labels = sorted(n.label() for n in plan.topological_order())
        assert labels == [
            "groupby:agg", "groupby:agg", "load(raw)", "project:__prune_raw"
        ]

    @pytest.mark.parametrize("use_combiner", [True, False])
    @pytest.mark.parametrize("partitions", [1, 3])
    def test_results_match_unfused(self, use_combiner, partitions):
        plain, _ = compile_plan(COMBINE, optimize=False)
        fused, _ = compile_plan(COMBINE)
        rows = lambda t: sorted(map(repr, t.to_records()))
        expected = rows(
            LocalExecutor(lambda n: WIDE).run(plain).table("out")
        )
        assert rows(
            LocalExecutor(lambda n: WIDE).run(fused).table("out")
        ) == expected
        for plan in (plain, fused):
            result = DistributedExecutor(
                lambda n: WIDE,
                num_partitions=partitions,
                use_combiner=use_combiner,
            ).run(plan)
            assert rows(result.table("out")) == expected

    def test_stages_with_and_without_a_combiner(self):
        fused, _ = compile_plan(COMBINE)
        combined = DistributedExecutor(
            lambda n: WIDE, num_partitions=3
        ).run(fused)
        # Prelude + partial aggregate run as one map unit per
        # partition: one stage, and only partials are shuffled.
        assert [(s.task, s.kind) for s in combined.stages[1:]] == [
            ("__prune_raw+up+double+agg", "shuffle")
        ]
        assert combined.stages[-1].shuffled_records <= 3 * 3
        separate = DistributedExecutor(
            lambda n: WIDE, num_partitions=3, use_combiner=False
        ).run(fused)
        # No combiner: the prelude runs as its own map pass first.
        assert [(s.task, s.kind) for s in separate.stages[1:]] == [
            ("__prune_raw+up+double", "map"), ("agg", "shuffle")
        ]
        assert separate.stages[-1].shuffled_records == WIDE.num_rows
