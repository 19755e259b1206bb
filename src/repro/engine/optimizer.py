"""Logical-plan optimizer.

"The AST provides opportunities to optimize the complete flow.  For
example, tasks can be re-arranged to minimize data transfers to the
browser" (paper §4.1; §6 names execution optimization as the main future
direction).  Five rewrites are implemented, all preserving semantics:

1. **Filter pushdown** — an expression filter hops over an upstream map
   whose output column it does not reference, so fewer rows pay for the
   map operator.
2. **Projection pruning** — a ``project`` node is inserted after a load
   when the downstream pipeline provably needs a subset of its columns
   (computed by walking requirements backwards), shrinking every
   downstream row.
3. **Map-chain fusion** — maximal runs of adjacent partition-local
   nodes (map/filter/cleansing/project/parallel) collapse into a single
   :class:`~repro.engine.plan.FusedPipelineTask` node, so each
   partition flows through the whole chain in one scheduled pass with
   no intermediate materialization.  A node ends its chain when it
   materializes a flow output (those can be checkpointed and consumed
   by other flows) or has fan-out consumers.
4. **Combiner fusion** — fusion extends into the map-side combiner: a
   partition-local node (or fused chain) whose only consumer is a
   single-input group-by becomes that group-by's *prelude*
   (:class:`~repro.engine.plan.PreludeGroupByTask`).  The distributed
   engine then runs prelude + partial aggregate as one unit per
   partition, so the prelude's full-size output never leaves the
   worker — only the partial aggregates do.
5. **Endpoint-transfer minimization** — for widget pipelines (handled in
   :mod:`repro.engine.datacube` / the dashboard runtime): selection-
   independent tasks are split out of the interaction flow and evaluated
   once server-side, so only reduced data ships to the client cube.
   :func:`split_widget_pipeline` implements the split; the ablation
   benchmark measures the transferred-bytes difference.

:func:`optimize_plan` returns a report of what changed so benchmarks and
the dashboard editor can show optimization effects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.plan import (
    FusedPipelineTask,
    LogicalPlan,
    PlanNode,
    PreludeGroupByTask,
)
from repro.tasks.filter import FilterTask
from repro.tasks.groupby import GroupByTask
from repro.tasks.map_ops import MapTask
from repro.tasks.misc import AddColumnTask, ProjectTask
from repro.tasks.topn import TopNTask


@dataclass
class OptimizationReport:
    """What the optimizer did to a plan."""

    filters_pushed: int = 0
    projections_inserted: int = 0
    #: partition-local nodes absorbed into fused pipeline nodes
    maps_fused: int = 0
    #: partition-local nodes absorbed as a group-by's prelude
    combiners_fused: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return bool(
            self.filters_pushed
            or self.projections_inserted
            or self.maps_fused
            or self.combiners_fused
        )


def optimize_plan(plan: LogicalPlan) -> OptimizationReport:
    """Rewrite ``plan`` in place; returns the report."""
    report = OptimizationReport()
    _push_filters(plan, report)
    _prune_projections(plan, report)
    _fuse_map_chains(plan, report)
    _fuse_into_combiners(plan, report)
    return report


# ---------------------------------------------------------------------------
# 1. filter pushdown
# ---------------------------------------------------------------------------


def _push_filters(plan: LogicalPlan, report: OptimizationReport) -> None:
    changed = True
    while changed:
        changed = False
        for node in list(plan.nodes.values()):
            if not _is_expression_filter(node):
                continue
            if len(node.inputs) != 1:
                continue
            upstream = plan.nodes[node.inputs[0]]
            if not _filter_can_hop(node, upstream):
                continue
            _swap(plan, upstream, node)
            report.filters_pushed += 1
            report.notes.append(
                f"pushed filter {node.task.name!r} below "  # type: ignore[union-attr]
                f"{upstream.label()}"
            )
            changed = True
            break


def _is_expression_filter(node: PlanNode) -> bool:
    return (
        node.kind == "task"
        and isinstance(node.task, FilterTask)
        and node.task.widget_source is None
    )


def _filter_can_hop(filter_node: PlanNode, upstream: PlanNode) -> bool:
    """Can the filter run before ``upstream``?

    Legal when upstream is a column-adding map whose output column the
    filter does not reference.  The filter must also not be the
    materializing node of its flow (hopping would change what the sink
    contains — it wouldn't here since filters preserve schema, but the
    upstream map's node would then materialize the sink, so we re-point
    materialization during the swap instead).
    """
    if upstream.kind != "task" or len(upstream.inputs) != 1:
        return False
    task = upstream.task
    if not isinstance(task, (MapTask, AddColumnTask)):
        return False
    if upstream.materializes is not None:
        return False  # another flow consumes this exact result
    output_column = str(task.config.get("output", ""))
    filter_refs = filter_node.task.required_columns()  # type: ignore[union-attr]
    return output_column not in filter_refs


def _swap(plan: LogicalPlan, upstream: PlanNode, filter_node: PlanNode) -> None:
    """Reorder ``source -> upstream -> filter`` to ``source -> filter ->
    upstream`` keeping downstream links and materialization intact."""
    source_id = upstream.inputs[0]
    filter_node.inputs = [source_id]
    upstream.inputs = [filter_node.id]
    # Downstream consumers of the filter now consume the upstream map.
    for consumer in plan.nodes.values():
        if consumer.id in (upstream.id, filter_node.id):
            continue
        consumer.inputs = [
            upstream.id if i == filter_node.id else i
            for i in consumer.inputs
        ]
    upstream.materializes, filter_node.materializes = (
        filter_node.materializes,
        None,
    )


# ---------------------------------------------------------------------------
# map-chain fusion
# ---------------------------------------------------------------------------


def _fuse_map_chains(plan: LogicalPlan, report: OptimizationReport) -> None:
    """Collapse maximal runs of adjacent partition-local nodes.

    Runs after pushdown and pruning so chains are fused in their final
    shape.  A node may absorb its successor only when the successor is
    its sole consumer — a materialized output (also the checkpointable
    unit) or a fan-out point ends the chain, since other readers need
    that exact intermediate.  The chain's tail node is mutated in place
    (keeping its id, ``materializes`` and downstream edges) and the
    absorbed nodes are removed from the plan.
    """
    consumed: set[str] = set()
    for node in plan.topological_order():
        if node.id in consumed or not _fusable(node):
            continue
        chain = [node]
        while True:
            tail = chain[-1]
            if tail.materializes is not None:
                break
            consumers = plan.consumers(tail.id)
            if len(consumers) != 1:
                break
            successor = consumers[0]
            if not _fusable(successor) or successor.inputs != [tail.id]:
                break
            chain.append(successor)
        if len(chain) < 2:
            continue
        head, tail = chain[0], chain[-1]
        tail.task = FusedPipelineTask([n.task for n in chain])
        tail.inputs = list(head.inputs)
        tail.input_names = list(head.input_names)
        for dropped in chain[:-1]:
            del plan.nodes[dropped.id]
            consumed.add(dropped.id)
        consumed.add(tail.id)
        report.maps_fused += len(chain)
        report.notes.append(
            f"fused {len(chain)} partition-local nodes into "
            f"{tail.label()}"
        )


def _fuse_into_combiners(
    plan: LogicalPlan, report: OptimizationReport
) -> None:
    """Make each group-by's sole partition-local feeder its prelude.

    Runs after map-chain fusion, so a whole fused chain becomes one
    prelude.  The group-by node keeps its id, ``materializes`` and
    downstream edges; its task is wrapped, never mutated (the compiled
    task set shares the instance).
    """
    for node in plan.topological_order():
        if not _fusable(node) or node.materializes is not None:
            continue
        consumers = plan.consumers(node.id)
        if len(consumers) != 1:
            continue
        groupby = consumers[0]
        if (
            groupby.kind != "task"
            or not isinstance(groupby.task, GroupByTask)
            or groupby.inputs != [node.id]
        ):
            continue
        report.combiners_fused += 1
        report.notes.append(
            f"fused {node.label()} into {groupby.label()} as its "
            f"combiner prelude"
        )
        groupby.task = PreludeGroupByTask(node.task, groupby.task)
        groupby.inputs = list(node.inputs)
        groupby.input_names = list(node.input_names)
        del plan.nodes[node.id]


def _fusable(node: PlanNode) -> bool:
    return (
        node.kind == "task"
        and node.task is not None
        and len(node.inputs) == 1
        and node.task.partition_local()
    )


# ---------------------------------------------------------------------------
# 2. projection pruning
# ---------------------------------------------------------------------------


def _prune_projections(plan: LogicalPlan, report: OptimizationReport) -> None:
    for node in list(plan.nodes.values()):
        if node.kind != "load":
            continue
        needed = _needed_columns(plan, node)
        if needed is None:
            continue
        consumers = plan.consumers(node.id)
        if not consumers:
            continue
        project = ProjectTask(
            f"__prune_{node.load_name}", {"columns": sorted(needed)}
        )
        project_node = plan.add_task(project, [node.id])
        project_node.input_names = [node.load_name or ""]
        for consumer in consumers:
            consumer.inputs = [
                project_node.id if i == node.id else i
                for i in consumer.inputs
            ]
            if not consumer.input_names:
                consumer.input_names = [node.load_name or ""]
        report.projections_inserted += 1
        report.notes.append(
            f"pruned load({node.load_name}) to columns {sorted(needed)}"
        )


def _needed_columns(plan: LogicalPlan, load: PlanNode) -> set[str] | None:
    """Columns of ``load`` the rest of the plan can possibly read.

    Conservative: the walk stops (returns None → no pruning) whenever a
    downstream task could read arbitrary columns (python/custom tasks,
    joins with default projection, widget filters, parallel composites)
    or when requirements cannot be traced.
    """
    needed: set[str] = set()
    for consumer in plan.consumers(load.id):
        columns = _columns_read_by_chain(plan, consumer)
        if columns is None:
            return None
        needed |= columns
    return needed or None


#: task types whose column requirements are fully described by
#: required_columns() + pass-through of referenced columns
_TRACEABLE = (FilterTask, MapTask, AddColumnTask, GroupByTask, TopNTask)


def _columns_read_by_chain(
    plan: LogicalPlan, node: PlanNode
) -> set[str] | None:
    if node.kind != "task" or node.task is None:
        return None
    task = node.task
    if isinstance(task, ProjectTask):
        return set(task.columns)
    if isinstance(task, GroupByTask):
        # Aggregations consume exactly their declared columns.
        return set(task.required_columns())
    if isinstance(task, TopNTask):
        # TopN preserves all columns, so everything downstream still
        # needs whatever IT needs — give up unless it ends the chain.
        return None
    if isinstance(task, (FilterTask, MapTask, AddColumnTask)):
        own = set(task.required_columns())
        downstream: set[str] = set()
        consumers = plan.consumers(node.id)
        if not consumers and node.materializes:
            return None  # a sink keeps every column
        for consumer in consumers:
            columns = _columns_read_by_chain(plan, consumer)
            if columns is None:
                return None
            downstream |= columns
        produced = {str(task.config.get("output", ""))}
        return own | (downstream - produced)
    return None
