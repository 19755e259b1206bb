"""Logical execution plans.

A :class:`LogicalPlan` is the operator-level DAG lowered from a flow
file's flows (paper Fig. 25's AST after DAG assembly): ``load`` nodes for
external/shared data objects and ``task`` nodes for every task
application.  The optimizer rewrites this structure; the executors walk
it in topological order.
"""

from __future__ import annotations

import heapq
import itertools
import json
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.compiler.dag import FlowDag
from repro.data import Schema, Table
from repro.errors import CompilationError
from repro.tasks.base import Task, TaskContext
from repro.tasks.groupby import GroupByTask


class FusedPipelineTask(Task):
    """A run of adjacent partition-local tasks, executed as one stage.

    The optimizer's map-chain fusion collapses ``a | b | c`` (all
    partition-local, no fan-out, no materialized intermediates) into a
    single plan node carrying this task.  Each partition then flows
    through the whole chain in one scheduled unit — one partition pass,
    one attempt span, one round of retry bookkeeping — instead of
    paying per-node partitioning, scheduling and gather overhead, and
    no intermediate data object is ever materialized or shuffled.

    Telemetry stays attributed: every sub-task's ``apply`` still bumps
    its own ``task.<name>.rows`` counter, and the node's label names
    the full chain (``fused:a+b+c``) so ``run --profile`` rows remain
    self-describing.
    """

    type_name = "fused"
    arity = (1, 1)

    def __init__(self, sub_tasks: Sequence[Task]):
        subs = list(sub_tasks)
        if len(subs) < 2:
            raise CompilationError(
                "a fused pipeline needs at least two sub-tasks"
            )
        self._subs = subs
        super().__init__("+".join(t.name for t in subs), {})

    @property
    def sub_tasks(self) -> list[Task]:
        return list(self._subs)

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        schema = input_schemas[0]
        for sub in self._subs:
            schema = sub.output_schema([schema])
        return schema

    def required_columns(self) -> set[str]:
        needed: set[str] = set()
        produced: set[str] = set()
        for sub in self._subs:
            needed |= set(sub.required_columns()) - produced
            output = str(sub.config.get("output", "") or "")
            if output:
                produced.add(output)
        return needed

    def preserves_rows(self) -> bool:
        return all(sub.preserves_rows() for sub in self._subs)

    def partition_local(self) -> bool:
        return all(sub.partition_local() for sub in self._subs)

    def apply(self, inputs: Sequence[Table], context: TaskContext) -> Table:
        table = self._single(inputs)
        for sub in self._subs:
            table = sub.apply([table], context)
        return table

    def fingerprint(self) -> str:
        # Sub-task configs (not just names) must distinguish two fused
        # chains, same as for any single task.
        return json.dumps(
            {
                "type": self.type_name,
                "subs": [
                    json.loads(sub.fingerprint()) for sub in self._subs
                ],
            },
            sort_keys=True,
        )


class PreludeGroupByTask(FusedPipelineTask):
    """A group-by fused with the partition-local work feeding it.

    Combiner fusion turns ``a | agg`` — ``a`` partition-local (one task
    or a :class:`FusedPipelineTask`), not materialized and read only by
    ``agg`` — into one plan node whose sub-tasks are ``[a, agg]``.
    When the distributed engine runs a map-side combiner it applies
    prelude + partial aggregate as one unit per partition, so only the
    partials leave the worker; without a combiner it runs the prelude
    as its own map pass first.  The local engine applies the chain as
    is: the prelude, then the group-by.

    Both tasks are held by reference and never mutated: the compiled
    task set (which incremental refresh reads) shares the group-by.
    The label names the whole chain (``fused:a+agg``).
    """

    def __init__(self, prelude: Task, groupby: GroupByTask):
        super().__init__([prelude, groupby])
        self.prelude = prelude
        self.groupby = groupby


@dataclass
class PlanNode:
    """One operator in the plan."""

    id: str
    kind: str  # "load" | "task"
    inputs: list[str] = field(default_factory=list)
    #: the task instance for kind="task"
    task: Task | None = None
    #: data-object name loaded, for kind="load"
    load_name: str | None = None
    #: data-object name this node materializes (flow outputs)
    materializes: str | None = None
    #: data-object names of the inputs, when known (set on the first
    #: task of a flow; join tasks use these to order left/right)
    input_names: list[str] = field(default_factory=list)

    def label(self) -> str:
        if self.kind == "load":
            return f"load({self.load_name})"
        assert self.task is not None
        return f"{self.task.type_name}:{self.task.name}"


class LogicalPlan:
    """An operator DAG with deterministic topological order."""

    def __init__(self) -> None:
        self.nodes: dict[str, PlanNode] = {}
        self._counter = itertools.count()

    def new_id(self, prefix: str) -> str:
        return f"{prefix}_{next(self._counter)}"

    def add(self, node: PlanNode) -> PlanNode:
        if node.id in self.nodes:
            raise CompilationError(f"duplicate plan node {node.id!r}")
        self.nodes[node.id] = node
        return node

    def add_load(self, name: str) -> PlanNode:
        return self.add(
            PlanNode(
                id=self.new_id("load"),
                kind="load",
                load_name=name,
                materializes=name,
            )
        )

    def add_task(
        self, task: Task, inputs: list[str], materializes: str | None = None
    ) -> PlanNode:
        return self.add(
            PlanNode(
                id=self.new_id("task"),
                kind="task",
                task=task,
                inputs=list(inputs),
                materializes=materializes,
            )
        )

    def node_for_output(self, name: str) -> PlanNode:
        for node in self.nodes.values():
            if node.materializes == name:
                return node
        raise CompilationError(f"no plan node materializes {name!r}")

    def consumers(self, node_id: str) -> list[PlanNode]:
        return [n for n in self.nodes.values() if node_id in n.inputs]

    def topological_order(self) -> list[PlanNode]:
        # Build the adjacency (consumers) map once: O(V + E), instead
        # of rescanning every node per popped node (O(V·E)) — this runs
        # on every execution, and large plans were paying for it.
        consumers: dict[str, list[str]] = {nid: [] for nid in self.nodes}
        in_degree: dict[str, int] = {}
        for node_id, node in self.nodes.items():
            in_degree[node_id] = len(node.inputs)
            for input_id in node.inputs:
                consumers.setdefault(input_id, []).append(node_id)
        heap = [nid for nid, deg in in_degree.items() if deg == 0]
        heapq.heapify(heap)
        order: list[PlanNode] = []
        while heap:
            current = heapq.heappop(heap)
            order.append(self.nodes[current])
            for consumer in consumers[current]:
                in_degree[consumer] -= 1
                if in_degree[consumer] == 0:
                    heapq.heappush(heap, consumer)
        if len(order) != len(self.nodes):
            raise CompilationError("logical plan contains a cycle")
        return order

    def __iter__(self) -> Iterator[PlanNode]:
        return iter(self.topological_order())

    def __len__(self) -> int:
        return len(self.nodes)

    def describe(self) -> str:
        """Human-readable plan dump (one node per line)."""
        lines = []
        for node in self.topological_order():
            deps = ", ".join(node.inputs) or "-"
            mat = f" => D.{node.materializes}" if node.materializes else ""
            lines.append(f"{node.id}: {node.label()} [{deps}]{mat}")
        return "\n".join(lines)


def build_logical_plan(
    dag: FlowDag, tasks: dict[str, Task]
) -> LogicalPlan:
    """Lower a flow DAG to the operator-level plan.

    Load nodes are created for DAG sources; flow outputs that feed other
    flows are shared (each materialized data object has exactly one
    producing node).
    """
    plan = LogicalPlan()
    node_for_name: dict[str, str] = {}
    for source in sorted(dag.sources):
        node = plan.add_load(source)
        node_for_name[source] = node.id

    for flow in dag.ordered_flows():
        input_ids = []
        for input_name in flow.inputs:
            node_id = node_for_name.get(input_name)
            if node_id is None:
                raise CompilationError(
                    f"flow {flow.output!r}: input {input_name!r} has no "
                    f"plan node"
                )
            input_ids.append(node_id)
        current_inputs = input_ids
        last_node: PlanNode | None = None
        for i, task_name in enumerate(flow.tasks):
            task = tasks.get(task_name)
            if task is None:
                raise CompilationError(
                    f"flow {flow.output!r} uses undefined task "
                    f"{task_name!r}"
                )
            is_last = i == len(flow.tasks) - 1
            last_node = plan.add_task(
                task,
                current_inputs,
                materializes=flow.output if is_last else None,
            )
            if i == 0:
                last_node.input_names = list(flow.inputs)
            current_inputs = [last_node.id]
        if last_node is None:
            raise CompilationError(
                f"flow {flow.output!r} has no tasks"
            )
        node_for_name[flow.output] = last_node.id
    return plan
