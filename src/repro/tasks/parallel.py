"""``parallel`` composite tasks.

Configuration (paper Fig. 20)::

    players_pipeline:
      type: parallel
      parallel: [T.norm_ipldate, T.extract_players]

Each referenced sub-task transforms the *original* input independently
("transforms (in parallel) the date ... and extracts player names",
§3.7.1); their added columns are merged into one output (Fig. 22's
intermediate schema).  The independence constraint is enforced: a sub-task
may only read columns present on the shared input, never a sibling's
output.  The engines are free to execute sub-tasks concurrently; results
are merged deterministically in declaration order.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.data import Schema, Table
from repro.errors import TaskConfigError
from repro.tasks.base import Task, TaskContext


def _strip_task_prefix(reference: str) -> str:
    reference = str(reference).strip()
    if reference.startswith("T."):
        return reference[2:]
    return reference


class ParallelTask(Task):
    """The ``type: parallel`` task."""

    type_name = "parallel"

    def _validate_config(self) -> None:
        refs = self.config_list("parallel", required=True)
        self._refs = [_strip_task_prefix(r) for r in refs]
        if not self._refs:
            raise TaskConfigError(
                f"parallel task {self.name!r} needs at least one sub-task"
            )
        self._resolver: Callable[[str], Task] | None = None

    @property
    def sub_task_names(self) -> list[str]:
        return list(self._refs)

    def bind(self, resolver: Callable[[str], Task]) -> None:
        """Attach the task resolver (set by the registry after build)."""
        self._resolver = resolver

    def __getstate__(self) -> dict[str, Any]:
        # The registry's resolver closes over the whole task set and
        # cannot pickle; a pickled copy (a warm-pool dispatch) carries
        # its resolved sub-tasks instead.
        state = self.__dict__.copy()
        if self._resolver is not None:
            state["_resolver"] = dict(
                zip(self._refs, self._sub_tasks())
            ).__getitem__
        return state

    def _sub_tasks(self) -> list[Task]:
        if self._resolver is None:
            raise TaskConfigError(
                f"parallel task {self.name!r} is not bound to a task set"
            )
        tasks = []
        for ref in self._refs:
            sub = self._resolver(ref)
            if isinstance(sub, ParallelTask):
                raise TaskConfigError(
                    f"parallel task {self.name!r} cannot nest parallel "
                    f"task {ref!r}"
                )
            tasks.append(sub)
        return tasks

    def required_columns(self) -> set[str]:
        needed: set[str] = set()
        for sub in self._sub_tasks():
            needed |= sub.required_columns()
        return needed

    def partition_local(self) -> bool:
        return all(sub.partition_local() for sub in self._sub_tasks())

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        schema = input_schemas[0]
        # Independence: every sub-task must be satisfied by the original
        # input schema alone.
        for sub in self._sub_tasks():
            schema.require(
                sub.required_columns(),
                context=f"{self.name} -> {sub.name}",
            )
        merged = schema
        for sub in self._sub_tasks():
            sub_schema = sub.output_schema([schema])
            for column in sub_schema:
                if column.name not in merged:
                    merged = merged.with_column(column)
        return merged

    def apply(self, inputs: Sequence[Table], context: TaskContext) -> Table:
        table = self._single(inputs)
        merged = table
        for sub in self._sub_tasks():
            # Apply against the ORIGINAL table, merge new columns.
            result = sub.apply([table], context)
            for name in result.schema.names:
                if name not in merged.schema:
                    merged = merged.with_column(name, result.column(name))
        context.bump(f"task.{self.name}.subtasks", len(self._refs))
        return merged
