"""Code generation: compiled flow file → engine artifacts (Fig. 25).

The paper's compiler emits "either a Pig/Spark job — for data processing
— and a data cube (in JavaScript) — for ad-hoc widget interaction".  Our
engines execute logical plans directly, but the artifacts are still
produced: a readable Pig-Latin-style script (one statement per plan node)
and a JSON cube specification (endpoint payloads plus per-widget client
pipelines).  Both serve as the inspectable lowering the dashboard editor
shows and as compile-path regression anchors for tests.
"""

from __future__ import annotations

import json
from typing import Any

from repro.compiler.compiler import CompiledFlowFile
from repro.engine.plan import FusedPipelineTask, PlanNode, PreludeGroupByTask
from repro.tasks.base import Task
from repro.tasks.filter import FilterTask
from repro.tasks.groupby import GroupByTask
from repro.tasks.join import JoinTask
from repro.tasks.map_ops import MapTask
from repro.tasks.misc import (
    AddColumnTask,
    DistinctTask,
    LimitTask,
    ProjectTask,
    SortTask,
    UnionTask,
)
from repro.tasks.parallel import ParallelTask
from repro.tasks.topn import TopNTask


def generate_pig_script(compiled: CompiledFlowFile) -> str:
    """Render the batch half of the compilation as a Pig-style script."""
    lines = [
        f"-- generated from flow file {compiled.flow_file.name!r}",
        "-- one statement per logical plan node",
    ]
    alias: dict[str, str] = {}
    for node in compiled.plan.topological_order():
        name = _alias(node, alias)
        if node.kind == "load":
            obj = compiled.flow_file.data.get(node.load_name or "")
            schema = (
                " AS (" + ", ".join(obj.schema.names) + ")"
                if obj is not None and obj.schema is not None
                else ""
            )
            source = (
                obj.config.get("source", node.load_name)
                if obj is not None
                else node.load_name
            )
            lines.append(f"{name} = LOAD '{source}'{schema};")
        else:
            assert node.task is not None
            task = node.task
            inputs = [alias[i] for i in node.inputs]
            if isinstance(task, PreludeGroupByTask):
                # A combiner prelude keeps its own statement.
                prelude = f"{name}_prelude"
                lines.append(
                    f"{prelude} = {_statement(task.prelude, inputs)};"
                )
                task, inputs = task.groupby, [prelude]
            lines.append(f"{name} = {_statement(task, inputs)};")
        if node.materializes:
            obj = compiled.flow_file.data.get(node.materializes)
            if obj is not None and obj.endpoint:
                lines.append(
                    f"STORE {name} INTO 'endpoint://{node.materializes}';"
                )
            elif obj is not None and obj.publish:
                lines.append(
                    f"STORE {name} INTO 'published://{obj.publish}';"
                )
    return "\n".join(lines) + "\n"


def _alias(node: PlanNode, alias: dict[str, str]) -> str:
    name = node.materializes or node.id
    alias[node.id] = name
    return name


def _statement(task: Task, inputs: list[str]) -> str:
    source = inputs[0] if inputs else "?"
    if isinstance(task, FilterTask):
        if task.widget_source is not None:
            return (
                f"FILTER {source} BY /* widget {task.widget_source} "
                f"selection */ TRUE"
            )
        return (
            f"FILTER {source} BY "
            f"{task.config.get('filter_expression', 'TRUE')}"
        )
    if isinstance(task, GroupByTask):
        keys = ", ".join(task.group_columns)
        aggs = ", ".join(
            f"{spec.get('operator', 'count').upper()}"
            f"({spec.get('apply_on', '*')}) AS "
            f"{spec.get('out_field') or spec.get('apply_on') or 'count'}"
            for spec in task._aggregate_specs()
        )
        return (
            f"FOREACH (GROUP {source} BY ({keys})) GENERATE "
            f"group, {aggs}"
        )
    if isinstance(task, JoinTask):
        right = inputs[1] if len(inputs) > 1 else "?"
        keys_left = ", ".join(task._left_keys)
        keys_right = ", ".join(task._right_keys)
        how = task._condition.upper()
        suffix = "" if how == "INNER" else f" {how} OUTER"
        return (
            f"JOIN {source} BY ({keys_left}){suffix}, "
            f"{right} BY ({keys_right})"
        )
    if isinstance(task, MapTask):
        operator = task.config.get("operator", "map")
        return (
            f"FOREACH {source} GENERATE *, "
            f"{operator}({task.config.get('transform', '*')}) AS "
            f"{task.config.get('output', 'out')}"
        )
    if isinstance(task, AddColumnTask):
        return (
            f"FOREACH {source} GENERATE *, "
            f"({task.config.get('expression')}) AS "
            f"{task.config.get('output')}"
        )
    if isinstance(task, TopNTask):
        order = ", ".join(task.config_list("orderby_column"))
        keys = ", ".join(task.group_columns) or "ALL"
        return (
            f"FOREACH (GROUP {source} BY ({keys})) {{ ordered = ORDER "
            f"{source} BY {order}; lim = LIMIT ordered "
            f"{task.config.get('limit')}; GENERATE FLATTEN(lim); }}"
        )
    if isinstance(task, ParallelTask):
        subs = ", ".join(task.sub_task_names)
        return f"FOREACH {source} GENERATE * /* parallel: {subs} */"
    if isinstance(task, FusedPipelineTask):
        chain = " | ".join(
            f"{sub.type_name}:{sub.name}" for sub in task.sub_tasks
        )
        return f"FOREACH {source} GENERATE * /* fused pipeline: {chain} */"
    if isinstance(task, ProjectTask):
        return f"FOREACH {source} GENERATE {', '.join(task.columns)}"
    if isinstance(task, SortTask):
        order = ", ".join(task.config_list("orderby_column"))
        return f"ORDER {source} BY {order}"
    if isinstance(task, LimitTask):
        return f"LIMIT {source} {task.config.get('limit')}"
    if isinstance(task, UnionTask):
        return f"UNION {', '.join(inputs)}"
    if isinstance(task, DistinctTask):
        return f"DISTINCT {source}"
    from repro.tasks.cleansing import CastTask, FillNaTask, SampleTask

    if isinstance(task, FillNaTask):
        fills = ", ".join(
            f"COALESCE({column}, "
            f"{'<' + task._strategy + '>' if task._strategy != 'constant' else repr(value)})"
            f" AS {column}"
            for column, value in task._fills.items()
        )
        return f"FOREACH {source} GENERATE *, {fills}"
    if isinstance(task, CastTask):
        casts = ", ".join(
            f"({ctype.value}) {column} AS {column}"
            for column, ctype in task._casts.items()
        )
        return f"FOREACH {source} GENERATE {casts}, *"
    if isinstance(task, SampleTask):
        amount = (
            task._fraction
            if task._fraction is not None
            else f"{task._n} ROWS"
        )
        return f"SAMPLE {source} {amount}"
    return f"/* custom task {task.type_name}:{task.name} */ {source}"


def generate_spark_job(compiled: CompiledFlowFile) -> str:
    """Render the batch half as a PySpark-style script.

    The paper's compiler targets "either a Pig/Spark job"; this is the
    Spark lowering — DataFrame API calls, one per plan node.  Like the
    Pig script it is an inspectable artifact (our simulated engine is
    what actually executes the plan).
    """
    lines = [
        f"# generated from flow file {compiled.flow_file.name!r}",
        "# PySpark DataFrame lowering, one statement per plan node",
        "from pyspark.sql import SparkSession, functions as F",
        "",
        "spark = SparkSession.builder.appName("
        f"{compiled.flow_file.name!r}).getOrCreate()",
    ]
    alias: dict[str, str] = {}
    for node in compiled.plan.topological_order():
        name = _alias(node, alias)
        if node.kind == "load":
            obj = compiled.flow_file.data.get(node.load_name or "")
            source = (
                obj.config.get("source", node.load_name)
                if obj is not None
                else node.load_name
            )
            fmt = (
                obj.config.get("format", "csv") if obj is not None else "csv"
            )
            lines.append(
                f"{name} = spark.read.format({str(fmt)!r})"
                f".option('header', True).load({str(source)!r})"
            )
        else:
            assert node.task is not None
            inputs = [alias[i] for i in node.inputs]
            lines.append(
                f"{name} = {_spark_statement(node.task, inputs)}"
            )
        if node.materializes:
            obj = compiled.flow_file.data.get(node.materializes)
            if obj is not None and obj.endpoint:
                lines.append(
                    f"{name}.write.mode('overwrite')"
                    f".save('endpoint://{node.materializes}')"
                )
    return "\n".join(lines) + "\n"


def _spark_statement(task: Task, inputs: list[str]) -> str:
    source = inputs[0] if inputs else "df"
    if isinstance(task, FilterTask):
        if task.widget_source is not None:
            return f"{source}  # widget filter: client-side cube"
        expr = str(task.config.get("filter_expression", "true"))
        return f"{source}.filter({expr!r})"
    if isinstance(task, GroupByTask):
        keys = ", ".join(repr(c) for c in task.group_columns)
        aggs = ", ".join(
            f"F.{_spark_agg(spec)}"
            for spec in task._aggregate_specs()
        )
        return f"{source}.groupBy({keys}).agg({aggs})"
    if isinstance(task, JoinTask):
        right = inputs[1] if len(inputs) > 1 else "df2"
        condition = " & ".join(
            f"({source}.{l} == {right}.{r})"
            for l, r in zip(task._left_keys, task._right_keys)
        )
        how = {"inner": "inner", "left": "left", "right": "right",
               "full": "outer"}[task._condition]
        return f"{source}.join({right}, {condition}, {how!r})"
    if isinstance(task, MapTask):
        return (
            f"{source}.withColumn("
            f"{str(task.config.get('output'))!r}, "
            f"udf_{task.config.get('operator')}("
            f"F.col({str(task.config.get('transform', ''))!r})))"
        )
    if isinstance(task, AddColumnTask):
        return (
            f"{source}.withColumn({str(task.config.get('output'))!r}, "
            f"F.expr({str(task.config.get('expression'))!r}))"
        )
    if isinstance(task, TopNTask):
        order = ", ".join(repr(e) for e in task.config_list("orderby_column"))
        keys = ", ".join(repr(c) for c in task.group_columns)
        return (
            f"top_n_per_group({source}, keys=[{keys}], "
            f"order=[{order}], limit={task.config.get('limit')})"
        )
    if isinstance(task, ProjectTask):
        return f"{source}.select({', '.join(map(repr, task.columns))})"
    if isinstance(task, SortTask):
        order = ", ".join(
            repr(e) for e in task.config_list("orderby_column")
        )
        return f"{source}.orderBy({order})"
    if isinstance(task, LimitTask):
        return f"{source}.limit({task.config.get('limit')})"
    if isinstance(task, UnionTask):
        return ".unionByName(".join(inputs) + ")" * (len(inputs) - 1)
    if isinstance(task, DistinctTask):
        return f"{source}.dropDuplicates()"
    if isinstance(task, ParallelTask):
        return f"{source}  # parallel: {', '.join(task.sub_task_names)}"
    if isinstance(task, FusedPipelineTask):
        # A fused chain is just the sub-statements applied in order.
        expression = source
        for sub in task.sub_tasks:
            expression = _spark_statement(sub, [expression])
        return expression
    return f"{source}  # custom task {task.type_name}:{task.name}"


def _spark_agg(spec: dict) -> str:
    operator = str(spec.get("operator", "count")).lower()
    apply_on = spec.get("apply_on", "*")
    out = spec.get("out_field") or apply_on or "count"
    fn = {"sum": "sum", "count": "count", "avg": "avg", "mean": "avg",
          "min": "min", "max": "max"}.get(operator, operator)
    return f"{fn}({str(apply_on)!r}).alias({str(out)!r})"


def generate_cube_spec(compiled: CompiledFlowFile) -> str:
    """Render the interactive half as a JSON cube specification.

    Lists each endpoint payload and, per widget, the client-side pipeline
    the browser cube would evaluate — the artifact the paper's generated
    single-page app embeds.
    """
    spec: dict[str, Any] = {
        "dashboard": compiled.flow_file.name,
        "endpoints": compiled.endpoint_names,
        "widgets": {},
    }
    for name, plan in compiled.widget_plans.items():
        widget_spec: dict[str, Any] = {"type": plan.widget.type_name}
        if plan.is_static:
            widget_spec["static"] = plan.static_values
        else:
            widget_spec["source"] = plan.source_name
            widget_spec["server_tasks"] = [
                t.name for t in plan.server_tasks
            ]
            widget_spec["client_tasks"] = [
                {"name": t.name, "type": t.type_name}
                for t in plan.client_tasks
            ]
        spec["widgets"][name] = widget_spec
    return json.dumps(spec, indent=2, sort_keys=True)
