"""Unit tests for topn, parallel, and the structural tasks."""

import pickle

import pytest

from repro.data import Schema, Table
from repro.errors import TaskConfigError
from repro.tasks.base import TaskContext
from repro.tasks.misc import (
    AddColumnTask,
    DistinctTask,
    LimitTask,
    ProjectTask,
    RenameTask,
    SortTask,
    UnionTask,
)
from repro.tasks.parallel import ParallelTask
from repro.tasks.registry import default_task_registry
from repro.tasks.topn import TopNTask


def table(rows, *names):
    return Table.from_rows(Schema.of(*names), rows)


CTX = TaskContext


class TestTopN:
    def make(self, **overrides):
        """The paper's topwords task (Appendix A.1)."""
        config = {
            "groupby": ["date"],
            "orderby_column": ["count DESC"],
            "limit": 2,
        }
        config.update(overrides)
        return TopNTask("topwords", config)

    def test_per_group_limit(self):
        data = table(
            [
                ("d1", "a", 5), ("d1", "b", 9), ("d1", "c", 1),
                ("d2", "x", 4),
            ],
            "date", "word", "count",
        )
        out = self.make().apply([data], CTX())
        by_date = {}
        for row in out.rows():
            by_date.setdefault(row["date"], []).append(row["word"])
        assert by_date == {"d1": ["b", "a"], "d2": ["x"]}

    def test_global_topn_without_groupby(self):
        data = table([(3,), (1,), (9,)], "v")
        task = TopNTask(
            "t", {"orderby_column": ["v DESC"], "limit": 2}
        )
        assert task.apply([data], CTX()).column("v") == [9, 3]

    def test_ascending_direction(self):
        data = table([(3,), (1,), (9,)], "v")
        task = TopNTask("t", {"orderby_column": ["v ASC"], "limit": 1})
        assert task.apply([data], CTX()).column("v") == [1]

    def test_limit_larger_than_group(self):
        data = table([("d", 1)], "g", "v")
        task = TopNTask(
            "t",
            {"groupby": ["g"], "orderby_column": ["v DESC"], "limit": 10},
        )
        assert task.apply([data], CTX()).num_rows == 1

    def test_missing_limit_raises(self):
        with pytest.raises(TaskConfigError, match="limit"):
            TopNTask("t", {"orderby_column": ["v DESC"]})

    def test_non_integer_limit_raises(self):
        with pytest.raises(TaskConfigError):
            TopNTask("t", {"orderby_column": ["v"], "limit": "many"})

    def test_zero_limit_raises(self):
        with pytest.raises(TaskConfigError, match="positive"):
            TopNTask("t", {"orderby_column": ["v"], "limit": 0})

    def test_bad_direction_raises(self):
        with pytest.raises(TaskConfigError, match="ASC or DESC"):
            TopNTask("t", {"orderby_column": ["v SIDEWAYS"], "limit": 1})

    def test_schema_preserved(self):
        task = self.make()
        schema = Schema.of("date", "word", "count")
        assert task.output_schema([schema]) == schema


class TestParallel:
    def make_bound(self):
        """Fig. 20's players_pipeline, built through the registry."""
        registry = default_task_registry()
        tasks = registry.build_section(
            {
                "players_pipeline": {
                    "parallel": ["T.add_one", "T.add_two"],
                },
                "add_one": {
                    "type": "add_column",
                    "expression": "v + 1",
                    "output": "plus_one",
                },
                "add_two": {
                    "type": "add_column",
                    "expression": "v + 2",
                    "output": "plus_two",
                },
            }
        )
        return tasks["players_pipeline"]

    def test_merges_columns_from_all_subtasks(self):
        data = table([(1,), (2,)], "v")
        out = self.make_bound().apply([data], CTX())
        assert out.schema.names == ["v", "plus_one", "plus_two"]
        assert out.column("plus_one") == [2, 3]
        assert out.column("plus_two") == [3, 4]

    def test_output_schema_merges(self):
        assert self.make_bound().output_schema([Schema.of("v")]).names == [
            "v", "plus_one", "plus_two"
        ]

    def test_subtasks_see_original_input_only(self):
        """Independence: a sub-task cannot read a sibling's output."""
        registry = default_task_registry()
        tasks = registry.build_section(
            {
                "pipe": {"parallel": ["T.a", "T.b"]},
                "a": {
                    "type": "add_column",
                    "expression": "v + 1",
                    "output": "from_a",
                },
                "b": {
                    "type": "add_column",
                    "expression": "from_a + 1",  # reads sibling output!
                    "output": "from_b",
                },
            }
        )
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            tasks["pipe"].output_schema([Schema.of("v")])

    def test_bound_task_survives_a_pickle_round_trip(self):
        # Warm-pool dispatch pickles every unit; the registry's resolver
        # closure cannot travel, so the copy carries its sub-tasks.
        task = self.make_bound()
        copy = pickle.loads(pickle.dumps(task))
        assert copy.sub_task_names == task.sub_task_names
        assert copy.fingerprint() == task.fingerprint()
        data = table([(1,), (2,)], "v")
        assert copy.apply([data], CTX()).to_records() == task.apply(
            [data], CTX()
        ).to_records()

    def test_unbound_parallel_raises(self):
        task = ParallelTask("p", {"parallel": ["T.x"]})
        with pytest.raises(TaskConfigError, match="not bound"):
            task.apply([table([(1,)], "v")], CTX())

    def test_dangling_reference_fails_at_build(self):
        registry = default_task_registry()
        with pytest.raises(TaskConfigError, match="unknown task"):
            registry.build_section({"p": {"parallel": ["T.ghost"]}})

    def test_nested_parallel_rejected(self):
        registry = default_task_registry()
        with pytest.raises(TaskConfigError, match="nest"):
            registry.build_section(
                {
                    "outer": {"parallel": ["T.inner"]},
                    "inner": {"parallel": ["T.leaf"]},
                    "leaf": {
                        "type": "add_column",
                        "expression": "1",
                        "output": "x",
                    },
                }
            )

    def test_empty_parallel_list_raises(self):
        with pytest.raises(TaskConfigError):
            ParallelTask("p", {"parallel": []})


class TestStructuralTasks:
    def test_project(self):
        out = ProjectTask("p", {"columns": ["b"]}).apply(
            [table([(1, 2)], "a", "b")], CTX()
        )
        assert out.schema.names == ["b"]

    def test_project_missing_column(self):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            ProjectTask("p", {"columns": ["z"]}).apply(
                [table([(1,)], "a")], CTX()
            )

    def test_rename(self):
        out = RenameTask("r", {"mapping": {"a": "x"}}).apply(
            [table([(1,)], "a")], CTX()
        )
        assert out.schema.names == ["x"]

    def test_rename_needs_mapping(self):
        with pytest.raises(TaskConfigError):
            RenameTask("r", {})

    def test_sort_multi_key(self):
        out = SortTask(
            "s", {"orderby_column": ["g ASC", "v DESC"]}
        ).apply([table([("b", 1), ("a", 1), ("a", 9)], "g", "v")], CTX())
        assert list(out.row_tuples()) == [("a", 9), ("a", 1), ("b", 1)]

    def test_limit(self):
        out = LimitTask("l", {"limit": 2}).apply(
            [table([(1,), (2,), (3,)], "v")], CTX()
        )
        assert out.num_rows == 2

    def test_limit_negative_raises(self):
        with pytest.raises(TaskConfigError):
            LimitTask("l", {"limit": -1})

    def test_union(self):
        out = UnionTask("u", {}).apply(
            [table([(1,)], "v"), table([(2,)], "v")], CTX()
        )
        assert out.column("v") == [1, 2]

    def test_union_incompatible_schemas(self):
        with pytest.raises(TaskConfigError):
            UnionTask("u", {}).output_schema(
                [Schema.of("a"), Schema.of("b")]
            )

    def test_distinct_by_columns(self):
        out = DistinctTask("d", {"columns": ["k"]}).apply(
            [table([("a", 1), ("a", 2)], "k", "v")], CTX()
        )
        assert out.num_rows == 1

    def test_add_column(self):
        out = AddColumnTask(
            "c", {"expression": "a * 10", "output": "b"}
        ).apply([table([(3,)], "a")], CTX())
        assert out.row(0) == {"a": 3, "b": 30}

    def test_add_column_needs_expression_and_output(self):
        with pytest.raises(TaskConfigError):
            AddColumnTask("c", {"output": "b"})
        with pytest.raises(TaskConfigError):
            AddColumnTask("c", {"expression": "1"})


class TestRegistry:
    def test_all_builtin_types_present(self):
        registry = default_task_registry()
        for name in (
            "map", "filter_by", "groupby", "join", "topn", "parallel",
            "project", "rename", "sort", "limit", "union", "distinct",
            "add_column", "python", "native_mr",
        ):
            assert name in registry.type_names()

    def test_unknown_type_raises(self):
        with pytest.raises(TaskConfigError, match="unknown type"):
            default_task_registry().create("x", {"type": "teleport"})

    def test_missing_type_raises(self):
        with pytest.raises(TaskConfigError, match="no 'type'"):
            default_task_registry().create("x", {})

    def test_parallel_without_type_key_accepted(self):
        """Fig. 20 omits `type:` on parallel tasks."""
        registry = default_task_registry()
        tasks = registry.build_section(
            {
                "p": {"parallel": ["T.a"]},
                "a": {
                    "type": "add_column", "expression": "1", "output": "x"
                },
            }
        )
        assert isinstance(tasks["p"], ParallelTask)

    def test_user_task_type_registration(self):
        from repro.tasks.base import Task

        class NoopTask(Task):
            type_name = "noop_test"

            def output_schema(self, input_schemas):
                return input_schemas[0]

            def apply(self, inputs, context):
                return inputs[0]

        registry = default_task_registry()
        registry.register_type(NoopTask)
        task = registry.create("n", {"type": "noop_test"})
        data = table([(1,)], "v")
        assert task.apply([data], CTX()) is data

    def test_duplicate_type_rejected(self):
        from repro.errors import ExtensionError
        from repro.tasks.map_ops import MapTask

        with pytest.raises(ExtensionError):
            default_task_registry().register_type(MapTask)
