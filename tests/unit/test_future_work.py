"""Unit tests for the §6 future-work features: profiling,
meta-dashboards, dataset discovery, error pin-pointing, bottlenecks."""

import pytest

from repro.collab import SharedDataCatalog
from repro.collab.discovery import suggest_enrichments, suggest_join_task
from repro.dashboard.profiler import (
    build_meta_flow_file,
    profile_as_table,
    profile_column,
    profile_table,
)
from repro.data import Schema, Table
from repro.dsl.diagnostics import diagnose


class TestProfiler:
    def test_null_and_distinct_counts(self):
        profile = profile_column("c", ["a", None, "a", "b", None])
        assert profile.total == 5
        assert profile.nulls == 2
        assert profile.distinct == 2
        assert profile.null_rate == 0.4

    def test_numeric_summary(self):
        profile = profile_column("c", [1, 5, None, 3])
        assert profile.minimum == 1
        assert profile.maximum == 5
        assert profile.mean == 3.0

    def test_non_numeric_has_no_numeric_summary(self):
        profile = profile_column("c", ["x", "y"])
        assert profile.minimum is None
        assert profile.mean is None

    def test_top_values_ordered(self):
        profile = profile_column("c", ["b", "a", "a", "a", "b", "c"])
        assert profile.top_values[0] == ("a", 3)
        assert profile.top_values[1] == ("b", 2)

    def test_booleans_not_treated_numeric(self):
        profile = profile_column("c", [True, False, True])
        assert profile.minimum is None
        assert profile.distinct == 2

    def test_unhashable_cells_stringified(self):
        profile = profile_column("c", [[1, 2], [1, 2], {"a": 1}])
        assert profile.distinct == 2

    def test_profile_table_covers_all_columns(self):
        table = Table.from_rows(
            Schema.of("a", "b"), [(1, "x"), (2, None)]
        )
        profiles = profile_table(table)
        assert [p.name for p in profiles] == ["a", "b"]
        assert profiles[1].nulls == 1

    def test_profile_as_table_shape(self):
        table = Table.from_rows(Schema.of("a"), [(1,), (2,)])
        out = profile_as_table(table)
        assert out.num_rows == 1
        assert out.row(0)["column"] == "a"
        assert out.row(0)["null_pct"] == 0.0

    def test_meta_flow_file_is_valid(self):
        from repro.dsl import parse_flow_file, validate_flow_file

        text = build_meta_flow_file(["orders", "customers"])
        ff = parse_flow_file(text)
        # endpoints declared for each profile, widgets reference them
        assert ff.data["orders_profile"].endpoint
        assert "customers_grid" in ff.widgets
        result = validate_flow_file(ff)
        assert result.ok, result.errors


class TestMetaDashboard:
    def test_auto_constructed_meta_dashboard(self):
        from repro import Platform
        from repro.dashboard.profiler import build_meta_dashboard

        platform = Platform()
        platform.create_dashboard(
            "sales",
            (
                "D:\n    raw: [region, amount]\n"
                "    out: [region, total]\n"
                "F:\n    D.out: D.raw | T.agg\n"
                "T:\n    agg:\n        type: groupby\n"
                "        groupby: [region]\n"
                "        aggregates:\n"
                "            - operator: sum\n"
                "              apply_on: amount\n"
                "              out_field: total\n"
            ),
            inline_tables={
                "raw": Table.from_rows(
                    Schema.of("region", "amount"),
                    [("n", 5), ("n", None), ("s", 3)],
                )
            },
        )
        platform.run_dashboard("sales")
        meta = build_meta_dashboard(platform, "sales")
        assert meta.name == "sales_meta"
        profile = meta.endpoint("raw_profile")
        rows = {r["column"]: r for r in profile.rows()}
        assert rows["amount"]["nulls"] == 1
        # The meta-dashboard is an ordinary dashboard: it renders.
        assert "Data profile" in meta.render().html

    def test_meta_requires_a_run(self):
        from repro import Platform
        from repro.dashboard.profiler import build_meta_dashboard

        platform = Platform()
        platform.create_dashboard(
            "empty", "D:\n    raw: [a]\n"
        )
        with pytest.raises(ValueError, match="run_flows"):
            build_meta_dashboard(platform, "empty")


class TestDiscovery:
    def make_catalog(self):
        catalog = SharedDataCatalog()
        catalog.publish(
            "team_dim",
            Table.from_rows(
                Schema.of("team", "color", "city"), [("CSK", "y", "Chennai")]
            ),
            owner="ipl",
        )
        catalog.publish(
            "weather",
            Table.from_rows(
                Schema.of("city", "rainfall"), [("Chennai", 12)]
            ),
            owner="met",
        )
        catalog.publish(
            "unrelated",
            Table.from_rows(Schema.of("x", "y"), [(1, 2)]),
            owner="someone",
        )
        return catalog

    def test_suggestions_require_shared_column(self):
        catalog = self.make_catalog()
        suggestions = suggest_enrichments(
            catalog, Schema.of("team", "noOfTweets")
        )
        assert [s.name for s in suggestions] == ["team_dim"]
        assert suggestions[0].join_keys == ["team"]
        assert set(suggestions[0].new_columns) == {"color", "city"}

    def test_no_gain_no_suggestion(self):
        catalog = SharedDataCatalog()
        catalog.publish(
            "same",
            Table.from_rows(Schema.of("team"), [("CSK",)]),
            owner="x",
        )
        assert suggest_enrichments(catalog, Schema.of("team")) == []

    def test_exclude_own_publications(self):
        catalog = self.make_catalog()
        suggestions = suggest_enrichments(
            catalog, Schema.of("team"), exclude_owner="ipl"
        )
        assert all(s.owner != "ipl" for s in suggestions)

    def test_ranking_prefers_more_new_columns(self):
        catalog = self.make_catalog()
        suggestions = suggest_enrichments(
            catalog, Schema.of("team", "city")
        )
        # team_dim adds 1 new column via 2 keys; weather adds 1 via 1.
        assert suggestions[0].name == "weather"

    def test_suggest_join_task_is_usable(self):
        from repro.tasks.registry import default_task_registry

        catalog = self.make_catalog()
        suggestion = suggest_enrichments(
            catalog, Schema.of("team", "noOfTweets")
        )[0]
        snippet = suggest_join_task(suggestion, "team_tweets")
        # The emitted snippet parses as a valid task configuration.
        from repro.dsl import parse_flow_file

        ff = parse_flow_file("T:\n" + "\n".join(
            "    " + line for line in snippet.splitlines()
        ))
        task = default_task_registry().create(
            "enrich_with_team_dim",
            ff.tasks["enrich_with_team_dim"].config,
        )
        assert task.left_name == "team_tweets"
        assert task.right_name == "team_dim"


class TestDiagnostics:
    def test_syntax_error_carries_line(self):
        report = diagnose("D:\n    x: [a, b\n")
        assert not report.ok
        assert report.diagnostics[0].line == 2

    def test_validation_error_anchored_to_entry(self):
        source = (
            "D:\n    raw: [k, v]\n"
            "D.raw:\n    source: raw.csv\n"
            "F:\n    D.out: D.raw | T.agg\n"
            "T:\n"
            "    agg:\n"
            "        type: groupby\n"
            "        groupby: [missing_col]\n"
        )
        report = diagnose(source)
        assert not report.ok
        diagnostic = report.diagnostics[0]
        assert diagnostic.entry == "agg"
        assert diagnostic.line == 8  # the task definition line
        assert "missing_col" in diagnostic.message

    def test_warnings_included_with_severity(self):
        source = (
            "W:\n    w:\n        type: Bar\n        source: D.shared\n"
            "        x: a\n        y: b\n"
        )
        report = diagnose(source)
        assert report.ok  # warnings only
        assert any(
            d.severity == "warning" for d in report.diagnostics
        )

    def test_valid_file_renders_clean(self):
        report = diagnose(
            "D:\n    a: [x]\n"
        )
        assert report.ok
        assert report.render() == "flow file is valid"


class TestBottlenecks:
    def test_local_report_names_slowest_nodes(self):
        from repro import Platform

        platform = Platform()
        platform.create_dashboard(
            "d",
            (
                "D:\n    raw: [k, v]\n    out: [k, count]\n"
                "F:\n    D.out: D.raw | T.agg\n"
                "T:\n    agg:\n        type: groupby\n"
                "        groupby: [k]\n"
            ),
            inline_tables={
                "raw": Table.from_rows(
                    Schema.of("k", "v"),
                    [(f"k{i % 3}", i) for i in range(500)],
                )
            },
        )
        platform.run_dashboard("d", engine="local")
        report = platform.get_dashboard("d").bottleneck_report()
        assert "local engine" in report
        # The prune projection runs as the groupby's combiner prelude.
        assert "fused:__prune_raw+agg" in report

    def test_distributed_report_names_shuffles(self):
        from repro import Platform

        platform = Platform()
        platform.create_dashboard(
            "d",
            (
                "D:\n    raw: [k, v]\n    out: [k, count]\n"
                "F:\n    D.out: D.raw | T.agg\n"
                "T:\n    agg:\n        type: groupby\n"
                "        groupby: [k]\n"
            ),
            inline_tables={
                "raw": Table.from_rows(
                    Schema.of("k", "v"),
                    [(f"k{i % 3}", i) for i in range(500)],
                )
            },
        )
        platform.run_dashboard("d", engine="distributed")
        report = platform.get_dashboard("d").bottleneck_report()
        assert "shuffle __prune_raw+agg" in report

    def test_no_run_yet(self):
        from repro import Platform

        platform = Platform()
        dashboard = platform.create_dashboard("d", "D:\n    a: [x]\n")
        assert "run_flows" in dashboard.bottleneck_report()
