"""Integration: platform CRUD, telemetry, environment, collaboration."""

import pytest

from repro import EnvironmentProfile, Platform
from repro.data import Schema, Table
from repro.errors import ShareInsightsError

FLOW = (
    "D:\n    raw: [k, v]\n    out: [k, total]\n"
    "F:\n    D.out: D.raw | T.agg\n"
    "    D.out:\n        endpoint: true\n"
    "T:\n"
    "    agg:\n"
    "        type: groupby\n"
    "        groupby: [k]\n"
    "        aggregates:\n"
    "            - operator: sum\n"
    "              apply_on: v\n"
    "              out_field: total\n"
)


def raw(n=100):
    return Table.from_rows(
        Schema.of("k", "v"), [(f"k{i % 5}", i) for i in range(n)]
    )


class TestLifecycle:
    def test_create_run_delete(self):
        platform = Platform()
        platform.create_dashboard("d", FLOW, inline_tables={"raw": raw()})
        report = platform.run_dashboard("d")
        assert report.rows_produced == 5
        platform.delete_dashboard("d")
        with pytest.raises(ShareInsightsError):
            platform.get_dashboard("d")

    def test_delete_unpublishes_catalog_entries(self):
        platform = Platform()
        published = FLOW.replace(
            "        endpoint: true\n",
            "        endpoint: true\n        publish: totals\n",
        )
        platform.create_dashboard(
            "first", published, inline_tables={"raw": raw()}
        )
        platform.run_dashboard("first")
        assert platform.catalog.names() == ["totals"]
        platform.delete_dashboard("first")
        assert platform.catalog.names() == []
        # Another dashboard can now publish the same name.
        platform.create_dashboard(
            "second", published, inline_tables={"raw": raw(10)}
        )
        platform.run_dashboard("second")
        assert platform.catalog.entries()[0].owner == "second"
        assert platform.catalog.resolve("totals").num_rows == 5

    @pytest.mark.parametrize("engine", ["local", "distributed"])
    def test_rerun_reads_a_rewritten_source(self, tmp_path, engine):
        flow = FLOW.replace(
            "F:\n", "D.raw:\n    source: raw.csv\nF:\n"
        )
        (tmp_path / "raw.csv").write_text("k,v\na,1\nb,2\n")
        platform = Platform()
        platform.create_dashboard("d", flow, data_dir=tmp_path)
        platform.run_dashboard("d", engine=engine)
        (tmp_path / "raw.csv").write_text("k,v\na,10\nc,3\n")
        platform.run_dashboard("d", engine=engine)
        # The second run must read the file again, not the copy of
        # raw the first run materialized.
        dashboard = platform.get_dashboard("d")
        assert sorted(map(repr, dashboard.materialized("raw").to_records())) == [
            repr({"k": "a", "v": 10}), repr({"k": "c", "v": 3})
        ]
        out = {r["k"]: r["total"] for r in dashboard.endpoint("out").rows()}
        assert out == {"a": 10, "c": 3}

    def test_duplicate_create_rejected(self):
        platform = Platform()
        platform.create_dashboard("d", FLOW, inline_tables={"raw": raw()})
        with pytest.raises(ShareInsightsError, match="already exists"):
            platform.create_dashboard("d", FLOW)

    def test_save_recompiles(self):
        platform = Platform()
        platform.create_dashboard("d", FLOW, inline_tables={"raw": raw()})
        changed = FLOW.replace("out_field: total", "out_field: s")
        changed = changed.replace("out: [k, total]", "out: [k, s]")
        platform.save_dashboard("d", changed)
        platform.run_dashboard("d")
        out = platform.get_dashboard("d").materialized("out")
        assert "s" in out.schema

    def test_invalid_save_keeps_old_version(self):
        platform = Platform()
        platform.create_dashboard("d", FLOW, inline_tables={"raw": raw()})
        with pytest.raises(ShareInsightsError):
            platform.save_dashboard("d", FLOW.replace("T.agg", "T.ghost"))
        # The stable version still runs (§5.2 obs. 7's backtracking).
        platform.run_dashboard("d")
        assert platform.repository.read("d") == FLOW

    def test_fork_carries_data_bindings(self):
        platform = Platform()
        platform.create_dashboard("d", FLOW, inline_tables={"raw": raw()})
        platform.fork_dashboard("d", "d2", user="me")
        report = platform.run_dashboard("d2")
        assert report.rows_produced == 5
        assert platform.repository.fork_origin("d2") == "d"


class TestTelemetry:
    def test_events_capture_lifecycle(self):
        platform = Platform()
        platform.create_dashboard(
            "d", FLOW, inline_tables={"raw": raw()}, user="alice"
        )
        platform.run_dashboard("d", user="alice")
        kinds = [e.kind for e in platform.events]
        assert kinds == ["create", "run"]
        run_event = platform.events[-1]
        assert run_event.user == "alice"
        assert run_event.detail["operators"] == {"groupby": 1}

    def test_error_events_logged_with_user(self):
        platform = Platform()
        with pytest.raises(ShareInsightsError):
            platform.create_dashboard(
                "d", FLOW.replace("T.agg", "T.ghost"), user="bob"
            )
        event = platform.events[-1]
        assert event.kind == "error"
        assert event.user == "bob"
        assert "ghost" in event.detail["message"]


class TestEnvironmentAdaptation:
    def test_auto_engine_small_data_runs_local(self):
        platform = Platform()
        platform.create_dashboard("d", FLOW, inline_tables={"raw": raw()})
        report = platform.run_dashboard("d")  # engine=None: auto
        assert report.engine == "local"

    def test_auto_engine_large_data_goes_distributed(self):
        platform = Platform()
        platform.create_dashboard(
            "d", FLOW, inline_tables={"raw": raw(60_000)}
        )
        report = platform.run_dashboard("d")
        assert report.engine == "distributed"

    def test_low_power_client_payload_capped(self):
        platform = Platform()
        platform.create_dashboard(
            "d",
            FLOW,
            inline_tables={
                "raw": Table.from_rows(
                    Schema.of("k", "v"),
                    [(f"k{i}", i) for i in range(5000)],
                )
            },
            environment=EnvironmentProfile.mobile(),
        )
        platform.run_dashboard("d")
        endpoint = platform.get_dashboard("d").endpoint("out")
        assert endpoint.num_rows <= EnvironmentProfile.mobile(
        ).max_payload_rows


class TestBranchWorkflow:
    def test_branch_edit_merge_through_repo(self):
        platform = Platform()
        platform.create_dashboard("d", FLOW, inline_tables={"raw": raw()})
        repo = platform.repository
        repo.create_branch("d", "experiment")
        experiment = FLOW + (
            "W:\n    bar:\n        type: Bar\n        source: D.out\n"
            "        x: k\n        y: total\n"
        )
        repo.commit("d", experiment, branch="experiment", author="dev")
        repo.merge("d", "experiment")
        merged = repo.read("d")
        assert "type: Bar" in merged
        # The merged file is valid and can be saved to the live platform.
        platform.save_dashboard("d", merged)
        platform.run_dashboard("d")
