"""WSGI REST application (paper §4.3.1, §4.4).

Routes (all relative to the server base path):

=====================================================  =====================
``GET  /dashboards``                                   list dashboards
``POST /dashboards/<name>/create``                     create from flow text
``POST /dashboards/<name>/save``                       save edited flow text
``GET  /dashboards/<name>``                            flow-file text
``POST /dashboards/<name>/run``                        execute flows
``POST /dashboards/<name>/fork/<new>``                 fork a dashboard
``GET  /dashboards/<name>/ds``                         endpoint names (Fig. 27)
``GET  /dashboards/<name>/ds/<dataset>``               endpoint rows (Fig. 28)
``GET  /dashboards/<name>/ds/<dataset>/<query...>``    ad-hoc query (Fig. 30)
``GET  /dashboards/<name>/explorer``                   data explorer (Fig. 29)
``GET  /dashboards/<name>/render``                     dashboard HTML
``GET  /metrics``                                      Prometheus text / JSON
``GET  /trace``                                        retained trace ids
``GET  /trace/<run_id>``                               one trace's spans
``GET  /health``                                       liveness probe
``GET  /ready``                                        readiness + tier state
=====================================================  =====================

Every request runs inside an ``http.request`` span and lands in the
request counters/histograms (see ``docs/observability.md``).

``/ds/`` reads carry an ``X-Endpoint-Version`` header (bumped when a
run or refresh changes the endpoint's table) and accept
``?refresh=incremental|full`` to pull new source rows before the read
— see ``docs/incremental.md`` for the consistency contract.

Every non-2xx response body carries one structured shape —
``{"error": {"type", "retryable", "detail", ...}}`` — so clients branch
on ``type``/``retryable`` instead of parsing prose (contract-tested in
``tests/integration/test_error_contract.py``).

The app is a plain WSGI callable — tests drive it directly, and
:func:`serve` wraps it in the threaded serving tier
(:mod:`repro.server.serving`) for real deployments.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterable
from urllib.parse import parse_qsl

from repro.engine.query_cache import QueryResultCache
from repro.errors import (
    DeadlineExceededError,
    QueryError,
    ShareInsightsError,
    is_retryable,
)
from repro.observability import record_request
from repro.observability.instruments import (
    DEGRADED_SERVES,
    ENDPOINT_QUERIES,
    SERVING_SHED_SERVES,
)
from repro.platform import Platform
from repro.server.query_language import parse_adhoc_query

StartResponse = Callable[[str, list[tuple[str, str]]], Any]


class ShareInsightsApp:
    """The REST surface over one platform instance.

    Engine and connector failures surface as *structured* error bodies
    (type, retryability, failing task/partition); endpoint reads keep a
    last-known-good copy per dataset and serve it with ``degraded: true``
    when a recompute fails, so consumers see stale-but-usable data
    instead of a hard 422.
    """

    def __init__(self, platform: Platform):
        self.platform = platform
        #: last successfully served endpoint tables, for degraded mode
        self._last_good: dict[tuple[str, str], Any] = {}
        #: shared ad-hoc result cache, keyed by the planner's canonical
        #: query fingerprint and scoped per (dashboard, dataset)
        self.query_cache = QueryResultCache(
            max_entries=256,
            metrics=platform.observability.metrics,
            name="server",
        )
        # Version boundaries are the consistency contract: when a
        # background refresh changes an endpoint, its cached query
        # results and last-known-good copy must die with the old
        # version so /ds/ never serves stale rows against a new one.
        platform.add_refresh_listener(self._on_refresh)

    def _on_refresh(self, name: str, report) -> None:
        """Invalidate per-endpoint caches after a dashboard refresh."""
        for endpoint in report.endpoints_changed:
            self.query_cache.invalidate(scope_prefix=(name, endpoint))
            self._last_good.pop((name, endpoint), None)

    # -- WSGI entry point --------------------------------------------------
    def __call__(
        self, environ: dict[str, Any], start_response: StartResponse
    ) -> Iterable[bytes]:
        method = environ.get("REQUEST_METHOD", "GET").upper()
        path = environ.get("PATH_INFO", "/")
        query = dict(parse_qsl(environ.get("QUERY_STRING", "")))
        obs = self.platform.observability
        extra_headers: list[tuple[str, str]] = []
        with obs.tracer.span(
            "http.request", method=method, path=path
        ) as span:
            try:
                response = self._route(method, path, query, environ)
                # Routes return (status, content_type, body) or, with
                # response headers, (status, content_type, body, headers).
                if len(response) == 4:
                    status, content_type, body, headers = response
                    extra_headers = list(headers)
                else:
                    status, content_type, body = response
            except QueryError as exc:
                status, content_type, body = _error(
                    400, str(exc), error_type="QueryError"
                )
            except DeadlineExceededError as exc:
                status, content_type, body = _error(
                    504, str(exc), error_type="DeadlineExceededError",
                    retryable=True,
                )
            except ShareInsightsError as exc:
                status, content_type, body = _error(
                    422, str(exc), **_failure_detail(exc)
                )
            except Exception as exc:  # noqa: BLE001 - structured 500
                # Bugs must not take the worker down or leak a raw
                # traceback to the wire; they surface as a structured,
                # non-retryable 500 (and in the request metrics).
                status, content_type, body = _error(
                    500, f"unhandled {type(exc).__name__}: {exc}",
                    error_type=type(exc).__name__,
                )
            span.set(status=status.split(" ", 1)[0])
            deadline = environ.get("repro.deadline")
            if deadline is not None:
                span.set(
                    deadline_budget=round(deadline.budget, 6),
                    deadline_remaining=round(deadline.remaining(), 6),
                )
        record_request(
            obs.metrics, _route_label(path), method, status, span.duration
        )
        start_response(
            status,
            [
                ("Content-Type", content_type),
                ("Content-Length", str(len(body))),
                *extra_headers,
            ],
        )
        return [body]

    # -- routing -------------------------------------------------------------
    def _route(
        self,
        method: str,
        path: str,
        query: dict[str, str],
        environ: dict[str, Any],
    ) -> tuple[str, str, bytes]:
        segments = [s for s in path.split("/") if s]
        if not segments:
            return _json({"service": "ShareInsights", "version": "1.0"})
        if segments[0] == "health" and method == "GET":
            return _json({"status": "ok"})
        if segments[0] == "ready" and method == "GET":
            return self._ready(environ)
        if segments[0] == "metrics" and method == "GET":
            return self._metrics(query, environ)
        if segments[0] == "trace" and method == "GET":
            return self._trace(segments[1:])
        if segments[0] != "dashboards":
            return _error(404, f"unknown path {path!r}")
        if len(segments) == 1:
            return _json({"dashboards": self.platform.dashboard_names()})
        name = segments[1]
        rest = segments[2:]

        if not rest:
            if method == "GET":
                return _text(self.platform.repository.read(name))
            return _error(405, "use POST .../create or .../save")
        action = rest[0]

        if action == "create" and method == "POST":
            source = _read_body(environ)
            self.platform.create_dashboard(name, source)
            self.query_cache.invalidate(scope_prefix=(name,))
            return _json({"created": name}, status="201 Created")
        if action == "save" and method == "POST":
            source = _read_body(environ)
            self.platform.save_dashboard(name, source)
            self.query_cache.invalidate(scope_prefix=(name,))
            return _json({"saved": name})
        if action == "run" and method == "POST":
            self.query_cache.invalidate(scope_prefix=(name,))
            raw_parallelism = query.get("parallelism", "1")
            try:
                parallelism = int(raw_parallelism)
                if parallelism < 1:
                    raise ValueError
            except ValueError:
                return _error(
                    400,
                    f"parallelism must be a positive integer, "
                    f"got {raw_parallelism!r}",
                )
            executor = str(query.get("executor", "threads")).lower()
            if executor not in ("threads", "processes"):
                return _error(
                    400,
                    f"executor must be 'threads' or 'processes', "
                    f"got {query.get('executor')!r}",
                )
            raw_small = query.get("small_job_bytes")
            small_job_bytes = None
            if raw_small is not None:
                try:
                    small_job_bytes = int(raw_small)
                    if small_job_bytes < 0:
                        raise ValueError
                except ValueError:
                    return _error(
                        400,
                        f"small_job_bytes must be a non-negative "
                        f"integer, got {raw_small!r}",
                    )
            report = self.platform.run_dashboard(
                name,
                engine=query.get("engine"),
                fault_profile=query.get("fault_profile"),
                parallelism=parallelism,
                executor=executor,
                small_job_bytes=small_job_bytes,
            )
            payload = {
                "dashboard": name,
                "engine": report.engine,
                "seconds": round(report.seconds, 6),
                "rows_produced": report.rows_produced,
                "endpoints": report.endpoints,
                "published": report.published,
            }
            if report.attempts:
                payload["resilience"] = {
                    "attempts": report.attempts,
                    "retried_partitions": report.retried_partitions,
                    "speculative_wins": report.speculative_wins,
                    "recovered_stages": report.recovered_stages,
                }
            return _json(payload)
        if action == "fork" and method == "POST" and len(rest) == 2:
            self.platform.fork_dashboard(name, rest[1])
            return _json({"forked": rest[1], "from": name},
                         status="201 Created")
        if action == "ds":
            return self._route_ds(name, rest[1:], query, environ)
        if action == "explorer" and method == "GET":
            return self._explorer(name, query)
        if action == "widgets" and method == "GET" and len(rest) == 2:
            dashboard = self.platform.get_dashboard(name)
            view = dashboard.widget_view(rest[1])
            return _json(
                {
                    "widget": view.widget,
                    "type": view.type_name,
                    "payload": view.payload,
                    "text": view.text,
                }
            )
        if action == "select" and method == "POST" and len(rest) == 2:
            return self._select(name, rest[1], environ)
        if action == "diagnose" and method == "POST":
            return self._diagnose(_read_body(environ))
        if action == "profile" and method == "GET":
            return self._profile(name, query)
        if action == "bottlenecks" and method == "GET":
            dashboard = self.platform.get_dashboard(name)
            return _text(dashboard.bottleneck_report())
        if action == "edit" and method == "GET":
            return self._editor(name)
        if action == "history" and method == "GET":
            commits = self.platform.repository.history(name)
            return _json(
                {
                    "dashboard": name,
                    "commits": [
                        {
                            "id": c.id,
                            "message": c.message,
                            "author": c.author,
                            "dashboard": c.dashboard,
                            "parents": list(c.parents),
                        }
                        for c in commits
                    ],
                }
            )
        if action == "render" and method == "GET":
            dashboard = self.platform.get_dashboard(name)
            view = dashboard.render()
            # Data-processing-mode dashboards have no layout/HTML; show
            # the text summary instead of a blank page.
            return _html(view.html or f"<pre>{view.text}</pre>")
        return _error(404, f"unknown action {action!r}")

    # -- observability (docs/observability.md) -------------------------------
    def _metrics(
        self, query: dict[str, str], environ: dict[str, Any]
    ) -> tuple[str, str, bytes]:
        """The metrics registry: Prometheus text by default, JSON on
        ``?format=json`` or an ``Accept: application/json`` header."""
        registry = self.platform.observability.metrics
        accept = environ.get("HTTP_ACCEPT", "")
        fmt = query.get("format")
        if fmt == "json" or (fmt is None and "application/json" in accept):
            return _json({"metrics": registry.as_dict()})
        if fmt not in (None, "prometheus", "text"):
            return _error(400, f"unknown metrics format {fmt!r}")
        return (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            registry.to_prometheus().encode("utf-8"),
        )

    def _trace(self, segments: list[str]) -> tuple[str, str, bytes]:
        """List retained traces, or dump one trace's spans as JSON."""
        tracer = self.platform.observability.tracer
        if not segments:
            return _json({"traces": tracer.trace_ids()})
        run_id = segments[0]
        spans = tracer.trace(run_id)
        if not spans:
            return _error(
                404,
                f"no trace {run_id!r}; retained: {tracer.trace_ids()}",
            )
        return _json(
            {
                "trace_id": run_id,
                "spans": [span.to_dict() for span in spans],
            }
        )

    # -- health / readiness ----------------------------------------------
    def _ready(self, environ: dict[str, Any]) -> tuple[str, str, bytes]:
        """Readiness: drain state, serving-tier snapshot, breaker
        summary, dashboard count.  ``503`` while draining, else 200."""
        tier = environ.get("repro.serving")
        serving = tier.snapshot() if tier is not None else None
        draining = bool(serving and serving.get("draining"))
        payload = {
            "ready": not draining,
            "draining": draining,
            "dashboards": len(self.platform.dashboards),
            "serving": serving,
            "breakers": self.breaker_summary(),
        }
        if draining:
            body = json.dumps(payload, default=str).encode("utf-8")
            return "503 Service Unavailable", "application/json", body
        return _json(payload)

    def breaker_summary(self) -> dict[str, str]:
        """Per-host circuit-breaker states across registered connectors
        (empty when no connector has breaking enabled)."""
        summary: dict[str, str] = {}
        connectors = getattr(self.platform.connectors, "_connectors", {})
        for protocol, connector in sorted(connectors.items()):
            breakers = getattr(connector, "_breakers", None)
            if not breakers:
                continue
            for host, breaker in sorted(breakers.items()):
                summary[f"{protocol}://{host}"] = breaker.state
        return summary

    def checkpoint_last_good(self, store) -> list[str]:
        """Drain hook: snapshot last-known-good endpoint tables into a
        :class:`~repro.resilience.CheckpointStore` so a restarted server
        can serve degraded reads immediately."""
        names = []
        for (dashboard, dataset), table in sorted(self._last_good.items()):
            name = f"{dashboard}/{dataset}"
            store.put(name, table)
            names.append(name)
        return names

    def restore_last_good(self, store) -> list[str]:
        """Startup hook: adopt checkpointed last-known-good tables.

        The inverse of :meth:`checkpoint_last_good` — a server started
        against a :class:`~repro.resilience.DiskCheckpointStore` that a
        previous process drained into resumes degraded serving instead
        of starting empty.  Keys already populated by live runs win
        over checkpoints; malformed names are skipped.
        """
        restored = []
        for name in store.names():
            dashboard, sep, dataset = name.partition("/")
            if not sep or not dashboard or not dataset:
                continue
            key = (dashboard, dataset)
            if key in self._last_good:
                continue
            try:
                self._last_good[key] = store.get(name)
            except Exception:
                continue
            restored.append(name)
        return restored

    # -- endpoint data (Figs. 27, 28, 30) ------------------------------------
    def _route_ds(
        self,
        name: str,
        segments: list[str],
        query: dict[str, str],
        environ: dict[str, Any] | None = None,
    ) -> tuple[str, str, bytes] | tuple[
        str, str, bytes, list[tuple[str, str]]
    ]:
        dashboard = self.platform.get_dashboard(name)
        if not segments:
            return _json({"endpoints": dashboard.endpoint_names()})
        # ``?refresh=`` pulls new source rows before the read:
        # incremental by default, ``full`` forces a complete re-run.
        if "refresh" in query:
            mode = query["refresh"].strip().lower()
            if mode in ("", "1", "true", "incremental"):
                incremental = True
            elif mode == "full":
                incremental = False
            else:
                raise QueryError(
                    f"refresh must be 'incremental' or 'full', "
                    f"got {query['refresh']!r}"
                )
            self.platform.refresh_dashboard(
                name, incremental=incremental
            )
        # The planner canonicalizes the chain before execution, so
        # equivalent URL spellings run the same plan and share one
        # cache entry.
        adhoc = parse_adhoc_query(segments).canonicalized()
        obs = self.platform.observability
        obs.metrics.counter(
            ENDPOINT_QUERIES, "Endpoint dataset reads and ad-hoc queries"
        ).inc(dashboard=name, dataset=adhoc.dataset)
        shed = bool(environ and environ.get("repro.serving.shed"))
        if shed:
            return self._route_ds_shed(name, adhoc, query, obs)
        cache_key = (name, adhoc.dataset)
        degraded_error: str | None = None
        try:
            table = dashboard.endpoint(adhoc.dataset)
            self._last_good[cache_key] = table
        except ShareInsightsError as exc:
            # Recompute/fetch failed: fall back to the last-known-good
            # copy (marked degraded) rather than failing the read.
            table = self._last_good.get(cache_key)
            if table is None:
                raise
            degraded_error = str(exc)
            obs.metrics.counter(
                DEGRADED_SERVES,
                "Endpoint reads served from the last-known-good copy",
            ).inc(dashboard=name, dataset=adhoc.dataset)
        scope = (name, adhoc.dataset)
        fingerprint = adhoc.fingerprint()
        with obs.tracer.span(
            "query.eval", dataset=adhoc.dataset, steps=len(adhoc.steps)
        ) as eval_span:
            # The entry pins the endpoint table object it was computed
            # from, so a recomputed endpoint can never serve stale rows
            # even if an invalidation was missed.
            cached = self.query_cache.get(scope, fingerprint, source=table)
            if cached is not None:
                eval_span.set(cached=True)
                table = cached
            else:
                source = table
                table = adhoc.execute(table)
                self.query_cache.put(
                    scope, fingerprint, table, source=source
                )
            eval_span.set(rows_out=table.num_rows)
        limit = int(query.get("limit", 1000))
        offset = int(query.get("offset", 0))
        # Materialize only the requested page: slice the row window
        # first (list-slice semantics, negative offsets included), then
        # encode those rows straight from the columns — the full table
        # is never converted to records.
        window = range(table.num_rows)[offset: offset + limit]
        page = table.take(window)
        self.platform._log(
            "query",
            name,
            {
                "dataset": adhoc.dataset,
                "steps": len(adhoc.steps),
                "degraded": degraded_error is not None,
            },
        )
        head = json.dumps(
            {
                "dataset": adhoc.dataset,
                "columns": table.schema.names,
                "total_rows": table.num_rows,
            },
            default=str,
        )
        body = head[:-1] + ', "rows": ' + page.to_json_records()
        if degraded_error is not None:
            body += ', "degraded": true, "error": ' + json.dumps(
                degraded_error
            )
        body += "}"
        # The version header lets clients detect refresh boundaries:
        # it bumps exactly when a run/refresh changes this endpoint.
        headers = [(
            "X-Endpoint-Version",
            str(dashboard.endpoint_version(adhoc.dataset)),
        )]
        return "200 OK", "application/json", body.encode("utf-8"), headers

    def _route_ds_shed(
        self, name: str, adhoc, query: dict[str, str], obs
    ) -> tuple[str, str, bytes] | tuple[
        str, str, bytes, list[tuple[str, str]]
    ]:
        """Overload path: serve ``/ds/`` reads without any recompute.

        Only already-materialized data is touched — the last-known-good
        copy (or the dashboard's materialized table) plus the query
        cache.  Responses are marked ``degraded: true`` (+ ``shed``)
        per the resilience contract; with nothing cached the read is
        shed with a structured 503 instead of queueing a recompute.
        """
        dashboard = self.platform.get_dashboard(name)
        table = self._last_good.get((name, adhoc.dataset))
        if table is None:
            table = dashboard._materialized.get(adhoc.dataset)
        if table is None:
            return _error(
                503,
                f"server is shedding load and no cached copy of "
                f"{adhoc.dataset!r} exists; retry shortly",
                error_type="Overloaded",
                retryable=True,
                shed=True,
            )
        scope = (name, adhoc.dataset)
        fingerprint = adhoc.fingerprint()
        cached = self.query_cache.get(scope, fingerprint, source=table)
        if cached is not None:
            table_out = cached
        else:
            # Query evaluation over an in-memory table is columnar-
            # kernel cheap; what shed mode avoids is the endpoint
            # recompute/fetch, which never happens on this path.
            table_out = adhoc.execute(table)
            self.query_cache.put(
                scope, fingerprint, table_out, source=table
            )
        obs.metrics.counter(
            SERVING_SHED_SERVES,
            "Endpoint reads served from cache while shedding",
        ).inc(dashboard=name, dataset=adhoc.dataset)
        obs.metrics.counter(
            DEGRADED_SERVES,
            "Endpoint reads served from the last-known-good copy",
        ).inc(dashboard=name, dataset=adhoc.dataset)
        limit = int(query.get("limit", 1000))
        offset = int(query.get("offset", 0))
        window = range(table_out.num_rows)[offset: offset + limit]
        page = table_out.take(window)
        head = json.dumps(
            {
                "dataset": adhoc.dataset,
                "columns": table_out.schema.names,
                "total_rows": table_out.num_rows,
            },
            default=str,
        )
        body = (
            head[:-1] + ', "rows": ' + page.to_json_records()
            + ', "degraded": true, "shed": true}'
        )
        headers = [(
            "X-Endpoint-Version",
            str(dashboard.endpoint_version(adhoc.dataset)),
        )]
        return "200 OK", "application/json", body.encode("utf-8"), headers

    # -- data explorer (Fig. 29) -----------------------------------------------
    def _explorer(
        self, name: str, query: dict[str, str]
    ) -> tuple[str, str, bytes]:
        """Run the dashboard headless and show endpoint data as tables."""
        dashboard = self.platform.get_dashboard(name)
        dataset = query.get("ds")
        names = (
            [dataset] if dataset else dashboard.endpoint_names()
        )
        sections = []
        for endpoint_name in names:
            table = dashboard.endpoint(endpoint_name)
            header = "".join(
                f"<th>{column}</th>" for column in table.schema.names
            )
            rows = "".join(
                "<tr>"
                + "".join(
                    f"<td>{'' if v is None else v}</td>" for v in row
                )
                + "</tr>"
                for row in table.head(100).row_tuples()
            )
            sections.append(
                f"<h2>{endpoint_name} ({table.num_rows} rows)</h2>"
                f"<table border='1'><tr>{header}</tr>{rows}</table>"
            )
        html = (
            f"<html><head><title>Data Explorer - {name}</title></head>"
            f"<body><h1>Data Explorer: {name}</h1>"
            f"{''.join(sections)}</body></html>"
        )
        return _html(html)


    # -- dashboard editor (Fig. 26) ---------------------------------------
    def _editor(self, name: str) -> tuple[str, str, bytes]:
        """The web editor page: flow-file text, live diagnostics hook,
        endpoint links — the §4.3.1 browser development surface."""
        source = self.platform.repository.read(name)
        dashboard = self.platform.get_dashboard(name)
        endpoints = "".join(
            f'<li><a href="/dashboards/{name}/ds/{e}">{e}</a></li>'
            for e in dashboard.endpoint_names()
        )
        escaped = (
            source.replace("&", "&amp;").replace("<", "&lt;")
        )
        html = f"""<html><head><title>Edit {name}</title></head>
<body>
<h1>Dashboard editor: {name}</h1>
<div class="toolbar">
  <button onclick="save()">Save</button>
  <button onclick="diagnoseNow()">Validate</button>
  <a href="/dashboards/{name}/render">Preview</a>
  <a href="/dashboards/{name}/explorer">Data explorer</a>
  <a href="/dashboards/{name}/history">History</a>
</div>
<textarea id="flow" rows="40" cols="100">{escaped}</textarea>
<pre id="diagnostics"></pre>
<h2>Endpoint data</h2><ul>{endpoints}</ul>
<script>
async function post(path) {{
  const body = document.getElementById('flow').value;
  const response = await fetch(path, {{method: 'POST', body}});
  return response.json();
}}
async function diagnoseNow() {{
  const result = await post('/dashboards/{name}/diagnose');
  document.getElementById('diagnostics').textContent =
    result.ok ? 'flow file is valid'
              : result.diagnostics.map(
                  d => `${{d.severity}} line ${{d.line}}: ${{d.message}}`
                ).join('\\n');
}}
async function save() {{
  const result = await post('/dashboards/{name}/save');
  document.getElementById('diagnostics').textContent =
    JSON.stringify(result);
}}
</script>
</body></html>"""
        return _html(html)

    # -- interaction over REST (§3.5.1 selections as data) --------------------
    def _select(
        self, name: str, widget: str, environ: dict[str, Any]
    ) -> tuple[str, str, bytes]:
        """Apply a selection gesture: body is JSON with ``values`` or
        ``range`` (and optionally ``column``); an empty body clears."""
        dashboard = self.platform.get_dashboard(name)
        body = _read_body(environ)
        try:
            payload = json.loads(body) if body.strip() else {}
        except json.JSONDecodeError as exc:
            return _error(400, f"selection body is not JSON: {exc}")
        column = payload.get("column")
        values = payload.get("values")
        value_range = payload.get("range")
        if value_range is not None:
            if not isinstance(value_range, list) or len(value_range) != 2:
                return _error(400, "'range' must be a [low, high] pair")
            dashboard.select(
                widget, column=column,
                value_range=(value_range[0], value_range[1]),
            )
        else:
            dashboard.select(widget, column=column, values=values)
        self.platform._log(
            "select", name, {"widget": widget}, ""
        )
        return _json({"selected": widget, "dashboard": name})

    # -- §6 tooling ------------------------------------------------------------
    def _diagnose(self, source: str) -> tuple[str, str, bytes]:
        """Editor support: pin-pointed diagnostics for flow-file text."""
        from repro.dsl.diagnostics import diagnose

        report = diagnose(
            source,
            task_registry=self.platform.tasks,
            catalog_schemas=self.platform.catalog.schemas(),
        )
        return _json(
            {
                "ok": report.ok,
                "diagnostics": [
                    {
                        "severity": d.severity,
                        "line": d.line,
                        "entry": d.entry,
                        "message": d.message,
                    }
                    for d in report.diagnostics
                ],
            }
        )

    def _profile(
        self, name: str, query: dict[str, str]
    ) -> tuple[str, str, bytes]:
        """Column statistics of materialized data objects (§6
        meta-dashboards; the raw numbers behind them)."""
        from repro.dashboard.profiler import profile_table

        dashboard = self.platform.get_dashboard(name)
        target = query.get("ds")
        names = (
            [target] if target else sorted(dashboard._materialized)
        )
        payload: dict[str, Any] = {}
        for object_name in names:
            table = dashboard.materialized(object_name)
            payload[object_name] = [
                p.as_row() for p in profile_table(table)
            ]
        return _json({"dashboard": name, "profiles": payload})


# ---------------------------------------------------------------------------
# response helpers
# ---------------------------------------------------------------------------


def _route_label(path: str) -> str:
    """A low-cardinality route label for request metrics.

    ``/dashboards/<name>/ds/...`` → ``dashboards/ds``: the dashboard
    name and query segments never become label values.
    """
    segments = [s for s in path.split("/") if s]
    if not segments:
        return "root"
    if segments[0] != "dashboards":
        return segments[0]
    if len(segments) < 3:
        return "dashboards"
    return f"dashboards/{segments[2]}"


def _json(
    payload: dict[str, Any], status: str = "200 OK"
) -> tuple[str, str, bytes]:
    return (
        status,
        "application/json",
        json.dumps(payload, default=str).encode("utf-8"),
    )


def _text(text: str, status: str = "200 OK") -> tuple[str, str, bytes]:
    return status, "text/plain; charset=utf-8", text.encode("utf-8")


def _html(html: str, status: str = "200 OK") -> tuple[str, str, bytes]:
    return status, "text/html; charset=utf-8", html.encode("utf-8")


def _failure_detail(exc: ShareInsightsError) -> dict[str, Any]:
    """Structured failure fields for engine/connector errors."""
    detail: dict[str, Any] = {
        "error_type": type(exc).__name__,
        "retryable": is_retryable(exc),
    }
    task = getattr(exc, "task", None)
    partition = getattr(exc, "partition", None)
    if task is not None:
        detail["task"] = task
    if partition is not None:
        detail["partition"] = partition
    return detail


_STATUS_REASONS = {
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

_DEFAULT_ERROR_TYPES = {
    400: "BadRequest",
    404: "NotFound",
    405: "MethodNotAllowed",
    422: "UnprocessableEntity",
    429: "RateLimited",
    500: "InternalError",
    503: "Overloaded",
    504: "DeadlineExceededError",
}


def _error(
    code: int,
    message: str,
    error_type: str | None = None,
    retryable: bool = False,
    **detail: Any,
) -> tuple[str, str, bytes]:
    """One non-2xx body shape for the whole surface.

    ``{"error": {"type", "retryable", "detail", ...}}`` — extra keys
    (``task``, ``partition``, ``shed``…) land inside the error object.
    Contract-tested across every route in
    ``tests/integration/test_error_contract.py``.
    """
    status = f"{code} {_STATUS_REASONS.get(code, 'Error')}"
    error: dict[str, Any] = {
        "type": detail.pop("error_type", None)
        or error_type
        or _DEFAULT_ERROR_TYPES.get(code, "Error"),
        "retryable": bool(detail.pop("retryable", retryable)),
        "detail": message,
    }
    error.update(detail)
    return (
        status,
        "application/json",
        json.dumps({"error": error}).encode("utf-8"),
    )


def _read_body(environ: dict[str, Any]) -> str:
    try:
        length = int(environ.get("CONTENT_LENGTH") or 0)
    except ValueError:
        length = 0
    stream = environ.get("wsgi.input")
    if stream is None or length == 0:
        return ""
    return stream.read(length).decode("utf-8")


def serve(
    platform: Platform,
    host: str = "127.0.0.1",
    port: int = 8350,
    config=None,
    ready_event=None,
    checkpoints=None,
    pool_warm: int = 0,
):
    """Serve the app behind the production serving tier.

    Returns a :class:`~repro.server.serving.ServingServer`: ``port=0``
    binds an ephemeral port (read ``server_address``), ``ready_event``
    is set once the listener and worker pool are up, and
    ``shutdown()`` drains gracefully (checkpointing last-known-good
    endpoint tables into ``checkpoints``).  A ``checkpoints`` store
    that already holds tables (a ``DiskCheckpointStore`` a previous
    incarnation drained into) is restored at startup; ``pool_warm``
    pre-forks that many warm process-pool workers before the first
    request.
    """
    from repro.server.serving import serve as _serve_tier

    return _serve_tier(
        platform,
        host=host,
        port=port,
        config=config,
        ready_event=ready_event,
        checkpoints=checkpoints,
        pool_warm=pool_warm,
    )
