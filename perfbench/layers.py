"""Per-layer spans recorded from the benchmark's side of each layer.

:class:`LayerTrace` wraps the public entry point of each layer (the
loader, the compiler, both engines, the query planner, the datacube,
widgets, serialization and the WSGI app) with a timing span, inside
the system-under-test process.  Nothing in the program changes: the
wrappers are installed on the classes at run time, for the rest of
that process's life.  Spans stay in memory and are summarized on
request.

Layer code that runs inside forked pool workers is not seen here
(the workers were forked before the wrappers went in); the engine's
coordinator-side ``run`` call is, and covers that work in wall time.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Callable


class LayerTrace:
    """Timing spans around layer entry points, keyed by layer name."""

    def __init__(self) -> None:
        #: layer -> list of (start, seconds)
        self.spans: dict[str, list[tuple[float, float]]] = defaultdict(list)
        #: named counts gathered from the wrapped calls' results
        self.counts: dict[str, float] = defaultdict(float)
        #: prefix for engine spans ("" or "sequential", see ``phase``)
        self.phase = ""
        #: datacubes queried while tracing (their own hit statistics)
        self._cubes: dict[int, Any] = {}
        self._local = threading.local()

    # -- installation -------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str | Callable[[], str],
        on_result: Callable[[Any, tuple, float], None] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` under ``layer``.

        Re-entrant calls of the same layer (a subclass method calling
        its base) are timed once, by the outermost call.
        """
        original = owner.__dict__[attr]
        trace = self

        def wrapper(*args, **kwargs):
            name = layer() if callable(layer) else layer
            active = trace._active()
            if name in active:
                return original(*args, **kwargs)
            active.add(name)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                active.discard(name)
                trace.spans[name].append((start, seconds))
            if on_result is not None:
                on_result(result, args, seconds)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)

    def _active(self) -> set:
        active = getattr(self._local, "active", None)
        if active is None:
            active = self._local.active = set()
        return active

    def install(self) -> "LayerTrace":
        """Wrap every layer this benchmark attributes time to."""
        import repro.platform as platform_module
        from repro.compiler.compiler import FlowCompiler
        from repro.connectors.file import FileConnector
        from repro.connectors.loader import DataObjectLoader
        from repro.data.table import Table
        from repro.engine.datacube import DataCube
        from repro.engine.distributed import DistributedExecutor
        from repro.engine.local import LocalExecutor
        from repro.platform import Platform
        from repro.server.app import ShareInsightsApp
        from repro.server.query_language import AdhocQuery
        from repro.widgets.base import Widget

        self.wrap(DataObjectLoader, "load_many", "connectors.load")
        self.wrap(
            FileConnector, "fetch_delta", "connectors.fetch_delta",
            lambda r, a, s: self._count(
                "connectors.delta_bytes", len(r.payload or b"")
            ),
        )
        self.wrap(platform_module, "parse_flow_file", "compiler.parse")
        self.wrap(FlowCompiler, "compile", "compiler.compile")
        self.wrap(
            DistributedExecutor, "run",
            lambda: f"engine.{self.phase or 'distributed'}",
            self._on_distributed,
        )
        self.wrap(LocalExecutor, "run", "engine.local")
        self.wrap(
            Platform, "refresh_dashboard", "incremental.refresh",
            self._on_refresh,
        )
        self.wrap(AdhocQuery, "execute", "query.eval")
        self.wrap(Table, "to_json_records", "serialize")
        self.wrap(
            DataCube, "query", "datacube.query",
            lambda r, a, s: self._cubes.setdefault(id(a[0]), a[0]),
        )
        self.wrap(ShareInsightsApp, "__call__", "app.handle")
        for cls in _subclasses(Widget):
            if "render" in cls.__dict__:
                self.wrap(cls, "render", "widgets.render")
        return self

    # -- result hooks -------------------------------------------------------
    def _count(self, name: str, amount: float) -> None:
        self.counts[name] += amount

    def _on_distributed(self, result: Any, args: tuple, seconds: float):
        prefix = f"engine.{self.phase or 'distributed'}"
        self._count(f"{prefix}.runs", 1)
        self._count(f"{prefix}.stages", len(result.stages))
        self._count(f"{prefix}.shuffled_records", sum(
            s.shuffled_records for s in result.stages))
        self._count(f"{prefix}.shuffled_bytes", sum(
            s.shuffled_bytes for s in result.stages))
        self._count(f"{prefix}.attempts", sum(
            s.attempts for s in result.stages))

    def _on_refresh(self, report: Any, args: tuple, seconds: float):
        self._count("incremental.refreshes", 1)
        self._count("incremental.delta_rows", report.delta_rows)
        self._count("incremental.flows_incremental",
                    len(report.flows_incremental))
        self._count("incremental.flows_full", len(report.flows_full))

    # -- summary ------------------------------------------------------------
    def summary(self) -> dict:
        # Widget cubes keep no registry metrics; their stats objects do.
        # No cube is queried before tracing starts, so these totals
        # cover the traced phase.
        cubes = self._cubes.values()
        self.counts["datacube.queries"] = sum(c.stats.queries for c in cubes)
        self.counts["datacube.cache_hits"] = sum(
            c.stats.cache_hits for c in cubes)
        return {
            "spans": {
                name: [s for _start, s in spans]
                for name, spans in self.spans.items()
            },
            "counts": dict(self.counts),
        }


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
