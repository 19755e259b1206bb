"""The three IPL workloads: ``ipl_batch``, ``ipl_serve``, ``ipl_refresh``.

Each workload builds its inputs from the seed, computes the reference
endpoints, starts the system under test several times (the median of
those start-ups is ``setup_s``), measures one phase of ``seconds``
and checks every output against the reference.  With ``trace`` set,
it measures an untraced phase first (the denominator of
``trace.coverage_ratio``) and then a phase with per-layer spans.
"""

from __future__ import annotations

import json
import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import parse_qsl

import inputs
import oracle
from loadgen import Event, Sample, SUTProcess, request, run_open_loop
from stats import median, metric, percentile, timing

READ_PATH = "/dashboards/ipl/ds/"


@dataclass
class Sizes:
    """Input sizes and rates; ``FULL`` is the benchmark, ``TINY`` the
    self-test.

    The traffic mix below is assumed, not measured: no source gives
    how IPL dashboard clients read.  The shape (Zipf over about 1000
    queries, pagination, fixed rates, 1% appends) is the benchmark's
    design; the skew, the later-page share and the rates are choices
    (NOTES.md, "Assumptions").
    """

    batch_tweets: int = 60_000
    serve_tweets: int = 20_000
    refresh_tweets: int = 20_000
    universe: int = 1000
    zipf_skew: float = 1.0
    #: share of reads of a multi-page result that ask for a later page
    later_page_share: float = 0.1
    read_rate: float = 150.0
    gesture_interval: float = 1.0
    hot_read_rate: float = 20.0
    refresh_interval: float = 1.5
    append_share: float = 0.01
    #: start-ups per run; ``setup_s`` is their median
    setups: int = 5
    batch_setups: int = 3
    parallelism: int = 2
    workers: int = 2
    #: latency limit (ms) a read must meet to count toward the SLO
    read_slo_ms: float = 50.0


FULL = Sizes()
TINY = Sizes(
    batch_tweets=1500, serve_tweets=1500, refresh_tweets=1500,
    universe=300, read_rate=30.0, hot_read_rate=20.0, setups=2,
    batch_setups=2,
)


@dataclass
class Outcome:
    """What a workload run measured and checked."""

    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    #: operations in the measured phase the CPU time is spread over
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    tie_divergent: int = 0
    facts: dict = field(default_factory=dict)

    def check(self, problems: list[str], divergent: int = 0) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        self.tie_divergent = max(self.tie_divergent, divergent)


class Workload:
    name = ""
    mode = ""

    def __init__(self, seed: int, seconds: float, trace: bool,
                 sizes: Sizes, workdir: Path, src: Path):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.sizes = sizes
        self.workdir = workdir
        self.data_dir = workdir / "data"
        self.src = src
        self.out = Outcome()
        self.reference: oracle.Reference | None = None

    # -- running ------------------------------------------------------------
    def run(self) -> Outcome:
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.prepare()
        self.out.facts["seed"] = self.seed
        if not self.trace:
            sut = self.start_setups()
            try:
                begin = sut.call("begin")
                samples = self.measured(sut)
                stats = sut.call("stats")
            finally:
                sut.close()
            self.cpu_s = stats["cpu_s"] - begin["cpu_s"]
            self.out.end_to_end = self.end_to_end(samples, stats)
        else:
            self.out.per_layer = self.traced()
        self.out.per_layer.setdefault(
            "check.topn_tie_divergent_rows",
            metric(self.out.tie_divergent, "count"),
        )
        return self.out

    def measured(self, sut: SUTProcess) -> list[Sample]:
        """One measured phase; every operation counts as attempted."""
        samples = self.measure(sut)
        self.out.attempted += len(samples)
        self.out.failed += sum(not s.ok for s in samples)
        self.out.problems.extend(
            s.info["error"] for s in samples if "error" in s.info)
        return samples

    def start_sut(self) -> SUTProcess:
        config = {
            "mode": self.mode, "data_dir": str(self.data_dir),
            "feed": self.feed, "src": str(self.src),
            "parallelism": self.sizes.parallelism,
            "workers": self.sizes.workers,
        }
        return SUTProcess(config, self.workdir)

    def start_setups(self) -> SUTProcess:
        """Start the system several times; keep the last."""
        count = self.sizes.batch_setups if self.mode == "batch" else self.sizes.setups
        times = []
        for i in range(count):
            self.reset_inputs()
            sut = self.start_sut()
            times.append(sut.setup_s)
            if i < count - 1:
                sut.close()
        self.setup_times = times
        return sut

    def common_metrics(self, stats: dict) -> dict:
        rss = stats["rss"]
        return {
            "cpu_ms_per_op": metric(
                self.cpu_s * 1000.0 / self.out.ops, "ms", self.out.ops),
            "setup_s": metric(median(self.setup_times), "s",
                              len(self.setup_times)),
            "peak_rss_mb": metric(rss["server_mb"] + rss["worker_mb"], "MB"),
        }

    def reset_inputs(self) -> None:
        """Restore the input files a previous phase may have changed."""

    def traced(self) -> dict:
        """Untraced phase, then the traced phase; per-layer metrics."""
        self.reset_inputs()
        sut = self.start_sut()
        try:
            untraced = self.measured(sut)
        finally:
            sut.close()
        self.reset_inputs()
        sut = self.start_sut()
        try:
            before = sut.call("trace")["registry"]
            samples = self.measured(sut)
            side = sut.call("side", timeout=170.0)
            stats = sut.call("stats")
        finally:
            sut.close()
        return self.layer_metrics(untraced, samples, side, stats,
                                  Registry(before, stats["registry"]))

    # -- per-workload hooks ---------------------------------------------------
    #: input feed format, ``json`` (array file) or ``jsonl``
    feed = ""

    @property
    def flow(self) -> str:
        return inputs.FLOWS[self.feed]

    def prepare(self) -> None:
        raise NotImplementedError

    def measure(self, sut: SUTProcess) -> list[Sample]:
        raise NotImplementedError

    def end_to_end(self, samples: list[Sample], stats: dict) -> dict:
        raise NotImplementedError

    def layer_metrics(self, untraced, samples, side, stats, reg) -> dict:
        raise NotImplementedError


class Registry:
    """Deltas between two ``MetricsRegistry.as_dict()`` snapshots."""

    def __init__(self, before: dict, after: dict):
        self.before, self.after = before, after

    @staticmethod
    def _total(snapshot: dict, name: str, labels: dict) -> float:
        entry = snapshot.get(name)
        if entry is None:
            return 0.0
        total = 0.0
        for series in entry["series"]:
            if all(series["labels"].get(k) == v for k, v in labels.items()):
                total += series.get("value", series.get("count", 0))
        return total

    def delta(self, name: str, **labels: str) -> float:
        return (self._total(self.after, name, labels)
                - self._total(self.before, name, labels))

    def value(self, name: str, **labels: str) -> float:
        return self._total(self.after, name, labels)

    def ratio(self, num: str, other: str, **labels: str) -> float:
        """``num / (num + other)`` over the phase; 0 when both are 0."""
        a, b = self.delta(num, **labels), self.delta(other, **labels)
        return a / (a + b) if a + b else 0.0


def _spans(stats: dict, layer: str) -> list[float]:
    return stats["trace"]["spans"].get(layer, [])


def _median_or_zero(values: list[float], scale: float = 1.0) -> float:
    return median(values) * scale if values else 0.0


def _layer_defaults() -> dict:
    """Every per-layer metric, zero where the workload has no such work."""
    units = {
        "connectors.load_s": "s", "formats.decode_s": "s",
        "connectors.delta_bytes": "B/op", "compiler.compile_ms": "ms",
        "engine.distributed.run_s": "s", "engine.sequential.run_s": "s",
        "engine.parallel_speedup": "x", "engine.stages": "count/op",
        "engine.shuffled_records": "count/op",
        "engine.shuffled_bytes": "B/op", "engine.attempts": "count/op",
        "engine.local.run_s": "s", "scheduler.pool_forks": "count/op",
        "scheduler.dispatch_fallback_ratio": "ratio",
        "scheduler.arena_bytes": "B", "data.page_codec_bytes": "B/op",
        "data.encode_fallbacks": "count/op", "incremental.refresh_s": "s",
        "incremental.delta_rows": "count/op",
        "incremental.flows_incremental_ratio": "ratio",
        "query.eval_ms": "ms", "query_cache.hit_ratio": "ratio",
        "query_cache.evictions": "count/op", "serialize.ms": "ms",
        "app.handle_ms": "ms", "http.overhead_ms": "ms",
        "serving.rejected_ratio": "ratio", "datacube.query_ms": "ms",
        "datacube.cache_hit_ratio": "ratio", "widgets.render_ms": "ms",
        "loadgen.late_ms": "ms", "trace.coverage_ratio": "ratio",
    }
    return {name: metric(0.0, unit) for name, unit in units.items()}


def _serving_layers(metrics: dict, samples, stats, reg, reads) -> None:
    """Layers every HTTP workload shares (query, cache, app, HTTP)."""
    served = [s for s in samples if s.kind == "read" and s.ok]
    app_ms = _median_or_zero(_spans(stats, "app.handle"), 1000.0)
    per_read = max(1, len(reads))
    metrics.update({
        "query.eval_ms": metric(
            _median_or_zero(_spans(stats, "query.eval"), 1000.0), "ms"),
        "query_cache.hit_ratio": metric(reg.ratio(
            "repro_query_cache_hits_total",
            "repro_query_cache_misses_total", cache="server"), "ratio"),
        "query_cache.evictions": metric(reg.delta(
            "repro_query_cache_evictions_total", cache="server") / per_read,
            "count/op"),
        "serialize.ms": metric(
            _median_or_zero(_spans(stats, "serialize"), 1000.0), "ms"),
        "app.handle_ms": metric(app_ms, "ms"),
        "http.overhead_ms": metric(
            _median_or_zero([s.service_ms for s in served]) - app_ms, "ms"),
        "serving.rejected_ratio": metric(reg.ratio(
            "repro_serving_rejected_total",
            "repro_serving_admitted_total"), "ratio"),
        "loadgen.late_ms": metric(
            percentile([s.late_ms for s in samples], 95.0), "ms"),
    })


def _read_event(port: int, target: str, offset: float, keep) -> Event:
    """A ``/ds/`` read; ``keep(sample, body)`` gets every 200 response."""
    def run(sample: Sample) -> None:
        resp = request(port, "GET", READ_PATH + target)
        sample.ok = resp.status == 200
        sample.info["target"] = target
        sample.info["version"] = int(resp.headers.get("x-endpoint-version", -1))
        if sample.ok:
            keep(sample, resp.body)

    return Event(offset, "read", run)


def _page(target: str) -> tuple[str, int]:
    """(query path, page offset) of a read target."""
    path, _, query = target.partition("?")
    return path, int(dict(parse_qsl(query)).get("offset", 0))


class Answers:
    """Expected answers to read paths, computed once per path."""

    def __init__(self, endpoints: dict):
        self.endpoints = endpoints
        self._cache: dict[str, oracle.Expected] = {}

    def problem(self, target: str, body: bytes) -> str | None:
        path, offset = _page(target)
        if path not in self._cache:
            self._cache[path] = oracle.Expected(self.endpoints, path)
        return self._cache[path].check_page(
            json.loads(body), offset, inputs.SERVER_PAGE)


def _rows(endpoints: dict) -> dict:
    """Endpoint rows from the columns the system under test sent."""
    return {name: [dict(zip(columns, values))
                   for values in zip(*columns.values())]
            for name, columns in endpoints.items()}


def _snapshot(sut: SUTProcess) -> tuple[dict, dict]:
    """Every endpoint in full, read inside the system under test
    (its CPU time is not counted as the program's): (rows, versions)."""
    reply = sut.call("snapshot")
    return _rows(reply["endpoints"]), reply["versions"]


# ---------------------------------------------------------------------------
# ipl_batch
# ---------------------------------------------------------------------------


class BatchWorkload(Workload):
    name = "ipl_batch"
    mode = "batch"
    feed = "json"

    def prepare(self) -> None:
        docs = inputs.tweets(self.sizes.batch_tweets, self.seed)
        size = inputs.write_json_array(self.data_dir / inputs.JSON_SOURCE, docs)
        self.out.facts.update(tweets=len(docs), input_bytes=size)
        self.reference = oracle.Reference(self.flow, data_dir=str(self.data_dir))

    def measure(self, sut: SUTProcess) -> list[Sample]:
        """Closed loop: one cycle after another until ``seconds`` pass."""
        samples = []
        deadline = time.perf_counter() + self.seconds
        while time.perf_counter() < deadline or len(samples) < 2:
            sample = Sample("cycle", time.perf_counter())
            sample.sent = sample.due
            reply = sut.call("cycle", rows=True, timeout=170.0)
            sample.done = sample.sent + reply["seconds"]
            sample.ok = True
            self.out.check(*oracle.check_endpoints(
                _rows(reply["endpoints"]), self.reference))
            samples.append(sample)
        return samples

    def end_to_end(self, samples, stats) -> dict:
        cycles = [s.service_ms / 1000.0 for s in samples]
        self.out.ops = len(cycles)
        return {
            **self.common_metrics(stats),
            "batch_s": metric(median(cycles), "s", len(cycles)),
        }

    def traced(self) -> dict:
        # Batch cycles keep no state between them, so the untraced and
        # traced phases share one start-up.
        sut = self.start_sut()
        try:
            untraced = self.measured(sut)
            before = sut.call("trace")["registry"]
            samples = self.measured(sut)
            side = sut.call("side", timeout=170.0)
            stats = sut.call("stats")
        finally:
            sut.close()
        return self.layer_metrics(untraced, samples, side, stats,
                                  Registry(before, stats["registry"]))

    def layer_metrics(self, untraced, samples, side, stats, reg) -> dict:
        counts = stats["trace"]["counts"]
        cycles = max(1, len(samples))
        runs = max(1, counts.get("engine.distributed.runs", 0))
        compile_ms = [
            (p + c) * 1000.0 for p, c in zip(
                _spans(stats, "compiler.parse"),
                _spans(stats, "compiler.compile"))
        ]
        load = _median_or_zero(_spans(stats, "connectors.load"))
        dist = _median_or_zero(_spans(stats, "engine.distributed"))
        seq = _median_or_zero(_spans(stats, "engine.sequential"))
        covered = load + dist + _median_or_zero(compile_ms) / 1000.0
        baseline = median([s.service_ms for s in untraced]) / 1000.0
        metrics = _layer_defaults()
        metrics.update({
            "connectors.load_s": metric(load, "s"),
            "formats.decode_s": metric(median(side["decode_s"]), "s"),
            "compiler.compile_ms": metric(_median_or_zero(compile_ms), "ms"),
            "engine.distributed.run_s": metric(dist, "s"),
            "engine.sequential.run_s": metric(seq, "s"),
            "engine.parallel_speedup": metric(seq / dist if dist else 0.0, "x"),
            "engine.stages": metric(
                counts.get("engine.distributed.stages", 0) / runs, "count/op"),
            "engine.shuffled_records": metric(counts.get(
                "engine.distributed.shuffled_records", 0) / runs, "count/op"),
            "engine.shuffled_bytes": metric(counts.get(
                "engine.distributed.shuffled_bytes", 0) / runs, "B/op"),
            "engine.attempts": metric(
                counts.get("engine.distributed.attempts", 0) / runs,
                "count/op"),
            "scheduler.pool_forks": metric(
                reg.delta("repro_pool_forks_total") / cycles, "count/op"),
            "scheduler.dispatch_fallback_ratio": metric(reg.ratio(
                "repro_pool_dispatch_fallbacks_total",
                "repro_pool_warm_hits_total"), "ratio"),
            "scheduler.arena_bytes": metric(
                reg.value("repro_pool_arena_bytes"), "B"),
            "data.page_codec_bytes": metric(
                reg.delta("repro_page_codec_bytes_total") / cycles, "B/op"),
            "data.encode_fallbacks": metric(
                reg.delta("repro_table_encode_fallbacks_total") / cycles,
                "count/op"),
            "trace.coverage_ratio": metric(covered / baseline, "ratio"),
        })
        return metrics


# ---------------------------------------------------------------------------
# ipl_serve
# ---------------------------------------------------------------------------


class ServeWorkload(Workload):
    name = "ipl_serve"
    mode = "serve"
    feed = "json"

    def prepare(self) -> None:
        docs = inputs.tweets(self.sizes.serve_tweets, self.seed)
        size = inputs.write_json_array(self.data_dir / inputs.JSON_SOURCE, docs)
        self.reference = oracle.Reference(self.flow, data_dir=str(self.data_dir))
        self.universe = inputs.query_universe(
            self.reference.endpoints, self.seed, self.sizes.universe)
        totals = [len(oracle.Expected(self.reference.endpoints, path).rows)
                  for path in self.universe]
        count = int(self.seconds * self.sizes.read_rate)
        self.reads = inputs.zipf_reads(
            self.universe, totals, count, self.seed,
            self.sizes.zipf_skew, self.sizes.later_page_share)
        self.gestures = inputs.gestures(
            int(self.seconds / self.sizes.gesture_interval), self.seed)
        self.out.facts.update(
            tweets=len(docs), input_bytes=size, queries=len(self.universe),
            reads=count, gestures=len(self.gestures))

    def measure(self, sut: SUTProcess) -> list[Sample]:
        port = sut.port
        #: the first response body of every distinct read target
        self.kept: dict[str, bytes] = {}
        #: gesture index -> [(widget, response body)]
        self.gesture_payloads: dict[int, list[tuple[str, bytes]]] = {}
        rate = self.sizes.read_rate

        def keep(sample: Sample, body: bytes) -> None:
            self.kept.setdefault(sample.info["target"], body)

        events = [_read_event(port, target, i / rate, keep)
                  for i, target in enumerate(self.reads)]
        turn = threading.Condition()
        state = {"next": 0}

        def gesture_event(j: int, widget: str, body: dict, affected: list):
            def run(sample: Sample) -> None:
                # One analyst: gestures apply strictly in script order.
                with turn:
                    turn.wait_for(lambda: state["next"] == j)
                try:
                    payloads = []
                    resp = request(port, "POST",
                                   f"/dashboards/clash/select/{widget}",
                                   json.dumps(body).encode())
                    ok = resp.status == 200
                    for name in affected:
                        resp = request(port, "GET",
                                       f"/dashboards/clash/widgets/{name}")
                        ok = ok and resp.status == 200
                        payloads.append((name, resp.body))
                    sample.ok = ok
                    self.gesture_payloads[j] = payloads
                finally:
                    with turn:
                        state["next"] += 1
                        turn.notify_all()

            return Event((j + 0.5) * self.sizes.gesture_interval, "gesture", run)

        events += [gesture_event(j, *g) for j, g in enumerate(self.gestures)]
        events.sort(key=lambda e: e.offset)
        samples = run_open_loop(events, threads=2)
        self._check(sut)
        return samples

    def _check(self, sut: SUTProcess) -> None:
        rows, _versions = _snapshot(sut)
        self.out.check(*oracle.check_endpoints(rows, self.reference))
        answers = Answers(self.reference.endpoints)
        for target, body in self.kept.items():
            problem = answers.problem(target, body)
            self.out.check([f"read {target}: {problem}"] if problem else [])
        selections = oracle.Selections(self.reference.endpoints)
        for j, (widget, body, _affected) in enumerate(self.gestures):
            selections.select(widget, body)
            payloads = self.gesture_payloads.get(j)
            if payloads is None:
                continue  # the gesture failed and counts as such already
            problems = [
                f"gesture {widget} {body}: widget {name} shows other data"
                for name, raw in payloads
                if not selections.check(name, json.loads(raw)["payload"])
            ]
            self.out.check(problems)

    def end_to_end(self, samples, stats) -> dict:
        reads = [s for s in samples if s.kind == "read"]
        gestures = [s for s in samples if s.kind == "gesture"]
        ok_reads = [s.latency_ms for s in reads if s.ok]
        self.out.ops = len(reads)
        slo = sum(s.ok and s.latency_ms <= self.sizes.read_slo_ms
                  for s in reads) / len(reads)
        return {
            **self.common_metrics(stats),
            **timing("read", ok_reads),
            "read_slo_ratio": metric(slo, "ratio", len(reads)),
            **timing("gesture", [s.latency_ms for s in gestures if s.ok]),
        }

    def layer_metrics(self, untraced, samples, side, stats, reg) -> dict:
        metrics = _layer_defaults()
        reads = [s for s in samples if s.kind == "read"]
        _serving_layers(metrics, samples, stats, reg, reads)
        counts = stats["trace"]["counts"]
        baseline = median(
            [s.latency_ms for s in untraced if s.kind == "read" and s.ok])
        metrics.update({
            "formats.decode_s": metric(median(side["decode_s"]), "s"),
            "datacube.query_ms": metric(_median_or_zero(
                _spans(stats, "datacube.query"), 1000.0), "ms"),
            "datacube.cache_hit_ratio": metric(
                counts.get("datacube.cache_hits", 0)
                / max(1, counts.get("datacube.queries", 0)), "ratio"),
            "widgets.render_ms": metric(_median_or_zero(
                _spans(stats, "widgets.render"), 1000.0), "ms"),
            "trace.coverage_ratio": metric(
                metrics["app.handle_ms"]["value"] / baseline, "ratio"),
        })
        return metrics


# ---------------------------------------------------------------------------
# ipl_refresh
# ---------------------------------------------------------------------------


class RefreshWorkload(Workload):
    name = "ipl_refresh"
    mode = "refresh"
    feed = "jsonl"
    #: the endpoint whose read carries ``?refresh=incremental``
    refresh_endpoint = "players_tweets"

    def prepare(self) -> None:
        sizes = self.sizes
        self.appends = int(self.seconds / sizes.refresh_interval)
        self.batch = max(1, int(sizes.refresh_tweets * sizes.append_share))
        total = sizes.refresh_tweets + self.appends * self.batch
        docs = inputs.tweets(total, self.seed)
        self.base = inputs.jsonl_bytes(docs[: sizes.refresh_tweets])
        self.batches = [
            inputs.jsonl_bytes(docs[sizes.refresh_tweets + k * self.batch:
                                    sizes.refresh_tweets + (k + 1) * self.batch])
            for k in range(self.appends)
        ]
        self.reset_inputs()
        from repro.dsl import parse_flow_file
        from repro.formats.json_format import JsonLinesFormat

        schema = parse_flow_file(self.flow).data["ipltweets"].schema
        self.decoded = JsonLinesFormat().decode(
            self.base + b"".join(self.batches), schema)
        #: reference per feed prefix: 0 is the initial feed, k + 1 the
        #: feed after the k-th append
        self.references: dict[int, oracle.Reference] = {}
        self.reference = self._reference(0)
        universe = inputs.query_universe(
            self.reference.endpoints, self.seed, sizes.universe)
        self.hot = inputs.hot_set(universe)
        rng = random.Random(self.seed ^ 0x407)
        count = int(self.seconds * sizes.hot_read_rate)
        self.reads = [rng.choice(self.hot) for _ in range(count)]
        self.out.facts.update(
            tweets=sizes.refresh_tweets, input_bytes=len(self.base),
            append_tweets=self.batch, appends=self.appends,
            hot_queries=len(self.hot), reads=count)

    def _reference(self, prefix: int) -> oracle.Reference:
        if prefix not in self.references:
            rows = self.sizes.refresh_tweets + prefix * self.batch
            self.references[prefix] = oracle.Reference(
                self.flow, tweets=self.decoded.head(rows))
        return self.references[prefix]

    def reset_inputs(self) -> None:
        (self.data_dir / inputs.JSONL_SOURCE).write_bytes(self.base)

    def measure(self, sut: SUTProcess) -> list[Sample]:
        port = sut.port
        feed = self.data_dir / inputs.JSONL_SOURCE
        rows, initial = _snapshot(sut)
        self.out.check(*oracle.check_endpoints(rows, self.reference))
        #: per append k: (flushed, endpoint rows, versions) after its refresh
        self.snapshots: dict[int, tuple[float, dict, dict]] = {}
        #: per append k: (refresh request sent, response received)
        self.refresh_times: dict[int, tuple[float, float]] = {}
        #: every successful read: (sample, response body)
        self.kept: list[tuple[Sample, bytes]] = []
        interval = self.sizes.refresh_interval

        def refresh_event(k: int) -> Event:
            def run(sample: Sample) -> None:
                with feed.open("ab") as handle:
                    handle.write(self.batches[k])
                flushed = start = time.perf_counter()
                try:
                    resp = request(port, "GET", f"{READ_PATH}"
                                   f"{self.refresh_endpoint}?refresh=incremental")
                finally:
                    self.refresh_times[k] = (start, time.perf_counter())
                sample.info["refresh_ms"] = (
                    self.refresh_times[k][1] - start) * 1e3
                sample.ok = resp.status == 200
                rows, versions = _snapshot(sut)
                self.snapshots[k] = (flushed, rows, versions)

            return Event((k + 0.5) * interval, "refresh", run)

        rate = self.sizes.hot_read_rate
        reads = [_read_event(port, target, i / rate,
                             lambda s, body: self.kept.append((s, body)))
                 for i, target in enumerate(self.reads)]
        refreshes = [refresh_event(k) for k in range(self.appends)]
        start = time.perf_counter() + 0.05
        results: dict[str, list[Sample]] = {}
        writer = threading.Thread(target=lambda: results.__setitem__(
            "refresh", run_open_loop(refreshes, 1, start)))
        writer.start()
        results["read"] = run_open_loop(reads, 1, start)
        writer.join()
        self.initial_versions = initial
        self._check()
        return results["refresh"] + results["read"]

    def _versions(self, prefix: int) -> dict | None:
        if prefix == 0:
            return self.initial_versions
        snapshot = self.snapshots.get(prefix - 1)
        return snapshot[2] if snapshot else None

    def _check(self) -> None:
        for k, (_flushed, rows, _versions) in sorted(self.snapshots.items()):
            self.out.check(*oracle.check_endpoints(rows, self._reference(k + 1)))
        self._check_reads()

    def _check_reads(self) -> None:
        """Every read against the feed prefixes it may show.

        A read sent after the k-th refresh returned must show at least
        prefix k; one that returned before a refresh was sent cannot
        show that refresh.  Between refreshes that leaves exactly one
        prefix, so a response served from a cache past a version bump
        fails.  The version header must lie in the same range (it is
        read after the rows, so it may be newer than them, never older).
        """
        answers: dict[int, Answers] = {}
        for sample, body in self.kept:
            lo = sum(done <= sample.sent
                     for _sent, done in self.refresh_times.values())
            hi = sum(sent <= sample.done
                     for sent, _done in self.refresh_times.values())
            target = sample.info["target"]
            problems = []
            for prefix in range(lo, hi + 1):
                if prefix not in answers:
                    answers[prefix] = Answers(self._reference(prefix).endpoints)
                found = answers[prefix].problem(target, body)
                if found is None:
                    break
            else:
                problems.append(f"read {target} ({lo}..{hi} appends "
                                f"applied): {found}")
            endpoint = target.split("/", 1)[0]
            low, high = self._versions(lo), self._versions(hi)
            if low is not None and high is not None and not (
                    low[endpoint] <= sample.info["version"] <= high[endpoint]):
                problems.append(
                    f"read {target}: version {sample.info['version']} outside "
                    f"{low[endpoint]}..{high[endpoint]}")
            self.out.check(problems)

    def freshness(self, samples: list[Sample]) -> list[float]:
        """Per append: flush to the first read showing its version."""
        reads = sorted((s for s in samples if s.kind == "read" and s.ok),
                       key=lambda s: s.done)
        out = []
        previous = self.initial_versions
        for _k, (flushed, _rows, versions) in sorted(self.snapshots.items()):
            changed = {n: v for n, v in versions.items()
                       if v > previous.get(n, -1)}
            previous = versions
            for s in reads:
                endpoint = s.info["target"].split("/", 1)[0]
                if (s.done > flushed and endpoint in changed
                        and s.info["version"] >= changed[endpoint]):
                    out.append((s.done - flushed) * 1000.0)
                    break
        return out

    def end_to_end(self, samples, stats) -> dict:
        reads = [s for s in samples if s.kind == "read"]
        refreshes = [s for s in samples if s.kind == "refresh"]
        refresh_ms = [s.info["refresh_ms"] for s in refreshes if s.ok]
        self.out.ops = len(refreshes)
        slo = sum(s.ok and s.latency_ms <= self.sizes.read_slo_ms
                  for s in reads) / len(reads)
        fresh = self.freshness(samples)
        return {
            **self.common_metrics(stats),
            **timing("read", [s.latency_ms for s in reads if s.ok]),
            "read_slo_ratio": metric(slo, "ratio", len(reads)),
            "refresh_p50_ms": metric(median(refresh_ms), "ms", len(refresh_ms)),
            "freshness_p50_ms": metric(median(fresh), "ms", len(fresh)),
        }

    def layer_metrics(self, untraced, samples, side, stats, reg) -> dict:
        metrics = _layer_defaults()
        reads = [s for s in samples if s.kind == "read"]
        _serving_layers(metrics, samples, stats, reg, reads)
        counts = stats["trace"]["counts"]
        refreshes = max(1, counts.get("incremental.refreshes", 0))
        flows = (counts.get("incremental.flows_incremental", 0)
                 + counts.get("incremental.flows_full", 0))
        refresh_s = _median_or_zero(_spans(stats, "incremental.refresh"))
        baseline = median([s.info["refresh_ms"] for s in untraced
                           if s.kind == "refresh" and s.ok]) / 1000.0
        metrics.update({
            "formats.decode_s": metric(median(side["decode_s"]), "s"),
            "connectors.delta_bytes": metric(
                counts.get("connectors.delta_bytes", 0) / refreshes, "B/op"),
            "engine.local.run_s": metric(
                _median_or_zero(_spans(stats, "engine.local")), "s"),
            "incremental.refresh_s": metric(refresh_s, "s"),
            "incremental.delta_rows": metric(
                counts.get("incremental.delta_rows", 0) / refreshes,
                "count/op"),
            "incremental.flows_incremental_ratio": metric(
                counts.get("incremental.flows_incremental", 0) / flows
                if flows else 0.0, "ratio"),
            "data.encode_fallbacks": metric(
                reg.delta("repro_table_encode_fallbacks_total") / refreshes,
                "count/op"),
            "trace.coverage_ratio": metric(refresh_s / baseline, "ratio"),
        })
        return metrics


WORKLOADS = {w.name: w for w in (BatchWorkload, ServeWorkload, RefreshWorkload)}


def cleanup(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:
        pass  # another run is still using it
