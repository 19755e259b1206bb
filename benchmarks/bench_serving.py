"""Load harness: the serving tier under concurrency and overload.

The acceptance benchmark for the production serving tier.  A real
threaded server (``serve(port=0)``) takes mixed traffic from hundreds
of concurrent clients through three measured phases:

* **steady** — reader clients issue cheap ``/ds/`` reads (cache hits
  after the first) plus occasional ``/metrics`` scrapes;
* **overload** — a much larger fleet of "runner" clients hammers
  ``POST .../run`` (a real recompute per request) on top of the
  readers, driving the admission queue past its high watermark;
* **recovery** — the runners stop; after one controller window the
  readers alone are measured again.

Per phase the harness records RPS, p50/p95/p99 latency and a status
histogram into ``results/BENCH_serving.json``, plus the tier's own
rejection counters (queue_full / rate_limited / shed) and the time the
overload controller took to flip back to ``normal``.

Full mode asserts the overload contract end to end:

* **zero unintentional 5xx** — every response is 2xx or an intentional,
  structured 429/503/504, and every 429/503 carries ``Retry-After``;
* overload actually sheds (at least one 429/503 in the overload phase)
  while cheap reads keep flowing (2xx during overload);
* p99 latency of *admitted* (2xx) requests stays bounded by the
  request deadline — backpressure converts overload into fast
  rejections, not slow answers;
* reader goodput in the recovery phase is at least 90% of the steady
  phase, measured from one controller window after the overload ends.

``BENCH_SMOKE=1`` (the CI ``serving`` job) shrinks the fleet and the
phase durations and relaxes the recovery ratio to "some goodput" — a
correctness+direction gate that stays fast on shared runners.
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.error
import urllib.request

from conftest import report_json

from repro import Platform
from repro.data import Schema, Table
from repro.server import ServingConfig, serve

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

READERS = 4 if SMOKE else 16
RUNNERS = 16 if SMOKE else 96
STEADY_SECONDS = 0.8 if SMOKE else 4.0
OVERLOAD_SECONDS = 0.8 if SMOKE else 4.0
RECOVERY_SECONDS = 0.8 if SMOKE else 4.0
ENDPOINT_ROWS = 5_000 if SMOKE else 30_000
MIN_RECOVERY_RATIO = 0.0 if SMOKE else 0.9

CONFIG = ServingConfig(
    workers=4,
    queue_depth=8,
    request_timeout=2.0,
    rate_limit=150.0,
    rate_burst=50,
    controller_window=0.25,
    drain_timeout=10.0,
)

FLOW = (
    "D:\n    raw: [k, v]\n    counts: [k, total]\n"
    "F:\n    D.counts: D.raw | T.agg\n"
    "    D.counts:\n        endpoint: true\n"
    "T:\n"
    "    agg:\n"
    "        type: groupby\n"
    "        groupby: [k]\n"
    "        aggregates:\n"
    "            - operator: sum\n"
    "              apply_on: v\n"
    "              out_field: total\n"
)

#: statuses the tier mints on purpose; anything else 5xx is a bug
INTENTIONAL = {429, 503, 504}


class PhaseRecorder:
    """Thread-safe (status, latency, retry_after_present) samples."""

    def __init__(self):
        self._lock = threading.Lock()
        self.samples: list[tuple[int, float, bool]] = []

    def add(self, status: int, latency: float, retry_after: bool):
        with self._lock:
            self.samples.append((status, latency, retry_after))

    def summary(self, seconds: float) -> dict:
        statuses: dict[str, int] = {}
        ok_latencies = []
        missing_retry_after = 0
        for status, latency, retry_after in self.samples:
            statuses[str(status)] = statuses.get(str(status), 0) + 1
            if 200 <= status < 300:
                ok_latencies.append(latency)
            elif status in (429, 503) and not retry_after:
                missing_retry_after += 1
        ok_latencies.sort()

        def pct(p: float) -> float:
            if not ok_latencies:
                return 0.0
            index = min(
                len(ok_latencies) - 1, int(p * len(ok_latencies))
            )
            return round(ok_latencies[index] * 1000, 3)

        ok = len(ok_latencies)
        return {
            "requests": len(self.samples),
            "statuses": statuses,
            "rps": round(len(self.samples) / seconds, 1),
            "goodput_rps": round(ok / seconds, 1),
            "p50_ms": pct(0.50),
            "p95_ms": pct(0.95),
            "p99_ms": pct(0.99),
            "missing_retry_after": missing_retry_after,
        }


def _hit(base: str, method: str, path: str, recorder: PhaseRecorder):
    request = urllib.request.Request(
        base + path, data=b"" if method == "POST" else None,
        method=method,
    )
    started = time.perf_counter()
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            response.read()
            status = response.status
            retry_after = "Retry-After" in response.headers
    except urllib.error.HTTPError as error:
        error.read()
        status = error.code
        retry_after = "Retry-After" in error.headers
    except OSError:
        # Connection-level noise (e.g. accept backlog overflow on a
        # loaded runner) is not an HTTP answer; don't count it.
        return
    recorder.add(status, time.perf_counter() - started, retry_after)


def _client_fleet(base, recorder, stop, count, plan):
    """``count`` threads looping over ``plan`` until ``stop`` is set."""

    def loop(index):
        step = 0
        while not stop.is_set():
            method, path = plan[(index + step) % len(plan)]
            _hit(base, method, path, recorder)
            step += 1

    threads = [
        threading.Thread(target=loop, args=(i,), daemon=True)
        for i in range(count)
    ]
    for thread in threads:
        thread.start()
    return threads


READER_PLAN = [
    ("GET", "/dashboards/bench/ds/counts?tenant=readers"),
    ("GET",
     "/dashboards/bench/ds/counts/orderby/total/desc?tenant=readers"),
    ("GET", "/dashboards/bench/ds/counts?tenant=readers"),
    ("GET", "/metrics"),
]

RUNNER_PLAN = [
    ("POST", "/dashboards/bench/run?tenant=runners"),
]


def _run_phase(base, seconds, fleets):
    """fleets: list of (count, plan); returns the phase summary."""
    recorder = PhaseRecorder()
    stop = threading.Event()
    threads = []
    for count, plan in fleets:
        threads.extend(
            _client_fleet(base, recorder, stop, count, plan)
        )
    time.sleep(seconds)
    stop.set()
    for thread in threads:
        thread.join(timeout=10.0)
    return recorder.summary(seconds)


def _rejections(platform) -> dict[str, int]:
    from repro.observability.instruments import SERVING_REJECTED

    counter = platform.observability.metrics.get(SERVING_REJECTED)
    if counter is None:
        return {}
    totals: dict[str, int] = {}
    for labels, value in counter.series():
        reason = dict(labels).get("reason", "?")
        totals[reason] = totals.get(reason, 0) + int(value)
    return totals


def test_serving_under_overload():
    platform = Platform()
    platform.create_dashboard(
        "bench",
        FLOW,
        inline_tables={
            "raw": Table.from_rows(
                Schema.of("k", "v"),
                [(f"k{i % 40}", i % 1000)
                 for i in range(ENDPOINT_ROWS)],
            )
        },
    )
    platform.run_dashboard("bench")

    ready = threading.Event()
    server = serve(platform, port=0, ready_event=ready, config=CONFIG)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    assert ready.wait(5.0)
    host, port = server.server_address
    base = f"http://{host}:{port}"

    try:
        # Warm the caches so steady-state readers measure the hot path.
        _hit(base, "GET", READER_PLAN[0][1], PhaseRecorder())

        steady = _run_phase(
            base, STEADY_SECONDS, [(READERS, READER_PLAN)]
        )
        before_overload = _rejections(platform)

        overload = _run_phase(
            base, OVERLOAD_SECONDS,
            [(READERS, READER_PLAN), (RUNNERS, RUNNER_PLAN)],
        )
        overload_rejections = {
            reason: count - before_overload.get(reason, 0)
            for reason, count in _rejections(platform).items()
        }

        # Give the controller one window to observe the calm, then
        # measure reader goodput again.
        time.sleep(CONFIG.controller_window)
        recovery_started = time.perf_counter()
        state = "?"
        while time.perf_counter() - recovery_started < 5.0:
            snapshot = server.tier.snapshot()
            state = snapshot["state"]
            if state == "normal" and snapshot["queue_depth"] == 0:
                break
            time.sleep(0.05)
        state_recovery_seconds = time.perf_counter() - recovery_started

        recovery = _run_phase(
            base, RECOVERY_SECONDS, [(READERS, READER_PLAN)]
        )
    finally:
        drained = server.shutdown(drain_timeout=10.0)

    ratio = (
        recovery["goodput_rps"] / steady["goodput_rps"]
        if steady["goodput_rps"]
        else 0.0
    )
    verdict = {
        "mode": "smoke" if SMOKE else "full",
        "readers": READERS,
        "runners": RUNNERS,
        "config": {
            "workers": CONFIG.workers,
            "queue_depth": CONFIG.queue_depth,
            "request_timeout_s": CONFIG.request_timeout,
            "rate_limit_rps": CONFIG.rate_limit,
            "controller_window_s": CONFIG.controller_window,
        },
        "overload_rejections": overload_rejections,
        "controller_recovery_seconds": round(
            state_recovery_seconds, 3
        ),
        "recovery_goodput_ratio": round(ratio, 3),
        "drained_cleanly": drained,
    }
    report_json("serving", "steady", steady)
    report_json("serving", "overload", overload)
    report_json("serving", "recovery", recovery)
    report_json("serving", "verdict", verdict)

    # -- the overload contract -------------------------------------------
    for phase_name, phase in [
        ("steady", steady), ("overload", overload),
        ("recovery", recovery),
    ]:
        for status_text, count in phase["statuses"].items():
            status = int(status_text)
            assert status < 500 or status in INTENTIONAL, (
                f"{phase_name}: {count} unintentional {status} responses"
            )
        # Intentional rejections always tell clients when to retry.
        assert phase["missing_retry_after"] == 0, phase_name
        # Admitted requests stay bounded by the deadline (+ scheduling
        # slack) — overload turns into fast rejection, not slow answers.
        assert phase["p99_ms"] <= CONFIG.request_timeout * 1000 + 500, (
            phase_name
        )

    assert steady["goodput_rps"] > 0
    assert overload["goodput_rps"] > 0, (
        "cheap reads must keep flowing during overload"
    )
    if not SMOKE:
        shed_total = sum(
            count for status, count in overload["statuses"].items()
            if int(status) in (429, 503)
        )
        assert shed_total > 0, (
            f"overload never shed: {overload['statuses']}"
        )
        assert ratio >= MIN_RECOVERY_RATIO, (
            f"recovery goodput {recovery['goodput_rps']} rps is "
            f"{ratio:.0%} of steady {steady['goodput_rps']} rps"
        )
    assert drained is True
