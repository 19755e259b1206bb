"""The load generator: the system-under-test process and open-loop HTTP.

One generator process drives the system under test, which runs as a
separate process (``sut.py``) so the two do not share an interpreter
lock.  Requests follow a fixed schedule (open loop): each one is due
at a set time whether or not earlier ones have finished, and its
latency counts from when it was due, so a stall shows up in every
request queued behind it.  The generator uses at most two threads and
two connections at a time.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent


class SUTError(RuntimeError):
    pass


class SUTProcess:
    """A running ``sut.py`` and its JSON-lines control channel."""

    def __init__(self, config: dict, workdir: Path, timeout: float = 120.0):
        tmp = workdir / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        # The program's pool arenas and spill files stay in the checkout.
        env["TMPDIR"] = str(tmp)
        env.pop("PYTHONPATH", None)
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "sut.py"), json.dumps(config)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            text=True, bufsize=1,
        )
        self.ready = self._read(timeout)
        self.setup_s = time.perf_counter() - started
        self.port = self.ready.get("port")

    def _read(self, timeout: float) -> dict:
        result: list[str] = []
        reader = threading.Thread(
            target=lambda: result.append(self.proc.stdout.readline()),
            daemon=True,
        )
        reader.start()
        reader.join(timeout)
        if not result or not result[0]:
            self.kill()
            raise SUTError("system under test exited or timed out")
        return json.loads(result[0])

    def call(self, cmd: str, timeout: float = 120.0, **args: Any) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd, **args}) + "\n")
        self.proc.stdin.flush()
        return self._read(timeout)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.call("quit", timeout=30.0)
                self.proc.wait(timeout=30.0)
            except (SUTError, OSError, subprocess.TimeoutExpired):
                pass
        self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()


@dataclass
class Response:
    status: int
    headers: dict[str, str]
    body: bytes


def request(
    port: int, method: str, path: str, body: bytes | None = None,
    timeout: float = 30.0,
) -> Response:
    """One HTTP request on a fresh connection (the server closes after
    each response)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        data = resp.read()
        return Response(
            resp.status, {k.lower(): v for k, v in resp.getheaders()}, data
        )
    finally:
        conn.close()


@dataclass
class Sample:
    """One scheduled operation's outcome (times from ``time.perf_counter``)."""

    kind: str
    due: float
    sent: float = 0.0
    done: float = 0.0
    ok: bool = False
    info: dict = field(default_factory=dict)

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def service_ms(self) -> float:
        return (self.done - self.sent) * 1000.0

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1000.0


@dataclass
class Event:
    """An operation due ``offset`` seconds into the phase."""

    offset: float
    kind: str
    run: Callable[[Sample], None]


def run_open_loop(
    events: list[Event], threads: int, start: float | None = None
) -> list[Sample]:
    """Run ``events`` (sorted by offset) on ``threads`` workers.

    Workers take events in schedule order, wait until each is due and
    run it; when all workers are busy the next event waits, and that
    wait counts in its latency.  An exception inside ``run`` marks the
    sample failed and keeps the loop going.
    """
    if start is None:
        start = time.perf_counter() + 0.05
    samples = [Sample(e.kind, start + e.offset) for e in events]
    cursor = iter(range(len(events)))
    lock = threading.Lock()

    def worker() -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            sample = samples[i]
            delay = sample.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sample.sent = time.perf_counter()
            try:
                events[i].run(sample)
            except Exception as exc:  # noqa: BLE001 - a failed operation
                sample.ok = False
                sample.info["error"] = f"{type(exc).__name__}: {exc}"
            sample.done = time.perf_counter()

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    return samples
