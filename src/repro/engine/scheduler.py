"""Deterministic parallel scheduling primitives for the batch engine.

The distributed executor splits every stage into per-partition *units*
of pure compute.  :class:`WorkerPool` runs those units on a bounded
executor and hands their outcomes back **in submission order**, so
the engine can merge partition results, telemetry and spans exactly as
the sequential engine would — parallelism changes wall time, never
output.

Two executors sit behind the same interface (see
``docs/parallelism.md`` for the selection matrix):

- ``threads`` — a bounded :class:`~concurrent.futures.ThreadPoolExecutor`.
  Cheap to start and shares memory, but pure-python compute serializes
  on the GIL, so it only pays for I/O-bound units.
- ``processes`` — a :class:`ProcessPool` of forked workers (POSIX only;
  falls back to threads where ``os.fork`` is unavailable).  The pool
  forks its workers once; each batch pickles the unit thunks into one
  dispatch frame per worker, and workers stream the *results* back as
  length-prefixed pipe frames.  Table results travel as binary
  page-codec blobs (:mod:`repro.data.pages`): typed/dictionary columns
  ship raw array buffers with bit-packed null masks instead of boxed
  objects.

A pool lent by the caller (``WorkerPool(executor="processes",
pool=...)``, normally the platform's warm pool) stays warm across
stages and runs; without one, each batch opens a private pool and
closes it afterwards.  A batch the pool cannot take (closed, or a
thunk that refuses to pickle — the latter logged on ``repro.pool``)
runs inline on the coordinator instead, with the same outcomes.

Two design rules keep the determinism guarantee cheap:

- units must be pure (no tracer, no fault injector, no clock): all
  shared-state decisions are resolved by the coordinator *before*
  dispatch, in canonical partition order;
- worker exceptions are captured, not raised, so the coordinator can
  re-raise them at the same point in the merge order where sequential
  execution would have failed.  A worker process that dies without
  reporting (kill -9, ``os._exit``) surfaces as a captured
  :class:`~repro.errors.WorkerLostError`, which re-enters the engine's
  lineage-recovery path on the coordinator.
"""

from __future__ import annotations

import json
import logging
import os
import pickle
import signal
import struct
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterator, Sequence

from repro.data import pages as page_codec
from repro.data.table import Table
from repro.errors import WorkerLostError
from repro.observability.instruments import record_page_codec
from repro.tasks.base import revive_contexts_per_run

#: the executor vocabulary, in documentation order
EXECUTORS = ("threads", "processes")

_LENGTH = struct.Struct("<Q")

#: one structured (JSON) line per pool batch that falls back to inline
#: execution, naming the unit type that refused to pickle
_LOG = logging.getLogger("repro.pool")


def fork_available() -> bool:
    """True when the process executor can actually fork (POSIX)."""
    return hasattr(os, "fork")


def resolve_executor(executor: str) -> str:
    """Validate an executor name against :data:`EXECUTORS`."""
    name = str(executor).lower()
    if name not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; choose one of "
            f"{', '.join(EXECUTORS)}"
        )
    return name


class UnitOutcome:
    """Result of one unit: a value or the exception it raised."""

    __slots__ = ("value", "error")

    def __init__(
        self, value: Any = None, error: BaseException | None = None
    ):
        self.value = value
        self.error = error

    @property
    def failed(self) -> bool:
        return self.error is not None

    def __repr__(self) -> str:
        if self.failed:
            return f"UnitOutcome(error={self.error!r})"
        return f"UnitOutcome(value={self.value!r})"


class ProcessTransportError(RuntimeError):
    """A worker's result or exception could not be pickled back.

    Raised on the coordinator in place of the original outcome; the
    message carries the original type name and repr.
    """


class PoolStats:
    """Lifetime counters for one :class:`ProcessPool` (all monotonic)."""

    __slots__ = (
        "forks", "recycled", "respawns", "warm_hits", "dispatch_fallbacks",
    )

    def __init__(self) -> None:
        self.forks = 0
        self.recycled = 0
        self.respawns = 0
        self.warm_hits = 0
        self.dispatch_fallbacks = 0

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={getattr(self, name)}" for name in self.__slots__
        )
        return f"PoolStats({inner})"


class _PoolWorker:
    """Coordinator-side handle for one live pool worker."""

    __slots__ = ("pid", "dispatch_w", "result_r", "tasks_done", "rss_bytes")

    def __init__(self, pid: int, dispatch_w: int, result_r: int):
        self.pid = pid
        self.dispatch_w = dispatch_w
        self.result_r = result_r
        self.tasks_done = 0
        self.rss_bytes = 0


class ProcessPool:
    """A pool of forked workers, warm across the batches it serves.

    The pool forks its workers **once** (lazily on the first batch, or
    up front via :meth:`prefork`); every batch after that is a
    *dispatch*: the coordinator pickles each unit thunk, sends one
    length-prefixed dispatch frame per worker over its pipe, and
    workers stream one pickled result frame per unit back over a second
    pipe — so steady-state batch overhead is two pipe round trips, not
    ``workers`` forks.

    The dispatch protocol needs no event loop to be deadlock-free: a
    worker fully reads its dispatch frame before writing any result,
    and every worker is idle (blocked on that read) whenever the
    coordinator writes, because :meth:`run_batch` collects every
    worker's ``done`` marker before returning.  A blocked result pipe
    therefore never has the coordinator on the other end of a cycle.

    Failure and hygiene policy:

    - a worker that dies mid-batch surfaces its unfinished units as
      :class:`~repro.errors.WorkerLostError` (so the engine's lineage
      recovery just works) and is respawned before the next batch;
    - workers are recycled between batches once they exceed
      ``max_tasks_per_worker`` or ``max_rss_bytes`` (0 disables);
    - a batch whose thunks refuse to pickle returns ``None`` so the
      caller can run it inline instead — counted in
      ``stats.dispatch_fallbacks`` and logged as one JSON line on the
      ``repro.pool`` logger naming the unit type;
    - forked children close every other worker's inherited pipes, so
      EOF on a dead worker's result pipe is immediate.

    ``tracer`` is deliberately ``None`` by default: ``pool.dispatch``
    spans nest under the innermost open span and would change the span
    tree that canonical replay keeps byte-identical, so they are opt-in
    diagnostics only.  ``metrics`` (also optional) feeds the
    ``repro_pool_*`` family.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        max_tasks_per_worker: int = 0,
        max_rss_bytes: int = 0,
        metrics: Any = None,
        tracer: Any = None,
    ):
        self.workers = max(1, int(workers))
        self.max_tasks_per_worker = max(0, int(max_tasks_per_worker))
        self.max_rss_bytes = max(0, int(max_rss_bytes))
        self.metrics = metrics
        self.tracer = tracer
        self.stats = PoolStats()
        self._slots: list[_PoolWorker | None] = [None] * self.workers
        self._closed = False
        # One dispatch at a time: the platform shares its warm pool
        # across serving threads, so concurrent run_batch calls must
        # serialize instead of interleaving pipe writes.
        self._lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def available(self) -> bool:
        """True when this pool can dispatch (fork present, not closed)."""
        return fork_available() and not self._closed

    def alive(self) -> int:
        """Number of currently forked workers."""
        return sum(1 for worker in self._slots if worker is not None)

    def prefork(self) -> int:
        """Fork every missing worker now (serve-startup warm-up).

        Returns the number of live workers.  Dispatch would fork them
        lazily anyway; preforking just moves the cost off the first
        request.
        """
        if not self.available():
            return 0
        with self._lock:
            for slot in range(self.workers):
                if self._slots[slot] is None:
                    self._spawn(slot)
            return self.alive()

    def close(self) -> None:
        """Retire and reap every worker.

        Waits for an in-flight dispatch to finish first, so draining
        callers never kill workers out from under a running batch.
        """
        if self._closed:
            return
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for slot, worker in enumerate(self._slots):
                if worker is not None:
                    self._retire(worker)
                    self._slots[slot] = None

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- dispatch --------------------------------------------------------

    def run_batch(
        self,
        thunks: Sequence[Callable[[], Any]],
        max_workers: int | None = None,
    ) -> list[UnitOutcome] | None:
        """Run a batch on the pool's workers, outcomes in unit order.

        ``max_workers`` caps how many workers this batch strides over
        (a 4-worker platform pool serving a ``parallelism=2`` run uses
        only 2) — outputs never depend on the cap, only wall time.

        Returns ``None`` when the batch cannot be dispatched (pool
        closed, fork unavailable, or a thunk refused to pickle) — the
        caller then runs it inline.  Pickling happens before any fork,
        so a refused batch never spawns a worker.
        """
        if not self.available():
            return None
        thunks = list(thunks)
        if not thunks:
            return []
        blobs: list[bytes] = []
        for index, thunk in enumerate(thunks):
            try:
                blobs.append(
                    pickle.dumps(thunk, pickle.HIGHEST_PROTOCOL)
                )
            except Exception as exc:
                self.stats.dispatch_fallbacks += 1
                self._record_event("dispatch_fallbacks")
                _LOG.warning(
                    "%s",
                    json.dumps(
                        {
                            "event": "pool.dispatch_fallback",
                            "unit_type": type(thunk).__name__,
                            "unit": index,
                            "units": len(thunks),
                            "error": f"{type(exc).__name__}: {exc}",
                        }
                    ),
                )
                return None
        count = min(self.workers, len(thunks))
        if max_workers is not None:
            count = max(1, min(count, int(max_workers)))
        with self._lock:
            if self._closed:  # closed while waiting for the lock
                return None
            if self.tracer is None:
                return self._dispatch(thunks, blobs, count)
            with self.tracer.span(
                "pool.dispatch", units=len(thunks), workers=count
            ):
                return self._dispatch(thunks, blobs, count)

    def _dispatch(
        self,
        thunks: list[Callable[[], Any]],
        blobs: list[bytes],
        count: int,
    ) -> list[UnitOutcome]:
        for slot in range(count):
            if self._slots[slot] is None:
                self._spawn(slot)
        active = [self._slots[slot] for slot in range(count)]
        assignments = [
            list(range(offset, len(thunks), count))
            for offset in range(count)
        ]
        dead: set[int] = set()
        for offset, worker in enumerate(active):
            frame = pickle.dumps(
                ("run", [(i, blobs[i]) for i in assignments[offset]]),
                pickle.HIGHEST_PROTOCOL,
            )
            try:
                _write_msg_raw(worker.dispatch_w, frame)
            except OSError:
                dead.add(offset)
        outcomes: dict[int, UnitOutcome] = {}
        for offset, worker in enumerate(active):
            if offset not in dead and not self._collect(worker, outcomes):
                dead.add(offset)
        for offset, worker in enumerate(active):
            if offset in dead:
                self._reap(worker, kill=True)
                self._slots[offset] = None
                self.stats.respawns += 1
                self._record_event("respawns")
                self._spawn(offset)
            elif self._should_recycle(worker):
                self._retire(worker)
                self._slots[offset] = None
                self.stats.recycled += 1
                self._record_event("recycled")
                self._spawn(offset)
        self.stats.warm_hits += 1
        self._record_event("warm_hits")
        results: list[UnitOutcome] = []
        for index in range(len(thunks)):
            outcome = outcomes.get(index)
            if outcome is None:
                # The owning worker died before reporting this unit;
                # lineage recovery recomputes it on the coordinator.
                outcome = UnitOutcome(
                    error=WorkerLostError(
                        f"pool worker exited before reporting "
                        f"unit {index}"
                    )
                )
            results.append(outcome)
        return results

    def _collect(
        self, worker: _PoolWorker, outcomes: dict[int, UnitOutcome]
    ) -> bool:
        """Drain one worker's results; False if it died mid-batch."""
        while True:
            message = _read_msg(worker.result_r)
            if message is None:
                return False
            if message[0] == "done":
                _tag, tasks, rss_bytes = message
                worker.tasks_done += tasks
                worker.rss_bytes = rss_bytes
                return True
            _tag, index, entry = message
            try:
                unit_index, kind, payload = pickle.loads(entry)
                if kind == "tbl":
                    if self.metrics is not None:
                        record_page_codec(
                            self.metrics,
                            page_codec.codec_name(payload),
                            len(payload),
                        )
                    kind = "ok"
                    payload = page_codec.decode_table(payload)
            except Exception as exc:
                outcomes[index] = UnitOutcome(
                    error=ProcessTransportError(
                        f"unit {index} result could not be read back "
                        f"from the worker: {exc!r}"
                    )
                )
                continue
            if kind == "err":
                outcomes[unit_index] = UnitOutcome(error=payload)
            else:
                outcomes[unit_index] = UnitOutcome(value=payload)

    # -- workers ---------------------------------------------------------

    def _spawn(self, slot: int) -> _PoolWorker:
        dispatch_r, dispatch_w = os.pipe()
        result_r, result_w = os.pipe()
        # fds fork-inherited from *other* workers: the child closes
        # them so a dead sibling's pipes still EOF immediately.
        inherited = [
            fd
            for worker in self._slots
            if worker is not None
            for fd in (worker.dispatch_w, worker.result_r)
        ]
        pid = os.fork()
        if pid == 0:  # worker: serve dispatch frames until "exit"
            status = 1
            try:
                os.close(dispatch_w)
                os.close(result_r)
                for fd in inherited:
                    try:
                        os.close(fd)
                    except OSError:
                        pass
                _pool_worker_main(dispatch_r, result_w)
                status = 0
            finally:
                # _exit skips inherited atexit/flush machinery — the
                # worker owns nothing but its pipes.
                os._exit(status)
        os.close(dispatch_r)
        os.close(result_w)
        worker = _PoolWorker(pid, dispatch_w, result_r)
        self._slots[slot] = worker
        self.stats.forks += 1
        self._record_event("forks")
        return worker

    def _should_recycle(self, worker: _PoolWorker) -> bool:
        if (
            self.max_tasks_per_worker
            and worker.tasks_done >= self.max_tasks_per_worker
        ):
            return True
        if self.max_rss_bytes and worker.rss_bytes >= self.max_rss_bytes:
            return True
        return False

    def _retire(self, worker: _PoolWorker) -> None:
        """Ask an idle worker to exit, then reap it."""
        try:
            _write_msg(worker.dispatch_w, ("exit",))
        except OSError:
            pass
        self._reap(worker, kill=False)

    def _reap(self, worker: _PoolWorker, kill: bool) -> None:
        for fd in (worker.dispatch_w, worker.result_r):
            try:
                os.close(fd)
            except OSError:
                pass
        if kill:
            try:
                os.kill(worker.pid, signal.SIGKILL)
            except OSError:
                pass
        try:
            os.waitpid(worker.pid, 0)
        except ChildProcessError:
            pass

    # -- telemetry -------------------------------------------------------

    def _record_event(self, event: str) -> None:
        if self.metrics is not None:
            from repro.observability.instruments import record_pool_event

            record_pool_event(self.metrics, event)


class WorkerPool:
    """A bounded pool that preserves submission order of outcomes.

    ``workers == 1`` runs units lazily on the caller's thread — one
    unit per ``next()`` — which is byte-identical to the historical
    sequential loop (a failure at unit *i* means unit *i+1* never
    starts), whatever the ``executor`` setting.  With more workers,
    all units are submitted up front and outcomes are still yielded in
    submission order.

    ``executor`` picks the backend: ``"threads"`` (default) or
    ``"processes"`` (a :class:`ProcessPool`, POSIX only; silently
    backed by threads where fork is unavailable so results never
    depend on the host OS).  ``pool`` lends a long-lived
    :class:`ProcessPool`; without one, each batch opens a private pool
    and closes it afterwards.  A batch the pool cannot dispatch runs
    inline on the coordinator.
    """

    def __init__(
        self,
        workers: int = 1,
        executor: str = "threads",
        pool: ProcessPool | None = None,
    ):
        self.workers = max(1, int(workers))
        self.executor = resolve_executor(executor)
        # A process pool only makes sense for the process executor;
        # with threads it is silently ignored so callers can thread one
        # through unconditionally.
        self.pool = pool if self.executor == "processes" else None

    def map_ordered(
        self, thunks: Sequence[Callable[[], Any]]
    ) -> Iterator[UnitOutcome]:
        thunks = list(thunks)
        if self.workers == 1 or len(thunks) <= 1:
            for thunk in thunks:
                yield self._call(thunk)
            return
        if self.executor == "processes" and fork_available():
            if self.pool is not None:
                outcomes = self.pool.run_batch(
                    thunks, max_workers=self.workers
                )
            else:
                with ProcessPool(min(self.workers, len(thunks))) as pool:
                    outcomes = pool.run_batch(thunks)
            if outcomes is None:
                # closed pool or unpicklable batch: run it right here
                outcomes = [self._call(thunk) for thunk in thunks]
            yield from outcomes
            return
        with ThreadPoolExecutor(
            max_workers=min(self.workers, len(thunks))
        ) as pool:
            futures = [pool.submit(self._call, thunk) for thunk in thunks]
            for future in futures:
                yield future.result()

    @staticmethod
    def _call(thunk: Callable[[], Any]) -> UnitOutcome:
        try:
            return UnitOutcome(value=thunk())
        except BaseException as exc:  # captured; re-raised by the merger
            return UnitOutcome(error=exc)


# -- worker side ----------------------------------------------------------


def _pool_worker_main(dispatch_r: int, result_w: int) -> None:
    """Serve dispatch frames until an ``exit`` message or pipe EOF.

    Each batch: unpickle the unit thunks, run them in stride order,
    report every outcome as a ``("unit", index, entry)`` pipe message,
    and finish with ``("done", tasks, rss_bytes)`` so the coordinator
    can apply its recycle policy.
    """
    # Units unpickle their run's context once per unit; reviving one
    # context per run keeps its value caches across the run's units.
    revive_contexts_per_run()
    try:
        while True:
            message = _read_msg(dispatch_r)
            if message is None or message[0] == "exit":
                return
            done = 0
            for index, blob in message[1]:
                try:
                    thunk = pickle.loads(blob)
                except Exception as exc:
                    outcome = UnitOutcome(
                        error=ProcessTransportError(
                            f"unit {index} dispatch frame could not "
                            f"be unpickled in the worker: {exc!r}"
                        )
                    )
                else:
                    outcome = WorkerPool._call(thunk)
                _write_msg(
                    result_w, ("unit", index, _encode_entry(index, outcome))
                )
                done += 1
            _write_msg(result_w, ("done", done, _rss_bytes()))
    finally:
        for fd in (dispatch_r, result_w):
            try:
                os.close(fd)
            except OSError:
                pass


def _encode_entry(index: int, outcome: UnitOutcome) -> bytes:
    """One unit's outcome as a pickled ``(index, kind, payload)``.

    Table results ship as ``"tbl"`` entries whose payload is a binary
    page-codec blob (:mod:`repro.data.pages`): typed/dictionary
    columns travel as raw array buffers instead of boxed objects, and
    the coordinator can meter codec bytes without re-serialising.
    Anything that refuses to serialise — exotic results, exceptions
    carrying live handles — degrades to a
    :class:`ProcessTransportError` carrying the repr, so the result
    stream itself never breaks.
    """
    kind = "err" if outcome.failed else "ok"
    payload: Any = outcome.error if outcome.failed else outcome.value
    if kind == "ok" and type(payload) is Table:
        try:
            blob = page_codec.encode_table(payload)
            return pickle.dumps(
                (index, "tbl", blob), pickle.HIGHEST_PROTOCOL
            )
        except Exception:
            pass  # generic path below, then the repr substitute
    try:
        return pickle.dumps(
            (index, kind, payload), pickle.HIGHEST_PROTOCOL
        )
    except Exception:
        substitute = ProcessTransportError(
            f"unit {index} {'raised' if kind == 'err' else 'returned'} "
            f"an unpicklable {type(payload).__name__}: {payload!r}"
        )
        return pickle.dumps(
            (index, "err", substitute), pickle.HIGHEST_PROTOCOL
        )


def _rss_bytes() -> int:
    """This process's peak RSS in bytes (0 where unavailable)."""
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except Exception:
        return 0
    # ru_maxrss is KiB on Linux, bytes on macOS
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def _write_msg(fd: int, obj: Any) -> None:
    _write_msg_raw(fd, pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))


def _write_msg_raw(fd: int, blob: bytes) -> None:
    view = memoryview(_LENGTH.pack(len(blob)) + blob)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def _read_exact(read_fd: int, size: int) -> bytes | None:
    chunks: list[bytes] = []
    remaining = size
    while remaining:
        chunk = os.read(read_fd, remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _read_msg(fd: int) -> Any | None:
    """One length-prefixed pickled message, or None on EOF/corruption."""
    header = _read_exact(fd, _LENGTH.size)
    if header is None:
        return None
    blob = _read_exact(fd, _LENGTH.unpack(header)[0])
    if blob is None:
        return None
    try:
        return pickle.loads(blob)
    except Exception:
        return None
