"""Spill-to-disk partition buffers for larger-than-memory shuffles.

A shuffle routes every input row into one of *P* buckets; with large
inputs the buckets alone can exceed memory.  :class:`SpillBucket`
bounds the damage: it buffers appended column pages (tables) in memory
until the buffer reaches the manager's ``limit_bytes``, then flushes
the whole buffer to a temp file as pickled pages.  Draining a bucket
re-reads spilled pages first, then the still-buffered tail — exactly
append order — so downstream concat sees the same page sequence an
in-memory run would, and outputs stay byte-identical whether or not a
single byte ever hit disk (asserted by
``tests/unit/test_spill.py`` and the determinism matrix).

Pages are serialised with the binary page codec
(:mod:`repro.data.pages`): typed/dictionary-encoded columns ship as
raw array buffers with bit-packed null masks, plain object columns
fall back to pickle inside the same framing — the same format the
process executor ships over its result pipes.  Each page is
written as an 8-byte little-endian length followed by the codec blob.

Temp-file lifecycle: :class:`SpillManager` owns one
``tempfile.mkdtemp(prefix="repro-spill-")`` directory, created lazily
on the first flush and removed — files and all — by
:meth:`SpillManager.cleanup`, which runs even when the shuffle raises
(both callers wrap usage in ``with``).  Nothing is ever reused across
shuffles; a crash can at worst strand one ``repro-spill-*`` directory
under the system temp dir.
"""

from __future__ import annotations

import os
import shutil
import struct
import tempfile
from typing import Iterator

from repro.data import Table
from repro.data import pages as page_codec
from repro.observability.instruments import record_page_codec

_LENGTH = struct.Struct("<Q")


class SpillManager:
    """Owns the temp directory and accounting for one shuffle's spills.

    ``limit_bytes`` is the per-bucket in-memory budget: a bucket whose
    buffered pages reach **at least** this many (estimated) bytes
    flushes them to disk.  ``limit_bytes <= 0`` disables spilling —
    buckets then buffer everything in memory, which is the historical
    behavior.
    """

    def __init__(
        self, limit_bytes: int = 0, dir: str | None = None, metrics=None
    ):
        self.limit_bytes = max(0, int(limit_bytes))
        self._parent_dir = dir
        self._dir: str | None = None
        self._buckets = 0
        #: opt-in MetricsRegistry for page-codec byte accounting
        self.metrics = metrics
        #: pages flushed to disk across all buckets
        self.spilled_pages = 0
        #: estimated in-memory bytes of those pages
        self.spilled_bytes = 0

    def bucket(self) -> "SpillBucket":
        self._buckets += 1
        return SpillBucket(self, self._buckets - 1)

    def _spill_path(self, bucket_index: int) -> str:
        if self._dir is None:
            self._dir = tempfile.mkdtemp(
                prefix="repro-spill-", dir=self._parent_dir
            )
        return os.path.join(self._dir, f"bucket-{bucket_index}.pages")

    @property
    def directory(self) -> str | None:
        """The temp dir, or None while nothing has spilled yet."""
        return self._dir

    def cleanup(self) -> None:
        """Remove the spill directory and everything in it."""
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None

    def __enter__(self) -> "SpillManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.cleanup()


class SpillBucket:
    """One shuffle bucket: bounded in-memory pages + disk overflow."""

    def __init__(self, manager: SpillManager, index: int):
        self._manager = manager
        self._index = index
        self._pages: list[Table] = []
        self._buffered_bytes = 0
        self._path: str | None = None
        self._disk_pages = 0

    def append(self, page: Table) -> None:
        """Buffer one page, flushing to disk at the memory limit."""
        self._pages.append(page)
        limit = self._manager.limit_bytes
        if limit:  # size accounting only paid when spilling is on
            self._buffered_bytes += page.estimated_bytes()
            if self._buffered_bytes >= limit:
                self._flush()

    def _flush(self) -> None:
        if self._path is None:
            self._path = self._manager._spill_path(self._index)
        metrics = self._manager.metrics
        with open(self._path, "ab") as handle:
            for page in self._pages:
                blob = page_codec.encode_table(page)
                handle.write(_LENGTH.pack(len(blob)))
                handle.write(blob)
                if metrics is not None:
                    record_page_codec(
                        metrics, page_codec.codec_name(blob), len(blob)
                    )
        self._disk_pages += len(self._pages)
        self._manager.spilled_pages += len(self._pages)
        self._manager.spilled_bytes += self._buffered_bytes
        self._pages = []
        self._buffered_bytes = 0

    @property
    def spilled(self) -> bool:
        return self._disk_pages > 0

    def pages(self) -> Iterator[Table]:
        """Yield pages in append order: spilled first, then buffered.

        Every spilled page was appended before every still-buffered
        page (flushes always drain the whole buffer), so this is the
        original append order — the property that keeps spilled and
        in-memory shuffles byte-identical.
        """
        if self._path is not None:
            with open(self._path, "rb") as handle:
                for _ in range(self._disk_pages):
                    (size,) = _LENGTH.unpack(handle.read(_LENGTH.size))
                    yield page_codec.decode_table(handle.read(size))
        yield from self._pages
