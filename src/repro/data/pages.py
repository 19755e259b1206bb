"""Binary page codec: compact serialized tables for spill and transport.

One page is one serialized :class:`~repro.data.table.Table`.  The
historical page format was ``pickle.dumps(table)`` — column-wise by
construction, but every cell still a pickled object (with pickle's memo
partially papering over repeated strings).  This codec writes the typed
encodings (:mod:`repro.data.encodings`) as raw buffers instead:

``magic "RTP1" | flags u8 | body``, body optionally zlib(level 1) when
that actually shrinks it (``flags & 1``), containing::

    u32 len | pickle(schema)          # full fidelity: types, paths
    u64 nrows
    per column, in schema order:
      u8 tag
      tag 0 OBJ:   u64 len | pickle(cell list)     # fallback columns
      tag 1 INT:   u8 typecode | u8 has_nulls | [null bitmap]
                   | u64 len | raw array bytes     # width-minimized
      tag 2 FLOAT: u8 'd' | u8 has_nulls | [null bitmap] | u64 | raw
      tag 3 DICT:  u8 code typecode | u64 len | pickle(uniques)
                   | u64 len | raw code bytes      # None -> n_uniques

Integer buffers are width-minimized per page (``b/h/i/q`` by min/max,
``B/H/I`` for dictionary codes by cardinality) and null masks are
bit-packed, which is where the size win over pickle comes from.  Buffers
are written in native byte order; pages only ever travel between
processes on one host (spill files and pool pipes), and a
big-endian flag bit guards the exotic case.

Columns without an encoding are re-encoded on the fly (so plain tables
built mid-plan still spill compactly) and fall back to a pickled cell
list when that fails — mixed types, NaN, nested cells all round-trip
exactly.  ``decode_table`` rebuilds both the plain lists and the
encodings, so a page read back is as kernel-ready as the table that was
written.

Used by :mod:`repro.engine.spill` (shuffle overflow files), the
process executor's result transport in :mod:`repro.engine.scheduler`,
and ``Table.__reduce__`` (so *any* pickled table — checkpoints,
dispatched unit inputs, nested payloads — ships as one compact page).
"""

from __future__ import annotations

import pickle
import struct
import sys
import zlib
from array import array
from typing import Any

from repro.data import encodings
from repro.data.encodings import DictColumn, FloatColumn, IntColumn
from repro.data.table import Table

__all__ = ["codec_name", "decode_table", "encode_table"]

MAGIC = b"RTP1"
_FLAG_ZLIB = 1
_FLAG_BIG_ENDIAN = 2

_TAG_OBJ = 0
_TAG_INT = 1
_TAG_FLOAT = 2
_TAG_DICT = 3

_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

#: bodies smaller than this never pay the zlib attempt
_COMPRESS_FLOOR = 512

_BIG_ENDIAN = sys.byteorder == "big"


def _pack_nulls(nulls: bytearray) -> bytes:
    bits = 0
    for i, m in enumerate(nulls):
        if m:
            bits |= 1 << i
    return bits.to_bytes((len(nulls) + 7) // 8, "little")


def _unpack_nulls(packed: bytes, count: int) -> bytearray:
    bits = int.from_bytes(packed, "little")
    return bytearray((bits >> i) & 1 for i in range(count))


def _int_typecode(values: array) -> str:
    """Narrowest signed typecode holding every value of ``values``."""
    if not len(values):
        return "b"
    lo, hi = min(values), max(values)
    if -128 <= lo and hi <= 127:
        return "b"
    if -32768 <= lo and hi <= 32767:
        return "h"
    if -2147483648 <= lo and hi <= 2147483647:
        return "i"
    return "q"


def _code_typecode(cardinality: int) -> str:
    """Narrowest unsigned typecode for codes ``0..cardinality`` (the
    top value is the serialized stand-in for ``None``'s ``-1``)."""
    if cardinality < 256:
        return "B"
    if cardinality < 65536:
        return "H"
    return "I"


def _encode_buffer(out: list[bytes], raw: bytes) -> None:
    out.append(_U64.pack(len(raw)))
    out.append(raw)


def _encode_typed(
    out: list[bytes], tag: int, column: IntColumn
) -> None:
    if tag == _TAG_INT:
        typecode = _int_typecode(column.values)
        arr = (
            column.values
            if typecode == column.typecode
            else array(typecode, column.values)
        )
    else:
        typecode = "d"
        arr = column.values
    out.append(_U8.pack(tag))
    out.append(typecode.encode("ascii"))
    if column.nulls is None:
        out.append(_U8.pack(0))
    else:
        out.append(_U8.pack(1))
        out.append(_pack_nulls(column.nulls))
    _encode_buffer(out, arr.tobytes())


def _encode_dict(out: list[bytes], column: DictColumn) -> None:
    cardinality = len(column.values)
    typecode = _code_typecode(cardinality)
    # -1 (None) is serialized as the one-past-the-end code so the
    # buffer stays unsigned; decode maps it back.
    codes = array(
        typecode,
        (c if c >= 0 else cardinality for c in column.codes),
    )
    out.append(_U8.pack(_TAG_DICT))
    out.append(typecode.encode("ascii"))
    blob = pickle.dumps(column.values, pickle.HIGHEST_PROTOCOL)
    _encode_buffer(out, blob)
    _encode_buffer(out, codes.tobytes())


def encode_table(table: Table, compress: bool = True) -> bytes:
    """Serialize ``table`` as one binary page.

    Columns carry their existing encodings when present; plain columns
    are encoded on the fly (respecting the global toggle) and fall back
    to a pickled cell list.  ``compress=True`` additionally tries
    zlib level 1 on the body and keeps it only when smaller.
    """
    out: list[bytes] = []
    schema_blob = pickle.dumps(table.schema, pickle.HIGHEST_PROTOCOL)
    out.append(_U32.pack(len(schema_blob)))
    out.append(schema_blob)
    out.append(_U64.pack(table.num_rows))
    attached = getattr(table, "_enc", None) or {}
    auto = encodings.enabled()
    for name in table.schema.names:
        values = table._data[name]
        column = attached.get(name)
        if column is None and auto:
            column = encodings.encode_column(values)
        if type(column) is IntColumn:
            _encode_typed(out, _TAG_INT, column)
        elif type(column) is FloatColumn:
            _encode_typed(out, _TAG_FLOAT, column)
        elif type(column) is DictColumn:
            _encode_dict(out, column)
        else:
            out.append(_U8.pack(_TAG_OBJ))
            _encode_buffer(
                out, pickle.dumps(values, pickle.HIGHEST_PROTOCOL)
            )
    body = b"".join(out)
    flags = _FLAG_BIG_ENDIAN if _BIG_ENDIAN else 0
    if compress and len(body) >= _COMPRESS_FLOOR:
        squeezed = zlib.compress(body, 1)
        if len(squeezed) < len(body):
            return MAGIC + _U8.pack(flags | _FLAG_ZLIB) + squeezed
    return MAGIC + _U8.pack(flags) + body


def codec_name(blob: bytes) -> str:
    """The codec label for one page (``repro_page_codec_bytes_total``)."""
    if blob[:4] != MAGIC:
        return "pickle"
    flags = blob[4]
    return "typed-zlib" if flags & _FLAG_ZLIB else "typed"


def decode_table(blob: bytes) -> Table:
    """Rebuild a table — plain lists *and* encodings — from one page."""
    if blob[:4] != MAGIC:
        raise ValueError("not a table page (bad magic)")
    flags = blob[4]
    body: Any = memoryview(blob)[5:]
    if flags & _FLAG_ZLIB:
        body = memoryview(zlib.decompress(body))
    swap = bool(flags & _FLAG_BIG_ENDIAN) != _BIG_ENDIAN
    offset = 0
    (schema_len,) = _U32.unpack_from(body, offset)
    offset += _U32.size
    schema = pickle.loads(body[offset:offset + schema_len])
    offset += schema_len
    (nrows,) = _U64.unpack_from(body, offset)
    offset += _U64.size
    data: dict[str, list] = {}
    enc: dict[str, Any] = {}

    def read_buffer() -> memoryview:
        nonlocal offset
        (size,) = _U64.unpack_from(body, offset)
        offset += _U64.size
        raw = body[offset:offset + size]
        offset += size
        return raw

    def read_array(typecode: str) -> array:
        arr = array(typecode)
        arr.frombytes(read_buffer())
        if swap:
            arr.byteswap()
        return arr

    for name in schema.names:
        tag = body[offset]
        offset += 1
        if tag == _TAG_OBJ:
            data[name] = pickle.loads(read_buffer())
            continue
        if tag == _TAG_DICT:
            typecode = chr(body[offset])
            offset += 1
            values = pickle.loads(read_buffer())
            raw = read_array(typecode).tolist()
            sentinel = len(values)
            codes = [c if c != sentinel else -1 for c in raw]
            column = DictColumn(
                codes, values, {v: i for i, v in enumerate(values)}
            )
        else:
            typecode = chr(body[offset])
            offset += 1
            has_nulls = body[offset]
            offset += 1
            nulls = None
            if has_nulls:
                width = (nrows + 7) // 8
                nulls = _unpack_nulls(
                    bytes(body[offset:offset + width]), nrows
                )
                offset += width
            arr = read_array(typecode)
            if tag == _TAG_INT:
                if typecode != "q":
                    arr = array("q", arr)
                column = IntColumn(arr, nulls)
            else:
                column = FloatColumn(arr, nulls)
        data[name] = column.boxed
        enc[name] = column
    table = Table._wrap(schema, data, nrows)
    table._enc = enc
    return table
