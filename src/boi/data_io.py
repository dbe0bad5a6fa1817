"""Binary persistence: fvecs/ivecs vector files and index snapshots.

fvecs: per record, a little-endian int32 dimension header followed by that
many little-endian float32 components. ivecs is identical with int32
payloads. All records in a file share one dimension.

Snapshot layout, version 4 (everything little-endian):

    header  68 bytes: the fields of ``_FIELDS``, one (name, struct code)
            row a field, in file order. They are the magic "BOIX", the
            version, dim, n, the integer ``BoiParams`` fields under their
            own names, the schedule's code (0 fixed / 1 linear / 2
            sublinear), flags (bit 0: strict_radius; bits 1-7 are reserved
            and must be 0), 2 pad bytes that must be 0, K, the number of
            non-empty buckets over all tables, and the crc32 of the 64
            bytes before it. That table alone gives the header's ``struct``
            format, what ``save_index`` packs, what ``_read_header`` unpacks
            and each field's byte offset.
    body    num_tables records, one per table: the (hash_bits x dim)
            float32 projection matrix, the u32 crc32 of its bytes, the
            table's bitmap (``vote.directory_words(hash_bits)`` u64 words;
            bit c % 64 of word c / 64 is set iff bucket c holds a record),
            the u32 sizes of its k non-empty buckets in code order, each at
            least 1, then an id row of n u32. Table 0's holds ``order``,
            the record ids grouped by its code, ascending within a bucket,
            in place of its ``members`` row, which is 0..n-1; every later
            table's holds its ``members`` row, the internal ids (positions
            in ``order``) grouped by its code.

So the file holds the directory the index holds
(``hashing.ProjectionTable``): the bitmap and the non-empty buckets only.
A record's length hangs on its k, but the header's K gives the file's
exact length, 68 + num_tables * (4 * hash_bits * dim + 4 + 8 * words + 4 *
n) + 4 * K, which is checked before anything is allocated. Earlier
versions (version 3 stored 2**hash_bits dense counts a table) are rejected
at the version field; rebuild them with ``boi build``.

Saving and loading are mirror loops over the tables, one record each.
Loading reads the header, checks its values, each at its own field, and
its crc32, checks the file's size against it, then reads each record's
projections, bitmap, sizes and ids straight into the index's C-contiguous
native arrays, swapping their bytes on a big-endian host: the sizes of
table t go to the places in ``offsets`` after where its piece begins. One
``vote.TableCheck``, bound to those arrays once, counts each table's
non-empty buckets from its bitmap, so the loader knows how many sizes to
read, then checks the sizes and the ids and turns the sizes into the
table's piece of offsets in place. Row 0 is then copied out as ``order``
and set to 0..n-1, so a loaded index holds the same arrays ``insert_all``
builds, and ``ProjectionTable`` makes the rank from them as it does for a
built one. Every single-bit flip of a file fails to load: the crc32s cover
the header and the projections, a flipped bitmap bit changes its table's
count of sizes, so the sizes read no longer sum to n, or the bitmaps' sum
no longer matches K; a flipped size changes the sizes' sum; a flipped id
changes its row's wrapping sum.
Projections are stored rather than re-derived from the seed, so snapshots
stay valid even if the generator implementation ever changes. Loading
never re-hashes the dataset.
"""

from __future__ import annotations

import os
import struct
import sys
import zlib
from dataclasses import fields
from itertools import accumulate

import numpy as np

from .core import OFFSET_DTYPE, SCHEDULE_KINDS, BoiParams, VectorSet, as_exact
from .hashing import ProjectionTable, check_dimension, check_record_count
from .index import BoiIndex
from .vote import (
    BIT_PAST,
    EMPTY_BUCKET,
    ID_OUT_OF_RANGE,
    NOT_A_PERMUTATION,
    SIZES_OFF,
    TableCheck,
    directory_words,
)


class FormatError(ValueError):
    """Malformed binary input; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


_RECORD_CHUNK = 1 << 20  # bytes of fvecs/ivecs records read or written at a time


def _read_into(f, arr: np.ndarray) -> None:
    """Fill ``arr`` with the file's next bytes; FormatError if it ends first."""
    at = f.tell()
    if f.readinto(arr) != arr.nbytes:
        raise FormatError("file ended inside a record", offset=at)


def _read_native_into(f, arr: np.ndarray) -> None:
    """``_read_into`` for an array of native byte order that the file
    holds little-endian."""
    _read_into(f, arr)
    if sys.byteorder == "big":
        arr.byteswap(inplace=True)


def _read_records(path, payload_dtype) -> np.ndarray:
    """The (n, dim) payload, read a chunk of records at a time into it."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if not size:
            return np.empty((0, 0), dtype=payload_dtype)
        if size < 4:
            raise FormatError("file too short for a dimension header", offset=0)
        dim = int(np.frombuffer(f.read(4), dtype="<i4")[0])
        if dim <= 0:
            raise FormatError(f"non-positive dimension {dim}", offset=0)
        record_size = 4 + 4 * dim
        n, leftover = divmod(size, record_size)
        if leftover:
            raise FormatError("truncated record at end of file", offset=n * record_size)
        f.seek(0)
        values = np.empty((n, dim), dtype=payload_dtype)
        chunk = np.empty((max(1, _RECORD_CHUNK // record_size), 1 + dim), dtype="<i4")
        for start in range(0, n, len(chunk)):
            rows = chunk[: n - start]
            _read_into(f, rows)
            bad = np.flatnonzero(rows[:, 0] != dim)
            if bad.size:
                raise FormatError(
                    f"inconsistent dimension {int(rows[bad[0], 0])} != {dim}",
                    offset=(start + int(bad[0])) * record_size,
                )
            values[start : start + len(rows)] = rows[:, 1:].view(payload_dtype)
    return values


def read_fvecs(path) -> VectorSet:
    """Load an fvecs file; rejects malformed or non-finite data."""
    values = _read_records(path, "<f4")
    try:
        return VectorSet(values)
    except ValueError:  # the one check of VectorSet that a read can fail
        r, c = np.argwhere(~np.isfinite(values))[0]
        record_size = 4 + 4 * values.shape[1]
        raise FormatError(
            "non-finite component",
            offset=int(r) * record_size + 4 + 4 * int(c),
        ) from None


def _write_records(path, rows: np.ndarray) -> None:
    """Write (n, dim) 4-byte rows as records: an int32 ``dim`` header
    column, then each row's bytes viewed as ``<i4``, filled and written a
    chunk of records at a time."""
    n, dim = rows.shape
    chunk = np.empty((max(1, _RECORD_CHUNK // (4 + 4 * dim)), 1 + dim), dtype="<i4")
    chunk[:, 0] = dim
    with open(path, "wb") as f:
        for start in range(0, n, len(chunk)):
            records = chunk[: n - start]
            records[:, 1:] = rows[start : start + len(records)].view("<i4")
            f.write(records)


def write_fvecs(path, dataset: VectorSet) -> None:
    """Write a VectorSet as fvecs; read_fvecs round-trips it bit-exactly."""
    _write_records(path, np.asarray(dataset.vectors, dtype="<f4"))


def read_ivecs(path) -> np.ndarray:
    """Load an ivecs file as an (n, dim) int32 array."""
    return _read_records(path, "<i4")


def write_ivecs(path, rows) -> None:
    """Write an (n, dim) integer array as ivecs; a value int32 cannot hold
    raises ValueError."""
    rows = as_exact(rows, np.int32, "ivecs")
    if rows.ndim != 2:
        raise ValueError(f"ivecs rows must be 2-D, got shape {rows.shape}")
    if rows.shape[0] and rows.shape[1] == 0:
        raise ValueError("ivecs records must have at least one element")
    _write_records(path, rows)


_MAGIC = b"BOIX"
_VERSION = 4
# the header's fields in file order, each a (name, little-endian struct
# code); the BoiParams fields go under their own names
_FIELDS = (
    ("magic", "4s"),
    ("version", "I"),
    ("num_tables", "I"),
    ("hash_bits", "I"),
    ("dim", "I"),
    ("n", "Q"),
    ("seed", "Q"),
    ("initial_probe_count", "I"),
    ("probe_radius", "I"),
    ("shortlist_size", "I"),
    ("linear_step", "I"),
    ("sublinear_step", "I"),
    ("schedule_code", "B"),  # the schedule's place in SCHEDULE_KINDS
    ("flags", "B"),  # bit 0: strict_radius; bits 1-7 are reserved, 0
    ("pad", "H"),  # 0
    ("buckets", "I"),  # K, the non-empty buckets of all tables
    ("crc", "I"),  # crc32 of the header's bytes before this field
)
_NAMES = tuple(name for name, _ in _FIELDS)
_HEADER = struct.Struct("<" + "".join(code for _, code in _FIELDS))
# each field's byte offset, where a FormatError about it points
_FIELD_AT = dict(
    zip(_NAMES, accumulate((struct.calcsize("<" + code) for _, code in _FIELDS), initial=0))
)
_PARAM_FIELDS = [f.name for f in fields(BoiParams) if f.name in _NAMES]
_FLAG_STRICT = 0x01


def _header_crc(head: bytes) -> int:
    """The crc32 of a packed header's bytes before its ``crc`` field."""
    return zlib.crc32(head[: _FIELD_AT["crc"]])


def save_index(index: BoiIndex, path) -> None:
    """Write a snapshot one table record at a time; same index, same bytes."""
    p = index.params
    tables = index.tables
    header = {
        "magic": _MAGIC,
        "version": _VERSION,
        "dim": index.dim,
        "n": index.n,
        "schedule_code": SCHEDULE_KINDS.index(p.schedule),
        "flags": _FLAG_STRICT if p.strict_radius else 0,
        "pad": 0,
        "buckets": tables.offsets.size - p.num_tables,  # one n a table besides
        "crc": 0,
        **{name: getattr(p, name) for name in _PARAM_FIELDS},
    }
    header["crc"] = _header_crc(_HEADER.pack(*(header[name] for name in _NAMES)))
    projections = tables.projections.reshape(p.num_tables, p.hash_bits, index.dim)
    with open(path, "wb") as f:
        f.write(_HEADER.pack(*(header[name] for name in _NAMES)))
        for t in range(p.num_tables):
            matrix = projections[t].astype("<f4")
            f.write(matrix)
            f.write(struct.pack("<I", zlib.crc32(matrix)))
            f.write(tables.bitmap[t].astype("<u8"))
            f.write(np.diff(tables.buckets(t)[1]).astype("<u4"))
            # table 0's members row is 0..n-1, so its id row holds the order
            f.write((tables.members[t] if t else tables.order).astype("<u4"))


def _read_header(f) -> tuple[BoiParams, int, int, int]:
    """The params, dim, n and K of the snapshot header at the start of ``f``.
    A value the header cannot hold is reported at its own field, and then
    the header's crc32 is checked."""
    head = f.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise FormatError("file too short for a snapshot header", offset=0)
    h = dict(zip(_NAMES, _HEADER.unpack(head)))
    for name, bad, message in (
        ("magic", h["magic"] != _MAGIC, f"bad magic {h['magic']!r}"),
        ("version", h["version"] != _VERSION,
         f"unsupported snapshot version {h['version']}; rebuild the index with "
         "`boi build`"),
        ("schedule_code", h["schedule_code"] >= len(SCHEDULE_KINDS),
         f"unknown schedule code {h['schedule_code']}"),
        ("flags", h["flags"] & ~_FLAG_STRICT, f"unknown header flags {h['flags']:#04x}"),
        ("pad", h["pad"], "non-zero header padding"),
    ):
        if bad:
            raise FormatError(message, offset=_FIELD_AT[name])
    try:
        params = BoiParams(
            **{name: h[name] for name in _PARAM_FIELDS},
            schedule=SCHEDULE_KINDS[h["schedule_code"]],
            strict_radius=bool(h["flags"] & _FLAG_STRICT),
        )
    except ValueError as exc:
        # BoiParams begins its message with the field it rejects
        raise FormatError(
            f"bad snapshot header: {exc}", offset=_FIELD_AT[str(exc).split()[0]]
        ) from None
    for name, check in (("n", check_record_count), ("dim", check_dimension)):
        try:
            check(h[name])
        except ValueError as exc:
            raise FormatError(f"bad snapshot header: {exc}", offset=_FIELD_AT[name]) from None
    # each table of n > 0 records has from 1 to min(n, 2**b) non-empty buckets
    least = params.num_tables * min(h["n"], 1)
    most = params.num_tables * min(h["n"], params.num_buckets)
    if not least <= h["buckets"] <= most:
        raise FormatError(
            f"bad snapshot header: {h['buckets']} non-empty buckets, not in "
            f"[{least}, {most}]",
            offset=_FIELD_AT["buckets"],
        )
    if _header_crc(head) != h["crc"]:
        raise FormatError("snapshot header fails its crc32", offset=_FIELD_AT["crc"])
    return params, h["dim"], h["n"], h["buckets"]


# what TableCheck finds wrong with a table record: the message, and whether
# it points at the record's ids rather than its sizes
_TABLE_FAULTS = {
    EMPTY_BUCKET: ("a bucket size of 0 in table {t}", False),
    SIZES_OFF: ("bucket sizes do not sum to {n} in table {t}", False),
    ID_OUT_OF_RANGE: ("record id out of range in table {t}", True),
    NOT_A_PERMUTATION: ("record ids of table {t} are not a permutation of 0..{last}", True),
}


def load_index(path, dataset: VectorSet | None = None) -> BoiIndex:
    """Rebuild an index from a snapshot without re-hashing anything.

    The file's size is checked against its header before anything is
    allocated; then each table record is read straight into the index's
    C-contiguous arrays, and checked there. Rejects bad magic, unknown
    versions (v1 to v3 included), unknown schedule codes or flag bits,
    non-zero header padding, header values ``BoiParams`` rejects, n of
    2**31 or more (record ids are int32), a dim ``check_dimension``
    refuses (0 among them), a K no table of n records can have, a header
    or projections that fail their crc32, length mismatches, non-finite
    projections, a bitmap bit set for a code at or past 2**b, bitmaps
    whose set bits do not sum to K, bucket sizes of 0 or that do not sum
    to n, ids outside [0, n), id rows whose wrapping uint32 sum is not that
    of 0..n-1 (which catches every single-bit flip of an id) and a table 0
    row that is not a permutation of 0..n-1. Each ``FormatError`` about a
    table names it. When ``dataset`` is given the index is made over it
    (and size-checked) so it can answer queries immediately.
    """
    with open(path, "rb") as f:
        params, dim, n, num_buckets = _read_header(f)
        bits, num_tables = params.hash_bits, params.num_tables
        words = directory_words(bits)
        # a table record: projections, their crc32, the bitmap, k sizes,
        # then ids, each field at these byte offsets when k = 0
        crc_at = 4 * bits * dim
        bitmap_at = crc_at + 4
        sizes_at = bitmap_at + 8 * words
        fixed_bytes = sizes_at + 4 * n
        size = os.fstat(f.fileno()).st_size
        expected = _HEADER.size + num_tables * fixed_bytes + 4 * num_buckets
        if size != expected:
            raise FormatError(
                f"snapshot length {size} != expected {expected}",
                offset=min(size, expected),
            )
        projections = np.empty((num_tables * bits, dim), dtype=np.float32)
        bitmap = np.empty((num_tables, words), dtype=np.uint64)
        offsets = np.empty(num_buckets + num_tables, dtype=OFFSET_DTYPE)
        rows = np.empty((num_tables, n), dtype=np.int32)
        check = TableCheck(bits, bitmap, offsets, rows)
        crc = np.empty(1, dtype="<u4")
        record = _HEADER.size  # where table t's record begins
        at = 0  # where table t's piece of offsets begins, after t earlier n's
        for t in range(num_tables):
            matrix = projections[t * bits : (t + 1) * bits]
            _read_into(f, matrix)
            _read_into(f, crc)
            if zlib.crc32(matrix) != crc[0]:
                raise FormatError(f"projections of table {t} fail their crc32", offset=record)
            if sys.byteorder == "big":
                matrix.byteswap(inplace=True)
            if not np.isfinite(matrix).all():
                raise FormatError(f"non-finite projection in table {t}", offset=record)
            _read_native_into(f, bitmap[t])
            k = check.buckets(t)
            left = num_buckets - (at - t)  # the header's K less earlier tables' k
            if k == BIT_PAST:
                raise FormatError(
                    f"bitmap of table {t} has a bit set for a code at or past 2**{bits}",
                    offset=record + bitmap_at,
                )
            if k > left or (t == num_tables - 1 and k < left):
                raise FormatError(
                    f"bitmap of table {t} marks {k} non-empty buckets where the "
                    f"header's K leaves {left}",
                    offset=record + bitmap_at,
                )
            ids_at = record + sizes_at + 4 * k
            _read_native_into(f, offsets[at + 1 : at + 1 + k])
            _read_native_into(f, rows[t])
            status = check(t, at)
            if status < 0:
                message, about_ids = _TABLE_FAULTS[status]
                raise FormatError(
                    message.format(t=t, n=n, last=n - 1),
                    offset=ids_at if about_ids else record + sizes_at,
                )
            if not t:
                order_at = ids_at
            at += status
            record = ids_at + 4 * n
        order = rows[0].copy()
        rows[0] = np.arange(n, dtype=np.int32)
        try:
            tables = ProjectionTable(projections, bitmap, offsets, rows, order)
        except ValueError as exc:
            raise FormatError(f"bad table 0 record ids: {exc}", offset=order_at) from None
    return BoiIndex(params, tables, dataset)
