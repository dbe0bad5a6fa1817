"""Binary persistence: fvecs/ivecs vector files and index snapshots.

fvecs: per record, a little-endian int32 dimension header followed by that
many little-endian float32 components. ivecs is identical with int32
payloads. All records in a file share one dimension.

Snapshot layout, version 3 (everything little-endian):

    header  60 bytes: the fields of ``_FIELDS``, one (name, struct code)
            row a field, in file order. They are the magic "BOIX", the
            version, dim, n, the integer ``BoiParams`` fields under their
            own names, the schedule's code (0 fixed / 1 linear / 2
            sublinear), flags (bit 0: strict_radius; bits 1-7 are reserved
            and must be 0) and 2 pad bytes that must be 0. That table alone
            gives the header's ``struct`` format, what ``save_index``
            packs, what ``_read_header`` unpacks and each field's byte
            offset.
    body    num_tables fixed-size records, one per table: the
            (hash_bits x dim) float32 projection matrix, the 2**hash_bits
            u32 bucket counts (bucket code order), then an id row of n u32.
            Table 0's holds ``order``, the record ids grouped by its code,
            ascending within a bucket, in place of its ``members`` row,
            which is 0..n-1; every later table's holds its ``members`` row,
            the internal ids (positions in ``order``) grouped by its code.

Version 2 had the same layout, but every id row held record ids. Its row 0
is byte for byte version 3's, but its later rows would need relabelling
through ``order`` on load, so version 2 files are rejected like version 1
files; rebuild them with ``boi build``.

The file stores every table's 2**hash_bits counts, dense, but an index
holds only a directory of each table's non-empty buckets
(``hashing.ProjectionTable``); the two are converted one table at a time,
through one scratch of 2**hash_bits + 1 values, so neither saving nor
loading holds the dense counts of every table at once.

Saving and loading are mirror loops over the tables, one record each.
Saving spreads each table's non-empty bucket sizes over the scratch,
zeroed, and writes it as the table's counts. Loading reads the header,
checks the file's size against it, then reads each table's projections
and ids straight into C-contiguous native arrays, and its counts into the
scratch, swapping their bytes on a big-endian host. One compiled pass per
record (``vote.check_table``) checks the counts and the ids, turns the
counts into the table's bitmap and piece of offsets and gives the piece's
length, so the piece is copied out of the scratch; then row 0 is copied
out as ``order`` and set to 0..n-1, so a loaded index holds the same
arrays ``insert_all`` builds, and ``ProjectionTable`` makes the rank from
them as it does for a built one.
Projections are stored rather than re-derived from the seed, so snapshots
stay valid even if the generator implementation ever changes. Loading
never re-hashes the dataset.
"""

from __future__ import annotations

import os
import struct
import sys
from dataclasses import fields
from itertools import accumulate

import numpy as np

from .core import OFFSET_DTYPE, SCHEDULE_KINDS, BoiParams, VectorSet, as_exact
from .hashing import ProjectionTable, check_dimension, check_record_count
from .index import BoiIndex
from .vote import COUNTS_OFF, ID_OUT_OF_RANGE, check_table, directory_words


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
_VERSION = 3
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
)
_NAMES = tuple(name for name, _ in _FIELDS)
_HEADER = struct.Struct("<" + "".join(code for _, code in _FIELDS))
# each field's byte offset, where a FormatError about it points
_FIELD_AT = dict(
    zip(_NAMES, accumulate((struct.calcsize("<" + code) for _, code in _FIELDS), initial=0))
)
_PARAM_FIELDS = [f.name for f in fields(BoiParams) if f.name in _NAMES]
_FLAG_STRICT = 0x01


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
        **{name: getattr(p, name) for name in _PARAM_FIELDS},
    }
    projections = tables.projections.reshape(p.num_tables, p.hash_bits, index.dim)
    counts = np.empty(1 << p.hash_bits, dtype="<u4")
    with open(path, "wb") as f:
        f.write(_HEADER.pack(*(header[name] for name in _NAMES)))
        for t in range(p.num_tables):
            f.write(projections[t].astype("<f4"))
            codes, starts = tables.buckets(t)
            counts[:] = 0
            counts[codes] = np.diff(starts)
            f.write(counts)
            # table 0's members row is 0..n-1, so its id row holds the order
            f.write((tables.members[t] if t else tables.order).astype("<u4"))


def _read_header(f) -> tuple[BoiParams, int, int]:
    """The params, dim and n of the snapshot header at the start of ``f``."""
    head = f.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise FormatError("file too short for a snapshot header", offset=0)
    h = dict(zip(_NAMES, _HEADER.unpack(head)))
    for name, bad, message in (
        ("magic", h["magic"] != _MAGIC, f"bad magic {h['magic']!r}"),
        ("version", h["version"] != _VERSION,
         f"unsupported snapshot version {h['version']}"),
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
        check_record_count(h["n"])
        check_dimension(h["dim"])
    except ValueError as exc:
        raise FormatError(f"bad snapshot header: {exc}", offset=0) from None
    return params, h["dim"], h["n"]


def load_index(path, dataset: VectorSet | None = None) -> BoiIndex:
    """Rebuild an index from a snapshot without re-hashing anything.

    The file's size is checked against its header before anything is
    allocated; then each table record is read straight into the index's
    C-contiguous arrays. Rejects bad magic, unknown versions (v1 and v2
    included), unknown schedule codes or flag bits, non-zero header
    padding, header values ``BoiParams`` rejects, n of 2**31 or more
    (record ids are int32), a dim ``check_dimension`` refuses (0 among
    them), length mismatches, bucket counts that do not
    sum to n, non-finite projections, ids outside [0, n), id rows whose
    wrapping uint32 sum is not that of 0..n-1 (which catches every
    single-bit flip of an id) and a table 0 row that is not a permutation
    of 0..n-1. When ``dataset`` is
    given the index is made over it (and size-checked) so it can answer
    queries immediately.
    """
    with open(path, "rb") as f:
        params, dim, n = _read_header(f)
        bits, num_tables = params.hash_bits, params.num_tables
        # a table record: projections, counts, then ids, 4 bytes a value
        counts_at = 4 * bits * dim
        ids_at = counts_at + (4 << bits)
        record_bytes = ids_at + 4 * n
        size = os.fstat(f.fileno()).st_size
        expected = _HEADER.size + num_tables * record_bytes
        if size != expected:
            raise FormatError(
                f"snapshot length {size} != expected {expected}",
                offset=min(size, expected),
            )
        projections = np.empty((num_tables * bits, dim), dtype=np.float32)
        bitmap = np.empty((num_tables, directory_words(bits)), dtype=np.uint64)
        pieces = []
        # one table's counts at a time, from entry 1 on; check_table turns
        # them into the table's directory in place
        scratch = np.empty((1 << bits) + 1, dtype=OFFSET_DTYPE)
        rows = np.empty((num_tables, n), dtype=np.int32)
        for t in range(num_tables):
            at = _HEADER.size + t * record_bytes
            matrix = projections[t * bits : (t + 1) * bits]
            _read_native_into(f, matrix)
            if not np.isfinite(matrix).all():
                raise FormatError(f"non-finite projection in table {t}", offset=at)
            _read_native_into(f, scratch[1:])
            _read_native_into(f, rows[t])
            size = check_table(scratch, rows[t], bitmap[t])
            if size == COUNTS_OFF:
                raise FormatError(
                    f"bucket counts do not sum to {n} in table {t}",
                    offset=at + counts_at,
                )
            if size == ID_OUT_OF_RANGE:
                raise FormatError(
                    f"record id out of range in table {t}", offset=at + ids_at
                )
            if size < 0:
                raise FormatError(
                    f"record ids of table {t} are not a permutation of 0..{n - 1}",
                    offset=at + ids_at,
                )
            pieces.append(scratch[:size].copy())
        del scratch  # the pieces are all the tables keep of it
        order = rows[0].copy()
        rows[0] = np.arange(n, dtype=np.int32)
        try:
            tables = ProjectionTable(projections, bitmap, np.concatenate(pieces), rows, order)
        except ValueError as exc:
            raise FormatError(
                f"bad table 0 record ids: {exc}", offset=_HEADER.size + ids_at
            ) from None
    return BoiIndex(params, tables, dataset)
