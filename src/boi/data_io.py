"""Binary persistence: fvecs/ivecs vector files and index snapshots.

fvecs: per record, a little-endian int32 dimension header followed by that
many little-endian float32 components. ivecs is identical with int32
payloads. All records in a file share one dimension.

Snapshot layout (everything little-endian):

    header  magic "BOIX", version u32, num_tables u32, hash_bits u32,
            dim u32, n u64, seed u64, gamma0 u32, probe_radius u32,
            shortlist_size u32, linear_step u32, sublinear_step u32,
            schedule u8 (0 fixed / 1 linear / 2 sublinear),
            flags u8 (bit 0: strict_radius; bits 1-7 are reserved and
            must be 0), 2 pad bytes that must be 0
    body    num_tables fixed-size records, one per table: the
            (hash_bits x dim) float32 projection matrix, the 2**hash_bits
            u32 bucket counts (bucket code order), then the n u32 record ids
            grouped by bucket code (that table's row of ``members``)

Saving and loading are mirror loops over the tables, one record each.
Loading reads the header, checks the file's size against it, then reads
each table's fields straight into the C-contiguous arrays ``insert_all``
builds (the counts become offsets by an in-place cumulative sum), so a
loaded index holds the same arrays as a built one. Projections are stored
rather than re-derived from the seed, so snapshots stay valid even if the
generator implementation ever changes. Loading never re-hashes the dataset.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .core import SCHEDULE_KINDS, BoiParams, VectorSet
from .hashing import ProjectionTable, check_record_count
from .index import BoiIndex


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
    # no mask is kept alive while VectorSet makes its own
    if not np.isfinite(values).all():
        r, c = np.argwhere(~np.isfinite(values))[0]
        record_size = 4 + 4 * values.shape[1]
        raise FormatError(
            "non-finite component",
            offset=int(r) * record_size + 4 + 4 * int(c),
        )
    return VectorSet(values)


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
    """Write an (n, dim) integer array as ivecs."""
    rows = np.asarray(rows, dtype="<i4")
    if rows.ndim != 2:
        raise ValueError(f"ivecs rows must be 2-D, got shape {rows.shape}")
    if rows.shape[0] and rows.shape[1] == 0:
        raise ValueError("ivecs records must have at least one element")
    _write_records(path, rows)


_MAGIC = b"BOIX"
_VERSION = 2
_HEADER = struct.Struct("<4sIIIIQQIIIIIBBH")
# byte offsets of the header's last three fields: schedule, flags, padding
_SCHEDULE_AT, _FLAGS_AT, _PAD_AT = 56, 57, 58
_FLAG_STRICT = 0x01


def save_index(index: BoiIndex, path) -> None:
    """Write a snapshot one table record at a time; same index, same bytes."""
    p = index.params
    tables = index.tables
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        p.num_tables,
        p.hash_bits,
        index.dim,
        index.n,
        p.seed,
        p.initial_probe_count,
        p.probe_radius,
        p.shortlist_size,
        p.linear_step,
        p.sublinear_step,
        SCHEDULE_KINDS.index(p.schedule),
        _FLAG_STRICT if p.strict_radius else 0,
        0,
    )
    projections = tables.projections.reshape(p.num_tables, p.hash_bits, index.dim)
    with open(path, "wb") as f:
        f.write(header)
        for t in range(p.num_tables):
            f.write(projections[t].astype("<f4"))
            f.write(np.diff(tables.offsets[t]).astype("<u4"))
            f.write(tables.members[t].astype("<u4"))


def _read_header(f) -> tuple[BoiParams, int, int]:
    """The params, dim and n of the snapshot header at the start of ``f``."""
    head = f.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise FormatError("file too short for a snapshot header", offset=0)
    (
        magic,
        version,
        num_tables,
        hash_bits,
        dim,
        n,
        seed,
        gamma0,
        probe_radius,
        shortlist_size,
        linear_step,
        sublinear_step,
        schedule_code,
        flags,
        pad,
    ) = _HEADER.unpack(head)
    if magic != _MAGIC:
        raise FormatError(f"bad magic {magic!r}", offset=0)
    if version != _VERSION:
        raise FormatError(f"unsupported snapshot version {version}", offset=4)
    if schedule_code >= len(SCHEDULE_KINDS):
        raise FormatError(
            f"unknown schedule code {schedule_code}", offset=_SCHEDULE_AT
        )
    if flags & ~_FLAG_STRICT:
        raise FormatError(f"unknown header flags {flags:#04x}", offset=_FLAGS_AT)
    if pad:
        raise FormatError("non-zero header padding", offset=_PAD_AT)
    try:
        params = BoiParams(
            num_tables=num_tables,
            hash_bits=hash_bits,
            probe_radius=probe_radius,
            shortlist_size=shortlist_size,
            initial_probe_count=gamma0,
            schedule=SCHEDULE_KINDS[schedule_code],
            linear_step=linear_step,
            sublinear_step=sublinear_step,
            seed=seed,
            strict_radius=bool(flags & _FLAG_STRICT),
        )
        check_record_count(n)
    except ValueError as exc:
        raise FormatError(f"bad snapshot header: {exc}", offset=0) from None
    return params, dim, n


def load_index(path, dataset: VectorSet | None = None) -> BoiIndex:
    """Rebuild an index from a snapshot without re-hashing anything.

    The file's size is checked against its header before anything is
    allocated; then each table record is read straight into the index's
    C-contiguous arrays. Rejects bad magic, unknown versions (v1 included),
    unknown schedule codes or flag bits, non-zero header padding, header
    values ``BoiParams`` rejects, n of 2**31 or more (record ids are
    int32), length mismatches, bucket counts that do not sum to n,
    non-finite projections and record ids outside [0, n). When ``dataset``
    is given the index is made over it (and size-checked) so it can answer
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
        matrix = np.empty((bits, dim), dtype="<f4")  # one table's projections
        projections = np.empty((num_tables * bits, dim))
        # little-endian like the file: on most hosts int32 itself, uncopied
        offsets = np.zeros((num_tables, (1 << bits) + 1), dtype="<i4")
        members = np.empty((num_tables, n), dtype="<i4")
        for t in range(num_tables):
            at = _HEADER.size + t * record_bytes
            _read_into(f, matrix)
            if not np.isfinite(matrix).all():
                raise FormatError(f"non-finite projection in table {t}", offset=at)
            projections[t * bits : (t + 1) * bits] = matrix
            counts = offsets[t, 1:]
            _read_into(f, counts)
            # summed exactly as u32 first: once the row sums to n, no running
            # sum of its non-negative counts can wrap the int32 offsets
            if counts.view("<u4").sum(dtype=np.int64) != n:
                raise FormatError(
                    f"bucket counts do not sum to {n} in table {t}",
                    offset=at + counts_at,
                )
            np.cumsum(counts, out=counts)
            _read_into(f, members[t])
            # read as unsigned, one upper bound checks [0, n)
            if n and members[t].view("<u4").max() >= n:
                raise FormatError(
                    f"record id out of range in table {t}", offset=at + ids_at
                )
    return BoiIndex(params, ProjectionTable(projections, offsets, members), dataset)
