"""Binary persistence: fvecs/ivecs vector files and index snapshots.

fvecs: per record, a little-endian int32 dimension header followed by that
many little-endian float32 components. ivecs is identical with int32
payloads. All records in a file share one dimension.

Snapshot layout (everything little-endian):

    header  magic "BOIX", version u32, num_tables u32, hash_bits u32,
            dim u32, n u64, seed u64, gamma0 u32, probe_radius u32,
            shortlist_size u32, linear_step u32, sublinear_step u32,
            schedule u8 (0 fixed / 1 linear / 2 sublinear),
            flags u8 (bit 0: strict_radius), 2 pad bytes
    body    num_tables fixed-size records, one per table: the
            (hash_bits x dim) float32 projection matrix, the 2**hash_bits
            u32 bucket counts (bucket code order), then the n u32 record ids
            grouped by bucket code (that table's row of ``members``)

Because every record has the same size, the body is one structured numpy
array of L records: saving fills its three fields from the
``ProjectionTable`` arrays, and loading is one ``np.frombuffer`` whose
fields are (L, ...) views, plus a cumulative sum of the counts. Projections
are stored rather than re-derived from the seed, so snapshots stay valid
even if the generator implementation ever changes. Loading never re-hashes
the dataset.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .core import SCHEDULE_KINDS, BoiParams, VectorSet
from .hashing import OFFSET_DTYPE, ProjectionTable, check_record_count
from .index import BoiIndex


class FormatError(ValueError):
    """Malformed binary input; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def _read_records(path, payload_dtype) -> np.ndarray:
    raw = Path(path).read_bytes()
    if not raw:
        return np.empty((0, 0), dtype=payload_dtype)
    if len(raw) < 4:
        raise FormatError("file too short for a dimension header", offset=0)
    dim = int(np.frombuffer(raw, dtype="<i4", count=1)[0])
    if dim <= 0:
        raise FormatError(f"non-positive dimension {dim}", offset=0)
    record_size = 4 + 4 * dim
    n, leftover = divmod(len(raw), record_size)
    if leftover:
        raise FormatError("truncated record at end of file", offset=n * record_size)
    headers = np.frombuffer(raw, dtype="<i4").reshape(n, 1 + dim)[:, 0]
    bad = np.flatnonzero(headers != dim)
    if bad.size:
        raise FormatError(
            f"inconsistent dimension {int(headers[bad[0]])} != {dim}",
            offset=int(bad[0]) * record_size,
        )
    payload = np.frombuffer(raw, dtype=payload_dtype).reshape(n, 1 + dim)[:, 1:]
    return payload.copy()


def read_fvecs(path) -> VectorSet:
    """Load an fvecs file; rejects malformed or non-finite data."""
    values = _read_records(path, "<f4")
    finite = np.isfinite(values)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        record_size = 4 + 4 * values.shape[1]
        raise FormatError(
            "non-finite component",
            offset=int(r) * record_size + 4 + 4 * int(c),
        )
    return VectorSet(values)


def write_fvecs(path, dataset: VectorSet) -> None:
    """Write a VectorSet as fvecs; read_fvecs round-trips it bit-exactly."""
    n, dim = dataset.n, dataset.dim
    buf = np.empty((n, 1 + dim), dtype="<f4")
    if n:
        buf[:, 0] = np.full(n, dim, dtype="<i4").view("<f4")
        buf[:, 1:] = dataset.vectors
    Path(path).write_bytes(buf.tobytes())


def read_ivecs(path) -> np.ndarray:
    """Load an ivecs file as an (n, dim) int32 array."""
    return _read_records(path, "<i4")


def write_ivecs(path, rows) -> None:
    """Write an (n, dim) integer array as ivecs."""
    rows = np.asarray(rows, dtype="<i4")
    if rows.ndim != 2:
        raise ValueError(f"ivecs rows must be 2-D, got shape {rows.shape}")
    n, dim = rows.shape
    if n and dim == 0:
        raise ValueError("ivecs records must have at least one element")
    buf = np.empty((n, 1 + dim), dtype="<i4")
    if n:
        buf[:, 0] = dim
        buf[:, 1:] = rows
    Path(path).write_bytes(buf.tobytes())


_MAGIC = b"BOIX"
_VERSION = 2
_HEADER = struct.Struct("<4sIIIIQQIIIIIBB2x")
_FLAG_STRICT = 0x01


def _table_record(bits: int, dim: int, n: int) -> np.dtype:
    """One table's fixed-size body record: projections, counts, members."""
    return np.dtype(
        [
            ("projections", "<f4", (bits, dim)),
            ("counts", "<u4", (1 << bits,)),
            ("members", "<u4", (n,)),
        ]
    )


def _check_records(ok: np.ndarray, what: str, record: np.dtype, field: str) -> None:
    """Raise FormatError at ``field`` of the first table whose ``ok`` is False."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        t = int(bad[0])
        raise FormatError(
            f"{what} in table {t}",
            offset=_HEADER.size + t * record.itemsize + record.fields[field][1],
        )


def save_index(index: BoiIndex, path) -> None:
    """Serialize an index snapshot; byte-identical for identical indexes."""
    p = index.params
    tables = index.tables
    record = _table_record(p.hash_bits, index.dim, index.n)
    raw = np.empty(_HEADER.size + p.num_tables * record.itemsize, dtype=np.uint8)
    _HEADER.pack_into(
        raw,
        0,
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
    )
    body = raw[_HEADER.size :].view(record)
    body["projections"] = tables.projections.reshape(body["projections"].shape)
    body["counts"] = np.diff(tables.offsets, axis=1)
    body["members"] = tables.members
    Path(path).write_bytes(raw)


def load_index(path, dataset: VectorSet | None = None) -> BoiIndex:
    """Rebuild an index from a snapshot without re-hashing anything.

    The body is read as one structured array of L table records, so bucket
    counts and members are read-only (L, ...) views into the file's bytes;
    nothing is copied per table or per bucket. Rejects bad magic, unknown
    versions (v1 included), header values ``BoiParams`` rejects, n of
    2**31 or more (record ids are int32), length mismatches, bucket counts
    that do not sum to n, non-finite projections and record ids outside
    [0, n). When ``dataset`` is given the index is made over it (and
    size-checked) so it can answer queries immediately.
    """
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
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
    ) = _HEADER.unpack_from(raw, 0)
    if magic != _MAGIC:
        raise FormatError(f"bad magic {magic!r}", offset=0)
    if version != _VERSION:
        raise FormatError(f"unsupported snapshot version {version}", offset=4)
    if schedule_code >= len(SCHEDULE_KINDS):
        raise FormatError(f"unknown schedule code {schedule_code}")
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
    record_bytes = 4 * (hash_bits * dim + (1 << hash_bits) + n)
    expected = _HEADER.size + num_tables * record_bytes
    if len(raw) != expected:
        raise FormatError(
            f"snapshot length {len(raw)} != expected {expected}",
            offset=min(len(raw), expected),
        )
    record = _table_record(hash_bits, dim, n)
    body = np.frombuffer(raw, dtype=record, offset=_HEADER.size)
    counts = body["counts"]
    # summed exactly first: once every row sums to n, no running sum of
    # its non-negative counts can wrap the int32 offsets
    total = counts.sum(axis=1, dtype=np.int64)
    _check_records(total == n, f"bucket counts do not sum to {n}", record, "counts")
    offsets = np.zeros((num_tables, (1 << hash_bits) + 1), dtype=OFFSET_DTYPE)
    offsets[:, 1:] = counts
    np.cumsum(offsets[:, 1:], axis=1, out=offsets[:, 1:])
    projections = body["projections"]
    _check_records(
        np.isfinite(projections).all(axis=(1, 2)),
        "non-finite projection",
        record,
        "projections",
    )
    members = body["members"]
    # ids are unsigned, so one upper bound checks [0, n); with n = 0 the
    # rows are empty and nothing can be out of range
    _check_records(
        members.max(axis=1, initial=0) < max(n, 1),
        "record id out of range",
        record,
        "members",
    )
    tables = ProjectionTable(
        projections=projections.reshape(num_tables * hash_bits, dim),
        offsets=offsets,
        members=members.view("<i4"),
    )
    return BoiIndex(params, tables, dataset)
