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
    body    per table, three blocks: the (hash_bits x dim) float32
            projection matrix, the 2**hash_bits u32 bucket counts (bucket
            code order), then the n u32 record ids grouped by bucket code
            (the table's ``bucket_members``)

The body blocks are the arrays a table holds in memory, so saving is three
``tobytes()`` calls per table and loading is three ``np.frombuffer`` views
plus a cumulative sum of the counts. Projections are stored rather than
re-derived from the seed, so snapshots stay valid even if the generator
implementation ever changes. Loading never re-hashes the dataset.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .core import SCHEDULE_KINDS, BoiParams, VectorSet
from .hashing import ProjectionTable
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


def save_index(index: BoiIndex, path) -> None:
    """Serialize an index snapshot; byte-identical for identical indexes."""
    p = index.params
    n = index.n
    chunks = [
        _HEADER.pack(
            _MAGIC,
            _VERSION,
            p.num_tables,
            p.hash_bits,
            index.dim,
            n,
            p.seed,
            p.initial_probe_count,
            p.probe_radius,
            p.shortlist_size,
            p.linear_step,
            p.sublinear_step,
            SCHEDULE_KINDS.index(p.schedule),
            _FLAG_STRICT if p.strict_radius else 0,
        )
    ]
    for table in index.tables:
        chunks.append(np.ascontiguousarray(table.projections, dtype="<f4").tobytes())
        chunks.append(table.bucket_sizes().astype("<u4").tobytes())
        chunks.append(table.bucket_members.astype("<u4").tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_index(path, dataset: VectorSet | None = None) -> BoiIndex:
    """Rebuild an index from a snapshot without re-hashing anything.

    Tables are read-only views into the file's bytes; nothing is copied
    per bucket. Rejects bad magic, unknown versions (v1 included), length
    mismatches, bucket counts that do not sum to n, and record ids outside
    [0, n). When ``dataset`` is given it is attached (and size-checked) so
    the loaded index can answer queries immediately.
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
    num_buckets = 1 << hash_bits
    proj_bytes = hash_bits * dim * 4
    table_bytes = proj_bytes + 4 * (num_buckets + n)
    expected = _HEADER.size + num_tables * table_bytes
    if len(raw) != expected:
        raise FormatError(
            f"snapshot length {len(raw)} != expected {expected}",
            offset=min(len(raw), expected),
        )
    tables = []
    offset = _HEADER.size
    for t in range(num_tables):
        proj = np.frombuffer(
            raw, dtype="<f4", count=hash_bits * dim, offset=offset
        ).reshape(hash_bits, dim)
        offset += proj_bytes
        counts = np.frombuffer(raw, dtype="<u4", count=num_buckets, offset=offset)
        offsets = np.zeros(num_buckets + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        if offsets[-1] != n:
            raise FormatError(
                f"bucket counts sum to {int(offsets[-1])} != {n} in table {t}",
                offset=offset,
            )
        offset += 4 * num_buckets
        members = np.frombuffer(raw, dtype="<u4", count=n, offset=offset)
        if n and members.max() >= n:
            raise FormatError(f"record id out of range in table {t}", offset=offset)
        offset += 4 * n
        tables.append(
            ProjectionTable(
                projections=proj,
                table_index=t,
                bucket_offsets=offsets,
                bucket_members=members.view("<i4"),
            )
        )
    index = BoiIndex(params, dim, tables)
    if dataset is not None:
        index.attach_dataset(dataset)
    return index
