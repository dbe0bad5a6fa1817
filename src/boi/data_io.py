"""Binary persistence: fvecs/ivecs vector files and index snapshots.

fvecs: per record, a little-endian int32 dimension header followed by that
many little-endian float32 components. ivecs is identical with int32
payloads. All records in a file share one dimension.

Snapshot layout, version 6 (everything little-endian):

    header  68 bytes: the fields of ``_FIELDS``, one (name, struct code)
            row a field, in file order. They are the magic "BOIX", the
            version, dim, n, the integer ``BoiParams`` fields under their
            own names, the schedule's code (0 fixed / 1 linear / 2
            sublinear), flags (bit 0: strict_radius; bits 1-7 are reserved
            and must be 0), 2 pad bytes that must be 0, K, the number of
            non-empty buckets over all tables and pages, and the crc32 of
            the 64 bytes before it. That table alone gives the header's
            ``struct`` format, what ``save_index`` packs, what
            ``_read_header`` unpacks and each field's byte offset.
    body    six blocks, in the order of ``_blocks``, each the bytes of one
            of the arrays the index holds (``hashing.ProjectionTable``), or
            of a part of one, for L tables of b bits and the P =
            ``vote.num_pages(n)`` pages of 2**16 ids of each:
            projections  (L * b, dim) f32, each table's b x dim matrix;
            crcs         (L,) u32, the crc32 of each table's matrix bytes;
            bitmap       (L, P, W) u64, W = ``vote.directory_words(b)``:
                         bit c % 64 of word c / 64 of (t, p) is set iff
                         bucket c of table t holds a record of page p;
            sizes        K u32, the sizes of the non-empty buckets of
                         every (table, page), table by table, page by page
                         and in code order, each at least 1;
            members      (L - 1, n) u16, rows 1 to L - 1 of ``members``:
                         in each page the internal ids (positions in
                         ``order``) of the page grouped by code, each less
                         the page's first id. Row 0 is 0, 1, 2, ... in
                         each page, and is not stored;
            order        (n,) i32, the record ids grouped by table 0's
                         code, ascending within a bucket.

So the file holds the directory the index holds: the bitmap and the
non-empty buckets of each (table, page) only, and each id in the two bytes
the index keeps it in. The header's K gives the file's exact length, 68 +
L * (4 * b * dim + 4 + 8 * P * W) + 4 * K + 4 * n + 2 * (L - 1) * n, which
is checked before anything is allocated. Earlier versions (version 5
stored the same values a table record at a time, version 4 u32 ids a
table, version 3 2**b dense counts a table) are rejected at the version
field; rebuild them with ``boi build``.

Saving writes each block with one write, straight from the index's arrays,
and the sizes, the steps of ``offsets``, a table at a time. Loading reads
the header, checks its values, each at its own field, and its crc32,
checks the file's size against it, then reads each block with one read
straight into the index's C-contiguous native arrays, swapping their bytes
on a big-endian host: the sizes go to ``offsets`` after its first L * P
values, the members to rows 1 and on. It checks each table's crc32 and that
its projections are finite; then one ``vote.check_tables`` call checks
every (table, page), front to back: its bitmap, its sizes, which it turns
into the page's piece of offsets in place, and its ids. Row 0 of
``members`` is set to 0, 1, 2, ... in each page before, so a loaded index
holds the same arrays ``insert_all`` builds, and ``ProjectionTable``
checks that ``order`` is a permutation and makes the rank from them as it
does for a built one. Every single-bit flip of a file fails to load: the
crc32s cover the header and the projections, a flipped bitmap bit changes
its page's count of sizes, so the sizes read no longer sum to the page's
size, or the bitmaps' sum no longer matches K; a flipped size changes the
sizes' sum; a flipped id changes its page's sum, or leaves the page, and a
flipped record id of ``order`` leaves [0, n) or lists one record twice.
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
    BUCKETS_OFF,
    EMPTY_BUCKET,
    ID_DTYPE,
    ID_OUT_OF_RANGE,
    NOT_A_PERMUTATION,
    PAGE,
    SIZES_OFF,
    check_tables,
    directory_words,
    num_pages,
    page_sizes,
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
_VERSION = 6
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
    ("buckets", "I"),  # K, the non-empty buckets of all tables and pages
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


def _blocks(params: BoiParams, dim: int, n: int, num_buckets: int) -> dict[str, int]:
    """The byte offset of each block of a snapshot body, in file order, and
    of the file's ``end``."""
    num_tables, bits = params.num_tables, params.hash_bits
    lengths = {
        "projections": 4 * num_tables * bits * dim,
        "crcs": 4 * num_tables,
        "bitmap": 8 * num_tables * num_pages(n) * directory_words(bits),
        "sizes": 4 * num_buckets,
        "members": 2 * (num_tables - 1) * n,
        "order": 4 * n,
    }
    return dict(zip([*lengths, "end"], accumulate(lengths.values(), initial=_HEADER.size)))


def save_index(index: BoiIndex, path) -> None:
    """Write a snapshot a block at a time, straight from the index's arrays
    on a little-endian host; same index, same bytes."""
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
        # one end a (table, page) besides
        "buckets": tables.offsets.size - p.num_tables * tables.num_pages,
        "crc": 0,
        **{name: getattr(p, name) for name in _PARAM_FIELDS},
    }
    header["crc"] = _header_crc(_HEADER.pack(*(header[name] for name in _NAMES)))
    projections = tables.projections.astype("<f4", copy=False)
    # where each table's pieces begin in offsets, then their end
    starts = [*tables.rank[:, 0, 0].tolist(), tables.offsets.size]
    with open(path, "wb") as f:
        f.write(_HEADER.pack(*(header[name] for name in _NAMES)))
        f.write(projections)
        f.write(np.array([zlib.crc32(m) for m in projections.reshape(p.num_tables, -1)], "<u4"))
        f.write(tables.bitmap.astype("<u8", copy=False))
        for start, stop in zip(starts, starts[1:]):
            # a table's pieces rise within a page, and each page ends where
            # the next begins: the sizes are the steps above 0
            steps = np.diff(tables.offsets[start:stop])
            f.write(steps[steps > 0].astype("<u4"))
        # table 0's ids are 0, 1, 2, ... in each page
        f.write(tables.members[1:].astype("<u2", copy=False))
        f.write(tables.order.astype("<i4", copy=False))


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
    # each page of s > 0 records has from 1 to min(s, 2**b) non-empty buckets
    sizes = page_sizes(h["n"])
    least = params.num_tables * int(np.count_nonzero(sizes))
    most = params.num_tables * int(np.minimum(sizes, params.num_buckets).sum())
    if not least <= h["buckets"] <= most:
        raise FormatError(
            f"bad snapshot header: {h['buckets']} non-empty buckets, not in "
            f"[{least}, {most}]",
            offset=_FIELD_AT["buckets"],
        )
    if _header_crc(head) != h["crc"]:
        raise FormatError("snapshot header fails its crc32", offset=_FIELD_AT["crc"])
    return params, h["dim"], h["n"], h["buckets"]


# what check_tables finds wrong with a page of a table: the message, and
# the block it points into
_TABLE_FAULTS = {
    BIT_PAST: (
        "bitmap of table {t} has a bit set in page {p} for a code at or past 2**{bits}",
        "bitmap",
    ),
    BUCKETS_OFF: (
        "bitmap of table {t} marks {k} non-empty buckets in page {p} where the "
        "header's K leaves {left}",
        "bitmap",
    ),
    EMPTY_BUCKET: ("a bucket size of 0 in table {t}, page {p}", "sizes"),
    SIZES_OFF: ("bucket sizes do not sum to {s} in table {t}, page {p}", "sizes"),
    ID_OUT_OF_RANGE: ("record id out of range in table {t}, page {p}", "members"),
    NOT_A_PERMUTATION: (
        "record ids of table {t}, page {p} are not a permutation of 0..{last}", "members"
    ),
}


def load_index(path, dataset: VectorSet | None = None) -> BoiIndex:
    """Rebuild an index from a snapshot without re-hashing anything.

    The file's size is checked against its header before anything is
    allocated; then each block is read straight into the index's
    C-contiguous arrays, and checked there. Rejects bad magic, unknown
    versions (v1 to v5 included), unknown schedule codes or flag bits,
    non-zero header padding, header values ``BoiParams`` rejects, n of
    2**31 or more (record ids are int32), a dim ``check_dimension`` refuses
    (0 among them), a K no tables of n records can have, a header or
    projections that fail their crc32, length mismatches, non-finite
    projections, a bitmap bit set for a code at or past 2**b, bitmaps whose
    set bits do not sum to K, bucket sizes of 0 or that do not sum to their
    page's size s, a page's ids at or past s, a page's ids whose sum is not
    that of 0..s-1 (which catches every single-bit flip of an id), and an
    ``order`` that is not a permutation of 0..n-1. Each ``FormatError``
    about a table names it, and its page, and points into its block. When
    ``dataset`` is given the index is made over it (and size-checked) so it
    can answer queries immediately.
    """
    with open(path, "rb") as f:
        params, dim, n, num_buckets = _read_header(f)
        bits, num_tables = params.hash_bits, params.num_tables
        words, pages = directory_words(bits), num_pages(n)
        at = _blocks(params, dim, n, num_buckets)
        size = os.fstat(f.fileno()).st_size
        if size != at["end"]:
            raise FormatError(
                f"snapshot length {size} != expected {at['end']}",
                offset=min(size, at["end"]),
            )
        projections = np.empty((num_tables * bits, dim), dtype=np.float32)
        crcs = np.empty(num_tables, dtype=np.uint32)
        bitmap = np.empty((num_tables, pages, words), dtype=np.uint64)
        offsets = np.empty(num_buckets + num_tables * pages, dtype=OFFSET_DTYPE)
        rows = np.empty((num_tables, n), dtype=ID_DTYPE)
        order = np.empty(n, dtype=np.int32)
        # the sizes go where check_tables turns them into pieces
        for block in (projections, crcs, bitmap, offsets[num_tables * pages :], rows[1:], order):
            _read_native_into(f, block)
    matrices = projections.reshape(num_tables, -1)
    matrix_bytes = 4 * bits * dim
    for t, matrix in enumerate(matrices.astype("<f4", copy=False)):
        if zlib.crc32(matrix) != crcs[t]:
            raise FormatError(
                f"projections of table {t} fail their crc32",
                offset=at["projections"] + t * matrix_bytes,
            )
    # the min or the max is NaN or infinite iff some value is
    if not (np.isfinite(projections.min()) and np.isfinite(projections.max())):
        t = int(np.argmin(np.isfinite(matrices).all(axis=1)))
        raise FormatError(
            f"non-finite projection in table {t}", offset=at["projections"] + t * matrix_bytes
        )
    for first, s in zip(range(0, n, PAGE), page_sizes(n).tolist()):
        # table 0's ids, which the file does not store
        rows[0, first : first + s] = np.arange(s, dtype=ID_DTYPE)
    status, t, p, read = check_tables(bits, bitmap, offsets, rows)
    if status:
        message, block = _TABLE_FAULTS[status]
        s = int(page_sizes(n)[p])
        within = {
            "bitmap": 8 * words * (t * pages + p),
            "sizes": 4 * read,
            "members": 2 * ((t - 1) * n + p * PAGE),
        }[block]
        raise FormatError(
            message.format(
                t=t, p=p, s=s, last=s - 1, bits=bits, left=num_buckets - read,
                k=int(np.unpackbits(bitmap[t, p].view(np.uint8)).sum()),
            ),
            offset=at[block] + within,
        )
    try:
        tables = ProjectionTable(projections, bitmap, offsets, rows, order)
    except ValueError as exc:
        raise FormatError(f"bad table 0 record ids: {exc}", offset=at["order"]) from None
    return BoiIndex(params, tables, dataset)
