"""Hash tables built by hand over record ids, for the tests."""

import numpy as np

from boi.hashing import ProjectionTable


def directory(offsets) -> tuple[np.ndarray, np.ndarray]:
    """The ``(bitmap, offsets)`` directory of dense CSR ``offsets``
    (L, 2**b + 1): every bucket whose offsets differ counts as non-empty,
    so dense offsets that decrease give a directory ``ProjectionTable``
    refuses. The directory's offsets keep the dense ones' dtype."""
    offsets = np.asarray(offsets)
    num_tables, width = offsets.shape
    num_buckets = width - 1
    full = np.zeros((num_tables, 64 * max(1, num_buckets // 64)), dtype=bool)
    full[:, :num_buckets] = offsets[:, 1:] != offsets[:, :-1]
    bitmap = np.packbits(full, axis=1, bitorder="little").view("<u8").astype(np.uint64)
    compact = np.concatenate(
        [np.append(row[:-1][mask[:num_buckets]], row[-1]) for row, mask in zip(offsets, full)]
    )
    return bitmap, compact


def dense_offsets(tables: ProjectionTable) -> np.ndarray:
    """The (L, 2**b + 1) int64 CSR offsets of every bucket of ``tables``,
    empty ones included, as an oracle to compare a directory with."""
    offsets = np.zeros((tables.num_tables, tables.num_buckets + 1), dtype=np.int64)
    for t in range(tables.num_tables):
        codes, piece = tables.buckets(t)
        offsets[t, codes + 1] = np.diff(piece)
    return np.cumsum(offsets, axis=1)


def from_record_ids(projections, offsets, members) -> ProjectionTable:
    """The ``ProjectionTable`` of the buckets that ``members`` lists by
    record id, bounded by the dense CSR ``offsets``, in the one form a
    table takes.

    ``order`` is row 0 of ``members``, so record ``order[i]`` becomes
    internal id i. Every row is mapped through the inverse of that order,
    and each later row is sorted within its buckets, as ``insert_all``
    lists them. Row 0 must be a permutation of 0..n-1 and every later id
    must lie in [0, n).
    """
    members = np.asarray(members, dtype=np.int32)
    offsets = np.asarray(offsets)
    order = members[0].copy()
    internal = np.empty_like(order)
    internal[order] = np.arange(order.size, dtype=np.int32)
    members = internal[members]
    for row, bounds in zip(members[1:], offsets[1:]):
        for start, stop in zip(bounds[:-1], bounds[1:]):
            row[start:stop].sort()
    return ProjectionTable(projections, *directory(offsets), members, order)
