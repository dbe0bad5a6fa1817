"""Hash tables built by hand over record ids, for the tests."""

from types import SimpleNamespace

import numpy as np

from boi.hashing import ProjectionTable, _sign_filter
from boi.vote import ID_DTYPE, QueryScratch, directory_shape


def directory(offsets) -> tuple[np.ndarray, np.ndarray]:
    """The ``(bitmap, offsets)`` directory of dense CSR ``offsets``
    (L, 2**b + 1) of tables of one page (at most 2**16 records): every
    bucket whose offsets differ counts as non-empty, so dense offsets that
    decrease give a directory ``ProjectionTable`` refuses. The bitmap is
    (L, 1, W); the directory's offsets keep the dense ones' dtype."""
    offsets = np.asarray(offsets)
    num_tables, width = offsets.shape
    num_buckets = width - 1
    full = np.zeros((num_tables, 64 * max(1, num_buckets // 64)), dtype=bool)
    full[:, :num_buckets] = offsets[:, 1:] != offsets[:, :-1]
    bitmap = np.packbits(full, axis=1, bitorder="little").view("<u8").astype(np.uint64)
    bitmap = bitmap[:, np.newaxis, :]
    compact = np.concatenate(
        [np.append(row[:-1][mask[:num_buckets]], row[-1]) for row, mask in zip(offsets, full)]
    )
    return bitmap, compact


def dense_offsets(tables: ProjectionTable) -> np.ndarray:
    """The (L, 2**b + 1) int64 CSR offsets of every bucket of ``tables``,
    empty ones included, its records of every page counted, as an oracle
    to compare a directory with."""
    offsets = np.zeros((tables.num_tables, tables.num_buckets + 1), dtype=np.int64)
    for t in range(tables.num_tables):
        for page in range(tables.num_pages):
            codes, piece = tables.buckets(t, page)
            offsets[t, codes + 1] += np.diff(piece)
    return np.cumsum(offsets, axis=1)


def from_record_ids(projections, offsets, members) -> ProjectionTable:
    """The ``ProjectionTable`` of the buckets that ``members`` lists by
    record id, bounded by the dense CSR ``offsets``, in the one form a
    table takes.

    ``order`` is row 0 of ``members``, so record ``order[i]`` becomes
    internal id i. Every row is mapped through the inverse of that order,
    and each later row is sorted within its buckets, as ``insert_all``
    lists them. Row 0 must be a permutation of 0..n-1 and every later id
    must lie in [0, n), n at most 2**16: the tables have one page.
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
    return ProjectionTable(
        projections, *directory(offsets), members.astype(ID_DTYPE), order
    )


def scratch_over(bits, bitmap, rank, offsets, members) -> QueryScratch:
    """A ``QueryScratch`` bound straight to these arrays, passed as a
    namespace in place of a ``ProjectionTable``, so that no table checks
    the directory first and a query reaches the kernel's own range checks.
    Its ``sign_filter`` is of all-one projections of dimension 1 in
    len(bitmap) tables of ``bits`` bits, made first, so that its check of
    the code width is the one a bad ``bits`` meets; its ``order`` is the
    identity. The scratch's codes and dot products start at zero."""
    sign_filter = _sign_filter(np.ones((len(bitmap) * bits, 1)), bits)
    order = np.arange(np.shape(members)[-1], dtype=np.int32)
    scratch = QueryScratch(
        SimpleNamespace(
            sign_filter=sign_filter, bitmap=bitmap, rank=rank, offsets=offsets,
            members=members, order=order,
        )
    )
    scratch.codes[...] = 0
    scratch.dots[...] = 0
    return scratch


def rows_of_plan(plan, codes, dots) -> np.ndarray:
    """The probe rows ``QueryScratch.rows`` writes under ``plan`` for the
    query codes ``codes`` (L,) and dot products ``dots`` (L*bits,), cast
    to the scratch's uint16 and float32, in a scratch over L tables of no
    records."""
    words = directory_shape(plan.num_tables, plan.bits, 0)
    scratch = scratch_over(
        plan.bits, np.zeros(words, np.uint64), np.zeros(words, np.int32),
        np.zeros(plan.num_tables, np.int32), np.zeros((plan.num_tables, 0), ID_DTYPE),
    )
    scratch.codes[:] = codes
    scratch.dots[:, 0] = dots
    return scratch.rows(plan)
