"""Hash tables built by hand over record ids, for the tests."""

import numpy as np

from boi.hashing import ProjectionTable


def from_record_ids(projections, offsets, members) -> ProjectionTable:
    """The ``ProjectionTable`` of the buckets that ``members`` lists by
    record id, in the one form a table takes.

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
    return ProjectionTable(projections, offsets, members, order)
