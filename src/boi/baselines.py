"""Comparison methods: exact scan and collision-counting multi-probe LSH.

Plain single-bucket LSH is multi-probe LSH at radius 0 (Lv et al.,
"Multi-Probe LSH", VLDB 2007), and multi-probe LSH runs the boi query's
stages (``boi.index``) with a vote of 1 per probed bucket. A record's vote
is then its collision count, and the shortlist keeps the records that
collide most often, as collision-counting LSH does (C2LSH, Gan et al.,
SIGMOD 2012).
"""

from __future__ import annotations

import numpy as np

from .core import (
    RankedResult,
    VectorSet,
    dense_vector,
    pairwise_distances,
    query_vector,
    rank_by_distance,
    rerank,
)
from .hashing import ProjectionTable
from .index import _accumulate, neighbor_budget, probe_plan, shortlist


def brute_force_query(dataset: VectorSet, q, k: int) -> RankedResult:
    """Exact k nearest neighbors by Euclidean distance, ties by ascending id.

    This is the ground-truth oracle every approximate method is measured
    against: an unfiltered exhaustive scan of every record in float64
    (``core.pairwise_distances``), which acceptance c06 and every
    full-probe test compare against.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if dataset.n == 0:
        dense_vector(q)
        return RankedResult.empty()
    q = query_vector(q, dataset.dim)
    dists = pairwise_distances(dataset.vectors, q)
    ids, ranked = rank_by_distance(np.arange(dataset.n, dtype=np.int64), dists, k)
    return RankedResult(ids, ranked)


def multiprobe_lsh_query(
    tables: ProjectionTable,
    dataset: VectorSet,
    q,
    radius: int,
    shortlist_size: int,
    k: int,
) -> RankedResult:
    """Multi-probe LSH: probe the full Hamming ball of ``radius`` per table.

    This is the boi query's path (``index._accumulate``, ``shortlist``,
    ``core.rerank``) with units of 1 and every table's budget the whole
    ball: each probed bucket adds 1 to its records, with no distance
    weight. The ``shortlist_size`` records with the most collisions (ties
    by lower id, never one with none) are re-ranked by exact distance, so a
    shortlist of n or more re-ranks the whole union. radius=0 is plain LSH,
    the query's own bucket in each table; a radius of b or more probes the
    whole code space. ``dataset`` must be the set the tables index
    (ValueError otherwise).
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if k < 1 or shortlist_size < 1:
        raise ValueError("k and shortlist_size must be >= 1")
    q = query_vector(q, tables.dim)
    tables.check_dataset(dataset)
    count = neighbor_budget(tables.bits, radius)
    budgets = np.full(tables.num_tables, count, np.int64)
    ones = np.ones(count + 1, np.uint32)
    masks = probe_plan(tables.bits, count)[0]
    votes, probes, pairs = _accumulate(tables, q, masks, ones, budgets)
    candidates = shortlist(votes, shortlist_size, tables.order)
    return rerank(dataset.vectors, candidates, q, k, probes, pairs)
