"""Comparison methods: exact scan and Hamming-ball multi-probe LSH.

Plain single-bucket LSH is multi-probe LSH at radius 0 (Lv et al.,
"Multi-Probe LSH", VLDB 2007), so both run through one candidate path.
The LSH baselines keep a deduplicated candidate list across all tables and
re-rank every candidate by true Euclidean distance; that per-table
dedup-and-rerank cost is exactly what the weighted accumulator avoids, so
it is modeled rather than optimized away.
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
from .hashing import ProjectionTable, hash_codes_all, probe_plan
from .index import neighbor_budget


def brute_force_query(dataset: VectorSet, q, k: int) -> RankedResult:
    """Exact k nearest neighbors by Euclidean distance, ties by ascending id.

    This is the ground-truth oracle every approximate method is measured
    against.
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


def _dedup_first_seen(merged: np.ndarray, n: int) -> np.ndarray:
    """Ids of ``merged`` (all in [0, n)), each kept at its first appearance."""
    positions = np.arange(merged.size)
    first = np.full(n, merged.size, dtype=np.intp)
    np.minimum.at(first, merged, positions)
    return merged[first[merged] == positions]


def multiprobe_lsh_query(
    tables: ProjectionTable,
    dataset: VectorSet,
    q,
    radius: int,
    shortlist_size: int,
    k: int,
) -> RankedResult:
    """Multi-probe LSH: probe the full Hamming ball of ``radius`` per table.

    No probe budget and no vote weights; every bucket within the radius
    contributes its members to the candidate union, deduplicated in
    first-seen order (table by table, inner shells first) and capped at
    ``shortlist_size`` before the exact-distance re-rank (``core.rerank``,
    the same tail as the boi query). radius=0 is plain LSH: only the
    query's own bucket in each table. ``dataset`` must be the set the
    tables index (ValueError otherwise).
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if k < 1 or shortlist_size < 1:
        raise ValueError("k and shortlist_size must be >= 1")
    q = query_vector(q, tables.dim)
    tables.check_dataset(dataset)
    bits = tables.bits
    codes = hash_codes_all(tables.projections, bits, q[np.newaxis, :])[0]
    masks = probe_plan(bits, neighbor_budget(bits, radius))[0]
    balls = codes[:, np.newaxis] ^ masks
    rows = np.repeat(np.arange(tables.num_tables), masks.size)
    members = tables.bucket(rows, balls.ravel())
    candidates = _dedup_first_seen(members, dataset.n)[:shortlist_size]
    return rerank(
        dataset.vectors, candidates, q, k, int(balls.size), int(members.size)
    )
