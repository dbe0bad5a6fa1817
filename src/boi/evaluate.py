"""Accuracy, latency, probe, and memory measurement for query batches.

Every ranking is scored once, by ``score``: one pass over the queries
gives each one's AP and the rank of its true nearest neighbour.
``summarize`` turns those two arrays into the reported ``map`` and
``recall_at_k``, so ``boi bench``'s JSON, its per-query CSV and
``boi eval`` all read the same per-query values.
"""

from __future__ import annotations

import json
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import OFFSET_DTYPE, BoiParams, RankedResult, VectorSet
from .vote import directory_words


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Exact nearest neighbors per query: row i holds query i's ids, best first."""

    neighbors: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.neighbors, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] < 1:
            raise ValueError("ground truth must be (num_queries, k) with k >= 1")
        if arr.size and arr.min() < 0:
            raise ValueError("ground-truth ids must be non-negative")
        arr.setflags(write=False)
        object.__setattr__(self, "neighbors", arr)

    @property
    def num_queries(self) -> int:
        return int(self.neighbors.shape[0])

    @property
    def depth(self) -> int:
        return int(self.neighbors.shape[1])

    def true_nn(self, query_index: int) -> int:
        return int(self.neighbors[query_index, 0])

    def relevant(self, query_index: int) -> np.ndarray:
        return self.neighbors[query_index]


def average_precision(ranking: Sequence[int], relevant) -> float:
    """AP of one ranked id list against a non-empty relevant set.

    Precision is sampled at every rank holding a relevant id and averaged
    over |relevant|, so relevant items missing from the ranking count as
    zero-precision hits. A ranking that repeats an id is malformed and
    raises ValueError, since each repeat would count as another hit.
    """
    relevant = np.asarray(list(relevant) if isinstance(relevant, set) else relevant)
    relevant = np.unique(relevant)
    if relevant.size == 0:
        raise ValueError("relevant set must be non-empty")
    ranking = np.asarray(ranking, dtype=np.int64)
    if np.unique(ranking).size != ranking.size:
        raise ValueError("ranking repeats a record id")
    if ranking.size == 0:
        return 0.0
    hits = np.isin(ranking, relevant)
    precision = np.cumsum(hits) / np.arange(1, ranking.size + 1)
    return float((precision * hits).sum() / relevant.size)


def recall_cutoffs(k: int) -> list[int]:
    """Cut-offs reported for rankings of depth k: 1, 10, 100 and k, up to k."""
    return sorted({c for c in (1, 10, 100, k) if 1 <= c <= k})


def score(
    rankings: Sequence[Sequence[int]], ground_truth: GroundTruth
) -> tuple[np.ndarray, np.ndarray]:
    """Every query's quality in one pass: float64 AP of ranking i against
    ground-truth row i, and the int64 0-based rank of query i's true
    nearest neighbour in ranking i (-1 when it is missing).

    Every query needs exactly one ranking; a wrong count, or a malformed
    ranking (named by its query), raises ValueError.
    """
    if len(rankings) != ground_truth.num_queries:
        raise ValueError(
            f"{ground_truth.num_queries} queries in ground truth but "
            f"{len(rankings)} rankings supplied"
        )
    aps = np.zeros(len(rankings))
    ranks = np.full(len(rankings), -1, dtype=np.int64)
    for i, ranking in enumerate(rankings):
        ranking = np.asarray(ranking, dtype=np.int64)
        try:
            aps[i] = average_precision(ranking, ground_truth.relevant(i))
        except ValueError as exc:
            raise ValueError(f"query {i}: {exc}") from None
        hit = np.flatnonzero(ranking == ground_truth.true_nn(i))
        if hit.size:
            ranks[i] = hit[0]
    return aps, ranks


def summarize(aps: np.ndarray, ranks: np.ndarray, k: int) -> dict:
    """``{"map": mean AP, "recall_at_k": {c: share of queries whose true
    nearest neighbour ranks within the first c}}`` over ``score``'s
    arrays, at ``recall_cutoffs(k)``; every rate is 0.0 with no queries."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = len(aps)
    return {
        "map": float(np.mean(aps)) if n else 0.0,
        "recall_at_k": {
            c: float(np.mean((ranks >= 0) & (ranks < c))) if n else 0.0
            for c in recall_cutoffs(k)
        },
    }


def _run_batch(run, queries: VectorSet, repetitions: int, workers: int):
    """(warm-up results, median ms per query) of one call of ``run`` per
    query plus ``repetitions`` timed ones; bad ``repetitions`` or
    ``workers`` raise before any call."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")

    def _run_one(v: np.ndarray) -> tuple[object, float]:
        result = run(v)  # warm-up, excluded from the timing
        samples = []
        for _ in range(repetitions):
            t0 = time.perf_counter()
            run(v)
            samples.append((time.perf_counter() - t0) * 1e3)
        return result, statistics.median(samples)

    if workers == 1:
        pairs = [_run_one(v) for v in queries.vectors]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            pairs = list(pool.map(_run_one, queries.vectors))
    times = np.asarray([t for _, t in pairs], dtype=np.float64)
    return [r for r, _ in pairs], times


@dataclass(frozen=True)
class MemoryEstimate:
    """Bytes resident for one index: the float32 vectors, the hash tables'
    arrays, and one query's vote array."""

    vectors_bytes: int
    index_bytes: int
    accumulator_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.vectors_bytes + self.index_bytes + self.accumulator_bytes

    def to_dict(self) -> dict:
        return {
            "vectors_bytes": self.vectors_bytes,
            "index_bytes": self.index_bytes,
            "accumulator_bytes": self.accumulator_bytes,
            "total_bytes": self.total_bytes,
        }


def estimate_memory(n: int, dim: int, params: BoiParams) -> MemoryEstimate:
    """The arrays an index of n records of dimension dim holds, in bytes.

    vectors = n*dim*4 (the float32 ``VectorSet``); index = L*b*dim*4
    (float32 projections) + L*directory + L*n*4 (int32 members) + n*4
    (int32 order), the arrays of ``ProjectionTable``; accumulator = n*4,
    the int32 votes one query sums. A table's directory is W*8 bytes of
    uint64 bitmap and W*4 of the int32 rank the table makes from it, W =
    ``vote.directory_words(b)`` words, max(1, 2**b / 64), and 4 bytes of
    int32 start for each non-empty bucket and for n. The
    non-empty buckets are counted as min(n, 2**b), so the directory term,
    alone, is an upper bound: the index holds at most that many bytes, and
    at b = 16 over the benchmark's 100k records about a twentieth of it.
    """
    if n < 0 or dim < 0:
        raise ValueError("n and dim must be non-negative")
    bits = params.hash_bits
    words = directory_words(bits)
    directory = words * (8 + OFFSET_DTYPE.itemsize) + (
        min(n, 1 << bits) + 1
    ) * OFFSET_DTYPE.itemsize
    return MemoryEstimate(
        vectors_bytes=n * dim * 4,
        index_bytes=params.num_tables * (bits * dim * 4 + directory + n * 4) + n * 4,
        accumulator_bytes=n * 4,
    )


@dataclass
class EvalReport:
    """Aggregated metrics for one method over one query batch."""

    method: str
    num_queries: int
    k: int
    map: float | None
    recall_at_k: dict[int, float]
    mean_query_time_ms: float
    per_query_times_ms: list[float]
    mean_probe_count: float | None
    memory_estimate: MemoryEstimate | None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.map is not None and not 0.0 <= self.map <= 1.0:
            raise ValueError("map must lie in [0, 1]")
        for k, v in self.recall_at_k.items():
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"recall@{k} must lie in [0, 1]")
        if any(t < 0 for t in self.per_query_times_ms):
            raise ValueError("query times must be non-negative")

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "method": self.method,
            "num_queries": self.num_queries,
            "k": self.k,
            "map": self.map,
            "recall_at_k": {str(k): v for k, v in sorted(self.recall_at_k.items())},
            "mean_query_time_ms": self.mean_query_time_ms,
            "per_query_times_ms": self.per_query_times_ms,
            "mean_probe_count": self.mean_probe_count,
            "memory_estimate": (
                self.memory_estimate.to_dict() if self.memory_estimate else None
            ),
            **self.extra,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def run_benchmark(
    run: Callable[[np.ndarray], RankedResult],
    queries: VectorSet,
    ground_truth: GroundTruth | None = None,
    *,
    k: int,
    repetitions: int = 1,
    workers: int = 1,
    method: str = "",
    memory: MemoryEstimate | None = None,
    extra: dict | None = None,
) -> tuple[
    EvalReport, list[RankedResult], tuple[np.ndarray, np.ndarray] | None
]:
    """Run one method over a query batch and aggregate its metrics.

    ``run`` is called as run(vector). Each query gets one untimed warm-up
    call, whose ranking is the one scored, then ``repetitions`` timed
    calls; its time is their median in milliseconds, end to end. With
    workers > 1 queries are dispatched across a thread pool, each still
    timed inside its worker. The boi query's vote kernel runs without the
    GIL, so workers overlap it; the other stages hold the GIL for part of
    their time. Returns the report, the per-query results and, with
    ``ground_truth``, ``score``'s per-query (AP, true-NN rank) arrays, of
    which the report's ``map`` and ``recall_at_k`` are the summary; the
    results and arrays are the CSV's rows.
    """
    if ground_truth is not None and ground_truth.num_queries != queries.n:
        raise ValueError(
            f"{queries.n} queries but ground truth covers "
            f"{ground_truth.num_queries}"
        )
    results, times = _run_batch(run, queries, repetitions, workers)
    scores = (
        score([r.ids for r in results], ground_truth)
        if ground_truth is not None
        else None
    )
    quality = (
        summarize(*scores, k)
        if scores is not None and queries.n
        else {"map": None, "recall_at_k": {}}
    )
    probe_counts = [r.probe_count for r in results if r.probe_count is not None]
    report = EvalReport(
        method=method,
        num_queries=queries.n,
        k=k,
        **quality,
        mean_query_time_ms=float(times.mean()) if times.size else 0.0,
        per_query_times_ms=[float(t) for t in times],
        mean_probe_count=float(np.mean(probe_counts)) if probe_counts else None,
        memory_estimate=memory,
        extra=extra or {},
    )
    return report, results, scores
