"""Core value types shared by every other module: vectors, parameters, results.

This module also holds every exact answer: ``brute_force_query`` scans the
whole set, and ``rerank`` ranks a bucketed query's shortlist; ``index``
runs every bucketed query. Descriptors are stored as float32 rows; all
distance arithmetic accumulates in float64 so that result orderings are
stable across the exact and approximate search paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCHEDULE_KINDS = ("fixed", "linear", "sublinear")

MAX_HASH_BITS = 16

# The one width decision: a bucket code of up to MAX_HASH_BITS = 16 bits is
# a uint16, and a CSR bucket offset (at most n) is an int32, like a record id.
CODE_DTYPE = np.dtype(np.uint16)
OFFSET_DTYPE = np.dtype(np.int32)

# bytes of the one float64 buffer a distance pass casts rows into: 512 KiB
# stays resident in L2 while each chunk is cast, subtracted and summed
# (512 rows at dim 128, never fewer than two rows)
_DIST_CHUNK_BYTES = 1 << 19


def dense_vector(values) -> np.ndarray:
    """Coerce ``values`` to a finite float32 descriptor vector.

    Raises ValueError for empty, non-1-D, or non-finite input.
    """
    vec = np.asarray(values, dtype=np.float32)
    if vec.ndim != 1:
        raise ValueError(f"descriptor must be 1-D, got shape {vec.shape}")
    if vec.size == 0:
        raise ValueError("descriptor must have at least one component")
    if not np.all(np.isfinite(vec)):
        raise ValueError("descriptor components must be finite")
    return vec


def query_vector(values, dim: int) -> np.ndarray:
    """``dense_vector`` for a query against data of dimension ``dim``.

    Every search entry point validates its query here, so a non-finite or
    wrongly sized query raises ValueError instead of returning an empty or
    wrong ranking.
    """
    vec = dense_vector(values)
    if vec.shape[0] != dim:
        raise ValueError(
            f"dimension mismatch: query {vec.shape} vs dimension {dim}"
        )
    return vec


def as_exact(values, dtype, name: str) -> np.ndarray:
    """``values`` as ``dtype`` (int32 or float32); a narrowing cast must
    keep every value, or ValueError names ``name`` (a NaN, a fraction cast
    to int32 or a float64 that float32 rounds never survives it)."""
    dtype = np.dtype(dtype)
    arr = np.asarray(values)
    if arr.dtype != dtype:
        with np.errstate(invalid="ignore", over="ignore"):
            try:
                narrow = arr.astype(dtype)
            except OverflowError:
                narrow = None
        if narrow is None or not np.array_equal(narrow, arr):
            raise ValueError(f"{name} values do not fit {dtype}")
        arr = narrow
    return arr


@dataclass(frozen=True, eq=False)
class VectorSet:
    """An ordered, immutable collection of same-dimension float32 descriptors.

    Record ids are the row positions 0..n-1. The backing array is marked
    read-only, so a populated set is safe to share across threads.
    """

    vectors: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.vectors, dtype=np.float32))
        if arr.ndim != 2:
            raise ValueError(f"vector set must have shape (n, dim), got {arr.shape}")
        if arr.shape[0] > 0 and arr.shape[1] == 0:
            raise ValueError("vectors must have at least one component")
        if not np.all(np.isfinite(arr)):
            raise ValueError("vector components must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "vectors", arr)

    @property
    def n(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    def __len__(self) -> int:
        return self.n


# BoiParams fields that hold integers, and those of them a snapshot header
# stores as u32 with no tighter bound from the other checks
_INT_FIELDS = (
    "num_tables",
    "hash_bits",
    "probe_radius",
    "shortlist_size",
    "initial_probe_count",
    "linear_step",
    "sublinear_step",
    "seed",
)
_U32_FIELDS = ("probe_radius", "shortlist_size", "linear_step", "sublinear_step")


@dataclass(frozen=True)
class BoiParams:
    """Tuning parameters for the weighted multi-probe index.

    Defaults follow the reference configuration: 100 tables of 2**8 buckets,
    probing 10 neighbor buckets per table under a sublinear decay, a probe
    radius of 1, and a 250-element shortlist re-ranked by exact distance.

    ``strict_radius`` caps probing at the Hamming ball of ``probe_radius``;
    by default the probe budget may spill into farther buckets, which then
    contribute with their true distance weight (see the index module).

    Every field but ``schedule`` and ``strict_radius`` is a Python or numpy
    integer (not a bool), stored as an int; ``strict_radius`` is a bool.
    Any other value, or one the index or its snapshot header cannot hold,
    raises ValueError whose message begins with the field's name.
    """

    num_tables: int = 100
    hash_bits: int = 8
    probe_radius: int = 1
    shortlist_size: int = 250
    initial_probe_count: int = 10
    schedule: str = "sublinear"
    linear_step: int = 40
    sublinear_step: int = 25
    seed: int = 0
    strict_radius: bool = False

    def __post_init__(self):
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not isinstance(self.strict_radius, (bool, np.bool_)):
            raise ValueError(
                f"strict_radius must be a bool, got {self.strict_radius!r}"
            )
        object.__setattr__(self, "strict_radius", bool(self.strict_radius))
        for name in _U32_FIELDS:
            if getattr(self, name) >= 2**32:
                raise ValueError(f"{name} must be below 2**32 (a u32 on disk)")
        if self.num_tables < 1:
            raise ValueError("num_tables must be >= 1")
        if not 1 <= self.hash_bits <= MAX_HASH_BITS:
            raise ValueError(f"hash_bits must be in [1, {MAX_HASH_BITS}]")
        if self.num_tables * self.num_buckets > 2**31 - 1:
            # a record's vote, up to L * 2**b units of 2**-b, must fit int32
            raise ValueError("num_tables * 2**hash_bits must be below 2**31")
        if self.probe_radius < 0:
            raise ValueError("probe_radius must be >= 0")
        if self.shortlist_size < 1:
            raise ValueError("shortlist_size must be >= 1")
        if not 0 <= self.initial_probe_count <= self.num_buckets - 1:
            raise ValueError(
                "initial_probe_count must be in [0, 2**hash_bits - 1]"
            )
        if self.schedule not in SCHEDULE_KINDS:
            raise ValueError(f"schedule must be one of {SCHEDULE_KINDS}")
        for name in ("linear_step", "sublinear_step"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")

    @property
    def num_buckets(self) -> int:
        return 1 << self.hash_bits


@dataclass(frozen=True, eq=False)
class RankedResult:
    """Record ids ranked by non-decreasing distance to a query.

    ``probe_count``, ``shortlist_size`` and ``pairs_scanned`` (the
    (id, bucket) pairs read from the probed buckets, repeats included)
    carry per-query instrumentation when the result came from a bucketed
    method; they stay None otherwise.
    """

    ids: np.ndarray
    distances: np.ndarray
    probe_count: int | None = None
    shortlist_size: int | None = None
    pairs_scanned: int | None = None

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=np.int64)
        dist = np.asarray(self.distances, dtype=np.float64)
        if ids.ndim != 1 or dist.ndim != 1 or ids.shape != dist.shape:
            raise ValueError("ids and distances must be 1-D and equal length")
        if dist.size:
            if not np.all(np.isfinite(dist)) or dist[0] < 0:
                raise ValueError("distances must be finite and non-negative")
            if np.any(np.diff(dist) < 0):
                raise ValueError("distances must be non-decreasing")
            if np.unique(ids).size != ids.size:
                raise ValueError("record ids must be distinct")
        ids.setflags(write=False)
        dist.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "distances", dist)

    @classmethod
    def _ranked(
        cls, ids, distances, probe_count, shortlist_size, pairs_scanned
    ) -> "RankedResult":
        """A result from ``rank_by_distance``'s output, without the checks.

        ``core.rerank`` builds its result here on the query's hot path. Its
        fresh int64 ids are distinct candidates, and its float64 distances,
        from a validated query to finite rows, are finite, non-negative and
        non-decreasing, so ``__post_init__`` would pass them.
        """
        ids.setflags(write=False)
        distances.setflags(write=False)
        result = object.__new__(cls)
        vars(result).update(
            ids=ids,
            distances=distances,
            probe_count=probe_count,
            shortlist_size=shortlist_size,
            pairs_scanned=pairs_scanned,
        )
        return result

    @classmethod
    def empty(cls, probe_count=None, shortlist_size=None) -> "RankedResult":
        return cls(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            probe_count=probe_count,
            shortlist_size=shortlist_size,
        )

    @property
    def entries(self) -> list[tuple[int, float]]:
        return [(int(i), float(d)) for i, d in zip(self.ids, self.distances)]

    def __len__(self) -> int:
        return int(self.ids.size)


def pairwise_distances(rows: np.ndarray, query) -> np.ndarray:
    """Euclidean distance from ``query`` to every row of ``rows``.

    Each row is measured in float64. The call allocates one float64 buffer
    of ``_DIST_CHUNK_BYTES`` (at least two rows) and, for each chunk of
    rows, copies them into it (an exact cast from float32), subtracts the
    query in place and sums the squares into the result. A buffer that
    fits in L2 is cast, subtracted and summed while it is still cached, and
    the pass allocates no temporary per chunk. A row's distance does not
    depend on which records were gathered, on the caller's batch size or on
    the chunk: every chunk holds two rows or more, a lone row beside a copy
    of itself. Finiteness is the caller's responsibility (hot path).
    """
    r = np.asarray(rows)
    q = np.asarray(query, dtype=np.float64)
    if r.ndim != 2 or q.ndim != 1 or r.shape[1] != q.shape[0]:
        raise ValueError(
            f"dimension mismatch: rows {r.shape} vs query {q.shape}"
        )
    n, dim = r.shape
    step = max(2, _DIST_CHUNK_BYTES // (8 * max(dim, 1)))
    buf = np.empty((max(2, min(step, n)), dim), dtype=np.float64)
    out = np.empty(max(2, n), dtype=np.float64)
    for start in range(0, n, step):
        # einsum sums a lone row of more than 8192 values in blocks, and each
        # row of a larger operand in one pass, so a last chunk of one row is
        # measured again with the row before it, and a lone row of all
        # ``rows`` is copied into both rows of the buffer
        start = max(0, min(start, n - 2))
        diff = buf[: max(2, n - start)]
        np.copyto(diff, r[start : start + step])
        np.subtract(diff, q, out=diff)
        np.einsum("ij,ij->i", diff, diff, out=out[start : start + len(diff)])
    return np.sqrt(out[:n], out=out[:n])


def rank_by_distance(ids, distances, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Select the k entries with smallest distance, ties by ascending id.

    The tie rule is exact: entries sharing the k-th smallest distance are
    resolved by id before truncation, so the output is a deterministic
    function of (ids, distances, k). ``distances`` is any sort key and keeps
    its dtype (no float64 cast); the re-rank and brute force pass it the
    float64 distances of ``pairwise_distances``.
    """
    ids = np.asarray(ids, dtype=np.int64)
    distances = np.asarray(distances)
    if k < 1:
        raise ValueError("k must be >= 1")
    if ids.size > k:
        kth = np.partition(distances, k - 1)[k - 1]
        keep = distances <= kth
        ids = ids[keep]
        distances = distances[keep]
    order = np.lexsort((ids, distances))[:k]
    return ids[order], distances[order]


def rerank(
    vectors, candidates, q, k: int, probe_count: int, pairs_scanned: int
) -> RankedResult:
    """The k ``candidates`` (rows of ``vectors``) nearest to ``q``, exactly.

    ``q`` is the validated float32 query (``query_vector``), the rows are
    finite and the candidates distinct, as ``RankedResult`` requires. The
    result reports ``shortlist_size = candidates.size``; no candidates give
    an empty result.
    """
    dists = pairwise_distances(vectors[candidates], q)
    ids, ranked = rank_by_distance(candidates, dists, k)
    return RankedResult._ranked(
        ids,
        ranked,
        probe_count=probe_count,
        shortlist_size=int(candidates.size),
        pairs_scanned=pairs_scanned,
    )


def brute_force_query(dataset: VectorSet, q, k: int) -> RankedResult:
    """Exact k nearest neighbors by Euclidean distance, ties by ascending id.

    This is the ground-truth oracle every approximate method is measured
    against: an unfiltered exhaustive scan of every record in float64
    (``pairwise_distances``), which acceptance c06 and every full-probe
    test compare against. A query must match the set's width; only the
    (0, 0) set of an empty fvecs file, which has none, answers any finite
    query, empty.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not dataset.dim:
        dense_vector(q)
        return RankedResult.empty()
    q = query_vector(q, dataset.dim)
    dists = pairwise_distances(dataset.vectors, q)
    ids, ranked = rank_by_distance(np.arange(dataset.n, dtype=np.int64), dists, k)
    return RankedResult(ids, ranked)
