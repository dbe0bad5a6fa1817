"""Deterministic synthetic datasets with exact ground truth.

Points come from a Gaussian mixture; queries are lightly jittered copies of
database points, so each query has an unambiguous nearest neighbor and the
brute-force oracle can produce tie-free ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import VectorSet, brute_force_query
from .evaluate import GroundTruth


@dataclass(frozen=True)
class SynthSpec:
    n: int = 10_000
    dim: int = 128
    num_clusters: int = 32
    cluster_std: float = 0.05
    num_queries: int = 100
    seed: int = 0
    gt_k: int = 10
    # query displacement; defaults to cluster_std / 50 so the source point
    # stays the clear nearest neighbor
    query_jitter: float | None = None

    def __post_init__(self):
        if not self.n >= self.num_clusters >= 1:
            raise ValueError("need n >= num_clusters >= 1")
        if self.cluster_std <= 0:
            raise ValueError("cluster_std must be positive")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.num_queries < 0:
            raise ValueError("num_queries must be >= 0")
        if not 1 <= self.gt_k <= self.n:
            raise ValueError("gt_k must be in [1, n]")
        if self.query_jitter is not None and self.query_jitter < 0:
            raise ValueError("query_jitter must be non-negative")

    @property
    def jitter(self) -> float:
        return (
            self.query_jitter
            if self.query_jitter is not None
            else self.cluster_std / 50.0
        )


# base rows drawn, summed in float64 and cast to float32 at a time, so that
# only one chunk's float64 noise and sum (8 MiB each at dim 128) is held
# beside the float32 base, however large n is
_ROW_CHUNK = 8192


def generate(spec: SynthSpec) -> tuple[VectorSet, VectorSet, GroundTruth]:
    """Database, queries, and exact ground truth for one spec; seed-determined.

    The base is drawn ``_ROW_CHUNK`` rows at a time. The generator gives
    the same normals in row chunks as in one draw, and is left in the same
    state, so the chunk size changes no value of the base, the queries or
    the ground truth."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    centers = rng.standard_normal((spec.num_clusters, spec.dim))
    points = np.empty((spec.n, spec.dim), np.float32)
    for lo in range(0, spec.n, _ROW_CHUNK):
        hi = min(lo + _ROW_CHUNK, spec.n)
        noise = rng.standard_normal((hi - lo, spec.dim))
        centered = centers[np.arange(lo, hi) % spec.num_clusters]
        points[lo:hi] = centered + spec.cluster_std * noise
    database = VectorSet(points)

    picks = rng.choice(spec.n, size=spec.num_queries, replace=spec.num_queries > spec.n)
    qpoints = database.vectors[picks] + spec.jitter * rng.standard_normal(
        (spec.num_queries, spec.dim)
    )
    queries = VectorSet(qpoints.astype(np.float32))

    rows = np.empty((spec.num_queries, spec.gt_k), dtype=np.int64)
    for qi in range(spec.num_queries):
        rows[qi] = brute_force_query(database, queries.vectors[qi], spec.gt_k).ids
    return database, queries, GroundTruth(rows)
