"""Sign-of-Gaussian-projection hash family and the bucketed hash table.

A table hashes a d-dimensional vector to a b-bit bucket code: bit j is 1
iff the dot product with Gaussian row j is >= 0 (LSB-first, sign(0) -> 1).
Nearby vectors agree on most sign bits, so they land in the same bucket or
in one at small Hamming distance.

Sign decisions are made on float64 dot products so a vector's code never
depends on whether it was hashed alone or inside a build batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .core import BoiParams, VectorSet

_HASH_CHUNK = 16384  # rows hashed per matmul; bounds the float64 intermediate


def projection_rng(seed: int, table_index: int) -> np.random.Generator:
    """PCG64 stream for one table, derived from (seed, table_index)."""
    return np.random.default_rng(np.random.SeedSequence((seed, table_index)))


@dataclass(eq=False)
class ProjectionTable:
    """One hash table: a (bits x dim) Gaussian matrix plus 2**bits buckets.

    Buckets are stored in CSR form: ``bucket_members`` holds every record id
    grouped by bucket code, and ``bucket_offsets[c]:bucket_offsets[c+1]`` is
    the slice for code c. Ids are ascending within a bucket. A freshly made
    table has empty buckets; ``insert_all`` populates them.
    """

    projections: np.ndarray
    table_index: int
    bucket_offsets: np.ndarray
    bucket_members: np.ndarray

    @property
    def bits(self) -> int:
        return int(self.projections.shape[0])

    @property
    def dim(self) -> int:
        return int(self.projections.shape[1])

    @property
    def num_buckets(self) -> int:
        return 1 << self.bits

    @property
    def size(self) -> int:
        """Number of records stored in this table."""
        return int(self.bucket_members.size)

    def bucket(self, code: int) -> np.ndarray:
        """Record ids stored in bucket ``code`` (a read-only view)."""
        return self.bucket_members[
            self.bucket_offsets[code] : self.bucket_offsets[code + 1]
        ]

    def bucket_sizes(self) -> np.ndarray:
        return np.diff(self.bucket_offsets)


def _empty_table(projections: np.ndarray, table_index: int) -> ProjectionTable:
    num_buckets = 1 << projections.shape[0]
    return ProjectionTable(
        projections=projections,
        table_index=table_index,
        bucket_offsets=np.zeros(num_buckets + 1, dtype=np.int64),
        bucket_members=np.empty(0, dtype=np.int32),
    )


def make_tables(params: BoiParams, dim: int) -> list[ProjectionTable]:
    """Create ``num_tables`` tables with independent Gaussian matrices.

    Table t draws its matrix from a PCG64 generator seeded with
    (params.seed, t), so the whole family is reproducible from the seed
    while tables stay mutually independent. Buckets start empty.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    tables = []
    for t in range(params.num_tables):
        proj = projection_rng(params.seed, t).standard_normal(
            (params.hash_bits, dim), dtype=np.float32
        )
        proj.setflags(write=False)
        tables.append(_empty_table(proj, t))
    return tables


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a (..., b) boolean array into uint32 codes, LSB-first."""
    b = bits.shape[-1]
    pow2 = np.uint32(1) << np.arange(b, dtype=np.uint32)
    return (bits.astype(np.uint32) * pow2).sum(axis=-1, dtype=np.uint32)


def hash_codes(projections: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Bucket codes for the rows of X under one projection matrix."""
    dots = np.asarray(X, dtype=np.float64) @ np.asarray(projections, dtype=np.float64).T
    return _pack_bits(dots >= 0.0)


def stack_projections(tables: list[ProjectionTable]) -> np.ndarray:
    """All projection matrices stacked to (L*bits, dim) float64."""
    return np.concatenate(
        [np.asarray(t.projections, dtype=np.float64) for t in tables]
    )


def hash_codes_all(
    tables: list[ProjectionTable],
    X: np.ndarray,
    stacked: np.ndarray | None = None,
) -> np.ndarray:
    """Bucket codes of X under every table at once, shape (m, L).

    ``stacked`` may carry a precomputed ``stack_projections`` result to
    avoid restacking on hot query paths.
    """
    num_tables = len(tables)
    bits = tables[0].bits
    if stacked is None:
        stacked = stack_projections(tables)
    X = np.asarray(X, dtype=np.float64)
    out = np.empty((X.shape[0], num_tables), dtype=np.uint32)
    for start in range(0, X.shape[0], _HASH_CHUNK):
        chunk = X[start : start + _HASH_CHUNK]
        dots = chunk @ stacked.T
        signs = (dots >= 0.0).reshape(chunk.shape[0], num_tables, bits)
        out[start : start + _HASH_CHUNK] = _pack_bits(signs)
    return out


def insert_all(
    tables: list[ProjectionTable], dataset: VectorSet
) -> list[ProjectionTable]:
    """Insert every record of ``dataset`` into every table.

    Each record id lands in exactly one bucket per table, the one matching
    its code. Returns the same (mutated) table list.
    """
    if tables and dataset.n > 0 and dataset.dim != tables[0].dim:
        raise ValueError(
            f"dimension mismatch: dataset dim {dataset.dim} vs "
            f"table dim {tables[0].dim}"
        )
    if dataset.n == 0:
        for table in tables:
            table.bucket_offsets = np.zeros(table.num_buckets + 1, dtype=np.int64)
            table.bucket_members = np.empty(0, dtype=np.int32)
        return tables
    codes = hash_codes_all(tables, dataset.vectors)
    for t, table in enumerate(tables):
        col = np.ascontiguousarray(codes[:, t])
        counts = np.bincount(col, minlength=table.num_buckets)
        offsets = np.zeros(table.num_buckets + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        # stable sort groups ids by code, ascending id within each bucket
        order = np.argsort(col, kind="stable").astype(np.int32)
        table.bucket_offsets = offsets
        table.bucket_members = order
    return tables


@lru_cache(maxsize=None)
def _flip_masks(bits: int, distance: int) -> np.ndarray:
    """All b-bit masks with exactly ``distance`` set bits, fixed order."""
    if distance > bits:
        masks = np.empty(0, dtype=np.uint32)
    else:
        masks = np.fromiter(
            (sum(1 << p for p in combo) for combo in combinations(range(bits), distance)),
            dtype=np.uint32,
        )
    masks.setflags(write=False)
    return masks


def flip_masks(bits: int, distance: int) -> np.ndarray:
    """Read-only array of the XOR masks for one Hamming shell."""
    if bits < 1 or distance < 0:
        raise ValueError("bits must be >= 1 and distance >= 0")
    return _flip_masks(bits, distance)


def neighbor_codes_with_distance(
    center: int | np.ndarray, max_count: int, bits: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """First ``max_count`` neighbor codes of ``center`` plus their distances.

    Codes come out shell by shell: every code at Hamming distance 1 (in an
    order shuffled by ``rng``), then distance 2 (shuffled), and so on. The
    center itself is excluded. One shuffle is consumed from ``rng`` per
    shell generated, whether or not the whole shell is used.

    ``center`` may also be an array of codes, one per table. Codes then
    have one row per center, and each shell is shuffled for every row in
    one ``rng.permuted`` call (row by row), so a single center draws from
    ``rng`` exactly like a one-element array. Distances depend only on the
    position and are returned once, shape (max_count,).
    """
    centers = np.asarray(center)
    num_codes = 1 << bits
    if np.any((centers < 0) | (centers >= num_codes)):
        raise ValueError(f"center {center} out of range for {bits} bits")
    if max_count < 0 or max_count > num_codes - 1:
        raise ValueError(
            f"max_count must be in [0, 2**bits - 1], got {max_count}"
        )
    rows = centers.astype(np.uint32).reshape(-1, 1)
    # shell d sits at list position d; distance 0 (the center) is empty
    shells = [np.empty((rows.shape[0], 0), dtype=np.uint32)]
    sizes = [0]
    while sum(sizes) < max_count:
        shell = rows ^ _flip_masks(bits, len(sizes))
        rng.permuted(shell, axis=1, out=shell)
        shells.append(shell)
        sizes.append(shell.shape[1])
    codes = np.concatenate(shells, axis=1)[:, :max_count]
    dists = np.repeat(np.arange(len(sizes), dtype=np.uint8), sizes)[:max_count]
    return codes.reshape(centers.shape + (max_count,)), dists


def occupancy_summary(tables: list[ProjectionTable]) -> dict:
    """Bucket occupancy statistics across all tables (for build logging).

    ``histogram`` maps an occupancy band label to the number of buckets in
    that band, pooled over every table.
    """
    sizes = np.concatenate([t.bucket_sizes() for t in tables])
    if sizes.size == 0:
        hist = {}
    else:
        edges = [0, 1, 2, 4, 8, 16, 64, 256, 1024]
        hist = {}
        for lo, hi in zip(edges, edges[1:]):
            label = str(lo) if hi == lo + 1 else f"{lo}-{hi - 1}"
            hist[label] = int(np.sum((sizes >= lo) & (sizes < hi)))
        hist[f">={edges[-1]}"] = int(np.sum(sizes >= edges[-1]))
    return {
        "num_tables": len(tables),
        "buckets_per_table": int(tables[0].num_buckets) if tables else 0,
        "min": int(sizes.min()) if sizes.size else 0,
        "max": int(sizes.max()) if sizes.size else 0,
        "mean": float(sizes.mean()) if sizes.size else 0.0,
        "empty_fraction": float(np.mean(sizes == 0)) if sizes.size else 0.0,
        "histogram": hist,
    }
