"""Sign-of-Gaussian-projection hash family and the stacked bucketed tables.

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

from .core import MAX_HASH_BITS, BoiParams, VectorSet

_HASH_CHUNK = 2048  # rows hashed per matmul; bounds the float64 intermediate


def projection_rng(seed: int, table_index: int) -> np.random.Generator:
    """PCG64 stream for one table, derived from (seed, table_index)."""
    return np.random.default_rng(np.random.SeedSequence((seed, table_index)))


# The one width decision: a bucket code of up to MAX_HASH_BITS = 16 bits is
# a uint16, and a CSR bucket offset (at most n) is an int32, like a record id.
CODE_DTYPE = np.dtype(np.uint16)
OFFSET_DTYPE = np.dtype(np.int32)


def check_record_count(n: int) -> None:
    """Raise ValueError unless n records fit the tables' int32 ids and
    offsets (the vote kernel also compares ids, as uint32, with n)."""
    if n >= 2**31:
        raise ValueError(
            f"{n} records do not fit int32 record ids (at most 2**31 - 1)"
        )


def _as_int32(values, name: str) -> np.ndarray:
    """``values`` as int32; a narrowing cast must keep every value."""
    arr = np.asarray(values)
    if arr.dtype != np.int32:
        narrow = arr.astype(np.int32)
        if not np.array_equal(narrow, arr):
            raise ValueError(f"{name} values do not fit int32")
        arr = narrow
    return arr


@dataclass(frozen=True, eq=False)
class ProjectionTable:
    """All L hash tables of an index, as three stacked read-only arrays.

    ``projections`` (L*bits, dim) float64: rows t*bits .. t*bits+bits-1 are
    table t's Gaussian matrix, the matrix every hash multiplies by.
    ``offsets`` (L, 2**bits + 1) int32: per-table CSR offsets, so
    ``offsets[t, c]:offsets[t, c + 1]`` bounds bucket c of table t.
    ``members`` (L, n) int32: row t holds every record id grouped by
    table t's bucket code, ascending within a bucket.

    A table object is made once, by ``insert_all`` or ``load_index``, and
    never changes; its arrays cannot be written. Offsets or members given
    in a wider integer type raise ValueError when a value does not fit
    int32, and so do 2**31 or more records.
    """

    projections: np.ndarray
    offsets: np.ndarray
    members: np.ndarray

    def __post_init__(self):
        # the vote kernel reads offsets as C-ordered int32 and members as
        # int32; neither conversion copies or scans what insert_all or
        # load_index made
        check_record_count(np.shape(self.members)[-1])
        arrays = {
            "projections": np.asarray(self.projections, dtype=np.float64),
            "offsets": np.ascontiguousarray(_as_int32(self.offsets, "offsets")),
            "members": _as_int32(self.members, "members"),
        }
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_tables(self) -> int:
        return int(self.offsets.shape[0])

    @property
    def bits(self) -> int:
        return (self.offsets.shape[1] - 1).bit_length() - 1

    @property
    def dim(self) -> int:
        return int(self.projections.shape[1])

    @property
    def num_buckets(self) -> int:
        return 1 << self.bits

    @property
    def n(self) -> int:
        """Number of records stored in every table."""
        return int(self.members.shape[1])

    def check_dataset(self, dataset: VectorSet) -> None:
        """Raise ValueError unless ``dataset`` holds the n records of
        dimension ``dim`` that these tables index."""
        if dataset.n != self.n or (dataset.n and dataset.dim != self.dim):
            raise ValueError(
                f"dataset of shape {dataset.vectors.shape} does not match "
                f"the index's {self.n} records of dim {self.dim}"
            )

    def bucket(self, tables, codes) -> np.ndarray:
        """Record ids of bucket ``codes[i]`` of table ``tables[i]``, for
        every i, concatenated in that order (int32)."""
        tables = np.asarray(tables, dtype=np.intp)
        codes = np.asarray(codes, dtype=np.intp)
        starts = self.offsets[tables, codes].tolist()
        stops = self.offsets[tables, codes + 1].tolist()
        rows = self.members
        return np.concatenate(
            [rows[0, :0]]
            + [rows[t, a:b] for t, a, b in zip(tables.tolist(), starts, stops)]
        )


def make_projections(params: BoiParams, dim: int) -> np.ndarray:
    """The (L*bits, dim) float64 projections of ``num_tables`` tables.

    Table t draws its float32 matrix from a PCG64 generator seeded with
    (params.seed, t), so the whole family is reproducible from the seed
    while tables stay mutually independent. The values are float32-exact,
    so a snapshot stores them as float32 without loss.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return np.concatenate(
        [
            projection_rng(params.seed, t).standard_normal(
                (params.hash_bits, dim), dtype=np.float32
            )
            for t in range(params.num_tables)
        ],
        dtype=np.float64,
    )


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a (..., b) boolean array, b <= 16, into uint16 codes, LSB-first."""
    pow2 = CODE_DTYPE.type(1) << np.arange(bits.shape[-1], dtype=CODE_DTYPE)
    return (bits * pow2).sum(axis=-1, dtype=CODE_DTYPE)


def hash_codes_all(projections: np.ndarray, bits: int, X: np.ndarray) -> np.ndarray:
    """Bucket codes (uint16) of the rows of X under every table, shape (m, L).

    ``projections`` stacks the L tables' (bits x dim) matrices as in
    ``ProjectionTable.projections``; ``bits`` must be in [1, 16].
    """
    if not 1 <= bits <= MAX_HASH_BITS:
        raise ValueError(f"bits must be in [1, {MAX_HASH_BITS}]")
    projections = np.asarray(projections, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != projections.shape[1]:
        raise ValueError(
            f"dimension mismatch: data {X.shape} vs table dim "
            f"{projections.shape[1]}"
        )
    num_tables = projections.shape[0] // bits
    out = np.empty((X.shape[0], num_tables), dtype=CODE_DTYPE)
    for start in range(0, X.shape[0], _HASH_CHUNK):
        chunk = X[start : start + _HASH_CHUNK]
        dots = chunk @ projections.T
        signs = (dots >= 0.0).reshape(chunk.shape[0], num_tables, bits)
        out[start : start + _HASH_CHUNK] = _pack_bits(signs)
    return out


def insert_all(
    projections: np.ndarray, bits: int, dataset: VectorSet
) -> ProjectionTable:
    """Hash every record of ``dataset`` into every table and bucket it.

    Each record id lands in exactly one bucket per table, the one matching
    its code under that table's rows of ``projections``.
    """
    n = dataset.n
    check_record_count(n)
    # an empty set hashes as zero rows of the tables' width, whatever its own
    X = dataset.vectors.reshape(n, -1 if n else projections.shape[1])
    codes = hash_codes_all(projections, bits, X)
    num_tables, num_buckets = codes.shape[1], 1 << bits
    offsets = np.zeros((num_tables, num_buckets + 1), dtype=OFFSET_DTYPE)
    members = np.empty((num_tables, n), dtype=np.int32)
    for t in range(num_tables):
        col = np.ascontiguousarray(codes[:, t])
        np.cumsum(np.bincount(col, minlength=num_buckets), out=offsets[t, 1:])
        # stable sort groups ids by code, ascending id within each bucket
        members[t] = np.argsort(col, kind="stable")
    return ProjectionTable(projections, offsets, members)


@lru_cache(maxsize=None)
def flip_masks(bits: int, distance: int) -> np.ndarray:
    """Read-only uint16 array of the XOR masks for one Hamming shell: every
    b-bit mask with exactly ``distance`` set bits, in a fixed order (cached).
    ``bits`` must be in [1, 16]."""
    if not 1 <= bits <= MAX_HASH_BITS or distance < 0:
        raise ValueError(f"bits must be in [1, {MAX_HASH_BITS}] and distance >= 0")
    if distance > bits:
        masks = np.empty(0, dtype=CODE_DTYPE)
    else:
        masks = np.fromiter(
            (sum(1 << p for p in combo) for combo in combinations(range(bits), distance)),
            dtype=CODE_DTYPE,
        )
    masks.setflags(write=False)
    return masks


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
    rows = centers.astype(CODE_DTYPE).reshape(-1, 1)
    # shell d sits at list position d; distance 0 (the center) is empty
    shells = [np.empty((rows.shape[0], 0), dtype=CODE_DTYPE)]
    sizes = [0]
    while sum(sizes) < max_count:
        shell = rows ^ flip_masks(bits, len(sizes))
        rng.permuted(shell, axis=1, out=shell)
        shells.append(shell)
        sizes.append(shell.shape[1])
    codes = np.concatenate(shells, axis=1)[:, :max_count]
    dists = np.repeat(np.arange(len(sizes), dtype=np.uint8), sizes)[:max_count]
    return codes.reshape(centers.shape + (max_count,)), dists


def occupancy_summary(tables: ProjectionTable) -> dict:
    """Bucket occupancy statistics across all tables (for build logging).

    ``histogram`` maps an occupancy band label to the number of buckets in
    that band, pooled over every table.
    """
    sizes = np.diff(tables.offsets, axis=1).ravel()
    edges = [0, 1, 2, 4, 8, 16, 64, 256, 1024]
    hist = {}
    for lo, hi in zip(edges, edges[1:]):
        label = str(lo) if hi == lo + 1 else f"{lo}-{hi - 1}"
        hist[label] = int(np.sum((sizes >= lo) & (sizes < hi)))
    hist[f">={edges[-1]}"] = int(np.sum(sizes >= edges[-1]))
    return {
        "num_tables": tables.num_tables,
        "buckets_per_table": tables.num_buckets,
        "min": int(sizes.min()),
        "max": int(sizes.max()),
        "mean": float(sizes.mean()),
        "empty_fraction": float(np.mean(sizes == 0)),
        "histogram": hist,
    }
