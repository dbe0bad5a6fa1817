"""Sign-of-Gaussian-projection hash family and the stacked bucketed tables.

A table hashes a d-dimensional vector to a b-bit bucket code: bit j is 1
iff the dot product with Gaussian row j is >= 0 (LSB-first, sign(0) -> 1).
Nearby vectors agree on most sign bits, so they land in the same bucket or
in one at small Hamming distance.

Vectors, projections and dot products are float32: one float32 matrix
product per ``_HASH_CHUNK`` rows. A floating-point filter, as in
Shewchuk's robust predicates, then decides each sign. Where a dot is
larger than its float32 rounding error can be (Higham's gamma bound over
Cauchy-Schwarz, ``_sign_filter``), its float32 sign is the exact one, and
any float64 summation agrees; one bound serves every projection row, and
each ``ProjectionTable`` makes its filter once. The compiled filter of
``vote.c`` recomputes every other dot as the float64 sum of its exact
products in index order. So a vector's code never depends on whether it
was hashed alone or inside a build batch. The filter writes each table's
codes straight into their destination, the build's ``members`` rows included;
the build then buckets every table with one compiled counting sort
(``vote.bucket_sort``), which numbers the records in table 0's bucket order
and lists each bucket's ids in ascending order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .core import (
    CODE_DTYPE,
    MAX_HASH_BITS,
    OFFSET_DTYPE,
    BoiParams,
    VectorSet,
    as_exact,
)
from .vote import SignFilter, bucket_sort

# rows hashed per matmul: bounds the float32 dot products (3.3 MB at L = 100,
# b = 8), which the allocator may keep resident after the build
_HASH_CHUNK = 1024


def projection_rng(seed: int, table_index: int) -> np.random.Generator:
    """PCG64 stream for one table, derived from (seed, table_index)."""
    return np.random.default_rng(np.random.SeedSequence((seed, table_index)))


def check_record_count(n: int) -> None:
    """Raise ValueError unless n records fit the tables' int32 ids and
    offsets (the vote kernel also compares ids, as uint32, with n)."""
    if n >= 2**31:
        raise ValueError(
            f"{n} records do not fit int32 record ids (at most 2**31 - 1)"
        )


def check_dimension(dim: int) -> None:
    """Raise ValueError unless the sign filter can bound a dot of ``dim``
    terms: its gamma_{d+2} needs (d + 2) * 2**-24 < 1/2 (``_sign_filter``)."""
    if dim + 2 >= 2**23:
        raise ValueError(f"dim must be below 2**23 - 2 to hash, got {dim}")


def _is_identity(ids: np.ndarray) -> bool:
    """True when the 1-D ``ids`` are 0..n-1, checked with one n-byte mask."""
    n = ids.size
    return not n or bool(
        ids[0] == 0 and ids[-1] == n - 1 and np.all(ids[1:] > ids[:-1])
    )


def _is_permutation(ids: np.ndarray) -> bool:
    """True when the 1-D int32 ``ids`` hold each of 0..n-1 exactly once."""
    n = ids.size
    if not n:
        return True
    if ids.min() < 0 or ids.max() >= n:
        return False
    seen = np.zeros(n, dtype=bool)
    seen[ids] = True
    return bool(seen.all())


def _check_shapes(
    projections: np.ndarray, offsets: np.ndarray, members: np.ndarray
) -> None:
    """Raise ValueError unless the offsets are (L, 2**bits + 1) with L >= 1
    and bits in [1, 16], the projections (L*bits, dim) and the members
    (L, n)."""
    num_tables, width = offsets.shape if offsets.ndim == 2 else (0, 0)
    bits = (width - 1).bit_length() - 1
    if not (num_tables and 1 <= bits <= MAX_HASH_BITS and width == (1 << bits) + 1):
        raise ValueError(
            f"offsets of shape {offsets.shape} are not (L, 2**bits + 1) "
            f"with L >= 1 and bits in [1, {MAX_HASH_BITS}]"
        )
    if projections.ndim != 2 or projections.shape[0] != num_tables * bits:
        raise ValueError(
            f"projections of shape {projections.shape} are not "
            f"({num_tables}*{bits}, dim) for {num_tables} tables of {bits} bits"
        )
    if members.ndim != 2 or members.shape[0] != num_tables:
        raise ValueError(
            f"members of shape {members.shape} do not hold {num_tables} rows"
        )


@dataclass(frozen=True, eq=False)
class ProjectionTable:
    """All L hash tables of an index, as four read-only arrays.

    ``projections`` (L*bits, dim) float32: rows t*bits .. t*bits+bits-1 are
    table t's Gaussian matrix, the matrix every hash multiplies by.
    ``offsets`` (L, 2**bits + 1) int32, bits in [1, 16], L >= 1: per-table
    CSR offsets, so ``offsets[t, c]:offsets[t, c + 1]`` bounds bucket c of
    table t.
    ``members`` (L, n) int32: row t holds every internal id grouped by
    table t's bucket code, ascending within a bucket.
    ``order`` (n,) int32, a permutation of 0..n-1: internal id i is record
    ``order[i]``.

    Records are numbered in table 0's bucket order, so row 0 of ``members``
    is 0..n-1 and each bucket's ids lie close together (``vote.c``). This
    is the only form: ``insert_all`` builds it, and ``load_index`` reads
    it back through ``from_id_rows``. Queries vote in internal order, and
    ``index.shortlist`` maps the ids it keeps to records; ``bucket`` and
    ``index.accumulate`` give record ids and record order.

    ``sign_filter``, the ``vote.SignFilter`` of the projections, is made
    once by the constructor (``_sign_filter``); every query hashes with it.

    A table object is made once and never changes; its arrays cannot be
    written. Offsets, members and order are held C-contiguous, the one
    layout the compiled loops read (copied into it if given otherwise).
    The constructor raises ValueError for arrays whose shapes do not agree
    with each other, projections that float32 cannot hold exactly,
    offsets, members or order with a value int32 cannot hold, 2**31 or
    more records, an order that is not a permutation of 0..n-1, a row 0
    of ``members`` that is not 0..n-1, and a dimension the filter cannot
    bound. It does not check the later rows or the offsets' values: the
    vote kernel refuses the out-of-range ids and offsets a query probes
    (``vote.gather_vote``).
    """

    projections: np.ndarray
    offsets: np.ndarray
    members: np.ndarray
    order: np.ndarray
    sign_filter: SignFilter = field(init=False, repr=False)

    def __post_init__(self):
        # the compiled loops read C-ordered float32 projections and int32
        # offsets and members, and the shortlist the int32 order; no
        # conversion copies what insert_all or load_index made, and the
        # numbering checks hold one n-byte mask at a time
        n = np.shape(self.members)[-1]
        check_record_count(n)
        if np.shape(self.order) != (n,):
            raise ValueError(
                f"order of shape {np.shape(self.order)} does not number {n} records"
            )
        arrays = {
            name: np.ascontiguousarray(as_exact(getattr(self, name), dtype, name))
            for name, dtype in (
                ("projections", np.float32),
                ("offsets", OFFSET_DTYPE),
                ("members", np.int32),
                ("order", np.int32),
            )
        }
        _check_shapes(arrays["projections"], arrays["offsets"], arrays["members"])
        if not _is_permutation(arrays["order"]):
            raise ValueError(f"order is not a permutation of 0..{n - 1}")
        if not _is_identity(arrays["members"][0]):
            raise ValueError(f"row 0 of members is not 0..{n - 1}")
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "sign_filter", _sign_filter(self.projections))

    @classmethod
    def from_id_rows(cls, projections, offsets, rows: np.ndarray) -> ProjectionTable:
        """The table whose ``id_rows`` are the rows of ``rows``, a writable
        C-contiguous (L, n) int32 array that becomes its ``members``: row 0
        is taken out as the order and replaced by 0..n-1."""
        order = rows[0].copy()
        rows[0] = np.arange(rows.shape[1], dtype=np.int32)
        return cls(projections, offsets, rows, order)

    def id_rows(self) -> list[np.ndarray]:
        """The id row a snapshot stores for each table: ``order`` for table
        0, whose ``members`` row is 0..n-1, then each later table's
        ``members`` row. ``from_id_rows`` makes this table again from them.
        """
        return [self.order, *self.members[1:]]

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
        every i, concatenated in that order (int32). Within a bucket they
        follow its internal ids, which ascend."""
        tables = np.asarray(tables, dtype=np.intp)
        codes = np.asarray(codes, dtype=np.intp)
        starts = self.offsets[tables, codes].tolist()
        stops = self.offsets[tables, codes + 1].tolist()
        rows = self.members
        return self.order[
            np.concatenate(
                [rows[0, :0]]
                + [rows[t, a:b] for t, a, b in zip(tables.tolist(), starts, stops)]
            )
        ]


def make_projections(params: BoiParams, dim: int) -> np.ndarray:
    """The (L*bits, dim) float32 projections of ``num_tables`` tables.

    Table t draws its float32 matrix from a PCG64 generator seeded with
    (params.seed, t), so the whole family is reproducible from the seed
    while tables stay mutually independent.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return np.concatenate(
        [
            projection_rng(params.seed, t).standard_normal(
                (params.hash_bits, dim), dtype=np.float32
            )
            for t in range(params.num_tables)
        ]
    )


def _sign_filter(projections) -> SignFilter:
    """The ``vote.SignFilter`` of these projections, as float32 rows: any
    float32 summation of the dot of x with any row is within bound * h of
    the exact dot, for h >= max(||x||, 2**-31), while ||x||**2 <
    safe_square. A value float32 cannot hold exactly raises ValueError.

    With u = 2**-24 and gamma_k = k*u / (1 - k*u), gamma_d * sum |x_i p_i|
    bounds the rounding error of a d-term dot in any order (Higham,
    "Accuracy and Stability of Numerical Algorithms", 2002, section 3.1),
    and ||x|| * ||p_j|| bounds that sum. The one bound is gamma_{d+2} *
    max_j ||p_j|| + (d + 2) * 2**-118, rounded up to float32, which covers
    the float64 rounding of the bound itself. The two extra units of gamma
    leave every dot the filter decides at least 2u * ||x|| * ||p_j|| from
    0, where a float64 sum has the same sign. The second term, times h >=
    2**-31, covers the products that underflow, at most 2**-150 each.
    Below safe_square, ||x|| * max ||p_j|| < 2**125, so no product, partial
    sum or limit overflows. A dimension of 2**23 - 2 or more raises
    ValueError (``check_dimension``).
    """
    dim = np.shape(projections)[1]
    check_dimension(dim)
    projections = np.ascontiguousarray(as_exact(projections, np.float32, "projections"))
    k = (dim + 2) * 2.0**-24
    squares = np.einsum("ij,ij->i", projections, projections, dtype=np.float64)
    top = np.sqrt(squares.max(initial=0.0))
    with np.errstate(over="ignore"):
        bound = np.float32(k / (1 - k) * top + (dim + 2) * 2.0**-118)
    bound = np.nextafter(bound, np.float32(np.inf))
    return SignFilter(projections, bound, 2.0**250 / max(top, 1.0) ** 2)


def hash_codes_all(
    sign_filter: SignFilter, bits: int, X: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Bucket codes (uint16) of the rows of X under every table, shape (m, L).

    ``sign_filter`` holds the L tables' stacked (bits x dim) matrices, as
    ``ProjectionTable.sign_filter`` or ``_sign_filter`` makes it, and
    ``bits`` must be in [1, 16]. X is hashed as its float32 cast, as
    ``core.query_vector`` makes a query. The codes are written into
    ``out`` when it is given, an (m, L) uint16 array of any strides that
    are whole elements, and returned.

    The rows go ``_HASH_CHUNK`` at a time through one float32 matrix
    product into an (L*bits, rows) buffer the call allocates once. Then
    the filter keeps each sign the float32 error bound decides, recomputes
    the rest in float64 and writes each table's codes into ``out``. The
    build and the query both hash here.
    """
    if not 1 <= bits <= MAX_HASH_BITS:
        raise ValueError(f"bits must be in [1, {MAX_HASH_BITS}]")
    projections = sign_filter.projections
    X = np.ascontiguousarray(X, dtype=np.float32)
    if X.ndim != 2 or X.shape[1] != projections.shape[1]:
        raise ValueError(
            f"dimension mismatch: data {X.shape} vs table dim "
            f"{projections.shape[1]}"
        )
    m = X.shape[0]
    num_rows = projections.shape[0]
    if out is None:
        out = np.empty((m, num_rows // bits), dtype=CODE_DTYPE)
    dots = np.empty(num_rows * min(m, _HASH_CHUNK), dtype=np.float32)
    # a product may overflow only in rows the filter recomputes whole
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, m, _HASH_CHUNK):
            chunk = X[start : start + _HASH_CHUNK]
            products = dots[: num_rows * len(chunk)].reshape(num_rows, -1)
            np.matmul(projections, chunk.T, out=products)
            sign_filter(products, chunk, bits, out[start : start + len(chunk)])
    return out


def insert_all(
    projections: np.ndarray, bits: int, dataset: VectorSet
) -> ProjectionTable:
    """Hash every record of ``dataset`` into every table and bucket it.

    Each record lands in exactly one bucket per table, the one matching its
    code under that table's rows of ``projections``. The codes are hashed
    into the ``members`` array itself, table t's into the upper half of row
    t, so the build holds no (n, L) code array of its own. Then one
    compiled counting sort (``vote.bucket_sort``) replaces each row's codes
    with ids. Table 0's sort gives ``order``, the records grouped by table
    0's code and ascending within a bucket (a stable argsort of its codes),
    and record ``order[i]`` becomes internal id i, so row 0 of ``members``
    is 0..n-1. Every later table gathers its codes in that order and sorts
    them, so each of its buckets lists the internal ids of its records in
    ascending order.
    """
    n = dataset.n
    check_record_count(n)
    # an empty set hashes as zero rows of the tables' width, whatever its own
    X = dataset.vectors.reshape(n, -1 if n else projections.shape[1])
    num_tables = projections.shape[0] // bits
    offsets = np.empty((num_tables, (1 << bits) + 1), dtype=OFFSET_DTYPE)
    members = np.empty((num_tables, n), dtype=np.int32)
    order = np.empty(n, dtype=np.int32)
    sign_filter = _sign_filter(projections)
    hash_codes_all(sign_filter, bits, X, out=members.view(CODE_DTYPE)[:, n:].T)
    bucket_sort(offsets, members, order)
    return ProjectionTable(projections, offsets, members, order)


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


@lru_cache(maxsize=None)
def _probe_plan(bits: int, last_shell: int) -> tuple[np.ndarray, ...]:
    shells = [flip_masks(bits, d) for d in range(last_shell + 1)]
    sizes = [shell.size for shell in shells]
    plan = (
        np.concatenate(shells),
        np.repeat(np.arange(last_shell + 1, dtype=np.uint8), sizes),
    )
    for arr in plan:
        arr.setflags(write=False)
    return plan


def probe_plan(bits: int, count: int) -> tuple[np.ndarray, ...]:
    """Read-only (masks, dists) of the probe row that covers ``count``
    neighbors: the center (mask 0, shell 0), then whole Hamming shells
    1, 2, ... in ``flip_masks`` order. ``dists`` is each position's
    distance. Cached per (bits, last shell)."""
    if not 0 <= count < 1 << bits:
        raise ValueError(f"count must be in [0, 2**bits - 1], got {count}")
    last_shell = covered = 0
    while covered < count:
        last_shell += 1
        covered += flip_masks(bits, last_shell).size
    return _probe_plan(bits, last_shell)


def neighbor_codes_with_distance(
    center: int | np.ndarray, count: int, bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``probe_plan(bits, count)`` row of ``center``, center ^ masks,
    and each position's distance.

    ``center`` may also be an array of codes, one per table, which gives
    one row per code. Distances depend only on the position and are
    returned once.
    """
    centers = np.asarray(center)
    if np.any((centers < 0) | (centers >= 1 << bits)):
        raise ValueError(f"center {center} out of range for {bits} bits")
    masks, dists = probe_plan(bits, count)
    return centers.astype(CODE_DTYPE)[..., np.newaxis] ^ masks, dists


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
