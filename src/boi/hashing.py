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
the build then buckets each table with a compiled counting sort
(``vote.bucket_sort``), which numbers the records in table 0's bucket order,
lists each bucket's ids in ascending order and stores a directory of the
table's non-empty buckets only (``ProjectionTable``).

This module only hashes and buckets. What a query probes, the probe plan
and its masks, is decided in ``boi.index``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    CODE_DTYPE,
    MAX_HASH_BITS,
    OFFSET_DTYPE,
    BoiParams,
    VectorSet,
    as_exact,
)
from .vote import (
    GatherVote,
    SignFilter,
    bucket_sort,
    check_directory,
    directory_words,
)

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
    """Raise ValueError unless ``dim`` is at least 1 and the sign filter can
    bound a dot of ``dim`` terms: its gamma_{d+2} needs (d + 2) * 2**-24 <
    1/2 (``_sign_filter``)."""
    if not 1 <= dim < 2**23 - 2:
        raise ValueError(f"dim must be below 2**23 - 2 and >= 1 to hash, got {dim}")


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
    projections: np.ndarray,
    bitmap: np.ndarray,
    offsets: np.ndarray,
    members: np.ndarray,
) -> int:
    """The tables' code width; ValueError unless the bitmap is (L, W) with
    L >= 1, the projections (L*bits, dim) with bits in [1, 16], W is
    ``directory_words(bits)``, the offsets 1-D and the members (L, n)."""
    num_tables = len(bitmap) if bitmap.ndim == 2 else 0
    if not num_tables:
        raise ValueError(f"bitmap of shape {bitmap.shape} is not (L, words) with L >= 1")
    bits, extra = divmod(projections.shape[0] if projections.ndim else 0, num_tables)
    if projections.ndim != 2 or extra or not 1 <= bits <= MAX_HASH_BITS:
        raise ValueError(
            f"projections of shape {projections.shape} are not (L*bits, dim) "
            f"for {num_tables} tables of bits in [1, {MAX_HASH_BITS}]"
        )
    words = (num_tables, directory_words(bits))
    if bitmap.shape != words:
        raise ValueError(
            f"bitmap of shape {bitmap.shape} is not {words}, a word per 64 "
            f"codes of {num_tables} tables of {bits} bits"
        )
    if offsets.ndim != 1:
        raise ValueError(f"offsets of shape {offsets.shape} are not 1-D")
    if members.ndim != 2 or members.shape[0] != num_tables:
        raise ValueError(
            f"members of shape {members.shape} do not hold {num_tables} rows"
        )
    return bits


@dataclass(frozen=True, eq=False)
class ProjectionTable:
    """All L hash tables of an index, as five read-only arrays and the
    rank the constructor derives from them.

    ``projections`` (L*bits, dim) float32: rows t*bits .. t*bits+bits-1 are
    table t's Gaussian matrix, the matrix every hash multiplies by; bits is
    in [1, 16] and L >= 1.
    ``bitmap`` (L, W) uint64 and ``offsets`` int32: the directory of every
    table's non-empty buckets, W = ``vote.directory_words(bits)`` words of
    64 codes a table (``vote.c``'s header comment). Bit c % 64 of
    ``bitmap[t, c // 64]`` is set iff bucket c of table t holds a record,
    and table t's piece of ``offsets`` holds the start of each of its
    non-empty buckets, in code order, then n. The pieces follow each other:
    table t's begins after every earlier table's non-empty buckets and n.
    ``rank`` (L, W) int32 is not given but made, once, by the check of the
    directory (``vote.check_directory``): ``rank[t, w]`` is the position in
    ``offsets`` of table t's first non-empty bucket at or after word w, so
    bucket c is found at ``rank[t, c // 64]`` plus the set bits of its word
    below c % 64. So a table holds 2**bits / 8 bytes of bitmap, 2**bits /
    16 of rank and 4 a non-empty bucket, where dense CSR offsets would hold
    4 a code: at b = 16 over 100k records, about 13 KB a table against
    256 KB. ``buckets`` lists a table's non-empty buckets, and is the one
    Python reader of the bitmap and the rank: ``bucket`` reads through it,
    and ``occupancy_summary`` reads the offsets alone.
    ``members`` (L, n) int32: row t holds every internal id grouped by
    table t's bucket code, ascending within a bucket.
    ``order`` (n,) int32, a permutation of 0..n-1: internal id i is record
    ``order[i]``.

    Records are numbered in table 0's bucket order, so row 0 of ``members``
    is 0..n-1 and each bucket's ids lie close together (``vote.c``). This
    is the only form: ``insert_all`` builds it, and ``load_index`` reads it
    back (``data_io`` alone knows how a snapshot stores it). Queries vote
    in internal order, and ``index.shortlist`` maps the ids it keeps to
    records; ``bucket`` and ``index.accumulate`` give record ids and record
    order. ``buckets`` and ``bucket`` raise ValueError for a table outside
    [0, L), and ``bucket`` for a code outside [0, 2**bits) or tables and
    codes that are not 1-D and of one length.

    ``sign_filter``, the ``vote.SignFilter`` of the projections and the
    code width, and ``gather_vote``, the ``vote.GatherVote`` of the
    directory and members, are made once by the constructor; every query
    hashes with the one and votes with the other.

    A table object is made once and never changes; its arrays cannot be
    written. The directory, members and order are held C-contiguous, the
    one layout the compiled loops read (copied into it if given otherwise).
    The constructor raises ValueError for arrays whose shapes do not agree
    with each other, projections that float32 cannot hold exactly, a
    bitmap uint64 cannot hold, offsets, members or order with a value int32
    cannot hold, 2**31 or more records or offsets, an order that is not a
    permutation of 0..n-1, a row 0 of ``members`` that is not 0..n-1, a
    dimension ``check_dimension`` refuses, and a directory that is not one
    of n records: a bit set for a code at or past 2**bits, or a table's
    offsets that do not rise strictly from 0 to n, one per set bit. It does
    not check the later rows of ``members``: the vote kernel refuses the
    out-of-range ids a query probes (``vote.GatherVote``).
    """

    projections: np.ndarray
    bitmap: np.ndarray
    offsets: np.ndarray
    members: np.ndarray
    order: np.ndarray
    rank: np.ndarray = field(init=False)
    sign_filter: SignFilter = field(init=False, repr=False)
    gather_vote: GatherVote = field(init=False, repr=False)

    def __post_init__(self):
        # the compiled loops read C-ordered float32 projections, uint64
        # bitmaps and int32 offsets and members, and the shortlist the int32
        # order; no conversion copies what insert_all or load_index made,
        # and the numbering checks hold one n-byte mask at a time
        n = np.shape(self.members)[-1]
        check_record_count(n)
        if np.shape(self.order) != (n,):
            raise ValueError(
                f"order of shape {np.shape(self.order)} does not number {n} records"
            )
        if np.size(self.offsets) >= 2**31:
            raise ValueError(f"{np.size(self.offsets)} offsets do not fit int32 ranks")
        arrays = {
            name: np.ascontiguousarray(as_exact(getattr(self, name), dtype, name))
            for name, dtype in (
                ("projections", np.float32),
                ("bitmap", np.uint64),
                ("offsets", OFFSET_DTYPE),
                ("members", np.int32),
                ("order", np.int32),
            )
        }
        bitmap, offsets = arrays["bitmap"], arrays["offsets"]
        bits = _check_shapes(arrays["projections"], bitmap, offsets, arrays["members"])
        arrays["rank"] = check_directory(bits, bitmap, offsets, n)
        if not _is_permutation(arrays["order"]):
            raise ValueError(f"order is not a permutation of 0..{n - 1}")
        if not _is_identity(arrays["members"][0]):
            raise ValueError(f"row 0 of members is not 0..{n - 1}")
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "sign_filter", _sign_filter(self.projections, bits))
        object.__setattr__(
            self, "gather_vote", GatherVote(bits, bitmap, self.rank, offsets, self.members)
        )

    @property
    def num_tables(self) -> int:
        return int(self.bitmap.shape[0])

    @property
    def bits(self) -> int:
        return int(self.projections.shape[0]) // self.num_tables

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

    def buckets(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Table t's non-empty buckets: their codes, ascending (intp), and
        the table's piece of ``offsets``, one value more, so that bucket
        ``codes[i]`` holds ``members[t, piece[i]:piece[i + 1]]``. This is
        the one reader of the bitmap and the rank in Python. Raises
        ValueError for a t outside [0, L)."""
        if not 0 <= t < self.num_tables:
            raise ValueError(f"table {t} is not in [0, {self.num_tables})")
        bits = self.bitmap[t].astype("<u8").view(np.uint8)
        codes = np.flatnonzero(np.unpackbits(bits, bitorder="little"))
        start = self.rank[t, 0]
        return codes, self.offsets[start : start + codes.size + 1]

    def bucket(self, tables, codes) -> np.ndarray:
        """Record ids of bucket ``codes[i]`` of table ``tables[i]``, for
        every i, concatenated in that order (int32). Within a bucket they
        follow its internal ids, which ascend. Each table is read once,
        through ``buckets``. Raises ValueError unless ``tables`` and
        ``codes`` are 1-D and of one length, for a table outside [0, L)
        and for a code outside [0, 2**bits)."""
        tables = np.asarray(tables, dtype=np.intp)
        codes = np.asarray(codes, dtype=np.intp)
        if tables.ndim != 1 or tables.shape != codes.shape:
            raise ValueError(
                f"tables {tables.shape} and codes {codes.shape} differ or are not 1-D"
            )
        if codes.size and not 0 <= codes.min() <= codes.max() < self.num_buckets:
            raise ValueError(f"a code is not in [0, 2**{self.bits})")
        # a code absent from the table's codes finds the empty [start, start)
        starts, stops = np.empty_like(codes), np.empty_like(codes)
        for t in np.unique(tables).tolist():
            pick = tables == t
            nonempty, piece = self.buckets(t)
            starts[pick] = piece[np.searchsorted(nonempty, codes[pick])]
            stops[pick] = piece[np.searchsorted(nonempty, codes[pick], side="right")]
        rows = self.members
        return self.order[
            np.concatenate(
                [rows[0, :0]]
                + [
                    rows[t, a:b]
                    for t, a, b in zip(tables.tolist(), starts.tolist(), stops.tolist())
                ]
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


def _sign_filter(projections, bits: int) -> SignFilter:
    """The ``vote.SignFilter`` of these projections, as float32 rows, in
    tables of ``bits`` bits: the filter fixes both, and checks the code
    width and the table layout once. Any float32 summation of the dot of x
    with any row is within bound * h of the exact dot, for h >= max(||x||,
    2**-31), while ||x||**2 < safe_square. A value float32 cannot hold
    exactly raises ValueError.

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
    sum or limit overflows. A dimension of 0, or of 2**23 - 2 or more,
    raises ValueError (``check_dimension``).
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
    return SignFilter(projections, bits, bound, 2.0**250 / max(top, 1.0) ** 2)


def hash_codes_all(
    sign_filter: SignFilter,
    X: np.ndarray,
    out: np.ndarray | None = None,
    dots: np.ndarray | None = None,
) -> np.ndarray:
    """Bucket codes (uint16) of the rows of X under every table, shape (m, L).

    ``sign_filter`` holds the L tables' stacked (bits x dim) matrices, as
    ``ProjectionTable.sign_filter`` or ``_sign_filter`` makes it. The code
    width and the table layout are fixed, and checked, when the filter is
    made, so a call passes only the rows. X is hashed as its float32 cast,
    as ``core.query_vector`` makes a query. The codes are written into
    ``out`` when it is given, an (m, L) uint16 array of any strides that
    are whole elements, and returned.

    The rows go ``_HASH_CHUNK`` at a time through one float32 matrix
    product into an (L*bits, rows) buffer the call allocates once. Then
    the filter keeps each sign the float32 error bound decides, recomputes
    the rest in float64 and writes each table's codes into ``out``. The
    build and the query both hash here. When ``dots``, a writable
    C-contiguous (L*bits, m) float32 array, is given, the product of all m
    rows goes there in one piece and is kept: the query's probe rows order
    their shells by it (``index.neighbor_codes_with_distance``). Another
    ``dots`` raises ValueError.
    """
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
        out = np.empty((m, sign_filter.num_tables), dtype=CODE_DTYPE)
    chunk_rows = _HASH_CHUNK
    if dots is None:
        buffer = np.empty(num_rows * min(m, _HASH_CHUNK), dtype=np.float32)
    elif (
        dots.shape != (num_rows, m)
        or dots.dtype != np.float32
        or not (dots.flags.c_contiguous and dots.flags.writeable)
    ):
        raise ValueError(
            f"dots must be a writable C-contiguous float32 array of shape "
            f"{(num_rows, m)}, got {dots.dtype} of shape {dots.shape}"
        )
    else:
        buffer, chunk_rows = dots.reshape(-1), max(m, 1)
    # a product may overflow only in rows the filter recomputes whole
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, m, chunk_rows):
            chunk = X[start : start + chunk_rows]
            products = buffer[: num_rows * len(chunk)].reshape(num_rows, -1)
            np.matmul(projections, chunk.T, out=products)
            sign_filter(products, chunk, out[start : start + len(chunk)])
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
    ascending order. Each sort leaves its table's directory; no array of
    2**bits offsets a table is held for more than one table at a time.
    """
    n = dataset.n
    check_record_count(n)
    # an empty set hashes as zero rows of the tables' width, whatever its own
    X = dataset.vectors.reshape(n, -1 if n else projections.shape[1])
    num_tables = projections.shape[0] // bits
    members = np.empty((num_tables, n), dtype=np.int32)
    order = np.empty(n, dtype=np.int32)
    sign_filter = _sign_filter(projections, bits)
    hash_codes_all(sign_filter, X, out=members.view(CODE_DTYPE)[:, n:].T)
    return ProjectionTable(projections, *bucket_sort(bits, members, order), members, order)


def occupancy_summary(tables: ProjectionTable) -> dict:
    """Bucket occupancy statistics across all tables (for build logging).

    ``histogram`` maps an occupancy band label to the number of buckets in
    that band, pooled over every table. The sizes of the non-empty buckets
    are the positive steps of ``offsets``, which rise strictly within a
    table's piece and fall from n to 0 (or stay at 0) between pieces; each
    table's other 2**bits - k buckets are counted as empty, so neither the
    bitmap nor the rank is read and no array of 2**bits sizes a table is
    made.
    """
    # offsets rise strictly within a table's piece; only the step from one
    # table's n to the next one's 0 does not
    steps = np.diff(tables.offsets)
    sizes = steps[steps > 0]
    total = tables.num_tables * tables.num_buckets
    empty = total - sizes.size
    edges = [0, 1, 2, 4, 8, 16, 64, 256, 1024]
    hist = {}
    for lo, hi in zip(edges, edges[1:]):
        label = str(lo) if hi == lo + 1 else f"{lo}-{hi - 1}"
        hist[label] = int(np.sum((sizes >= lo) & (sizes < hi))) + (empty if lo == 0 else 0)
    hist[f">={edges[-1]}"] = int(np.sum(sizes >= edges[-1]))
    return {
        "num_tables": tables.num_tables,
        "buckets_per_table": tables.num_buckets,
        "min": 0 if empty else int(sizes.min()),
        "max": int(sizes.max(initial=0)),
        "mean": int(sizes.sum()) / total,
        "empty_fraction": empty / total,
        "histogram": hist,
    }
