"""The compiled loops of ``vote.c``, loaded with ctypes: ``boi_query``,
which runs a query's stages (its dot products and sign filter, the probe
rows, the gather+vote kernel, the pass that selects the shortlist's set
from the votes, touched or dense, and the re-rank of that set by exact
distance), ``boi_nearest``, which ranks every row of an array by the same
exact distance for the brute-force oracle and ``core.pairwise_distances``,
the counting sort ``hashing.insert_all`` buckets its records with, the
check of a snapshot's tables ``data_io.load_index`` runs, the directory
check ``hashing.ProjectionTable`` runs, and the sign filter
``hashing.hash_codes_all`` turns a build's float32 dot products into codes
with. These six are all the library exports, besides two constants.
Every exact distance is summed by one loop, ``vote.c``'s ``distance``,
which only ``boi_query``'s re-rank and ``boi_nearest`` reach.

Every table keeps its internal ids as uint16 (``ID_DTYPE``) in pages of
``PAGE`` = 2**16 ids (``vote.c``'s header comment): page p holds ids
[p * PAGE, min(n, (p + 1) * PAGE)) at those same positions of each
table's row of ``members``, grouped by code, and stores each as id - p *
PAGE. Each (table, page) finds its buckets through a directory of its
non-empty buckets: a ``bitmap`` of its non-empty codes in
``directory_words(b)`` uint64 words, and its piece of ``offsets``, the
position in the row of each of those buckets in code order, then the
page's end. The pieces follow each other in one int32 array, table by
table and page by page. The sort builds one table at a time, a counting
sort a page in a scratch of 2**b int32 counts, and returns the
length of the table's pieces; the snapshot check (``check_tables``) turns
every (table, page)'s bucket sizes into its piece in place, in the index's
own offsets, in one call. The ``rank`` of each word, the position in
``offsets`` of its first non-empty bucket, is derived from the bitmap
alone, by ``check_directory``. The kernel counts the set bits below a
code within its word, and so, in numpy and in the same broadword way, does
``hashing.ProjectionTable.bucket``, which lists the records of given
(table, code) pairs; ``piece`` reads the rank, and ``buckets`` the
bitmap, a table at a time.

The source is compiled with the system ``cc`` the first time the package
is imported, into ``$XDG_CACHE_HOME/boi`` (``~/.cache/boi`` when that is
unset), under a name keyed by the sha256 of the source and ``_CFLAGS``;
later imports load that file. ``ctypes.CDLL`` releases the GIL for the
length of each call, so queries running in threads vote in parallel. Every
entry point takes raw addresses, and its wrapper gets each one from
``_address``, which checks the array's exact type, shape and layout first:
numpy's own ctypes argument conversion would cost about 5 us an array
while the GIL is held. What is fixed per table or per plan is checked
once, when ``QueryScratch``, ``ProbePlan`` or ``SignFilter`` binds it.
Each entry point has one Python caller. The querying thread's
``QueryScratch`` binds its tables' arrays itself, owns every buffer a
query writes and calls ``boi_query`` from one method, ``_stages``;
``ProbePlan`` is only a binding that it reads. The scratch writes every
address and size a query needs into one int64 block, rebound only when
the probe plan changes, a longer shortlist grows the pairs and the
results, or other base vectors are given, so a query copies its vector
into the scratch, crosses into C once and passes six arguments: the
block, the range of stages to run, its shortlist size, its k and where
its counts go. ``query`` runs every stage
in one call, from the vector to the ranked answer; ``hash``, ``rows``,
``vote`` and ``take`` run one each, for ``index.accumulate``, so the
staged path runs the same compiled stages as the query. A query's dot
products and its exact distances are summed in ``vote.c``, each in one
fixed order, so no BLAS decides its margins and no numpy version its
distances. The re-rank and the oracle measure a row in float64 only when
a float32 filter cannot prove it farther than the k-th nearest so far
(``vote.c``'s ``nearest``), which changes no bit of their answers.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

MAX_HASH_BITS = 16

# The one width decision, which the compiled loops are written for: a bucket
# code of up to MAX_HASH_BITS = 16 bits is a uint16, and so is a stored
# member, an internal id less its page's first id; a bucket offset (at most
# n) is an int32, like a record id.
CODE_DTYPE = np.dtype(np.uint16)
ID_DTYPE = np.dtype(np.uint16)
OFFSET_DTYPE = np.dtype(np.int32)
# the ids of a page (``vote.c``'s PAGE)
PAGE = 1 << 16

SOURCE = Path(__file__).with_name("vote.c")
# -ffp-contract=off: a query's dot products and exact distances round every
# product before it is added, on any target (``vote.c``'s ``dot`` and
# ``distance``); -fno-math-errno: sqrt is the one correctly rounded
# instruction, with no call into libm, which the library does not link;
# -falign-loops=64: every loop starts on a 64-byte boundary, so the vote
# kernel's inner loop never straddles one (``vote.c``'s HOT comment)
_CFLAGS = (
    "-O3", "-ffp-contract=off", "-fno-math-errno", "-falign-loops=64", "-shared", "-fPIC"
)


def default_cache_dir() -> Path:
    """``$XDG_CACHE_HOME/boi``, or ``~/.cache/boi`` when that is unset."""
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "boi"


def build_library(cache_dir, source=SOURCE) -> Path:
    """Path of ``source`` compiled into ``cache_dir``, compiling it only if
    no library built from the same source bytes with the same ``_CFLAGS``
    is there yet: the name is keyed by the sha256 of both.

    The compiler writes to a temporary name in ``cache_dir`` that is then
    renamed into place, so a process importing at the same moment never
    loads a half-written file. Raises ImportError when there is no ``cc``,
    the compile fails, or ``cache_dir`` cannot be written.
    """
    source = Path(source)
    keyed = b"\0".join([source.read_bytes(), *(flag.encode() for flag in _CFLAGS)])
    digest = hashlib.sha256(keyed).hexdigest()
    cache_dir = Path(cache_dir)
    library = cache_dir / f"{source.stem}-{digest}.so"
    if library.exists():
        return library
    cc = shutil.which("cc")
    if cc is None:
        raise ImportError(
            "boi compiles its vote kernel on first import and needs a C "
            "compiler, but no `cc` was found on PATH"
        )
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=library.name, suffix=".tmp")
        os.close(fd)
    except OSError as exc:
        raise ImportError(
            f"cannot write the vote kernel into {cache_dir} ({exc}); set "
            "XDG_CACHE_HOME to a writable directory"
        ) from None
    try:
        done = subprocess.run(
            [cc, *_CFLAGS, "-o", tmp, str(source)], capture_output=True, text=True
        )
        if done.returncode != 0:
            raise ImportError(f"`cc` failed to compile {source}:\n{done.stderr}")
        os.replace(tmp, library)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return library


def load_library(cache_dir) -> ctypes.CDLL:
    """The library ``build_library(cache_dir)`` gives, with the argument
    and result types of its six entry points declared:
    ``boi_bucket_sort``, ``boi_check_tables``, ``boi_check_directory``,
    ``boi_hash_codes``, ``boi_nearest`` and ``boi_query``."""
    library = ctypes.CDLL(str(build_library(cache_dir)))
    i64, address = ctypes.c_int64, ctypes.c_void_p
    # every address comes from _address, which checks the array behind it
    library.boi_bucket_sort.argtypes = [
        i64,  # num_tables
        i64,  # table
        i64,  # bits
        i64,  # n
        address,  # bitmap
        address,  # counts
        address,  # pieces
        i64,  # their capacity
        address,  # members
        address,  # order
        address,  # scratch
    ]
    library.boi_check_tables.argtypes = [
        i64,  # num_tables
        i64,  # bits
        i64,  # n
        address,  # bitmap
        address,  # offsets
        i64,  # number of offsets
        address,  # members
        address,  # where the first fault is
    ]
    library.boi_check_directory.argtypes = [
        i64,  # num_tables
        i64,  # bits
        i64,  # n
        address,  # bitmap
        address,  # offsets
        i64,  # number of offsets
        address,  # rank
    ]
    library.boi_hash_codes.argtypes = [
        i64,  # num_tables
        i64,  # bits
        i64,  # rows
        i64,  # dim
        address,  # dots
        address,  # x
        address,  # proj
        ctypes.c_float,  # bound
        ctypes.c_double,  # safe_square
        address,  # out
        i64,  # record stride
        i64,  # table stride
    ]
    library.boi_nearest.argtypes = [
        i64,  # n
        i64,  # dim
        address,  # rows
        address,  # the query, float32
        address,  # the query, its float64 copy
        i64,  # k
        address,  # ids out
        address,  # distances out
    ]
    library.boi_query.argtypes = [
        address,  # the bound block (QueryScratch)
        i64,  # first stage
        i64,  # stage past the last
        i64,  # shortlist size, 0 for every pair
        i64,  # k, the records the re-rank keeps
        address,  # counts: pairs scanned, then pairs taken
    ]
    for entry in (
        library.boi_bucket_sort,
        library.boi_check_tables,
        library.boi_check_directory,
        library.boi_hash_codes,
        library.boi_nearest,
        library.boi_query,
    ):
        entry.restype = i64
    return library


_library = load_library(default_cache_dir())


def _address(array: np.ndarray, dtype, shape: tuple, writable: bool = False) -> int:
    """The address of ``array``'s data, to pass to the library.

    Raises ValueError, giving the expected and the actual dtype and shape,
    unless ``array`` has exactly this native ``dtype`` and this ``shape``,
    is C-contiguous and aligned, and is writable when ``writable`` is set:
    the library reads (and writes) through the address alone.
    """
    flags = array.flags
    if (
        array.dtype != dtype
        or array.shape != shape
        or not (flags.c_contiguous and flags.aligned)
        or (writable and not flags.writeable)
    ):
        layout = "C-contiguous aligned writable" if writable else "C-contiguous aligned"
        raise ValueError(
            f"expected a {layout} {np.dtype(dtype)} array of shape {shape}, got "
            f"{array.dtype} of shape {array.shape} (C-contiguous {flags.c_contiguous}, "
            f"aligned {flags.aligned}, writable {flags.writeable})"
        )
    return array.ctypes.data


def directory_words(bits: int) -> int:
    """uint64 words of the bitmap and rank of one page of a b-bit table:
    2**b / 64, at least one."""
    return max(1, (1 << bits) >> 6)


def num_pages(n: int) -> int:
    """The pages of n records: ceil(n / PAGE), at least one."""
    return max(1, -(-n // PAGE))


def page_sizes(n: int) -> np.ndarray:
    """The (num_pages(n),) int64 ids of each page of n records: PAGE, less
    in the last page."""
    pages = num_pages(n)
    sizes = np.full(pages, PAGE, np.int64)
    sizes[-1] = n - (pages - 1) * PAGE
    return sizes


def directory_shape(num_tables: int, bits: int, n: int) -> tuple[int, int, int]:
    """(L, P, W), the shape of the bitmap and rank of L b-bit tables of n
    records: P = ``num_pages(n)``, W = ``directory_words(bits)``."""
    return (num_tables, num_pages(n), directory_words(bits))


class ProbePlan:
    """A probe plan bound once for the probe-row and gather+vote stages of
    ``boi_query``, whose block ``QueryScratch`` writes its addresses into.

    ``masks`` (width,) uint16 are the plan's masks, ``units`` (width,)
    uint32 the vote of each position of a probe row and ``budgets`` (L,)
    int64 the positions past the first that table t probes. From them the
    plan derives ``shells`` (L, 2) int64, table t's last, partly probed
    shell, whose masks its rows order by margin: the run of positions whose
    masks flip as many bits as the one at budgets[t], when the budget ends
    before the run does, else (0, 0). The plan holds the four arrays,
    read-only, and ``probe_count``, the codes a query probes over every
    table, sum(budgets) + L. They are checked here, once: ValueError names
    the array whose type, shape or layout is wrong, and is raised too when
    ``bits`` is not in [1, 16], there are no masks (every plan holds mask
    0), a budget is not in [0, width - 1] or a mask has a bit past ``bits``.
    """

    def __init__(self, bits: int, masks, units, budgets):
        width, num_tables = np.size(masks), np.size(budgets)
        if not 1 <= bits <= MAX_HASH_BITS:
            raise ValueError(f"ProbePlan: bits must be in [1, {MAX_HASH_BITS}], got {bits}")
        if not width:
            raise ValueError("ProbePlan: a plan holds at least mask 0, got no masks")
        fixed = (
            _address(masks, CODE_DTYPE, (width,)),
            _address(units, np.uint32, (width,)),
            _address(budgets, np.int64, (num_tables,)),
        )
        if num_tables and not 0 <= budgets.min() <= budgets.max() < width:
            raise ValueError(f"ProbePlan: budgets must be in [0, {width - 1}]")
        if int(masks.max()) >> bits:
            raise ValueError(f"ProbePlan: a mask has a bit past the {bits}-bit code")
        flips = np.unpackbits(masks.view(np.uint8)).reshape(width, -1).sum(1, np.int64)
        starts = np.flatnonzero(np.diff(flips, prepend=-1))
        run = np.searchsorted(starts, budgets, side="right") - 1
        lo, hi = starts[run], np.append(starts[1:], width)[run]
        shells = np.where((budgets + 1 < hi)[:, np.newaxis], np.stack([lo, hi], 1), 0)
        for arr in (masks, units, budgets, shells):
            arr.setflags(write=False)
        self.bits, self.width, self.num_tables = bits, width, num_tables
        self.masks, self.units, self.budgets, self.shells = masks, units, budgets, shells
        self.probe_count = int(budgets.sum()) + num_tables
        # the plan's slots of boi_query's block, in ``vote.c``'s order, all
        # but the last, the scratch's probe rows
        self._slots = (width, fixed[0], _address(shells, np.int64, (num_tables, 2)), *fixed[1:])


def bucket_sort(bits: int, members: np.ndarray, order: np.ndarray) -> tuple:
    """Bucket every record of every table by its code, one counting sort a
    page of each table, number the records in table 0's bucket order, and
    return the tables' directory ``(bitmap, offsets)``.

    ``members`` (L, n) uint16 comes in holding table t's ``bits``-bit
    codes of records 0..n-1 in row t. ``order`` (n,) int32 is filled with
    the records grouped by table 0's code, ascending within a bucket (a
    stable argsort of table 0's codes): record ``order[i]`` gets internal
    id i. ``members`` leaves holding each table's internal ids, page by
    page, each grouped by code and ascending within a bucket, and each
    stored less its page's first id, so row 0 holds 0..PAGE-1 in each full
    page. Both must be C-contiguous and writable, and L at least 1. Besides
    them the sort holds one row of n codes, one page's 2**b counts
    and one table's pieces, and the directory it returns: ``bitmap`` (L,
    P, W) and the pieces of every (table, page) in one int32 array. Raises
    ValueError when ``bits`` is not in [1, 16], the shapes disagree or a
    code is 2**b or more; ``members`` and ``order`` are then partly
    written.
    """
    num_tables, n = len(members), order.size
    if num_tables < 1:
        raise ValueError("bucket_sort needs at least one table")
    if not 1 <= bits <= MAX_HASH_BITS:
        raise ValueError(f"bucket_sort: bits must be in [1, {MAX_HASH_BITS}], got {bits}")
    shape = directory_shape(num_tables, bits, n)
    bitmap = np.empty(shape, np.uint64)
    # names hold the scratches alive while the kernel writes through their addresses
    counts = np.empty(1 << bits, OFFSET_DTYPE)
    pieces = np.empty(int(np.minimum(page_sizes(n), 1 << bits).sum()) + shape[1], OFFSET_DTYPE)
    scratch = np.empty(n, CODE_DTYPE)
    fixed = (
        _address(bitmap, np.uint64, shape, writable=True),
        _address(counts, OFFSET_DTYPE, counts.shape, writable=True),
        _address(pieces, OFFSET_DTYPE, pieces.shape, writable=True), pieces.size,
        _address(members, ID_DTYPE, (num_tables, n), writable=True),
        _address(order, np.int32, (n,), writable=True),
        _address(scratch, CODE_DTYPE, (n,), writable=True),
    )
    tables = []
    for t in range(num_tables):
        size = _library.boi_bucket_sort(num_tables, t, bits, n, *fixed)
        if size < 0:
            raise ValueError(f"a bucket code is out of range for {bits} bits")
        tables.append(pieces[:size].copy())
    del counts, pieces, scratch  # the pieces are all the tables keep of them
    return bitmap, np.concatenate(tables)


# what check_tables finds wrong with a snapshot's tables, by its status
BIT_PAST, BUCKETS_OFF, EMPTY_BUCKET, SIZES_OFF, ID_OUT_OF_RANGE, NOT_A_PERMUTATION = range(1, 7)


def check_tables(bits: int, bitmap, offsets, members) -> tuple[int, int, int, int]:
    """Check every (table, page) of the arrays ``data_io.load_index``
    reads a snapshot into, and turn their bucket sizes into the pieces of
    ``offsets`` in place (``boi_check_tables``); return (status, table,
    page, sizes before the page's).

    ``bitmap`` (L, P, W) uint64 has shape ``directory_shape(L, bits, n)``,
    ``members`` (L, n) uint16 holds each page's ids at the page's
    positions, each less the page's first id, and ``offsets`` int32 holds
    L*P values, then the K sizes, read as uint32, of every non-empty bucket
    the bitmap marks: table by table, page by page and in code order. When
    every size is at least 1, the sizes of each page sum exactly to s, its
    number of ids, the bitmap marks K buckets in all and none at or past
    2**bits, and every page's ids are below s and sum to that of 0..s-1,
    ``offsets`` becomes the pieces, each the position of each bucket in the
    row, from the page's first id, then the page's end, and the status is
    0. Otherwise it is the first check that fails, with the page it fails
    in, in the file's order: each page's bitmap and sizes, in (table, page)
    order, ``BIT_PAST``, ``BUCKETS_OFF`` (a page marks more buckets than
    the sizes left, or the last page fewer), ``EMPTY_BUCKET`` or
    ``SIZES_OFF``, then each page's ids, ``ID_OUT_OF_RANGE`` or
    ``NOT_A_PERMUTATION``; the sizes before the page's are given for the
    first four. Raises ValueError, naming the array, when a type, shape or
    layout disagrees (``offsets`` must be writable), when there are fewer
    offsets than pages, or when ``bits`` is not in [1, 16].
    """
    if not 1 <= bits <= MAX_HASH_BITS:
        raise ValueError(f"check_tables: bits must be in [1, {MAX_HASH_BITS}], got {bits}")
    num_tables, n = len(bitmap), members.shape[-1]
    where = np.zeros(3, np.int64)
    status = _library.boi_check_tables(
        num_tables, bits, n,
        _address(bitmap, np.uint64, directory_shape(num_tables, bits, n)),
        _address(offsets, OFFSET_DTYPE, (offsets.size,), writable=True), offsets.size,
        _address(members, ID_DTYPE, (num_tables, n)),
        _address(where, np.int64, (3,), writable=True),
    )
    if status < 0:
        raise ValueError(
            f"check_tables: {offsets.size} offsets are fewer than the ends of "
            f"{num_tables * num_pages(n)} pages, or more than int32 positions reach"
        )
    return (status, *where.tolist())


# what check_directory finds wrong with a directory, by its status
_DIRECTORY_FAULTS = {
    -1: "{n} records or {size} offsets do not fit int32 positions",
    1: "bitmap has a bit set for a code at or past 2**{bits}",
    2: "offsets do not hold one value per set bit of the bitmap and each page's end",
    3: "offsets do not rise strictly from each page's start to its end through "
    "its non-empty buckets",
}


def check_directory(bits: int, bitmap, offsets, n: int) -> np.ndarray:
    """The (L, P, W) int32 ``rank`` of the directory ``bitmap`` (L, P, W)
    uint64 and ``offsets`` int32 of L ``bits``-bit tables of n records, of
    shape ``directory_shape(L, bits, n)`` (``boi_check_directory``):
    ``rank[t, p, w]`` is the position in ``offsets`` of the first non-empty
    bucket at or after word w of page p of table t, where its piece begins
    plus the set bits of its words before w.

    Raises ValueError, naming the first fault, unless the arrays are such a
    directory: no bit set for a code at or past 2**bits, and the piece of
    each (table, page) rising strictly from the page's first id to its end,
    one value a set bit and then the end, the pieces filling ``offsets``
    exactly, at most 2**31 - 1 of them. ValueError is raised too when the
    arrays' types, shapes or layouts disagree, or ``bits`` is not in
    [1, 16]. Nothing is allocated but the rank.
    """
    if not 1 <= bits <= MAX_HASH_BITS:
        raise ValueError(f"check_directory: bits must be in [1, {MAX_HASH_BITS}], got {bits}")
    shape = directory_shape(len(bitmap), bits, n)
    rank = np.empty(shape, OFFSET_DTYPE)
    status = _library.boi_check_directory(
        shape[0], bits, n,
        _address(bitmap, np.uint64, shape),
        _address(offsets, OFFSET_DTYPE, (offsets.size,)), offsets.size,
        _address(rank, OFFSET_DTYPE, shape, writable=True),
    )
    if status:
        raise ValueError(_DIRECTORY_FAULTS[status].format(bits=bits, n=n, size=offsets.size))
    return rank


class SignFilter:
    """``boi_hash_codes`` bound to one float32 projection matrix, its code
    width and its error bound, so that hashing a chunk passes only its arrays.

    ``projections`` (L*b, dim) is float32 and C-contiguous, and ``bits`` is
    in [1, 16] and divides its row count, or ValueError is raised here, once;
    the matrix must not change while the filter is used. The sign of the
    dot of row r of x with any projection row is kept when its magnitude is
    above ``bound``, a float32 value, times a power of two at or above
    ``||x_r||`` (``hashing._sign_filter`` sets both bounds), and is
    otherwise recomputed as the float64 sum of the exact products in index
    order; so is every dot of a row whose squared norm is below 2**-62 or
    not below ``safe_square``.
    """

    def __init__(self, projections, bits: int, bound: float, safe_square: float):
        # its own first and last sizes, which only a 2-D array matches
        shape = (len(projections), projections.shape[-1])
        if not 1 <= bits <= MAX_HASH_BITS or shape[0] % bits:
            raise ValueError(
                f"SignFilter: bits must be in [1, {MAX_HASH_BITS}] and divide "
                f"the {shape[0]} projection rows, got {bits}"
            )
        self.projections, self.bits, self.bound = projections, bits, float(bound)
        self.num_tables = shape[0] // bits
        address = _address(projections, np.float32, shape)
        self._fixed = (address, self.bound, float(safe_square))

    def __call__(self, dots: np.ndarray, x: np.ndarray, out: np.ndarray) -> int:
        """Write the b-bit codes of the rows of ``x`` into ``out``; return
        how many dot products were recomputed in float64.

        ``dots`` (L*b, rows) float32 is ``projections @ x.T``, summed in
        any order, and ``x`` (rows, dim) float32 its other operand, both
        C-contiguous. ``out`` is an (rows, L) uint16 array of any strides
        that are whole elements; it gets code ``out[r, t]`` of row r under
        table t. Raises ValueError when the shapes, types or strides
        disagree.
        """
        num_rows, dim = self.projections.shape
        rows, num_tables = shape = (len(x), self.num_tables)
        step = CODE_DTYPE.itemsize
        if (
            out.shape != shape
            or out.dtype != CODE_DTYPE
            or not (out.flags.writeable and out.flags.aligned)
            or out.strides[0] % step
            or out.strides[1] % step
        ):
            raise ValueError(
                f"SignFilter: expected a writable aligned {CODE_DTYPE} array of "
                f"shape {shape} in whole-element strides, got {out.dtype} of shape "
                f"{out.shape}"
            )
        return _library.boi_hash_codes(
            num_tables, self.bits, rows, dim,
            _address(dots, np.float32, (num_rows, rows)),
            _address(x, np.float32, (rows, dim)),
            *self._fixed, out.ctypes.data, out.strides[0] // step,
            out.strides[1] // step,
        )


def nearest_rows(rows: np.ndarray, query: np.ndarray, k: int) -> tuple:
    """(ids, distances, measured): the min(k, n) rows of ``rows`` (n, dim)
    float32, C-contiguous and aligned, nearest to ``query`` (dim,), read as
    float64, as int64 row numbers and float64 distances in ascending
    (distance, row number), each distance ``vote.c``'s ``distance`` of the
    row; and how many rows were measured in float64, the others skipped by
    ``boi_nearest``'s float32 filter. The filter reads a float32 copy of the
    query, once k rows are held, and its bound holds only when that copy is
    exact: so for k < n a query float32 cannot hold raises ValueError, and
    for k >= n, when the filter never starts, any query is measured as it
    is. Raises ValueError, naming the array, when a type, shape or layout
    disagrees, or for a negative k."""
    n, dim = rows.shape
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    query = np.ascontiguousarray(query, np.float64)
    with np.errstate(over="ignore"):
        x = query.astype(np.float32)
    if k < n and not np.array_equal(x, query):
        raise ValueError(
            f"nearest_rows: k = {k} < {n} rows needs a query float32 holds exactly"
        )
    size = min(k, n)
    ids, distances = np.empty(size, np.int64), np.empty(size, np.float64)
    measured = _library.boi_nearest(
        n, dim,
        _address(rows, np.float32, (n, dim)),
        _address(x, np.float32, (dim,)),
        _address(query, np.float64, (dim,)),
        k,
        _address(ids, np.int64, (size,), writable=True),
        _address(distances, np.float64, (size,), writable=True),
    )
    return ids, distances, measured


# the touched pass takes the votes out while at most 1/_TOUCHED_SHARE of
# their 64-id blocks hold one (``boi_touched_votes``)
_TOUCHED_SHARE = ctypes.c_int64.in_dll(_library, "boi_touched_share").value


def touched_capacity(n: int) -> int:
    """The (id, vote) pairs the touched pass over n votes can take out: 64
    for each of a quarter of the ceil(n / 64) blocks of 64 ids, at most
    n / 4 + 16 (``boi_touched_votes``)."""
    return 64 * (-(-n // 64) // _TOUCHED_SHARE)


# the slots of boi_query's block (``vote.c``): the tables' eight and the
# scratch's ten, then the ones rebound after it is made: the pairs' room and
# addresses, which a longer shortlist rebinds, the results' likewise, the
# base vectors', and last the plan's
_QUERY_SLOTS = ctypes.c_int64.in_dll(_library, "boi_query_slots").value
_PAIR_SLOTS, _RESULT_SLOTS, _VECTOR_SLOT = slice(18, 21), slice(21, 24), 24
_PLAN_SLOTS = slice(25, 31)
# boi_query's stages, in ``vote.c``'s order: the hash, the probe rows, the
# gather+vote, the touched pass and the re-rank; a call runs those in
# [first, last)
_HASH, _ROWS, _VOTE, _TAKE, _RERANK, _STAGES = range(6)
# boi_query's failed statuses (``vote.c``) that ``_raise`` tells apart
_NO_ROOM, _QUERY_CORRUPT, _NOT_STAGES, _NO_RERANK = -2, -4, -5, -6
_CORRUPT = (
    "corrupt hash table: a probed bucket's code, offsets or record ids are out of range"
)


def scratch_bytes(
    n: int, dim: int, num_tables: int, bits: int, width: int, shortlist_size: int
) -> int:
    """The bytes of a ``QueryScratch`` over n records of dimension dim in
    L = num_tables tables of b = bits bits, once it has bound plans of at
    most ``width`` masks and shortlisted at most ``shortlist_size``
    records: 4n of int32 votes, 8 * max(``touched_capacity(n)``,
    min(shortlist_size, n)) of record ids and votes taken out, 4Lb of
    float32 dot products, 2L of codes, 4 * dim of the query's float32
    copy and 8 * dim of its float64 one, 2L * width of probe rows, 16 *
    min(shortlist_size, n) of the re-rank's int64 ids and float64
    distances, and the int64 block and two counts. The votes are int32
    over every internal id, whatever the page: only the tables store ids
    as uint16, and the gather+vote adds a page's votes at the page's own
    place in them. The selection and the re-rank keep their counts and
    heaps on the stack or in those buffers, and the gather+vote its batch
    of ranges, so they add nothing."""
    return (
        4 * n
        + 8 * max(touched_capacity(n), min(shortlist_size, n))
        + 4 * num_tables * bits
        + 2 * num_tables
        + 12 * dim
        + 2 * num_tables * width
        + 16 * min(shortlist_size, n)
        + 8 * (_QUERY_SLOTS + 2)
    )


def _float_slot(value: float) -> int:
    """The bits of ``value`` as a float64, for a slot of boi_query's block."""
    return int(np.float64(value).view(np.int64))


class QueryScratch:
    """The buffers one thread queries one set of tables with, bound once.

    ``hashing.ProjectionTable.scratch`` makes one for each thread that
    queries the tables, on the thread's first query, from the tables
    themselves: their ``sign_filter``, the ``SignFilter`` that fixes L and
    the code width b, their directory, ``bitmap`` uint64 and ``rank``
    int32 of shape ``directory_shape(L, b, n)`` and 1-D ``offsets``
    int32, their ``members`` (L, n) uint16 and their ``order`` (n,)
    int32. Every address is taken then, through ``_address``, whose
    ValueError names an array of the wrong type, shape or layout. The
    values are not checked here (``hashing.ProjectionTable`` checks
    them); the kernel refuses any it reads out of range (``vote``). The
    scratch holds the filter and the five arrays, not ``tables``, so they
    outlive its block, and they must not change while it is used. A query
    passes only its vector, its plan, its shortlist size, its base vectors
    and its k, and nothing is allocated per query but the probe rows of a
    plan wider than any the scratch has seen, or the pairs and results of
    a shortlist longer than any it has held. ``_stages`` is the only Python caller of
    ``boi_query``, and the scratch owns every buffer its stages write:

    ``votes`` (n,) int32, the query's votes in internal order, all zero
    between queries; ``dots`` (L*b, 1) float32 and ``codes`` (L,) uint16,
    the query's hash, from its float32 copy; ``probes``, the (L, width)
    uint16 probe rows of the last plan given; ``ids`` and ``weights``,
    int32 each, the record ids and votes taken out, ``touched_capacity(n)``
    of them, or min(shortlist size, n) once a query has asked for a longer
    shortlist; ``nearest`` int64 and ``distances`` float64, the re-rank's
    answer, min(shortlist size, n) of each for the longest shortlist asked
    for; the query's float64 copy, which the re-rank measures from; and the
    int64 block of every address and size ``boi_query`` reads, whose plan
    slots ``_use`` rebinds when the plan changes, whose pair and result
    slots ``_hold`` rebinds when they grow, and whose vector slot ``_read``
    rebinds when other base vectors are given. At n = 100k they hold about
    0.6 MB (``nbytes``).

    ``query`` runs a whole query in one compiled call, from the vector to
    its ranked answer. ``hash``, ``rows``, ``vote`` and ``take`` each run
    one of its first four stages, in that order, on the same buffers; this
    staged path is the one ``index.accumulate`` takes, with ``clear`` when
    the votes stayed dense. Votes a query left behind, because it raised or
    was interrupted, are cleared before the next one votes, so a query
    never sees another's votes. One thread at a time may use a scratch;
    the base vectors it reads may be shared by every thread.
    """

    def __init__(self, tables):
        sign_filter, offsets, members = tables.sign_filter, tables.offsets, tables.members
        num_tables, bits, n = sign_filter.num_tables, sign_filter.bits, members.shape[-1]
        shape, dim = directory_shape(num_tables, bits, n), sign_filter.projections.shape[1]
        self.votes = np.zeros(n, np.int32)
        self.dots = np.empty((num_tables * bits, 1), np.float32)
        self.codes = np.empty(num_tables, CODE_DTYPE)
        self.probes = self._probe_buffer = np.empty((num_tables, 0), CODE_DTYPE)
        self._x = np.empty((1, dim), np.float32)
        self._query = np.empty(dim, np.float64)
        # pairs scanned by the last gather+vote, pairs left by the last take
        self._counts = np.zeros(2, np.int64)
        # held, since the block holds only their addresses; not ``tables``,
        # which holds its scratches: that cycle would keep a dropped index's
        # arrays until the cyclic collector ran
        self._held = sign_filter, tables.bitmap, tables.rank, offsets, members, tables.order
        self._plan, self._vectors, self._voted = None, None, False
        projections_at, bound, safe_square = sign_filter._fixed
        # boi_query's slots in ``vote.c``'s order; _grow binds the pairs' and
        # the results', _read the vectors' and _use the plan's
        self._block = np.zeros(_QUERY_SLOTS, np.int64)
        self._block[: _PAIR_SLOTS.start] = (
            num_tables, bits, n,
            _address(tables.bitmap, np.uint64, shape),
            _address(tables.rank, OFFSET_DTYPE, shape),
            _address(offsets, OFFSET_DTYPE, (offsets.size,)), offsets.size,
            _address(members, ID_DTYPE, (num_tables, n)),
            dim, projections_at, _float_slot(bound), _float_slot(safe_square),
            _address(self._x, np.float32, self._x.shape, writable=True),
            _address(self._query, np.float64, (dim,), writable=True),
            _address(self.dots, np.float32, self.dots.shape, writable=True),
            _address(self.codes, CODE_DTYPE, self.codes.shape, writable=True),
            _address(self.votes, np.int32, (n,), writable=True),
            _address(tables.order, np.int32, (n,)),
        )
        if _PLAN_SLOTS.stop != _QUERY_SLOTS:
            raise RuntimeError(
                f"boi_query reads {_QUERY_SLOTS} slots, QueryScratch binds {_PLAN_SLOTS.stop}"
            )
        pairs = touched_capacity(n)
        self.ids, self.weights = self._grow(_PAIR_SLOTS, pairs, np.int32, np.int32)
        self.nearest, self.distances = self._grow(_RESULT_SLOTS, 0, np.int64, np.float64)
        self._at = (self._block.ctypes.data, self._counts.ctypes.data)

    @property
    def nbytes(self) -> int:
        """The bytes of every buffer the scratch holds: the votes, the
        pairs, the hash's, the query's two copies, the probe rows of the
        widest plan it has bound, the results, the block and the counts."""
        return sum(
            a.nbytes
            for a in (
                self.votes, self.ids, self.weights, self.dots, self.codes,
                self._probe_buffer, self._x, self._query, self.nearest,
                self.distances, self._block, self._counts,
            )
        )

    def _grow(self, slots: slice, size: int, *dtypes) -> tuple[np.ndarray, ...]:
        """New arrays of ``size`` values of each of ``dtypes``, with the
        block's ``slots`` bound to their size and addresses."""
        arrays = tuple(np.empty(size, dtype) for dtype in dtypes)
        self._block[slots] = (
            size, *(_address(a, a.dtype, (size,), writable=True) for a in arrays)
        )
        return arrays

    def _hold(self, shortlist_size: int, least: int) -> int:
        """min(shortlist_size, n), the size to pass the touched pass, once
        ``ids`` and ``weights`` hold that many pairs and ``nearest`` and
        ``distances`` that many results; ValueError for a size below
        ``least``."""
        if shortlist_size < least:
            raise ValueError(f"shortlist_size must be >= {least}, got {shortlist_size}")
        size = min(shortlist_size, len(self.votes))
        if size > len(self.ids):
            self.ids, self.weights = self._grow(_PAIR_SLOTS, size, np.int32, np.int32)
        if size > len(self.nearest):
            self.nearest, self.distances = self._grow(_RESULT_SLOTS, size, np.int64, np.float64)
        return size

    def _use(self, plan: ProbePlan) -> None:
        """Bind ``probes`` and the block's plan slots to ``plan``, unless it
        is the last plan; ValueError when the plan is for other tables."""
        if plan is self._plan:
            return
        num_tables, bits = self._block[:2].tolist()
        if (plan.num_tables, plan.bits) != (num_tables, bits):
            raise ValueError(
                f"expected a plan of {num_tables} tables of {bits} bits, got "
                f"{plan.num_tables} of {plan.bits}"
            )
        size = num_tables * plan.width
        if size > self._probe_buffer.size:
            self._probe_buffer = np.empty(size, CODE_DTYPE)
        self.probes = self._probe_buffer[:size].reshape(num_tables, plan.width)
        self._block[_PLAN_SLOTS] = (*plan._slots, self.probes.ctypes.data)
        self._plan = plan

    def _read(self, vectors: np.ndarray) -> None:
        """Bind the block's vector slot to ``vectors``, the (n, dim)
        float32 C-contiguous base vectors the re-rank measures, unless they
        are the last given; ValueError, naming the expected array, for any
        other. They must not change while they are bound."""
        if vectors is self._vectors:
            return
        shape = (len(self.votes), len(self._query))
        self._block[_VECTOR_SLOT] = _address(vectors, np.float32, shape)
        self._vectors = vectors

    def _stages(self, first: int, last: int, shortlist_size: int = 0, k: int = 0) -> int:
        """Run stages [first, last) of ``boi_query`` on the bound block, in
        one compiled call with the GIL released, and return its status:
        what the last of the touched pass (``take``) and the re-rank
        returns when either runs, 0 otherwise.

        Votes a query left behind are cleared before a gather+vote, and
        count as left behind until a touched pass has taken them out. A
        failed status raises (``_raise``); a range outside [0, 5], or with
        first > last, is refused before any stage runs, the votes as they
        were."""
        if 0 <= first <= _VOTE < last <= _STAGES:
            if self._voted:
                self.clear()
            self._voted = True
        status = _library.boi_query(self._at[0], first, last, shortlist_size, k, self._at[1])
        if status < -1:
            self._raise(status, shortlist_size)
        if status >= 0 and first <= _TAKE < last:
            self._voted = False
        return status

    def _raise(self, status: int, shortlist_size: int) -> None:
        """Raise what a failed status of ``boi_query`` means, read from the
        block alone, a plan bound or not: ``_NO_ROOM`` to order a shell;
        ``_QUERY_CORRUPT``, a corrupt table; ``_NOT_STAGES``, a range of
        stages that is not one; ``_NO_RERANK``, a re-rank with no base
        vectors bound, a negative k or more records to rank than its
        results hold; any other, a refused argument: a shortlist size past
        the pairs' room, the hash's sizes or a shell moved out of the row."""
        if status == _NO_ROOM:
            raise MemoryError("no room to sort a shell of the probe plan")
        if status == _QUERY_CORRUPT:
            raise ValueError(_CORRUPT)
        if status == _NOT_STAGES:
            raise ValueError(f"boi_query runs a range of its stages within [0, {_STAGES}]")
        if status == _NO_RERANK:
            raise ValueError(
                "the re-rank needs base vectors bound, a k of 0 or more and room "
                f"for its results: {len(self.nearest)} of them"
            )
        capacity, width = self._block[[_PAIR_SLOTS.start, _PLAN_SLOTS.start]].tolist()
        raise ValueError(
            f"boi_query refused its arguments: the shortlist size must be in [0, {capacity}], "
            f"got {shortlist_size}; the hash's sizes must fit; shells must be ranges within "
            f"[0, {width}]"
        )

    def query(
        self, q: np.ndarray, plan: ProbePlan, shortlist_size: int, vectors: np.ndarray,
        k: int,
    ) -> tuple[int, int, int]:
        """One query under ``plan``, every stage in one compiled call:
        ``hash``, ``rows``, ``vote``, ``take`` with the shortlist's
        selection, and the re-rank of the shortlist's set by exact distance
        from ``vectors`` (``_read``). Returns (ranked, count, pairs
        scanned).

        ``nearest[:ranked]`` and ``distances[:ranked]`` then hold the
        min(k, count) records nearest to ``q``, and their float64
        distances, in ascending (distance, record id), of the ``count``
        records of ``index.shortlist``'s set of the votes: the
        ``shortlist_size`` (at least 1, or ValueError) highest votes, the
        ties at the cut by lowest record id, none that is 0. Each distance
        is ``vote.c``'s ``distance`` of the record, so the answer does not
        depend on the order of the set. ``votes`` is then all zero again,
        whether the votes were touched or dense. Raises what ``rows`` and
        ``vote`` raise.
        """
        size = self._hold(shortlist_size, 1)
        self._use(plan)
        self._read(vectors)
        self._x[0] = q
        ranked = self._stages(_HASH, _STAGES, size, k)
        return ranked, int(self._counts[1]), int(self._counts[0])

    def hash(self, q: np.ndarray) -> np.ndarray:
        """The query's codes (``codes``), and its dot products in ``dots``:
        each dot summed in ``vote.c``'s one fixed order, then the sign
        filter, as ``hashing.hash_codes_all`` filters one row. ``q`` is the
        (dim,) float32 query ``core.query_vector`` checked."""
        self._x[0] = q
        self._stages(_HASH, _ROWS)
        return self.codes

    def rows(self, plan: ProbePlan) -> np.ndarray:
        """The (L, width) uint16 probe rows of the query in ``codes`` and
        ``dots`` under ``plan``, written into ``probes`` and returned.

        ``codes`` holds the query's L codes and ``dots`` the L*bits dot
        products they were hashed from (``hash`` writes both): entry
        t*bits + j is the one of bit j of table t's code. Row t is
        codes[t] XOR the plan's masks in plan order, except the table's
        ``shells`` range, which goes by ascending float64 sum of |dots|
        over the bits each mask flips, ties in plan order and a non-finite
        sum last. Raises ValueError when the plan is for other tables or
        its held shells were changed to ranges outside the row, and
        MemoryError when the heap has no room to sort a shell.
        """
        self._use(plan)
        self._stages(_ROWS, _VOTE)
        return self.probes

    def vote(self, plan: ProbePlan) -> int:
        """Add the votes of every bucket ``probes`` probe under ``plan`` to
        ``votes``; return the (id, vote) pairs scanned.

        Table t probes the first ``plan.budgets[t] + 1`` codes of row t,
        and adds ``plan.units[j]`` to the vote of each id in the bucket of
        the code at position j. Raises ValueError when the plan is for
        other tables, or when a probed value is out of range (a code past
        2**b, a bucket past the offsets, offsets that decrease or leave
        [0, n], an id >= n); ``votes`` is then partly written, and the next
        query clears it."""
        self._use(plan)
        self._stages(_VOTE, _TAKE)
        return int(self._counts[0])

    def take(self, shortlist_size: int = 0) -> int:
        """m, when the touched pass took the votes out: ``ids[:m]`` and
        ``weights[:m]`` hold each non-zero vote's record id and vote, in
        ascending internal id, and ``votes`` is all zero again. -1 when
        more than a quarter of the votes' 64-id blocks hold one: ``votes``
        is left as it is, for ``clear`` once it has been read.

        Given a ``shortlist_size`` of 1 or more, the votes are cut to
        ``index.shortlist``'s set of them, as ``query`` cuts them, dense
        ones too, and m is the set's size: its pairs come first, in no
        order, and ``votes`` is all zero again. A negative size raises
        ValueError.
        """
        return self._stages(_TAKE, _RERANK, self._hold(shortlist_size, 0))

    def clear(self) -> None:
        """Zero ``votes``."""
        self.votes.fill(0)
        self._voted = False
