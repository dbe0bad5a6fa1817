"""The compiled loops of ``vote.c``, loaded with ctypes: the probe rows and
the gather+vote kernel every query runs, the counting sort
``hashing.insert_all`` buckets its records with, the table-record checks
``data_io.load_index`` runs, the directory check ``hashing.ProjectionTable``
runs, and the sign filter ``hashing.hash_codes_all`` turns its float32 dot
products into codes with.

A table's buckets are found through a directory of its non-empty buckets
(``vote.c``'s header comment): a ``bitmap`` of its non-empty codes in
``directory_words(b)`` uint64 words, and the ``offsets``, the start of
each of those buckets in code order, then n. The offsets of every table
follow each other in one int32 array. The sort builds one table at a time
in a scratch of 2**b + 1 int32 offsets, whose front ends holding the
table's piece of offsets, and returns the piece's length; the snapshot
check (``TableCheck``) turns a table's bucket sizes into its piece in
place, in the index's own offsets. The ``rank`` of each word, the
position in ``offsets`` of its first non-empty bucket, is derived from
the bitmap alone, by ``check_directory``. Only the kernel counts the set
bits below a code within its word; in Python,
``hashing.ProjectionTable.buckets`` alone reads the bitmap and the rank, a
table at a time.

The source is compiled with the system ``cc`` the first time the package is
imported, into ``$XDG_CACHE_HOME/boi`` (``~/.cache/boi`` when that is
unset), under a name keyed by the source's sha256; later imports load that
file. ``ctypes.CDLL`` releases the GIL for the length of each call, so
queries running in threads vote in parallel. Every entry point takes raw
addresses, and its wrapper gets each one from ``_address``, which checks
the array's exact type, shape and layout first: numpy's own ctypes
argument conversion would cost about 5 us an array while the GIL is held.
What is fixed per table or per plan is checked once, when ``GatherVote``,
``ProbePlan`` or ``SignFilter`` binds it, so a query passes only its own
arrays through ``_address``; ``TableCheck`` binds a snapshot load's
arrays once in the same way.
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

from .core import CODE_DTYPE, MAX_HASH_BITS, OFFSET_DTYPE

SOURCE = Path(__file__).with_name("vote.c")
_CFLAGS = ("-O3", "-shared", "-fPIC")


def default_cache_dir() -> Path:
    """``$XDG_CACHE_HOME/boi``, or ``~/.cache/boi`` when that is unset."""
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "boi"


def build_library(cache_dir, source=SOURCE) -> Path:
    """Path of ``source`` compiled into ``cache_dir``, compiling it only if
    no library built from the same source bytes is there yet.

    The compiler writes to a temporary name in ``cache_dir`` that is then
    renamed into place, so a process importing at the same moment never
    loads a half-written file. Raises ImportError when there is no ``cc``,
    the compile fails, or ``cache_dir`` cannot be written.
    """
    source = Path(source)
    digest = hashlib.sha256(source.read_bytes()).hexdigest()
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
    and result types of ``boi_gather_vote``, ``boi_probe_rows``,
    ``boi_bucket_sort``, ``boi_table_buckets``, ``boi_check_table``,
    ``boi_check_directory`` and ``boi_hash_codes`` declared."""
    library = ctypes.CDLL(str(build_library(cache_dir)))
    i64, address = ctypes.c_int64, ctypes.c_void_p
    # every address comes from _address, which checks the array behind it
    library.boi_gather_vote.argtypes = [
        i64,  # num_tables
        i64,  # bits
        i64,  # n
        address,  # bitmap
        address,  # rank
        address,  # offsets
        i64,  # number of offsets
        address,  # members
        address,  # probes
        i64,  # probe row width
        address,  # units
        address,  # budgets
        address,  # votes
    ]
    library.boi_probe_rows.argtypes = [
        i64,  # num_tables
        i64,  # bits
        i64,  # probe row width
        address,  # codes
        address,  # dots
        address,  # masks
        address,  # shells
        address,  # probes
    ]
    library.boi_bucket_sort.argtypes = [
        i64,  # num_tables
        i64,  # table
        i64,  # bits
        i64,  # n
        address,  # bitmap
        address,  # offsets
        address,  # members
        address,  # order
        address,  # scratch
    ]
    library.boi_table_buckets.argtypes = [
        i64,  # num_tables
        i64,  # bits
        address,  # bitmap
        i64,  # table
    ]
    library.boi_check_table.argtypes = [
        i64,  # num_tables
        i64,  # bits
        i64,  # n
        address,  # bitmap
        address,  # offsets
        i64,  # number of offsets
        address,  # members
        i64,  # table
        i64,  # position of the table's piece in offsets
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
    for entry in (
        library.boi_gather_vote,
        library.boi_probe_rows,
        library.boi_bucket_sort,
        library.boi_table_buckets,
        library.boi_check_table,
        library.boi_check_directory,
        library.boi_hash_codes,
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
    """uint64 words of one b-bit table's bitmap and rank: 2**b / 64, at
    least one."""
    return max(1, (1 << bits) >> 6)


class ProbePlan:
    """A probe plan bound once for ``boi_probe_rows`` and ``boi_gather_vote``.

    ``masks`` (width,) uint16 are the plan's masks, ``units`` (width,)
    uint32 the vote of each position of a probe row, ``budgets`` (L,) int64
    the positions past the first that table t probes, and ``shells`` (L, 2)
    int64 the range [lo, hi) of positions whose masks table t's rows order
    by margin, (0, 0) for none (``index`` sets them: the table's last,
    partly probed shell). The plan holds all four, which must not change
    while it is used. They are checked here, once: ValueError names the
    array whose type, shape or layout is wrong, and is raised too when
    ``bits`` is not in [1, 16], there are no masks (every plan holds mask
    0), a budget is not in [0, width - 1], a mask has a bit at or past
    ``bits``, or a range is not within the row.
    """

    def __init__(self, bits: int, masks, units, budgets, shells):
        width, num_tables = np.size(masks), np.size(budgets)
        if not 1 <= bits <= MAX_HASH_BITS:
            raise ValueError(f"ProbePlan: bits must be in [1, {MAX_HASH_BITS}], got {bits}")
        if not width:
            raise ValueError("ProbePlan: a plan holds at least mask 0, got no masks")
        fixed = (
            _address(masks, CODE_DTYPE, (width,)),
            _address(units, np.uint32, (width,)),
            _address(budgets, np.int64, (num_tables,)),
            _address(shells, np.int64, (num_tables, 2)),
        )
        if num_tables and not 0 <= budgets.min() <= budgets.max() < width:
            raise ValueError(f"ProbePlan: budgets must be in [0, {width - 1}]")
        if int(masks.max()) >> bits:
            raise ValueError(f"ProbePlan: a mask has a bit past the {bits}-bit code")
        if num_tables and not (
            0 <= shells[:, 0].min()
            and np.all(shells[:, 0] <= shells[:, 1])
            and shells[:, 1].max() <= width
        ):
            raise ValueError(f"ProbePlan: shells must be ranges within [0, {width}]")
        self.bits, self.width, self.num_tables = bits, width, num_tables
        self.masks, self.units, self.budgets, self.shells = masks, units, budgets, shells
        self._rows = (fixed[0], fixed[3])
        self._votes = fixed[1:3]

    def rows(self, codes: np.ndarray, dots: np.ndarray) -> np.ndarray:
        """The (L, width) uint16 probe rows of one query (``boi_probe_rows``).

        ``codes`` (L,) uint16 are the query's codes and ``dots`` (L*bits,)
        float32 the dot products they were hashed from: entry t*bits + j
        is the one of bit j of table t's code. Row t is codes[t] XOR the
        masks in plan order, except the table's ``shells`` range, which
        goes by ascending float64 sum of |dots| over the bits each mask
        flips, ties in plan order and a non-finite sum last. Raises
        ValueError when the shapes, types or layouts disagree or the held
        shells were changed to ranges outside the row, and MemoryError when
        the heap has no room to sort a shell.
        """
        num_tables, bits, width = self.num_tables, self.bits, self.width
        probes = np.empty((num_tables, width), CODE_DTYPE)
        status = _library.boi_probe_rows(
            num_tables, bits, width,
            _address(codes, CODE_DTYPE, (num_tables,)),
            _address(dots, np.float32, (num_tables * bits,)),
            *self._rows, probes.ctypes.data,
        )
        if status == -2:
            raise MemoryError("no room to sort a shell of the probe plan")
        if status:
            # the plan was checked when it was bound: its shells changed since
            raise ValueError(f"ProbePlan: shells must be ranges within [0, {width}]")
        return probes


class GatherVote:
    """``boi_gather_vote`` bound to one index's tables: their directory,
    ``bitmap`` (L, W) uint64 and ``rank`` (L, W) int32 with W =
    ``directory_words(bits)`` (the rank ``check_directory`` makes), and
    ``offsets`` int32, and their ``members`` (L, n) int32, ``bits`` in
    [1, 16]; so a query passes only its probe rows and votes.

    The arrays are checked here, once, and held; they must not change while
    the binding is used. ValueError names the array whose type, shape or
    layout is wrong, or says that ``bits`` is not in [1, 16]. Their values
    are not checked here (``hashing.ProjectionTable`` checks them); the
    kernel refuses any it reads out of range.
    """

    def __init__(self, bits: int, bitmap, rank, offsets, members):
        if not 1 <= bits <= MAX_HASH_BITS:
            raise ValueError(f"GatherVote: bits must be in [1, {MAX_HASH_BITS}], got {bits}")
        num_tables, n = len(bitmap), members.shape[-1]
        words = (num_tables, directory_words(bits))
        self._arrays = (bitmap, rank, offsets, members)
        self._fixed = (
            num_tables, bits, n,
            _address(bitmap, np.uint64, words),
            _address(rank, OFFSET_DTYPE, words),
            _address(offsets, OFFSET_DTYPE, (offsets.size,)), offsets.size,
            _address(members, np.int32, (num_tables, n)),
        )

    def __call__(self, plan: ProbePlan, probes: np.ndarray, votes: np.ndarray) -> int:
        """Add every probed bucket's vote to ``votes``; return the number
        of (id, vote) pairs scanned.

        Table t probes the first ``plan.budgets[t] + 1`` codes of row t of
        ``probes`` (L, plan.width) uint16, and adds ``plan.units[j]`` to
        ``votes[id]`` (int32, n, writable) for each id in the bucket of the
        code at position j. Raises ValueError when the plan is for another
        number of tables, ``probes`` or ``votes`` has another type, shape
        or layout, or a probed value is out of range (a code past 2**b, a
        bucket past the offsets, offsets that decrease or leave [0, n], an id
        >= n); ``votes`` is then partly written.
        """
        num_tables, n = self._fixed[0], self._fixed[2]
        if plan.num_tables != num_tables:
            raise ValueError(
                f"expected a plan of {num_tables} tables, got {plan.num_tables}"
            )
        scanned = _library.boi_gather_vote(
            *self._fixed,
            _address(probes, CODE_DTYPE, (num_tables, plan.width)), plan.width,
            *plan._votes,
            _address(votes, np.int32, (n,), writable=True),
        )
        if scanned < 0:
            raise ValueError(
                "corrupt hash table: a probed bucket's code, offsets or record "
                "ids are out of range"
            )
        return scanned


def bucket_sort(bits: int, members: np.ndarray, order: np.ndarray) -> tuple:
    """Bucket every record of every table by its code, one counting sort a
    table, number the records in table 0's bucket order, and return the
    tables' directory ``(bitmap, offsets)``.

    ``members`` (L, n) int32 comes in holding table t's ``bits``-bit codes
    of records 0..n-1 in the upper half of row t,
    ``members.view(CODE_DTYPE)[:, n:]``. ``order`` (n,) int32 is filled with
    the records grouped by table 0's code, ascending within a bucket (a
    stable argsort of table 0's codes): record ``order[i]`` gets internal
    id i. ``members`` leaves holding each table's internal ids, grouped by
    code and ascending within a bucket, so row 0 is 0..n-1. Both must be
    C-contiguous and writable, and L at least 1. Besides them the sort
    holds one table's codes and one table's 2**b + 1 offsets, and the
    directory it returns. Raises ValueError when ``bits`` is not in
    [1, 16], the shapes disagree or a code is 2**b or more; ``members`` and
    ``order`` are then partly written.
    """
    num_tables, n = len(members), order.size
    if num_tables < 1:
        raise ValueError("bucket_sort needs at least one table")
    if not 1 <= bits <= MAX_HASH_BITS:
        raise ValueError(f"bucket_sort: bits must be in [1, {MAX_HASH_BITS}], got {bits}")
    words = directory_words(bits)
    bitmap = np.empty((num_tables, words), np.uint64)
    # names hold the scratches alive while the kernel writes through their addresses
    offsets = np.empty((1 << bits) + 1, OFFSET_DTYPE)
    scratch = np.empty(n, CODE_DTYPE)
    fixed = (
        _address(bitmap, np.uint64, (num_tables, words), writable=True),
        _address(offsets, OFFSET_DTYPE, offsets.shape, writable=True),
        _address(members, np.int32, (num_tables, n), writable=True),
        _address(order, np.int32, (n,), writable=True),
        _address(scratch, CODE_DTYPE, (n,), writable=True),
    )
    pieces = []
    for t in range(num_tables):
        size = _library.boi_bucket_sort(num_tables, t, bits, n, *fixed)
        if size < 0:
            raise ValueError(f"a bucket code is out of range for {bits} bits")
        pieces.append(offsets[:size].copy())
    del offsets, scratch  # the pieces are all the tables keep of them
    return bitmap, np.concatenate(pieces)


# what TableCheck finds wrong with a table record, by its status
BIT_PAST, EMPTY_BUCKET, SIZES_OFF, ID_OUT_OF_RANGE, NOT_A_PERMUTATION = -2, -3, -4, -5, -6


class TableCheck:
    """``boi_table_buckets`` and ``boi_check_table`` bound to the arrays
    ``data_io.load_index`` reads a snapshot's table records into: ``bitmap``
    (L, W) uint64, W = ``directory_words(bits)``, ``offsets`` int32, K + L
    values for K non-empty buckets in all, and ``members`` (L, n) int32,
    ``bits`` in [1, 16]; so a table's calls pass only the table and the
    position of its piece in ``offsets``.

    The arrays are checked here, once, and held; they must not change shape
    while the binding is used. ValueError names the array whose type, shape
    or layout is wrong (``offsets`` must be writable), or says that
    ``bits`` is not in [1, 16].
    """

    def __init__(self, bits: int, bitmap, offsets, members):
        if not 1 <= bits <= MAX_HASH_BITS:
            raise ValueError(f"TableCheck: bits must be in [1, {MAX_HASH_BITS}], got {bits}")
        num_tables, n = len(bitmap), members.shape[-1]
        words = (num_tables, directory_words(bits))
        self._arrays = (bitmap, offsets, members)
        bitmap_at = _address(bitmap, np.uint64, words)
        self._buckets = (num_tables, bits, bitmap_at)
        self._check = (
            num_tables, bits, n, bitmap_at,
            _address(offsets, OFFSET_DTYPE, (offsets.size,), writable=True), offsets.size,
            _address(members, np.int32, (num_tables, n)),
        )

    def buckets(self, table: int) -> int:
        """k, the non-empty buckets row ``table`` of the bitmap marks, or
        ``BIT_PAST`` when a bit is set for a code at or past 2**b. Raises
        ValueError for a table outside [0, L)."""
        k = _library.boi_table_buckets(*self._buckets, table)
        if k == -1:
            raise ValueError(f"TableCheck: table {table} is not in [0, {self._buckets[0]})")
        return k

    def __call__(self, table: int, at: int) -> int:
        """Check table ``table``'s record and turn its bucket sizes into its
        piece of offsets, in place.

        Entries ``at + 1 .. at + k`` of ``offsets`` hold the sizes, read as
        uint32, of the k non-empty buckets row ``table`` of the bitmap
        marks, in code order, and row ``table`` of ``members`` the record's
        ids. When every size is at least 1 and their exact sum is n, entries
        ``at .. at + k`` become the table's piece of offsets: the start of
        each bucket, then n. Returns k + 1, the piece's length, when,
        besides, every id, read as uint32, is below n and the ids' wrapping
        uint32 sum is that of 0..n-1. Otherwise returns the first check
        that fails, a negative status: ``BIT_PAST``, ``EMPTY_BUCKET`` or
        ``SIZES_OFF`` (``offsets`` then unchanged), ``ID_OUT_OF_RANGE`` or
        ``NOT_A_PERMUTATION``. Raises ValueError for a table outside [0, L)
        or a piece that does not fit in ``offsets`` from ``at``.
        """
        status = _library.boi_check_table(*self._check, table, at)
        if status == -1:
            raise ValueError(
                f"TableCheck: table {table} is not in [0, {self._check[0]}) or its "
                f"piece does not fit in the {self._check[5]} offsets from {at}"
            )
        return status


# what check_directory finds wrong with a directory, by its status
_DIRECTORY_FAULTS = {
    -1: "{n} records or {size} offsets do not fit int32 positions",
    1: "bitmap has a bit set for a code at or past 2**{bits}",
    2: "offsets do not hold one value per set bit of the bitmap and each table's n",
    3: "offsets do not rise strictly from 0 to {n} through each table's "
    "non-empty buckets",
}


def check_directory(bits: int, bitmap, offsets, n: int) -> np.ndarray:
    """The (L, W) int32 ``rank`` of the directory ``bitmap`` (L, W) uint64
    and ``offsets`` int32, W = ``directory_words(bits)``, of L ``bits``-bit
    tables of n records (``boi_check_directory``): ``rank[t, w]`` is the
    position in ``offsets`` of table t's first non-empty bucket at or after
    word w, where its piece begins plus the set bits of its words before w.

    Raises ValueError, naming the first fault, unless the arrays are such a
    directory: no bit set for a code at or past 2**bits, and each table's
    piece of offsets rising strictly from 0 to n, one value a set bit and
    then n, the pieces filling ``offsets`` exactly, at most 2**31 - 1 of
    them. ValueError is raised too when the arrays' types, shapes or
    layouts disagree, or ``bits`` is not in [1, 16]. Nothing is allocated
    but the rank.
    """
    if not 1 <= bits <= MAX_HASH_BITS:
        raise ValueError(f"check_directory: bits must be in [1, {MAX_HASH_BITS}], got {bits}")
    words = (len(bitmap), directory_words(bits))
    rank = np.empty(words, OFFSET_DTYPE)
    status = _library.boi_check_directory(
        words[0], bits, n,
        _address(bitmap, np.uint64, words),
        _address(offsets, OFFSET_DTYPE, (offsets.size,)), offsets.size,
        _address(rank, OFFSET_DTYPE, words, writable=True),
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
