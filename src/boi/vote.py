"""The compiled loops of ``vote.c``, loaded with ctypes: the gather+vote
kernel every query runs, the counting sort ``hashing.insert_all`` buckets
its records with, the table-record check ``data_io.load_index`` runs, and
the sign filter ``hashing.hash_codes_all`` turns its float32 dot products
into codes with.

The source is compiled with the system ``cc`` the first time the package is
imported, into ``$XDG_CACHE_HOME/boi`` (``~/.cache/boi`` when that is
unset), under a name keyed by the source's sha256; later imports load that
file. ``ctypes.CDLL`` releases the GIL for the length of each call, so
queries running in threads vote in parallel. The entry points called per
query or per table take raw addresses: their wrappers check each array's
type, shape and layout, since an ``ndpointer`` conversion costs about 5 us
an array while the GIL is held.
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

from .core import CODE_DTYPE, OFFSET_DTYPE

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
    and result types of ``boi_gather_vote``, ``boi_bucket_sort``,
    ``boi_check_table`` and ``boi_hash_codes`` declared."""
    library = ctypes.CDLL(str(build_library(cache_dir)))
    i64, address = ctypes.c_int64, ctypes.c_void_p
    writable = "C_CONTIGUOUS,WRITEABLE"
    # the wrappers below check the arrays behind each raw address
    library.boi_gather_vote.argtypes = [
        i64,  # num_tables
        i64,  # bits
        i64,  # n
        address,  # offsets
        address,  # members
        address,  # probes
        i64,  # probe row width
        address,  # units
        address,  # budgets
        address,  # votes
    ]
    library.boi_bucket_sort.argtypes = [
        i64,  # num_tables
        i64,  # bits
        i64,  # n
        np.ctypeslib.ndpointer(OFFSET_DTYPE, ndim=2, flags=writable),  # offsets
        np.ctypeslib.ndpointer(np.int32, ndim=2, flags=writable),  # members
        np.ctypeslib.ndpointer(np.int32, ndim=1, flags=writable),  # order
        np.ctypeslib.ndpointer(CODE_DTYPE, ndim=1, flags=writable),  # scratch
    ]
    library.boi_check_table.argtypes = [
        i64,  # bits
        i64,  # n
        address,  # offsets
        address,  # ids
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
        library.boi_bucket_sort,
        library.boi_check_table,
        library.boi_hash_codes,
    ):
        entry.restype = i64
    return library


_library = load_library(default_cache_dir())


def _addressable(arrays) -> bool:
    """True when each (array, dtype) pair has that exact (native) dtype and
    is C-contiguous and aligned, so its address can go to the library."""
    return all(
        a.dtype == dtype and a.flags.c_contiguous and a.flags.aligned
        for a, dtype in arrays
    )


def gather_vote(
    offsets: np.ndarray,
    members: np.ndarray,
    probes: np.ndarray,
    units: np.ndarray,
    budgets: np.ndarray,
    votes: np.ndarray,
) -> int:
    """Add every probed bucket's vote to ``votes``; return the number of
    (id, vote) pairs scanned.

    ``offsets`` (L, 2**b + 1) int32 and ``members`` (L, n) int32 are a
    ``ProjectionTable``'s arrays. Table t probes the first ``budgets[t] +
    1`` (int64) codes of row t of ``probes`` (L, width) uint16, and adds
    ``units[j]`` (uint32, width) to ``votes[id]`` (int32, n) for each id in
    the bucket of the code at position j. Every array must have exactly
    that type and be C-contiguous, and ``votes`` writable. Raises
    ValueError when the shapes, types or layouts disagree, or a probed
    value is out of range (a budget past the probe row, a code past 2**b,
    offsets that decrease or leave [0, n], an id >= n); ``votes`` is then
    partly written.
    """
    if offsets.ndim != 2 or members.ndim != 2 or probes.ndim != 2:
        raise ValueError("gather_vote: array shapes or strides do not agree")
    num_tables, n = members.shape
    width = probes.shape[1]
    bits = offsets.shape[1].bit_length() - 1
    if (
        offsets.shape != (num_tables, (1 << bits) + 1)
        or probes.shape[0] != num_tables
        or units.shape != (width,)
        or budgets.shape != (num_tables,)
        or votes.shape != (n,)
        or not votes.flags.writeable
        or not _addressable(
            (
                (offsets, OFFSET_DTYPE),
                (members, np.int32),
                (probes, CODE_DTYPE),
                (units, np.uint32),
                (budgets, np.int64),
                (votes, np.int32),
            )
        )
    ):
        raise ValueError(
            "gather_vote: array shapes or strides do not agree, or an array "
            "has the wrong type or cannot be written"
        )
    scanned = _library.boi_gather_vote(
        num_tables, bits, n, offsets.ctypes.data, members.ctypes.data,
        probes.ctypes.data, width, units.ctypes.data, budgets.ctypes.data,
        votes.ctypes.data,
    )
    if scanned < 0:
        raise ValueError(
            "corrupt hash table: a probed bucket's budget, code, offsets or "
            "record ids are out of range"
        )
    return scanned


def bucket_sort(offsets: np.ndarray, members: np.ndarray, order: np.ndarray) -> None:
    """Bucket every record of every table by its code, in one counting sort,
    and number the records in table 0's bucket order.

    ``members`` (L, n) int32 comes in holding table t's codes of records
    0..n-1 in the upper half of row t, ``members.view(CODE_DTYPE)[:, n:]``.
    ``order`` (n,) int32 is filled with the records grouped by table 0's
    code, ascending within a bucket (a stable argsort of table 0's codes):
    record ``order[i]`` gets internal id i. ``members`` leaves holding each
    table's internal ids, grouped by code and ascending within a bucket, so
    row 0 is 0..n-1. ``offsets`` (L, 2**b + 1) int32 is filled with each
    table's CSR bucket offsets; it need not be zeroed. All three must be
    C-contiguous and writable, and L at least 1. The sort holds one table's
    codes besides them. Raises ValueError when the shapes disagree or a
    code is 2**b or more; the three arrays are then partly written.
    """
    num_tables, n = members.shape
    bits = offsets.shape[1].bit_length() - 1
    if (
        num_tables < 1
        or offsets.shape != (num_tables, (1 << bits) + 1)
        or order.shape != (n,)
    ):
        raise ValueError("bucket_sort: array shapes do not agree")
    scratch = np.empty(n, dtype=CODE_DTYPE)
    if _library.boi_bucket_sort(
        num_tables, bits, n, offsets, members, order, scratch
    ) < 0:
        raise ValueError(f"a bucket code is out of range for {bits} bits")


# what check_table finds wrong with a table record, by its status
COUNTS_OFF, ID_OUT_OF_RANGE, NOT_A_PERMUTATION = 1, 2, 3


def check_table(offsets: np.ndarray, ids: np.ndarray) -> int:
    """Check one snapshot table record and turn its counts into offsets.

    ``offsets`` (2**b + 1,) int32 holds the record's bucket counts, as
    uint32, from entry 1 on; ``ids`` (n,) int32 or uint32 is its id row.
    Both must be C-contiguous and ``offsets`` writable. Returns 0 and
    leaves ``offsets`` the CSR offsets of the counts when they sum to n
    exactly, every id, read as uint32, is below n and the ids' wrapping
    uint32 sum is that of 0..n-1. Otherwise returns the first check that
    fails: ``COUNTS_OFF`` (``offsets`` then unchanged), ``ID_OUT_OF_RANGE``
    or ``NOT_A_PERMUTATION``. Raises ValueError when the arrays disagree.
    """
    bits = offsets.shape[-1].bit_length() - 1
    if (
        offsets.shape != ((1 << bits) + 1,)
        or not 1 <= bits <= 16
        or ids.ndim != 1
        or not offsets.flags.writeable
        or not _addressable(((offsets, OFFSET_DTYPE), (ids, ids.dtype)))
        or ids.dtype not in (np.int32, np.uint32)
    ):
        raise ValueError("check_table: array shapes, types or strides do not agree")
    return _library.boi_check_table(
        bits, ids.size, offsets.ctypes.data, ids.ctypes.data
    )


class SignFilter:
    """``boi_hash_codes`` bound to one float32 projection matrix and its
    error bound, so that hashing a chunk passes only the chunk's arrays.

    ``projections`` (L*b, dim) is float32 and C-contiguous (ValueError
    otherwise); it must not change while the filter is used. The sign of
    the dot of row r of x with any projection row is kept when its
    magnitude is above ``bound``, a float32 value, times a power of two at
    or above ``||x_r||`` (``hashing._sign_filter`` sets both bounds), and
    is otherwise recomputed as the float64 sum of the exact products in
    index order; so is every dot of a row whose squared norm is below
    2**-62 or not below ``safe_square``.
    """

    def __init__(self, projections: np.ndarray, bound: float, safe_square: float):
        if projections.ndim != 2 or not _addressable(((projections, np.float32),)):
            raise ValueError("SignFilter: projections are not aligned C-contiguous float32")
        self.projections, self.bound = projections, float(bound)
        self._fixed = (projections.ctypes.data, self.bound, float(safe_square))

    def __call__(self, dots: np.ndarray, x: np.ndarray, bits: int, out: np.ndarray) -> int:
        """Write the b-bit codes of the rows of ``x`` into ``out``; return
        how many dot products were recomputed in float64.

        ``dots`` (L*b, rows) float32 is ``projections @ x.T``, summed in
        any order, and ``x`` (rows, dim) float32 its other operand, both
        C-contiguous. ``out`` is an (rows, L) uint16 array of any strides
        that are whole elements; it gets code ``out[r, t]`` of row r under
        table t. Raises ValueError when the shapes, types or strides
        disagree.
        """
        rows, dim = x.shape
        num_tables = out.shape[1]
        step = CODE_DTYPE.itemsize
        if (
            self.projections.shape != (num_tables * bits, dim)
            or dots.shape != (num_tables * bits, rows)
            or dots.dtype != np.float32
            or x.dtype != np.float32
            or not (dots.flags.c_contiguous and x.flags.c_contiguous)
            or out.shape[0] != rows
            or out.dtype != CODE_DTYPE
            or not (out.flags.writeable and out.flags.aligned)
            or out.strides[0] % step
            or out.strides[1] % step
        ):
            raise ValueError("SignFilter: array shapes, types or strides do not agree")
        recomputed = _library.boi_hash_codes(
            num_tables, bits, rows, dim, dots.ctypes.data, x.ctypes.data,
            *self._fixed, out.ctypes.data, out.strides[0] // step,
            out.strides[1] // step,
        )
        if recomputed < 0:
            raise ValueError(f"bits must be in [1, 16], got {bits}")
        return recomputed
