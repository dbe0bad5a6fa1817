import ctypes
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from boi import vote
from boi.hashing import ProjectionTable


def test_first_call_compiles_into_the_cache_dir(tmp_path):
    cache = tmp_path / "cache"
    library = vote.build_library(cache)
    assert library.parent == cache and library.is_file()
    # the temporary the compiler wrote was renamed into place
    assert list(cache.iterdir()) == [library]
    assert vote.load_library(cache).boi_gather_vote.restype is ctypes.c_int64


def test_second_call_reuses_the_library(tmp_path, monkeypatch):
    first = vote.build_library(tmp_path)
    mtime = first.stat().st_mtime_ns
    # no compiler is needed once the library is cached
    monkeypatch.setattr(shutil, "which", lambda name: None)
    again = vote.build_library(tmp_path)
    assert again == first and again.stat().st_mtime_ns == mtime


def test_changed_source_gets_a_new_name(tmp_path):
    edited = tmp_path / "vote.c"
    edited.write_bytes(vote.SOURCE.read_bytes() + b"/* edited */\n")
    cache = tmp_path / "cache"
    original = vote.build_library(cache)
    changed = vote.build_library(cache, edited)
    assert changed != original
    assert sorted(cache.iterdir()) == sorted([original, changed])


def test_no_compiler_raises_import_error_naming_cc(tmp_path, monkeypatch):
    monkeypatch.setattr(shutil, "which", lambda name: None)
    with pytest.raises(ImportError, match="`cc`"):
        vote.build_library(tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_import_without_compiler_names_cc(tmp_path):
    # a fresh interpreter with an empty cache and no `cc` on PATH
    src = str(Path(vote.__file__).resolve().parent.parent)
    env = {"PATH": "", "XDG_CACHE_HOME": str(tmp_path), "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", "import boi"], env=env, capture_output=True, text=True
    )
    assert done.returncode != 0
    assert "ImportError" in done.stderr and "`cc`" in done.stderr


def test_failed_compile_raises_import_error(tmp_path):
    broken = tmp_path / "broken.c"
    broken.write_text("this is not C\n")
    cache = tmp_path / "cache"
    with pytest.raises(ImportError, match="failed to compile"):
        vote.build_library(cache, broken)
    assert list(cache.iterdir()) == []


def _read_only_votes():
    votes = np.zeros(4, np.int32)
    votes.setflags(write=False)
    return votes


def _arrays(units=(4, 2)):
    """Two 2-bit tables over 4 records, one record per bucket; each probes
    bucket 0 and bucket 1, worth ``units`` (by default 2**-H in units of
    2**-2 at distances 0 and 1)."""
    offsets = np.tile(np.arange(5, dtype=np.int32), (2, 1))
    members = np.tile(np.arange(4, dtype=np.int32), (2, 1))
    probes = np.tile(np.array([0, 1], dtype=np.uint16), (2, 1))
    units = np.array(units, dtype=np.uint32)
    budgets = np.ones(2, dtype=np.int64)
    return offsets, members, probes, units, budgets, np.zeros(4, np.int32)


def test_gather_vote_sums_and_counts():
    args = _arrays()
    assert vote.gather_vote(*args) == 4
    assert args[-1].tolist() == [8, 4, 0, 0]


def test_gather_vote_adds_the_units_it_is_given():
    # units need not be powers of two: the kernel only adds them
    args = _arrays(units=(3, 5))
    assert vote.gather_vote(*args) == 4
    assert args[-1].tolist() == [6, 10, 0, 0]


def test_projection_table_stores_strided_members_contiguously():
    offsets, members, *rest = _arrays()
    wide = np.zeros((2, 9), dtype=np.int32)
    wide[:, :4] = members
    tables = ProjectionTable(np.ones((4, 1)), offsets, wide[:, :4], np.arange(4))
    assert tables.members.flags.c_contiguous
    assert np.array_equal(tables.members, members)
    assert vote.gather_vote(tables.offsets, tables.members, *rest) == 4
    assert rest[-1].tolist() == [8, 4, 0, 0]


@pytest.mark.parametrize(
    "position, replacement",
    [
        (4, np.ones(1, np.int64)),  # budgets shorter than L
        (3, np.zeros(1, np.uint32)),  # units shorter than a probe row
        (5, np.zeros(5, np.int32)),  # votes not n long
        (1, np.zeros((2, 8), np.int32)[:, ::2]),  # gaps between ids of a row
        (1, np.zeros((2, 9), np.int32)[:, :4]),  # gaps between rows
        (0, np.zeros((2, 4), np.int32)),  # offsets not 2**b + 1 wide
        # the kernel gets raw addresses, so every type and layout is checked
        (0, np.zeros((2, 5), np.int64)),  # offsets of the wrong type
        (1, np.zeros((2, 4), np.uint32)),  # members of the wrong type
        (2, np.zeros((2, 2), np.int32)),  # probes of the wrong type
        (3, np.zeros(2, np.int32)),  # units of the wrong type
        (4, np.ones(2, np.int32)),  # budgets of the wrong type
        (5, np.zeros(4, np.int64)),  # votes of the wrong type
        (5, np.zeros(4, np.dtype("<i4").newbyteorder())),  # byte-swapped votes
        (2, np.zeros((2, 4), np.uint16)[:, ::2]),  # strided probes
        (0, np.zeros((5, 2), np.int32).T),  # offsets in Fortran order
        (3, np.zeros(4, np.uint32)[::2]),  # strided units
        (5, np.zeros(8, np.int32)[::2]),  # strided votes
        (5, _read_only_votes()),
    ],
    ids=[
        "budgets", "units", "votes", "member-gaps", "member-row-gaps",
        "offsets-width", "offsets-dtype", "members-dtype", "probes-dtype",
        "units-dtype", "budgets-dtype", "votes-dtype", "votes-byte-order",
        "probes-strided", "offsets-fortran", "units-strided", "votes-strided",
        "votes-read-only",
    ],
)
def test_gather_vote_rejects_disagreeing_shapes(position, replacement):
    args = list(_arrays())
    args[position] = replacement
    with pytest.raises(ValueError, match="shapes or strides"):
        vote.gather_vote(*args)


@pytest.mark.parametrize(
    "position, value",
    [(4, 2), (2, 4)],  # budget past the row, code past 2**b
    ids=["budget", "code"],
)
def test_gather_vote_rejects_out_of_range_probes(position, value):
    args = list(_arrays())
    args[position].flat[-1] = value
    with pytest.raises(ValueError, match="corrupt hash table"):
        vote.gather_vote(*args)


def test_gather_vote_counts_ids_stored_out_of_order():
    # one 1-bit table over 30k records, so the ids span 4 tiles of 8192:
    # bucket 0 holds the even ids in descending order, bucket 1 the odd
    # ids ascending; a descending bucket is added in later tiles, exactly
    n = 30_000
    members = np.concatenate((np.arange(n - 2, -1, -2), np.arange(1, n, 2)))
    offsets = np.array([[0, n // 2, n]], dtype=np.int32)
    probes = np.array([[0, 1]], dtype=np.uint16)
    units = np.array([2, 1], dtype=np.uint32)
    votes = np.zeros(n, np.int32)
    scanned = vote.gather_vote(
        offsets, members.astype(np.int32)[np.newaxis, :], probes, units,
        np.ones(1, np.int64), votes,
    )
    assert scanned == n
    assert np.array_equal(votes, np.where(np.arange(n) % 2 == 0, 2, 1))


def _sort_inputs(codes, bits):
    """``offsets`` and ``order`` filled with junk, which the sort
    overwrites, and ``members`` holding table t's codes (column t of
    ``codes``) in the upper half of row t."""
    n, num_tables = codes.shape
    offsets = np.full((num_tables, (1 << bits) + 1), -7, np.int32)
    members = np.full((num_tables, n), -7, np.int32)
    members.view(np.uint16)[:, n:] = codes.T
    return offsets, members, np.full(n, -7, np.int32)


def test_bucket_sort_groups_ascending_ids_by_code():
    # two 2-bit tables over 5 records, given record-major
    codes = np.array([[3, 0], [1, 0], [3, 2], [0, 0], [1, 3]], dtype=np.uint16)
    offsets, members, order = _sort_inputs(codes, 2)
    vote.bucket_sort(offsets, members, order)
    assert offsets.tolist() == [[0, 1, 3, 3, 5], [0, 3, 3, 4, 5]]
    # records in table 0's bucket order: record 3 (code 0), 1 and 4 (code
    # 1), 0 and 2 (code 3); internal id i is record order[i]
    assert order.tolist() == [3, 1, 4, 0, 2]
    assert members[0].tolist() == [0, 1, 2, 3, 4]
    # table 1's codes by internal id are 0, 0, 3, 0, 2: bucket 0 holds
    # internal ids 0, 1 and 3 (records 3, 1 and 0), bucket 2 internal id 4
    # (record 2), bucket 3 internal id 2 (record 4)
    assert members[1].tolist() == [0, 1, 3, 4, 2]


@pytest.mark.parametrize("bits", [1, 8, 16])
def test_bucket_sort_rejects_a_code_past_2_bits(bits):
    codes = np.zeros((6, 3), dtype=np.uint16)
    codes[4, 2] = (1 << bits) - 1
    vote.bucket_sort(*_sort_inputs(codes, bits))  # the largest code fits
    codes[1, 0] = (1 << bits) - 1  # and so it does in table 0
    vote.bucket_sort(*_sort_inputs(codes, bits))
    if bits < 16:  # a 17-bit code does not fit the uint16 codes
        codes[4, 2] = 1 << bits
        with pytest.raises(ValueError, match=f"out of range for {bits} bits"):
            vote.bucket_sort(*_sort_inputs(codes, bits))


@pytest.mark.parametrize(
    "offsets_shape, members_shape, order_size",
    [((3, 5), (2, 6), 6), ((2, 4), (2, 6), 6), ((2, 5), (2, 6), 5),
     ((0, 5), (0, 6), 6)],
    ids=["tables", "offsets-width", "order", "no-tables"],
)
def test_bucket_sort_rejects_disagreeing_shapes(
    offsets_shape, members_shape, order_size
):
    members = np.zeros(members_shape, np.int32)
    order = np.zeros(order_size, np.int32)
    with pytest.raises(ValueError, match="shapes do not agree"):
        vote.bucket_sort(np.zeros(offsets_shape, np.int32), members, order)


def _record(counts, ids, bits=2):
    """A table record's counts, as load_index reads them into a row of
    offsets (entry 0 junk), and its id row."""
    offsets = np.full((1 << bits) + 1, -7, np.int32)
    offsets[1:] = np.array(counts, np.uint32).view(np.int32)
    return offsets, np.array(ids, np.uint32)


def test_check_table_turns_counts_into_offsets():
    offsets, ids = _record([2, 0, 1, 2], [4, 0, 2, 1, 3])
    assert vote.check_table(offsets, ids) == 0
    assert offsets.tolist() == [0, 2, 2, 3, 5]
    empty, none = _record([0, 0], [], bits=1)
    assert vote.check_table(empty, none) == 0
    assert empty.tolist() == [0, 0, 0]


@pytest.mark.parametrize(
    "counts, ids, status",
    [
        ([2, 0, 1, 1], [4, 0, 2, 1, 3], vote.COUNTS_OFF),
        # 2**32 - 1 + 6 wraps to 5 in 32 bits: summed exactly it is not 5
        ([2**32 - 1, 6, 0, 0], [4, 0, 2, 1, 3], vote.COUNTS_OFF),
        ([2, 0, 1, 2], [4, 0, 2, 1, 5], vote.ID_OUT_OF_RANGE),
        ([2, 0, 1, 2], [4, 0, 2, 1, 2**31], vote.ID_OUT_OF_RANGE),
        ([2, 0, 1, 2], [4, 0, 2, 1, 2**32 - 1], vote.ID_OUT_OF_RANGE),
        # in range but not a permutation: a bit of an id flipped
        ([2, 0, 1, 2], [4, 0, 2, 1, 3 ^ 1], vote.NOT_A_PERMUTATION),
        # counts that do not add up win over bad ids, as load_index reads
        ([2, 0, 1, 1], [4, 0, 2, 1, 9], vote.COUNTS_OFF),
        ([2, 0, 1, 2], [9, 0, 2, 1, 2], vote.ID_OUT_OF_RANGE),
    ],
    ids=[
        "counts", "counts-wrap", "id=n", "id=2**31", "id=-1", "flip",
        "counts-first", "range-first",
    ],
)
def test_check_table_reports_the_first_check_that_fails(counts, ids, status):
    offsets, ids = _record(counts, ids)
    before = offsets.copy()
    assert vote.check_table(offsets, ids) == status
    if status == vote.COUNTS_OFF:
        assert np.array_equal(offsets, before)


def test_check_table_reads_every_id_of_a_long_row():
    # past any vector width and remainder loop: one bad id at either end
    n = 100_003
    offsets, ids = _record([n, 0], np.arange(n), bits=1)
    assert vote.check_table(offsets, ids) == 0
    for at in (0, n - 1):
        offsets, ids = _record([n, 0], np.arange(n), bits=1)
        ids[at] = n
        assert vote.check_table(offsets, ids) == vote.ID_OUT_OF_RANGE


@pytest.mark.parametrize(
    "offsets, ids",
    [
        (np.zeros(4, np.int32), np.zeros(3, np.uint32)),  # not 2**b + 1 wide
        (np.zeros(3, np.int64), np.zeros(2, np.uint32)),
        (np.zeros(3, np.int32), np.zeros(2, np.int64)),
        (np.zeros(3, np.int32), np.zeros(4, np.uint32)[::2]),
        (np.zeros((1, 3), np.int32), np.zeros(2, np.uint32)),
        (np.zeros(3, np.int32), np.zeros((1, 2), np.uint32)),
    ],
    ids=["width", "offsets-dtype", "ids-dtype", "ids-strided", "offsets-2d", "ids-2d"],
)
def test_check_table_rejects_disagreeing_arrays(offsets, ids):
    with pytest.raises(ValueError, match="do not agree"):
        vote.check_table(offsets, ids)


def _filter_inputs():
    """One 2-bit table over three records in dimension 2: its dots, the
    records, the projections and a bound that decides every sign of these
    dots (each at least 0.5 from 0)."""
    proj = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    x = np.array([[1.0, -1.0], [-2.0, 3.0], [0.5, 0.5]], dtype=np.float32)
    bound = 0.1
    return np.ascontiguousarray((proj @ x.T).astype(np.float32)), x, proj, bound


def test_sign_filter_keeps_decided_signs_and_recomputes_the_rest():
    dots, x, proj, bound = _filter_inputs()
    sign_filter = vote.SignFilter(proj, bound, 2.0**250)
    out = np.zeros((3, 1), np.uint16)
    assert sign_filter(dots, x, 2, out) == 0
    assert out[:, 0].tolist() == [0b01, 0b10, 0b11]
    # a dot within its limit, or NaN, is recomputed from x and proj; wrong
    # float32 signs that the bound decides are kept as given
    dots[0, 0], dots[1, 1], dots[1, 2] = 0.01, np.nan, -5.0
    assert sign_filter(dots, x, 2, out) == 2
    assert out[:, 0].tolist() == [0b01, 0b10, 0b01]
    # a row whose squared norm is not below safe_square is recomputed whole
    # (squares 2, 13 and 0.5)
    assert vote.SignFilter(proj, bound, 1.0)(dots, x, 2, out) == 4
    assert out[:, 0].tolist() == [0b01, 0b10, 0b01]
    assert vote.SignFilter(proj, bound, 0.5)(dots, x, 2, out) == 6
    assert out[:, 0].tolist() == [0b01, 0b10, 0b11]


def test_sign_filter_writes_codes_through_any_element_strides():
    dots, x, proj, bound = _filter_inputs()
    wide = np.zeros((3, 4), np.uint16)
    vote.SignFilter(proj, bound, 2.0**250)(dots, x, 2, wide[::-1, 2:3])
    assert wide[:, 2].tolist() == [0b11, 0b10, 0b01]
    assert not wide[:, [0, 1, 3]].any()


def _read_only_codes():
    codes = np.zeros((3, 1), np.uint16)
    codes.setflags(write=False)
    return codes


@pytest.mark.parametrize(
    "position, replacement",
    [
        (0, np.zeros((2, 2), np.float32)),  # dots of two rows for three
        (0, np.zeros((2, 3), np.float64)),
        (1, np.zeros((3, 3), np.float32)),  # rows of the wrong dimension
        (3, np.zeros((3, 1), np.uint32)),  # codes of the wrong type
        (3, np.zeros((3, 4), np.uint16)[:, ::3]),  # two tables for one
        (3, _read_only_codes()),
    ],
)
def test_sign_filter_rejects_disagreeing_arrays(position, replacement):
    dots, x, proj, bound = _filter_inputs()
    args = [dots, x, 2, np.zeros((3, 1), np.uint16)]
    args[position] = replacement
    with pytest.raises(ValueError, match="do not agree"):
        vote.SignFilter(proj, bound, 2.0**250)(*args)
    with pytest.raises(ValueError, match="C-contiguous float32"):
        vote.SignFilter(proj.astype(np.float64), bound, 2.0**250)
