import ctypes
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from boi import vote
from boi.hashing import ProjectionTable
from boi.index import _bound_plan, probe_plan
from probe_rows import margin_rows


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
    2**-2 at distances 0 and 1). The code width, then the directory: every
    bucket is non-empty, so each table's one word has bits 0-3 set, its
    piece of offsets is 0..4, and its rank is where that piece begins, 0
    and 5."""
    bitmap = np.full((2, 1), 0b1111, dtype=np.uint64)
    rank = np.array([[0], [5]], dtype=np.int32)
    offsets = np.tile(np.arange(5, dtype=np.int32), 2)
    members = np.tile(np.arange(4, dtype=np.int32), (2, 1))
    probes = np.tile(np.array([0, 1], dtype=np.uint16), (2, 1))
    units = np.array(units, dtype=np.uint32)
    budgets = np.ones(2, dtype=np.int64)
    votes = np.zeros(4, np.int32)
    return 2, bitmap, rank, offsets, members, probes, units, budgets, votes


def plan_for(probes, units, budgets) -> vote.ProbePlan:
    """A plan as wide as the probe rows, of 1-bit masks (0, then 1s, so
    that no shell is reordered), with these units and budgets."""
    width = np.shape(probes)[-1]
    masks = np.minimum(np.arange(width), 1).astype(np.uint16)
    shells = np.zeros((budgets.size, 2), np.int64)
    return vote.ProbePlan(1, masks, units, budgets, shells)


def gather_vote(bits, bitmap, rank, offsets, members, probes, units, budgets, votes) -> int:
    """The vote kernel bound to a table and a plan, then called as a query
    calls it, with only its probe rows and votes."""
    plan = plan_for(probes, units, budgets)
    return vote.GatherVote(bits, bitmap, rank, offsets, members)(plan, probes, votes)


def test_gather_vote_sums_and_counts():
    args = _arrays()
    assert gather_vote(*args) == 4
    assert args[-1].tolist() == [8, 4, 0, 0]


def test_gather_vote_adds_the_units_it_is_given():
    # units need not be powers of two: the kernel only adds them
    args = _arrays(units=(3, 5))
    assert gather_vote(*args) == 4
    assert args[-1].tolist() == [6, 10, 0, 0]


def test_gather_vote_skips_empty_buckets_and_finds_each_piece():
    # two 7-bit tables over 3 records: table 0 holds records in buckets 3
    # and 100 (word 1, bit 36), table 1 all three in bucket 127; each
    # probes buckets 3, 100, 127 and 0, worth 8, 4, 2 and 1. Table 1's
    # piece begins at position 3 of the offsets
    bitmap = np.array([[1 << 3, 1 << 36], [0, 1 << 63]], dtype=np.uint64)
    rank = np.array([[0, 1], [3, 3]], dtype=np.int32)
    offsets = np.array([0, 2, 3, 0, 3], dtype=np.int32)
    members = np.array([[0, 1, 2], [0, 1, 2]], dtype=np.int32)
    probes = np.tile(np.array([3, 100, 127, 0], dtype=np.uint16), (2, 1))
    units = np.array([8, 4, 2, 1], dtype=np.uint32)
    votes = np.zeros(3, np.int32)
    budgets = np.full(2, 3, dtype=np.int64)
    plan = vote.ProbePlan(7, np.array([0, 1, 2, 3], np.uint16), units, budgets,
                          np.zeros((2, 2), np.int64))
    scanned = vote.GatherVote(7, bitmap, rank, offsets, members)(plan, probes, votes)
    assert scanned == 6
    assert votes.tolist() == [8 + 2, 8 + 2, 4 + 2]


def test_projection_table_stores_strided_members_contiguously():
    _, bitmap, rank, offsets, members, *rest = _arrays()
    wide = np.zeros((2, 9), dtype=np.int32)
    wide[:, :4] = members
    tables = ProjectionTable(np.ones((4, 1)), bitmap, offsets, wide[:, :4], np.arange(4))
    assert np.array_equal(tables.rank, rank)
    assert tables.members.flags.c_contiguous
    assert np.array_equal(tables.members, members)
    probes, units, budgets, votes = rest
    # the table's own binding, made once by its constructor
    assert tables.gather_vote(plan_for(probes, units, budgets), probes, votes) == 4
    assert votes.tolist() == [8, 4, 0, 0]


@pytest.mark.parametrize(
    "position, replacement",
    [
        (7, np.ones(1, np.int64)),  # budgets shorter than L
        (6, np.zeros(1, np.uint32)),  # units shorter than a probe row
        (8, np.zeros(5, np.int32)),  # votes not n long
        (4, np.zeros((2, 8), np.int32)[:, ::2]),  # gaps between ids of a row
        (4, np.zeros((2, 9), np.int32)[:, :4]),  # gaps between rows
        # dense (L, 2**b + 1) offsets, where the directory's are one row
        (3, np.zeros((2, 5), np.int32)),
        # the kernel gets raw addresses, so every type and layout is checked
        (3, np.zeros(10, np.int64)),  # offsets of the wrong type
        (4, np.zeros((2, 4), np.uint32)),  # members of the wrong type
        (5, np.zeros((2, 2), np.int32)),  # probes of the wrong type
        (6, np.zeros(2, np.int32)),  # units of the wrong type
        (7, np.ones(2, np.int32)),  # budgets of the wrong type
        (8, np.zeros(4, np.int64)),  # votes of the wrong type
        (8, np.zeros(4, np.dtype("<i4").newbyteorder())),  # byte-swapped votes
        (5, np.zeros((2, 4), np.uint16)[:, ::2]),  # strided probes
        (3, np.zeros((5, 2), np.int32).T),  # offsets in Fortran order
        (6, np.zeros(4, np.uint32)[::2]),  # strided units
        (8, np.zeros(8, np.int32)[::2]),  # strided votes
        (8, _read_only_votes()),
        (1, np.zeros((2, 1), np.int64)),  # bitmap of the wrong type
        (1, np.zeros((2, 2), np.uint64)),  # bitmap of two words for 2 bits
        (2, np.zeros((2, 1), np.uint32)),  # rank of the wrong type
        (2, np.zeros((1, 1), np.int32)),  # rank of one table
        (3, np.zeros(20, np.int32)[::2]),  # strided offsets
    ],
    ids=[
        "budgets", "units", "votes", "member-gaps", "member-row-gaps",
        "offsets-width", "offsets-dtype", "members-dtype", "probes-dtype",
        "units-dtype", "budgets-dtype", "votes-dtype", "votes-byte-order",
        "probes-strided", "offsets-fortran", "units-strided", "votes-strided",
        "votes-read-only", "bitmap-dtype", "bitmap-width", "rank-dtype",
        "rank-tables", "offsets-strided",
    ],
)
def test_gather_vote_rejects_disagreeing_shapes(position, replacement):
    args = list(_arrays())
    args[position] = replacement
    # a plan of the wrong number of tables is refused as such
    with pytest.raises(
        ValueError, match="expected a (C-contiguous aligned|plan of 2 tables, got 1)"
    ):
        gather_vote(*args)


@pytest.mark.parametrize("bits", [0, 17])
def test_gather_vote_binds_only_a_valid_code_width(bits):
    args = list(_arrays())
    args[0] = bits
    with pytest.raises(ValueError, match=r"bits must be in \[1, 16\]"):
        gather_vote(*args)


@pytest.mark.parametrize(
    "position, value, message",
    [
        # a budget past the row is refused when the plan is bound
        (7, 2, r"budgets must be in \[0, 1\]"),
        (5, 4, "corrupt hash table"),  # a code past 2**b, by the kernel
    ],
    ids=["budget", "code"],
)
def test_gather_vote_rejects_out_of_range_probes(position, value, message):
    args = list(_arrays())
    args[position].flat[-1] = value
    with pytest.raises(ValueError, match=message):
        gather_vote(*args)


@pytest.mark.parametrize(
    "position, at, value",
    [
        (3, 2, 0),  # table 0's offsets decrease: bucket 1 is [1, 0)
        (3, 1, 5),  # an offset past n = 4
        (3, 0, -1),  # a negative offset
        (3, 6, 9),  # table 1's: its bucket 1 stops past n
        (2, 1, 2**30),  # table 1's rank points past the offsets
        (2, 1, -(2**31)),  # and before them
        (2, 0, 9),  # table 0's rank at the last offset: bucket 0 ends past it
    ],
    ids=["decreasing", "past-n", "negative", "past-n-table-1", "rank-past",
         "rank-before", "rank-table-0"],
)
def test_gather_vote_refuses_a_corrupt_directory(position, at, value):
    # bound directly, with no ProjectionTable to check the directory first:
    # the kernel's own range checks refuse whatever would read or write out
    # of bounds (the sanitizer job runs these under ASan and UBSan). A rank
    # or a bit that only moves a bucket within the offsets gives a wrong
    # answer in range; a table makes its rank with check_directory (below),
    # which refuses such a bit
    args = list(_arrays())
    args[position].flat[at] = value
    with pytest.raises(ValueError, match="corrupt hash table"):
        gather_vote(*args)


def test_gather_vote_counts_ids_stored_out_of_order():
    # one 1-bit table over 30k records, so the ids span 4 tiles of 8192:
    # bucket 0 holds the even ids in descending order, bucket 1 the odd
    # ids ascending; a descending bucket is added in later tiles, exactly
    n = 30_000
    members = np.concatenate((np.arange(n - 2, -1, -2), np.arange(1, n, 2)))
    bitmap = np.array([[0b11]], dtype=np.uint64)
    offsets = np.array([0, n // 2, n], dtype=np.int32)
    probes = np.array([[0, 1]], dtype=np.uint16)
    units = np.array([2, 1], dtype=np.uint32)
    votes = np.zeros(n, np.int32)
    scanned = gather_vote(
        1, bitmap, np.zeros((1, 1), np.int32), offsets,
        members.astype(np.int32)[np.newaxis, :], probes, units,
        np.ones(1, np.int64), votes,
    )
    assert scanned == n
    assert np.array_equal(votes, np.where(np.arange(n) % 2 == 0, 2, 1))


def _directory(bits=7):
    """One 7-bit table of 3 records, in buckets 3 and 5 (word 0) and 70
    (word 1), as ``(bits, bitmap, offsets, n)``."""
    bitmap = np.array([[(1 << 3) | (1 << 5), 1 << 6]], dtype=np.uint64)
    return bits, bitmap, np.array([0, 1, 2, 3], dtype=np.int32), 3


@pytest.mark.parametrize(
    "position, at, value, fault",
    [
        (2, 1, 2, "do not rise"),  # two offsets equal
        (2, 2, 0, "do not rise"),  # decreasing
        (2, 3, 4, "do not rise"),  # the last past n
        (2, 0, 1, "do not rise"),  # the first not 0
        (1, 1, (1 << 6) | 1, "one value per set bit"),
        (0, 0, 2, r"code at or past 2\*\*2"),  # 2 bits: bit 5 names no code
    ],
    ids=["equal", "decreasing", "past-n", "first", "extra-bit", "bit-past-2-bits"],
)
def test_check_directory_names_the_first_fault(position, at, value, fault):
    args = list(_directory())
    assert vote.check_directory(*args).tolist() == [[0, 2]]
    if position == 0:
        args[0], args[1] = value, args[1][:, :1].copy()
    else:
        args[position].flat[at] = value
    with pytest.raises(ValueError, match=fault):
        vote.check_directory(*args)


def test_check_directory_reads_every_table_of_a_long_directory():
    # 16-bit tables: 1024 words each; the last word of each table holds its
    # 5 buckets, and a fault in the last offset of the last table is found
    bits, num_tables, n = 16, 3, 5
    bitmap = np.zeros((num_tables, 1024), np.uint64)
    bitmap[:, -1] = np.uint64(0b11111 << 59)
    offsets = np.tile(np.arange(n + 1, dtype=np.int32), num_tables)
    rank = vote.check_directory(bits, bitmap, offsets, n)
    assert rank.tolist() == [[0] * 1024, [6] * 1024, [12] * 1024]
    offsets[-1] = n - 1
    with pytest.raises(ValueError, match="do not rise"):
        vote.check_directory(bits, bitmap, offsets, n)
    with pytest.raises(ValueError, match="one value per set bit"):
        vote.check_directory(bits, bitmap, offsets[:-1], n)


def test_check_directory_refuses_more_offsets_than_int32_ranks_reach():
    # the count alone is passed: the compiled check refuses 2**31 offsets
    # before it reads one, and 2**31 - 1 as too many for this directory,
    # reading no more than its 4
    bits, bitmap, offsets, n = _directory()
    rank = np.empty(bitmap.shape, np.int32)
    for size, status in ((4, 0), (2**31 - 1, 2), (2**31, -1)):
        args = (bitmap.ctypes.data, offsets.ctypes.data, size, rank.ctypes.data)
        assert vote._library.boi_check_directory(1, bits, n, *args) == status


def _sort_inputs(codes, bits):
    """The code width, ``members`` holding table t's codes (column t of
    ``codes``) in the upper half of row t, and ``order`` filled with junk,
    which the sort overwrites."""
    n, num_tables = codes.shape
    members = np.full((num_tables, n), -7, np.int32)
    members.view(np.uint16)[:, n:] = codes.T
    return bits, members, np.full(n, -7, np.int32)


def test_bucket_sort_groups_ascending_ids_by_code():
    # two 2-bit tables over 5 records, given record-major
    codes = np.array([[3, 0], [1, 0], [3, 2], [0, 0], [1, 3]], dtype=np.uint16)
    bits, members, order = _sort_inputs(codes, 2)
    bitmap, offsets = vote.bucket_sort(bits, members, order)
    # table 0 holds codes 0, 1 and 3, table 1 codes 0, 2 and 3: dense
    # offsets [0, 1, 3, 3, 5] and [0, 3, 3, 4, 5], less their empty buckets
    assert bitmap.tolist() == [[0b1011], [0b1101]]
    assert offsets.tolist() == [0, 1, 3, 5, 0, 3, 4, 5]
    # records in table 0's bucket order: record 3 (code 0), 1 and 4 (code
    # 1), 0 and 2 (code 3); internal id i is record order[i]
    assert order.tolist() == [3, 1, 4, 0, 2]
    assert members[0].tolist() == [0, 1, 2, 3, 4]
    # table 1's codes by internal id are 0, 0, 3, 0, 2: bucket 0 holds
    # internal ids 0, 1 and 3 (records 3, 1 and 0), bucket 2 internal id 4
    # (record 2), bucket 3 internal id 2 (record 4)
    assert members[1].tolist() == [0, 1, 3, 4, 2]


def test_bucket_sort_ranks_the_words_of_a_wide_table():
    # one 8-bit table over 4 records, in buckets 1, 70, 70 and 200: words
    # 0, 1 and 3 hold a bucket each, so the ranks are 0, 1, 2, 2
    codes = np.array([[70], [1], [200], [70]], dtype=np.uint16)
    bitmap, offsets = vote.bucket_sort(*_sort_inputs(codes, 8))
    assert bitmap.tolist() == [[1 << 1, 1 << 6, 0, 1 << 8]]
    assert offsets.tolist() == [0, 1, 3, 4]
    assert vote.check_directory(8, bitmap, offsets, 4).tolist() == [[0, 1, 2, 2]]


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
    "bits, members_shape, order_size, message",
    [(2, (6,), 6, "expected a"), (17, (2, 6), 6, r"bits must be in \[1, 16\]"),
     (2, (2, 6), 5, "expected a"), (2, (0, 6), 6, "at least one table")],
    ids=["tables", "offsets-width", "order", "no-tables"],
)
def test_bucket_sort_rejects_disagreeing_shapes(
    bits, members_shape, order_size, message
):
    # "tables": members with no row per table; "offsets-width": a code
    # width whose one table's 2**b + 1 offsets no table can have
    members = np.zeros(members_shape, np.int32)
    order = np.zeros(order_size, np.int32)
    with pytest.raises(ValueError, match=message):
        vote.bucket_sort(bits, members, order)


def _record(sizes, ids, bits=2, codes=None):
    """One table's arrays as load_index reads its record into them: the
    bitmap of its non-empty ``codes`` (the first len(sizes) codes unless
    given), its bucket sizes in offsets[1:] (entry 0 junk) and its id row;
    with ``bits``, the arguments of vote.TableCheck."""
    bitmap = np.zeros((1, vote.directory_words(bits)), np.uint64)
    for c in range(len(sizes)) if codes is None else codes:
        bitmap[0, c // 64] |= np.uint64(1 << (c % 64))
    offsets = np.full(len(sizes) + 1, -7, np.int32)
    offsets[1:] = np.array(sizes, np.uint32).view(np.int32)
    members = np.array(ids, np.uint32).view(np.int32)[np.newaxis]
    return bits, bitmap, offsets, members


def check_table(bits, bitmap, offsets, members, table=0, at=0):
    """TableCheck bound to the arrays, called on one table."""
    return vote.TableCheck(bits, bitmap, offsets, members)(table, at)


def test_check_table_turns_counts_into_offsets():
    # buckets 0, 2 and 3 hold 2, 1 and 2 records
    record = _record([2, 1, 2], [4, 0, 2, 1, 3], codes=[0, 2, 3])
    assert vote.TableCheck(*record).buckets(0) == 3
    # the length of the piece, in place of the sizes
    assert check_table(*record) == 4
    assert record[2].tolist() == [0, 2, 3, 5]
    empty = _record([], [], bits=1)
    assert check_table(*empty) == 1
    assert empty[2].tolist() == [0]


def test_check_table_ranks_the_words_of_a_wide_table():
    # 8 bits: 3 records in bucket 5, 1 in 130, 2 in 255
    bits, bitmap, offsets, members = _record(
        [3, 1, 2], [5, 0, 4, 1, 3, 2], bits=8, codes=[5, 130, 255]
    )
    assert bitmap.tolist() == [[1 << 5, 0, 1 << 2, 1 << 63]]
    assert check_table(bits, bitmap, offsets, members) == 4
    assert offsets.tolist() == [0, 3, 4, 6]
    rank = vote.check_directory(8, bitmap, offsets, 6)
    assert rank.tolist() == [[0, 1, 1, 2]]


def test_check_table_checks_each_table_at_its_own_piece():
    # two 2-bit tables of 3 records: table 1's piece begins after table 0's 2
    bits = 2
    bitmap = np.array([[0b0010], [0b1001]], np.uint64)
    offsets = np.array([-7, 3, -7, 1, 2], np.int32)
    members = np.array([[2, 0, 1], [1, 0, 2]], np.int32)
    check = vote.TableCheck(bits, bitmap, offsets, members)
    assert [check.buckets(0), check.buckets(1)] == [1, 2]
    assert check(0, 0) == 2 and check(1, 2) == 3
    assert offsets.tolist() == [0, 3, 0, 1, 3]
    assert vote.check_directory(bits, bitmap, offsets, 3).tolist() == [[0], [2]]
    for table, at in ((2, 0), (-1, 0), (1, 3), (0, -1)):
        with pytest.raises(ValueError, match="TableCheck: table"):
            check(table, at)
    with pytest.raises(ValueError, match=r"not in \[0, 2\)"):
        check.buckets(2)


@pytest.mark.parametrize(
    "sizes, ids, status",
    [
        ([2, 1, 1], [4, 0, 2, 1, 3], vote.SIZES_OFF),
        # 2**32 - 1 + 6 wraps to 5 in 32 bits: summed exactly it is not 5
        ([2**32 - 1, 6], [4, 0, 2, 1, 3], vote.SIZES_OFF),
        ([2, 1, 2], [4, 0, 2, 1, 5], vote.ID_OUT_OF_RANGE),
        ([2, 1, 2], [4, 0, 2, 1, 2**31], vote.ID_OUT_OF_RANGE),
        ([2, 1, 2], [4, 0, 2, 1, 2**32 - 1], vote.ID_OUT_OF_RANGE),
        # in range but not a permutation: a bit of an id flipped
        ([2, 1, 2], [4, 0, 2, 1, 3 ^ 1], vote.NOT_A_PERMUTATION),
        # sizes that do not add up win over bad ids, as load_index reads
        ([2, 1, 1], [4, 0, 2, 1, 9], vote.SIZES_OFF),
        ([2, 1, 2], [9, 0, 2, 1, 2], vote.ID_OUT_OF_RANGE),
        ([2, 0, 3], [4, 0, 2, 1, 3], vote.EMPTY_BUCKET),
        # an empty bucket wins over a sum that is off
        ([2, 0, 1], [4, 0, 2, 1, 3], vote.EMPTY_BUCKET),
    ],
    ids=[
        "counts", "counts-wrap", "id=n", "id=2**31", "id=-1", "flip",
        "counts-first", "range-first", "empty", "empty-first",
    ],
)
def test_check_table_reports_the_first_check_that_fails(sizes, ids, status):
    record = _record(sizes, ids)
    offsets = record[2]
    before = offsets.copy()
    assert check_table(*record) == status
    if status in (vote.EMPTY_BUCKET, vote.SIZES_OFF):
        assert np.array_equal(offsets, before)


def test_check_table_refuses_a_bit_past_2_bits():
    # 2 bits: bit 4 of the word stands for no code
    bits, bitmap, offsets, members = _record([2, 1, 2], [4, 0, 2, 1, 3])
    bitmap[0, 0] |= np.uint64(1 << 4)
    before = offsets.copy()
    assert vote.TableCheck(bits, bitmap, offsets, members).buckets(0) == vote.BIT_PAST
    assert check_table(bits, bitmap, offsets, members) == vote.BIT_PAST
    assert np.array_equal(offsets, before)


def test_check_table_reads_every_id_of_a_long_row():
    # past any vector width and remainder loop: one bad id at either end
    n = 100_003
    record = _record([n], np.arange(n), bits=1)
    assert check_table(*record) == 2  # one bucket: [0, n]
    for at in (0, n - 1):
        record = _record([n], np.arange(n), bits=1)
        record[3][0, at] = n
        assert check_table(*record) == vote.ID_OUT_OF_RANGE


_WORD = np.zeros((1, 1), np.uint64)
_IDS = np.zeros((1, 2), np.int32)


@pytest.mark.parametrize(
    "bits, bitmap, offsets, members, message",
    [
        # one table of two records in every case but those about the ids
        (1, _WORD, np.zeros(3, np.int32), np.zeros((2, 2), np.int32),
         r"int32 array of shape \(1, 2\)"),
        (1, _WORD, np.zeros(3, np.int64), _IDS, r"int32 array of shape \(3,\)"),
        (1, _WORD, np.zeros(3, np.int32), _IDS.astype(np.int64),
         r"int32 array of shape \(1, 2\)"),
        (1, _WORD, np.zeros(3, np.int32), _IDS.astype(np.uint32),
         r"int32 array of shape \(1, 2\)"),
        (1, _WORD, np.zeros(3, np.int32), np.zeros((1, 4), np.int32)[:, ::2],
         "C-contiguous False"),
        (1, _WORD, np.zeros((1, 3), np.int32), _IDS, r"of shape \(1, 3\) "),
        (1, _WORD, np.zeros(3, np.int32), _IDS[np.newaxis], r"of shape \(1, 1, 2\) "),
        (0, _WORD, np.zeros(3, np.int32), _IDS, r"bits must be in \[1, 16\]"),
        (17, _WORD, np.zeros(3, np.int32), _IDS, r"bits must be in \[1, 16\]"),
        (1, _WORD.astype(np.int64), np.zeros(3, np.int32), _IDS,
         r"uint64 array of shape \(1, 1\)"),
        (7, _WORD, np.zeros(3, np.int32), _IDS, r"uint64 array of shape \(1, 2\)"),
    ],
    ids=[
        "width", "offsets-dtype", "ids-dtype", "ids-uint32", "ids-strided",
        "offsets-2d", "ids-2d", "bits-0", "bits-17", "bitmap-dtype",
        "bitmap-words",
    ],
)
def test_check_table_rejects_disagreeing_arrays(bits, bitmap, offsets, members, message):
    with pytest.raises(ValueError, match=message):
        vote.TableCheck(bits, bitmap, offsets, members)


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
    sign_filter = vote.SignFilter(proj, 2, bound, 2.0**250)
    out = np.zeros((3, 1), np.uint16)
    assert sign_filter(dots, x, out) == 0
    assert out[:, 0].tolist() == [0b01, 0b10, 0b11]
    # a dot within its limit, or NaN, is recomputed from x and proj; wrong
    # float32 signs that the bound decides are kept as given
    dots[0, 0], dots[1, 1], dots[1, 2] = 0.01, np.nan, -5.0
    assert sign_filter(dots, x, out) == 2
    assert out[:, 0].tolist() == [0b01, 0b10, 0b01]
    # a row whose squared norm is not below safe_square is recomputed whole
    # (squares 2, 13 and 0.5)
    assert vote.SignFilter(proj, 2, bound, 1.0)(dots, x, out) == 4
    assert out[:, 0].tolist() == [0b01, 0b10, 0b01]
    assert vote.SignFilter(proj, 2, bound, 0.5)(dots, x, out) == 6
    assert out[:, 0].tolist() == [0b01, 0b10, 0b11]


def test_sign_filter_writes_codes_through_any_element_strides():
    dots, x, proj, bound = _filter_inputs()
    wide = np.zeros((3, 4), np.uint16)
    vote.SignFilter(proj, 2, bound, 2.0**250)(dots, x, wide[::-1, 2:3])
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
    # dots, rows, the code width the filter is made with, and the codes
    args = [dots, x, 2, np.zeros((3, 1), np.uint16)]
    args[position] = replacement
    dots, x, bits, out = args
    with pytest.raises(ValueError, match="expected"):
        vote.SignFilter(proj, bits, bound, 2.0**250)(dots, x, out)
    with pytest.raises(ValueError, match=r"float32 array of shape \(2, 2\)"):
        vote.SignFilter(proj.astype(np.float64), 2, bound, 2.0**250)


@pytest.mark.parametrize("bits", [0, 3, 17])
def test_sign_filter_takes_only_whole_tables_of_a_valid_width(bits):
    # the code width and the table layout are checked once, when the
    # filter is made: 2 projection rows hold no whole table of 0, 3 or 17
    _, _, proj, bound = _filter_inputs()
    with pytest.raises(ValueError, match="divide the 2 projection rows"):
        vote.SignFilter(proj, bits, bound, 2.0**250)
    assert vote.SignFilter(proj, 1, bound, 2.0**250).num_tables == 2


def _sign_filter_call(dots, x, out):
    _, _, proj, bound = _filter_inputs()
    return vote.SignFilter(proj, 2, bound, 2.0**250)(dots, x, out)


def _sign_filter_args():
    dots, x, _, _ = _filter_inputs()
    return dots, x, np.zeros((3, 1), np.uint16)


# each wrapper, arguments it accepts, and the positions of its input and
# its output arrays
_WRAPPERS = {
    "gather_vote": (gather_vote, _arrays, (1, 2, 3, 4, 5), (8,)),
    "bucket_sort": (
        vote.bucket_sort, lambda: _sort_inputs(np.zeros((5, 2), np.uint16), 2), (1,), (1, 2)
    ),
    "check_table": (
        check_table, lambda: _record([2, 1, 2], [4, 0, 2, 1, 3], bits=7), (1, 3), (2,)
    ),
    "check_directory": (vote.check_directory, _directory, (1, 2), ()),
    "sign_filter": (_sign_filter_call, _sign_filter_args, (0, 1), (2,)),
}


def _byte_swapped(array):
    return array.astype(array.dtype.newbyteorder())


def _strided(array):
    wide = np.zeros(array.shape[:-1] + (2 * array.shape[-1],), array.dtype)
    wide[..., ::2] = array
    return wide[..., ::2]


def _read_only(array):
    array.setflags(write=False)
    return array


_DEFECTS = {
    "byte-swapped": (_byte_swapped, False),
    "strided": (_strided, False),
    "read-only-output": (_read_only, True),
}


@pytest.mark.parametrize(
    "defect, wrapper",
    [
        (defect, wrapper)
        for wrapper, (*_, inputs, outputs) in _WRAPPERS.items()
        for defect, (_, output) in _DEFECTS.items()
        if (outputs if output else inputs)
    ],
    ids=lambda value: value,
)
def test_every_wrapper_names_the_array_it_needs(defect, wrapper):
    call, accepted, inputs, outputs = _WRAPPERS[wrapper]
    change, output = _DEFECTS[defect]
    call(*accepted())
    for at in outputs if output else inputs:
        args = list(accepted())
        expected = args[at]
        args[at] = change(expected.copy())
        needs = f"{expected.dtype} array of shape {expected.shape}"
        with pytest.raises(ValueError, match=re.escape(needs)):
            call(*args)


def _plan_args(bits=3, count=4, tables=2):
    """The masks, units, budgets and shells of ``tables`` tables probing
    ``count`` neighbors of ``probe_plan(bits, count)``, units by shell; the
    default count, 4, ends inside shell 2, at positions [4, 7)."""
    masks, dists = probe_plan(bits, count)
    units = (np.uint32(1) << (bits - dists)).astype(np.uint32)
    shells = np.tile(np.array([4, 7], np.int64), (tables, 1))
    return masks, units, np.full(tables, count, np.int64), shells


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda a: (0, *a), r"bits must be in \[1, 16\]"),
        (lambda a: (3, a[0][:0], a[1][:0], *a[2:]), "at least mask 0, got no masks"),
        (lambda a: (3, a[0].astype(np.int32), *a[1:]), r"uint16 array of shape \(7,\)"),
        (lambda a: (3, a[0], a[1][:5], *a[2:]), r"uint32 array of shape \(7,\)"),
        (lambda a: (3, *a[:2], a[2].astype(np.int32), a[3]), r"int64 array of shape \(2,\)"),
        (lambda a: (3, *a[:2], a[2] + 3, a[3]), r"budgets must be in \[0, 6\]"),
        (lambda a: (3, *a[:2], a[2] - 5, a[3]), r"budgets must be in \[0, 6\]"),
        (lambda a: (2, *a), "a mask has a bit past the 2-bit code"),
        (lambda a: (3, *a[:3], a[3][:1]), r"int64 array of shape \(2, 2\)"),
        (lambda a: (3, *a[:3], a[3] + 1), r"shells must be ranges within \[0, 7\]"),
        (lambda a: (3, *a[:3], a[3] - 5), r"shells must be ranges within \[0, 7\]"),
        (lambda a: (3, *a[:3], a[3][:, ::-1].copy()), r"shells must be ranges"),
    ],
    ids=["bits", "no-masks", "masks", "units", "budgets-dtype", "budget-past-row",
         "negative-budget", "mask-bit", "shells-shape", "shell-past-row",
         "negative-shell", "reversed-shell"],
)
def test_probe_plan_refuses_what_it_cannot_bind(change, message):
    with pytest.raises(ValueError, match=message):
        vote.ProbePlan(*change(_plan_args()))


def test_probe_rows_refuse_shells_changed_after_binding():
    # the kernel's own range check, not a heap failure, refuses them
    masks, units, budgets, shells = _plan_args()
    plan = vote.ProbePlan(3, masks, units, budgets, shells)
    shells[1] = [5, 2]
    with pytest.raises(ValueError, match=r"shells must be ranges within \[0, 7\]"):
        plan.rows(np.zeros(2, np.uint16), np.ones(6, np.float32))


def test_probe_rows_refuse_disagreeing_codes_and_dots():
    plan = vote.ProbePlan(3, *_plan_args())
    codes, dots = np.zeros(2, np.uint16), np.ones(6, np.float32)
    assert plan.rows(codes, dots).shape == (2, 7)
    for bad_codes, bad_dots, needs in (
        (codes.astype(np.int32), dots, r"uint16 array of shape \(2,\)"),
        (codes[:1], dots, r"uint16 array of shape \(2,\)"),
        (codes, dots.astype(np.float64), r"float32 array of shape \(6,\)"),
        (codes, np.ones(12, np.float32)[::2], r"float32 array of shape \(6,\)"),
    ):
        with pytest.raises(ValueError, match=needs):
            plan.rows(bad_codes, bad_dots)


def test_probe_rows_order_sums_that_float32_cannot_tell_apart():
    # margins 1, 2**-30 and 2**-31: masks 3, 5 and 6 sum to 1 + 2**-30,
    # 1 + 2**-31 and 3 * 2**-31. Rounded to float32 the first two are both
    # 1, so their order comes from the float64 sums: 6, 5, then 3
    plan = vote.ProbePlan(3, *_plan_args(3, 4, tables=1))
    masks = plan.masks
    dots = np.array([1.0, -(2.0**-30), 2.0**-31], np.float32)
    row = plan.rows(np.array([0b101], np.uint16), dots)[0]
    assert row.tolist() == [5, 4, 7, 1, 5 ^ 6, 5 ^ 5, 5 ^ 3]
    assert row.tolist() == margin_rows([5], dots, masks, [4], 3)[0]


def test_probe_rows_sort_a_shell_of_12870_masks_in_bounded_time():
    # b = 16 and budgets that stop inside shell 8, the largest: every
    # table sorts all C(16, 8) masks on the heap, ties and non-finite
    # margins included, as the oracle orders them
    first_of_shell_8 = sum(math.comb(16, d) for d in range(8))
    masks, dists = probe_plan(16, first_of_shell_8 + 100)
    budgets = np.array([first_of_shell_8 + 100, first_of_shell_8, 39_000], np.int64)
    plan = _bound_plan(16, masks, dists, np.ones(masks.size, np.uint32), budgets)
    assert plan.shells.tolist() == [[first_of_shell_8, masks.size]] * 3
    rng = np.random.default_rng(16)
    dots = rng.choice([0.25, -0.5, 1.0, 3.0e38, np.inf, np.nan], 48).astype(np.float32)
    dots[16:32] = rng.standard_normal(16)
    codes = np.array([0, 0xBEEF, 0xFFFF], np.uint16)
    start = time.perf_counter()
    rows = plan.rows(codes, dots)
    assert time.perf_counter() - start < 2.0
    assert rows.tolist() == margin_rows(codes, dots, masks, budgets, 16)
