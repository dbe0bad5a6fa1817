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
    tables = ProjectionTable(np.ones((4, 1)), offsets, wide[:, :4])
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
    ],
    ids=[
        "budgets", "units", "votes", "member-gaps", "member-row-gaps",
        "offsets-width",
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
    """``offsets`` filled with junk, which the sort overwrites, and
    ``members`` holding table t's codes (column t of ``codes``) in the upper
    half of row t."""
    n, num_tables = codes.shape
    offsets = np.full((num_tables, (1 << bits) + 1), -7, np.int32)
    members = np.full((num_tables, n), -7, np.int32)
    members.view(np.uint16)[:, n:] = codes.T
    return offsets, members


def test_bucket_sort_groups_ascending_ids_by_code():
    # two 2-bit tables over 5 records, given record-major
    codes = np.array([[3, 0], [1, 0], [3, 2], [0, 0], [1, 3]], dtype=np.uint16)
    offsets, members = _sort_inputs(codes, 2)
    vote.bucket_sort(offsets, members)
    assert offsets.tolist() == [[0, 1, 3, 3, 5], [0, 3, 3, 4, 5]]
    assert members.tolist() == [[3, 1, 4, 0, 2], [0, 1, 3, 2, 4]]


@pytest.mark.parametrize("bits", [1, 8, 16])
def test_bucket_sort_rejects_a_code_past_2_bits(bits):
    codes = np.zeros((6, 3), dtype=np.uint16)
    codes[4, 2] = (1 << bits) - 1
    vote.bucket_sort(*_sort_inputs(codes, bits))  # the largest code fits
    if bits < 16:  # a 17-bit code does not fit the uint16 codes
        codes[4, 2] = 1 << bits
        with pytest.raises(ValueError, match=f"out of range for {bits} bits"):
            vote.bucket_sort(*_sort_inputs(codes, bits))


@pytest.mark.parametrize(
    "offsets_shape", [(3, 5), (2, 4)], ids=["tables", "offsets-width"]
)
def test_bucket_sort_rejects_disagreeing_shapes(offsets_shape):
    members = np.zeros((2, 6), np.int32)
    with pytest.raises(ValueError, match="shapes do not agree"):
        vote.bucket_sort(np.zeros(offsets_shape, np.int32), members)


def _filter_inputs():
    """One 2-bit table over three records in dimension 2: its dots, the
    records, the projections and a filter whose bounds decide every sign
    of these dots (each at least 0.5 from 0)."""
    proj = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    x = np.array([[1.0, -1.0], [-2.0, 3.0], [0.5, 0.5]], dtype=np.float32)
    bound = np.full(2, 0.1, dtype=np.float32)
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
    with pytest.raises(ValueError, match="do not agree"):
        vote.SignFilter(proj.astype(np.float64), bound, 2.0**250)
