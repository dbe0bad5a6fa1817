"""Weighted multi-probe accumulation over L hash tables.

Querying works in four stages:

1. hash the query once per table;
2. probe the query's own bucket plus a per-table budget of neighbor
   buckets, adding 1/2**H to every record found, where H is the bucket's
   Hamming distance from the query code;
3. keep the ``shortlist_size`` records with the highest accumulated
   weight (zero-weight records never qualify);
4. re-rank the shortlist by exact Euclidean distance and return the top k.

The per-table neighbor budget at table i is sum_{j=1..l} C(gamma_i, j),
where gamma_i follows the configured schedule and l is the probe radius.
With the default l=1 this is exactly gamma_i buckets. The budget may spill
past the radius-l shells (gamma_0 = 10 exceeds the 8 one-bit neighbors of
an 8-bit code); spilled buckets still contribute 1/2**H with their true
distance. In ``strict_radius`` mode probing is capped at the radius-l ball
instead, so no bucket beyond distance l is ever touched.

Neighbor probe order is re-shuffled per (query, table) from a PCG64 stream
derived from (seed, probe tag, query_index), which keeps batches
reproducible while avoiding a fixed probe order across experiments. Each
Hamming shell is drawn for all L tables in one call, shell by shell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BoiParams,
    RankedResult,
    VectorSet,
    pairwise_distances,
    query_vector,
    rank_by_distance,
)
from .hashing import (
    ProjectionTable,
    hash_codes_all,
    insert_all,
    make_tables,
    neighbor_codes_with_distance,
    stack_projections,
)

# Mixed into the per-query SeedSequence so probe shuffles never collide
# with the (seed, table_index) streams that draw projection matrices.
PROBE_STREAM_TAG = 0x50524F42


def weight(hamming: int, radius: int) -> float:
    """Vote weight of a bucket at Hamming distance ``hamming`` from the query.

    1/2**hamming up to ``radius``, 0 beyond it. The query's own bucket
    (distance 0) always weighs 1. The accumulator takes its weights from
    here with ``radius`` set to the code width, so buckets probed past the
    probe radius (the default spill mode) keep their true-distance weight.
    """
    if hamming < 0 or radius < 0:
        raise ValueError("hamming and radius must be non-negative")
    if hamming > radius:
        return 0.0
    return 2.0 ** -hamming


@dataclass(frozen=True, eq=False)
class ProbeSchedule:
    """Per-table neighbor-bucket counts gamma_i, non-increasing in i."""

    gammas: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gammas, dtype=np.int32)
        if g.ndim != 1 or g.size == 0:
            raise ValueError("schedule must be a non-empty 1-D sequence")
        if np.any(g < 0):
            raise ValueError("gamma values must be non-negative")
        if np.any(np.diff(g) > 0):
            raise ValueError("gamma values must be non-increasing")
        g.setflags(write=False)
        object.__setattr__(self, "gammas", g)

    def __len__(self) -> int:
        return int(self.gammas.size)


def build_schedule(kind: str, params: BoiParams) -> ProbeSchedule:
    """Gamma sequence for tables 1..L under the given reduction rule.

    fixed:     gamma_i = gamma_0 everywhere.
    linear:    gamma drops by 2 at tables linear_step, 2*linear_step, ...
               (1-based; the drop applies at the boundary table itself).
    sublinear: gamma holds for the first half of the tables, then drops
               by 2 at ceil(L/2) and every sublinear_step tables after.

    Values are clamped at 0 when the reductions would go negative.
    """
    if kind not in ("fixed", "linear", "sublinear"):
        raise ValueError(f"unknown schedule kind {kind!r}")
    L = params.num_tables
    if kind == "fixed":
        drops: range = range(0)
    elif kind == "linear":
        drops = range(params.linear_step, L + 1, params.linear_step)
    else:
        half = (L + 1) // 2
        drops = range(half, L + 1, params.sublinear_step)
    drop_set = frozenset(drops)
    gammas = np.empty(L, dtype=np.int32)
    current = params.initial_probe_count
    for i in range(1, L + 1):
        if i in drop_set:
            current = max(current - 2, 0)
        gammas[i - 1] = current
    return ProbeSchedule(gammas)


def neighbor_budget(gamma: int, radius: int) -> int:
    """Neighbor buckets requested per table: sum_{j=1..radius} C(gamma, j)."""
    return sum(math.comb(int(gamma), j) for j in range(1, radius + 1))


def expected_probes(schedule: ProbeSchedule, radius: int) -> int:
    """Total buckets touched per query: sum_i sum_{j=0..radius} C(gamma_i, j).

    The j=0 term counts the query's own bucket in each table. Matches the
    instrumented probe count exactly whenever no per-table budget has to be
    clamped by the code-space or strict-radius caps.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    return int(
        sum(1 + neighbor_budget(int(g), radius) for g in schedule.gammas)
    )


class BoiIndex:
    """The searchable structure: L populated tables over one vector set.

    Immutable once built; concurrent queries are safe because each query
    owns its accumulator and its probe RNG stream.
    """

    def __init__(
        self,
        params: BoiParams,
        dim: int,
        tables: list[ProjectionTable],
        dataset: VectorSet | None = None,
    ):
        if len(tables) != params.num_tables:
            raise ValueError("table count does not match params.num_tables")
        if any(t.bits != params.hash_bits for t in tables):
            raise ValueError("table width does not match params.hash_bits")
        if dataset is not None and dataset.n > 0 and dataset.dim != dim:
            raise ValueError(
                f"dataset dim {dataset.dim} does not match index dim {dim}"
            )
        self.params = params
        self.dim = int(dim)
        self.tables = tables
        self.dataset = dataset
        self.schedule = build_schedule(params.schedule, params)
        self._budgets = self._capped_budgets()
        self._stacked: np.ndarray | None = None

    def _capped_budgets(self) -> np.ndarray:
        p = self.params
        cap = p.num_buckets - 1
        if p.strict_radius:
            ball = sum(
                math.comb(p.hash_bits, j) for j in range(1, p.probe_radius + 1)
            )
            cap = min(cap, ball)
        budgets = np.array(
            [
                min(neighbor_budget(int(g), p.probe_radius), cap)
                for g in self.schedule.gammas
            ],
            dtype=np.int64,
        )
        return budgets

    @property
    def n(self) -> int:
        """Number of indexed records."""
        return self.tables[0].size if self.tables else 0

    def stacked_projections(self) -> np.ndarray:
        if self._stacked is None:
            self._stacked = stack_projections(self.tables)
        return self._stacked

    def query_codes(self, q: np.ndarray) -> np.ndarray:
        """The query's bucket code in every table, shape (L,)."""
        return hash_codes_all(
            self.tables, q[np.newaxis, :], stacked=self.stacked_projections()
        )[0]

    def attach_dataset(self, dataset: VectorSet) -> None:
        """Bind the vectors this index was built over (needed to re-rank)."""
        if dataset.n != self.n:
            raise ValueError(
                f"dataset has {dataset.n} records, index expects {self.n}"
            )
        if dataset.n > 0 and dataset.dim != self.dim:
            raise ValueError(
                f"dataset dim {dataset.dim} does not match index dim {self.dim}"
            )
        self.dataset = dataset


def build_index(dataset: VectorSet, params: BoiParams) -> BoiIndex:
    """Hash every record into L fresh tables and wrap them as an index."""
    tables = make_tables(params, dataset.dim if dataset.n else 1)
    insert_all(tables, dataset)
    return BoiIndex(params, tables[0].dim, tables, dataset)


def _probe_rng(params: BoiParams, query_index: int) -> np.random.Generator:
    seed_seq = np.random.SeedSequence(
        (params.seed, PROBE_STREAM_TAG, int(query_index))
    )
    return np.random.default_rng(seed_seq)


def _accumulate(
    index: BoiIndex, q: np.ndarray, query_index: int
) -> tuple[np.ndarray, int]:
    """Weight accumulator plus the realized probe count for one query."""
    q = query_vector(q, index.dim)
    bits = index.params.hash_bits
    codes = index.query_codes(q)
    budgets = index._budgets
    ncodes, hdists = neighbor_codes_with_distance(
        codes, int(budgets.max()), bits, _probe_rng(index.params, query_index)
    )
    # Row t lists table t's own bucket (distance 0), then its neighbors;
    # the table probes the first budgets[t] + 1 of them.
    rows = np.column_stack((codes, ncodes)).tolist()
    widths = budgets + 1
    parts = [
        members
        for table, row, width in zip(index.tables, rows, widths.tolist())
        for members in map(table.bucket, row[:width])
    ]
    dists = np.concatenate(([0], hdists))
    probed = np.arange(dists.size) < widths[:, np.newaxis]
    # In units of 2**-bits every vote is a whole number, and a record sits
    # in one bucket per table, so it collects at most L * 2**bits units: an
    # unsigned integer accumulator of that range adds them exactly.
    scale = 1 << bits
    units = np.array([weight(h, bits) * scale for h in range(bits + 1)])
    votes = np.zeros(index.n, dtype=np.min_scalar_type(len(rows) * scale))
    per_bucket = units.astype(votes.dtype)[dists[probed.nonzero()[1]]]
    np.add.at(
        votes,
        np.concatenate(parts, dtype=np.intp),
        np.repeat(per_bucket, list(map(len, parts))),
    )
    return votes / scale, len(parts)


def accumulate(index: BoiIndex, q, query_index: int = 0) -> np.ndarray:
    """Per-record vote weights for one query, as a dense float64 array.

    Every entry is a finite sum of 1/2**H terms; records that no probed
    bucket contains stay at exactly 0.
    """
    return _accumulate(index, q, query_index)[0]


def shortlist(weights: np.ndarray, shortlist_size: int) -> np.ndarray:
    """Ids of the highest-weight records, at most ``shortlist_size`` of them.

    Sorted by weight descending, ties by ascending id. Records with zero
    weight were never probed and are excluded even when that leaves the
    shortlist short.
    """
    if shortlist_size < 1:
        raise ValueError("shortlist_size must be >= 1")
    weights = np.asarray(weights, dtype=np.float64)
    nonzero = np.flatnonzero(weights != 0)
    w = weights[nonzero]
    if nonzero.size > shortlist_size:
        # exact boundary handling: keep everything tied with the cut weight,
        # then let the id tie-break decide inside the sorted prefix
        kth = np.partition(w, nonzero.size - shortlist_size)[
            nonzero.size - shortlist_size
        ]
        keep = w >= kth
        nonzero = nonzero[keep]
        w = w[keep]
    order = np.lexsort((nonzero, -w))[:shortlist_size]
    return nonzero[order].astype(np.int64)


def query(index: BoiIndex, q, k: int, query_index: int = 0) -> RankedResult:
    """Approximate k-nearest-neighbor search through the accumulator.

    Accumulates weights, shortlists the heaviest records, re-ranks them by
    exact Euclidean distance, and returns the top k with instrumentation
    (realized probe count, shortlist size). An empty shortlist yields an
    empty result rather than an error.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if index.dataset is None:
        raise RuntimeError(
            "index has no attached dataset; call attach_dataset() first"
        )
    weights, probes = _accumulate(index, q, query_index)
    candidates = shortlist(weights, index.params.shortlist_size)
    if candidates.size == 0:
        return RankedResult.empty(probe_count=probes, shortlist_size=0)
    rows = index.dataset.vectors[candidates]
    dists = pairwise_distances(rows, np.asarray(q, dtype=np.float32))
    ids, ranked = rank_by_distance(candidates, dists, k)
    return RankedResult(
        ids,
        ranked,
        probe_count=probes,
        shortlist_size=int(candidates.size),
    )
