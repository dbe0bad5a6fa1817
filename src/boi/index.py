"""Weighted multi-probe accumulation over L hash tables.

Querying works in four stages:

1. hash the query once per table;
2. probe the query's own bucket plus a per-table budget of neighbor
   buckets, adding 1/2**H to every record found, where H is the bucket's
   Hamming distance from the query code. Python orders the probes; the
   gather and the vote over every table are one call into the compiled
   kernel of ``vote.c``, which releases the GIL, so threads vote in
   parallel. The kernel collects the non-empty probed buckets, then adds
   their votes one tile of record ids at a time, small enough that the
   votes being written stay in the L1 cache. Votes are exact int32 counts
   of 2**-b, whatever order they are added in;
3. keep the ``shortlist_size`` records with the highest accumulated
   integer vote, ties by lower id (zero-weight records never qualify);
4. re-rank the shortlist by exact Euclidean distance and return the top k
   (``core.rerank``, shared with the multi-probe LSH baseline).

The per-table neighbor budget at table i is sum_{j=1..l} C(gamma_i, j),
where gamma_i follows the configured schedule and l is the probe radius.
With the default l=1 this is exactly gamma_i buckets. The budget may spill
past the radius-l shells (gamma_0 = 10 exceeds the 8 one-bit neighbors of
an 8-bit code); spilled buckets still contribute 1/2**H with their true
distance. A budget never exceeds the 2**b - 1 other buckets of the code
space. In ``strict_radius`` mode probing is capped at the radius-l ball
instead, so no bucket beyond distance l is ever touched.

Neighbor probe order is re-shuffled per (query, table) from a PCG64 stream
derived from (seed, probe tag, query_index), which keeps batches
reproducible while avoiding a fixed probe order across experiments. Each
Hamming shell is drawn for all L tables in one call, shell by shell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    BoiParams,
    RankedResult,
    VectorSet,
    query_vector,
    rank_by_distance,
    rerank,
)
from .hashing import (
    ProjectionTable,
    hash_codes_all,
    insert_all,
    make_projections,
    neighbor_codes_with_distance,
)
from .vote import gather_vote

# Mixed into the per-query SeedSequence so probe shuffles never collide
# with the (seed, table_index) streams that draw projection matrices.
PROBE_STREAM_TAG = 0x50524F42


def weight(hamming: int, radius: int) -> float:
    """Vote weight of a bucket at Hamming distance ``hamming`` from the query.

    1/2**hamming up to ``radius``, 0 beyond it. The query's own bucket
    (distance 0) always weighs 1. The accumulator's kernel adds
    1 << (b - hamming) units of 2**-b, which is this weight with ``radius``
    set to the code width b, so buckets probed past the probe radius (the
    default spill mode) keep their true-distance weight; the tests check
    the kernel's votes against sums of this function.
    """
    if hamming < 0 or radius < 0:
        raise ValueError("hamming and radius must be non-negative")
    if hamming > radius:
        return 0.0
    return 2.0 ** -hamming


def build_schedule(params: BoiParams) -> np.ndarray:
    """Read-only int32 array of gamma_i, the neighbor buckets table i probes.

    gamma_i = max(gamma_0 - 2 * drops_i, 0) for 1-based table number i,
    where drops_i counts the reductions up to and including table i:

    fixed:     no drops; gamma_i = gamma_0 everywhere.
    linear:    drops_i = i // linear_step, a drop at tables linear_step,
               2*linear_step, ...
    sublinear: drops_i = (i - half) // sublinear_step + 1 from
               half = ceil(L/2) on and 0 before it, so gamma holds for the
               first half of the tables and then drops every
               sublinear_step tables.

    The sequence never increases.
    """
    i = np.arange(1, params.num_tables + 1)
    if params.schedule == "linear":
        drops = i // params.linear_step
    elif params.schedule == "sublinear":
        half = (params.num_tables + 1) // 2
        drops = np.maximum((i - half) // params.sublinear_step + 1, 0)
    else:
        drops = np.zeros_like(i)
    gammas = np.maximum(params.initial_probe_count - 2 * drops, 0).astype(np.int32)
    gammas.setflags(write=False)
    return gammas


def neighbor_budget(gamma: int, radius: int, cap: float = math.inf) -> int:
    """Neighbor buckets requested per table: sum_{j=1..radius} C(gamma, j),
    or ``cap`` if that sum reaches it.

    Terms past j = gamma are 0, so the sum stops there however large the
    radius is, and it stops as soon as a partial sum reaches ``cap``.
    ``BoiIndex`` caps at the code space, 2**b - 1 = neighbor_budget(b, b),
    or in strict mode at the radius ball, neighbor_budget(b, radius);
    either cap is reached within b terms, whatever gamma and the radius.
    """
    gamma = int(gamma)
    total = 0
    for j in range(1, min(radius, gamma) + 1):
        total += math.comb(gamma, j)
        if total >= cap:
            return int(cap)
    return total


def expected_probes(schedule, radius: int) -> int:
    """Total buckets touched per query: sum_i sum_{j=0..radius} C(gamma_i, j).

    ``schedule`` is any 1-D sequence of non-negative gamma_i. The j=0 term
    counts the query's own bucket in each table. Matches the instrumented
    probe count exactly whenever no per-table budget has to be clamped by
    the code-space or strict-radius caps.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    gammas = np.asarray(schedule)
    if gammas.ndim != 1 or np.any(gammas < 0):
        raise ValueError("schedule must be a 1-D sequence of non-negative gammas")
    return sum(1 + neighbor_budget(g, radius) for g in gammas.tolist())


@dataclass(frozen=True, eq=False)
class BoiIndex:
    """The searchable structure: one ``ProjectionTable`` of L populated
    tables over one vector set.

    ``schedule`` is the gamma array of ``build_schedule(params)``.
    ``budgets[i]`` is table i's neighbor budget, neighbor_budget(gamma_i,
    radius) capped at the code space (2**b - 1 other buckets) or, in strict
    mode, at the radius ball; the capped sum stops at the cap, so no budget
    costs more than b binomial terms however large gamma_0 or the radius.
    Both arrays are read-only.

    Immutable: the table and the dataset are fixed by the constructor, and
    nothing is cached or bound later (there is no ``attach_dataset``). A
    snapshot loaded without its dataset cannot re-rank; wrap its table in
    a new ``BoiIndex`` together with the dataset. Concurrent queries are
    safe because each query owns its accumulator and its probe RNG stream.
    """

    params: BoiParams
    tables: ProjectionTable
    dataset: VectorSet | None = None
    schedule: np.ndarray = field(init=False)
    budgets: np.ndarray = field(init=False)

    def __post_init__(self):
        p, tables = self.params, self.tables
        if tables.num_tables != p.num_tables or tables.bits != p.hash_bits:
            raise ValueError(
                f"table shape (L={tables.num_tables}, b={tables.bits}) does "
                f"not match params (L={p.num_tables}, b={p.hash_bits})"
            )
        if self.dataset is not None:
            tables.check_dataset(self.dataset)
        schedule = build_schedule(p)
        radius, bits = p.probe_radius, p.hash_bits
        cap = neighbor_budget(bits, radius if p.strict_radius else bits)
        budgets = np.array(
            [neighbor_budget(g, radius, cap) for g in schedule.tolist()],
            dtype=np.int64,
        )
        budgets.setflags(write=False)
        object.__setattr__(self, "schedule", schedule)
        object.__setattr__(self, "budgets", budgets)

    @property
    def dim(self) -> int:
        return self.tables.dim

    @property
    def n(self) -> int:
        """Number of indexed records."""
        return self.tables.n


def build_index(dataset: VectorSet, params: BoiParams) -> BoiIndex:
    """Hash every record into L tables and wrap them as an index."""
    projections = make_projections(params, dataset.dim if dataset.n else 1)
    tables = insert_all(projections, params.hash_bits, dataset)
    return BoiIndex(params, tables, dataset)


def _probe_rng(params: BoiParams, query_index: int) -> np.random.Generator:
    seed_seq = np.random.SeedSequence(
        (params.seed, PROBE_STREAM_TAG, int(query_index))
    )
    return np.random.default_rng(seed_seq)


def _accumulate(
    index: BoiIndex, q: np.ndarray, query_index: int
) -> tuple[np.ndarray, int, int]:
    """Int32 votes in units of 2**-b, the probe count and the number of
    (id, vote) pairs the kernel (``vote.gather_vote``) scanned; ``q`` is
    validated.

    A record collects at most L * 2**b units, which ``BoiParams`` keeps
    below 2**31, so the int32 sums are exact and so is their negation in
    the shortlist.
    """
    tables = index.tables
    bits = tables.bits
    codes = hash_codes_all(tables.projections, bits, q[np.newaxis, :])[0]
    budgets = index.budgets
    ncodes, hdists = neighbor_codes_with_distance(
        codes, int(budgets.max()), bits, _probe_rng(index.params, query_index)
    )
    # Row t lists table t's own bucket (distance 0), then its neighbors in
    # non-decreasing distance; the table probes the first budgets[t] + 1.
    probes = np.column_stack((codes, ncodes))
    dists = np.concatenate((np.zeros(1, np.uint8), hdists))
    votes = np.zeros(tables.n, np.int32)
    pairs = gather_vote(tables.offsets, tables.members, probes, dists, budgets, votes)
    return votes, int(budgets.sum()) + budgets.size, pairs


def accumulate(index: BoiIndex, q, query_index: int = 0) -> np.ndarray:
    """Per-record vote weights for one query, as a dense float64 array.

    The accumulator's integer votes divided by 2**b. Every entry is a finite
    sum of 1/2**H terms; records that no probed bucket contains stay at
    exactly 0.
    """
    votes, _, _ = _accumulate(index, query_vector(q, index.dim), query_index)
    return votes / (1 << index.tables.bits)


def shortlist(weights: np.ndarray, shortlist_size: int) -> np.ndarray:
    """Ids of the highest-weight records, at most ``shortlist_size`` of them.

    ``weights`` are non-negative integer votes or float weights. Sorted by
    weight descending, ties by ascending id, via ``rank_by_distance`` on the
    negated weights (an unsigned w negates to 2**N - w, still falling as w
    rises). Records with zero weight were never probed and are excluded
    even when that leaves the shortlist short.
    """
    if shortlist_size < 1:
        raise ValueError("shortlist_size must be >= 1")
    weights = np.asarray(weights)
    touched = np.flatnonzero(weights != 0)
    return rank_by_distance(touched, -weights[touched], shortlist_size)[0]


def query(index: BoiIndex, q, k: int, query_index: int = 0) -> RankedResult:
    """Approximate k-nearest-neighbor search through the accumulator.

    Accumulates weights, shortlists the heaviest records, re-ranks them by
    exact Euclidean distance, and returns the top k with instrumentation
    (realized probe count, shortlist size, and the (id, vote) pairs the
    kernel scanned). An empty shortlist yields an empty result rather than
    an error. A table whose probed offsets or ids are out of range raises
    ValueError.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if index.dataset is None:
        raise RuntimeError(
            "index has no dataset; build a BoiIndex with the table and its "
            "dataset first"
        )
    q = query_vector(q, index.dim)
    votes, probes, pairs = _accumulate(index, q, query_index)
    candidates = shortlist(votes, index.params.shortlist_size)
    return rerank(index.dataset.vectors, candidates, q, k, probes, pairs)
