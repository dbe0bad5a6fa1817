"""Weighted multi-probe accumulation over L hash tables.

Querying works in four stages:

1. hash the query once per table;
2. probe the query's own bucket plus a per-table budget of neighbor
   buckets, adding 1/2**H to every record found, where H is the bucket's
   Hamming distance from the query code (``weight``, tabulated per probe
   position as ``BoiIndex.plan.units``). The vote kernel adds each probed
   bucket's units one L1-sized tile of ids at a time. The votes are exact
   int32 counts of 2**-b, whatever their order, and stay in the tables'
   internal order (``ProjectionTable.order``), in which a bucket's ids lie
   close together. Each querying thread owns the buffers a query hashes,
   probes and votes into, bound once (``ProjectionTable.scratch``), and
   its (n,) votes are all zero between its queries;
3. keep the ``shortlist_size`` records with the highest accumulated
   integer vote, ties by lower record id (zero-weight records never
   qualify), the set ``shortlist`` gives. When the votes lie in at most a
   quarter of their 64-id blocks, one compiled pass takes each non-zero
   vote out as a (record id, vote) pair, zeroes the votes and selects the
   shortlist's set from the pairs, about 4k of them at b = 16. Otherwise,
   as at b = 8, a floor set from every 16th vote lets through the few
   votes that can hold the set, about 4 * ``shortlist_size`` of them, and
   the same selection runs on those; when the sample misleads, every vote
   streams through the selection's heap instead. Every selection is one
   histogram cut, which keeps the votes above the cut's bin, and one heap
   on (vote, lower record id), which chooses among the votes in that bin;
4. measure the shortlist's records where they lie in the base vectors, by
   exact Euclidean distance in the one fixed order of ``vote.c``'s
   ``distance``, the loop ``core.pairwise_distances`` and the oracle run
   too, and keep the k nearest, ranked by (distance, record id) as
   ``core.rank_by_distance`` ranks them: an answer that depends only on
   the shortlist's set, not on its order. Once k records are held, a
   record reaches the float64 distance only when its float32 distance,
   less a proven error bound, does not put it past the k-th; about 40 of
   250 do at dim 128, and the answer is the unfiltered one to the bit.

``query`` runs all four, from the query's vector to its ranked answer,
in one call into ``vote.c`` that releases the GIL
(``vote.QueryScratch.query``; its ``boi_query`` splits stage 2 into the
probe rows and the vote, so it has five), and threads query in parallel;
Python only copies the k results out (``_answer``). ``accumulate`` asks
the same compiled call for one of its first four stages at a time, the
first two through this module's ``hash_codes_all`` and
``neighbor_codes_with_distance``, and returns fresh votes in record
order: the staged path whose spans the benchmark's trace times. Its
spans therefore time the stages ``query`` runs, and its traced time adds
the scatter to record order. ``shortlist`` is the numpy statement of
stage 3, and ``core.pairwise_distances`` with ``core.rank_by_distance``
that of stage 4, which the trace and the tests call.

The LSH baselines run here too. ``multiprobe_lsh_query`` is multi-probe
LSH over the Hamming ball of a radius (Lv et al., "Multi-Probe LSH", VLDB
2007), and plain LSH is its radius 0. It runs stages 1-4 as ``query``
does (``_answer``), with every table probing its whole ball and every
probed bucket adding 1. A record's vote is then its collision count, and
the shortlist keeps the records that collide most often, as
collision-counting LSH does (C2LSH, Gan et al., SIGMOD 2012).

The per-table neighbor budget at table i is sum_{j=1..l} C(gamma_i, j),
where gamma_i follows the configured schedule and l is the probe radius.
With the default l=1 this is exactly gamma_i buckets. The budget may spill
past the radius-l shells (gamma_0 = 10 exceeds the 8 one-bit neighbors of
an 8-bit code); spilled buckets still contribute 1/2**H with their true
distance. A budget never exceeds the 2**b - 1 other buckets of the code
space. In ``strict_radius`` mode probing is capped at the radius-l ball
instead, so no bucket beyond distance l is ever touched.

This module alone decides what any bucketed query probes and how it
votes; ``hashing`` only hashes and buckets, and ``core`` makes every exact
answer, the brute-force scan included. Every table's probe row is its
query code XOR the masks of one ``probe_plan``, which ``BoiIndex`` binds
once per index and ``_ball_plan`` once per ball (``vote.ProbePlan``): the
center, then whole Hamming shells. A budget that ends inside a shell
spends what it reaches of that shell where the neighbours are, as
query-directed probing does (Lv et al. 2007): that shell's masks go by
ascending sum of |q . a_j| over the bits j they flip, the margins of the
query's own float32 dot products, ties in plan order. A ball probes whole
shells, so its rows keep plan order. The answer is a function of
(parameters, seed, data, q) alone: the codes are exact, and the query's
dot products are summed in ``vote.c`` in one fixed order, not by the
BLAS, so the margins are the same bits on every machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .core import (
    CODE_DTYPE,
    MAX_HASH_BITS,
    BoiParams,
    RankedResult,
    VectorSet,
    query_vector,
)
from .hashing import ProjectionTable, insert_all, make_projections
from .vote import ProbePlan, QueryScratch


def weight(hamming: int, radius: int) -> float:
    """Vote weight of a bucket at Hamming distance ``hamming`` from the query.

    1/2**hamming up to ``radius``, 0 beyond it. The query's own bucket
    (distance 0) always weighs 1. This is the only statement of the rule:
    ``BoiIndex.plan.units`` tabulates it with ``radius`` set to the code width
    b, in units of 2**-b, and the accumulator's kernel adds those units,
    so buckets probed past the probe radius (the default spill mode) keep
    their true-distance weight.
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


def plan_budgets(params: BoiParams) -> np.ndarray:
    """The (L,) int64 neighbor budgets of ``BoiIndex.plan``: table i's is
    neighbor_budget(gamma_i, radius) for ``build_schedule(params)``, capped
    at the code space (2**b - 1 other buckets) or, in strict mode, at the
    radius ball."""
    radius, bits = params.probe_radius, params.hash_bits
    cap = neighbor_budget(bits, radius if params.strict_radius else bits)
    return np.array(
        [neighbor_budget(g, radius, cap) for g in build_schedule(params).tolist()],
        dtype=np.int64,
    )


def probe_plan(bits: int, count: int) -> tuple[np.ndarray, ...]:
    """(masks, distances) of a probe row covering ``count`` neighbors: mask 0,
    then whole shells in ``combinations`` order. Uncached: each index and
    each ball (``_ball_plan``) makes its plan once."""
    if not 1 <= bits <= MAX_HASH_BITS:
        raise ValueError(f"bits must be in [1, {MAX_HASH_BITS}], got {bits}")
    if not 0 <= count < 1 << bits:
        raise ValueError(f"count must be in [0, 2**bits - 1], got {count}")
    last_shell = covered = 0
    while covered < count:
        covered += math.comb(bits, last_shell := last_shell + 1)
    powers = [1 << p for p in range(bits)]
    flips = [f for d in range(last_shell + 1) for f in combinations(powers, d)]
    return (
        np.array([sum(f) for f in flips], CODE_DTYPE),
        np.array([len(f) for f in flips], np.uint8),
    )


def _bound_plan(bits: int, masks, dists, units, budgets) -> ProbePlan:
    """The ``vote.ProbePlan`` of the plan ``probe_plan`` gave (``masks``
    and ``dists``), with these units and budgets, every array made
    read-only first. Table t's rows order by margin the shell that holds
    position budgets[t] when the budget ends before that shell's last
    position: its [lo, hi) in the plan's ``shells``, (0, 0) otherwise."""
    last = dists[budgets]
    lo = np.searchsorted(dists, last, side="left")
    hi = np.searchsorted(dists, last, side="right")
    partial = (budgets + 1 < hi)[:, np.newaxis]
    shells = np.where(partial, np.stack([lo, hi], axis=1), 0).astype(np.int64)
    for arr in (masks, units, budgets, shells):
        arr.setflags(write=False)
    return ProbePlan(bits, masks, units, budgets, shells)


@lru_cache(maxsize=None)
def _ball_plan(bits: int, num_tables: int, radius: int) -> ProbePlan:
    """The plan of multi-probe LSH over ``num_tables`` tables: each probes
    the whole Hamming ball of ``radius`` (at most ``bits``), so no shell is
    reordered, and every bucket adds 1. Cached, so each ball is planned
    and bound once."""
    count = neighbor_budget(bits, radius)
    return _bound_plan(
        bits,
        *probe_plan(bits, count),
        np.ones(count + 1, np.uint32),
        np.full(num_tables, count, np.int64),
    )


def hash_codes_all(scratch: QueryScratch, q: np.ndarray) -> np.ndarray:
    """``scratch.hash(q)``: the benchmark's ``hashing.query_codes_ms`` span."""
    return scratch.hash(q)


def neighbor_codes_with_distance(scratch: QueryScratch, plan: ProbePlan) -> np.ndarray:
    """Probe rows (L, width) uint16 of the query ``scratch`` last hashed
    (``hash_codes_all``), written into its bound ``probes``: codes[t] XOR
    the plan's masks, table t's last, partly probed shell by ascending
    margin sum of the query's dot products (``vote.QueryScratch.rows``).
    The codes come from the hash unchecked: the vote kernel refuses any
    code of 2**b or more. The name stays for the benchmark's
    ``hashing.probe_order_ms`` span."""
    return scratch.rows(plan)


@dataclass(frozen=True, eq=False)
class BoiIndex:
    """The searchable structure: one ``ProjectionTable`` of L populated
    tables over one vector set.

    ``plan``, a ``vote.ProbePlan``, binds once for every query:
    ``plan.budgets[i]``, table i's neighbor budget (``plan_budgets``):
    neighbor_budget(gamma_i, radius) for ``build_schedule(params)``, capped
    at the code space (2**b - 1 other buckets) or, in strict mode, at the
    radius ball; the capped sum stops at the cap, so no budget costs more
    than b binomial terms however large gamma_0 or the radius.
    ``plan.masks`` (uint16) are the masks of ``probe_plan(b,
    max(budgets))``, which every query XORs into its codes, and
    ``plan.units[j]`` (uint32) is weight(H_j, b) * 2**b for the plan's
    H_j, the vote the kernel adds at position j of a probe row (strict
    budgets never reach past the radius). All three arrays are read-only.

    Immutable: the table and the dataset are fixed by the constructor, and
    nothing is cached or bound later (there is no ``attach_dataset``). A
    snapshot loaded without its dataset cannot re-rank; wrap its table in
    a new ``BoiIndex`` together with the dataset. Concurrent queries are
    safe because each thread queries with its own buffers, its table's
    ``scratch``, which it binds on its first query.
    """

    params: BoiParams
    tables: ProjectionTable
    dataset: VectorSet | None = None
    plan: ProbePlan = field(init=False, repr=False)

    def __post_init__(self):
        p, tables = self.params, self.tables
        if tables.num_tables != p.num_tables or tables.bits != p.hash_bits:
            raise ValueError(
                f"table shape (L={tables.num_tables}, b={tables.bits}) does "
                f"not match params (L={p.num_tables}, b={p.hash_bits})"
            )
        if self.dataset is not None:
            tables.check_dataset(self.dataset)
        bits, budgets = p.hash_bits, plan_budgets(p)
        masks, dists = probe_plan(bits, int(budgets.max()))
        per_shell = [weight(h, bits) * 2**bits for h in range(bits + 1)]
        units = np.array(per_shell, np.uint32)[dists]
        object.__setattr__(self, "plan", _bound_plan(bits, masks, dists, units, budgets))

    @property
    def dim(self) -> int:
        return self.tables.dim

    @property
    def n(self) -> int:
        """Number of indexed records."""
        return self.tables.n


def build_index(dataset: VectorSet, params: BoiParams) -> BoiIndex:
    """Hash every record into L tables and wrap them as an index; a set of
    no records and no width (an empty fvecs file) raises ValueError."""
    if not dataset.dim:
        raise ValueError("a set with no records has no known width to index")
    projections = make_projections(params, dataset.dim)
    tables = insert_all(projections, params.hash_bits, dataset)
    return BoiIndex(params, tables, dataset)


def _accumulate(
    tables: ProjectionTable, q: np.ndarray, plan: ProbePlan
) -> tuple[QueryScratch, int, int]:
    """The staged path of ``accumulate``: the calling thread's scratch
    (``tables.scratch()``), whose ``votes`` then hold the query's int32
    votes in internal order (entry i belongs to record ``tables.order[i]``),
    the probe count and the number of (id, vote) pairs the kernel scanned;
    ``q`` is validated. The caller takes the votes out, which zeroes them.

    The hash keeps its dot products, and each table's probe row is its
    code XOR the plan's masks, its last, partly probed shell ordered by
    them (``neighbor_codes_with_distance``). Table t probes the first
    budgets[t] + 1 codes of its row, and position j of a row adds
    ``units[j]``. A boi vote of at most L * 2**b units stays below 2**31
    (``BoiParams``), so the int32 sums are exact and so is their negation
    in the shortlist. Each stage is one call of ``vote.c``'s ``boi_query``
    that runs it alone: this module's ``hash_codes_all`` and
    ``neighbor_codes_with_distance``, called through its globals, which
    the benchmark's trace wraps, then ``QueryScratch.vote``.
    """
    scratch = tables.scratch()
    hash_codes_all(scratch, q)
    neighbor_codes_with_distance(scratch, plan)
    return scratch, plan.probe_count, scratch.vote(plan)


def _answer(
    tables: ProjectionTable, vectors, q: np.ndarray, plan: ProbePlan,
    shortlist_size: int, k: int,
) -> RankedResult:
    """The k nearest, among the rows of ``vectors``, of the
    ``shortlist_size`` records of highest vote under ``plan``, for the
    validated ``q``: one compiled call from the query's vector to its
    ranked answer (``QueryScratch.query``), which re-ranks the set
    ``shortlist`` gives, whether the votes were touched or dense, and does
    not depend on the set's order. The result reports the set's size as
    its ``shortlist_size``; an empty set gives an empty result."""
    scratch = tables.scratch()
    ranked, count, pairs = scratch.query(q, plan, shortlist_size, vectors, k)
    return RankedResult._ranked(
        scratch.nearest[:ranked].copy(),
        scratch.distances[:ranked].copy(),
        probe_count=plan.probe_count,
        shortlist_size=count,
        pairs_scanned=pairs,
    )


def accumulate(index: BoiIndex, q, query_index: int = 0) -> np.ndarray:
    """Per-record int32 votes for one query, in units of 2**-b and record
    order: the votes ``query`` shortlists.

    Entry r is sum weight(H, b) * 2**b over the probed buckets holding
    record r; records that no probed bucket contains stay at exactly 0.
    ``query_index`` is accepted and ignored. This is the staged path
    (``_accumulate``), which only the benchmark's trace and the tests run:
    ``boi_query`` asked for one stage a call, then the touched pass alone
    (``QueryScratch.take``), where ``query`` asks for all of them at once.
    """
    q = query_vector(q, index.dim)
    tables = index.tables
    scratch = _accumulate(tables, q, index.plan)[0]
    m = scratch.take()
    if m >= 0:
        out = np.zeros(tables.n, np.int32)
        out[scratch.ids[:m]] = scratch.weights[:m]
        return out
    out = np.empty(tables.n, np.int32)
    # numpy scatters through intp indices faster than through int32 ones,
    # by more than the copy costs (0.22 against 0.36 ms at n = 100k)
    out[tables.order.astype(np.intp)] = scratch.votes
    scratch.clear()
    return out


def shortlist(
    weights: np.ndarray, shortlist_size: int, order: np.ndarray | None = None
) -> np.ndarray:
    """Record ids of the highest-weight records, at most ``shortlist_size``
    of them.

    ``weights`` are the non-negative int32 votes a query accumulates
    (``accumulate``, or a scratch's ``votes``); entry i belongs to record
    ``order[i]``, or to record i when ``order`` is omitted. Sorted by
    weight descending, ties by ascending record id. Records with zero
    weight were never probed and are excluded even when that leaves the
    shortlist short. Weights of any other dtype raise ValueError naming
    it, as does a ``shortlist_size`` below 1.

    One in-place partition of a negated copy finds the cut, the
    ``shortlist_size``-th largest weight; a non-negative int32 vote negates
    exactly. One pass over the weights then keeps the ids at or above it
    and maps them through ``order``. Only those are sorted, by weight and
    then record id, and the sorted list is cut at ``shortlist_size``, so
    of the ids at the cut the lowest record ids are kept.
    """
    if shortlist_size < 1:
        raise ValueError("shortlist_size must be >= 1")
    weights = np.asarray(weights)
    if weights.dtype != np.int32:
        raise ValueError(f"shortlist takes int32 votes, got {weights.dtype}")
    cut = 0
    if shortlist_size < weights.size:
        neg = np.negative(weights)
        neg.partition(shortlist_size - 1)
        cut = -neg[shortlist_size - 1]
    ids = np.flatnonzero(weights >= cut if cut > 0 else weights > 0)
    w = weights[ids]
    if order is not None:
        ids = order[ids]
    return ids[np.lexsort((ids, -w))[:shortlist_size]]


def query(index: BoiIndex, q, k: int, query_index: int = 0) -> RankedResult:
    """Approximate k-nearest-neighbor search through the accumulator.

    Accumulates weights, shortlists the heaviest records, re-ranks them by
    exact Euclidean distance, and returns the top k with instrumentation
    (realized probe count, shortlist size, and the (id, vote) pairs the
    kernel scanned). Everything from the query's vector to its ranked
    answer, its dot products and exact distances included, is one
    compiled call (``_answer``), whether the votes are touched or dense.
    An empty
    shortlist yields an empty result rather than an error. A table whose
    probed offsets or ids are out of range raises ValueError.
    ``query_index`` is accepted and ignored: the answer depends on (index,
    q, k) alone.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if index.dataset is None:
        raise RuntimeError(
            "index has no dataset; build a BoiIndex with the table and its "
            "dataset first"
        )
    q = query_vector(q, index.dim)
    return _answer(
        index.tables, index.dataset.vectors, q, index.plan, index.params.shortlist_size, k
    )


def multiprobe_lsh_query(
    tables: ProjectionTable,
    dataset: VectorSet,
    q,
    radius: int,
    shortlist_size: int,
    k: int,
) -> RankedResult:
    """Multi-probe LSH: probe the full Hamming ball of ``radius`` per table.

    This is the boi query's path (``_answer``) with the ball's plan
    (``_ball_plan``): units of 1 and
    every table's budget the whole ball, so each probed bucket adds 1 to
    its records, with no distance weight. The ``shortlist_size`` records
    with the most collisions (ties by lower id, never one with none) are
    re-ranked by exact distance, so a shortlist of n or more re-ranks the
    whole union. radius=0 is plain LSH, the query's own bucket in each
    table; a radius of b or more probes the whole code space. ``dataset``
    must be the set the tables index (ValueError otherwise).
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if k < 1 or shortlist_size < 1:
        raise ValueError("k and shortlist_size must be >= 1")
    q = query_vector(q, tables.dim)
    tables.check_dataset(dataset)
    plan = _ball_plan(tables.bits, tables.num_tables, min(radius, tables.bits))
    return _answer(tables, dataset.vectors, q, plan, shortlist_size, k)
