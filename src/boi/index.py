"""Weighted multi-probe accumulation over L hash tables.

Querying works in four stages:

1. hash the query once per table;
2. probe the query's own bucket plus a per-table budget of neighbor
   buckets, adding 1/2**H to every record found, where H is the bucket's
   Hamming distance from the query code (``weight``, tabulated per probe
   position as ``BoiIndex.units``). Python builds the probe rows; the gather
   and the vote over every table are one call into the compiled kernel of
   ``vote.c``, which releases the GIL, so threads vote in parallel. It
   adds each probed bucket's units one L1-sized tile of ids at a time.
   The votes are exact int32 counts of 2**-b, whatever their order, and
   stay in the tables' internal order (``ProjectionTable.order``), in
   which a bucket's ids lie close together. ``accumulate`` returns them
   in record order, so its traced time includes that scatter;
3. keep the ``shortlist_size`` records with the highest accumulated
   integer vote, ties by lower record id (zero-weight records never
   qualify): ``shortlist`` partitions a negated copy of the votes in place
   to find the cut, keeps the ids at or above it in one pass, maps them to
   record ids, and sorts only those;
4. re-rank the shortlist by exact Euclidean distance and return the top k
   (``core.rerank``).

The LSH baselines (``baselines``) run stages 1-4 through the same
``_accumulate``, ``shortlist`` and ``core.rerank``, with every table
probing its whole Hamming ball and every probed bucket adding 1.

The per-table neighbor budget at table i is sum_{j=1..l} C(gamma_i, j),
where gamma_i follows the configured schedule and l is the probe radius.
With the default l=1 this is exactly gamma_i buckets. The budget may spill
past the radius-l shells (gamma_0 = 10 exceeds the 8 one-bit neighbors of
an 8-bit code); spilled buckets still contribute 1/2**H with their true
distance. A budget never exceeds the 2**b - 1 other buckets of the code
space. In ``strict_radius`` mode probing is capped at the radius-l ball
instead, so no bucket beyond distance l is ever touched.

This module alone decides what a query probes; ``hashing`` only hashes and
buckets. Every table's probe row is its query code XOR the masks of one
``probe_plan``, which ``BoiIndex`` takes once: the center, then whole
Hamming shells in a fixed order. Each table's projection rows are i.i.d.
Gaussian, so a fixed order favours no bit. The answer is a function of
(parameters, seed, data, q) alone.
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
    rerank,
)
from .hashing import ProjectionTable, hash_codes_all, insert_all, make_projections
from .vote import gather_vote


def weight(hamming: int, radius: int) -> float:
    """Vote weight of a bucket at Hamming distance ``hamming`` from the query.

    1/2**hamming up to ``radius``, 0 beyond it. The query's own bucket
    (distance 0) always weighs 1. This is the only statement of the rule:
    ``BoiIndex.units`` tabulates it with ``radius`` set to the code width
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


@lru_cache(maxsize=None)
def _probe_plan(bits: int, last_shell: int) -> tuple[np.ndarray, ...]:
    powers = [1 << p for p in range(bits)]
    flips = [f for d in range(last_shell + 1) for f in combinations(powers, d)]
    plan = (
        np.array([sum(f) for f in flips], CODE_DTYPE),
        np.array([len(f) for f in flips], np.uint8),
    )
    for arr in plan:
        arr.setflags(write=False)
    return plan


def probe_plan(bits: int, count: int) -> tuple[np.ndarray, ...]:
    """Read-only (masks, distances) of a probe row covering ``count`` neighbors:
    mask 0, then whole shells in ``combinations`` order; cached per last shell."""
    if not 1 <= bits <= MAX_HASH_BITS:
        raise ValueError(f"bits must be in [1, {MAX_HASH_BITS}], got {bits}")
    if not 0 <= count < 1 << bits:
        raise ValueError(f"count must be in [0, 2**bits - 1], got {count}")
    last_shell = covered = 0
    while covered < count:
        covered += math.comb(bits, last_shell := last_shell + 1)
    return _probe_plan(bits, last_shell)


def neighbor_codes_with_distance(codes: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Probe rows, codes[t] ^ masks for each table t (uint16). The codes come
    from the hash unchecked: the vote kernel refuses any code of 2**b or
    more. The name stays for the benchmark's ``hashing.probe_order_ms`` span."""
    return codes[:, np.newaxis] ^ masks


@dataclass(frozen=True, eq=False)
class BoiIndex:
    """The searchable structure: one ``ProjectionTable`` of L populated
    tables over one vector set.

    ``budgets[i]`` is table i's neighbor budget, neighbor_budget(gamma_i,
    radius) for ``build_schedule(params)``, capped at the code space (2**b -
    1 other buckets) or, in strict mode, at the radius ball; the capped sum
    stops at the cap, so no budget costs more than b binomial terms however
    large gamma_0 or the radius. ``masks`` (uint16) are the masks of
    ``probe_plan(b, max(budgets))``, which every query XORs into its codes,
    and ``units[j]`` (uint32) is weight(H_j, b) * 2**b for the plan's H_j,
    the vote the kernel adds at position j of a probe row (strict budgets
    never reach past the radius). All three arrays are read-only.

    Immutable: the table and the dataset are fixed by the constructor, and
    nothing is cached or bound later (there is no ``attach_dataset``). A
    snapshot loaded without its dataset cannot re-rank; wrap its table in
    a new ``BoiIndex`` together with the dataset. Concurrent queries are
    safe because each query owns its accumulator.
    """

    params: BoiParams
    tables: ProjectionTable
    dataset: VectorSet | None = None
    budgets: np.ndarray = field(init=False)
    masks: np.ndarray = field(init=False)
    units: np.ndarray = field(init=False)

    def __post_init__(self):
        p, tables = self.params, self.tables
        if tables.num_tables != p.num_tables or tables.bits != p.hash_bits:
            raise ValueError(
                f"table shape (L={tables.num_tables}, b={tables.bits}) does "
                f"not match params (L={p.num_tables}, b={p.hash_bits})"
            )
        if self.dataset is not None:
            tables.check_dataset(self.dataset)
        radius, bits = p.probe_radius, p.hash_bits
        cap = neighbor_budget(bits, radius if p.strict_radius else bits)
        budgets = np.array(
            [neighbor_budget(g, radius, cap) for g in build_schedule(p).tolist()],
            dtype=np.int64,
        )
        masks, dists = probe_plan(bits, int(budgets.max()))
        per_shell = [weight(h, bits) * 2**bits for h in range(bits + 1)]
        units = np.array(per_shell, np.uint32)[dists]
        for name, arr in (("budgets", budgets), ("masks", masks), ("units", units)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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
    tables: ProjectionTable, q: np.ndarray, masks: np.ndarray, units: np.ndarray,
    budgets: np.ndarray,
) -> tuple[np.ndarray, int, int]:
    """Int32 votes in internal order (entry i belongs to record
    ``tables.order[i]``), the probe count and the number of (id, vote)
    pairs the kernel (``vote.gather_vote``) scanned; ``q`` is validated.

    Each table's probe row is its code XOR ``masks``. Table t probes the
    first budgets[t] + 1 codes of its row, and position j of a row adds
    ``units[j]``. A boi vote of at most L * 2**b units stays below 2**31
    (``BoiParams``), so the int32 sums are exact and so is their negation
    in the shortlist.
    """
    codes = hash_codes_all(tables.sign_filter, q[np.newaxis, :])[0]
    probes = neighbor_codes_with_distance(codes, masks)
    votes = np.zeros(tables.n, np.int32)
    pairs = gather_vote(tables.offsets, tables.members, probes, units, budgets, votes)
    return votes, int(budgets.sum()) + budgets.size, pairs


def accumulate(index: BoiIndex, q, query_index: int = 0) -> np.ndarray:
    """Per-record int32 votes for one query, in units of 2**-b and record
    order: the votes ``query`` shortlists.

    Entry r is sum weight(H, b) * 2**b over the probed buckets holding
    record r; records that no probed bucket contains stay at exactly 0.
    ``query_index`` is accepted and ignored.
    """
    q = query_vector(q, index.dim)
    votes = _accumulate(index.tables, q, index.masks, index.units, index.budgets)[0]
    out = np.empty_like(votes)
    # numpy scatters through intp indices faster than through int32 ones,
    # by more than the copy costs (0.22 against 0.36 ms at n = 100k)
    out[index.tables.order.astype(np.intp)] = votes
    return out


def shortlist(
    weights: np.ndarray, shortlist_size: int, order: np.ndarray | None = None
) -> np.ndarray:
    """Record ids of the highest-weight records, at most ``shortlist_size``
    of them.

    ``weights`` are non-negative integer votes or float weights; entry i
    belongs to record ``order[i]``, or to record i when ``order`` is
    omitted. Sorted by weight descending, ties by ascending record id.
    Records with zero weight were never probed and are excluded even when
    that leaves the shortlist short.

    One in-place partition of a negated copy finds the cut, the
    ``shortlist_size``-th largest weight. One pass over the weights then
    keeps the ids at or above it and maps them through ``order``; of those
    at the cut, only as many as fit are kept, the lowest record ids first,
    and only the kept ids are sorted. Unsigned weights are widened to int64
    first, since an unsigned w would negate to 2**N - w.
    """
    if shortlist_size < 1:
        raise ValueError("shortlist_size must be >= 1")
    weights = np.asarray(weights)
    if weights.dtype.kind == "u":
        weights = weights.astype(np.int64)
    cut = 0
    if shortlist_size < weights.size:
        neg = np.negative(weights)
        neg.partition(shortlist_size - 1)
        cut = -neg[shortlist_size - 1]
    ids = np.flatnonzero(weights >= cut if cut > 0 else weights > 0)
    w = weights[ids]
    if order is not None:
        ids = order[ids]
    if ids.size > shortlist_size:
        # every id above the cut, then the lowest record ids at it
        keep = w > cut
        at_cut = np.flatnonzero(~keep)
        if order is not None:
            at_cut = at_cut[np.argsort(ids[at_cut])]
        keep[at_cut[: shortlist_size - np.count_nonzero(keep)]] = True
        ids, w = ids[keep], w[keep]
    return ids[np.lexsort((ids, -w))]


def query(index: BoiIndex, q, k: int, query_index: int = 0) -> RankedResult:
    """Approximate k-nearest-neighbor search through the accumulator.

    Accumulates weights, shortlists the heaviest records, re-ranks them by
    exact Euclidean distance, and returns the top k with instrumentation
    (realized probe count, shortlist size, and the (id, vote) pairs the
    kernel scanned). An empty shortlist yields an empty result rather than
    an error. A table whose probed offsets or ids are out of range raises
    ValueError. ``query_index`` is accepted and ignored: the answer depends
    on (index, q, k) alone.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if index.dataset is None:
        raise RuntimeError(
            "index has no dataset; build a BoiIndex with the table and its "
            "dataset first"
        )
    q = query_vector(q, index.dim)
    votes, probes, pairs = _accumulate(
        index.tables, q, index.masks, index.units, index.budgets
    )
    candidates = shortlist(votes, index.params.shortlist_size, index.tables.order)
    return rerank(index.dataset.vectors, candidates, q, k, probes, pairs)
