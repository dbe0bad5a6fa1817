import json

import numpy as np
import pytest

from boi.core import BoiParams, RankedResult, VectorSet
from boi.data_io import load_index, save_index
from boi.evaluate import (
    EvalReport,
    GroundTruth,
    MemoryEstimate,
    average_precision,
    estimate_memory,
    run_benchmark,
    score,
    summarize,
)
from boi.index import build_index


class TestAveragePrecision:
    def test_relevant_first(self):
        assert average_precision([7, 1, 2], {7}) == 1.0

    def test_relevant_second(self):
        assert average_precision([1, 7, 2], {7}) == 0.5

    def test_two_relevant_hand_sum(self):
        # hits at ranks 1 and 3: (1/1 + 2/3) / 2 = 5/6
        assert average_precision([7, 1, 8], {7, 8}) == pytest.approx(5 / 6, abs=1e-12)

    def test_empty_ranking(self):
        assert average_precision([], {1}) == 0.0

    def test_unretrieved_relevant_counts_as_zero(self):
        # one of two relevant items missing: (1/1 + 0) / 2
        assert average_precision([5], {5, 6}) == 0.5

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            average_precision([1, 2], set())

    def test_repeated_id_rejected(self):
        # each repeat would count as another hit: AP 2.0 for [7, 7]
        for ranking in ([7, 7], [3, 3, 3], [1, 5, 1]):
            with pytest.raises(ValueError, match="repeats"):
                average_precision(ranking, {7, 3, 5})

    def test_bounds_and_perfect_prefix(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            ranking = rng.permutation(n)
            relevant = set(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
            ap = average_precision(ranking, relevant)
            assert 0.0 <= ap <= 1.0
            top = set(int(x) for x in ranking[: len(relevant)])
            assert (ap == 1.0) == (top == relevant)


def mean_ap(rankings, gt):
    return summarize(*score(rankings, gt), 1)["map"]


def recall(ranking, true_nn, k):
    return summarize(*score([ranking], GroundTruth(np.array([[true_nn]]))), k)[
        "recall_at_k"
    ][k]


class TestMeanAveragePrecision:
    def test_mean_of_two(self):
        gt = GroundTruth(np.array([[7], [7]]))
        assert mean_ap([[7, 1], [1, 7]], gt) == 0.75

    def test_single_query(self):
        gt = GroundTruth(np.array([[3]]))
        assert mean_ap([[1, 3]], gt) == 0.5

    def test_all_rankings_empty(self):
        gt = GroundTruth(np.array([[1], [2]]))
        assert mean_ap([[], []], gt) == 0.0

    def test_missing_query_rejected(self):
        gt = GroundTruth(np.array([[1], [2]]))
        with pytest.raises(ValueError):
            score([[1]], gt)

    def test_repeated_id_names_its_query(self):
        gt = GroundTruth(np.array([[3, 4, 9], [3, 4, 9]]))
        with pytest.raises(ValueError, match="query 1: ranking repeats"):
            score([[3, 4, 9], [3, 3, 3]], gt)


class TestRecall:
    def test_hit_at_one(self):
        assert recall([4, 2], 4, 1) == 1

    def test_miss_at_one(self):
        assert recall([2, 4], 4, 1) == 0

    def test_aggregate(self):
        gt = GroundTruth(np.array([[1], [1], [2], [2]]))
        rankings = [[1], [0], [2], [0]]
        assert summarize(*score(rankings, gt), 1)["recall_at_k"] == {1: 0.5}

    def test_monotone_in_k(self):
        rng = np.random.default_rng(1)
        ranking = rng.permutation(30)
        vals = [recall(ranking, 17, k) for k in range(1, 31)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 1

    def test_k_validation(self):
        with pytest.raises(ValueError):
            summarize(*score([[1]], GroundTruth(np.array([[1]]))), 0)


class TestScore:
    def test_per_query_ap_and_true_nn_rank(self):
        gt = GroundTruth(np.array([[7, 8], [3, 4], [5, 6]]))
        aps, ranks = score([[1, 7, 8], [4], []], gt)
        assert aps.tolist() == pytest.approx([(1 / 2 + 2 / 3) / 2, 1 / 2, 0.0])
        assert ranks.tolist() == [1, -1, -1]
        assert aps.dtype == np.float64 and ranks.dtype == np.int64

    @pytest.mark.parametrize("count", [1, 3])
    def test_wrong_ranking_count_rejected(self, count):
        gt = GroundTruth(np.array([[1], [2]]))
        with pytest.raises(ValueError, match="2 queries in ground truth"):
            score([[1]] * count, gt)

    def test_summary_of_no_queries(self):
        aps, ranks = score([], GroundTruth(np.empty((0, 3), dtype=np.int64)))
        assert summarize(aps, ranks, 10) == {
            "map": 0.0, "recall_at_k": {1: 0.0, 10: 0.0}
        }

    def test_summary_cutoffs_and_means(self):
        aps = np.array([1.0, 0.5, 0.0, 0.25])
        ranks = np.array([0, 3, -1, 12])
        assert summarize(aps, ranks, 20) == {
            "map": 0.4375, "recall_at_k": {1: 0.25, 10: 0.5, 20: 0.75}
        }


class TestGroundTruth:
    def test_accessors(self):
        gt = GroundTruth(np.array([[3, 1], [2, 0]]))
        assert gt.num_queries == 2 and gt.depth == 2
        assert gt.true_nn(1) == 2
        assert gt.relevant(0).tolist() == [3, 1]

    def test_rejects_negative_ids(self):
        with pytest.raises(ValueError):
            GroundTruth(np.array([[-1]]))

    def test_rejects_empty_rows(self):
        with pytest.raises(ValueError):
            GroundTruth(np.empty((2, 0), dtype=np.int64))


class TestTimeQueries:
    """How ``run_benchmark`` times a batch of queries."""

    def test_warmup_plus_repetitions_call_count(self):
        calls = []
        queries = VectorSet(np.zeros((4, 2), dtype=np.float32))

        def run(v):
            calls.append(v)
            return RankedResult.empty()

        report, _, scores = run_benchmark(run, queries, k=1, repetitions=3)
        assert scores is None and report.map is None
        times = np.asarray(report.per_query_times_ms)
        assert times.shape == (4,)
        assert np.all(times >= 0)
        # one warm-up plus three timed repetitions per query
        assert len(calls) == 4 * (1 + 3)

    def test_empty_query_set(self):
        queries = VectorSet(np.empty((0, 0), dtype=np.float32))
        report, results, _ = run_benchmark(
            lambda v: RankedResult.empty(), queries, k=1
        )
        assert report.per_query_times_ms == [] and results == []
        assert report.mean_query_time_ms == 0.0

    def test_parallel_workers_cover_all_queries(self):
        import threading

        seen = set()
        lock = threading.Lock()
        # row qi holds (qi, qi), so a call names its query by its vector
        queries = VectorSet(np.repeat(np.arange(8, dtype=np.float32), 2).reshape(8, 2))

        def run(v):
            with lock:
                seen.add(int(v[0]))
            return RankedResult.empty()

        report, _, _ = run_benchmark(run, queries, k=1, repetitions=1, workers=4)
        assert len(report.per_query_times_ms) == 8 and seen == set(range(8))

    def test_validation(self):
        queries = VectorSet(np.zeros((1, 1), dtype=np.float32))

        def run(v):
            return RankedResult.empty()

        with pytest.raises(ValueError):
            run_benchmark(run, queries, k=1, repetitions=0)
        with pytest.raises(ValueError):
            run_benchmark(run, queries, k=1, workers=0)


class TestEstimateMemory:
    def test_vectors_half_gigabyte_at_1m_128d(self):
        est = estimate_memory(1_000_000, 128, BoiParams())
        assert est.vectors_bytes == 512_000_000

    def test_accumulator_four_megabytes(self):
        est = estimate_memory(1_000_000, 128, BoiParams())
        assert est.accumulator_bytes == 4_000_000

    def test_default_id_width_is_addressable(self):
        # 100 tables: projections 8*128*4, offsets 257*4, members 1M int32
        # ids; and the order, 1M int32 record ids
        est = estimate_memory(1_000_000, 128, BoiParams())
        assert est.index_bytes == 409_600 + 102_800 + 400_000_000 + 4_000_000
        assert est.total_bytes == 512_000_000 + 404_512_400 + 4_000_000

    def test_scales_with_tables(self):
        n, dim, b = 1000, 16, 8
        est = estimate_memory(n, dim, BoiParams(num_tables=7))
        assert est.index_bytes == 7 * (b * dim * 4 + (2**b + 1) * 4 + n * 4) + n * 4

    @pytest.mark.parametrize("tables, bits", [(3, 1), (5, 8), (2, 16)])
    def test_matches_the_arrays_of_an_index(self, tmp_path, tables, bits):
        rng = np.random.default_rng(bits)
        dataset = VectorSet(rng.standard_normal((300, 12)).astype(np.float32))
        params = BoiParams(
            num_tables=tables, hash_bits=bits, initial_probe_count=1, seed=3
        )
        built = build_index(dataset, params)
        save_index(built, tmp_path / "index.boi")
        est = estimate_memory(dataset.n, dataset.dim, params)
        for index in (built, load_index(tmp_path / "index.boi", dataset)):
            t = index.tables
            assert est.index_bytes == (
                t.projections.nbytes + t.offsets.nbytes + t.members.nbytes
                + t.order.nbytes
            )
            assert est.vectors_bytes == index.dataset.vectors.nbytes

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_memory(-1, 4, BoiParams())


class TestEvalReport:
    def test_json_schema(self):
        report = EvalReport(
            method="brute",
            num_queries=2,
            k=5,
            map=1.0,
            recall_at_k={1: 1.0},
            mean_query_time_ms=0.5,
            per_query_times_ms=[0.4, 0.6],
            mean_probe_count=None,
            memory_estimate=MemoryEstimate(10, 20, 30),
        )
        payload = json.loads(report.to_json())
        assert payload["schema_version"] == 1
        assert payload["map"] == 1.0
        assert payload["recall_at_k"] == {"1": 1.0}
        assert payload["memory_estimate"]["total_bytes"] == 60

    def test_rejects_rates_outside_unit_interval(self):
        with pytest.raises(ValueError):
            EvalReport(
                method="x",
                num_queries=1,
                k=1,
                map=1.5,
                recall_at_k={},
                mean_query_time_ms=0.0,
                per_query_times_ms=[],
                mean_probe_count=None,
                memory_estimate=None,
            )


def test_run_benchmark_brute_force_is_perfect():
    from boi.core import brute_force_query
    from boi.synth import SynthSpec, generate

    db, queries, gt = generate(SynthSpec(n=300, dim=8, num_queries=10, seed=4, gt_k=3))
    report, results, (aps, ranks) = run_benchmark(
        lambda v: brute_force_query(db, v, 3),
        queries,
        gt,
        k=3,
        repetitions=1,
        method="brute",
    )
    assert aps.tolist() == [1.0] * 10 and ranks.tolist() == [0] * 10
    assert report.map == 1.0
    assert report.recall_at_k[1] == 1.0
    assert report.num_queries == 10
    assert len(results) == 10
    assert report.mean_probe_count is None
    assert len(report.per_query_times_ms) == 10


@pytest.mark.parametrize("workers", [1, 2])
def test_run_benchmark_runs_each_query_once_plus_repetitions(workers):
    # one batch: the untimed warm-up call is the scored one, then the
    # timed repetitions; no separate accuracy pass
    import threading

    calls = {}
    lock = threading.Lock()
    # row qi holds (qi, qi), so a call names its query by its vector
    queries = VectorSet(np.repeat(np.arange(5, dtype=np.float32), 2).reshape(5, 2))

    def run(v):
        qi = int(v[0])
        with lock:
            nth = calls.get(qi, 0)
            calls[qi] = nth + 1
        return RankedResult(np.array([nth]), np.array([0.0]))

    report, results, _ = run_benchmark(
        run, queries, k=1, repetitions=3, workers=workers
    )
    assert sum(calls.values()) == 5 * (1 + 3)
    assert [r.ids.tolist() for r in results] == [[0]] * 5
    assert len(report.per_query_times_ms) == 5


@pytest.mark.parametrize("bad", [{"repetitions": 0}, {"workers": 0}])
def test_run_benchmark_rejects_bad_values_before_any_query(bad):
    calls = []
    queries = VectorSet(np.zeros((3, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        run_benchmark(lambda v: calls.append(v), queries, k=1, **bad)
    assert calls == []


def test_run_benchmark_parallel_matches_serial():
    # queries own their accumulator and RNG stream, so thread fan-out must
    # not change any ranking
    from boi.index import build_index, query
    from boi.synth import SynthSpec, generate

    db, queries, gt = generate(SynthSpec(n=400, dim=12, num_queries=16, seed=9, gt_k=2))
    params = BoiParams(
        num_tables=10, hash_bits=5, initial_probe_count=4, shortlist_size=40, seed=3
    )
    index = build_index(db, params)

    def run(v):
        return query(index, v, 5)

    serial, rs, _ = run_benchmark(run, queries, gt, k=5, workers=1, method="boi")
    parallel, rp, _ = run_benchmark(run, queries, gt, k=5, workers=4, method="boi")
    assert serial.map == parallel.map
    for a, b in zip(rs, rp):
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.distances, b.distances)


def test_run_benchmark_approximate_bounded_by_oracle():
    # with distance-based ground truth the exact scan upper-bounds any
    # approximate method's mAP
    from boi.core import brute_force_query
    from boi.index import build_index, query
    from boi.synth import SynthSpec, generate

    db, queries, gt = generate(SynthSpec(n=500, dim=16, num_queries=20, seed=5, gt_k=3))
    params = BoiParams(
        num_tables=4,
        hash_bits=5,
        initial_probe_count=1,
        shortlist_size=10,
        seed=6,
    )
    index = build_index(db, params)
    exact, _, _ = run_benchmark(
        lambda v: brute_force_query(db, v, 3), queries, gt, k=3, method="brute"
    )
    approx, _, _ = run_benchmark(
        lambda v: query(index, v, 3),
        queries,
        gt,
        k=3,
        method="boi",
    )
    assert exact.map >= approx.map
    assert approx.mean_probe_count is not None
