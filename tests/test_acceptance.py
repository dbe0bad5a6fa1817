"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import dataclasses
import math

import numpy as np

from boi.core import BoiParams, VectorSet, brute_force_query
from boi.data_io import (
    load_index,
    read_fvecs,
    read_ivecs,
    save_index,
    write_fvecs,
    write_ivecs,
)
from boi.evaluate import average_precision, estimate_memory, run_benchmark
from boi.index import (
    accumulate,
    build_index,
    build_schedule,
    query,
    weight,
)
from boi.synth import SynthSpec, generate


def test_c01_weight_conformance():
    for radius in range(5):
        for h in range(17):
            expected = 2.0 ** -h if h <= radius else 0.0
            assert weight(h, radius) == expected
    # the characteristic values: 1, 1/2, 1/4 inside the radius, 0 beyond it
    assert weight(0, 2) == 1.0
    assert weight(1, 2) == 0.5
    assert weight(2, 2) == 0.25
    assert weight(3, 2) == 0.0
    print("ACCEPTANCE 01 weight conformance: PASS")


def test_c02_schedule_conformance():
    params = BoiParams()  # gamma0=10, L=100, steps 40/25
    linear = build_schedule(dataclasses.replace(params, schedule="linear"))
    assert list(linear) == [10] * 39 + [8] * 40 + [6] * 21
    sublinear = build_schedule(dataclasses.replace(params, schedule="sublinear"))
    assert list(sublinear) == [10] * 49 + [8] * 25 + [6] * 25 + [4]
    print("ACCEPTANCE 02 schedule conformance: PASS")


def test_c03_probe_count_conformance():
    combos = [
        dict(schedule="fixed", initial_probe_count=10, num_tables=100, hash_bits=8, probe_radius=1),
        dict(schedule="sublinear", initial_probe_count=10, num_tables=100, hash_bits=8, probe_radius=1, sublinear_step=25),
        dict(schedule="linear", initial_probe_count=10, num_tables=100, hash_bits=8, probe_radius=1, linear_step=40),
        dict(schedule="fixed", initial_probe_count=0, num_tables=5, hash_bits=4, probe_radius=1),
        dict(schedule="fixed", initial_probe_count=3, num_tables=1, hash_bits=2, probe_radius=1),
        dict(schedule="fixed", initial_probe_count=7, num_tables=10, hash_bits=3, probe_radius=0),
        dict(schedule="sublinear", initial_probe_count=6, num_tables=50, hash_bits=10, probe_radius=2, sublinear_step=10),
        dict(schedule="linear", initial_probe_count=8, num_tables=60, hash_bits=10, probe_radius=2, linear_step=15),
        dict(schedule="fixed", initial_probe_count=4, num_tables=20, hash_bits=12, probe_radius=3),
        dict(schedule="linear", initial_probe_count=2, num_tables=7, hash_bits=4, probe_radius=1, linear_step=2),
        dict(schedule="sublinear", initial_probe_count=5, num_tables=9, hash_bits=6, probe_radius=1, sublinear_step=2),
        dict(schedule="fixed", initial_probe_count=15, num_tables=30, hash_bits=4, probe_radius=1),
        dict(schedule="fixed", initial_probe_count=5, num_tables=40, hash_bits=5, probe_radius=2),
        dict(schedule="sublinear", initial_probe_count=10, num_tables=100, hash_bits=8, probe_radius=1, sublinear_step=50),
        dict(schedule="linear", initial_probe_count=10, num_tables=100, hash_bits=8, probe_radius=1, linear_step=100),
        dict(schedule="fixed", initial_probe_count=1, num_tables=3, hash_bits=1, probe_radius=1),
        dict(schedule="sublinear", initial_probe_count=4, num_tables=2, hash_bits=3, probe_radius=1, sublinear_step=1),
        dict(schedule="linear", initial_probe_count=9, num_tables=45, hash_bits=7, probe_radius=1, linear_step=9),
        dict(schedule="fixed", initial_probe_count=6, num_tables=25, hash_bits=9, probe_radius=2),
        dict(schedule="sublinear", initial_probe_count=8, num_tables=33, hash_bits=6, probe_radius=1, sublinear_step=4),
    ]
    assert len(combos) == 20
    rng = np.random.default_rng(42)
    data = VectorSet(rng.standard_normal((400, 10)).astype(np.float32))
    queries = rng.standard_normal((3, 10)).astype(np.float32)
    for combo in combos:
        params = BoiParams(seed=7, shortlist_size=50, **combo)
        index = build_index(data, params)
        radius = params.probe_radius
        want = sum(
            math.comb(g, j)
            for g in build_schedule(params).tolist()
            for j in range(radius + 1)
        )
        # the criterion applies when no budget is clamped by the code space
        assert int(index.plan.budgets.max(initial=0)) <= params.num_buckets - 1
        for qi, q in enumerate(queries):
            got = query(index, q, 5, query_index=qi)
            assert got.probe_count == want, combo
    print("ACCEPTANCE 03 probe-count conformance: PASS (20 combinations)")


def test_c04_oracle_equivalence_full_probe():
    rng = np.random.default_rng(11)
    data = VectorSet(rng.standard_normal((1000, 16)).astype(np.float32))
    params = BoiParams(
        num_tables=10,
        hash_bits=2,
        probe_radius=2,
        initial_probe_count=3,  # with radius 2 this covers all 4 buckets
        shortlist_size=1000,
        schedule="fixed",
        seed=23,
    )
    index = build_index(data, params)
    for qi in range(100):
        q = rng.standard_normal(16).astype(np.float32)
        approx = query(index, q, 1000, query_index=qi)
        exact = brute_force_query(data, q, 1000)
        assert np.array_equal(approx.ids, exact.ids)
        assert np.array_equal(approx.distances, exact.distances)
    print("ACCEPTANCE 04 full-probe oracle equivalence: PASS (100 queries)")


def test_c05_recall_trend():
    db, queries, gt = generate(
        SynthSpec(n=10_000, dim=128, num_queries=100, seed=42, gt_k=1)
    )
    params = BoiParams(seed=42)  # reference defaults, shortlist 250
    index = build_index(db, params)

    def recall_at_1(idx):
        hits = [
            query(idx, queries.vectors[qi], 1, query_index=qi).ids[:1].tolist()
            == [gt.true_nn(qi)]
            for qi in range(queries.n)
        ]
        return float(np.mean(hits))

    r_small = recall_at_1(index)
    big = dataclasses.replace(params, shortlist_size=10_000)
    from boi.index import BoiIndex

    r_big = recall_at_1(BoiIndex(big, index.tables, db))
    assert r_small >= 0.85, f"recall@1 with shortlist 250 was {r_small}"
    assert r_big >= r_small
    print(
        f"ACCEPTANCE 05 recall trend: PASS "
        f"(recall@1 eps=250: {r_small:.3f}, eps=10000: {r_big:.3f})"
    )


def test_c06_latency_direction():
    db, queries, _ = generate(
        SynthSpec(n=100_000, dim=128, num_queries=30, seed=5, gt_k=1)
    )
    params = BoiParams(seed=11)  # adaptive sublinear defaults
    index = build_index(db, params)
    boi_mean = run_benchmark(
        lambda v: query(index, v, 10),
        queries,
        k=10,
        repetitions=1,
    )[0].mean_query_time_ms
    brute_mean = run_benchmark(
        lambda v: brute_force_query(db, v, 10), queries, k=10, repetitions=1
    )[0].mean_query_time_ms
    assert boi_mean < 0.2 * brute_mean, (
        f"adaptive mean {boi_mean:.3f} ms vs brute mean {brute_mean:.3f} ms"
    )
    print(
        f"ACCEPTANCE 06 latency direction: PASS "
        f"(adaptive {boi_mean:.2f} ms < 0.2 x brute {brute_mean:.2f} ms)"
    )


def test_c07_memory_accounting():
    params = BoiParams()  # 100 tables
    est = estimate_memory(1_000_000, 128, params)
    assert est.vectors_bytes == 512_000_000  # 0.5 GB of raw vectors
    # float32 projections 409,600 + int32 offsets 102,800 + int32 ids 400 MB
    # + the int32 order 4 MB
    assert est.index_bytes == 404_512_400
    assert est.accumulator_bytes == 4_000_000  # 4 MB of int32 votes
    print("ACCEPTANCE 07 memory accounting: PASS")


def test_c08_map_calculator():
    assert abs(average_precision([7, 1, 2], {7}) - 1.0) < 1e-12
    assert abs(average_precision([1, 7, 2], {7}) - 0.5) < 1e-12
    assert abs(average_precision([7, 1, 8], {7, 8}) - 5 / 6) < 1e-12
    print("ACCEPTANCE 08 mAP calculator: PASS")


def test_c09_determinism_two_full_runs(tmp_path):
    def full_run(tag):
        db, queries, _ = generate(
            SynthSpec(n=2000, dim=32, num_queries=10, seed=101, gt_k=1)
        )
        params = BoiParams(num_tables=50, hash_bits=7, seed=2024)
        index = build_index(db, params)
        snap = tmp_path / f"{tag}.boix"
        save_index(index, snap)
        accs = [
            accumulate(index, queries.vectors[qi], query_index=qi)
            for qi in range(queries.n)
        ]
        results = [
            query(index, queries.vectors[qi], 10, query_index=qi)
            for qi in range(queries.n)
        ]
        return snap.read_bytes(), accs, results

    bytes1, accs1, res1 = full_run("run1")
    bytes2, accs2, res2 = full_run("run2")
    assert bytes1 == bytes2
    for a, b in zip(accs1, accs2):
        assert np.array_equal(a, b)
    for a, b in zip(res1, res2):
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.distances, b.distances)
        assert a.probe_count == b.probe_count
    print("ACCEPTANCE 09 determinism across full runs: PASS")


def test_c10_round_trips(tmp_path):
    rng = np.random.default_rng(33)
    data = VectorSet(rng.standard_normal((500, 20)).astype(np.float32))

    fpath = tmp_path / "base.fvecs"
    write_fvecs(fpath, data)
    loaded = read_fvecs(fpath)
    assert np.array_equal(loaded.vectors, data.vectors)
    f2 = tmp_path / "again.fvecs"
    write_fvecs(f2, loaded)
    assert fpath.read_bytes() == f2.read_bytes()

    rows = rng.integers(0, 500, size=(40, 8)).astype(np.int32)
    ipath = tmp_path / "gt.ivecs"
    write_ivecs(ipath, rows)
    assert np.array_equal(read_ivecs(ipath), rows)

    params = BoiParams(
        num_tables=12, hash_bits=6, initial_probe_count=5, seed=3
    )
    index = build_index(data, params)
    spath = tmp_path / "index.boix"
    save_index(index, spath)
    reloaded = load_index(spath, data)
    s2 = tmp_path / "index2.boix"
    save_index(reloaded, s2)
    assert spath.read_bytes() == s2.read_bytes()
    for qi in range(20):
        q = rng.standard_normal(20).astype(np.float32)
        a = query(index, q, 10, query_index=qi)
        b = query(reloaded, q, 10, query_index=qi)
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.distances, b.distances)
    print("ACCEPTANCE 10 round-trips: PASS")
