#!/usr/bin/env python3
"""End-to-end and per-stage benchmark for boi, measured from outside.

    python3 bench/run.py --seed 1                      # every workload
    python3 bench/run.py --workload b8-dense --seed 1 --seconds 20 --trace 0

The benchmark imports ``boi`` from ``src/`` of the checkout it sits in and
calls only its public functions; it changes nothing in the program. Each
workload runs in a fresh process. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: end-to-end metrics with ``--trace 0``, per-stage metrics with
``--trace 1``. The exit code is non-zero when any answer failed its check.
See ``bench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import dataset as bench_data

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".bench_cache"

K = 10
TIMED = 2000  # queries 0..TIMED-1 are timed and scored; later rows warm up
TRACED = 1000  # queries in each of the untraced and traced passes of --trace 1
BUILD_REPEATS = 3
ROUNDS = 20
LOAD_BUDGET_S = 3.0  # one load per round until this much time is spent
SAVE_REPEATS = 3
LOADED_CHECK_QUERIES = 5
COUNT_QUERIES = 200
BASELINE_COUNT_QUERIES = 50
MULTIPROBE_RADIUS = 1


@dataclass(frozen=True)
class Workload:
    bits: int
    # queries per second of --seconds run by each pass other than the
    # fixed TIMED-query single-client pass
    w2_rate: float
    lsh_rate: float
    multiprobe_rate: float
    brute_rate: float


WORKLOADS = {
    "b8-dense": Workload(bits=8, w2_rate=30, lsh_rate=5, multiprobe_rate=3, brute_rate=1),
    "b16-sparse": Workload(bits=16, w2_rate=50, lsh_rate=5, multiprobe_rate=5, brute_rate=1),
}

END_TO_END_UNITS = {
    "qps_w1": "1/s",
    "qps_w2": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "recall1": "frac",
    "recall10_at10": "frac",
    "map": "frac",
    "setup_s": "s",
    "load_s": "s",
    "peak_rss_mb": "MB",
    "lsh_qps": "1/s",
    "multiprobe_qps": "1/s",
    "brute_qps": "1/s",
}
# Printed, and written by --out, but kept out of the last line's metrics:
# failed_frac is 0 on every correct run (the line carries attempted and
# failed instead), and p99 moves with bursts of load from outside the
# program by more than any bound could allow (see README.md).
REPORTED_ONLY_UNITS = {"latency_p99_ms": "ms", "failed_frac": "frac"}

PER_LAYER_UNITS = {
    "hashing.build_hash_s": "s",
    "hashing.build_insert_s": "s",
    "hashing.query_codes_ms": "ms",
    "hashing.probe_order_ms": "ms",
    "index.gather_vote_ms": "ms",
    "index.shortlist_ms": "ms",
    "core.rerank_ms": "ms",
    "trace.query_ms": "ms",
    "trace.unattributed_frac": "frac",
    "trace.overhead_frac": "frac",
    "index.buckets_probed": "count",
    "index.pairs_scanned": "count",
    "index.touched_frac": "frac",
    "index.shortlist_size": "count",
    "data_io.snapshot_mb": "MB",
    "data_io.save_s": "s",
    "evaluate.memory_model_mb": "MB",
    "baselines.lsh_candidates": "count",
    "baselines.multiprobe_candidates": "count",
    "baselines.lsh_recall10_at10": "frac",
    "baselines.multiprobe_recall10_at10": "frac",
}


def import_boi():
    """Import the program from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import boi
    except ImportError as exc:
        sys.exit(f"bench: cannot import boi from {src}: {exc}")
    if Path(boi.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"bench: imported boi from {boi.__file__}, not from {src}")
    return boi


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, what: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{what}: {error}")


def answer_error(result, q: np.ndarray, base: np.ndarray) -> str | None:
    """Why one k-NN answer is wrong, or None when it passes every check."""
    if isinstance(result, Exception):
        return f"raised {type(result).__name__}: {result}"
    ids = np.asarray(result.ids)
    dist = np.asarray(result.distances)
    if ids.shape != (K,) or dist.shape != (K,):
        return f"{ids.size} results, expected {K}"
    if ids.min() < 0 or ids.max() >= base.shape[0]:
        return "record id out of range"
    if np.unique(ids).size != K:
        return "duplicate record ids"
    if np.any(np.diff(dist) < 0):
        return "distances decrease along the ranking"
    diff = base[ids].astype(np.float64) - q.astype(np.float64)
    if not np.allclose(dist, np.sqrt((diff * diff).sum(axis=1)), rtol=1e-9, atol=1e-12):
        return "distances differ from a float64 recompute"
    return None


def closed_loop(call, indices, clients: int = 1):
    """Run call(qi) for each index from ``clients`` callers that each wait
    for their reply before taking the next index.

    Returns {qi: result or raised exception}, {qi: seconds} and the wall
    time of the whole pass.
    """
    results: dict = {}
    latency: dict = {}
    lock = threading.Lock()
    pending = iter(indices)

    def client():
        while True:
            with lock:
                qi = next(pending, None)
            if qi is None:
                return
            t0 = time.perf_counter()
            try:
                out = call(qi)
            except Exception as exc:  # a failed operation, scored later
                out = exc
            latency[qi] = time.perf_counter() - t0
            results[qi] = out

    threads = [threading.Thread(target=client) for _ in range(clients)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results, latency, time.perf_counter() - t0


def check_all(label, results, queries, base, tally, groundtruth=None) -> None:
    for qi, res in results.items():
        error = answer_error(res, queries[qi], base)
        if error is None and groundtruth is not None and not np.array_equal(
            res.ids, groundtruth[qi]
        ):
            error = "differs from the exact ground truth"
        tally.record(f"{label} query {qi}", error)


def quality(results, groundtruth) -> dict:
    """recall1, recall10_at10 and mAP; a failed answer scores 0."""
    r1, r10, aps = [], [], []
    for qi in range(TIMED):
        res = results[qi]
        ids = np.empty(0, np.int64) if isinstance(res, Exception) else np.asarray(res.ids)
        truth = groundtruth[qi]
        r1.append(ids.size > 0 and ids[0] == truth[0])
        r10.append(np.intersect1d(ids[:K], truth[:K]).size / K)
        hits = np.isin(ids, truth)
        precision = np.cumsum(hits) / np.arange(1, ids.size + 1)
        aps.append(float((precision * hits).sum()) / np.unique(truth).size)
    return {
        "recall1": float(np.mean(r1)),
        "recall10_at10": float(np.mean(r10)),
        "map": float(np.mean(aps)),
    }


@contextmanager
def patched(owner, attr: str, wrap):
    """Replace ``owner.attr`` by ``wrap(original)`` inside the block.

    Yields False and patches nothing when the program has no such callable,
    so a renamed or removed function makes its span or count absent.
    """
    original = getattr(owner, attr, None) if owner is not None else None
    if not callable(original):
        yield False
        return
    setattr(owner, attr, wrap(original))
    try:
        yield True
    finally:
        setattr(owner, attr, original)


def timer_into(sink: dict, name: str):
    """Wrapper factory adding each call's duration to ``sink[name]``."""

    def wrap(fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                sink[name] += time.perf_counter() - t0

        return timed

    return wrap


def build_repeated(boi, base_set, params):
    times = []
    for _ in range(BUILD_REPEATS):
        index = None  # free the previous build before making the next
        t0 = time.perf_counter()
        index = boi.build_index(base_set, params)
        times.append(time.perf_counter() - t0)
    return index, times


def method_calls(boi, index, base_set, queries):
    eps = index.params.shortlist_size
    if hasattr(boi, "lsh_query"):
        lsh = lambda qi: boi.lsh_query(index.tables, base_set, queries[qi], eps, K)
    else:  # documented as multi-probe LSH at radius 0
        lsh = lambda qi: boi.multiprobe_lsh_query(index.tables, base_set, queries[qi], 0, eps, K)
    return {
        "boi": lambda qi: boi.query(index, queries[qi], K, qi),
        "lsh": lsh,
        "multiprobe": lambda qi: boi.multiprobe_lsh_query(
            index.tables, base_set, queries[qi], MULTIPROBE_RADIUS, eps, K
        ),
        "brute": lambda qi: boi.brute_force_query(base_set, queries[qi], K),
    }


def warm_up(calls, queries, base, tally) -> None:
    """Untimed calls on rows that are never timed, so lazy set-up is done."""
    warm = range(TIMED, queries.shape[0])
    plan = {"boi": warm, "lsh": warm[:5], "multiprobe": warm[:3], "brute": warm[:2]}
    for name, rows in plan.items():
        results, _, _ = closed_loop(calls[name], rows)
        check_all(f"warm-up {name}", results, queries, base, tally)


def end_to_end(boi, wl: Workload, data, base_set, seconds: float, tally, notes) -> dict:
    """Set-up, then the timed passes interleaved over ROUNDS rounds so that
    every metric samples the whole run rather than one stretch of it."""
    queries, gt = data.queries, data.groundtruth
    base = base_set.vectors
    params = boi.BoiParams(hash_bits=wl.bits)
    index, build_times = build_repeated(boi, base_set, params)
    calls = method_calls(boi, index, base_set, queries)
    block = TIMED // ROUNDS
    # per round, in this order: (pass, method, clients, queries per round);
    # the two-client pass re-runs the previous round's single-client block,
    # so no query is run shortly before it is timed single-client
    plan = [
        ("w2", "boi", 2, min(block, max(2, round(wl.w2_rate * seconds / ROUNDS)))),
        ("w1", "boi", 1, block),
        ("lsh", "lsh", 1, max(1, round(wl.lsh_rate * seconds / ROUNDS))),
        ("multiprobe", "multiprobe", 1, max(1, round(wl.multiprobe_rate * seconds / ROUNDS))),
        ("brute", "brute", 1, max(1, round(wl.brute_rate * seconds / ROUNDS))),
    ]
    walls = {name: [] for name, *_ in plan}
    latency, w1_results, load_times = {}, {}, []
    with tempfile.TemporaryDirectory(dir=CACHE) as tmp:
        snapshot = Path(tmp) / "index.boix"
        boi.save_index(index, snapshot)
        warm_up(calls, queries, base, tally)
        for r in range(ROUNDS):
            for name, method, clients, count in plan:
                first = ((r - 1) % ROUNDS) * block if name == "w2" else r * count
                results, lat, wall = closed_loop(calls[method], range(first, first + count), clients)
                walls[name].append(wall)
                check_all(name, results, queries, base, tally, gt if method == "brute" else None)
                if name == "w1":
                    latency.update(lat)
                    w1_results.update(results)
            if len(load_times) < ROUNDS and sum(load_times) < LOAD_BUDGET_S:
                t0 = time.perf_counter()
                loaded = boi.load_index(snapshot, base_set)
                load_times.append(time.perf_counter() - t0)
                if len(load_times) == 1:
                    for qi in range(LOADED_CHECK_QUERIES):
                        a, b = calls["boi"](qi), boi.query(loaded, queries[qi], K, qi)
                        same = np.array_equal(a.ids, b.ids) and np.array_equal(a.distances, b.distances)
                        tally.record(f"loaded snapshot query {qi}",
                                     None if same else "answer differs from the built index")
                del loaded

    lat_ms = np.array([latency[qi] for qi in range(TIMED)]) * 1e3
    # a pass's rate is the median of its per-round rates, so a burst of
    # interference from outside the program moves it less than a mean would
    rate = {name: statistics.median(count / w for w in walls[name]) for name, _, _, count in plan}
    m = {
        "qps_w1": rate["w1"],
        "qps_w2": rate["w2"],
        "latency_p50_ms": float(np.percentile(lat_ms, 50)),
        "latency_p95_ms": float(np.percentile(lat_ms, 95)),
        "latency_p99_ms": float(np.percentile(lat_ms, 99)),
        **quality(w1_results, gt),
        "setup_s": statistics.median(build_times),
        "load_s": statistics.median(load_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name in ("lsh", "multiprobe", "brute"):
        m[f"{name}_qps"] = rate[name]
    notes["samples"] = {name: ROUNDS * count for name, _, _, count in plan}
    notes["samples"].update(builds=len(build_times), loads=len(load_times))
    return m


def traced_pass(boi, index, queries, indices, tally):
    """Call accumulate, shortlist and the re-rank one by one, with spans
    around the hash and probe-order functions inside accumulate.

    Returns per-query stage seconds (columns: accumulate, hash, probe
    order, shortlist, re-rank), the pass's wall time, the ranked ids, and
    the set of spans the program still has.
    """
    core = getattr(boi, "core", None)
    stages = (
        getattr(boi, "accumulate", None),
        getattr(boi, "shortlist", None),
        getattr(boi, "pairwise_distances", None),
        getattr(core, "rank_by_distance", None),
    )
    if not all(callable(f) for f in stages):
        return None
    accumulate, shortlist, pairwise, rank = stages
    eps = index.params.shortlist_size
    vectors = index.dataset.vectors
    inner = {"hash": 0.0, "probe": 0.0}
    per = np.zeros((len(indices), 5))
    ids_out = {}
    index_module = getattr(boi, "index", None)
    with ExitStack() as stack:
        present = {
            "hash": stack.enter_context(
                patched(index_module, "hash_codes_all", timer_into(inner, "hash"))
            ),
            "probe": stack.enter_context(
                patched(index_module, "neighbor_codes_with_distance", timer_into(inner, "probe"))
            ),
        }
        start = time.perf_counter()
        for row, qi in enumerate(indices):
            q = queries[qi]
            inner["hash"] = inner["probe"] = 0.0
            try:
                t0 = time.perf_counter()
                weights = accumulate(index, q, qi)
                t1 = time.perf_counter()
                cand = shortlist(weights, eps)
                t2 = time.perf_counter()
                ids, _ = rank(cand, pairwise(vectors[cand], q), K)
                t3 = time.perf_counter()
            except Exception as exc:
                tally.record(f"traced query {qi}", f"raised {type(exc).__name__}: {exc}")
                continue
            tally.record(f"traced query {qi}", None)
            per[row] = (t1 - t0, inner["hash"], inner["probe"], t2 - t1, t3 - t2)
            ids_out[qi] = ids
        wall = time.perf_counter() - start
    return per, wall, ids_out, {name for name, ok in present.items() if ok}


def per_layer(boi, wl: Workload, data, base_set, tally, notes) -> dict:
    queries, gt = data.queries, data.groundtruth
    params = boi.BoiParams(hash_bits=wl.bits)
    m = {}

    build = {"hash": 0.0, "insert": 0.0}
    hash_s, insert_s = [], []
    with ExitStack() as stack:
        has_hash = stack.enter_context(
            patched(getattr(boi, "hashing", None), "hash_codes_all", timer_into(build, "hash"))
        )
        has_insert = stack.enter_context(
            patched(getattr(boi, "index", None), "insert_all", timer_into(build, "insert"))
        )
        for _ in range(BUILD_REPEATS):
            index = None  # free the previous build before making the next
            build["hash"] = build["insert"] = 0.0
            index = boi.build_index(base_set, params)
            hash_s.append(build["hash"])
            insert_s.append(build["insert"] - build["hash"])
    if has_hash:
        m["hashing.build_hash_s"] = statistics.median(hash_s)
    if has_hash and has_insert:
        m["hashing.build_insert_s"] = statistics.median(insert_s)

    with tempfile.TemporaryDirectory(dir=CACHE) as tmp:
        snapshot = Path(tmp) / "index.boix"
        save_times = []
        for _ in range(SAVE_REPEATS):
            t0 = time.perf_counter()
            boi.save_index(index, snapshot)
            save_times.append(time.perf_counter() - t0)
        m["data_io.save_s"] = statistics.median(save_times)
        m["data_io.snapshot_mb"] = snapshot.stat().st_size / 2**20
    m["evaluate.memory_model_mb"] = (
        boi.estimate_memory(base_set.n, base_set.dim, params).total_bytes / 2**20
    )

    calls = method_calls(boi, index, base_set, queries)
    warm_up(calls, queries, base_set.vectors, tally)

    # untraced and traced single-client passes over the same queries, in
    # blocks that alternate which pass goes first, so that drift in the
    # machine's speed and warm caches fall on both alike
    plain, plain_walls, traced = {}, [], []

    def untraced_block(rows):
        results, _, wall = closed_loop(calls["boi"], rows)
        check_all("boi", results, queries, base_set.vectors, tally)
        plain.update(results)
        plain_walls.append(wall)

    def traced_block(rows):
        traced.append(traced_pass(boi, index, queries, rows, tally))

    block = TRACED // ROUNDS
    for b, start in enumerate(range(0, TRACED, block)):
        order = (untraced_block, traced_block) if b % 2 == 0 else (traced_block, untraced_block)
        for run_block in order:
            run_block(range(start, start + block))
    if traced[0] is not None:
        per = np.concatenate([t[0] for t in traced])
        wall = sum(t[1] for t in traced)
        ids = {qi: got for t in traced for qi, got in t[2].items()}
        spans = traced[0][3]
        mean_ms = per.mean(axis=0) * 1e3
        acc_ms, hash_ms, probe_ms, short_ms, rerank_ms = mean_ms
        m["trace.query_ms"] = wall / TRACED * 1e3
        m["trace.overhead_frac"] = 1.0 - sum(plain_walls) / wall
        m["index.shortlist_ms"] = short_ms
        m["core.rerank_ms"] = rerank_ms
        if "hash" in spans:
            m["hashing.query_codes_ms"] = hash_ms
        if "probe" in spans:
            m["hashing.probe_order_ms"] = probe_ms
        if spans == {"hash", "probe"}:
            m["index.gather_vote_ms"] = acc_ms - hash_ms - probe_ms
        m["trace.unattributed_frac"] = 1.0 - (acc_ms + short_ms + rerank_ms) / m["trace.query_ms"]
        differ = sum(
            1 for qi, got in ids.items()
            if not isinstance(plain[qi], Exception) and not np.array_equal(got, plain[qi].ids)
        )
        if differ:
            notes["warning"] = f"traced stages ranked {differ} queries differently from query()"

    # untimed counting pass, kept apart from the traced one
    pairs = {"n": 0}

    def count_members(fn):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            pairs["n"] += len(out)
            return out

        return counted

    probed, scanned, touched, short = [], [], [], []
    table_cls = getattr(getattr(boi, "hashing", None), "ProjectionTable", None)
    accumulate = getattr(boi, "accumulate", None)
    for qi in range(COUNT_QUERIES):
        q = queries[qi]
        pairs["n"] = 0
        try:
            with patched(table_cls, "bucket", count_members) as has_pairs:
                res = boi.query(index, q, K, qi)
            weights = accumulate(index, q, qi) if callable(accumulate) else None
        except Exception as exc:
            tally.record(f"counting query {qi}", f"raised {type(exc).__name__}: {exc}")
            continue
        tally.record(f"counting query {qi}", answer_error(res, q, base_set.vectors))
        probed.append(getattr(res, "probe_count", None))
        short.append(getattr(res, "shortlist_size", None))
        if has_pairs:
            scanned.append(pairs["n"])
        if weights is not None:
            touched.append(np.count_nonzero(weights) / base_set.n)
    for name, values in (
        ("index.buckets_probed", probed),
        ("index.shortlist_size", short),
        ("index.pairs_scanned", scanned),
        ("index.touched_frac", touched),
    ):
        if values and all(v is not None for v in values):
            m[name] = float(np.mean(values))

    for name in ("lsh", "multiprobe"):
        results, _, _ = closed_loop(calls[name], range(BASELINE_COUNT_QUERIES))
        check_all(name, results, queries, base_set.vectors, tally)
        ok = [r for r in results.values() if not isinstance(r, Exception)]
        sizes = [r.shortlist_size for r in ok if getattr(r, "shortlist_size", None) is not None]
        if sizes:
            m[f"baselines.{name}_candidates"] = float(np.mean(sizes))
        if ok:
            m[f"baselines.{name}_recall10_at10"] = float(np.mean([
                np.intersect1d(np.asarray(r.ids)[:K], gt[qi][:K]).size / K
                for qi, r in results.items() if not isinstance(r, Exception)
            ]))
    return m


def self_check(boi, seed: int, tally) -> None:
    """At full probe on a tiny set, boi must return the exact answer."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5E1F)))
    base_set = boi.VectorSet(rng.standard_normal((400, 16)).astype(np.float32))
    bits = 5
    params = boi.BoiParams(
        num_tables=4, hash_bits=bits, initial_probe_count=2**bits - 1,
        schedule="fixed", shortlist_size=base_set.n, seed=seed,
    )
    index = boi.build_index(base_set, params)
    for qi in range(20):
        q = rng.standard_normal(16).astype(np.float32)
        got = boi.query(index, q, K, qi)
        want = boi.brute_force_query(base_set, q, K)
        same = np.array_equal(got.ids, want.ids) and np.array_equal(got.distances, want.distances)
        tally.record(f"self-check query {qi}", None if same else "full-probe answer differs from brute force")


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(name: str, seed: int, seconds: float, trace: bool, out: Path | None) -> int:
    boi = import_boi()
    CACHE.mkdir(exist_ok=True)
    data, gen_s = bench_data.load(seed, CACHE)
    base_set = boi.VectorSet(data.base)
    tally, notes = Tally(), {}
    self_check(boi, seed, tally)
    wl = WORKLOADS[name]
    if trace:
        values = per_layer(boi, wl, data, base_set, tally, notes)
        units = PER_LAYER_UNITS
    else:
        values = end_to_end(boi, wl, data, base_set, seconds, tally, notes)
        units = END_TO_END_UNITS
    if not trace:
        values["failed_frac"] = tally.failed / tally.attempted
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values}
    reported = {} if trace else {
        k: {"value": values[k], "unit": u} for k, u in REPORTED_ONLY_UNITS.items()
    }
    absent = [k for k in units if k not in values]

    print(f"workload {name}  seed {seed}  trace {int(trace)}  seconds {seconds:g}")
    print("dataset  " + "  ".join(f"{f}=sha256:{d[:16]}" for f, d in data.digests.items())
          + (f"  (generated in {gen_s:.1f} s)" if gen_s else "  (cached)"))
    for key, value in notes.items():
        print(f"{key}  {value}")
    for key, rec in {**metrics, **reported}.items():
        print(f"  {key:<36} {fmt(rec['value']):>12} {rec['unit']}")
    for key in absent:
        print(f"  {key:<36} {'absent':>12}")
    for reason in tally.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    if out is not None:
        out.write_text(json.dumps({
            "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
            "dataset": {"spec": bench_data.SPEC, "sha256": data.digests},
            "attempted": tally.attempted, "failed": tally.failed,
            "failures": tally.reasons, "absent": absent, "notes": notes,
            "metrics": {**metrics, **reported},
        }, indent=1) + "\n")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if tally.failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool, out: Path | None) -> int:
    """Every workload, each in a fresh process, then one summary table."""
    import_boi()  # fail before starting anything when the program is missing
    CACHE.mkdir(exist_ok=True)
    results, status = {}, 0
    with tempfile.TemporaryDirectory(dir=CACHE) as tmp:
        for name in WORKLOADS:
            path = Path(tmp) / f"{name}.json"
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(int(trace)), "--out", str(path)],
            )
            status = status or proc.returncode
            if path.exists():
                results[name] = json.loads(path.read_text())
    units = {**PER_LAYER_UNITS} if trace else {**END_TO_END_UNITS, **REPORTED_ONLY_UNITS}
    print(f"\n{'metric':<36}" + "".join(f"{w:>16}" for w in results) + "  unit")
    for key, unit in units.items():
        cells = "".join(
            f"{fmt(r['metrics'][key]['value']) if key in r['metrics'] else 'absent':>16}"
            for r in results.values()
        )
        print(f"{key:<36}{cells}  {unit}")
    if out is not None:
        out.write_text(json.dumps(results, indent=1) + "\n")
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0 and status == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full result as JSON")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace), args.out)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.out)


if __name__ == "__main__":
    sys.exit(main())
