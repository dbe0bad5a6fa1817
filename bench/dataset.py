"""The benchmark's dataset: one seeded Gaussian mixture with exact ground truth.

The recipe and its random draws are the ones ``boi gen`` uses, so

    boi gen --out DIR --n 100000 --dim 128 --clusters 32 --cluster-std 0.05 \
        --query-jitter 0.05 --num-queries 2050 --gt-k 10 --seed SEED

writes the same base and query vectors. Ground truth is computed here
rather than by ``boi gen``: a float64 matrix product picks a few dozen
candidates per query and the exact float64 distance of each candidate
decides the order (ties by ascending id), which gives the exact scan's
answer in a few seconds instead of about a minute.

Files are cached per seed under ``.bench_cache/seed-<seed>/`` at the root
of the checkout, as fvecs/ivecs (the formats ``boi`` reads), beside a
``digest.json`` that holds the spec and a SHA-256 digest of each file.
A cached set is used only when its spec and digests still match.

Run as a script to generate one seed's files:

    python3 bench/dataset.py --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPEC = {
    "n": 100_000,
    "dim": 128,
    "clusters": 32,
    "cluster_std": 0.05,
    "query_jitter": 0.05,
    # rows 0..TIMED-1 are measured; the rest warm the program up untimed
    "num_queries": 2050,
    "gt_k": 10,
}
FILES = ("base.fvecs", "queries.fvecs", "groundtruth.ivecs")
CACHE_KEEP = 6  # seed directories kept in the cache, most recently used first
PREFILTER = 64  # candidates per query that get an exact distance
GEN_TIMEOUT_S = 600


@dataclass(frozen=True)
class Dataset:
    base: np.ndarray  # (n, dim) float32
    queries: np.ndarray  # (num_queries, dim) float32
    groundtruth: np.ndarray  # (num_queries, gt_k) int64, nearest first
    digests: dict  # file name -> sha256 hex digest


def mixture(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Base and query vectors, drawn in the order ``boi gen`` draws them."""
    n, dim, num_q = SPEC["n"], SPEC["dim"], SPEC["num_queries"]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    centers = rng.standard_normal((SPEC["clusters"], dim))
    assignment = np.arange(n) % SPEC["clusters"]
    points = centers[assignment] + SPEC["cluster_std"] * rng.standard_normal((n, dim))
    base = points.astype(np.float32)
    del points
    picks = rng.choice(n, size=num_q, replace=num_q > n)
    qpoints = base[picks] + SPEC["query_jitter"] * rng.standard_normal((num_q, dim))
    return base, qpoints.astype(np.float32)


def exact_knn(base: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Exact k nearest neighbors by float64 Euclidean distance, ties by id."""
    X = base.astype(np.float64)
    norms = np.einsum("ij,ij->i", X, X)
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    keep = min(PREFILTER, base.shape[0] - 1)
    for start in range(0, queries.shape[0], 64):
        Q = queries[start : start + 64].astype(np.float64)
        approx = norms[np.newaxis, :] - 2.0 * (Q @ X.T)
        approx += np.einsum("ij,ij->i", Q, Q)[:, np.newaxis]
        part = np.argpartition(approx, keep, axis=1)
        for row, q in enumerate(Q):
            cand = part[row, :keep]
            diff = X[cand] - q
            dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            order = np.lexsort((cand, dist))[:k]
            # the prefilter is exact only if every excluded record is
            # clearly farther than the k-th neighbor
            excluded = approx[row, part[row, keep]]
            if dist[order[-1]] ** 2 + 1e-6 >= excluded:
                raise RuntimeError("ground-truth prefilter too narrow")
            out[start + row] = cand[order]
    return out


def write_vecs(path: Path, rows: np.ndarray, dtype: str) -> None:
    """fvecs ('<f4') or ivecs ('<i4'): an int32 dimension header per row."""
    rows = np.asarray(rows)
    buf = np.empty((rows.shape[0], 1 + rows.shape[1]), dtype="<i4")
    buf[:, 0] = rows.shape[1]
    buf[:, 1:] = rows.astype(dtype).view("<i4")
    path.write_bytes(buf.tobytes())


def read_vecs(path: Path, dtype: str) -> np.ndarray:
    raw = np.fromfile(path, dtype="<i4")
    dim = int(raw[0])
    rows = raw.reshape(-1, 1 + dim)
    if np.any(rows[:, 0] != dim):
        raise ValueError(f"{path}: inconsistent row dimensions")
    return np.ascontiguousarray(rows[:, 1:]).view(dtype)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 22), b""):
            h.update(block)
    return h.hexdigest()


def make(seed: int, out: Path) -> None:
    """Generate one seed's files and their digest record into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    base, queries = mixture(seed)
    gt = exact_knn(base, queries, SPEC["gt_k"])
    write_vecs(out / "base.fvecs", base, "<f4")
    write_vecs(out / "queries.fvecs", queries, "<f4")
    write_vecs(out / "groundtruth.ivecs", gt, "<i4")
    record = {
        "seed": seed,
        "spec": SPEC,
        "digests": {name: sha256(out / name) for name in FILES},
    }
    (out / "digest.json").write_text(json.dumps(record, indent=1) + "\n")


def _load_checked(seed: int, folder: Path) -> Dataset | None:
    try:
        record = json.loads((folder / "digest.json").read_text())
    except (OSError, ValueError):
        return None
    if record.get("seed") != seed or record.get("spec") != SPEC:
        return None
    digests = {name: sha256(folder / name) for name in FILES if (folder / name).exists()}
    if digests != record.get("digests"):
        return None
    os.utime(folder / "digest.json")  # marks the set as recently used
    return Dataset(
        base=read_vecs(folder / "base.fvecs", "<f4"),
        queries=read_vecs(folder / "queries.fvecs", "<f4"),
        groundtruth=read_vecs(folder / "groundtruth.ivecs", "<i4").astype(np.int64),
        digests=digests,
    )


def _prune(cache: Path) -> None:
    folders = [p for p in cache.glob("seed-*") if (p / "digest.json").exists()]
    folders.sort(key=lambda p: (p / "digest.json").stat().st_mtime, reverse=True)
    for stale in folders[CACHE_KEEP:]:
        shutil.rmtree(stale, ignore_errors=True)


def load(seed: int, cache: Path) -> tuple[Dataset, float]:
    """One seed's dataset, generated in a child process on a cache miss.

    Generation runs in its own process so that its float64 temporaries
    never show in the caller's peak resident memory. Returns the dataset
    and the seconds spent generating (0 on a cache hit).
    """
    folder = cache / f"seed-{seed}"
    data = _load_checked(seed, folder)
    if data is not None:
        return data, 0.0
    t0 = time.perf_counter()
    tmp = cache / f".tmp-seed-{seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--seed", str(seed), "--out", str(tmp)],
            check=True,
            timeout=GEN_TIMEOUT_S,
        )
        shutil.rmtree(folder, ignore_errors=True)
        os.replace(tmp, folder)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    _prune(cache)
    data = _load_checked(seed, folder)
    if data is None:
        raise RuntimeError(f"generated dataset in {folder} fails its digest check")
    return data, time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="generate one seed's benchmark dataset")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    make(args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
