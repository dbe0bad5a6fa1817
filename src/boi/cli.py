"""Command-line interface: generate data, build indexes, query, benchmark."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .core import SCHEDULE_KINDS, BoiParams, VectorSet, brute_force_query
from .data_io import (
    load_index,
    read_fvecs,
    read_ivecs,
    save_index,
    write_fvecs,
    write_ivecs,
)
from .evaluate import GroundTruth, estimate_memory, run_benchmark, score, summarize
from .hashing import occupancy_summary
from .index import BoiIndex, build_index, multiprobe_lsh_query
from .index import query as boi_query
from .synth import SynthSpec, generate

log = logging.getLogger("boi")

METHODS = ("boi", "boi_strict", "lsh", "multiprobe", "brute")

_DEFAULTS = BoiParams()


# (flag, BoiParams field, help) for every index parameter, in --help order
_PARAM_FLAGS = (
    ("L", "num_tables", "number of hash tables"),
    ("bits", "hash_bits", "bits per bucket code, 1-16 (2**bits buckets)"),
    ("l", "probe_radius", "probe radius in Hamming distance"),
    ("epsilon", "shortlist_size", "shortlist size re-ranked by exact distance"),
    ("gamma0", "initial_probe_count", "initial neighbor buckets probed per table"),
    ("schedule", "schedule", "probe-count reduction rule"),
    ("delta1", "linear_step", "tables between reductions (linear schedule)"),
    ("delta2", "sublinear_step", "tables between reductions (sublinear schedule)"),
    ("seed", "seed", "RNG seed for the projections"),
)

# fields baked into a snapshot; only a rebuild changes them
_STRUCTURAL = frozenset({"num_tables", "hash_bits", "seed"})


def _add_param_flags(p: argparse.ArgumentParser, for_build: bool) -> None:
    """Index parameters. On build they take defaults; elsewhere they are
    overrides applied on top of the loaded snapshot."""
    for flag, field_name, help_text in _PARAM_FLAGS:
        kind = {"choices": SCHEDULE_KINDS} if field_name == "schedule" else {"type": int}
        default = getattr(_DEFAULTS, field_name) if for_build else None
        p.add_argument(f"--{flag}", default=default, help=help_text, **kind)


def _params_from_flags(args) -> BoiParams:
    return BoiParams(
        **{field_name: getattr(args, flag) for flag, field_name, _ in _PARAM_FLAGS}
    )


def _apply_overrides(params: BoiParams, args, strict: bool) -> BoiParams:
    """Probe-time parameters may change after build; structural ones may not.
    ``strict`` (method boi_strict) sets strict_radius; otherwise the
    snapshot's stored flag holds, like every other probe-time parameter."""
    updates = {"strict_radius": True} if strict else {}
    for flag, field_name, _ in _PARAM_FLAGS:
        value = getattr(args, flag)
        if value is None:
            continue
        if field_name in _STRUCTURAL and value != getattr(params, field_name):
            raise SystemExit(
                f"--{flag} is baked into the snapshot "
                f"({getattr(params, field_name)}); rebuild to change it"
            )
        updates[field_name] = value
    return dataclasses.replace(params, **updates)


def _make_runner(method: str, index: BoiIndex | None, dataset: VectorSet, k: int):
    if method == "brute":
        return lambda v: brute_force_query(dataset, v, k)
    if index is None:
        raise SystemExit(f"method {method} requires --index")
    if method in ("boi", "boi_strict"):
        return lambda v: boi_query(index, v, k)
    params = index.params
    if method in ("lsh", "multiprobe"):
        radius = 0 if method == "lsh" else params.probe_radius
        return lambda v: multiprobe_lsh_query(
            index.tables, dataset, v, radius, params.shortlist_size, k
        )
    raise SystemExit(f"unknown method {method}")


def cmd_gen(args) -> int:
    out = Path(args.out)
    if not out.is_dir():
        raise SystemExit(f"output directory {out} does not exist")
    spec = SynthSpec(
        n=args.n,
        dim=args.dim,
        num_clusters=args.clusters,
        cluster_std=args.cluster_std,
        num_queries=args.num_queries,
        seed=args.seed,
        gt_k=args.gt_k,
        query_jitter=args.query_jitter,
    )
    database, queries, gt = generate(spec)
    write_fvecs(out / "base.fvecs", database)
    write_fvecs(out / "queries.fvecs", queries)
    write_ivecs(out / "groundtruth.ivecs", gt.neighbors)
    log.info(
        "wrote %d base vectors, %d queries, ground truth depth %d to %s",
        database.n, queries.n, gt.depth, out,
    )
    return 0


def cmd_build(args) -> int:
    params = _params_from_flags(args)
    dataset = read_fvecs(args.dataset)
    index = build_index(dataset, params)
    save_index(index, args.index)
    stats = occupancy_summary(index.tables)
    log.info(
        "built %d tables x %d buckets over %d records: occupancy "
        "min=%d mean=%.1f max=%d empty=%.1f%%",
        stats["num_tables"], stats["buckets_per_table"], dataset.n,
        stats["min"], stats["mean"], stats["max"],
        100.0 * stats["empty_fraction"],
    )
    log.info(
        "occupancy histogram (buckets per size band): %s",
        " ".join(f"{band}:{count}" for band, count in stats["histogram"].items()),
    )
    log.info("snapshot written to %s", args.index)
    return 0


def _load_for_query(args):
    """(dataset, index, queries, runner) of ``boi query`` and ``boi bench``:
    the index is the snapshot under the flags' overrides, None without
    ``--index``, and the runner answers one query by ``--method``."""
    dataset = read_fvecs(args.dataset)
    index = None
    if args.index:
        loaded = load_index(args.index)
        params = _apply_overrides(loaded.params, args, args.method == "boi_strict")
        index = BoiIndex(params, loaded.tables, dataset)
    queries = read_fvecs(args.queries)
    return dataset, index, queries, _make_runner(args.method, index, dataset, args.k)


def cmd_query(args) -> int:
    _, _, queries, run = _load_for_query(args)
    rows = np.full((queries.n, args.k), -1, dtype=np.int32)
    for qi in range(queries.n):
        result = run(queries.vectors[qi])
        rows[qi, : len(result)] = result.ids[: args.k]
        if not args.out:
            head = ", ".join(
                f"{rid}:{dist:.6g}" for rid, dist in result.entries[:5]
            )
            print(f"query {qi}: {head}")
    if args.out:
        write_ivecs(args.out, rows)
        log.info("wrote %d result rows (k=%d) to %s", queries.n, args.k, args.out)
    return 0


def cmd_bench(args) -> int:
    dataset, index, queries, run = _load_for_query(args)
    gt = GroundTruth(read_ivecs(args.groundtruth)) if args.groundtruth else None
    params = index.params if index is not None else _DEFAULTS
    memory = estimate_memory(dataset.n, dataset.dim, params)
    if args.method == "brute":  # it holds no tables and sums no votes
        memory = dataclasses.replace(memory, index_bytes=0, accumulator_bytes=0)
    report, results, scores = run_benchmark(
        run,
        queries,
        gt,
        k=args.k,
        repetitions=args.repetitions,
        workers=args.workers,
        method=args.method,
        memory=memory,
        extra={
            "dataset": {"n": dataset.n, "dim": dataset.dim},
            "params": dataclasses.asdict(params) if index is not None else None,
        },
    )
    text = report.to_json()
    if args.out:
        Path(args.out).write_text(text + "\n")
        log.info("report written to %s", args.out)
    else:
        print(text)
    if args.csv:
        _write_per_query_csv(args.csv, report, results, scores)
        log.info("per-query rows written to %s", args.csv)
    log.info(
        "method=%s mAP=%s recall=%s mean_time=%.3fms",
        args.method,
        f"{report.map:.4f}" if report.map is not None else "n/a",
        {k: round(v, 4) for k, v in report.recall_at_k.items()},
        report.mean_query_time_ms,
    )
    return 0


def _write_per_query_csv(path, report, results, scores) -> None:
    """One row per query; ``ap`` and ``recall_at_1`` come from ``scores``,
    the (AP, true-NN rank) arrays ``run_benchmark`` summarized, and are
    blank without ground truth."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "query_index", "time_ms", "probe_count", "shortlist_size",
                "num_results", "ap", "recall_at_1", "top1_id", "top1_distance",
            ]
        )
        for qi, result in enumerate(results):
            ap = r1 = ""
            if scores is not None:
                ap = f"{scores[0][qi]:.6f}"
                r1 = int(scores[1][qi] == 0)  # its true NN ranks first
            writer.writerow(
                [
                    qi,
                    f"{report.per_query_times_ms[qi]:.6f}",
                    result.probe_count if result.probe_count is not None else "",
                    result.shortlist_size if result.shortlist_size is not None else "",
                    len(result),
                    ap,
                    r1,
                    int(result.ids[0]) if len(result) else "",
                    f"{result.distances[0]:.9g}" if len(result) else "",
                ]
            )


def _ranking(query_index: int, row: np.ndarray) -> np.ndarray:
    """The ids of one result row, without the trailing run of -1 that pads
    a short answer (``boi query``); any other negative id, such as a -1
    before an id, raises ValueError naming the query."""
    kept = np.flatnonzero(row != -1)
    ids = row[: kept[-1] + 1 if kept.size else 0]
    if np.any(ids < 0):
        raise ValueError(
            f"query {query_index}: ranking holds a negative id before its "
            "trailing -1 padding"
        )
    return ids


def cmd_eval(args) -> int:
    rows = read_ivecs(args.results)
    gt = GroundTruth(read_ivecs(args.groundtruth))
    rankings = [_ranking(qi, row) for qi, row in enumerate(rows)]
    k = rows.shape[1] if rows.size else 1
    payload = {
        "schema_version": 1,
        "num_queries": int(rows.shape[0]),
        "k": int(k),
        **summarize(*score(rankings, gt), k),  # json writes cutoffs as "1"
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
        log.info("report written to %s", args.out)
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boi",
        description=(
            "Approximate nearest-neighbor search via weighted multi-probe "
            "voting over hash tables, with LSH baselines and a brute-force "
            "oracle."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the arguments boi query and boi bench share
    querying = argparse.ArgumentParser(add_help=False)
    querying.add_argument("--dataset", required=True)
    querying.add_argument("--queries", required=True)
    querying.add_argument("--index", help="snapshot (not needed for method=brute)")
    querying.add_argument("--method", choices=METHODS, default="boi")
    querying.add_argument("--k", type=int, default=10)
    _add_param_flags(querying, for_build=False)

    p = sub.add_parser("gen", help="generate a synthetic dataset with ground truth")
    p.add_argument("--out", required=True, help="existing output directory")
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--dim", type=int, default=128)
    p.add_argument("--clusters", type=int, default=32)
    p.add_argument("--cluster-std", type=float, default=0.05)
    p.add_argument("--num-queries", type=int, default=100)
    p.add_argument("--gt-k", type=int, default=10)
    p.add_argument("--query-jitter", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("build", help="hash a dataset into an index snapshot")
    p.add_argument("--dataset", required=True, help="base vectors (fvecs)")
    p.add_argument("--index", required=True, help="output snapshot path")
    _add_param_flags(p, for_build=True)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("query", parents=[querying], help="run queries and write/print rankings")
    p.add_argument("--out", help="result ids as ivecs, -1 padded")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("bench", parents=[querying], help="measure accuracy, latency, probes, memory")
    p.add_argument("--groundtruth", help="exact neighbors (ivecs)")
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("--workers", type=int, default=1,
                   help="query threads; each query is one compiled call "
                   "without the GIL, so threads overlap whole queries")
    p.add_argument("--out", help="JSON report path (stdout when omitted)")
    p.add_argument("--csv", help="optional per-query CSV path")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("eval", help="score a results file against ground truth")
    p.add_argument("--results", required=True, help="rankings (ivecs, -1 padded)")
    p.add_argument("--groundtruth", required=True)
    p.add_argument("--out", help="JSON report path (stdout when omitted)")
    p.set_defaults(fn=cmd_eval)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit:
        raise
    except (OSError, ValueError, RuntimeError) as exc:
        log.error("%s", exc)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
