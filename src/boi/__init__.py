"""Approximate nearest-neighbor search by weighted multi-probe voting.

Records are hashed into L sign-projection tables. A query accumulates
per-record votes from its bucket and nearby buckets in every table, keeps
the highest-weight shortlist, and re-ranks it by exact Euclidean distance.
Plain LSH, Hamming-ball multi-probe LSH, and a brute-force oracle ship
alongside for comparison, plus an evaluation harness and binary dataset IO.
"""

from .core import (
    BoiParams,
    RankedResult,
    VectorSet,
    brute_force_query,
    dense_vector,
    pairwise_distances,
)
from .data_io import (
    FormatError,
    load_index,
    read_fvecs,
    read_ivecs,
    save_index,
    write_fvecs,
    write_ivecs,
)
from .evaluate import (
    EvalReport,
    GroundTruth,
    MemoryEstimate,
    average_precision,
    estimate_memory,
    run_benchmark,
    score,
    summarize,
)
from .hashing import ProjectionTable, insert_all, make_projections
from .index import (
    BoiIndex,
    accumulate,
    build_index,
    build_schedule,
    multiprobe_lsh_query,
    query,
    shortlist,
    weight,
)
from .synth import SynthSpec, generate

__version__ = "0.1.0"

__all__ = [
    "BoiIndex",
    "BoiParams",
    "EvalReport",
    "FormatError",
    "GroundTruth",
    "MemoryEstimate",
    "ProjectionTable",
    "RankedResult",
    "SynthSpec",
    "VectorSet",
    "accumulate",
    "average_precision",
    "brute_force_query",
    "build_index",
    "build_schedule",
    "dense_vector",
    "estimate_memory",
    "generate",
    "insert_all",
    "load_index",
    "make_projections",
    "multiprobe_lsh_query",
    "pairwise_distances",
    "query",
    "read_fvecs",
    "read_ivecs",
    "run_benchmark",
    "save_index",
    "score",
    "shortlist",
    "summarize",
    "weight",
    "write_fvecs",
    "write_ivecs",
    "__version__",
]
