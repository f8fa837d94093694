"""Solver toolkit for the maximum 2-packing set problem on arbitrary graphs.

Pipeline: problem-specific data reductions, square-graph transformation,
then an exact or heuristic maximum-independent-set back end, with a
verification layer and a brute-force oracle for small instances.
"""

from .graph import GraphError, StaticGraph, TwoLevelGraph, VertexStatus
from .graphio import (
    ParseError,
    parse_edgelist,
    parse_metis,
    write_metis,
    write_solution,
)
from .mis import Deadline, MisResult, exact_mis, heuristic_mis
from .oracle import OracleLimitError, brute_alpha, brute_beta, brute_square
from .pipeline import (
    MemoryCapError,
    Solution,
    SolverConfig,
    SolverMode,
    VerificationError,
    kernel_ratios,
    solve_m2s,
    verify_2ps,
)
from .reductions import (
    Kernel,
    KernelReport,
    LogEntry,
    ReductionKind,
    ReductionLog,
    ReductionVariant,
    reconstruct,
    reduce,
)
from .transform import (
    DEFAULT_EDGE_CAP,
    EdgeCapExceeded,
    SquareGraph,
    square,
)

__version__ = "0.1.0"

__all__ = [
    "Deadline",
    "DEFAULT_EDGE_CAP",
    "EdgeCapExceeded",
    "GraphError",
    "Kernel",
    "KernelReport",
    "LogEntry",
    "MemoryCapError",
    "MisResult",
    "OracleLimitError",
    "ParseError",
    "ReductionKind",
    "ReductionLog",
    "ReductionVariant",
    "Solution",
    "SolverConfig",
    "SolverMode",
    "SquareGraph",
    "StaticGraph",
    "TwoLevelGraph",
    "VerificationError",
    "VertexStatus",
    "brute_alpha",
    "brute_beta",
    "brute_square",
    "exact_mis",
    "heuristic_mis",
    "kernel_ratios",
    "parse_edgelist",
    "parse_metis",
    "reconstruct",
    "reduce",
    "solve_m2s",
    "square",
    "verify_2ps",
    "write_metis",
    "write_solution",
]
