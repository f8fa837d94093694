"""End-to-end solver: reduce, transform, solve, map back, verify.

The reduction and transformation phases are polynomial and run without a
deadline; whatever remains of the time budget goes to the MIS phase.  An
empty kernel takes the same path: its square is empty, which both MIS back
ends prove at once whatever the budget, so the reductions alone prove it.
Whether an answer is proven is decided in one place, the MIS back end: the
pipeline passes its claim on unchanged.  Heuristic mode claims a proof, and
stops early, once its local search meets the square's root clique-cover
bound; an empty or edgeless square meets it at once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .graph import GraphError, StaticGraph
from .mis import Deadline, exact_mis, heuristic_mis
from .reductions import Kernel, KernelReport, ReductionVariant, reconstruct, reduce
from .transform import DEFAULT_EDGE_CAP, EdgeCapExceeded, SquareGraph, square


class SolverMode(Enum):
    EXACT = "exact"
    HEURISTIC = "heuristic"


@dataclass(frozen=True)
class SolverConfig:
    variant: ReductionVariant = ReductionVariant.ELABORATED
    mode: SolverMode = SolverMode.EXACT
    time_limit: float = 600.0
    seed: int = 0
    edge_cap: int = DEFAULT_EDGE_CAP
    verify: bool = False
    max_nodes: int | None = None

    def __post_init__(self) -> None:
        # ``not > 0`` also rejects NaN, which compares false with everything.
        if not self.time_limit > 0:
            raise ValueError("time_limit must be positive")
        if self.max_nodes is not None and self.max_nodes < 0:
            raise ValueError("max_nodes must be non-negative")
        # The local search stops only at a budget, so with neither it never returns.
        unbounded = self.time_limit == float("inf") and self.max_nodes is None
        if self.mode is SolverMode.HEURISTIC and unbounded:
            raise ValueError("heuristic mode needs a finite time_limit or max_nodes")
        if self.edge_cap <= 0:
            raise ValueError("edge_cap must be positive")


@dataclass(slots=True)
class Solution:
    vertices: frozenset[int]
    size: int
    proven_optimal: bool
    kernel: KernelReport
    time_to_best: float
    time_to_proof: float | None
    mis_nodes: int = 0


class MemoryCapError(RuntimeError):
    """Square construction hit the edge cap; carries partial kernel statistics
    and the partial solution collected by the reductions so far."""

    def __init__(self, kernel: KernelReport, partial: frozenset[int]):
        super().__init__(
            f"square graph edge cap exceeded (kernel n={kernel.n_kernel}, "
            f"m={kernel.m_kernel})"
        )
        self.kernel = kernel
        self.partial = partial


class VerificationError(RuntimeError):
    """A produced solution failed the distance-three check."""


def verify_2ps(g: StaticGraph, s: Iterable[int]) -> bool:
    """True iff every pair in ``s`` is at shortest-path distance >= 3 in ``g``.

    Runs a depth-2 BFS from each member and checks that it reaches no other
    member.
    """
    chosen = set(s)
    for v in chosen:
        if not isinstance(v, int) or not 0 <= v < g.n:
            raise GraphError(f"vertex {v} out of range 0..{g.n - 1}")
    for v in chosen:
        for u in g.neighbors(v):
            if u in chosen:
                return False
            for w in g.neighbors(u):
                if w != v and w in chosen:
                    return False
    return True


def square_kernel(kernel: Kernel, edge_cap: int) -> SquareGraph:
    """Square ``kernel`` and record the square's size in its report.

    Raises MemoryCapError, carrying the report and the reductions' partial
    solution, when the square passes ``edge_cap`` edges.
    """
    try:
        sq = square(kernel.graph, edge_cap=edge_cap)
    except EdgeCapExceeded as exc:
        raise MemoryCapError(kernel.report, frozenset(kernel.log.included())) from exc
    kernel.report.n_square = sq.n
    kernel.report.m_square = sq.m
    return sq


def solve_m2s(g: StaticGraph, cfg: SolverConfig) -> Solution:
    """Run the full pipeline on ``g`` under ``cfg`` and return the solution.

    ``proven_optimal`` is the MIS back end's own claim: the reductions are
    exact, so a proven MIS of the square is a proven maximum 2-packing.
    """
    t0 = time.perf_counter()
    kernel = reduce(g, cfg.variant)
    sq = square_kernel(kernel, cfg.edge_cap)

    setup = time.perf_counter() - t0
    deadline = Deadline(seconds=cfg.time_limit - setup, max_nodes=cfg.max_nodes)
    if cfg.mode is SolverMode.EXACT:
        result = exact_mis(sq, deadline, seed=cfg.seed)
    else:
        result = heuristic_mis(sq, deadline, seed=cfg.seed)

    vertices = frozenset(reconstruct(kernel.log, sq.original_ids(result.vertices)))
    proven = result.proven_optimal
    total = time.perf_counter() - t0
    solution = Solution(
        vertices=vertices,
        size=len(vertices),
        proven_optimal=proven,
        kernel=kernel.report,
        time_to_best=setup + result.time_to_best,
        time_to_proof=total if proven else None,
        mis_nodes=result.nodes_explored,
    )
    if cfg.verify and not verify_2ps(g, solution.vertices):
        raise VerificationError("solver produced a set violating the distance-three rule")
    return solution


def kernel_ratios(g: StaticGraph, report: KernelReport) -> tuple[float, float]:
    """Square-kernel size relative to the input, as percentages (n and m)."""
    n_sq = report.n_square or 0
    m_sq = report.m_square or 0
    n_ratio = 100.0 * n_sq / g.n if g.n else 0.0
    m_ratio = 100.0 * m_sq / g.m if g.m else 0.0
    return (n_ratio, m_ratio)
