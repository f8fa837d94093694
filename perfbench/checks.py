"""Correctness gate: every answer is checked after the timed loop.

An answer fails when it is not a 2-packing of the input graph, when its size
disagrees with its vertex set, or, on a workload solved to proof, when it is
not proven optimal or its size differs from the expected size.  Expected
sizes come from ``expected.json`` (recorded with ``record_expected.py``, each
one cross-checked against the ``core`` reduction variant); for an instance
not in the table the ``core`` variant is solved here, outside the timed loop.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from typing import Any

from twopack import GraphError, ReductionVariant, StaticGraph, solve_m2s, verify_2ps
from workloads import Workload

EXPECTED = Path(__file__).resolve().parent / "expected.json"


def load_expected(workload: str, seed: int) -> list[int]:
    table = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    return table.get(workload, {}).get(str(seed), [])


def core_size(w: Workload, g: StaticGraph) -> int | None:
    """Proven optimum under the ``core`` variant, or None if it was not proven."""
    sol = solve_m2s(g, replace(w.config, variant=ReductionVariant.CORE))
    return sol.size if sol.proven_optimal else None


class Checker:
    def __init__(self, w: Workload, seed: int, graphs: list[StaticGraph]):
        self.w = w
        self.graphs = graphs
        self.expected: dict[int, int | None] = (
            dict(enumerate(load_expected(w.name, seed))) if w.proof else {}
        )

    def failure(self, index: int, sol: Any) -> str | None:
        """Why the answer for corpus instance ``index`` is wrong, or None."""
        try:
            valid = verify_2ps(self.graphs[index], sol.vertices)
        except GraphError as exc:
            return f"invalid vertex: {exc}"
        if not valid:
            return "not a 2-packing of the input graph"
        if sol.size != len(sol.vertices):
            return f"size {sol.size} but {len(sol.vertices)} vertices"
        if self.w.proof:
            if not sol.proven_optimal:
                return "not proven optimal"
            if index not in self.expected:
                self.expected[index] = core_size(self.w, self.graphs[index])
            want = self.expected[index]
            if want is None:
                return "core cross-check did not prove its optimum"
            if sol.size != want:
                return f"size {sol.size}, expected {want}"
        return None
