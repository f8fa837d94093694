"""Square-graph construction: conflict edges become regular edges.

A maximum independent set of the square graph is a maximum 2-packing set of
the instance the square was built from, so the reduced graph can be handed
to any independent-set solver.  ``square`` numbers the square's vertices in
the order the MIS back ends search them, ascending ``(degree, original ID)``,
so they work in the square's own labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .graph import TwoLevelGraph

DEFAULT_EDGE_CAP = 2**31 - 1


class EdgeCapExceeded(RuntimeError):
    """Square-graph construction would exceed the configured edge cap."""

    def __init__(self, edges_seen: int, cap: int):
        super().__init__(f"square graph exceeds edge cap: >{edges_seen} edges with cap {cap}")


@dataclass(frozen=True)
class SquareGraph:
    """Immutable conflict graph over densely re-indexed vertices.

    ``to_original[i]`` maps dense vertex ``i`` back to its ID in the input
    graph.  ``square`` gives the dense IDs in cover order, ``(degree,
    original ID)`` ascending, so even for an unreduced graph the mapping is a
    permutation, not the identity; ``from_adjacency`` keeps the caller's
    labels.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    m: int
    to_original: tuple[int, ...]

    @classmethod
    def from_adjacency(
        cls,
        adjacency: Sequence[Iterable[int]],
        to_original: Sequence[int] | None = None,
    ) -> SquareGraph:
        n = len(adjacency)
        adj = tuple(tuple(sorted(nbrs)) for nbrs in adjacency)
        m = sum(len(a) for a in adj) // 2
        mapping = tuple(to_original) if to_original is not None else tuple(range(n))
        return cls(n=n, adjacency=adj, m=m, to_original=mapping)

    def original_ids(self, dense: Iterable[int]) -> set[int]:
        return {self.to_original[i] for i in dense}

    @cached_property
    def masks(self) -> list[int]:
        """Each vertex's neighbours as a mask, built on first use and kept
        with the square: a row's bits are distinct, so their sum, taken at C
        speed, is their union."""
        bit = [1 << v for v in range(self.n)]
        return [sum(map(bit.__getitem__, row)) for row in self.adjacency]


def square(g: TwoLevelGraph, *, edge_cap: int = DEFAULT_EDGE_CAP) -> SquareGraph:
    """Build the square graph of the active part of a two-level graph.

    Forces materialization of every remaining 2-neighborhood, then merges
    both edge levels into one adjacency structure over dense IDs, numbered
    in ascending ``(degree, original ID)`` order.  Raises EdgeCapExceeded
    once the number of square edges passes ``edge_cap``.
    """
    active = g.active_vertices()
    directed = 0
    # Read in place (see TwoLevelGraph): every row belongs to an active vertex.
    closed, materialized = g._closed, g._materialized
    for orig in active:
        if not materialized[orig]:
            g.materialize_two_neighborhood(orig)
        directed += len(closed[orig]) - 1
        if directed // 2 > edge_cap:
            raise EdgeCapExceeded(directed // 2, edge_cap)
    # Stable, so equal degrees stay in ascending original ID.
    active.sort(key=lambda v: len(closed[v]))
    dense = {orig: i for i, orig in enumerate(active)}
    rows = [[dense[w] for w in closed[orig] if w != orig] for orig in active]
    return SquareGraph.from_adjacency(rows, active)
