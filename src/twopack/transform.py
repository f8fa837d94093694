"""Square-graph construction: conflict edges become regular edges.

A maximum independent set of the square graph is a maximum 2-packing set of
the instance the square was built from, so the reduced graph can be handed
to any independent-set solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .graph import GraphError, StaticGraph, TwoLevelGraph

DEFAULT_EDGE_CAP = 2**31 - 1


class EdgeCapExceeded(RuntimeError):
    """Square-graph construction would exceed the configured edge cap."""

    def __init__(self, n: int, edges_seen: int, cap: int):
        super().__init__(f"square graph exceeds edge cap: >{edges_seen} edges with cap {cap}")
        self.n = n
        self.edges_seen = edges_seen
        self.cap = cap


@dataclass(frozen=True)
class SquareGraph:
    """Immutable conflict graph over densely re-indexed vertices.

    ``to_original[i]`` maps dense vertex ``i`` back to its ID in the input
    graph; for squares of unreduced graphs the mapping is the identity.
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

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)

    def original_ids(self, dense: Iterable[int]) -> set[int]:
        return {self.to_original[i] for i in dense}


def square(g: TwoLevelGraph, *, edge_cap: int = DEFAULT_EDGE_CAP) -> SquareGraph:
    """Build the square graph of the active part of a two-level graph.

    Forces materialization of every remaining 2-neighborhood, then merges
    both edge levels into one adjacency structure over dense IDs.  Raises
    EdgeCapExceeded once the number of square edges passes ``edge_cap``.
    """
    active = g.active_vertices()
    dense = {orig: i for i, orig in enumerate(active)}
    adjacency: list[tuple[int, ...]] = []
    directed = 0
    # Read in place (see TwoLevelGraph): every row belongs to an active vertex.
    one, two, materialized = g._one, g._two, g._materialized
    for orig in active:
        if not materialized[orig]:
            g.materialize_two_neighborhood(orig)
        merged = one[orig] | two[orig]
        directed += len(merged)
        if directed // 2 > edge_cap:
            raise EdgeCapExceeded(n=len(active), edges_seen=directed // 2, cap=edge_cap)
        adjacency.append(tuple(sorted(dense[w] for w in merged)))
    return SquareGraph(
        n=len(active),
        adjacency=tuple(adjacency),
        m=directed // 2,
        to_original=tuple(active),
    )


def _within_distance_two(g: StaticGraph, start: int) -> set[int]:
    ball = set(g.neighbors(start))
    for u in g.neighbors(start):
        ball.update(g.neighbors(u))
    ball.discard(start)
    return ball


def equivalence_check(g: StaticGraph, sq: SquareGraph, s: Iterable[int]) -> bool:
    """Check a candidate set both ways: independent in ``sq`` and a 2-packing in ``g``.

    ``s`` holds dense square-graph IDs.  The two tests are computed
    independently and must agree; the conjunction is returned.
    """
    chosen = sorted(set(s))
    for v in chosen:
        if not 0 <= v < sq.n:
            raise GraphError(f"vertex {v} not in square graph of size {sq.n}")
    adj_sets = [set(sq.adjacency[v]) for v in range(sq.n)]
    independent = all(
        y not in adj_sets[x] for i, x in enumerate(chosen) for y in chosen[i + 1 :]
    )
    originals = sorted(sq.to_original[v] for v in chosen)
    packing = True
    for i, x in enumerate(originals):
        ball = _within_distance_two(g, x)
        if any(y in ball for y in originals[i + 1 :]):
            packing = False
            break
    return independent and packing
