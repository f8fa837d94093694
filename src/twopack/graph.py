"""Static input graphs and the mutable two-level graph used by the reduction engine.

The two-level graph keeps, per vertex, its edges and its closed conflict set:
the vertex, its neighbors and its recorded distance-two conflict partners.
Removing a vertex re-wires conflict edges among its surviving neighbors, so
the conflict relation of the remaining vertices always matches shortest-path
distance <= 2 in the original graph.  Distance-two neighborhoods are
materialized lazily.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence


class GraphError(ValueError):
    """Raised when a structural contract is violated (bad input, inactive vertex).

    A fault in an adjacency list sets ``kind`` ("out of range", "self-loop",
    "duplicate" or "asymmetric"), the 0-based ``vertex`` whose list holds it
    and the faulty ``neighbor``; other errors leave the three None.
    """

    kind: str | None = None
    vertex: int | None = None
    neighbor: int | None = None

    @classmethod
    def in_list(cls, kind: str, vertex: int, neighbor: int) -> GraphError:
        err = cls(f"{kind}: neighbor {neighbor} of vertex {vertex}")
        err.kind, err.vertex, err.neighbor = kind, vertex, neighbor
        return err


class VertexStatus(Enum):
    ACTIVE = "active"
    INCLUDED = "included"
    EXCLUDED = "excluded"


class StaticGraph:
    """Immutable simple undirected graph on vertices ``0..n-1``.

    Neighbor lists are sorted ascending.  This is the one structural check of
    every input graph: an out-of-range neighbor, a self-loop, a duplicate or
    an asymmetric entry raises ``GraphError`` with the faulty ``vertex``.  The
    per-vertex sets that check uses are dropped afterwards, so a graph keeps
    only its adjacency tuples.
    """

    __slots__ = ("n", "adjacency", "m")

    def __init__(self, adjacency: Sequence[Iterable[int]]):
        n = len(adjacency)
        adj: list[tuple[int, ...]] = []
        sets: list[frozenset[int]] = []
        total = 0
        for v, raw in enumerate(adjacency):
            nbrs = sorted(raw)
            for i, w in enumerate(nbrs):
                if not 0 <= w < n:
                    raise GraphError.in_list("out of range", v, w)
                if w == v:
                    raise GraphError.in_list("self-loop", v, w)
                if i > 0 and nbrs[i - 1] == w:
                    raise GraphError.in_list("duplicate", v, w)
            adj.append(tuple(nbrs))
            sets.append(frozenset(nbrs))
            total += len(nbrs)
        for v in range(n):
            for w in adj[v]:
                if v not in sets[w]:
                    raise GraphError.in_list("asymmetric", v, w)
        self.n = n
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(adj)
        self.m = total // 2

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> StaticGraph:
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range 0..{n - 1}")
            adj[u].add(v)
            adj[v].add(u)
        return cls(adj)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StaticGraph):
            return NotImplemented
        return self.n == other.n and self.adjacency == other.adjacency

    def __hash__(self) -> int:
        return hash((self.n, self.adjacency))

    def __repr__(self) -> str:
        return f"StaticGraph(n={self.n}, m={self.m})"


class TwoLevelGraph:
    """Mutable reduction-phase graph: edges plus closed conflict sets.

    Every vertex starts active.  ``remove_vertex`` deactivates a vertex and
    inserts a conflict edge between each pair of its surviving neighbors, so
    conflicts that were routed through removed vertices persist.  The full
    distance-two neighborhood of a vertex is computed on demand by
    ``materialize_two_neighborhood`` and kept up to date afterwards.

    ``neighbors``, ``degree``, ``two_neighbors``, ``remove_vertex`` and
    ``materialize_two_neighborhood`` reject an out-of-range or inactive vertex
    with ``GraphError``, and the set-valued ones return copies.  ``status``,
    ``is_materialized``, ``active_vertices`` and the three counts do no
    activity check.  Each graph fact has one name: whether ``v`` is active is
    ``status(v) is VertexStatus.ACTIVE``, the edge test is
    ``v in neighbors(u)``, and the 2-neighborhood is ``two_neighbors(v)``.

    The reduction rules in ``reductions`` run millions of probes, so they
    skip those checks and copies: they read ``_one[v]`` (edges),
    ``_closed[v]`` (v, its neighbors and its recorded conflict partners) and
    ``_materialized[v]`` in place, only for active ``v``, and never mutate
    them.  ``_closed[v]`` is the whole closed conflict neighborhood C[v] only
    once ``v`` is materialized, so a rule calls
    ``materialize_two_neighborhood`` first when it is not.
    """

    def __init__(self, static: StaticGraph):
        self.n = static.n
        self._one: list[set[int]] = [set(static.neighbors(v)) for v in range(static.n)]
        self._closed: list[set[int]] = [{v, *static.neighbors(v)} for v in range(static.n)]
        self._status: list[VertexStatus] = [VertexStatus.ACTIVE] * static.n
        self._materialized: list[bool] = [False] * static.n
        # Optional callback (w, ball) fired after each removal with a set, never
        # touched again, of the survivors at conflict distance <= 2 of w.
        self.removal_listener: Callable[[int, set[int]], None] | None = None

    # -- read-only views ---------------------------------------------------

    @property
    def active_count(self) -> int:
        return self._status.count(VertexStatus.ACTIVE)

    @property
    def one_edge_count(self) -> int:
        return sum(map(len, self._one)) // 2

    @property
    def two_edge_count(self) -> int:
        # An active closed set holds the vertex, its neighbours and its
        # conflict partners; a removed vertex keeps an empty one.
        closed = sum(map(len, self._closed)) - self.active_count
        return closed // 2 - self.one_edge_count

    def status(self, v: int) -> VertexStatus:
        return self._status[v]

    def active_vertices(self) -> list[int]:
        """Active vertex IDs in ascending order."""
        return [v for v in range(self.n) if self._status[v] is VertexStatus.ACTIVE]

    def _require_active(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise GraphError(f"vertex {v} out of range 0..{self.n - 1}")
        if self._status[v] is not VertexStatus.ACTIVE:
            raise GraphError(f"vertex {v} is not active ({self._status[v].value})")

    def neighbors(self, v: int) -> set[int]:
        self._require_active(v)
        return set(self._one[v])

    def degree(self, v: int) -> int:
        self._require_active(v)
        return len(self._one[v])

    def is_materialized(self, v: int) -> bool:
        return self._materialized[v]

    # -- lazy two-neighborhoods --------------------------------------------

    def materialize_two_neighborhood(self, v: int) -> None:
        """Complete the distance-two conflict neighborhood of ``v`` in place.

        Unions the conflict edges recorded so far (rewired through removed
        vertices) with the neighbors-of-neighbors of ``v`` in the current
        graph.  Partner vertices receive the symmetric entries.  Idempotent.
        """
        self._require_active(v)
        if not self._materialized[v]:
            closed = self._closed[v]
            fresh: set[int] = set()
            for u in self._one[v]:
                fresh |= self._one[u]
            fresh -= closed
            for u in fresh:
                self._closed[u].add(v)
            closed |= fresh
            self._materialized[v] = True

    def two_neighbors(self, v: int) -> set[int]:
        """A copy of the 2-neighborhood of ``v``, materialized if need be."""
        self.materialize_two_neighborhood(v)
        return self._closed[v] - self._one[v] - {v}

    # -- mutation ------------------------------------------------------------

    def remove_vertex(self, w: int, mark: VertexStatus) -> None:
        """Deactivate ``w`` with the given mark, preserving surviving conflicts.

        All edges and conflict edges incident to ``w`` are deleted; every pair
        of surviving neighbors of ``w`` that is not already adjacent gains a
        conflict edge.
        """
        self._require_active(w)
        if mark is VertexStatus.ACTIVE:
            raise GraphError("removal mark must be INCLUDED or EXCLUDED")
        nbrs = list(self._one[w])
        closed_w = self._closed[w]
        self._closed[w] = set()  # so the pass over closed_w skips w itself
        ball: set[int] | None = None
        if self.removal_listener is not None:
            ball = closed_w  # materialized, it holds the neighbours' neighbours
            if not self._materialized[w]:
                ball = closed_w.union(*[self._one[x] for x in nbrs])
        for x in nbrs:
            self._one[x].remove(w)
        for x in closed_w:
            self._closed[x].discard(w)
        for i, x in enumerate(nbrs):
            closed_x = self._closed[x]
            for y in nbrs[i + 1 :]:
                if y not in closed_x:
                    closed_x.add(y)
                    self._closed[y].add(x)
        self._one[w] = set()
        self._materialized[w] = False
        self._status[w] = mark
        if ball is not None:
            ball.discard(w)
            self.removal_listener(w, ball)

    def __repr__(self) -> str:
        return (
            f"TwoLevelGraph(n={self.n}, active={self.active_count}, "
            f"m={self.one_edge_count}, m2={self.two_edge_count})"
        )
