"""Static input graphs and the mutable two-level graph used by the reduction engine.

The two-level graph keeps ordinary edges and distance-two conflict edges in
separate per-vertex adjacency sets.  Removing a vertex re-wires conflict
edges among its surviving neighbors, so the conflict relation of the
remaining vertices always matches shortest-path distance <= 2 in the
original graph.  Distance-two neighborhoods are materialized lazily.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence


class GraphError(ValueError):
    """Raised when a structural contract is violated (bad input, inactive vertex)."""


class VertexStatus(Enum):
    ACTIVE = "active"
    INCLUDED = "included"
    EXCLUDED = "excluded"


class StaticGraph:
    """Immutable simple undirected graph on vertices ``0..n-1``.

    Neighbor lists are sorted ascending.  Self-loops, duplicate edges and
    asymmetric adjacency input are rejected at construction time; the
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
                    raise GraphError(f"neighbor {w} of vertex {v} out of range 0..{n - 1}")
                if w == v:
                    raise GraphError(f"self-loop at vertex {v}")
                if i > 0 and nbrs[i - 1] == w:
                    raise GraphError(f"duplicate neighbor {w} at vertex {v}")
            adj.append(tuple(nbrs))
            sets.append(frozenset(nbrs))
            total += len(nbrs)
        for v in range(n):
            for w in adj[v]:
                if v not in sets[w]:
                    raise GraphError(f"asymmetric adjacency: edge {v}->{w} has no reverse")
        self.n = n
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(adj)
        self.m = total // 2

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> StaticGraph:
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range 0..{n - 1}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
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
    """Mutable reduction-phase graph with separate edge and conflict-edge sets.

    Every vertex starts active.  ``remove_vertex`` deactivates a vertex and
    inserts a conflict edge between each pair of its surviving neighbors, so
    conflicts that were routed through removed vertices persist.  The full
    distance-two neighborhood of a vertex is computed on demand by
    ``materialize_two_neighborhood`` and kept up to date afterwards.

    ``neighbors``, ``degree``, ``materialize_two_neighborhood`` and
    ``remove_vertex`` reject an out-of-range or inactive vertex with
    ``GraphError``, and the set-valued ones return copies.
    ``status``, ``is_materialized``, ``active_vertices`` and the three counts
    do no activity check.  Each graph fact has one name: whether ``v`` is
    active is ``status(v) is VertexStatus.ACTIVE``, the edge test is
    ``v in neighbors(u)``, and the 2-neighborhood is
    ``materialize_two_neighborhood(v)``.

    The reduction rules in ``reductions`` run millions of probes, so they
    skip those checks and copies: they read ``_one[v]`` (edges), ``_two[v]``
    (recorded conflict edges) and ``_materialized[v]`` in place, only for
    active ``v``, and never mutate them.  ``_two[v]`` is the whole
    2-neighborhood only once ``v`` is materialized, so a rule calls
    ``materialize_two_neighborhood`` first when it is not.
    """

    def __init__(self, static: StaticGraph):
        self.n = static.n
        self._one: list[set[int]] = [set(static.neighbors(v)) for v in range(static.n)]
        self._two: list[set[int]] = [set() for _ in range(static.n)]
        self._status: list[VertexStatus] = [VertexStatus.ACTIVE] * static.n
        self._materialized: list[bool] = [False] * static.n
        self._active = static.n
        self._m = static.m
        self._m2 = 0
        # Optional callback (w, ball) fired after each removal with the set of
        # surviving vertices that were at conflict distance <= 2 of w.
        self.removal_listener: Callable[[int, set[int]], None] | None = None

    # -- read-only views ---------------------------------------------------

    @property
    def active_count(self) -> int:
        return self._active

    @property
    def one_edge_count(self) -> int:
        return self._m

    @property
    def two_edge_count(self) -> int:
        return self._m2

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

    def materialize_two_neighborhood(self, v: int) -> set[int]:
        """Complete and return the distance-two conflict neighborhood of ``v``.

        Unions the conflict edges recorded so far (rewired through removed
        vertices) with the neighbors-of-neighbors of ``v`` in the current
        graph.  Partner vertices receive the symmetric entries.  Idempotent.
        """
        self._require_active(v)
        if not self._materialized[v]:
            one_v = self._one[v]
            found: set[int] = set()
            for u in one_v:
                found |= self._one[u]
            found -= one_v
            found.discard(v)
            fresh = found - self._two[v]
            for u in fresh:
                self._two[u].add(v)
            self._two[v] |= fresh
            self._m2 += len(fresh)
            self._materialized[v] = True
        return set(self._two[v])

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
        ball: set[int] | None = None
        if self.removal_listener is not None:
            ball = set(nbrs) | self._two[w]
            for x in nbrs:
                ball |= self._one[x]
            ball.discard(w)
        for x in nbrs:
            self._one[x].remove(w)
        self._m -= len(nbrs)
        for x in self._two[w]:
            self._two[x].remove(w)
        self._m2 -= len(self._two[w])
        for i, x in enumerate(nbrs):
            one_x = self._one[x]
            two_x = self._two[x]
            for y in nbrs[i + 1 :]:
                if y not in one_x and y not in two_x:
                    two_x.add(y)
                    self._two[y].add(x)
                    self._m2 += 1
        self._one[w] = set()
        self._two[w] = set()
        self._materialized[w] = False
        self._status[w] = mark
        self._active -= 1
        if ball is not None:
            self.removal_listener(w, ball)

    def __repr__(self) -> str:
        return (
            f"TwoLevelGraph(n={self.n}, active={self._active}, "
            f"m={self._m}, m2={self._m2})"
        )
