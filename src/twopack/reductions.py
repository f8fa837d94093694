"""Exact data reduction rules for the maximum 2-packing set problem.

Each rule either includes a vertex into the solution (excluding its whole
closed conflict neighborhood) or excludes a dominated vertex.  Rules are
scheduled exhaustively in a per-variant order: after every successful
application the scheduler restarts at the first rule, and it stops once a
full pass applies nothing.  The log of decisions maps kernel solutions back
to solutions of the input graph.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush
from typing import Callable, Iterable, Optional

from .graph import GraphError, StaticGraph, TwoLevelGraph, VertexStatus


class ReductionKind(Enum):
    DOMINATION = "domination"
    CLIQUE = "clique"
    DEG_ZERO = "deg_zero"
    DEG_ONE = "deg_one"
    # Retired: no rule and no variant uses these six.  The benchmark reports
    # one firing count per member, so the names stay and always count 0.
    DEG_ZERO_TRIANGLE = "deg_zero_triangle"
    DEG_TWO_V_SHAPE = "deg_two_v_shape"
    DEG_TWO_TRIANGLE = "deg_two_triangle"
    DEG_TWO_FOUR_CYCLE = "deg_two_four_cycle"
    FAST_DOMINATION = "fast_domination"
    TWIN = "twin"


class ReductionVariant(Enum):
    """Reduction portfolio: none, the two general rules, or those two plus the
    degree-zero and degree-one rules.

    ``ELABORATED`` leaves out the paper's other rules.  Each is a special case
    of one it keeps: the degree-zero triangle, degree-two (V-shape, triangle,
    four-cycle) and twin rules include a vertex whose closed 2-neighborhood is
    pairwise in conflict, which ``CLIQUE`` also includes, and fast domination
    excludes a vertex that ``DOMINATION`` also finds dominated.  So no retired
    rule applies to a kernel of the four.  Their probes cost reduce time, most
    of all fast domination's, and on the benchmark corpora they changed no
    kernel's vertex count, offset or total edge count (m + m2).
    """

    TWO_PACK = "2pack"
    CORE = "core"
    ELABORATED = "elaborated"

    @property
    def rule_order(self) -> tuple[ReductionKind, ...]:
        return _VARIANT_ORDERS[self]


_VARIANT_ORDERS: dict[ReductionVariant, tuple[ReductionKind, ...]] = {
    ReductionVariant.TWO_PACK: (),
    ReductionVariant.CORE: (ReductionKind.CLIQUE, ReductionKind.DOMINATION),
    ReductionVariant.ELABORATED: (
        ReductionKind.DEG_ZERO,
        ReductionKind.DEG_ONE,
        ReductionKind.DOMINATION,
        ReductionKind.CLIQUE,
    ),
}


@dataclass(frozen=True)
class LogEntry:
    vertex: int
    decision: VertexStatus
    rule: ReductionKind


class ReductionLog:
    """Ordered record of include/exclude decisions taken during reduction."""

    def __init__(self) -> None:
        self.entries: list[LogEntry] = []
        self._seen: set[int] = set()
        self.offset = 0

    def record(self, vertex: int, decision: VertexStatus, rule: ReductionKind) -> None:
        if vertex in self._seen:
            raise GraphError(f"vertex {vertex} logged twice")
        if decision is VertexStatus.ACTIVE:
            raise GraphError("log decisions must be INCLUDED or EXCLUDED")
        self.entries.append(LogEntry(vertex, decision, rule))
        self._seen.add(vertex)
        if decision is VertexStatus.INCLUDED:
            self.offset += 1

    def included(self) -> set[int]:
        return {e.vertex for e in self.entries if e.decision is VertexStatus.INCLUDED}

    def vertices(self) -> set[int]:
        return set(self._seen)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class KernelStats:
    n: int
    m: int
    m2: int
    rule_counts: dict[ReductionKind, int] = field(default_factory=dict)


@dataclass
class Kernel:
    """Residual graph plus the decision log that reconstructs full solutions."""

    graph: TwoLevelGraph
    log: ReductionLog
    stats: KernelStats


# -- shared helpers ----------------------------------------------------------


def _exclude(g: TwoLevelGraph, log: Optional[ReductionLog], rule: ReductionKind, u: int) -> None:
    g.remove_vertex(u, VertexStatus.EXCLUDED)
    if log is not None:
        log.record(u, VertexStatus.EXCLUDED, rule)


def _include(
    g: TwoLevelGraph,
    log: Optional[ReductionLog],
    rule: ReductionKind,
    v: int,
    excluded: Iterable[int],
) -> None:
    # Sorted before any removal: ``excluded`` may be a set of ``g`` read in place.
    order = sorted(excluded)
    g.remove_vertex(v, VertexStatus.INCLUDED)
    if log is not None:
        log.record(v, VertexStatus.INCLUDED, rule)
    for u in order:
        _exclude(g, log, rule, u)


def _two_set(g: TwoLevelGraph, v: int) -> set[int]:
    """The 2-neighborhood of active ``v``, materialized if need be, read in place."""
    if not g._materialized[v]:
        g.materialize_two_neighborhood(v)
    return g._two[v]


def _conflicts(g: TwoLevelGraph, x: int, y: int) -> bool:
    """``TwoLevelGraph.in_conflict`` without its activity checks."""
    one_x = g._one[x]
    return y in one_x or y in g._two[x] or not one_x.isdisjoint(g._one[y])


# -- the rules ---------------------------------------------------------------
#
# Rules read the graph's edge and conflict sets in place (see TwoLevelGraph):
# they are only probed on active vertices, and every vertex they touch is an
# active neighbor or 2-neighbor of one.  Which 2-neighborhoods a probe
# materializes is part of a rule's behaviour, because it sets the kernel's
# conflict-edge count: each rule materializes them as its predicate reaches
# them, never ahead.


def try_domination(
    g: TwoLevelGraph,
    v: int,
    log: Optional[ReductionLog] = None,
    since: Optional[list[set[int]]] = None,
) -> Optional[int]:
    """Exclude a vertex u whose closed 2-neighborhood contains that of v.

    Candidates are scanned in ascending ID among the conflict neighborhood of
    v; on equal closed 2-neighborhoods the larger ID is excluded.  Every
    candidate up to the excluded one has its 2-neighborhood materialized.

    ``since``, if given, holds the balls (see ``TwoLevelGraph.removal_listener``)
    of every removal that had v in its ball since a probe of v last failed.
    Only candidates outside at least one of those balls are scanned.  The
    predicate, C[v] within C[u] for the closed conflict neighborhoods, reads
    only the conflict relation, which removing w changes only by deleting w.
    A removal with v outside its ball leaves C[v] as it was and only shrinks
    C[u]; one whose ball holds u deletes w from both.  So a candidate inside
    every recorded ball still fails.  The failed probe materialized every
    candidate it skips, so the filtered probe returns the same vertex and
    materializes the same 2-neighborhoods as a full one.
    """
    one, two, materialized = g._one, g._two, g._materialized
    one_v = one[v]
    two_v = _two_set(g, v)
    size_v = len(one_v) + len(two_v) + 1
    conflict_v = one_v | two_v
    candidates = conflict_v if since is None else conflict_v - conflict_v.intersection(*since)
    for u in sorted(candidates):
        if not materialized[u]:
            g.materialize_two_neighborhood(u)
        one_u = one[u]
        two_u = two[u]
        size_u = len(one_u) + len(two_u) + 1
        if size_u < size_v:
            continue
        # Conflicts are symmetric, so v is in N(u) or N2(u); the closed
        # 2-neighborhood of v fits in u's iff every other conflict of v does.
        # Plain neighbors of v first: they reject most candidates early.
        for x in one_v:
            if x != u and x not in one_u and x not in two_u:
                break
        else:
            if len(conflict_v.difference(one_u, two_u)) == 1:
                target = max(u, v) if size_u == size_v else u
                _exclude(g, log, ReductionKind.DOMINATION, target)
                return target
    return None


def try_clique(g: TwoLevelGraph, v: int, log: Optional[ReductionLog] = None) -> Optional[int]:
    """Include v when its closed 2-neighborhood is pairwise in conflict."""
    members = sorted(_two_set(g, v) | g._one[v])
    for i, x in enumerate(members):
        for y in members[i + 1 :]:
            if not _conflicts(g, x, y):
                return None
    _include(g, log, ReductionKind.CLIQUE, v, members)
    return v


def try_deg_zero(g: TwoLevelGraph, v: int, log: Optional[ReductionLog] = None) -> Optional[int]:
    """Include an edge-free vertex with at most one conflict neighbor."""
    if len(g._one[v]) != 0:
        return None
    two_v = _two_set(g, v)
    if len(two_v) > 1:
        return None
    _include(g, log, ReductionKind.DEG_ZERO, v, two_v)
    return v


def try_deg_one(g: TwoLevelGraph, v: int, log: Optional[ReductionLog] = None) -> Optional[int]:
    """Include a degree-one vertex whose conflicts all route through its neighbor."""
    one_v = g._one[v]
    if len(one_v) != 1:
        return None
    (u,) = one_v
    two_v = _two_set(g, v)
    if len(two_v) > len(g._one[u]) - 1:
        return None
    _include(g, log, ReductionKind.DEG_ONE, v, two_v | {u})
    return v


_RULE_FUNCS: dict[ReductionKind, Callable[..., Optional[int]]] = {
    ReductionKind.DOMINATION: try_domination,
    ReductionKind.CLIQUE: try_clique,
    ReductionKind.DEG_ZERO: try_deg_zero,
    ReductionKind.DEG_ONE: try_deg_one,
}

# Degree window of each rule: (lowest, highest or None for unbounded).  Outside
# its window a rule's probe reads only ``len(_one[v])`` and returns None, so
# the scheduler never probes a vertex there.
_DEGREE_WINDOWS: dict[ReductionKind, tuple[int, Optional[int]]] = {
    ReductionKind.DOMINATION: (0, None),
    ReductionKind.CLIQUE: (0, None),
    ReductionKind.DEG_ZERO: (0, 0),
    ReductionKind.DEG_ONE: (1, 1),
}

# Degrees at or above this bound fall in the same windows.
_DEGREE_CAP = 1 + max(b for window in _DEGREE_WINDOWS.values() for b in window if b is not None)


def _admits(kind: ReductionKind, degree: int) -> bool:
    """Whether a probe of ``kind`` on a vertex of this degree can fire."""
    lo, hi = _DEGREE_WINDOWS[kind]
    return lo <= degree and (hi is None or degree <= hi)


def apply_rules_exhaustively(
    g: TwoLevelGraph,
    rule_order: Iterable[ReductionKind],
    log: ReductionLog,
    counts: Counter,
) -> None:
    """Run the ordered rules to exhaustion, restarting after every application.

    Each rule is tried on active vertices in ascending ID; the first success
    restarts the schedule at the first rule.  Three kinds of work are
    skipped, all because they would fail without touching the graph, so
    the rule/vertex sequence is the one the plain restart policy fires:

    * a probe that failed is not repeated until some vertex at conflict
      distance <= 2 of the probed vertex is removed: rule predicates depend
      only on that ball (conflicts between surviving pairs never change,
      neighborhoods only shrink);
    * a rule is probed only on vertices whose degree lies in its degree
      window (see ``_DEGREE_WINDOWS``).  Degrees only shrink, and a removal
      that changes a vertex's degree has it in its ball, so a vertex is
      queued for a rule when its degree enters the window; one whose degree
      has dropped below the window since it was queued is popped unprobed;
    * a ``DOMINATION`` probe on a vertex whose last such probe failed scans
      only the candidates that some removal since then may have freed: it
      receives the balls of those removals (see ``try_domination``).  Its
      materializations are those of a full probe.

    Each rule keeps its pending vertices in a set and in a min-heap holding
    the same vertices, so a restart resumes the ascending scan at the heap's
    top instead of sorting the pending set.  Every vertex at the start, and
    every vertex of a removal's ball, is queued by reading its degree once
    and pushing it, if not pending already, to the rules whose window admits
    that degree.  A failed probe pops its vertex; vertices removed from the
    graph leave the heaps lazily, popped and skipped when they reach the top.
    """
    order = tuple(rule_order)
    if not order:
        return
    one, status, active = g._one, g._status, VertexStatus.ACTIVE
    queues = [(kind, _DEGREE_WINDOWS[kind][0], set(), []) for kind in order]
    # Degree (capped) -> pending sets and heaps of the rules it may fire.
    by_degree = [
        [(pending, heap) for kind, _, pending, heap in queues if _admits(kind, d)]
        for d in range(_DEGREE_CAP + 1)
    ]

    def mark(vertices: Iterable[int]) -> None:
        for x in vertices:
            d = len(one[x])
            for pending, heap in by_degree[d if d < _DEGREE_CAP else _DEGREE_CAP]:
                if x not in pending:
                    pending.add(x)
                    heappush(heap, x)

    # Per vertex: the balls of the removals since its last failed DOMINATION
    # probe, or None if that probe never failed or last fired.  A removed
    # vertex drops its record, so that only records still to be read keep
    # balls alive.
    since: list[Optional[list[set[int]]]] = [None] * g.n

    def on_removal(removed: int, ball: set[int]) -> None:
        since[removed] = None
        mark(ball)
        for x in ball:
            balls = since[x]
            if balls is not None:
                balls.append(ball)

    mark(range(g.n))
    g.removal_listener = on_removal
    try:
        while True:
            for kind, lowest, pending, heap in queues:
                func = _RULE_FUNCS[kind]
                domination = kind is ReductionKind.DOMINATION
                fired = False
                while heap:
                    v = heap[0]
                    if status[v] is active and len(one[v]) >= lowest:
                        if domination:
                            # Positional: probe wrappers may forward only *args.
                            hit = func(g, v, log, since[v])
                            since[v] = None if hit is not None else []
                        else:
                            hit = func(g, v, log)
                        if hit is not None:
                            counts[kind] += 1
                            fired = True
                            break
                    heappop(heap)
                    pending.discard(v)
                if fired:
                    break
            else:
                return
    finally:
        g.removal_listener = None


def reduce(static: StaticGraph, variant: ReductionVariant) -> Kernel:
    """Reduce the input exhaustively under the given variant.

    The 2pack variant performs no reductions and returns the unreduced graph
    with an empty log.
    """
    g = TwoLevelGraph(static)
    log = ReductionLog()
    counts: Counter = Counter()
    apply_rules_exhaustively(g, variant.rule_order, log, counts)
    stats = KernelStats(
        n=g.active_count,
        m=g.one_edge_count,
        m2=g.two_edge_count,
        rule_counts=dict(counts),
    )
    return Kernel(graph=g, log=log, stats=stats)


def reconstruct(log: ReductionLog, kernel_solution: Iterable[int]) -> set[int]:
    """Lift a kernel solution to the input graph by adding the included vertices."""
    solution = set(kernel_solution)
    overlap = solution & log.vertices()
    if overlap:
        raise GraphError(f"kernel solution contains logged vertices: {sorted(overlap)}")
    return solution | log.included()
