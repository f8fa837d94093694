"""Exact data reduction rules for the maximum 2-packing set problem.

Each rule either includes a vertex into the solution (excluding its whole
closed conflict neighborhood) or excludes a dominated vertex.  Rules run to
exhaustion in a per-variant order: the rules before ``DOMINATION`` restart
at the first rule after every application, ``DOMINATION`` runs in passes
over the active vertices in ascending ID, and reduction stops after a pass
that applies nothing.  The log of decisions maps kernel solutions back to
solutions of the input graph.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
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
    """Reduction portfolio: none, the two general rules, or ``DOMINATION``
    after the degree-zero and degree-one rules.

    ``CLIQUE`` never fires after ``ELABORATED``'s rules run out: if the
    closed 2-neighborhood C[v] is pairwise in conflict and holds some u
    besides v, C[v] lies within C[u] and the ``DOMINATION`` probe of v fires;
    if C[v] is {v}, degree-zero includes v.  ``CORE``, which has no
    degree-zero rule, keeps ``CLIQUE``.  The paper's other rules are special
    cases: the degree-zero triangle, degree-two (V-shape, triangle,
    four-cycle) and twin rules include a vertex whose C[v] is pairwise in
    conflict, and fast domination excludes a vertex that ``DOMINATION`` also
    finds dominated.  So no left-out rule applies to a kernel of the three,
    and on the benchmark corpora they changed no kernel's vertex count,
    offset or total edge count (m + m2), while their probes cost time.
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


@dataclass(slots=True)
class KernelReport:
    """Kernel sizes and per-rule application counts, taken when reduction
    ends; the square-graph sizes stay ``None`` until the square is built."""

    n_kernel: int
    m_kernel: int
    m2_kernel: int
    offset: int
    rule_counts: dict[ReductionKind, int]
    n_square: int | None = None
    m_square: int | None = None


@dataclass
class Kernel:
    """Residual graph plus the decision log that reconstructs full solutions."""

    graph: TwoLevelGraph
    log: ReductionLog
    report: KernelReport


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


def _closed_set(g: TwoLevelGraph, v: int) -> set[int]:
    """C[v], the closed 2-neighborhood of active ``v``, materialized if need
    be, read in place."""
    if not g._materialized[v]:
        g.materialize_two_neighborhood(v)
    return g._closed[v]


def _conflicts(g: TwoLevelGraph, x: int, y: int) -> bool:
    """Whether active x and y are at conflict distance <= 2: adjacent, joined
    by a recorded conflict edge, or sharing a neighbor.  Materializes nothing."""
    return y in g._closed[x] or not g._one[x].isdisjoint(g._one[y])


# -- the rules ---------------------------------------------------------------
#
# Rules read the graph's edge sets and closed conflict sets C[v] in place (see
# TwoLevelGraph): they are only probed on active vertices, and every vertex
# they touch lies in the closed conflict set of one.  Which 2-neighborhoods a
# probe materializes is part of a rule's behaviour, because it sets the
# kernel's conflict-edge count: each rule materializes them as its predicate
# reaches them, never ahead.


def try_domination(
    g: TwoLevelGraph, v: int, log: Optional[ReductionLog] = None, reprobe: bool = False
) -> Optional[int]:
    """Exclude a vertex u whose closed 2-neighborhood contains that of v.

    Candidates are scanned in ascending ID among the conflict neighborhood of
    v; on equal closed 2-neighborhoods the larger ID is excluded.  Every
    candidate up to the excluded one has its 2-neighborhood materialized.

    ``reprobe`` says that a probe of v failed before.  That probe
    materialized v and every candidate, and a materialized C[v] only loses
    removed vertices afterwards, so every candidate is still materialized:
    the probe takes the least candidate that passes, with no sort and no
    materialization, and so returns what the ordered scan would.
    """
    closed = g._closed
    closed_v = _closed_set(g, v)
    size_v = len(closed_v)
    # C[v] within C[u]; the size test rejects most candidates at once.
    if reprobe:
        hits = [u for u in closed_v if len(closed[u]) >= size_v and closed_v <= closed[u]]
        if len(hits) == 1:  # v itself
            return None
        hits.remove(v)
        u = min(hits)
    else:
        for u in sorted(closed_v - {v}):
            if not g._materialized[u]:
                g.materialize_two_neighborhood(u)
            if len(closed[u]) >= size_v and closed_v <= closed[u]:
                break
        else:
            return None
    target = max(u, v) if len(closed[u]) == size_v else u
    _exclude(g, log, ReductionKind.DOMINATION, target)
    return target


def try_clique(g: TwoLevelGraph, v: int, log: Optional[ReductionLog] = None) -> Optional[int]:
    """Include v when its closed 2-neighborhood is pairwise in conflict."""
    members = sorted(_closed_set(g, v) - {v})
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
    closed_v = _closed_set(g, v)
    if len(closed_v) > 2:
        return None
    _include(g, log, ReductionKind.DEG_ZERO, v, closed_v - {v})
    return v


def try_deg_one(g: TwoLevelGraph, v: int, log: Optional[ReductionLog] = None) -> Optional[int]:
    """Include a degree-one vertex whose conflicts all route through its neighbor."""
    one_v = g._one[v]
    if len(one_v) != 1:
        return None
    (u,) = one_v
    closed_v = _closed_set(g, v)
    if len(closed_v) > len(g._one[u]) + 1:
        return None
    _include(g, log, ReductionKind.DEG_ONE, v, closed_v - {v})
    return v


_RULE_FUNCS: dict[ReductionKind, Callable[..., Optional[int]]] = {
    ReductionKind.DOMINATION: try_domination,
    ReductionKind.CLIQUE: try_clique,
    ReductionKind.DEG_ZERO: try_deg_zero,
    ReductionKind.DEG_ONE: try_deg_one,
}

# The one degree each degree rule admits; the other rules admit every degree.
# At any other degree a probe reads only ``len(_one[v])`` and returns None, so
# the scheduler never probes a vertex there.
_RULE_DEGREE: dict[ReductionKind, int] = {ReductionKind.DEG_ZERO: 0, ReductionKind.DEG_ONE: 1}

# Degrees at or above this bound are admitted by the same rules.
_DEGREE_CAP = 1 + max(_RULE_DEGREE.values())


def apply_rules_exhaustively(
    g: TwoLevelGraph,
    rule_order: Iterable[ReductionKind],
    log: ReductionLog,
    counts: Counter,
) -> None:
    """Run the ordered rules to exhaustion, ``DOMINATION`` in passes.

    The rules before ``DOMINATION`` run to exhaustion after every firing,
    each on active vertices in ascending ID, back to the first rule after
    every success.  A ``DOMINATION`` pass walks the active vertices in
    ascending ID and probes each until it fails.  A removal queues a vertex
    of its ball whose probe failed into the current pass if it lies above
    the pass position, else into the next; a rule after ``DOMINATION`` runs
    at the end of the pass.  Reduce ends after a pass that fires nothing.

    One min-heap holds the pending (pass, rule index, vertex) keys, and a
    set beside it the pending (rule index, vertex) pairs; the heap's top is
    the next probe.  Two kinds of probe are skipped, both because they would
    fail without touching the graph:

    * a failed probe, until some vertex at conflict distance <= 2 of the
      probed vertex is removed: rule predicates depend only on that ball
      (conflicts between surviving pairs never change, neighborhoods only
      shrink);
    * a degree rule's, on a vertex of another degree (see ``_RULE_DEGREE``).
      Degrees only shrink, and a removal that changes a vertex's degree has
      it in its ball, so a pair is queued when the vertex's degree reaches
      the rule's; one whose degree has dropped below it is popped unprobed.

    Every vertex at the start, and every vertex of a removal's ball, is
    queued by reading its degree once and pushing its missing pairs for the
    rules that admit that degree.  A failed probe pops its pair and a firing
    leaves it in place; pairs of removed vertices are popped unprobed.  A
    ``DOMINATION`` probe after a failed one is a re-probe (see
    ``try_domination``).
    """
    order = tuple(rule_order)
    funcs = [_RULE_FUNCS[kind] for kind in order]
    lowest = [_RULE_DEGREE.get(kind, 0) for kind in order]
    dom = order.index(ReductionKind.DOMINATION) if ReductionKind.DOMINATION in order else -1
    one, status, active = g._one, g._status, VertexStatus.ACTIVE
    # A pair is k << shift | v, and a key adds the pass number times step.
    shift = g.n.bit_length()
    vertex_mask = (1 << shift) - 1
    step = 1 << (shift + len(order).bit_length())
    pair_mask, dom_rule = step - 1, dom << shift
    # Degree -> k << shift for the rules k that admit it.  Every degree from
    # _DEGREE_CAP to n - 1 shares one list, so a degree indexes it uncapped.
    by_degree = [
        [k << shift for k, kind in enumerate(order) if _RULE_DEGREE.get(kind, d) == d]
        for d in range(_DEGREE_CAP + 1)
    ]
    by_degree += by_degree[-1:] * (g.n - _DEGREE_CAP - 1)
    heap = sorted([rule | v for v, d in enumerate(map(len, one)) for rule in by_degree[d]])
    pending = set(heap)
    failed = [False] * g.n
    # The current pass as a key offset, and its latest DOMINATION vertex.
    now, pos = 0, -1

    def on_removal(removed: int, ball: set[int]) -> None:
        later = now + step
        for x in ball:
            for rule in by_degree[len(one[x])]:
                pair = rule | x
                if pair not in pending:
                    pending.add(pair)
                    heappush(heap, (later if rule == dom_rule and x <= pos else now) | pair)

    g.removal_listener = on_removal
    try:
        while heap:
            key = heap[0]
            pair = key & pair_mask
            k, v = pair >> shift, pair & vertex_mask
            if status[v] is active and len(one[v]) >= lowest[k]:
                if k == dom:
                    now, pos = key - pair, v
                    # Positional: probe wrappers may forward only *args.
                    hit = funcs[k](g, v, log, failed[v])
                    failed[v] = failed[v] or hit is None
                else:
                    hit = funcs[k](g, v, log)
                if hit is not None:
                    counts[order[k]] += 1
                    continue
            heappop(heap)
            pending.discard(pair)
    finally:
        g.removal_listener = None


def reduce(static: StaticGraph, variant: ReductionVariant) -> Kernel:
    """Reduce the input exhaustively under the given variant.

    The 2pack variant performs no reductions and returns the unreduced graph
    with an empty log.  The report's kernel sizes are taken here, before
    squaring materializes the remaining 2-neighborhoods and so grows
    ``two_edge_count``.
    """
    g = TwoLevelGraph(static)
    log = ReductionLog()
    counts: Counter = Counter()
    apply_rules_exhaustively(g, variant.rule_order, log, counts)
    report = KernelReport(
        n_kernel=g.active_count,
        m_kernel=g.one_edge_count,
        m2_kernel=g.two_edge_count,
        offset=log.offset,
        rule_counts=dict(counts),
    )
    return Kernel(graph=g, log=log, report=report)


def reconstruct(log: ReductionLog, kernel_solution: Iterable[int]) -> set[int]:
    """Lift a kernel solution to the input graph by adding the included vertices."""
    solution = set(kernel_solution)
    overlap = solution & log.vertices()
    if overlap:
        raise GraphError(f"kernel solution contains logged vertices: {sorted(overlap)}")
    return solution | log.included()
