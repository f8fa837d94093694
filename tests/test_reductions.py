"""Rule-level behavior, the exhaustive scheduler, and the reconstruction log."""

from __future__ import annotations

import copy
import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twopack import (
    GraphError,
    ReductionKind,
    ReductionVariant,
    StaticGraph,
    TwoLevelGraph,
    VertexStatus,
    brute_beta,
    reconstruct,
    reduce,
)
from twopack.oracle import brute_alpha
import twopack.reductions as reductions
from twopack.reductions import (
    _RULE_DEGREE,
    _RULE_FUNCS,
    ReductionLog,
    apply_rules_exhaustively,
    try_clique,
    try_deg_one,
    try_deg_zero,
    try_domination,
)

from conftest import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    gnp_graph,
    induced_square_subgraph,
    path_graph,
    preferential_attachment,
    random_geometric,
    random_tree,
    star_graph,
)


def centered_star():
    # Star on four vertices with the hub at ID 1.
    return StaticGraph.from_edges(4, [(0, 1), (1, 2), (1, 3)])


class TestVariantOrders:
    def test_core_order(self):
        assert ReductionVariant.CORE.rule_order == (
            ReductionKind.CLIQUE,
            ReductionKind.DOMINATION,
        )

    def test_elaborated_order(self):
        assert ReductionVariant.ELABORATED.rule_order == (
            ReductionKind.DEG_ZERO,
            ReductionKind.DEG_ONE,
            ReductionKind.DOMINATION,
        )

    def test_two_pack_applies_nothing(self):
        assert ReductionVariant.TWO_PACK.rule_order == ()


class TestConfinedTest:
    """Cases of the retired fast-domination counting test (v adjacent to u,
    N[v] within N[u], N2(v) = N[u] minus N[v]), named as that test saw them.
    DOMINATION excludes a dominating vertex in each, and needs neither
    precondition."""

    def test_p3_equality_case(self):
        g = TwoLevelGraph(path_graph(3))
        closed = [g.two_neighbors(v) | g.neighbors(v) | {v} for v in (0, 1)]
        assert closed[0] == closed[1]
        assert try_domination(g, 0) == 1

    def test_star_leaf(self):
        g = TwoLevelGraph(star_graph(3, center=0))
        # Leaf 1 and hub 0 have equal closed 2-neighborhoods: the larger ID goes.
        assert try_domination(g, 1) == 1
        assert g.status(0) is VertexStatus.ACTIVE

    def test_p4_confirms_set_identity(self):
        g = TwoLevelGraph(path_graph(4))
        assert g.two_neighbors(0) == (g.neighbors(1) | {1}) - (g.neighbors(0) | {0})
        assert try_domination(g, 0) == 1

    def test_precondition_not_adjacent(self):
        # Vertex 2 dominates 0 through conflict edges left by removed vertices.
        g = TwoLevelGraph(path_graph(5))
        g.remove_vertex(1, VertexStatus.EXCLUDED)
        g.remove_vertex(3, VertexStatus.EXCLUDED)
        assert 2 not in g.neighbors(0)
        assert try_domination(g, 0) == 2

    def test_precondition_not_contained(self):
        g = TwoLevelGraph(path_graph(4))
        assert not g.neighbors(2) | {2} <= g.neighbors(1) | {1}
        assert try_domination(g, 2) == 2


class TestDomination:
    def test_p4_excludes_strict_superset(self):
        g = TwoLevelGraph(path_graph(4))
        assert try_domination(g, 0) == 1
        assert g.status(1) is VertexStatus.EXCLUDED

    def test_star_tie_break_excludes_larger_id(self):
        g = TwoLevelGraph(centered_star())
        # leaf 0 and hub 1 have equal closed 2-neighborhoods
        assert try_domination(g, 0) == 1

    def test_c6_inapplicable(self):
        g = TwoLevelGraph(cycle_graph(6))
        assert all(try_domination(g, v) is None for v in range(6))


class TestClique:
    def test_k3(self):
        g = TwoLevelGraph(complete_graph(3))
        assert try_clique(g, 0) == 0
        assert g.active_count == 0
        assert g.status(0) is VertexStatus.INCLUDED

    def test_star_leaf(self):
        g = TwoLevelGraph(centered_star())
        assert try_clique(g, 0) == 0
        assert g.active_count == 0

    def test_p5_center_blocked_by_distant_pair(self):
        g = TwoLevelGraph(path_graph(5))
        assert try_clique(g, 2) is None


class TestDegZero:
    def test_isolated(self):
        g = TwoLevelGraph(StaticGraph.from_edges(1, []))
        assert try_deg_zero(g, 0) == 0

    def test_residual_single_two_neighbor(self):
        g = TwoLevelGraph(path_graph(3))
        g.remove_vertex(1, VertexStatus.EXCLUDED)
        assert try_deg_zero(g, 0) == 0
        assert g.status(2) is VertexStatus.EXCLUDED

    def test_two_nonadjacent_two_neighbors_blocked(self):
        g = TwoLevelGraph(path_graph(5))
        g.remove_vertex(1, VertexStatus.EXCLUDED)
        g.remove_vertex(3, VertexStatus.EXCLUDED)
        assert g.degree(2) == 0 and len(g.two_neighbors(2)) == 2
        assert try_deg_zero(g, 2) is None
        assert try_clique(g, 2) is None


class TestDegZeroTriangle:
    """Cases of the retired DEG_ZERO_TRIANGLE rule: CLIQUE includes the vertex."""

    def test_star_residual(self):
        g = TwoLevelGraph(centered_star())
        g.remove_vertex(1, VertexStatus.EXCLUDED)
        assert try_clique(g, 0) == 0
        assert g.active_count == 0

    def test_three_two_neighbors_blocked(self):
        # Too many conflict neighbors for the triangle rule, but they form a clique.
        g = TwoLevelGraph(star_graph(4, center=0))
        g.remove_vertex(0, VertexStatus.EXCLUDED)
        assert len(g.two_neighbors(1)) == 3
        assert try_clique(g, 1) == 1
        assert g.active_count == 0


class TestDegOne:
    def test_p2(self):
        g = TwoLevelGraph(path_graph(2))
        assert try_deg_one(g, 0) == 0
        assert g.active_count == 0

    def test_star_leaf(self):
        g = TwoLevelGraph(centered_star())
        assert try_deg_one(g, 0) == 0
        assert g.active_count == 0

    def test_p4_leaves_one_vertex(self):
        g = TwoLevelGraph(path_graph(4))
        assert try_deg_one(g, 0) == 0
        assert g.active_vertices() == [3]


class TestVShape:
    """Cases of the retired DEG_TWO_V_SHAPE rule: CLIQUE or the three-rule
    ``elaborated`` reduces them, and where the rule was blocked ``elaborated``
    still reaches the optimum."""

    def test_p3_center(self):
        g = TwoLevelGraph(path_graph(3))
        assert try_clique(g, 1) == 1
        assert g.active_count == 0

    def test_k3_degenerate(self):
        kernel = reduce(complete_graph(3), ReductionVariant.ELABORATED)
        assert kernel.graph.active_count == 0
        assert kernel.log.offset == 1

    def test_p5_center_blocked(self):
        kernel = reduce(path_graph(5), ReductionVariant.ELABORATED)
        assert kernel.graph.active_count == 0
        assert kernel.log.offset == brute_beta(path_graph(5))[0] == 2
        assert 2 not in kernel.log.included()


class TestDegTwoTriangle:
    """Cases of the retired DEG_TWO_TRIANGLE rule: CLIQUE includes the vertex,
    also where the rule was blocked."""

    def test_k3(self):
        g = TwoLevelGraph(complete_graph(3))
        assert try_clique(g, 0) == 0
        assert g.active_count == 0

    def test_pendant_on_neighbor_blocks(self):
        g = StaticGraph.from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
        tlg = TwoLevelGraph(g)
        assert try_clique(tlg, 1) == 1
        assert tlg.active_count == 0

    def test_c4_blocked(self):
        g = TwoLevelGraph(cycle_graph(4))
        assert try_clique(g, 0) == 0


class TestFourCycle:
    """Cases of the retired DEG_TWO_FOUR_CYCLE rule: CLIQUE includes the vertex,
    also where the rule was blocked."""

    def test_c4(self):
        g = TwoLevelGraph(cycle_graph(4))
        assert try_clique(g, 1) == 1
        assert g.active_count == 0

    def test_c5_blocked(self):
        g = TwoLevelGraph(cycle_graph(5))
        assert try_clique(g, 0) == 0
        assert g.active_count == 0

    def test_chord_blocks(self):
        g = StaticGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        tlg = TwoLevelGraph(g)
        assert try_clique(tlg, 1) == 1


class TestFastDomination:
    """Cases of the retired FAST_DOMINATION rule: the vertex it excluded still
    goes, and DOMINATION fires where the rule did not."""

    def test_p3(self):
        g = TwoLevelGraph(path_graph(3))
        assert try_domination(g, 0) == 1
        assert g.status(1) is VertexStatus.EXCLUDED

    def test_star_leaf_excludes_hub(self):
        kernel = reduce(centered_star(), ReductionVariant.ELABORATED)
        assert kernel.graph.status(1) is VertexStatus.EXCLUDED
        assert kernel.log.offset == 1

    def test_c4_inapplicable(self):
        g = TwoLevelGraph(cycle_graph(4))
        assert try_domination(g, 0) == 1

    def test_never_materializes_excluded_vertex(self, monkeypatch):
        """FAST_DOMINATION excluded the hub unmaterialized; DOMINATION
        materializes it first.  So a kernel's split between m and m2 may
        differ from the ten-rule portfolio's while m + m2 stays."""
        seen: list[int] = []
        original = TwoLevelGraph.materialize_two_neighborhood

        def recording(self, v):
            seen.append(v)
            return original(self, v)

        monkeypatch.setattr(TwoLevelGraph, "materialize_two_neighborhood", recording)
        g = TwoLevelGraph(centered_star())
        assert try_domination(g, 0) == 1
        assert seen == [0, 1]


class TestTwin:
    """Cases of the retired TWIN rule: ``elaborated`` empties them and reaches
    the optimum, and where the rule was blocked it does not take the vertex."""

    def test_c4(self):
        kernel = reduce(cycle_graph(4), ReductionVariant.ELABORATED)
        assert kernel.graph.active_count == 0
        assert kernel.log.offset == 1

    def test_k23(self):
        g = complete_bipartite(2, 3)
        assert try_clique(TwoLevelGraph(g), 2) == 2
        kernel = reduce(g, ReductionVariant.ELABORATED)
        assert kernel.graph.active_count == 0
        assert kernel.log.offset == 1

    def test_unequal_neighborhoods_blocked(self):
        kernel = reduce(path_graph(4), ReductionVariant.ELABORATED)
        assert kernel.graph.active_count == 0
        assert 1 not in kernel.log.included()


class TestReduce:
    def test_two_pack_is_identity(self):
        g = path_graph(4)
        kernel = reduce(g, ReductionVariant.TWO_PACK)
        assert kernel.graph.active_count == 4
        assert len(kernel.log) == 0
        assert kernel.report.rule_counts == {}

    def test_p4_elaborated_empties(self):
        kernel = reduce(path_graph(4), ReductionVariant.ELABORATED)
        assert kernel.graph.active_count == 0
        assert kernel.log.offset == 2

    def test_c6_elaborated_unchanged(self):
        kernel = reduce(cycle_graph(6), ReductionVariant.ELABORATED)
        assert kernel.graph.active_count == 6
        assert len(kernel.log) == 0

    def test_trees_reduce_to_empty(self):
        for seed in range(8):
            n = 3 + seed
            g = random_tree(n, seed)
            kernel = reduce(g, ReductionVariant.ELABORATED)
            assert kernel.graph.active_count == 0
            assert kernel.log.offset == brute_beta(g)[0]

    def test_kernel_stats_counts(self):
        kernel = reduce(path_graph(4), ReductionVariant.ELABORATED)
        assert sum(kernel.report.rule_counts.values()) >= 2
        assert kernel.report.n_kernel == 0 and kernel.report.m_kernel == 0


class TestReconstruct:
    def test_p4_offset_solution(self):
        kernel = reduce(path_graph(4), ReductionVariant.ELABORATED)
        assert reconstruct(kernel.log, set()) == {0, 3}

    def test_identity_on_empty_log(self):
        log = ReductionLog()
        assert reconstruct(log, {0, 3}) == {0, 3}

    def test_logged_vertex_rejected(self):
        kernel = reduce(path_graph(4), ReductionVariant.ELABORATED)
        with pytest.raises(GraphError, match="logged"):
            reconstruct(kernel.log, {0})

    def test_log_has_no_duplicates(self):
        log = ReductionLog()
        log.record(0, VertexStatus.INCLUDED, ReductionKind.CLIQUE)
        with pytest.raises(GraphError, match="twice"):
            log.record(0, VertexStatus.EXCLUDED, ReductionKind.CLIQUE)


def _conflict_alpha(g: StaticGraph, tlg: TwoLevelGraph) -> int:
    return brute_alpha(induced_square_subgraph(g, tlg.active_vertices()))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 12),
    st.sampled_from([0.15, 0.3, 0.5]),
    st.integers(0, 10**6),
)
def test_each_rule_preserves_optimum(n, p, seed):
    """Applying any single rule changes the conflict-instance optimum by the
    number of vertices it includes."""
    g = gnp_graph(n, p, seed)
    base = TwoLevelGraph(g)
    rng = random.Random(seed)
    for _ in range(rng.randint(0, n // 3)):
        active = base.active_vertices()
        if not active:
            return
        base.remove_vertex(rng.choice(active), VertexStatus.EXCLUDED)
    before = _conflict_alpha(g, base)
    for kind, func in _RULE_FUNCS.items():
        work = copy.deepcopy(base)
        for v in work.active_vertices():
            if func(work, v) is not None:
                included = sum(
                    1
                    for u in range(g.n)
                    if work.status(u) is VertexStatus.INCLUDED
                    and base.status(u) is not VertexStatus.INCLUDED
                )
                assert before == _conflict_alpha(g, work) + included, kind
                break


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 13), st.sampled_from([0.1, 0.3, 0.5]), st.integers(0, 10**6))
def test_reduce_soundness_all_variants(n, p, seed):
    g = gnp_graph(n, p, seed)
    beta = brute_beta(g)[0]
    for variant in ReductionVariant:
        kernel = reduce(g, variant)
        residual = brute_alpha(induced_square_subgraph(g, kernel.graph.active_vertices()))
        assert kernel.log.offset + residual == beta


def test_exhaustiveness_on_corpus(full_corpus):
    for _, g in full_corpus[::7]:
        for variant in (ReductionVariant.CORE, ReductionVariant.ELABORATED):
            kernel = reduce(g, variant)
            follow_up = ReductionLog()
            counts: Counter = Counter()
            apply_rules_exhaustively(copy.deepcopy(kernel.graph), variant.rule_order, follow_up, counts)
            assert len(follow_up) == 0
            assert sum(counts.values()) == 0


def test_determinism(full_corpus):
    for _, g in full_corpus[::9]:
        for variant in ReductionVariant:
            a = reduce(g, variant)
            b = reduce(g, variant)
            assert a.graph.active_vertices() == b.graph.active_vertices()
            assert [(e.vertex, e.decision, e.rule) for e in a.log.entries] == [
                (e.vertex, e.decision, e.rule) for e in b.log.entries
            ]
            assert a.log.offset == b.log.offset


def plain_pass_reduce(static, variant):
    """The pass policy with every probe made: the rules before DOMINATION to
    exhaustion after every firing, then passes that probe DOMINATION on each
    vertex in ascending ID until it fails, until a pass fires nothing."""
    g, log = TwoLevelGraph(static), ReductionLog()
    order = variant.rule_order
    before = order[: order.index(ReductionKind.DOMINATION)]

    def exhaust():
        while any(
            _RULE_FUNCS[kind](g, v, log) is not None
            for kind in before
            for v in g.active_vertices()
        ):
            pass

    exhaust()
    fired = True
    while fired:
        fired = False
        for v in range(g.n):
            while g.status(v) is VertexStatus.ACTIVE and try_domination(g, v, log) is not None:
                fired = True
                exhaust()
    return g, log


def test_schedule_matches_plain_pass_policy():
    """The queued scheduler fires the same rule/vertex sequence as the pass
    policy with every probe made."""
    rng = random.Random(4242)
    graphs = [
        gnp_graph(rng.randint(2, 12), rng.choice([0.15, 0.3, 0.6]), rng.randrange(10**6))
        for _ in range(80)
    ]
    # Hubs and dense balls: a removal often frees a vertex the pass has yet
    # to reach, or one it has passed.
    graphs += [
        preferential_attachment(rng.randint(40, 120), rng.choice([1, 2, 3]), rng.randrange(10**6))
        for _ in range(20)
    ]
    graphs += [
        random_geometric(rng.randint(60, 200), rng.choice([0.1, 0.15, 0.2]), rng.randrange(10**6))
        for _ in range(30)
    ]
    for g in graphs:
        for variant in (ReductionVariant.CORE, ReductionVariant.ELABORATED):
            kernel = reduce(g, variant)
            plain_graph, plain_log = plain_pass_reduce(g, variant)
            assert graph_state(kernel.graph) == graph_state(plain_graph)
            assert [(e.vertex, e.decision, e.rule) for e in kernel.log.entries] == [
                (e.vertex, e.decision, e.rule) for e in plain_log.entries
            ]


def test_variant_dominance(full_corpus):
    for _, g in full_corpus[::5]:
        baseline = reduce(g, ReductionVariant.TWO_PACK).report.n_kernel
        assert reduce(g, ReductionVariant.CORE).report.n_kernel <= baseline
        assert reduce(g, ReductionVariant.ELABORATED).report.n_kernel <= baseline


def test_kernel_partitions_vertices(full_corpus):
    """Every vertex is either active in the kernel or logged, never both."""
    for _, g in full_corpus[::4]:
        for variant in ReductionVariant:
            kernel = reduce(g, variant)
            active = set(kernel.graph.active_vertices())
            logged = kernel.log.vertices()
            assert active | logged == set(range(g.n))
            assert not active & logged


# -- reference rules and fixed reduction traces --------------------------------


def reference_domination(g, v, log=None):
    """Reference try_domination, built on the checked, copying accessors."""
    two_v = g.two_neighbors(v)
    one_v = g.neighbors(v)
    size_v = len(one_v) + len(two_v) + 1
    for u in sorted(two_v | one_v):
        one_u = g.neighbors(u)
        two_u = g.two_neighbors(u)
        if len(one_u) + len(two_u) + 1 < size_v:
            continue
        if v not in one_u and v not in two_u:
            continue
        if all(x == u or x in one_u or x in two_u for x in one_v) and all(
            x == u or x in one_u or x in two_u for x in two_v
        ):
            equal = size_v == len(one_u) + len(two_u) + 1
            target = max(u, v) if equal else u
            g.remove_vertex(target, VertexStatus.EXCLUDED)
            if log is not None:
                log.record(target, VertexStatus.EXCLUDED, ReductionKind.DOMINATION)
            return target
    return None


def graph_state(g: TwoLevelGraph):
    """Everything a rule may change: statuses, both set families, lazy state, m2."""
    return (
        [g.status(v) for v in range(g.n)],
        [frozenset(s) for s in g._one],
        [frozenset(s) for s in g._closed],
        [g.is_materialized(v) for v in range(g.n)],
        g.two_edge_count,
    )


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 16),
    st.sampled_from([0.15, 0.3, 0.5]),
    st.integers(0, 10**6),
    st.lists(st.integers(0, 10**6), max_size=6),
    st.lists(st.integers(0, 10**6), max_size=4),
)
def test_rules_match_reference(n, p, seed, removals, materialize):
    """Each in-place rule returns the same vertex as its reference body and
    leaves the same graph behind, including which vertices are materialized."""
    base = TwoLevelGraph(gnp_graph(n, p, seed))
    for pick in removals:
        active = base.active_vertices()
        if not active:
            return
        mark = VertexStatus.INCLUDED if pick % 2 else VertexStatus.EXCLUDED
        base.remove_vertex(active[pick % len(active)], mark)
    active = base.active_vertices()
    for pick in materialize:
        if active:
            base.materialize_two_neighborhood(active[pick % len(active)])
    for v in active:
        got, want = copy.deepcopy(base), copy.deepcopy(base)
        got_log, want_log = ReductionLog(), ReductionLog()
        assert try_domination(got, v, got_log) == reference_domination(want, v, want_log), v
        assert graph_state(got) == graph_state(want), v
        assert [(e.vertex, e.decision, e.rule) for e in got_log.entries] == [
            (e.vertex, e.decision, e.rule) for e in want_log.entries
        ]


class CountingMaterializations(TwoLevelGraph):
    """Two-level graph that counts its materialize_two_neighborhood calls."""

    calls = 0

    def materialize_two_neighborhood(self, v: int) -> None:
        self.calls += 1
        super().materialize_two_neighborhood(v)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 18),
    st.sampled_from([0.15, 0.3, 0.5]),
    st.integers(0, 10**6),
    st.lists(st.integers(0, 10**6), max_size=4),
    st.lists(st.integers(0, 10**6), min_size=2, max_size=6),
)
def test_reprobe_matches_full_probe(n, p, seed, before, after):
    """After a failed domination probe on v and further removals, a re-probe
    of v returns the same vertex as a full probe, leaves the same graph and
    log, and materializes nothing.  The first two removals are taken from
    C[v] while it holds another vertex, so they reach v wherever the graph
    allows."""
    base = CountingMaterializations(gnp_graph(n, p, seed))
    for pick in before:
        active = base.active_vertices()
        if not active:
            return
        base.remove_vertex(active[pick % len(active)], VertexStatus.EXCLUDED)
    for v in base.active_vertices():
        g = copy.deepcopy(base)
        if try_domination(g, v) is not None:
            continue
        for i, pick in enumerate(after):
            others = [x for x in g.active_vertices() if x != v]
            near = [x for x in others if x in g._closed[v]]
            pool = near if i < 2 and near else others
            if not pool:
                break
            mark = VertexStatus.INCLUDED if pick % 2 else VertexStatus.EXCLUDED
            g.remove_vertex(pool[pick % len(pool)], mark)
        got, want = copy.deepcopy(g), copy.deepcopy(g)
        got_log, want_log = ReductionLog(), ReductionLog()
        assert try_domination(got, v, got_log, True) == try_domination(want, v, want_log), v
        assert got.calls == g.calls, v
        assert graph_state(got) == graph_state(want), v
        assert [(e.vertex, e.decision, e.rule) for e in got_log.entries] == [
            (e.vertex, e.decision, e.rule) for e in want_log.entries
        ]


@st.composite
def gnp_or_ba(draw):
    """G(n, p) or Barabasi-Albert graph on at most 40 vertices."""
    n, seed = draw(st.integers(1, 40)), draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        return gnp_graph(n, draw(st.sampled_from([0.05, 0.1, 0.2, 0.35])), seed)
    k = draw(st.integers(1, 3))
    return preferential_attachment(max(n, k + 1), k, seed)


class BallSnapshots(TwoLevelGraph):
    """Two-level graph that snapshots each ball as it hands it to the listener."""

    def __init__(self, static: StaticGraph):
        self.handed: list[tuple[set[int], frozenset[int]]] = []
        super().__init__(static)

    @property
    def removal_listener(self):
        return self._listener

    @removal_listener.setter
    def removal_listener(self, listener):
        def snapshot(w, ball):
            self.handed.append((ball, frozenset(ball)))
            listener(w, ball)

        self._listener = None if listener is None else snapshot


@settings(max_examples=80, deadline=None)
@given(gnp_or_ba())
def test_balls_are_never_mutated(static):
    """No ball changes after the graph hands it to the scheduler."""
    for variant in (ReductionVariant.CORE, ReductionVariant.ELABORATED):
        g = BallSnapshots(static)
        apply_rules_exhaustively(g, variant.rule_order, ReductionLog(), Counter())
        assert len(g.handed) == g.n - g.active_count
        for ball, snapshot in g.handed:
            assert ball == snapshot


@settings(max_examples=100, deadline=None)
@given(gnp_or_ba())
def test_clique_never_fires_on_elaborated_kernel(static):
    """CLIQUE applied to a finished ELABORATED kernel fires 0 times and
    leaves the kernel as it was, materialized vertices included."""
    kernel = reduce(static, ReductionVariant.ELABORATED)
    before = graph_state(kernel.graph)
    log, counts = ReductionLog(), Counter()
    apply_rules_exhaustively(kernel.graph, (ReductionKind.CLIQUE,), log, counts)
    assert counts[ReductionKind.CLIQUE] == 0 and len(log) == 0
    assert graph_state(kernel.graph) == before


# SHA-1 of the (vertex, decision, rule) log and the kernel's (n, m, m2) under
# ELABORATED, recorded with rules built on the checked accessors (as in the
# reference functions above).  m2 counts recorded conflict edges, so it also
# pins which 2-neighborhoods the rules materialize.  The geometric digest is
# that of DOMINATION in passes.
GOLDEN_TRACES = {
    "hub": (
        lambda: preferential_attachment(300, 3, seed=7),
        "ce5bb46cecf972fd80aaac352871d1bf6e933b70",
        (283, 518, 5803),
    ),
    "geometric": (
        lambda: random_geometric(600, 0.065, seed=11),
        "affa722581444aa68954d1d44b8c67f789e7bd66",
        (81, 63, 123),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
def test_reduction_trace_is_pinned(name):
    make, digest, sizes = GOLDEN_TRACES[name]
    kernel = reduce(make(), ReductionVariant.ELABORATED)
    entries = [(e.vertex, e.decision.value, e.rule.value) for e in kernel.log.entries]
    assert hashlib.sha1(repr(entries).encode()).hexdigest() == digest
    assert (kernel.report.n_kernel, kernel.report.m_kernel, kernel.report.m2_kernel) == sizes


# Kernel (n, offset, m + m2) under ELABORATED, recorded with the ten-rule
# portfolio that ELABORATED's rules replaced.  The rules may exclude a different
# dominated vertex, which moves edges between m and m2 (as on the last two
# graphs), so only the sum is pinned.  A portfolio that reduces less fails.
KERNEL_POWER = {
    "hub": (GOLDEN_TRACES["hub"][0], (283, 0, 6321)),
    "geometric": (GOLDEN_TRACES["geometric"][0], (81, 52, 186)),
    "geometric-split-11": (lambda: random_geometric(300, 0.09, seed=11), (13, 39, 17)),
    "geometric-split-24": (lambda: random_geometric(300, 0.09, seed=24), (4, 43, 4)),
}


@pytest.mark.parametrize("name", sorted(KERNEL_POWER))
def test_kernel_power_is_pinned(name):
    make, pinned = KERNEL_POWER[name]
    kernel = reduce(make(), ReductionVariant.ELABORATED)
    report = kernel.report
    assert (report.n_kernel, report.offset, report.m_kernel + report.m2_kernel) == pinned


def test_domination_materializes_only_fresh_vertices(monkeypatch):
    """A domination probe completes a 2-neighborhood at most once per vertex:
    it never calls materialize_two_neighborhood on a materialized vertex."""
    seen: list[bool] = []
    original = TwoLevelGraph.materialize_two_neighborhood

    def counting(self, v):
        seen.append(self.is_materialized(v))
        return original(self, v)

    monkeypatch.setattr(TwoLevelGraph, "materialize_two_neighborhood", counting)
    g = TwoLevelGraph(preferential_attachment(120, 3, seed=5))
    fired = 0
    for v in range(g.n):
        if g.status(v) is VertexStatus.ACTIVE:
            fired += try_domination(g, v) is not None
    assert fired > 0
    assert len(seen) > 0
    assert seen.count(True) == 0
    # Every probe materialized its own vertex, so a second pass over the
    # survivors finds everything materialized and makes no call.
    first_pass = len(seen)
    for v in g.active_vertices():
        if g.status(v) is VertexStatus.ACTIVE:
            try_domination(g, v)
    assert len(seen) == first_pass


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 16),
    st.sampled_from([0.1, 0.2, 0.35, 0.6]),
    st.integers(0, 10**6),
    st.lists(st.integers(0, 10**6), max_size=8),
    st.lists(st.integers(0, 10**6), max_size=4),
)
def test_degree_windows_are_sound(n, p, seed, removals, materialize):
    """At a degree it does not admit a rule's probe returns None and leaves the
    graph and the log untouched, so the scheduler may skip it."""
    base = TwoLevelGraph(gnp_graph(n, p, seed))
    for pick in removals:
        active = base.active_vertices()
        if not active:
            return
        mark = VertexStatus.INCLUDED if pick % 2 else VertexStatus.EXCLUDED
        base.remove_vertex(active[pick % len(active)], mark)
    active = base.active_vertices()
    for pick in materialize:
        if active:
            base.materialize_two_neighborhood(active[pick % len(active)])
    before = graph_state(base)
    for kind in _RULE_FUNCS:
        for v in active:
            degree = base.degree(v)
            if _RULE_DEGREE.get(kind, degree) == degree:
                continue
            log = ReductionLog()
            assert _RULE_FUNCS[kind](base, v, log) is None, (kind, v)
            assert graph_state(base) == before, (kind, v)
            assert len(log) == 0


# Probes per GOLDEN_TRACES graph under ELABORATED with every vertex of a
# removal's ball queued for every rule, as before degree windows.
PROBES_WITHOUT_WINDOWS = {"hub": 24229, "geometric": 45377}
# Probes per rule, and the kernel's (n, m, m2, offset), per GOLDEN_TRACES graph
# and variant.  A scheduler that probes a rule more often, or fires another
# sequence, fails.
RULE_PROBES = {
    ("hub", ReductionVariant.CORE): (
        {ReductionKind.CLIQUE: 2791, ReductionKind.DOMINATION: 550},
        (283, 518, 5803, 0),
    ),
    ("hub", ReductionVariant.ELABORATED): (
        {ReductionKind.DEG_ZERO: 13, ReductionKind.DEG_ONE: 122, ReductionKind.DOMINATION: 550},
        (283, 518, 5803, 0),
    ),
    ("geometric", ReductionVariant.CORE): (
        {ReductionKind.CLIQUE: 3716, ReductionKind.DOMINATION: 544},
        (81, 63, 123, 52),
    ),
    ("geometric", ReductionVariant.ELABORATED): (
        {ReductionKind.DEG_ZERO: 78, ReductionKind.DEG_ONE: 280, ReductionKind.DOMINATION: 806},
        (81, 63, 123, 52),
    ),
}


@pytest.mark.parametrize(
    "variant", [ReductionVariant.CORE, ReductionVariant.ELABORATED], ids=lambda v: v.value
)
@pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
def test_probes_route_by_degree(name, variant, monkeypatch):
    """The scheduler probes a degree rule only on vertices of the degree it
    admits, and so probes less than with unwindowed queues; every rule's probe
    count and the kernel are pinned."""
    probes: Counter = Counter()
    outside: list[tuple[ReductionKind, int, int]] = []

    def counting(kind, func):
        def wrapped(g, v, log=None, *rest):
            probes[kind] += 1
            degree = len(g._one[v])
            if _RULE_DEGREE.get(kind, degree) != degree:
                outside.append((kind, v, degree))
            return func(g, v, log, *rest)

        return wrapped

    for kind, func in list(reductions._RULE_FUNCS.items()):
        monkeypatch.setitem(reductions._RULE_FUNCS, kind, counting(kind, func))
    make, _, _ = GOLDEN_TRACES[name]
    report = reduce(make(), variant).report
    assert outside == []
    assert sum(probes.values()) < PROBES_WITHOUT_WINDOWS[name]
    kernel = (report.n_kernel, report.m_kernel, report.m2_kernel, report.offset)
    assert (dict(probes), kernel) == RULE_PROBES[name, variant]


@pytest.mark.parametrize("variant", list(ReductionVariant), ids=lambda v: v.value)
def test_scheduler_state_does_not_outlive_reduce(variant, monkeypatch):
    """No removal listener is left on the graph, which would keep the
    scheduler's heap and pending set alive through the solve: not after
    reduce, and not when a probe raises."""
    static = preferential_attachment(80, 2, seed=3)
    assert reduce(static, variant).graph.removal_listener is None
    if not variant.rule_order:
        return

    def raising(func):
        def wrapped(g, *args):
            if g.active_count < g.n:
                raise RuntimeError("probe after a removal")
            return func(g, *args)

        return wrapped

    for kind, func in list(reductions._RULE_FUNCS.items()):
        monkeypatch.setitem(reductions._RULE_FUNCS, kind, raising(func))
    g = TwoLevelGraph(static)
    with pytest.raises(RuntimeError, match="probe after a removal"):
        apply_rules_exhaustively(g, variant.rule_order, ReductionLog(), Counter())
    assert g.removal_listener is None
