"""Rule-level behavior, the exhaustive scheduler, and the reconstruction log."""

from __future__ import annotations

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
    _DEGREE_WINDOWS,
    _RULE_FUNCS,
    ReductionLog,
    _admits,
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
            ReductionKind.CLIQUE,
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
        assert not g.has_edge(0, 2)
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
        assert g.degree(2) == 0 and g.degree2(2) == 2
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
        assert g.degree2(1) == 3
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
    """Cases of the retired DEG_TWO_V_SHAPE rule: CLIQUE or the four-rule
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
        assert kernel.stats.rule_counts == {}

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
        assert sum(kernel.stats.rule_counts.values()) >= 2
        assert kernel.stats.n == 0 and kernel.stats.m == 0


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
        work = base.clone()
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
            from twopack.reductions import apply_rules_exhaustively

            apply_rules_exhaustively(kernel.graph.clone(), variant.rule_order, follow_up, counts)
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


def test_memoized_schedule_matches_plain_restart_policy():
    """The dirty-set scheduler must fire the same rule/vertex sequence as a
    scan-everything restart policy."""

    def plain_reduce(static, variant):
        g = TwoLevelGraph(static)
        log = ReductionLog()
        while True:
            for kind in variant.rule_order:
                fired = False
                for v in g.active_vertices():
                    if _RULE_FUNCS[kind](g, v, log) is not None:
                        fired = True
                        break
                if fired:
                    break
            else:
                return g, log

    rng = random.Random(4242)
    graphs = [
        gnp_graph(rng.randint(2, 12), rng.choice([0.15, 0.3, 0.6]), rng.randrange(10**6))
        for _ in range(80)
    ]
    # Hubs: long dirty queues, many failing probes between firings.
    graphs += [
        preferential_attachment(rng.randint(40, 120), rng.choice([1, 2, 3]), rng.randrange(10**6))
        for _ in range(6)
    ]
    for g in graphs:
        for variant in (ReductionVariant.CORE, ReductionVariant.ELABORATED):
            kernel = reduce(g, variant)
            plain_graph, plain_log = plain_reduce(g, variant)
            assert kernel.graph.active_vertices() == plain_graph.active_vertices()
            assert [(e.vertex, e.decision, e.rule) for e in kernel.log.entries] == [
                (e.vertex, e.decision, e.rule) for e in plain_log.entries
            ]


def test_variant_dominance(full_corpus):
    for _, g in full_corpus[::5]:
        baseline = reduce(g, ReductionVariant.TWO_PACK).stats.n
        assert reduce(g, ReductionVariant.CORE).stats.n <= baseline
        assert reduce(g, ReductionVariant.ELABORATED).stats.n <= baseline


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
        [frozenset(s) for s in g._two],
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
        got, want = base.clone(), base.clone()
        got_log, want_log = ReductionLog(), ReductionLog()
        assert try_domination(got, v, got_log) == reference_domination(want, v, want_log), v
        assert graph_state(got) == graph_state(want), v
        assert [(e.vertex, e.decision, e.rule) for e in got_log.entries] == [
            (e.vertex, e.decision, e.rule) for e in want_log.entries
        ]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 18),
    st.sampled_from([0.15, 0.3, 0.5]),
    st.integers(0, 10**6),
    st.lists(st.integers(0, 10**6), max_size=4),
    st.lists(st.integers(0, 10**6), min_size=1, max_size=6),
)
def test_filtered_domination_matches_full_probe(n, p, seed, before, after):
    """After a failed domination probe on v and further removals, a probe
    given the balls of the removals that reached v returns the same vertex as
    a full probe and leaves the same graph and log."""
    base = TwoLevelGraph(gnp_graph(n, p, seed))
    for pick in before:
        active = base.active_vertices()
        if not active:
            return
        base.remove_vertex(active[pick % len(active)], VertexStatus.EXCLUDED)
    for v in base.active_vertices():
        g = base.clone()
        if try_domination(g, v) is not None:
            continue
        balls: list[set[int]] = []
        g.removal_listener = lambda w, ball: balls.append(ball) if v in ball else None
        for pick in after:
            others = [x for x in g.active_vertices() if x != v]
            if not others:
                break
            mark = VertexStatus.INCLUDED if pick % 2 else VertexStatus.EXCLUDED
            g.remove_vertex(others[pick % len(others)], mark)
        got, want = g.clone(), g.clone()
        got_log, want_log = ReductionLog(), ReductionLog()
        assert try_domination(got, v, got_log, balls) == try_domination(want, v, want_log), v
        assert graph_state(got) == graph_state(want), v
        assert [(e.vertex, e.decision, e.rule) for e in got_log.entries] == [
            (e.vertex, e.decision, e.rule) for e in want_log.entries
        ]


# SHA-1 of the (vertex, decision, rule) log and the kernel's (n, m, m2) under
# ELABORATED, recorded with rules built on the checked accessors (as in the
# reference functions above).  m2 counts recorded conflict edges, so it also
# pins which 2-neighborhoods the rules materialize.  The geometric digest is
# that of the four-rule ELABORATED.
GOLDEN_TRACES = {
    "hub": (
        lambda: preferential_attachment(300, 3, seed=7),
        "ce5bb46cecf972fd80aaac352871d1bf6e933b70",
        (283, 518, 5803),
    ),
    "geometric": (
        lambda: random_geometric(600, 0.065, seed=11),
        "df4164b6b620265a9202e7a1d83f54282bf2da3e",
        (81, 63, 123),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
def test_reduction_trace_is_pinned(name):
    make, digest, sizes = GOLDEN_TRACES[name]
    kernel = reduce(make(), ReductionVariant.ELABORATED)
    entries = [(e.vertex, e.decision.value, e.rule.value) for e in kernel.log.entries]
    assert hashlib.sha1(repr(entries).encode()).hexdigest() == digest
    assert (kernel.stats.n, kernel.stats.m, kernel.stats.m2) == sizes


# Kernel (n, offset, m + m2) under ELABORATED, recorded with the ten-rule
# portfolio that the four rules replaced.  The rules may exclude a different
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
    stats = kernel.stats
    assert (stats.n, kernel.log.offset, stats.m + stats.m2) == pinned


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
        if g.is_active(v):
            fired += try_domination(g, v) is not None
    assert fired > 0
    assert len(seen) > 0
    assert seen.count(True) == 0
    # Every probe materialized its own vertex, so a second pass over the
    # survivors finds everything materialized and makes no call.
    first_pass = len(seen)
    for v in g.active_vertices():
        if g.is_active(v):
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
    """Outside its degree window a rule's probe returns None and leaves the
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
    for kind in _DEGREE_WINDOWS:
        for v in active:
            if _admits(kind, base.degree(v)):
                continue
            log = ReductionLog()
            assert _RULE_FUNCS[kind](base, v, log) is None, (kind, v)
            assert graph_state(base) == before, (kind, v)
            assert len(log) == 0


# Probes per GOLDEN_TRACES graph with every vertex of a removal's ball queued
# for every rule, as before degree windows.
PROBES_WITHOUT_WINDOWS = {"hub": 24229, "geometric": 45377}
# Probes of the two rules whose window admits every degree; windows leave them as they were.
EVERY_DEGREE_PROBES = {
    "hub": {ReductionKind.DOMINATION: 1618, ReductionKind.CLIQUE: 283},
    "geometric": {ReductionKind.DOMINATION: 1556, ReductionKind.CLIQUE: 81},
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
def test_probes_route_by_degree(name, monkeypatch):
    """The scheduler probes a windowed rule only on vertices inside its window,
    and so probes less than with unwindowed queues."""
    probes: Counter = Counter()
    outside: list[tuple[ReductionKind, int, int]] = []

    def counting(kind, func):
        def wrapped(g, v, log=None, *rest):
            probes[kind] += 1
            degree = len(g._one[v])
            if not _admits(kind, degree):
                outside.append((kind, v, degree))
            return func(g, v, log, *rest)

        return wrapped

    for kind, func in list(reductions._RULE_FUNCS.items()):
        monkeypatch.setitem(reductions._RULE_FUNCS, kind, counting(kind, func))
    make, _, _ = GOLDEN_TRACES[name]
    reduce(make(), ReductionVariant.ELABORATED)
    assert outside == []
    assert sum(probes.values()) < PROBES_WITHOUT_WINDOWS[name]
    every_degree = EVERY_DEGREE_PROBES[name]
    assert {kind: probes[kind] for kind in every_degree} == every_degree
