"""Static graph validation and two-level graph semantics."""

from __future__ import annotations

import sys
import tracemalloc
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twopack import GraphError, StaticGraph, TwoLevelGraph, VertexStatus
from twopack.oracle import brute_square

from conftest import complete_graph, cycle_graph, gnp_graph, path_graph, star_graph


class TestStaticGraph:
    def test_from_edges(self):
        g = StaticGraph.from_edges(3, [(0, 1), (1, 2)])
        assert g.n == 3
        assert g.m == 2
        assert g.neighbors(1) == (0, 2)

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            StaticGraph.from_edges(2, [(0, 0)])

    def test_rejects_duplicates(self):
        with pytest.raises(GraphError, match="duplicate"):
            StaticGraph([[1, 1], [0]])

    def test_rejects_asymmetry(self):
        with pytest.raises(GraphError, match="asymmetric"):
            StaticGraph([[1], []])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            StaticGraph.from_edges(2, [(0, 5)])

    def test_rejects_negative_endpoint(self):
        # -1 must not wrap round to vertex n - 1
        with pytest.raises(GraphError, match="out of range"):
            StaticGraph.from_edges(3, [(-1, 0)])

    def test_empty_graph(self):
        g = StaticGraph.from_edges(0, [])
        assert g.n == 0 and g.m == 0

    def test_edges_sorted(self):
        g = StaticGraph.from_edges(4, [(2, 3), (0, 1), (1, 3)])
        assert list(g.edges()) == [(0, 1), (1, 3), (2, 3)]

    def test_retains_about_its_adjacency(self):
        # The symmetry check's per-vertex sets are dropped after construction:
        # what a graph keeps is its adjacency tuples and little else.
        rng = Random(7)
        n = 2000
        edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(8000)}
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            g = StaticGraph.from_edges(n, edges)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        adjacency = sys.getsizeof(g.adjacency) + sum(sys.getsizeof(t) for t in g.adjacency)
        assert g.m > 7500
        assert retained < 1.5 * adjacency


class TestBuild:
    def test_p3(self):
        g = TwoLevelGraph(path_graph(3))
        assert g.neighbors(1) == {0, 2}
        assert not g.is_materialized(0)
        assert g.two_edge_count == 0
        assert g.active_count == 3

    def test_empty(self):
        g = TwoLevelGraph(StaticGraph.from_edges(0, []))
        assert g.active_count == 0
        assert g.active_vertices() == []

    def test_k3(self):
        g = TwoLevelGraph(complete_graph(3))
        assert all(g.degree(v) == 2 for v in range(3))


class TestMaterialize:
    def test_p3_endpoint(self):
        g = TwoLevelGraph(path_graph(3))
        assert g.materialize_two_neighborhood(0) is None
        assert g.is_materialized(0)
        assert g._closed[0] == {0, 1, 2}
        assert g.two_neighbors(0) == {2}

    def test_k3_no_two_neighbors(self):
        g = TwoLevelGraph(complete_graph(3))
        assert g.two_neighbors(0) == set()

    def test_star_leaves(self):
        g = TwoLevelGraph(star_graph(3, center=0))
        assert g.two_neighbors(1) == {2, 3}

    def test_symmetric_entries_on_partner(self):
        g = TwoLevelGraph(path_graph(3))
        g.materialize_two_neighborhood(0)
        assert 0 in g._closed[2]

    def test_idempotent(self):
        g = TwoLevelGraph(path_graph(5))
        g.materialize_two_neighborhood(2)
        first = set(g._closed[2])
        g.materialize_two_neighborhood(2)
        assert first == g._closed[2] == {0, 1, 2, 3, 4}
        assert g.two_neighbors(2) == {0, 4}

    def test_two_neighbors_is_a_copy(self):
        g = TwoLevelGraph(path_graph(3))
        g.two_neighbors(0).add(1)
        assert g.is_materialized(0)
        assert g.two_neighbors(0) == {2}

    def test_inactive_vertex_rejected(self):
        g = TwoLevelGraph(path_graph(3))
        g.remove_vertex(0, VertexStatus.EXCLUDED)
        with pytest.raises(GraphError, match="not active"):
            g.materialize_two_neighborhood(0)

    @pytest.mark.parametrize("v", [3, -1])
    def test_out_of_range_vertex_rejected(self, v):
        g = TwoLevelGraph(path_graph(3))
        with pytest.raises(GraphError, match="out of range"):
            g.materialize_two_neighborhood(v)


class TestRemoveVertex:
    def test_p3_retains_two_edge(self):
        g = TwoLevelGraph(path_graph(3))
        g.remove_vertex(1, VertexStatus.EXCLUDED)
        assert g.status(1) is VertexStatus.EXCLUDED
        assert g.degree(0) == 0
        assert 2 in g._closed[0]
        assert g.two_edge_count == 1

    def test_p2_no_retention_for_single_neighbor(self):
        g = TwoLevelGraph(path_graph(2))
        g.remove_vertex(0, VertexStatus.EXCLUDED)
        assert g.degree(1) == 0
        assert g.two_neighbors(1) == set()

    def test_star_center_removal_keeps_leaf_conflicts(self):
        g = TwoLevelGraph(star_graph(3, center=0))
        g.remove_vertex(0, VertexStatus.EXCLUDED)
        assert g.two_edge_count == 3
        for u in (1, 2, 3):
            assert g.two_neighbors(u) == {1, 2, 3} - {u}

    def test_no_retention_between_adjacent_neighbors(self):
        g = TwoLevelGraph(complete_graph(3))
        g.remove_vertex(0, VertexStatus.INCLUDED)
        assert g.two_edge_count == 0
        assert 2 in g.neighbors(1)

    def test_double_removal_rejected(self):
        g = TwoLevelGraph(path_graph(3))
        g.remove_vertex(0, VertexStatus.INCLUDED)
        with pytest.raises(GraphError, match="not active"):
            g.remove_vertex(0, VertexStatus.EXCLUDED)

    def test_active_mark_rejected(self):
        g = TwoLevelGraph(path_graph(3))
        with pytest.raises(GraphError, match="mark"):
            g.remove_vertex(0, VertexStatus.ACTIVE)

    @pytest.mark.parametrize("v", [3, -1])
    def test_out_of_range_vertex_rejected(self, v):
        g = TwoLevelGraph(path_graph(3))
        with pytest.raises(GraphError, match="out of range"):
            g.remove_vertex(v, VertexStatus.EXCLUDED)
        assert g.active_count == 3


class TestAccessors:
    def test_p5_center_degrees(self):
        g = TwoLevelGraph(path_graph(5))
        assert g.degree(2) == 2
        assert len(g.two_neighbors(2)) == 2
        assert g.two_neighbors(2) == {0, 4}

    def test_c4_opposite_vertex(self):
        g = TwoLevelGraph(cycle_graph(4))
        for v in range(4):
            assert len(g.two_neighbors(v)) == 1

    def test_isolated_vertex(self):
        g = TwoLevelGraph(StaticGraph.from_edges(1, []))
        assert g.degree(0) == 0
        assert len(g.two_neighbors(0)) == 0

    def test_inactive_access_rejected(self):
        g = TwoLevelGraph(path_graph(3))
        g.remove_vertex(2, VertexStatus.EXCLUDED)
        with pytest.raises(GraphError):
            g.degree(2)


def _removal_strategy():
    return st.tuples(
        st.integers(2, 10),
        st.floats(0.0, 0.7),
        st.integers(0, 10**6),
        st.lists(st.integers(0, 10**6), max_size=6),
    )


@settings(max_examples=120, deadline=None)
@given(_removal_strategy())
def test_conflict_preservation_under_removals(params):
    """After any removal sequence, edge-or-2-edge equals original distance <= 2."""
    n, p, seed, removals = params
    g = gnp_graph(n, p, seed)
    tlg = TwoLevelGraph(g)
    for pick in removals:
        active = tlg.active_vertices()
        if not active:
            break
        mark = VertexStatus.INCLUDED if pick % 2 else VertexStatus.EXCLUDED
        tlg.remove_vertex(active[pick % len(active)], mark)
    sq = brute_square(g)
    for v in tlg.active_vertices():
        expected = {w for w in sq.adjacency[v] if tlg.status(w) is VertexStatus.ACTIVE}
        one = tlg.neighbors(v)
        two = tlg.two_neighbors(v)
        assert one | two == expected
        assert not one & two
        # no spurious conflicts: recorded 2-edges are exact distance-2 pairs
        assert all(w in expected and w not in one for w in two)


@settings(max_examples=60, deadline=None)
@given(_removal_strategy())
def test_symmetry_after_removals(params):
    n, p, seed, removals = params
    g = gnp_graph(n, p, seed)
    tlg = TwoLevelGraph(g)
    for pick in removals:
        active = tlg.active_vertices()
        if not active:
            break
        tlg.remove_vertex(active[pick % len(active)], VertexStatus.EXCLUDED)
        if active[0] in tlg.active_vertices() and tlg.status(active[0]) is VertexStatus.ACTIVE:
            tlg.materialize_two_neighborhood(active[0])
    for v in tlg.active_vertices():
        for w in tlg.neighbors(v):
            assert v in tlg.neighbors(w)
        for w in tlg.two_neighbors(v):
            assert v in tlg._closed[w]


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 12),
    st.floats(0.0, 0.7),
    st.integers(0, 10**6),
    st.lists(st.tuples(st.sampled_from("ime"), st.integers(0, 10**6)), max_size=10),
)
def test_counts_and_closed_sets_after_any_operations(n, p, seed, ops):
    """Removals under both marks and materializations keep both
    edge counts equal to a recount, and every closed conflict set symmetric
    and holding its vertex and its neighbors."""
    tlg = TwoLevelGraph(gnp_graph(n, p, seed))
    for op, pick in ops:
        active = tlg.active_vertices()
        if not active:
            break
        v = active[pick % len(active)]
        if op == "m":
            tlg.materialize_two_neighborhood(v)
        else:
            tlg.remove_vertex(v, VertexStatus.INCLUDED if op == "i" else VertexStatus.EXCLUDED)
        active = tlg.active_vertices()
        one = sum(len(tlg.neighbors(v)) for v in active)
        two = sum(len(tlg._closed[v]) - 1 - len(tlg.neighbors(v)) for v in active)
        assert (tlg.one_edge_count, tlg.two_edge_count) == (one // 2, two // 2)
        for v in active:
            assert tlg._closed[v] >= {v} | tlg.neighbors(v)
            for w in tlg._closed[v]:
                assert tlg.status(w) is VertexStatus.ACTIVE and v in tlg._closed[w]
