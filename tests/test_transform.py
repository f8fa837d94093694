"""Square-graph construction and the independence/2-packing equivalence."""

from __future__ import annotations

import copy
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twopack import (
    EdgeCapExceeded,
    ReductionVariant,
    StaticGraph,
    TwoLevelGraph,
    VertexStatus,
    reduce,
    square,
    verify_2ps,
)
from twopack.oracle import brute_alpha, brute_square
from twopack.transform import SquareGraph

from conftest import cycle_graph, gnp_graph, path_graph, square_edges, star_graph


class TestSquare:
    def test_p5_edges(self):
        sq = square(TwoLevelGraph(path_graph(5)))
        assert sq.n == 5
        assert sq.m == 7
        assert square_edges(sq) == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 3), (2, 4)}

    def test_c6_gains_both_distance_two_partners(self):
        sq = square(TwoLevelGraph(cycle_graph(6)))
        assert sq.n == 6
        assert sq.m == 12
        assert all(len(sq.adjacency[v]) == 4 for v in range(6))

    def test_mis_of_square_matches_packing_number(self):
        sq = square(TwoLevelGraph(path_graph(5)))
        assert brute_alpha(sq) == 2

    def test_identity_vertex_map_without_reductions(self):
        sq = square(TwoLevelGraph(path_graph(4)))
        assert sq.to_original == (0, 1, 2, 3)

    def test_dense_reindexing_after_reduction(self):
        # Two P3 components; elaborated removes everything, core on a C6 keeps all
        kernel = reduce(cycle_graph(6), ReductionVariant.ELABORATED)
        sq = square(kernel.graph)
        assert sq.to_original == tuple(range(6))
        assert sq.m == 12

    def test_edge_cap_exceeded(self):
        star = star_graph(5, center=0)
        with pytest.raises(EdgeCapExceeded):
            square(TwoLevelGraph(star), edge_cap=5)

    def test_edge_cap_boundary_passes(self):
        star = star_graph(5, center=0)
        sq = square(TwoLevelGraph(star), edge_cap=15)
        assert sq.m == 15  # K6

    def test_empty_graph(self):
        sq = square(TwoLevelGraph(StaticGraph.from_edges(0, [])))
        assert sq.n == 0 and sq.m == 0


class TestAgainstBruteSquare:
    def test_small_named(self):
        for g in (path_graph(2), path_graph(7), cycle_graph(9), star_graph(4)):
            built = square(TwoLevelGraph(g))
            assert built.adjacency == brute_square(g).adjacency

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 13), st.sampled_from([0.1, 0.3, 0.6]), st.integers(0, 10**6))
    def test_random(self, n, p, seed):
        g = gnp_graph(n, p, seed)
        sq = square(TwoLevelGraph(g))
        assert sq.adjacency == brute_square(g).adjacency
        assert sq.m >= g.m


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.sampled_from([0.15, 0.3, 0.5]), st.integers(0, 10**6))
def test_independent_iff_packing_exhaustive(n, p, seed):
    """Every subset is independent in the square exactly when it is a 2-packing."""
    g = gnp_graph(n, p, seed)
    sq = square(TwoLevelGraph(g))
    adj = [set(sq.adjacency[v]) for v in range(sq.n)]
    for size in range(0, min(n, 4) + 1):
        for subset in combinations(range(n), size):
            independent = all(y not in adj[x] for x, y in combinations(subset, 2))
            assert independent == verify_2ps(g, set(subset))


def reference_square(g: TwoLevelGraph) -> SquareGraph:
    """square() built on the checked, copying accessors."""
    active = g.active_vertices()
    dense = {orig: i for i, orig in enumerate(active)}
    rows = [
        [dense[w] for w in g.neighbors(v) | g.materialize_two_neighborhood(v)] for v in active
    ]
    return SquareGraph.from_adjacency(rows, to_original=active)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 16),
    st.sampled_from([0.15, 0.3, 0.5]),
    st.integers(0, 10**6),
    st.lists(st.integers(0, 10**6), max_size=6),
    st.lists(st.integers(0, 10**6), max_size=4),
)
def test_square_matches_accessor_construction(n, p, seed, removals, materialize):
    """square() reads the graph in place; it must build the same square and
    leave the same materialization state as the public-accessor construction."""
    base = TwoLevelGraph(gnp_graph(n, p, seed))
    for pick in removals:
        active = base.active_vertices()
        if not active:
            break
        mark = VertexStatus.INCLUDED if pick % 2 else VertexStatus.EXCLUDED
        base.remove_vertex(active[pick % len(active)], mark)
    active = base.active_vertices()
    for pick in materialize:
        if active:
            base.materialize_two_neighborhood(active[pick % len(active)])
    got, want = copy.deepcopy(base), copy.deepcopy(base)
    assert square(got) == reference_square(want)
    assert got._two == want._two
    assert [got.is_materialized(v) for v in range(n)] == [
        want.is_materialized(v) for v in range(n)
    ]
    assert got.two_edge_count == want.two_edge_count
