"""Ground-truth checks for the brute-force oracle itself."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twopack import StaticGraph, verify_2ps
from twopack.oracle import OracleLimitError, brute_alpha, brute_beta, brute_square

from conftest import (
    complete_graph,
    cycle_graph,
    gnp_graph,
    path_graph,
    square_edges,
    star_graph,
)


class TestBruteBeta:
    def test_paths_follow_closed_form(self):
        # A path on n vertices packs one vertex per three
        for n in range(2, 11):
            assert brute_beta(path_graph(n))[0] == math.ceil(n / 3)

    def test_cycles_follow_closed_form(self):
        for n in range(3, 13):
            assert brute_beta(cycle_graph(n))[0] == n // 3

    def test_c9_witness(self):
        size, witness = brute_beta(cycle_graph(9))
        assert size == 3
        assert verify_2ps(cycle_graph(9), witness)

    def test_stars_are_one(self):
        for leaves in range(1, 7):
            assert brute_beta(star_graph(leaves))[0] == 1

    def test_witness_is_always_valid(self):
        for seed in range(10):
            g = gnp_graph(10, 0.3, seed)
            size, witness = brute_beta(g)
            assert len(witness) == size
            assert verify_2ps(g, witness)

    def test_size_cap(self):
        with pytest.raises(OracleLimitError):
            brute_beta(gnp_graph(25, 0.1, 1))


class TestBruteSquare:
    def test_c5_is_complete(self):
        sq = brute_square(cycle_graph(5))
        assert sq.m == 10  # K5

    def test_p3_is_triangle(self):
        sq = brute_square(path_graph(3))
        assert square_edges(sq) == {(0, 1), (0, 2), (1, 2)}

    def test_disjoint_edges_unchanged(self):
        g = StaticGraph.from_edges(4, [(0, 1), (2, 3)])
        sq = brute_square(g)
        assert square_edges(sq) == {(0, 1), (2, 3)}


class TestBruteAlpha:
    def test_k3(self):
        assert brute_alpha(complete_graph(3)) == 1

    def test_c6(self):
        assert brute_alpha(cycle_graph(6)) == 3

    def test_p5(self):
        assert brute_alpha(path_graph(5)) == 3


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 13), st.sampled_from([0.1, 0.3, 0.5]), st.integers(0, 10**6))
def test_beta_equals_alpha_of_square(n, p, seed):
    g = gnp_graph(n, p, seed)
    assert brute_beta(g)[0] == brute_alpha(brute_square(g))
