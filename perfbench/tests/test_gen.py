"""Generators: seeded, simple graphs that survive the METIS round trip."""

import math
from random import Random

import pytest

import gen
from twopack import StaticGraph, parse_metis, write_metis
from workloads import WORKLOADS, instance_rng


def assert_simple(n, edges):
    assert all(0 <= u < v < n for u, v in edges)
    assert len(set(edges)) == len(edges)
    assert edges == sorted(edges)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes(name):
    w = WORKLOADS[name]
    texts = []
    for _ in range(2):
        n, edges = w.make(instance_rng(name, 7, 3))
        texts.append(write_metis(StaticGraph.from_edges(n, edges)))
    assert texts[0] == texts[1]
    other_n, other = w.make(instance_rng(name, 8, 3))
    assert write_metis(StaticGraph.from_edges(other_n, other)) != texts[0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_graphs_are_simple_and_round_trip(name):
    n, edges = WORKLOADS[name].make(instance_rng(name, 1, 0))
    assert_simple(n, edges)
    g = StaticGraph.from_edges(n, edges)
    assert g.m == len(edges)
    assert parse_metis(write_metis(g)) == g


def test_barabasi_albert_edge_count_and_min_degree():
    n, k = 200, 3
    edges = gen.barabasi_albert(n, k, Random(0))
    assert_simple(n, edges)
    assert len(edges) == k * (k + 1) // 2 + (n - k - 1) * k
    g = StaticGraph.from_edges(n, edges)
    assert min(g.degree(v) for v in range(n)) == k


def test_gnm_has_exactly_m_edges():
    edges = gen.gnm(50, 300, Random(1))
    assert_simple(50, edges)
    assert len(edges) == 300


def test_gnm_rejects_too_many_edges():
    with pytest.raises(ValueError):
        gen.gnm(4, 7, Random(0))


def test_random_geometric_matches_brute_force_distances():
    n, degree = 120, 6.0
    rng = Random(5)
    edges = gen.random_geometric(n, degree, rng)
    assert_simple(n, edges)
    replay = Random(5)
    points = [(replay.random(), replay.random()) for _ in range(n)]
    radius = math.sqrt(degree / (math.pi * n))
    expected = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if (points[i][0] - points[j][0]) ** 2 + (points[i][1] - points[j][1]) ** 2 < radius**2
    ]
    assert edges == expected
