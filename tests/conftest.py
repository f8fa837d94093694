"""Shared graph builders and the randomized corpus used across the suite."""

from __future__ import annotations

import random

import pytest

from twopack import StaticGraph
from twopack.oracle import brute_square
from twopack.transform import SquareGraph


def path_graph(n: int) -> StaticGraph:
    return StaticGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> StaticGraph:
    return StaticGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int, center: int = 0) -> StaticGraph:
    """Star with the given center ID; leaves take the remaining IDs."""
    n = leaves + 1
    others = [v for v in range(n) if v != center]
    return StaticGraph.from_edges(n, [(center, v) for v in others])


def complete_graph(n: int) -> StaticGraph:
    return StaticGraph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(a: int, b: int) -> StaticGraph:
    return StaticGraph.from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def gnp_graph(n: int, p: float, seed: int) -> StaticGraph:
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return StaticGraph.from_edges(n, edges)


def random_tree(n: int, seed: int) -> StaticGraph:
    rng = random.Random(seed)
    return StaticGraph.from_edges(n, [(rng.randrange(0, v), v) for v in range(1, n)])


def preferential_attachment(n: int, k: int, seed: int) -> StaticGraph:
    """Barabasi-Albert graph: a (k+1)-clique, then each new vertex links to k
    distinct earlier ones picked with probability proportional to degree."""
    rng = random.Random(seed)
    edges = [(u, v) for v in range(k + 1) for u in range(v)]
    # Every edge endpoint once, so a uniform pick is degree-proportional.
    ends = [x for e in edges for x in e]
    for v in range(k + 1, n):
        targets: set[int] = set()
        while len(targets) < k:
            targets.add(ends[rng.randrange(len(ends))])
        for u in sorted(targets):
            edges.append((u, v))
            ends += (u, v)
    return StaticGraph.from_edges(n, edges)


def random_geometric(n: int, radius: float, seed: int) -> StaticGraph:
    """Points in the unit square, joined when closer than ``radius``."""
    rng = random.Random(seed)
    points = [(rng.random(), rng.random()) for _ in range(n)]
    r2 = radius * radius
    edges = [
        (i, j)
        for i, (xi, yi) in enumerate(points)
        for j in range(i + 1, n)
        if (xi - points[j][0]) ** 2 + (yi - points[j][1]) ** 2 < r2
    ]
    return StaticGraph.from_edges(n, edges)


def induced_square_subgraph(g: StaticGraph, active: list[int]) -> SquareGraph:
    """Conflict instance of a partially reduced graph, rebuilt from scratch.

    Vertices in conflict are exactly those at distance <= 2 in the original
    graph, so the kernel's conflict instance is the square of ``g`` induced
    on the active vertices.
    """
    sq = brute_square(g)
    index = {v: i for i, v in enumerate(active)}
    adjacency = [[index[w] for w in sq.adjacency[v] if w in index] for v in active]
    return SquareGraph.from_adjacency(adjacency, to_original=active)


def square_edges(sq: SquareGraph) -> set[tuple[int, int]]:
    """The square's edges as (u, v) pairs with u < v."""
    return {(u, v) for u in range(sq.n) for v in sq.adjacency[u] if u < v}


def _named_corpus() -> list[tuple[str, StaticGraph]]:
    graphs: list[tuple[str, StaticGraph]] = []
    for n in range(2, 11):
        graphs.append((f"P{n}", path_graph(n)))
    for n in range(3, 13):
        graphs.append((f"C{n}", cycle_graph(n)))
    for leaves in range(1, 7):
        graphs.append((f"K1_{leaves}", star_graph(leaves)))
    graphs.append(("K2_3", complete_bipartite(2, 3)))
    graphs.append(("K4", complete_graph(4)))
    graphs.append(("empty5", StaticGraph.from_edges(5, [])))
    return graphs


def _random_corpus() -> list[tuple[str, StaticGraph]]:
    graphs = []
    seed = 0
    for p in (0.1, 0.2, 0.3, 0.5):
        for n in range(4, 15):
            for rep in range(5):
                seed += 1
                graphs.append((f"G{n}_{p}_{rep}", gnp_graph(n, p, seed)))
    return graphs


def _tree_corpus() -> list[tuple[str, StaticGraph]]:
    return [(f"T{n}_{s}", random_tree(n, 100 + s)) for s in range(4) for n in (5, 9, 14)]


@pytest.fixture(scope="session")
def named_corpus() -> list[tuple[str, StaticGraph]]:
    return _named_corpus()


@pytest.fixture(scope="session")
def random_corpus() -> list[tuple[str, StaticGraph]]:
    return _random_corpus()


@pytest.fixture(scope="session")
def full_corpus(named_corpus, random_corpus) -> list[tuple[str, StaticGraph]]:
    return named_corpus + random_corpus + _tree_corpus()
