"""Seeded stdlib graph generators for the benchmark.

Every generator takes a ``random.Random`` and returns a sorted, duplicate-free
edge list over vertices ``0..n-1``, so the same seed always yields the same
graph and, through ``write_metis``, the same bytes.
"""

from __future__ import annotations

import math
from random import Random


def barabasi_albert(n: int, k: int, rng: Random) -> list[tuple[int, int]]:
    """Preferential attachment: each new vertex links to ``k`` distinct earlier ones.

    Starts from a clique on ``k + 1`` vertices, so the graph has
    ``k * (k + 1) / 2 + (n - k - 1) * k`` edges and hub degrees grow like
    ``sqrt(n)``.
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
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
    return sorted(edges)


def gnm(n: int, m: int, rng: Random) -> list[tuple[int, int]]:
    """Uniform random graph with exactly ``m`` distinct edges."""
    if not 0 <= m <= n * (n - 1) // 2:
        raise ValueError(f"G(n={n}, m={m}) has too many edges")
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def random_geometric(n: int, avg_degree: float, rng: Random) -> list[tuple[int, int]]:
    """Points in the unit square, joined when closer than the radius for ``avg_degree``.

    The radius solves ``n * pi * r^2 = avg_degree`` (boundary effects make the
    realised average a little lower); a grid of ``r``-sized cells limits the
    distance tests to neighbouring cells.
    """
    radius = math.sqrt(avg_degree / (math.pi * n))
    points = [(rng.random(), rng.random()) for _ in range(n)]
    cells: dict[tuple[int, int], list[int]] = {}
    for i, (x, y) in enumerate(points):
        cells.setdefault((int(x / radius), int(y / radius)), []).append(i)
    r2 = radius * radius
    edges = []
    for (cx, cy), members in cells.items():
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for j in cells.get((cx + dx, cy + dy), ()):
                    xj, yj = points[j]
                    for i in members:
                        if i < j:
                            xi, yi = points[i]
                            if (xi - xj) ** 2 + (yi - yj) ** 2 < r2:
                                edges.append((i, j))
    return sorted(edges)
