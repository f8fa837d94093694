"""Maximum independent set back ends for square graphs.

Two solvers over a shared bitmask representation: an exact branch-and-bound,
which takes isolated and pendant vertices at every node, bounds with a greedy
clique cover and branches only on vertices the bound could not charge to the
incumbent, and an iterated (1,2)-swap local search.  The local search works
on whole masks: one pass over the solution builds the cover masks (vertices
with at least one and at least two solution neighbours), the 1-tight
vertices are those covered once, and a member's swap candidates are its
neighbourhood ANDed with them.
All randomness flows from a single seed; with a node budget instead of a wall
clock, runs are bit-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import compress
from random import Random

from .transform import SquareGraph


@dataclass(frozen=True)
class Deadline:
    """Cooperative stopping rule: a wall-clock budget and an optional node budget.

    The solvers read the clock at every branch-and-bound node or local-search
    iteration, so past their warm start they overrun ``seconds`` by at most
    one node or iteration.  The warm start (a greedy maximal set taken to a
    local optimum) never reads the clock and runs to completion however
    little budget is left; with none left at the call (``seconds <= 0``)
    both solvers skip it and return a first-fit maximal set, unproven,
    unless the square is empty: its empty answer is proven whatever the budget.
    ``max_nodes`` bounds the search in nodes for reproducible runs.
    """

    seconds: float
    max_nodes: int | None = None


@dataclass
class MisResult:
    vertices: frozenset[int]
    size: int
    proven_optimal: bool
    nodes_explored: int
    elapsed: float
    time_to_best: float


def _adjacency_masks(sq: SquareGraph) -> list[int]:
    masks = [0] * sq.n
    for v in range(sq.n):
        for w in sq.adjacency[v]:
            masks[v] |= 1 << w
    return masks


_BINARY_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask: int) -> list[int]:
    """Set bits of ``mask`` in ascending order.

    Reads the binary digits least significant first as 0/1 bytes and keeps
    their positions: a few C-level passes over the mask instead of a Python
    iteration per set bit.
    """
    digits = bin(mask)[:1:-1].encode().translate(_BINARY_DIGITS)
    return list(compress(range(len(digits)), digits))


def _mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(_bits(mask))


# -- construction and local search (shared by both solvers) -------------------


def _greedy_maximal(n: int, nb: list[int], rng: Random) -> int:
    """Maximal independent set by repeated minimum-residual-degree choice."""
    alive = (1 << n) - 1
    sol = 0
    while alive:
        best_d = n + 1
        ties: list[int] = []
        a = alive
        while a:
            low = a & -a
            a ^= low
            v = low.bit_length() - 1
            d = (nb[v] & alive).bit_count()
            if d < best_d:
                best_d = d
                ties = [v]
            elif d == best_d:
                ties.append(v)
        v = ties[0] if len(ties) == 1 else rng.choice(ties)
        sol |= 1 << v
        alive &= ~(nb[v] | (1 << v))
    return sol


def _first_fit(sq: SquareGraph, start: float) -> MisResult:
    """The answer with no budget left: a maximal independent set in ascending
    vertex order, in O(n + m), unproven and with no nodes explored."""
    blocked = [False] * sq.n
    chosen = []
    for v, row in enumerate(sq.adjacency):
        if not blocked[v]:
            chosen.append(v)
            for w in row:
                blocked[w] = True
    elapsed = time.perf_counter() - start
    return MisResult(frozenset(chosen), len(chosen), False, 0, elapsed, elapsed)


def _maximalize(n: int, nb: list[int], sol: int, rng: Random) -> int:
    """Add the vertices with no solution neighbour, in random order, while
    they stay free."""
    covered = sol
    for s in _bits(sol):
        covered |= nb[s]
    free = _bits(((1 << n) - 1) & ~covered)
    rng.shuffle(free)
    for v in free:
        if nb[v] & sol == 0:
            sol |= 1 << v
    return sol


def _swap_pass(nb: list[int], sol: int, rng: Random) -> tuple[int, bool]:
    """One (1,2)-swap attempt: trade a solution vertex for two of its 1-tight
    neighbors that are mutually non-adjacent.

    Members are tried in random order; for each, the first pair in ascending
    order is taken: the lowest candidate with a non-adjacent candidate above
    it, and the lowest such partner.
    """
    members = _bits(sol)
    c1 = c2 = 0
    for s in members:
        c2 |= c1 & nb[s]
        c1 |= nb[s]
    tight1 = c1 & ~c2 & ~sol
    rng.shuffle(members)
    for v in members:
        candidates = nb[v] & tight1
        while candidates:
            low1 = candidates & -candidates
            candidates ^= low1
            partners = candidates & ~nb[low1.bit_length() - 1]
            if partners:
                return (sol & ~(1 << v)) | low1 | (partners & -partners), True
    return sol, False


def _local_optimum(n: int, nb: list[int], sol: int, rng: Random) -> int:
    sol = _maximalize(n, nb, sol, rng)
    while True:
        sol, improved = _swap_pass(nb, sol, rng)
        if not improved:
            return sol
        sol = _maximalize(n, nb, sol, rng)


def heuristic_mis(sq: SquareGraph, deadline: Deadline, seed: int = 0) -> MisResult:
    """Iterated (1,2)-swap local search with perturbation restarts.

    Each local optimum alternates random maximalization with (1,2)-swaps.
    A swap pass finds the 1-tight vertices (exactly one solution neighbour)
    from two cover masks built in one pass over the solution, and a member's
    candidates with one AND, instead of testing each neighbour.  With
    ``deadline.max_nodes`` as the budget, a seeded run is bit-identical:
    same answer, iterations and accepted swaps.

    Always returns a maximal independent set; optimality is only claimed in
    the trivial edgeless case.  With no budget left at the call
    (``deadline.seconds <= 0``) that set is a first-fit one, unproven, as in
    ``exact_mis``; an empty square is proven first, whatever the budget.
    """
    start = time.perf_counter()
    n = sq.n
    if n == 0:
        return MisResult(frozenset(), 0, True, 0, time.perf_counter() - start, 0.0)
    if deadline.seconds <= 0:
        return _first_fit(sq, start)
    rng = Random(seed)
    nb = _adjacency_masks(sq)
    sol = _greedy_maximal(n, nb, rng)
    sol = _local_optimum(n, nb, sol, rng)
    best = sol
    best_size = best.bit_count()
    time_to_best = time.perf_counter() - start
    t_end = start + deadline.seconds
    full = (1 << n) - 1
    iters = 0
    while best_size < n:
        if deadline.max_nodes is not None and iters >= deadline.max_nodes:
            break
        if time.perf_counter() >= t_end:
            break
        iters += 1
        # Perturb: force one outside vertex in, then re-optimize.
        outside = _bits(full & ~sol)
        u = rng.choice(outside)
        sol = (sol & ~nb[u]) | (1 << u)
        sol = _local_optimum(n, nb, sol, rng)
        size = sol.bit_count()
        if size > best_size:
            best = sol
            best_size = size
            time_to_best = time.perf_counter() - start
    assert all(nb[v] & best == 0 for v in _mask_to_set(best))
    return MisResult(
        vertices=_mask_to_set(best),
        size=best_size,
        proven_optimal=best_size == n,
        nodes_explored=iters,
        elapsed=time.perf_counter() - start,
        time_to_best=time_to_best,
    )


# -- exact branch and bound ----------------------------------------------------


def _cover_ordered_masks(sq: SquareGraph) -> tuple[list[int], list[int], list[int]]:
    """Renumber the square's vertices in cover order, ``(degree, index)``
    ascending: ``order[r]`` is the vertex of rank ``r``, ``rank[v]`` the rank
    of vertex ``v``, and ``nb[r]`` the mask of rank ``r``'s neighbours' ranks."""
    adjacency = sq.adjacency
    order = sorted(range(sq.n), key=lambda v: (len(adjacency[v]), v))
    rank = [0] * sq.n
    for r, v in enumerate(order):
        rank[v] = r
    nb = []
    for v in order:
        mask = 0
        for w in adjacency[v]:
            mask |= 1 << rank[w]
        nb.append(mask)
    return order, rank, nb


def _clique_cover(alive: int, nb: list[int]) -> list[int]:
    """Greedy clique cover of the residual graph, as one member mask per
    clique; its length bounds the MIS.

    Each clique starts at the lowest alive vertex and takes, lowest first,
    every vertex adjacent to all members so far: on cover-ordered labels, the
    cliques of sequential first-fit over the cover order, built a class at a
    time (San Segundo et al., C&OR 38, 2011).
    """
    cliques: list[int] = []
    while alive:
        clique = alive & -alive
        cand = nb[clique.bit_length() - 1] & alive
        while cand:
            low = cand & -cand
            clique |= low
            cand &= nb[low.bit_length() - 1]
        alive ^= clique
        cliques.append(clique)
    return cliques


def exact_mis(sq: SquareGraph, deadline: Deadline, seed: int = 0) -> MisResult:
    """Branch and bound with include/exclude branches.

    Each node first includes isolated and pendant vertices to a fixed point,
    then covers the residual graph with greedy cliques and prunes when the
    chosen vertices plus the clique count cannot beat the incumbent.
    Otherwise it branches on a vertex outside the first ``best - size``
    cliques, the one with the most alive neighbours (lowest cover rank on
    ties), as MCS does (Tomita et al., WALCOM 2010).  The initial incumbent
    is one greedy maximal set taken to a (1,2)-swap local optimum, without
    the iterated search, on the square's own labels.  The search then runs on
    vertices renumbered once in cover order, ``(degree, index)`` ascending,
    so each clique of the cover is built a class at a time; the answer is
    mapped back.  ``nodes_explored`` counts the nodes that passed the clock
    and node-budget checks, so a node-budget abort reports exactly
    ``deadline.max_nodes``.  When the deadline expires the best solution
    found so far is returned unproven; with no budget left at the call
    (``deadline.seconds <= 0``) that is a first-fit maximal independent set,
    except on an empty square, which is proven whatever the budget.
    """
    start = time.perf_counter()
    n = sq.n
    if n == 0:
        return MisResult(frozenset(), 0, True, 0, time.perf_counter() - start, 0.0)
    if deadline.seconds <= 0:
        return _first_fit(sq, start)
    nb = _adjacency_masks(sq)
    rng = Random(seed)
    warm = _local_optimum(n, nb, _greedy_maximal(n, nb, rng), rng)
    best = warm.bit_count()
    time_to_best = time.perf_counter() - start

    # From here on, nb and every mask are in cover ranks.
    order, rank, nb = _cover_ordered_masks(sq)
    best_mask = 0
    for v in _bits(warm):
        best_mask |= 1 << rank[v]
    full = (1 << n) - 1
    t_end = start + deadline.seconds
    stack: list[tuple[int, int]] = [(full, 0)]
    nodes = 0
    aborted = False
    while stack:
        if time.perf_counter() >= t_end:
            aborted = True
            break
        if deadline.max_nodes is not None and nodes >= deadline.max_nodes:
            aborted = True
            break
        nodes += 1
        alive, chosen = stack.pop()

        while True:
            changed = False
            a = alive
            while a:
                low = a & -a
                a ^= low
                v = low.bit_length() - 1
                nv = nb[v] & alive
                d = nv.bit_count()
                if d == 0:
                    chosen |= low
                    alive ^= low
                    changed = True
                elif d == 1:
                    chosen |= low
                    alive &= ~(low | nv)
                    a &= alive
                    changed = True
            if not changed:
                break

        if alive == 0:
            size = chosen.bit_count()
            if size > best:
                best = size
                best_mask = chosen
                time_to_best = time.perf_counter() - start
            continue
        size = chosen.bit_count()
        cliques = _clique_cover(alive, nb)
        if size + len(cliques) <= best:
            continue
        # A clique holds at most one vertex of an independent set, so one
        # larger than best uses a vertex outside the first best - size cliques.
        a = 0
        for clique in cliques[max(best - size, 0):]:
            a |= clique
        branch_v, branch_d = -1, -1
        while a:
            low = a & -a
            a ^= low
            v = low.bit_length() - 1
            d = (nb[v] & alive).bit_count()
            if d > branch_d:
                branch_d = d
                branch_v = v
        bit = 1 << branch_v
        stack.append((alive & ~bit, chosen))
        stack.append((alive & ~(nb[branch_v] | bit), chosen | bit))

    ranks = _bits(best_mask)
    assert all(nb[r] & best_mask == 0 for r in ranks)
    return MisResult(
        vertices=frozenset(order[r] for r in ranks),
        size=best,
        proven_optimal=not aborted,
        nodes_explored=nodes,
        elapsed=time.perf_counter() - start,
        time_to_best=time_to_best,
    )
