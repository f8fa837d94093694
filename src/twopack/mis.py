"""Maximum independent set back ends for square graphs.

Two solvers over a shared bitmask representation: an exact branch-and-bound
and an iterated (1,2)-swap local search.  A branch-and-bound node is cover,
prune and branch: it covers the residual graph with greedy cliques, prunes
on that bound, and otherwise branches on the highest label outside the
first ``best - size`` cliques.  The local search is incremental: it
keeps, for every vertex, the count of its solution neighbours (free at 0,
1-tight at 1) and a stack of candidate members whose 1-tight neighbourhood
may hold a swap, so each move touches only the neighbourhoods it changes;
its perturbation picks the vertex to force in by rejection sampling.
Both start from one maximal set, built by first fit in ascending label
order and taken to a local optimum.  Both search in the square's own
labels, which ``square`` gives in cover order, ascending ``(degree,
original ID)``, and share the neighbour masks the square builds once
(``SquareGraph.masks``).
All randomness flows from a single seed; with a node budget instead of a wall
clock, runs are bit-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from itertools import compress
from random import Random

from .transform import SquareGraph


@dataclass(frozen=True)
class Deadline:
    """Cooperative stopping rule: a wall-clock budget and an optional node budget.

    The solvers read the clock at every branch-and-bound node or local-search
    iteration, so past their warm start (first fit in ascending label order,
    O(n + m), then one local optimum) they overrun ``seconds`` by at
    most one node or iteration.  ``heuristic_mis`` states what the warm
    start does and what a call with no budget left returns; ``exact_mis``
    starts from that answer, so both rules hold for both solvers.
    ``max_nodes`` bounds the search in nodes (local-search iterations) for
    reproducible runs.
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


# -- construction and local search ---------------------------------------------


def _first_fit(sq: SquareGraph) -> list[int]:
    """Maximal independent set by first fit in label order: each vertex, in
    ascending label, joins unless a neighbour already has.  On a square built
    by ``square`` that is ascending degree order.  O(n + m) and no
    randomness."""
    blocked = [False] * sq.n
    chosen = []
    for v in range(sq.n):
        if not blocked[v]:
            chosen.append(v)
            for w in sq.adjacency[v]:
                blocked[w] = True
    return chosen


def _move(
    adjacency: tuple[tuple[int, ...], ...], nb: list[int], sol: int, tight: list[int],
    out: list[int], into: list[int], stack: list[int],
) -> tuple[int, list[int]]:
    """Remove the members ``out``, then insert the vertices ``into``, which
    must be independent of each other and of the members that stay.

    ``tight[v]`` counts the solution neighbours of ``v`` and is updated on
    every insert and remove.  Every inserted vertex is pushed on ``stack``,
    and so is the one solution neighbour of every vertex whose count drops
    to 1: those are the members whose 1-tight neighbourhood may have gained a
    (1,2)-swap.  Returns the new solution and, ascending, the vertices the
    move left free (no solution neighbour), which only the removed members'
    neighbours can be.
    """
    # Pushed first, so popped last: the rest of the solution settles before
    # a swap may take an inserted vertex out again.
    stack.extend(into)
    freed = 0
    for r in out:
        sol ^= 1 << r
        for w in adjacency[r]:
            t = tight[w] - 1
            tight[w] = t
            if t == 0:
                freed |= 1 << w
            elif t == 1:
                stack.append((nb[w] & sol).bit_length() - 1)
    for v in into:
        sol |= 1 << v
        for w in adjacency[v]:
            tight[w] += 1
    free = []
    freed &= ~sol
    while freed:
        low = freed & -freed
        freed ^= low
        w = low.bit_length() - 1
        if not tight[w]:
            free.append(w)
    return sol, free


def _settle(
    adjacency: tuple[tuple[int, ...], ...], nb: list[int], sol: int, tight: list[int],
    free: list[int], stack: list[int], rng: Random,
) -> int:
    """Take ``sol`` to a local optimum: maximal, and with no (1,2)-swap.

    ``free`` must hold every vertex with no solution neighbour and
    ``stack`` every member whose 1-tight neighbourhood may hold a swap.  The
    free vertices are inserted in random order while they stay free.  Then
    members are popped until the stack is empty.  Each popped member's
    1-tight neighbours are gathered into a mask, and the first
    non-adjacent pair is taken: the lowest candidate with a non-adjacent
    candidate above it, and the lowest such partner.  A swap is a ``_move``,
    which pushes what it changes; the vertices it frees are inserted in
    random order before the next pop.
    """
    while True:
        rng.shuffle(free)
        for v in free:
            if not tight[v]:
                sol |= 1 << v
                for w in adjacency[v]:
                    tight[w] += 1
                stack.append(v)
        free = []
        while stack and not free:
            x = stack.pop()
            if not sol >> x & 1:
                continue
            candidates = 0
            for w in adjacency[x]:
                if tight[w] == 1:
                    candidates |= 1 << w
            while candidates:
                low1 = candidates & -candidates
                candidates ^= low1
                partners = candidates & ~nb[low1.bit_length() - 1]
                if partners:
                    u1 = low1.bit_length() - 1
                    u2 = (partners & -partners).bit_length() - 1
                    sol, free = _move(adjacency, nb, sol, tight, [x], [u1, u2], stack)
                    break
        if not free:
            return sol


def _perturb(
    adjacency: tuple[tuple[int, ...], ...], nb: list[int], sol: int, tight: list[int],
    stack: list[int], rng: Random,
) -> tuple[int, list[int]]:
    """Force a uniform outside vertex in, picked by rejection with
    ``rng.randrange``, removing its solution neighbours.  ``sol`` must leave
    some vertex outside.  Returns what ``_move`` returns."""
    n = len(tight)
    u = rng.randrange(n)
    while sol >> u & 1:
        u = rng.randrange(n)
    out = [w for w in adjacency[u] if sol >> w & 1]
    return _move(adjacency, nb, sol, tight, out, [u], stack)


def heuristic_mis(sq: SquareGraph, deadline: Deadline, seed: int = 0) -> MisResult:
    """Iterated (1,2)-swap local search with perturbation restarts
    (Andrade, Resende & Werneck, J. Heuristics 18, 2012).

    The search is incremental.  It keeps the solution mask and, for every
    vertex, the count of its solution neighbours, updated on each insert and
    remove: a vertex is free at count 0 and 1-tight at count 1.  A candidate
    stack holds the members whose 1-tight neighbourhood may hold a swap,
    namely every inserted vertex and the one solution neighbour of every
    vertex whose count drops to 1.  A local optimum pops the stack until it
    is empty, taking each swap it finds, and inserts in random order the
    vertices a move frees, which are only ever neighbours of the vertices it
    removed.  So a step touches only the neighbourhoods that changed.  One
    iteration forces in a uniform outside vertex, picked by rejection with
    ``rng.randrange``, removes its solution neighbours, and settles from
    what that changed; the search continues from the new local optimum,
    better or not.  With ``deadline.max_nodes`` as the budget, a seeded run
    is bit-identical: same answer, iterations and accepted swaps.

    Always returns a maximal independent set, proven optimal only when it
    meets a bound: the vertex count, or, computed just before the first
    iteration, the root clique cover of ``exact_mis``.  The search stops as
    soon as its best meets the bound, so a call that runs no iteration
    (``max_nodes=0`` or no time left) never builds the cover.  The warm
    start, first fit in ascending label order settled from all its
    members, never reads the clock and runs to completion however little
    budget is left.  After it the clock is read once per iteration, and
    once more for each new best.  With no budget left at the call
    (``deadline.seconds <= 0``) the answer is that first fit itself, with
    no local search, unproven; an empty square is proven first, whatever
    the budget.
    """
    start = time.perf_counter()
    n = sq.n
    if n == 0:
        return MisResult(frozenset(), 0, True, 0, time.perf_counter() - start, 0.0)
    chosen = _first_fit(sq)
    if deadline.seconds <= 0:
        elapsed = time.perf_counter() - start
        return MisResult(frozenset(chosen), len(chosen), False, 0, elapsed, elapsed)
    rng = Random(seed)
    adjacency = sq.adjacency
    nb = sq.masks
    tight = [0] * n
    stack: list[int] = []
    sol, free = _move(adjacency, nb, 0, tight, [], chosen, stack)
    sol = _settle(adjacency, nb, sol, tight, free, stack, rng)
    best = sol
    best_size = best.bit_count()
    time_to_best = time.perf_counter() - start
    t_end = start + deadline.seconds
    iters = 0
    bound = n
    while best_size < bound:
        if deadline.max_nodes is not None and iters >= deadline.max_nodes:
            break
        if time.perf_counter() >= t_end:
            break
        if iters == 0:
            # Only a run that would iterate pays for the root cover bound.
            bound = len(_clique_cover((1 << n) - 1, nb))
            if best_size >= bound:
                break
        iters += 1
        sol, free = _perturb(adjacency, nb, sol, tight, stack, rng)
        sol = _settle(adjacency, nb, sol, tight, free, stack, rng)
        size = sol.bit_count()
        if size > best_size:
            best = sol
            best_size = size
            time_to_best = time.perf_counter() - start
    assert all(nb[v] & best == 0 for v in _mask_to_set(best))
    return MisResult(
        vertices=_mask_to_set(best),
        size=best_size,
        proven_optimal=best_size == bound,
        nodes_explored=iters,
        elapsed=time.perf_counter() - start,
        time_to_best=time_to_best,
    )


# -- exact branch and bound ----------------------------------------------------


def _clique_cover(alive: int, nb: list[int]) -> list[int]:
    """Greedy clique cover of the residual graph, as one member mask per
    clique; its length bounds the MIS.

    Each clique starts at the lowest alive vertex and takes, lowest first,
    every vertex adjacent to all members so far: the cliques of sequential
    first-fit over ascending labels, built a class at a time (San Segundo et
    al., C&OR 38, 2011).  On a square built by ``square`` the labels are in
    cover order, ``(degree, original ID)`` ascending.
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

    A node is cover, prune and branch.  It covers the residual graph with
    greedy cliques and prunes when the chosen vertices plus the clique count
    cannot beat the incumbent.  Otherwise it branches on the highest label
    outside the first ``best - size`` cliques, as MCS branches outside the
    charged colour classes (Tomita et al., WALCOM 2010): a set larger than
    the incumbent takes a vertex there, so any of them is a complete branch,
    and on a square built by ``square`` the highest label among them has
    the highest degree in the square.  A node with nothing left alive is a leaf.

    The initial incumbent is the answer of ``heuristic_mis`` with no
    iterations (``max_nodes=0``): first fit in ascending label order taken
    to a local optimum, or that first fit alone when no budget is left; when
    that answer is proven (an empty or edgeless square) or no budget is
    left, it is returned as it is.  The search runs in the square's own
    labels, on the masks the warm start built; ``square`` numbers them in
    cover order, ``(degree, original ID)`` ascending, so each clique of the
    cover is built a class at a time.  ``nodes_explored`` counts the nodes
    that passed the clock and node-budget checks, so a node-budget abort
    reports exactly ``deadline.max_nodes``.  When the deadline expires the
    best solution found so far is returned unproven.
    """
    start = time.perf_counter()
    warm = heuristic_mis(sq, replace(deadline, max_nodes=0), seed)
    if warm.proven_optimal or deadline.seconds <= 0:
        return warm
    best = warm.size
    time_to_best = warm.time_to_best

    nb = sq.masks
    best_mask = 0
    for v in warm.vertices:
        best_mask |= 1 << v
    full = (1 << sq.n) - 1
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
        size = chosen.bit_count()
        if alive == 0:
            if size > best:
                best = size
                best_mask = chosen
                time_to_best = time.perf_counter() - start
            continue
        cliques = _clique_cover(alive, nb)
        if size + len(cliques) <= best:
            continue
        # A clique holds at most one vertex of an independent set, so one
        # larger than best uses a vertex outside the first best - size cliques:
        # branching on any of them, here the highest label, is complete.
        a = 0
        for clique in cliques[max(best - size, 0):]:
            a |= clique
        branch_v = a.bit_length() - 1
        bit = 1 << branch_v
        stack.append((alive & ~bit, chosen))
        stack.append((alive & ~(nb[branch_v] | bit), chosen | bit))

    answer = _bits(best_mask)
    assert all(nb[v] & best_mask == 0 for v in answer)
    return MisResult(
        vertices=frozenset(answer),
        size=best,
        proven_optimal=not aborted,
        nodes_explored=nodes,
        elapsed=time.perf_counter() - start,
        time_to_best=time_to_best,
    )
