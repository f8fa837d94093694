"""Exact and heuristic independent-set back ends."""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from functools import cached_property
from random import Random
from typing import Iterator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twopack.mis
from twopack import (
    Deadline,
    ReductionVariant,
    StaticGraph,
    TwoLevelGraph,
    exact_mis,
    heuristic_mis,
    reduce,
    square,
)
from twopack.oracle import brute_alpha
from twopack.transform import SquareGraph

from conftest import (
    complete_graph,
    cycle_graph,
    gnp_graph,
    path_graph,
    preferential_attachment,
    random_geometric,
)

LONG = Deadline(seconds=30.0)


def as_square(g: StaticGraph) -> SquareGraph:
    """Wrap a plain graph so the solvers treat its edges as the conflict graph."""
    return SquareGraph.from_adjacency(g.adjacency)


def assert_independent(sq: SquareGraph, vertices):
    adj = [set(sq.adjacency[v]) for v in range(sq.n)]
    for v in vertices:
        assert not adj[v] & set(vertices)


def assert_maximal(sq: SquareGraph, vertices):
    chosen = set(vertices)
    for v in range(sq.n):
        if v not in chosen:
            assert set(sq.adjacency[v]) & chosen, f"vertex {v} could be added"


def kernel_square(g: StaticGraph) -> SquareGraph:
    return square(reduce(g, ReductionVariant.ELABORATED).graph)


# name -> (square, max_nodes, (size, nodes_explored, sorted original IDs of
# the answer)) of exact_mis with seed 1, recorded with each node only covering,
# pruning and branching on the highest label past the first best - size
# cliques of the cover, with a node counted only once it passes the clock and
# budget checks, with the search in the square's own labels, which ``square``
# numbers in cover order, and with the warm start built by first fit in
# ascending degree order and settled by the incremental local search.  The two
# "abort" searches stop at the node budget; the others finish with a proof.
PINNED_SEARCHES = {
    "gnp-square": (
        lambda: square(TwoLevelGraph(gnp_graph(150, 0.025, 17))),
        2000,
        (39, 135, [10, 20, 21, 24, 26, 27, 28, 32, 35, 38, 44, 46, 60, 63, 64, 67, 69, 75,
                   87, 89, 91, 92, 95, 102, 104, 107, 108, 111, 112, 115, 116, 123, 125, 127,
                   128, 132, 135, 141, 143]),
    ),
    "gnp-square-abort": (
        lambda: square(TwoLevelGraph(gnp_graph(120, 0.035, 3))),
        150,
        (26, 150, [10, 11, 19, 26, 38, 43, 46, 49, 50, 58, 59, 60, 67, 69, 70, 71, 73, 79,
                   82, 95, 103, 105, 108, 115, 118, 119]),
    ),
    "gnp-kernel": (
        lambda: kernel_square(gnp_graph(100, 0.04, 9)),
        2000,
        (15, 5, [13, 14, 21, 22, 34, 40, 43, 47, 54, 58, 73, 74, 79, 84, 89]),
    ),
    "pa-kernel-60": (
        lambda: kernel_square(preferential_attachment(60, 3, 5)),
        2000,
        (8, 17, [35, 38, 41, 44, 45, 48, 50, 59]),
    ),
    "pa-kernel-90": (
        lambda: kernel_square(preferential_attachment(90, 3, 1)),
        2000,
        (11, 181, [49, 60, 67, 68, 69, 73, 78, 82, 86, 87, 89]),
    ),
    "pa-kernel-150-abort": (
        lambda: kernel_square(preferential_attachment(150, 3, 2)),
        20,
        (20, 20, [30, 85, 87, 93, 107, 109, 110, 113, 120, 121, 128, 130, 133, 134, 136,
                  139, 143, 147, 148, 149]),
    ),
}


# name -> (square, max_nodes, (size, nodes_explored, sorted original IDs of
# the answer), SHA-1 of the (before, after) masks of every accepted swap, as
# ``recorded_swaps`` lists them) of heuristic_mis with seed 1, recorded with
# the incremental local search (solution-neighbour counts, a candidate stack
# and perturbation by rejection sampling) in the square's own labels, which
# ``square`` numbers in cover order, and the warm start built by first fit in
# ascending degree order.
PINNED_ILS = {
    "gnp-square": (
        lambda: square(TwoLevelGraph(gnp_graph(150, 0.025, 17))),
        60,
        (39, 60, [10, 14, 18, 20, 21, 23, 26, 27, 28, 30, 31, 35, 38, 44, 46, 53, 63, 64,
                  67, 69, 75, 83, 87, 89, 91, 102, 104, 107, 108, 111, 112, 116, 123, 125,
                  128, 132, 135, 141, 143]),
        "9581525c1cbf3271c7c37db3f1daef6e017860bd",
    ),
    "gnp-square-dense": (
        lambda: square(TwoLevelGraph(gnp_graph(120, 0.05, 3))),
        60,
        (20, 60, [3, 6, 10, 22, 38, 49, 50, 57, 59, 60, 69, 80, 81, 82, 84, 95, 103, 112,
                  117, 118]),
        "b73048a98d2d71c0dafcef3d3490e34d967ddea8",
    ),
    "gnp-kernel": (
        lambda: kernel_square(gnp_graph(200, 0.03, 9)),
        60,
        (27, 60, [6, 10, 15, 25, 29, 32, 57, 58, 74, 77, 78, 86, 88, 90, 96, 102, 108,
                  126, 133, 138, 141, 145, 160, 161, 180, 181, 194]),
        "757f3f4dd61cb23fa0e1834d1f9c9d7769a7e63b",
    ),
    "pa-kernel-90": (
        lambda: kernel_square(preferential_attachment(90, 3, 1)),
        60,
        (11, 60, [49, 60, 67, 68, 69, 73, 78, 82, 86, 87, 89]),
        "57218a59b7a3b9380a6d66bb0c0d728a28231881",
    ),
    "pa-kernel-150": (
        lambda: kernel_square(preferential_attachment(150, 3, 2)),
        60,
        (21, 60, [57, 64, 85, 89, 94, 107, 109, 110, 113, 114, 119, 120, 121, 128, 129,
                  130, 135, 136, 139, 147, 149]),
        "6a0f48fe6302594c742e69228ae0a49853265441",
    ),
    "geometric-kernel": (
        lambda: kernel_square(random_geometric(500, 0.08, 11)),
        60,
        (39, 60, [13, 17, 18, 27, 31, 34, 39, 41, 44, 66, 74, 88, 91, 98, 100, 115, 145,
                  147, 167, 169, 187, 191, 193, 204, 206, 223, 257, 283, 291, 292, 294,
                  307, 314, 320, 321, 324, 371, 425, 451]),
        "ce00dd56606dba4f8d4cc2f1a3a4b15c0d5c512a",
    ),
}


@contextmanager
def recorded_swaps() -> Iterator[list[tuple[int, int]]]:
    """Record the (before, after) masks of every (1,2)-swap, the ``_move``
    that takes one member out and two vertices in, while the block runs, in
    order."""
    move = twopack.mis._move
    swaps: list[tuple[int, int]] = []

    def recording(adjacency, nb, sol, tight, out, into, stack):
        moved = move(adjacency, nb, sol, tight, out, into, stack)
        if len(out) == 1 and len(into) == 2:
            swaps.append((sol, moved[0]))
        return moved

    twopack.mis._move = recording
    try:
        yield swaps
    finally:
        twopack.mis._move = move


# -- the incremental local search against brute force ----------------------------


def has_swap(n: int, nb: list[int], sol: int) -> bool:
    """Brute force: some member has two non-adjacent neighbours whose only
    solution neighbour it is."""
    for x in range(n):
        if not sol >> x & 1:
            continue
        tight1 = [w for w in range(n) if nb[x] >> w & 1 and nb[w] & sol == 1 << x]
        for i, u1 in enumerate(tight1):
            for u2 in tight1[i + 1 :]:
                if not nb[u1] >> u2 & 1:
                    return True
    return False


def free_vertices(n: int, nb: list[int], sol: int) -> list[int]:
    return [v for v in range(n) if not sol >> v & 1 and nb[v] & sol == 0]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 40),
    st.sampled_from([0.03, 0.06, 0.1, 0.2]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.sampled_from([0.0, 0.1, 0.3, 0.6]),
    st.integers(0, 6),
)
def test_settle_reaches_a_swap_free_local_optimum(n, p, seed, pick_seed, density, rounds):
    """From a random independent set, and after each random perturbation,
    the settled set is independent, maximal and has no (1,2)-swap that brute
    force finds; the solution-neighbour counts equal a recount, a
    perturbation returns exactly the vertices it left free, and a run from
    the same seed leaves the generator in the same state."""
    sq = square(TwoLevelGraph(gnp_graph(n, p, seed)))
    adjacency, nb = sq.adjacency, sq.masks
    picker = Random(pick_seed)
    start: list[int] = []
    for v in range(n):
        if picker.random() < density and not any(nb[v] >> u & 1 for u in start):
            start.append(v)

    def run() -> tuple[list[int], tuple]:
        rng = Random(pick_seed)
        tight = [0] * n
        stack: list[int] = []
        sol, _ = twopack.mis._move(adjacency, nb, 0, tight, [], start, stack)
        free = free_vertices(n, nb, sol)
        settled = []
        for r in range(rounds + 1):
            if r:
                if sol == (1 << n) - 1:
                    break
                sol, free = twopack.mis._perturb(adjacency, nb, sol, tight, stack, rng)
                assert free == free_vertices(n, nb, sol)
            sol = twopack.mis._settle(adjacency, nb, sol, tight, free, stack, rng)
            assert not stack
            assert tight == [(nb[v] & sol).bit_count() for v in range(n)]
            assert all(nb[v] & sol == 0 for v in range(n) if sol >> v & 1)
            assert free_vertices(n, nb, sol) == []
            assert not has_swap(n, nb, sol)
            settled.append(sol)
        return settled, rng.getstate()

    assert run() == run()


@settings(max_examples=100, deadline=None)
@example(0, 0.3, 0)
@example(12, 0.0, 0)
@given(st.integers(0, 40), st.sampled_from([0.0, 0.05, 0.15, 0.4]), st.integers(0, 10**6))
def test_mask_builders_match_bitwise_reference(n, p, seed):
    """The square's masks equal masks ORed together one bit at a time, on the
    empty square and with isolated vertices too."""
    sq = as_square(gnp_graph(n, p, seed))
    want = [0] * n
    for v in range(n):
        for w in sq.adjacency[v]:
            want[v] |= 1 << w
    assert sq.masks == want


# -- reference clique cover ----------------------------------------------------


def reference_clique_cover(alive: int, nb: list[int], order: list[int]) -> list[int]:
    """Reference _clique_cover: sequential first-fit over ``order`` on the
    square's own labels, each vertex joining the first clique whose common
    neighbourhood holds it."""
    commons: list[int] = []
    cliques: list[int] = []
    for v in order:
        bit = 1 << v
        if not alive & bit:
            continue
        nv = nb[v] & alive
        for i, common in enumerate(commons):
            if common & bit:
                commons[i] = common & nv
                cliques[i] |= bit
                break
        else:
            commons.append(nv)
            cliques.append(bit)
    return cliques


def mask_of(vertices) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 40),
    st.sampled_from([0.02, 0.05, 0.1, 0.2, 0.4]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.sampled_from([0.3, 0.7, 1.0]),
)
def test_clique_cover_matches_sequential_first_fit(n, p, seed, alive_seed, density):
    """On a square built by ``square``, the class-at-a-time cover is the
    sequential first-fit cover over the cover order, ``(degree, label)``
    ascending, clique for clique; each is a clique and together they
    partition the alive vertices."""
    sq = square(TwoLevelGraph(gnp_graph(n, p, seed)))
    nb = sq.masks
    bits = twopack.mis._bits
    order = sorted(range(n), key=lambda v: (nb[v].bit_count(), v))
    picker = Random(alive_seed)
    alive = mask_of(v for v in range(n) if picker.random() < density)
    cliques = twopack.mis._clique_cover(alive, nb)
    assert cliques == reference_clique_cover(alive, nb, order)
    covered = 0
    for clique in cliques:
        assert clique and not clique & covered
        covered |= clique
        assert all(clique & ~nb[v] == 1 << v for v in bits(clique))
    assert covered == alive


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 30),
    st.sampled_from([0.1, 0.2, 0.3]),
    st.integers(0, 10**6),
    st.sampled_from([None, 1, 2, 3, 4, 5]),
    st.booleans(),
)
def test_exact_answer_is_in_square_labels(n, p, seed, max_nodes, squared):
    """Proven or stopped by a node budget, the answer is checked on
    ``sq.adjacency`` in the square's own labels: independent, and maximal
    unless the search beat the maximal warm start; a proven size is the
    oracle's wherever the oracle reaches."""
    g = gnp_graph(n, p, seed)
    sq = square(TwoLevelGraph(g)) if squared else as_square(g)
    res = exact_mis(sq, Deadline(seconds=30.0, max_nodes=max_nodes), seed=seed)
    assert res.vertices <= set(range(sq.n))
    assert res.size == len(res.vertices)
    assert_independent(sq, res.vertices)
    warm = heuristic_mis(sq, Deadline(seconds=30.0, max_nodes=0), seed=seed)
    if res.size == warm.size:
        assert_maximal(sq, res.vertices)
    else:
        assert res.size > warm.size
    if not res.proven_optimal:
        assert res.nodes_explored == max_nodes
    elif sq.n <= 20:
        assert res.size == brute_alpha(sq)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 40),
    st.sampled_from([0.0, 0.1, 0.2, 0.4]),
    st.integers(0, 10**6),
    st.booleans(),
)
def test_exact_warm_start_is_the_local_search_first_optimum(n, p, seed, squared):
    """With no nodes to spend, exact mode answers with the incumbent it
    branches from: the local search's answer before its first iteration."""
    g = gnp_graph(n, p, seed)
    sq = square(TwoLevelGraph(g)) if squared else as_square(g)
    budget = Deadline(seconds=30.0, max_nodes=0)
    assert exact_mis(sq, budget, seed=seed).vertices == heuristic_mis(sq, budget, seed=seed).vertices


# -- first fit: the warm start and the spent-budget answer -----------------------


def reference_first_fit(sq: SquareGraph) -> list[int]:
    """Reference _first_fit: sort by ``(degree, index)``, then add each vertex
    that has no chosen neighbour yet."""
    chosen: list[int] = []
    for v in sorted(range(sq.n), key=lambda v: (len(sq.adjacency[v]), v)):
        if not set(sq.adjacency[v]) & set(chosen):
            chosen.append(v)
    return chosen


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 40),
    st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.2, 0.4]),
    st.integers(0, 10**6),
)
def test_first_fit_matches_reference(n, p, seed):
    """On a square built by ``square``, first fit in label order is first
    fit in ascending ``(degree, label)`` order."""
    sq = square(TwoLevelGraph(gnp_graph(n, p, seed)))
    chosen = twopack.mis._first_fit(sq)
    assert chosen == reference_first_fit(sq)
    assert_independent(sq, chosen)
    assert_maximal(sq, chosen)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 40),
    st.sampled_from([0.0, 0.1, 0.2, 0.4]),
    st.integers(0, 10**6),
    st.booleans(),
    st.integers(0, 10**6),
)
def test_spent_budget_answer_is_first_fit(n, p, graph_seed, squared, seed):
    """With no budget left, both back ends return the first fit itself,
    unproven and with no nodes, whatever the seed."""
    g = gnp_graph(n, p, graph_seed)
    sq = square(TwoLevelGraph(g)) if squared else as_square(g)
    want = frozenset(twopack.mis._first_fit(sq))
    for solver in (exact_mis, heuristic_mis):
        res = solver(sq, Deadline(seconds=0.0), seed=seed)
        assert (res.vertices, res.size, res.proven_optimal, res.nodes_explored) == (
            want, len(want), False, 0
        )


@pytest.mark.parametrize("solver", [exact_mis, heuristic_mis])
def test_spent_budget_answer_size_is_pinned(solver):
    """On a hub-heavy kernel square (optimum 21), ascending degree order keeps
    19 vertices where ascending ID order would keep 9."""
    sq = kernel_square(preferential_attachment(150, 3, 2))
    assert solver(sq, Deadline(seconds=0.0), seed=1).size == 19


@pytest.mark.parametrize("solver", [exact_mis, heuristic_mis])
@pytest.mark.parametrize("seconds", [0.0, -1.0])
def test_empty_square_is_proven_without_budget(solver, seconds):
    res = solver(as_square(StaticGraph.from_edges(0, [])), Deadline(seconds=seconds))
    assert (res.vertices, res.size, res.proven_optimal, res.nodes_explored) == (frozenset(), 0, True, 0)


@pytest.fixture
def mask_builds(monkeypatch) -> list[int]:
    """Count the builds of ``SquareGraph.masks``: the size of each square
    whose masks were built, in order."""
    build = SquareGraph.masks.func
    builds: list[int] = []

    def counting(sq: SquareGraph) -> list[int]:
        builds.append(sq.n)
        return build(sq)

    masks = cached_property(counting)
    masks.__set_name__(SquareGraph, "masks")
    monkeypatch.setattr(SquareGraph, "masks", masks)
    return builds


def test_masks_built_once_per_solve(mask_builds):
    """The warm start, the root cover bound, the local search and the B&B
    share one build of the square's masks; a call with no budget left
    builds none."""
    make = PINNED_SEARCHES["gnp-kernel"][0]
    exact_mis(make(), LONG, seed=1)
    assert len(mask_builds) == 1
    heuristic_mis(make(), Deadline(seconds=30.0, max_nodes=5), seed=1)
    assert len(mask_builds) == 2
    for seconds in (0.0, -1.0):
        for solver in (exact_mis, heuristic_mis):
            solver(make(), Deadline(seconds=seconds), seed=1)
    assert len(mask_builds) == 2


@pytest.fixture
def step_clock(monkeypatch) -> list[float]:
    """A clock for ``twopack.mis`` that advances one second per reading;
    the readings so far, in order."""
    readings: list[float] = []

    class StepClock:
        @staticmethod
        def perf_counter() -> float:
            readings.append(float(len(readings)))
            return readings[-1]

    monkeypatch.setattr(twopack.mis, "time", StepClock)
    return readings


class TestExact:
    def test_k3(self):
        res = exact_mis(as_square(complete_graph(3)), LONG)
        assert res.size == 1 and res.proven_optimal

    def test_square_p5(self):
        sq = square(TwoLevelGraph(path_graph(5)))
        res = exact_mis(sq, LONG)
        assert res.size == 2 and res.proven_optimal
        assert sq.original_ids(res.vertices) in ({0, 3}, {0, 4}, {1, 4})

    def test_square_c9(self):
        res = exact_mis(square(TwoLevelGraph(cycle_graph(9))), LONG)
        assert res.size == 3 and res.proven_optimal

    def test_empty_graph(self):
        res = exact_mis(as_square(StaticGraph.from_edges(0, [])), LONG)
        assert res.size == 0 and res.proven_optimal

    def test_nonpositive_deadline_returns_maximal_unproven(self):
        sq = square(TwoLevelGraph(gnp_graph(40, 0.08, 3)))
        for seconds in (0.0, -1.0):
            res = exact_mis(sq, Deadline(seconds=seconds))
            assert not res.proven_optimal and res.nodes_explored == 0
            assert res.size == len(res.vertices) > 0
            assert_independent(sq, res.vertices)
            assert_maximal(sq, res.vertices)

    def test_node_budget_abort_keeps_incumbent_valid(self):
        # needs a few hundred nodes to prove, so a 5-node budget must abort
        sq = as_square(gnp_graph(60, 0.2, 0))
        res = exact_mis(sq, Deadline(seconds=30.0, max_nodes=5))
        assert not res.proven_optimal
        assert_independent(sq, res.vertices)
        assert res.size == len(res.vertices) >= 1
        full = exact_mis(sq, Deadline(seconds=30.0))
        assert full.proven_optimal
        assert res.size <= full.size == 16

    @pytest.mark.parametrize("max_nodes", [0, 5, 20])
    def test_node_budget_abort_counts_budget(self, max_nodes):
        """An abort reports exactly the nodes the budget allowed, as
        heuristic_mis reports its iterations: the stopping node is not one."""
        sq = as_square(gnp_graph(60, 0.2, 0))
        res = exact_mis(sq, Deadline(seconds=30.0, max_nodes=max_nodes))
        assert not res.proven_optimal
        assert res.nodes_explored == max_nodes

    def test_deadline_checked_at_every_node(self, step_clock):
        """Under a clock that advances one second per reading, the search
        stops at the first node whose clock reading reaches the deadline."""
        readings = step_clock
        # needs a few hundred nodes to prove, so the 40 s deadline must stop it
        res = exact_mis(as_square(gnp_graph(60, 0.2, 0)), Deadline(seconds=40.0))
        assert not res.proven_optimal
        # Readings: start, warm-start time to best, one per node (plus one per
        # new incumbent), then the elapsed time.  The node that read 40.0 is
        # the one that stopped the search.
        assert readings[-2] == 40.0
        assert res.elapsed == readings[-1]
        assert 0 < res.nodes_explored <= 39

    def test_time_to_best_within_elapsed(self):
        res = exact_mis(as_square(gnp_graph(12, 0.4, 3)), LONG)
        assert 0.0 <= res.time_to_best <= res.elapsed

    @settings(max_examples=70, deadline=None)
    @given(st.integers(1, 16), st.sampled_from([0.1, 0.25, 0.5, 0.8]), st.integers(0, 10**6))
    def test_matches_brute_force(self, n, p, seed):
        g = gnp_graph(n, p, seed)
        sq = as_square(g)
        res = exact_mis(sq, LONG)
        assert res.proven_optimal
        assert res.size == brute_alpha(g)
        assert_independent(sq, res.vertices)

    def test_deterministic_with_node_budget(self):
        sq = square(TwoLevelGraph(gnp_graph(13, 0.3, 11)))
        a = exact_mis(sq, Deadline(seconds=60.0, max_nodes=50), seed=4)
        b = exact_mis(sq, Deadline(seconds=60.0, max_nodes=50), seed=4)
        assert a.vertices == b.vertices and a.size == b.size
        assert a.nodes_explored == b.nodes_explored

    def test_nodes_to_proof_are_pinned(self):
        """Kernel sizes and total nodes to proof over ten sparse kernels."""
        results = [
            exact_mis(kernel_square(gnp_graph(80, 0.076, s)), LONG, seed=1) for s in range(10)
        ]
        assert all(res.proven_optimal for res in results)
        assert [res.size for res in results] == [11, 9, 13, 11, 10, 11, 11, 10, 12, 10]
        assert sum(res.nodes_explored for res in results) == 658

    @pytest.mark.parametrize("name", sorted(PINNED_SEARCHES))
    def test_search_is_pinned(self, name):
        """Size, nodes and answer under a node budget are those of the
        reference build: the search covers with the same cliques, prunes
        the same nodes and branches on the same vertices, in the same
        order."""
        make, max_nodes, pinned = PINNED_SEARCHES[name]
        sq = make()
        res = exact_mis(sq, Deadline(seconds=600.0, max_nodes=max_nodes), seed=1)
        assert (res.size, res.nodes_explored, sorted(sq.original_ids(res.vertices))) == pinned


class TestHeuristic:
    def test_empty_graph_proven(self):
        res = heuristic_mis(as_square(StaticGraph.from_edges(0, [])), LONG)
        assert res.size == 0 and res.proven_optimal

    def test_edgeless_graph_proven(self):
        res = heuristic_mis(as_square(StaticGraph.from_edges(4, [])), LONG)
        assert res.size == 4 and res.proven_optimal

    def test_nonpositive_deadline_returns_maximal_unproven(self, monkeypatch):
        def no_local_search(*args):
            raise AssertionError("local search run with no budget left")

        monkeypatch.setattr(twopack.mis, "_settle", no_local_search)
        sq = square(TwoLevelGraph(gnp_graph(40, 0.08, 3)))
        for seconds in (0.0, -1.0):
            res = heuristic_mis(sq, Deadline(seconds=seconds))
            assert not res.proven_optimal and res.nodes_explored == 0
            assert res.size == len(res.vertices) > 0
            assert_independent(sq, res.vertices)
            assert_maximal(sq, res.vertices)

    def test_deadline_checked_at_every_iteration(self, step_clock):
        """Under a clock that advances one second per reading, the search
        reads it once per iteration after its warm start, and once more per
        new best, and stops at the first reading that reaches the deadline."""
        readings = step_clock
        sq = as_square(gnp_graph(60, 0.2, 0))
        warm = heuristic_mis(sq, Deadline(seconds=40.0, max_nodes=0))
        readings.clear()
        # Its optimum, 16, is below the root cover bound, so no proof stops it.
        res = heuristic_mis(sq, Deadline(seconds=40.0))
        assert not res.proven_optimal
        # Readings: start, warm-start time to best, one per iteration (plus
        # one per new best), then the elapsed time.  The reading 40.0 is the
        # check that stopped the search; 38 readings came between.
        assert readings[-2] == 40.0
        assert res.elapsed == readings[-1]
        assert res.time_to_best in readings
        new_bests = res.size - warm.size
        assert 38 - new_bests <= res.nodes_explored <= 38

    def test_square_c6_finds_antipodal_pair(self):
        sq = square(TwoLevelGraph(cycle_graph(6)))
        res = heuristic_mis(sq, Deadline(2.0))
        assert res.size == 2
        assert not res.proven_optimal or res.size == exact_mis(sq, LONG).size

    def test_proof_only_at_the_optimum(self):
        """A proof is claimed only when the answer is a maximum independent
        set.  One to three iterations leave some answers below the optimum."""
        rng = Random(1)
        proven = 0
        for _ in range(200):
            n, p, seed = rng.randint(10, 50), rng.choice([0.05, 0.08, 0.12]), rng.randrange(10**6)
            sq = square(TwoLevelGraph(gnp_graph(n, p, seed)))
            res = heuristic_mis(sq, Deadline(30.0, max_nodes=rng.randint(1, 3)), seed=seed)
            exact = exact_mis(sq, LONG)
            assert exact.proven_optimal and res.size <= exact.size
            assert not res.proven_optimal or res.size == exact.size
            proven += res.proven_optimal
        assert proven > 0

    def test_always_maximal_and_independent(self):
        for seed in range(12):
            g = gnp_graph(11, 0.25, 900 + seed)
            sq = square(TwoLevelGraph(g))
            res = heuristic_mis(sq, Deadline(seconds=5.0, max_nodes=30), seed=seed)
            assert_independent(sq, res.vertices)
            assert_maximal(sq, res.vertices)

    def test_never_beats_exact_and_mostly_matches(self):
        matches = 0
        trials = 50
        for seed in range(trials):
            g = gnp_graph(12, 0.3, 3000 + seed)
            sq = square(TwoLevelGraph(g))
            heur = heuristic_mis(sq, Deadline(seconds=5.0, max_nodes=60), seed=0)
            exact = exact_mis(sq, LONG)
            assert heur.size <= exact.size
            matches += heur.size == exact.size
        rate = matches / trials
        print(f"heuristic equality rate over {trials} squares: {rate:.2f}")
        assert rate >= 0.9

    def test_deterministic_with_node_budget(self):
        sq = square(TwoLevelGraph(gnp_graph(13, 0.35, 77)))
        a = heuristic_mis(sq, Deadline(seconds=60.0, max_nodes=40), seed=9)
        b = heuristic_mis(sq, Deadline(seconds=60.0, max_nodes=40), seed=9)
        assert a.vertices == b.vertices

    def test_swaps_gain_exactly_one_and_stay_independent(self):
        # Below the root cover bound, so the local search runs its iterations.
        g = gnp_graph(40, 0.1, 123)
        sq = square(TwoLevelGraph(g))
        adj = [set(sq.adjacency[v]) for v in range(sq.n)]
        with recorded_swaps() as swaps:
            heuristic_mis(sq, Deadline(seconds=2.0, max_nodes=25), seed=1)
        assert swaps
        for before, after in swaps:
            assert after.bit_count() == before.bit_count() + 1
            chosen = {v for v in range(sq.n) if after >> v & 1}
            for v in chosen:
                assert not adj[v] & chosen

    @pytest.mark.parametrize("name", sorted(PINNED_ILS))
    def test_search_is_pinned(self, name):
        """Answer, iterations and every accepted swap under a node budget are
        those of the reference build: the local search follows the same
        trajectory, drawing the same random numbers."""
        make, max_nodes, pinned, digest = PINNED_ILS[name]
        sq = make()
        with recorded_swaps() as swaps:
            res = heuristic_mis(sq, Deadline(seconds=600.0, max_nodes=max_nodes), seed=1)
        assert (res.size, res.nodes_explored, sorted(sq.original_ids(res.vertices))) == pinned
        assert hashlib.sha1(repr(swaps).encode()).hexdigest() == digest
