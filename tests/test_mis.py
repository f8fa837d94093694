"""Exact and heuristic independent-set back ends."""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from random import Random
from typing import Iterator

import pytest
from hypothesis import given, settings
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


# name -> (square, max_nodes, (size, nodes_explored, sorted vertices)) of
# exact_mis with seed 1, recorded with branching restricted to the cliques past
# the first best - size of the cover, with a node counted only once it passes
# the clock and budget checks, and with the search on cover-ordered labels and
# no in-node domination pass.  The two "abort" searches stop at the node
# budget; the others finish with a proof.
PINNED_SEARCHES = {
    "gnp-square": (
        lambda: square(TwoLevelGraph(gnp_graph(150, 0.025, 17))),
        2000,
        (39, 81, [10, 14, 15, 18, 20, 21, 23, 26, 27, 28, 30, 35, 44, 53, 63, 64, 65, 67,
                  68, 69, 75, 83, 87, 89, 91, 102, 107, 111, 112, 115, 116, 122, 123, 125,
                  128, 135, 141, 143, 147]),
    ),
    "gnp-square-abort": (
        lambda: square(TwoLevelGraph(gnp_graph(120, 0.035, 3))),
        150,
        (25, 150, [3, 8, 10, 31, 32, 37, 38, 43, 46, 49, 50, 54, 58, 59, 63, 67, 69, 81,
                   86, 95, 101, 103, 105, 117, 118]),
    ),
    "gnp-kernel": (
        lambda: kernel_square(gnp_graph(100, 0.04, 9)),
        2000,
        (15, 5, [2, 3, 5, 6, 10, 11, 15, 17, 21, 26, 33, 36, 37, 48, 52]),
    ),
    "pa-kernel-60": (
        lambda: kernel_square(preferential_attachment(60, 3, 5)),
        2000,
        (8, 17, [12, 22, 25, 29, 32, 33, 34, 42]),
    ),
    "pa-kernel-90": (
        lambda: kernel_square(preferential_attachment(90, 3, 1)),
        2000,
        (11, 173, [1, 11, 13, 23, 38, 45, 50, 55, 63, 64, 66]),
    ),
    "pa-kernel-150-abort": (
        lambda: kernel_square(preferential_attachment(150, 3, 2)),
        20,
        (20, 20, [20, 32, 49, 76, 96, 98, 99, 100, 102, 103, 109, 110, 111, 117, 119, 120,
                  125, 136, 137, 138]),
    ),
}


# name -> (square, max_nodes, (size, nodes_explored, sorted vertices), SHA-1 of
# the (before, after) masks of every accepted swap, as ``recorded_swaps``
# lists them) of heuristic_mis with seed 1, recorded with the local search
# that rescanned every member's neighbours.
PINNED_ILS = {
    "gnp-square": (
        lambda: square(TwoLevelGraph(gnp_graph(150, 0.025, 17))),
        60,
        (39, 60, [4, 10, 15, 16, 18, 21, 26, 27, 28, 32, 35, 44, 53, 63, 64, 67, 69, 75, 77,
                  80, 83, 84, 87, 89, 91, 104, 107, 111, 112, 115, 116, 123, 125, 128, 132,
                  135, 141, 143, 147]),
        "4402934119276168696d8a116832e68480239b47",
    ),
    "gnp-square-dense": (
        lambda: square(TwoLevelGraph(gnp_graph(120, 0.05, 3))),
        60,
        (20, 60, [3, 6, 10, 22, 49, 50, 59, 69, 80, 81, 82, 84, 86, 95, 103, 105, 110, 112,
                  117, 118]),
        "8ec09aa228fbb8340478d4981db79d1c19ebd2f1",
    ),
    "gnp-kernel": (
        lambda: kernel_square(gnp_graph(200, 0.03, 9)),
        60,
        (27, 60, [2, 10, 25, 28, 34, 41, 46, 51, 53, 65, 69, 71, 78, 90, 93, 105, 120, 121,
                  125, 128, 132, 136, 144, 145, 154, 163, 175]),
        "38bf7b09b4fb541ba79dda4f1615d9116cdd70c1",
    ),
    "pa-kernel-90": (
        lambda: kernel_square(preferential_attachment(90, 3, 1)),
        60,
        (11, 60, [1, 11, 13, 23, 38, 45, 50, 55, 63, 64, 66]),
        "ed5c516d312b52b151e23dd93f3dce23bd82bfd9",
    ),
    "pa-kernel-150": (
        lambda: kernel_square(preferential_attachment(150, 3, 2)),
        60,
        (20, 60, [20, 32, 49, 76, 96, 98, 99, 100, 102, 103, 109, 110, 111, 117, 119, 120,
                  125, 136, 137, 138]),
        "e9dbcae66d6d515b8079c75b007e4dba7aafd661",
    ),
    "geometric-kernel": (
        lambda: kernel_square(random_geometric(500, 0.08, 11)),
        60,
        (39, 60, [3, 7, 8, 9, 13, 14, 15, 30, 31, 32, 37, 41, 42, 44, 61, 65, 67, 68, 72, 73,
                  77, 78, 82, 98, 101, 102, 103, 104, 105, 113, 118, 124, 130, 134, 138, 146,
                  148, 151, 163]),
        "1290d4fb6e4cd32f855c132b8d0e75e39ca64dd0",
    ),
}


@contextmanager
def recorded_swaps() -> Iterator[list[tuple[int, int]]]:
    """Record the (before, after) masks of every swap ``_swap_pass`` makes
    while the block runs, in order."""
    swap_pass = twopack.mis._swap_pass
    swaps: list[tuple[int, int]] = []

    def recording(nb: list[int], sol: int, rng: Random) -> tuple[int, bool]:
        swapped, improved = swap_pass(nb, sol, rng)
        if improved:
            swaps.append((sol, swapped))
        return swapped, improved

    twopack.mis._swap_pass = recording
    try:
        yield swaps
    finally:
        twopack.mis._swap_pass = swap_pass


# -- reference local search ------------------------------------------------------


def reference_maximalize(n: int, nb: list[int], sol: int, rng: Random) -> int:
    """Reference _maximalize: free vertices found by testing every vertex."""
    free = [v for v in range(n) if not sol >> v & 1 and nb[v] & sol == 0]
    rng.shuffle(free)
    for v in free:
        if nb[v] & sol == 0:
            sol |= 1 << v
    return sol


def reference_swap_pass(n: int, nb: list[int], sol: int, rng: Random) -> tuple[int, bool]:
    """Reference _swap_pass: each member's 1-tight neighbours found one by one."""
    members = [v for v in range(n) if sol >> v & 1]
    rng.shuffle(members)
    for v in members:
        bit_v = 1 << v
        candidates = []
        others = nb[v]
        while others:
            low = others & -others
            others ^= low
            u = low.bit_length() - 1
            if not sol >> u & 1 and nb[u] & sol == bit_v:
                candidates.append(u)
        for i, u1 in enumerate(candidates):
            for u2 in candidates[i + 1 :]:
                if not nb[u1] >> u2 & 1:
                    return (sol & ~bit_v) | (1 << u1) | (1 << u2), True
    return sol, False


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 40),
    st.sampled_from([0.08, 0.15, 0.3, 0.5]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.sampled_from([0.1, 0.3, 0.6]),
    st.booleans(),
)
def test_local_search_matches_reference(n, p, seed, pick_seed, density, independent):
    """_maximalize and _swap_pass return the same mask and leave the generator
    in the same state as the reference bodies, on independent sets and on
    arbitrary vertex sets."""
    nb = twopack.mis._adjacency_masks(as_square(gnp_graph(n, p, seed)))
    picker = Random(pick_seed)
    sol = 0
    for v in range(n):
        if picker.random() < density and not (independent and nb[v] & sol):
            sol |= 1 << v
    got_rng, want_rng = Random(pick_seed), Random(pick_seed)
    assert twopack.mis._maximalize(n, nb, sol, got_rng) == reference_maximalize(
        n, nb, sol, want_rng
    )
    assert got_rng.getstate() == want_rng.getstate()
    got = twopack.mis._swap_pass(nb, sol, got_rng)
    assert got == reference_swap_pass(n, nb, sol, want_rng)
    assert got_rng.getstate() == want_rng.getstate()


# -- reference clique cover and relabelling --------------------------------------


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
    st.sampled_from([0.08, 0.15, 0.3, 0.5, 0.8]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.sampled_from([0.3, 0.7, 1.0]),
)
def test_clique_cover_matches_sequential_first_fit(n, p, seed, alive_seed, density):
    """On cover-ordered labels, the class-at-a-time cover mapped back is the
    sequential first-fit cover over the cover order, clique for clique; each
    is a clique and together they partition the alive vertices."""
    sq = as_square(gnp_graph(n, p, seed))
    nb = twopack.mis._adjacency_masks(sq)
    bits = twopack.mis._bits
    order, rank, ranked = twopack.mis._cover_ordered_masks(sq)

    def in_square_labels(mask: int) -> int:
        return mask_of(order[r] for r in bits(mask))

    assert order == sorted(range(n), key=lambda v: (nb[v].bit_count(), v))
    assert all(order[rank[v]] == v for v in range(n))
    assert all(in_square_labels(ranked[rank[v]]) == nb[v] for v in range(n))
    picker = Random(alive_seed)
    alive = mask_of(v for v in range(n) if picker.random() < density)
    got = twopack.mis._clique_cover(mask_of(rank[v] for v in bits(alive)), ranked)
    cliques = [in_square_labels(clique) for clique in got]
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
    nb = twopack.mis._adjacency_masks(sq)
    rng = Random(seed)
    warm = twopack.mis._local_optimum(sq.n, nb, twopack.mis._greedy_maximal(sq.n, nb, rng), rng)
    if res.size == warm.bit_count():
        assert_maximal(sq, res.vertices)
    else:
        assert res.size > warm.bit_count()
    if not res.proven_optimal:
        assert res.nodes_explored == max_nodes
    elif sq.n <= 20:
        assert res.size == brute_alpha(sq)


@pytest.mark.parametrize("solver", [exact_mis, heuristic_mis])
@pytest.mark.parametrize("seconds", [0.0, -1.0])
def test_empty_square_is_proven_without_budget(solver, seconds):
    res = solver(as_square(StaticGraph.from_edges(0, [])), Deadline(seconds=seconds))
    assert (res.vertices, res.size, res.proven_optimal, res.nodes_explored) == (frozenset(), 0, True, 0)


class TestExact:
    def test_k3(self):
        res = exact_mis(as_square(complete_graph(3)), LONG)
        assert res.size == 1 and res.proven_optimal

    def test_square_p5(self):
        res = exact_mis(square(TwoLevelGraph(path_graph(5))), LONG)
        assert res.size == 2 and res.proven_optimal
        assert res.vertices in ({0, 3}, {0, 4}, {1, 4})

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

    def test_deadline_checked_at_every_node(self, monkeypatch):
        """Under a clock that advances one second per reading, the search
        stops at the first node whose clock reading reaches the deadline."""
        readings: list[float] = []

        class StepClock:
            @staticmethod
            def perf_counter() -> float:
                readings.append(float(len(readings)))
                return readings[-1]

        monkeypatch.setattr(twopack.mis, "time", StepClock)
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
        assert sum(res.nodes_explored for res in results) == 536

    @pytest.mark.parametrize("name", sorted(PINNED_SEARCHES))
    def test_search_is_pinned(self, name):
        """Size, nodes and answer under a node budget are those of the
        reference build: the search takes the same isolated and pendant
        vertices, covers with the same cliques and branches on the same
        vertices, in the same order."""
        make, max_nodes, pinned = PINNED_SEARCHES[name]
        res = exact_mis(make(), Deadline(seconds=600.0, max_nodes=max_nodes), seed=1)
        assert (res.size, res.nodes_explored, sorted(res.vertices)) == pinned


class TestHeuristic:
    def test_empty_graph_proven(self):
        res = heuristic_mis(as_square(StaticGraph.from_edges(0, [])), LONG)
        assert res.size == 0 and res.proven_optimal

    def test_edgeless_graph_proven(self):
        res = heuristic_mis(as_square(StaticGraph.from_edges(4, [])), LONG)
        assert res.size == 4 and res.proven_optimal

    def test_nonpositive_deadline_returns_maximal_unproven(self, monkeypatch):
        def no_warm_start(*args):
            raise AssertionError("warm start run with no budget left")

        monkeypatch.setattr(twopack.mis, "_greedy_maximal", no_warm_start)
        sq = square(TwoLevelGraph(gnp_graph(40, 0.08, 3)))
        for seconds in (0.0, -1.0):
            res = heuristic_mis(sq, Deadline(seconds=seconds))
            assert not res.proven_optimal and res.nodes_explored == 0
            assert res.size == len(res.vertices) > 0
            assert_independent(sq, res.vertices)
            assert_maximal(sq, res.vertices)

    def test_square_c6_finds_antipodal_pair(self):
        res = heuristic_mis(square(TwoLevelGraph(cycle_graph(6))), Deadline(2.0))
        assert res.size == 2
        assert not res.proven_optimal

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
        g = gnp_graph(14, 0.25, 123)
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
        with recorded_swaps() as swaps:
            res = heuristic_mis(make(), Deadline(seconds=600.0, max_nodes=max_nodes), seed=1)
        assert (res.size, res.nodes_explored, sorted(res.vertices)) == pinned
        assert hashlib.sha1(repr(swaps).encode()).hexdigest() == digest
