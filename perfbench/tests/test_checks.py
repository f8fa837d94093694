"""Correctness gate: small instances from the workload generators against the oracle."""

from dataclasses import dataclass
from random import Random

import pytest

import gen
from checks import Checker
from twopack import SolverMode, StaticGraph, brute_beta, solve_m2s, verify_2ps
from workloads import WORKLOADS

# Instances with n <= 20 from the generator each workload uses.
SMALL = {
    "skewed-reduce": lambda rng: (16, gen.barabasi_albert(16, 2, rng)),
    "sparse-proof": lambda rng: (18, gen.gnm(18, 40, rng)),
    "geometric-heuristic": lambda rng: (20, gen.random_geometric(20, 4.0, rng)),
    "budget-exact": lambda rng: (18, gen.gnm(18, 36, rng)),
}


def test_every_workload_has_small_instances():
    assert set(SMALL) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_instances_against_oracle(name):
    w = WORKLOADS[name]
    for j in range(15):
        n, edges = SMALL[name](Random(f"{name}:small:{j}"))
        g = StaticGraph.from_edges(n, edges)
        sol = solve_m2s(g, w.config)
        beta, _ = brute_beta(g)
        assert verify_2ps(g, sol.vertices)
        assert sol.size == len(sol.vertices)
        if w.config.mode is SolverMode.EXACT and sol.proven_optimal:
            assert sol.size == beta
        else:
            assert sol.size <= beta
        if w.proof:
            assert sol.proven_optimal


@dataclass
class FakeSolution:
    vertices: frozenset
    size: int
    proven_optimal: bool = True


def small_proof_case():
    w = WORKLOADS["sparse-proof"]
    g = StaticGraph.from_edges(*SMALL["sparse-proof"](Random(3)))
    return w, g, solve_m2s(g, w.config)


def test_checker_accepts_the_solver_answer():
    w, g, sol = small_proof_case()
    assert Checker(w, seed=-1, graphs=[g]).failure(0, sol) is None


def test_checker_flags_wrong_size_invalid_set_and_missing_proof():
    w, g, sol = small_proof_case()
    checker = Checker(w, seed=-1, graphs=[g])
    smaller = frozenset(sorted(sol.vertices)[1:])
    assert "expected" in checker.failure(0, FakeSolution(smaller, len(smaller)))
    assert "size" in checker.failure(0, FakeSolution(sol.vertices, sol.size + 1))
    u, v = g.edges().__next__()
    assert "2-packing" in checker.failure(0, FakeSolution(frozenset({u, v}), 2))
    unproven = FakeSolution(sol.vertices, sol.size, proven_optimal=False)
    assert checker.failure(0, unproven) == "not proven optimal"
