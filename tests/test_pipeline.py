"""End-to-end pipeline behavior: solve, verify, ratios, error paths."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from twopack import (
    GraphError,
    MemoryCapError,
    ReductionVariant,
    SolverConfig,
    SolverMode,
    StaticGraph,
    brute_beta,
    kernel_ratios,
    solve_m2s,
    verify_2ps,
)

from conftest import cycle_graph, gnp_graph, path_graph, star_graph


class TestVerify2ps:
    def test_valid_pair(self):
        assert verify_2ps(path_graph(5), {0, 3}) is True

    def test_distance_two_pair(self):
        assert verify_2ps(path_graph(5), {0, 2}) is False

    def test_adjacent_pair(self):
        assert verify_2ps(path_graph(5), {0, 1}) is False

    def test_two_leaves_share_center(self):
        assert verify_2ps(star_graph(3, center=0), {1, 2}) is False

    def test_empty_and_singleton(self):
        assert verify_2ps(path_graph(5), set()) is True
        assert verify_2ps(path_graph(5), {2}) is True

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            verify_2ps(path_graph(3), {5})


class TestSolve:
    def test_p4_solved_by_reductions_alone(self):
        sol = solve_m2s(path_graph(4), SolverConfig())
        assert sol.size == 2
        assert sol.proven_optimal
        assert sol.kernel.n_kernel == 0
        assert sol.mis_nodes == 0
        assert sol.vertices == {0, 3}
        assert sol.time_to_proof is not None

    def test_c6_needs_mis_phase(self):
        sol = solve_m2s(cycle_graph(6), SolverConfig())
        assert sol.size == 2
        assert sol.proven_optimal
        assert sol.kernel.n_kernel == 6
        assert sol.mis_nodes >= 1

    def test_empty_graph(self):
        sol = solve_m2s(StaticGraph.from_edges(0, []), SolverConfig())
        assert sol.size == 0 and sol.proven_optimal

    def test_offset_accounting(self):
        for seed in range(8):
            g = gnp_graph(12, 0.2, 50 + seed)
            sol = solve_m2s(g, SolverConfig())
            mis_part = sol.size - sol.kernel.offset
            assert mis_part >= 0
            assert sol.size == len(sol.vertices)

    def test_variant_agreement(self):
        for seed in range(10):
            g = gnp_graph(11, 0.3, 80 + seed)
            sizes = {
                solve_m2s(g, SolverConfig(variant=v)).size for v in ReductionVariant
            }
            assert len(sizes) == 1

    def test_heuristic_valid_and_bounded(self):
        for seed in range(10):
            g = gnp_graph(12, 0.25, 200 + seed)
            exact = solve_m2s(g, SolverConfig())
            heur = solve_m2s(
                g, SolverConfig(mode=SolverMode.HEURISTIC, max_nodes=50)
            )
            assert verify_2ps(g, heur.vertices)
            assert heur.size <= exact.size
            assert not heur.proven_optimal or heur.kernel.n_kernel == 0

    def test_heuristic_on_empty_kernel_is_proven(self):
        sol = solve_m2s(path_graph(4), SolverConfig(mode=SolverMode.HEURISTIC))
        assert sol.proven_optimal and sol.size == 2

    @pytest.mark.parametrize("mode", list(SolverMode))
    def test_edgeless_square_is_proven(self, mode):
        # Without reductions the square keeps all three vertices and no edge:
        # both back ends take every vertex and the pipeline keeps their proof.
        g = StaticGraph.from_edges(3, [])
        cfg = SolverConfig(variant=ReductionVariant.TWO_PACK, mode=mode, max_nodes=10)
        sol = solve_m2s(g, cfg)
        assert (sol.size, sol.proven_optimal) == (3, True)
        assert (sol.kernel.n_square, sol.kernel.m_square) == (3, 0)
        assert sol.time_to_proof is not None

    @pytest.mark.parametrize("mode", list(SolverMode))
    def test_empty_kernel_is_proven_with_budget_spent(self, mode):
        # 1e-9 s is gone before the MIS phase starts: the empty square is
        # still proven, not answered first-fit.
        sol = solve_m2s(path_graph(4), SolverConfig(mode=mode, time_limit=1e-9))
        assert (sol.size, sol.proven_optimal, sol.mis_nodes) == (2, True, 0)
        assert (sol.kernel.n_square, sol.kernel.m_square) == (0, 0)

    def test_exact_matches_oracle(self):
        for seed in range(15):
            g = gnp_graph(13, 0.3, 400 + seed)
            sol = solve_m2s(g, SolverConfig())
            assert sol.size == brute_beta(g)[0]

    def test_verify_flag(self):
        sol = solve_m2s(cycle_graph(6), SolverConfig(verify=True))
        assert sol.size == 2

    def test_deterministic_with_node_budget(self):
        g = gnp_graph(13, 0.35, 999)
        cfg = SolverConfig(seed=3, max_nodes=40)
        assert solve_m2s(g, cfg).vertices == solve_m2s(g, cfg).vertices

    def test_timings_recorded(self):
        sol = solve_m2s(cycle_graph(9), SolverConfig())
        t = sol.timings
        assert t.total >= t.reduce + t.transform + t.solve - 1e-6
        assert 0 <= sol.time_to_best <= t.total + 1e-9


class TestMemoryCap:
    def test_edge_cap_raises_with_partial_stats(self):
        g = star_graph(5, center=0)
        cfg = SolverConfig(variant=ReductionVariant.TWO_PACK, edge_cap=5)
        with pytest.raises(MemoryCapError) as info:
            solve_m2s(g, cfg)
        err = info.value
        assert err.kernel.n_kernel == 6
        assert err.kernel.offset == 0
        assert err.partial == frozenset()

    def test_partial_solution_is_valid(self):
        # P7 with a dense blob at the end: reductions include some vertices
        # before the cap trips
        edges = [(0, 1), (1, 2)] + [
            (u, v) for u in range(2, 7) for v in range(u + 1, 7)
        ]
        g = StaticGraph.from_edges(7, edges)
        with pytest.raises(MemoryCapError) as info:
            solve_m2s(g, SolverConfig(variant=ReductionVariant.TWO_PACK, edge_cap=3))
        assert verify_2ps(g, info.value.partial)


class TestConfigValidation:
    def test_time_limit_positive(self):
        with pytest.raises(ValueError):
            SolverConfig(time_limit=0)

    def test_time_limit_nan_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(time_limit=float("nan"))

    def test_infinite_time_limit_means_no_clock(self):
        sol = solve_m2s(cycle_graph(9), SolverConfig(time_limit=float("inf")))
        assert sol.size == 3 and sol.proven_optimal

    def test_negative_node_budget_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(max_nodes=-1)
        SolverConfig(max_nodes=0)

    def test_edge_cap_positive(self):
        with pytest.raises(ValueError):
            SolverConfig(edge_cap=0)


class TestKernelRatios:
    def test_empty_kernel(self):
        sol = solve_m2s(path_graph(4), SolverConfig())
        assert kernel_ratios(path_graph(4), sol.kernel) == (0.0, 0.0)

    def test_two_pack_keeps_all_vertices(self):
        g = path_graph(5)
        sol = solve_m2s(g, SolverConfig(variant=ReductionVariant.TWO_PACK))
        n_ratio, m_ratio = kernel_ratios(g, sol.kernel)
        assert n_ratio == 100.0
        assert m_ratio == pytest.approx(175.0)

    def test_edgeless_input(self):
        g = StaticGraph.from_edges(3, [])
        sol = solve_m2s(g, SolverConfig(variant=ReductionVariant.TWO_PACK))
        n_ratio, m_ratio = kernel_ratios(g, sol.kernel)
        assert n_ratio == 100.0 and m_ratio == 0.0


def test_package_exports_resolve_once():
    import twopack

    assert len(twopack.__all__) == len(set(twopack.__all__))
    missing = [name for name in twopack.__all__ if not hasattr(twopack, name)]
    assert missing == []


# Exported on purpose although nothing but tests calls them: the suite checks
# the solver against these brute-force oracles.
TEST_ONLY_EXPORTS = {"brute_alpha", "brute_beta"}


def test_package_exports_have_a_caller():
    """Every exported name is read somewhere outside the tests: in another
    package module, the benchmark or a script."""
    import twopack

    root = Path(__file__).resolve().parents[1]
    files = [p for p in (root / "src" / "twopack").glob("*.py") if p.name != "__init__.py"]
    files += [*(root / "perfbench").glob("*.py"), *(root / "scripts").glob("*.py")]
    used: set[str] = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = sorted(set(twopack.__all__) - used - TEST_ONLY_EXPORTS)
    assert unused == []
