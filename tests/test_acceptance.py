"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The dataset-dependent criterion needs instance files under
``data/instances/<name>.graph`` (METIS format) or a directory named by the
``TWOPACK_INSTANCES`` environment variable; it is skipped when absent.
"""

from __future__ import annotations

import copy
import os
import time
from collections import Counter
from pathlib import Path

import pytest

from twopack import (
    ReductionVariant,
    SolverConfig,
    SolverMode,
    TwoLevelGraph,
    parse_metis,
    reduce,
    solve_m2s,
    square,
    verify_2ps,
)
from twopack.oracle import brute_alpha, brute_beta, brute_square
from twopack.reductions import ReductionLog, apply_rules_exhaustively

from conftest import induced_square_subgraph, square_edges

VARIANTS = (ReductionVariant.TWO_PACK, ReductionVariant.CORE, ReductionVariant.ELABORATED)

EXPECTED_SIZES = {
    "lesmis": 10,
    "dolphins": 13,
    "chesapeake": 3,
    "polbooks": 12,
    "football": 7,
    "adjnoun": 18,
    "jazz": 13,
    "celegansneural": 14,
}
EMPTY_KERNEL_INSTANCES = ("lesmis", "dolphins", "adjnoun", "chesapeake", "netscience")


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {state}{suffix}")


def test_criterion_1_oracle_equivalence(full_corpus):
    """Exact mode equals brute force for every variant on the whole corpus."""
    start = time.perf_counter()
    mismatches = []
    for name, g in full_corpus:
        beta = brute_beta(g)[0]
        for variant in VARIANTS:
            sol = solve_m2s(g, SolverConfig(variant=variant))
            if sol.size != beta or not sol.proven_optimal:
                mismatches.append((name, variant.value, sol.size, beta))
    elapsed = time.perf_counter() - start
    ok = not mismatches
    _report(
        "1 oracle equivalence",
        ok,
        f"{len(full_corpus)} graphs x 3 variants in {elapsed:.1f}s",
    )
    assert ok, mismatches[:5]


def test_criterion_2_reduction_soundness(full_corpus):
    """offset + optimum of the kernel conflict instance == optimum of the input.

    The conflict instance is rebuilt oracle-side from original-graph
    distances, independent of the kernel's own edge bookkeeping.
    """
    bad = []
    for name, g in full_corpus:
        beta = brute_beta(g)[0]
        for variant in VARIANTS:
            kernel = reduce(g, variant)
            residual = brute_alpha(
                induced_square_subgraph(g, kernel.graph.active_vertices())
            )
            if kernel.log.offset + residual != beta:
                bad.append((name, variant.value))
    _report("2 reduction soundness", not bad)
    assert not bad, bad[:5]


def test_criterion_3_square_equivalence(full_corpus):
    """alpha(square(G)) == beta(G), and the built square is edge-identical to
    the BFS square in original IDs."""
    bad = []
    for name, g in full_corpus:
        sq = square(TwoLevelGraph(g))
        reference = brute_square(g)
        same_vertices = sorted(sq.to_original) == list(reference.to_original)
        if not same_vertices or square_edges(sq) != square_edges(reference):
            bad.append((name, "edges"))
            continue
        if brute_alpha(sq) != brute_beta(g)[0]:
            bad.append((name, "alpha"))
    _report("3 square-graph equivalence", not bad)
    assert not bad, bad[:5]


def test_criterion_4_heuristic_validity(full_corpus, random_corpus):
    """Heuristic output is always a valid 2-packing, never beats exact, and
    matches it on at least 90% of the random corpus with the default seed."""
    invalid = 0
    beaten = 0
    for name, g in full_corpus:
        heur = solve_m2s(g, SolverConfig(mode=SolverMode.HEURISTIC, max_nodes=60))
        if not verify_2ps(g, heur.vertices):
            invalid += 1
        if heur.size > brute_beta(g)[0]:
            beaten += 1
    matches = 0
    for name, g in random_corpus:
        heur = solve_m2s(g, SolverConfig(mode=SolverMode.HEURISTIC, max_nodes=60))
        exact = solve_m2s(g, SolverConfig())
        assert heur.size <= exact.size
        matches += heur.size == exact.size
    rate = matches / len(random_corpus)
    ok = invalid == 0 and beaten == 0 and rate >= 0.9
    _report("4 heuristic validity", ok, f"equality rate {rate:.3f}")
    assert ok, (invalid, beaten, rate)


def test_criterion_5_exhaustiveness_and_determinism(full_corpus):
    """Kernels admit no further rule applications; equal seed and node budget
    give identical solutions."""
    bad = []
    for name, g in full_corpus[::3]:
        for variant in (ReductionVariant.CORE, ReductionVariant.ELABORATED):
            kernel = reduce(g, variant)
            log = ReductionLog()
            counts: Counter = Counter()
            apply_rules_exhaustively(
                copy.deepcopy(kernel.graph), variant.rule_order, log, counts
            )
            if len(log) != 0:
                bad.append((name, variant.value, "not exhaustive"))
    for name, g in full_corpus[::6]:
        for mode in SolverMode:
            cfg = SolverConfig(mode=mode, seed=7, max_nodes=30)
            first = solve_m2s(g, cfg)
            second = solve_m2s(g, cfg)
            if first.vertices != second.vertices:
                bad.append((name, mode.value, "nondeterministic"))
    _report("5 exhaustiveness and determinism", not bad)
    assert not bad, bad[:5]


def _instance_dir() -> Path | None:
    env = os.environ.get("TWOPACK_INSTANCES")
    candidates = [Path(env)] if env else []
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "instances")
    for root in candidates:
        if root.is_dir():
            return root
    return None


def _load_instance(root: Path, name: str):
    path = root / f"{name}.graph"
    if not path.is_file():
        return None
    return parse_metis(path.read_text())


def test_criterion_6_published_instances():
    """Dataset-dependent reproduction of published solution sizes; skipped
    unless the instance files are supplied."""
    root = _instance_dir()
    if root is None:
        _report("6 published instances", True, "SKIPPED: no instance directory")
        pytest.skip("instance files not supplied (data/instances or TWOPACK_INSTANCES)")
    checked = []
    bad = []
    for name, expected in EXPECTED_SIZES.items():
        g = _load_instance(root, name)
        if g is None:
            continue
        sol = solve_m2s(g, SolverConfig(time_limit=600.0))
        checked.append(name)
        if sol.size != expected or not sol.proven_optimal:
            bad.append((name, sol.size, expected, sol.proven_optimal))
    for name in EMPTY_KERNEL_INSTANCES:
        g = _load_instance(root, name)
        if g is None:
            continue
        kernel = reduce(g, ReductionVariant.ELABORATED)
        if kernel.graph.active_count != 0:
            bad.append((name, "kernel not empty", kernel.graph.active_count))
    lesmis = _load_instance(root, "lesmis")
    if lesmis is not None:
        # published square blow-up for the unreduced instance
        sq = square(TwoLevelGraph(lesmis))
        ratio = round(100.0 * sq.m / lesmis.m, 2)
        if ratio != 491.73:
            bad.append(("lesmis", "square edge ratio", ratio))
    if not checked:
        _report("6 published instances", True, "SKIPPED: no matching files")
        pytest.skip("no instance files found")
    _report("6 published instances", not bad, f"checked {', '.join(checked)}")
    assert not bad, bad
