"""The benchmark's workloads and the seeded corpus each one solves.

Instance ``j`` of a run with seed ``s`` comes from ``Random("<name>:<s>:<j>")``,
so a corpus prefix does not depend on the corpus size and a seed always
yields the same METIS bytes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from random import Random
from typing import Callable

import gen
from twopack import SolverConfig, SolverMode, StaticGraph, parse_metis, write_metis

EdgeMaker = Callable[[Random], tuple[int, list[tuple[int, int]]]]


@dataclass(frozen=True)
class Workload:
    name: str
    make: EdgeMaker
    config: SolverConfig
    # Instances generated in set-up; a run that solves them all starts over.
    corpus: int
    # Instances every run solves, however long that takes.  ``size_sum`` and
    # the exact per-layer counts cover these, so they repeat across runs.
    quality: int
    # Every solve must be proven optimal with the recorded expected size.
    proof: bool = False


# Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="skewed-reduce",
            make=lambda rng: (300, gen.barabasi_albert(300, 3, rng)),
            config=SolverConfig(max_nodes=20),
            corpus=60,
            quality=25,
        ),
        Workload(
            name="sparse-proof",
            make=lambda rng: (80, gen.gnm(80, 240, rng)),
            config=SolverConfig(max_nodes=100_000),
            corpus=500,
            quality=100,
            proof=True,
        ),
        Workload(
            name="geometric-heuristic",
            make=lambda rng: (1500, gen.random_geometric(1500, 8.0, rng)),
            config=SolverConfig(mode=SolverMode.HEURISTIC, max_nodes=200),
            corpus=32,
            quality=10,
        ),
        Workload(
            name="budget-exact",
            make=lambda rng: (600, gen.gnm(600, 1200, rng)),
            config=SolverConfig(time_limit=0.3),
            corpus=50,
            quality=10,
        ),
    )
}


def instance_rng(workload: str, seed: int, index: int) -> Random:
    return Random(f"{workload}:{seed}:{index}")


@dataclass
class Corpus:
    graphs: list[StaticGraph]
    texts: list[str]
    parse_s: list[float]


def build_corpus(
    w: Workload, seed: int, parse: Callable[[str], StaticGraph] = parse_metis
) -> Corpus:
    """Generate, write as METIS and parse back every instance of one run."""
    graphs, texts, parse_s = [], [], []
    for j in range(w.corpus):
        n, edges = w.make(instance_rng(w.name, seed, j))
        text = write_metis(StaticGraph.from_edges(n, edges))
        t0 = time.perf_counter()
        graphs.append(parse(text))
        parse_s.append(time.perf_counter() - t0)
        texts.append(text)
    return Corpus(graphs, texts, parse_s)
