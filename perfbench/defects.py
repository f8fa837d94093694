#!/usr/bin/env python3
"""Exact against heuristic mode on the budget-exact corpus, at equal time limits.

    python3 perfbench/defects.py --seeds 1-10

Solves the quality set of each seed's budget-exact corpus in both modes and
prints the size sums; exact mode returning less than heuristic mode at the
same budget is a known defect the baseline records.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from collect import parse_seeds  # noqa: E402
from twopack import SolverMode, solve_m2s  # noqa: E402
from workloads import WORKLOADS, build_corpus  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    w = WORKLOADS["budget-exact"]
    heuristic = replace(w.config, mode=SolverMode.HEURISTIC)
    totals = [0, 0, 0]
    for seed in parse_seeds(args.seeds):
        graphs = build_corpus(w, seed).graphs[: w.quality]
        exact = [solve_m2s(g, w.config).size for g in graphs]
        heur = [solve_m2s(g, heuristic).size for g in graphs]
        lower = sum(e < h for e, h in zip(exact, heur))
        print(f"seed {seed}: exact {sum(exact)}, heuristic {sum(heur)}, "
              f"exact lower on {lower}/{len(graphs)} instances")
        totals = [totals[0] + sum(exact), totals[1] + sum(heur), totals[2] + lower]
    print(f"total: exact {totals[0]}, heuristic {totals[1]}, exact lower on {totals[2]} instances")


if __name__ == "__main__":
    main()
