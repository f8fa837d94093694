#!/usr/bin/env python3
"""Compare two result sets from ``collect.py``, one row per workload and metric.

    python3 perfbench/compare.py PARENT.json CHANGE.json

Runs pair up by workload and seed.  Verdicts, per BENCHMARK.json's bounds:

* better: at least ten pairs, the change wins at least nine tenths of them
  (ties count for neither side), and the medians differ by more than the
  parent's interquartile range;
* worse: the change's median is worse than the parent's by more than the
  bound;
* unresolved: neither, and the parent's spread (interquartile range over
  median) is wider than the bound, unless every change run reads better than
  every parent run; a would-be "worse" under such a spread is unresolved too,
  unless every change run reads worse than every parent run;
* unchanged: otherwise.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any

from stats import quartiles

ROOT = Path(__file__).resolve().parent.parent


def verdict(parent: list[float], change: list[float], higher: bool, bound: float) -> tuple[str, int]:
    """Verdict for paired runs (``parent[i]`` with ``change[i]``) and the change's wins."""
    sign = 1 if higher else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, med, q3 = quartiles(parent)
    gain = sign * (quartiles(change)[1] - med)
    wide = (q3 - q1) > bound * abs(med)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    all_worse = max(sign * c for c in change) < min(sign * p for p in parent)
    if len(parent) >= 10 and wins >= 0.9 * len(parent) and gain > q3 - q1:
        return "better", wins
    if -gain > bound * abs(med):
        return ("unresolved" if wide and not all_worse else "worse"), wins
    if wide and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def by_key(result_set: dict[str, Any]) -> dict[tuple[str, int], dict[str, Any]]:
    return {(r["workload"], r["seed"]): r for r in result_set["runs"]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    parent = by_key(json.loads(args.parent.read_text()))
    change = by_key(json.loads(args.change.read_text()))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    print(f"{'workload':<20} {'metric':<20} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'wins':>6}  verdict")
    for workload in dict.fromkeys(w for w, _ in parent):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        if not seeds:
            continue
        for spec in bench["end_to_end"]:
            name = spec["name"]
            p = [parent[workload, s]["e2e"][name]["value"] for s in seeds]
            c = [change[workload, s]["e2e"][name]["value"] for s in seeds]
            result, wins = verdict(p, c, spec["better"] == "higher", spec["bound"])
            cells = []
            for values in (p, c):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] {spec['unit']}")
            print(f"{workload:<20} {name:<20} {cells[0]:<34} {cells[1]:<34} "
                  f"{wins:>3}/{len(seeds):<2}  {result}")
        failed = [sum(r["result"]["failed"] for (w, _), r in side.items() if w == workload)
                  for side in (parent, change)]
        print(f"{workload:<20} {'failed solves':<20} {failed[0]:<34} {failed[1]:<34}")


if __name__ == "__main__":
    main()
