#!/usr/bin/env python3
"""Run the benchmark over several seeds and workloads and save a result set.

    python3 perfbench/collect.py [--workloads a,b] [--seeds 1-10] [--seconds 20]
                                 [--trace 0|1] [--out FILE]
                                 [--other CHECKOUT --other-out FILE]

Each run is ``run.py`` in a fresh interpreter, one after another.  The
summary prints, per workload, the median and quartiles of every end-to-end
metric (including those BENCHMARK.json does not gate), the spread as a share
of the median, and the correctness verdict; with ``--trace 1`` also the
median of every per-layer metric.  With ``--other`` the same seeds
also run from a second checkout, alternating which side goes first, so that
``compare.py`` can pair the two result sets.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any

from stats import quartiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict[str, Any]:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    record_path = checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(record_path.read_text())
    return {
        "workload": workload,
        "seed": seed,
        "result": json.loads(proc.stdout.strip().splitlines()[-1]),
        "e2e": record["e2e"],
        "tail": record["tail"],
        "failures": record["failures"],
    }


def summarize(label: str, runs: list[dict[str, Any]], trace: int) -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"== {label}")
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        attempted = sum(r["result"]["attempted"] for r in mine)
        failed = sum(r["result"]["failed"] for r in mine)
        verdict = "correct" if all(r["result"]["correct"] for r in mine) else "INCORRECT"
        print(f"{workload}: {len(mine)} runs, {verdict}, {failed}/{attempted} solves failed")
        for name, first in mine[0]["e2e"].items():
            values = [r["e2e"][name]["value"] for r in mine]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = f"  bound {bound:.2f}" + ("  SPREAD > bound/3" if spread > bound / 3 else "")
            print(f"  {name:<24} {med:>12.6g} [{q1:.6g}, {q3:.6g}] {first['unit']:<9}"
                  f" spread {spread:6.3f}{flag}")
        if trace:
            print("  per-layer medians:")
            for name, first in mine[0]["result"]["metrics"].items():
                value = quartiles([r["result"]["metrics"][name]["value"] for r in mine])[1]
                print(f"    {name:<36} {value:>14.6g} {first['unit']}")
        tails = [r["tail"] for r in mine]
        print(f"  solve_s.tail percentiles {min(t['percentile'] for t in tails):.1f}-"
              f"{max(t['percentile'] for t in tails):.1f}, samples "
              f"{min(t['samples'] for t in tails)}-{max(t['samples'] for t in tails)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=BENCH / "out" / "set.json")
    parser.add_argument("--other", type=Path, help="second checkout, run alternately")
    parser.add_argument("--other-out", type=Path, default=BENCH / "out" / "set-other.json")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    sides = [ROOT] + ([args.other.resolve()] if args.other else [])
    runs: dict[Path, list[dict[str, Any]]] = {side: [] for side in sides}
    for workload in workloads:
        for k, seed in enumerate(parse_seeds(args.seeds)):
            order = sides if k % 2 == 0 else sides[::-1]
            for position, side in enumerate(order):
                run = run_once(side, workload, seed, seconds, args.trace)
                run["position"] = position
                runs[side].append(run)
                print(f"{side.name} {workload} seed {seed}: correct={run['result']['correct']}",
                      file=sys.stderr, flush=True)
    outs = [args.out] + ([args.other_out] if args.other else [])
    for side, out in zip(sides, outs):
        out.parent.mkdir(parents=True, exist_ok=True)
        meta = {"checkout": side.name, "seconds": seconds, "trace": args.trace}
        out.write_text(json.dumps({**meta, "runs": runs[side]}, indent=1) + "\n")
        summarize(f"{side.name} -> {out.name}", runs[side], args.trace)


if __name__ == "__main__":
    main()
