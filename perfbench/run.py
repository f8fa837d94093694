#!/usr/bin/env python3
"""One benchmark run of twopack on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run imports ``twopack`` from the
checkout's ``src/``, builds the workload's seeded corpus (generate, write
METIS, parse back) three times and keeps the median as set-up time, then
solves corpus instances one after another in this process and thread (a
closed loop with one client) until ``S`` seconds have passed and at least the
workload's quality set is done.  Every answer is checked afterwards, outside
the timed loop.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` every instance is solved twice, once plain and once under the
tracer (alternating which goes first), and the line carries the per-layer
metrics.  A fuller record, with spans in trace mode, goes to
``perfbench/out/<workload>-seed<N>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 3


def import_program() -> float:
    """Import twopack from this checkout's sources and return the import time."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        import twopack
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import twopack from {SRC}: {exc}")
    elapsed = time.perf_counter() - t0
    if Path(twopack.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: twopack came from {twopack.__file__}, not from {SRC}")
    return elapsed


@dataclass
class Attempt:
    iteration: int
    index: int
    traced: bool
    wall: float
    solution: Any
    error: str | None
    failure: str | None = None


def timed(call: Callable[[], Any]) -> tuple[float, Any, str | None]:
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # a solve that raises is a failed attempt, not a crash
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, result, None


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_s = import_program()
    import checks
    import layers
    import stats
    from tracer import Tracer
    from twopack import parse_metis, solve_m2s
    from workloads import WORKLOADS, build_corpus

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None

    def parse(text: str) -> Any:
        return tracer.span("parse_metis", parse_metis, text) if tracer else parse_metis(text)

    setups: list[float] = []
    parses: list[float] = []
    corpus, deterministic = None, True
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        fresh = build_corpus(w, args.seed, parse)
        setups.append(time.perf_counter() - t0)
        parses.append(sum(fresh.parse_s))
        deterministic &= corpus is None or fresh.texts == corpus.texts
        corpus = fresh

    cfg = w.config
    attempts: list[Attempt] = []
    start = time.perf_counter()
    i = 0
    while i < w.quality or time.perf_counter() - start < args.seconds:
        j = i % w.corpus
        g = corpus.graphs[j]
        order = ((False, True) if i % 2 == 0 else (True, False)) if tracer else (False,)
        for traced in order:
            if traced:
                with tracer:
                    wall, sol, err = timed(
                        lambda: tracer.span("solve_m2s", solve_m2s, g, cfg, solve=i)
                    )
            else:
                wall, sol, err = timed(lambda: solve_m2s(g, cfg))
            attempts.append(Attempt(i, j, traced, wall, sol, err))
        i += 1
    loop_s = time.perf_counter() - start

    checker = checks.Checker(w, args.seed, corpus.graphs)
    for a in attempts:
        a.failure = a.error or checker.failure(a.index, a.solution)
    failed = sum(a.failure is not None for a in attempts)
    correct = failed == 0 and deterministic

    plain = [a for a in attempts if not a.traced]
    done = [a for a in plain if a.solution is not None]
    if not done:
        print(f"perfbench: no solve completed; first error: {attempts[0].error}", file=sys.stderr)
        return 1
    walls = [a.wall for a in done]
    tail_s, tail_pct, tail_n = stats.tail(walls)
    e2e = {
        "solves_per_s": (len(done) / loop_s if not tracer else len(done) / sum(walls), "1/s"),
        "solve_s.p50": (median(walls), "s"),
        "solve_s.tail": (tail_s, "s"),
        "time_to_best_s.p50": (median([a.solution.time_to_best for a in done]), "s"),
        "size_sum": (
            sum(a.solution.size for a in done if a.iteration < w.quality),
            "vertices",
        ),
        "proven_share": (sum(a.solution.proven_optimal for a in done) / len(plain), "ratio"),
        "deadline_overrun_s.p50": (
            median([max(0.0, a.wall - cfg.time_limit) for a in done]),
            "s",
        ),
        "failed_share": (sum(a.failure is not None for a in plain) / len(plain), "ratio"),
        "setup_s": (import_s + median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }

    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  "
          f"{len(plain)} solves in {loop_s:.2f} s, {failed} failed")
    for a in attempts:
        if a.failure:
            print(f"  FAILED instance {a.index} (traced={a.traced}): {a.failure}")
    if not deterministic:
        print("  FAILED: set-up produced different bytes for the same seed")
    for name, (value, unit) in e2e.items():
        note = f"  (p{tail_pct:.1f} of {tail_n} solves)" if name == "solve_s.tail" else ""
        print(f"  {name:<24} {value:>14.6g} {unit}{note}")

    record: dict[str, Any] = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "e2e": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "tail": {"percentile": tail_pct, "samples": tail_n},
        "setup_s": setups,
        "import_s": import_s,
        "solves": [
            {"instance": a.index, "traced": a.traced, "wall_s": a.wall,
             "size": a.solution.size, "time_to_best_s": a.solution.time_to_best}
            for a in attempts
            if a.solution is not None
        ],
        "failures": [
            {"instance": a.index, "traced": a.traced, "reason": a.failure}
            for a in attempts
            if a.failure
        ],
    }
    if tracer:
        metrics, rows = layers.per_layer(w, tracer, attempts, corpus, median(parses), e2e)
        layers.print_report(metrics, rows, w.quality)
        record["per_solve"] = rows
        record["spans"] = tracer.spans
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    # The result line carries exactly the metrics BENCHMARK.json declares.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {
        spec["name"]: metrics[spec["name"]]
        for spec in declared["per_layer" if tracer else "end_to_end"]
    }
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    (OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    print(json.dumps({
        "correct": correct,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
