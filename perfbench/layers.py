"""Per-layer metrics and the per-layer report of a traced run."""

from __future__ import annotations

import statistics
from typing import Any

from tracer import SELF_TIME_METRIC, Tracer
from twopack import ReductionKind, SolverMode
from workloads import Corpus, Workload

SOLVE_LAYERS = [m for name, m in SELF_TIME_METRIC.items() if name != "parse_metis"]
COUNTS = ("reductions.probes", "graph.materialize_calls", "graph.materializations", "graph.removals")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    w: Workload,
    tracer: Tracer,
    attempts: list[Any],
    corpus: Corpus,
    parse_s: float,
    e2e: dict[str, tuple[float, str]],
) -> tuple[dict[str, dict[str, Any]], list[dict[str, Any]]]:
    """Per-layer metrics of a traced run, and one row per traced solve.

    Times are means per traced solve, except ``graphio.parse_s``: the median
    over set-ups of the time to parse the whole corpus.  Counts are sums over
    the quality set, which every run solves, so they repeat exactly under
    node budgets.
    """
    selfs = tracer.self_times()
    traced = [a for a in attempts if a.traced and a.solution is not None]
    plain = [a for a in attempts if not a.traced and a.solution is not None]
    exact = w.config.mode is SolverMode.EXACT
    rows = []
    for a in traced:
        sol = a.solution
        row = {"solve": a.iteration, "instance": a.index, "wall_s": a.wall}
        row.update({m: selfs.get(a.iteration, {}).get(m, 0.0) for m in SOLVE_LAYERS})
        row.update({k: 0 for k in COUNTS})
        row.update(tracer.solve_counts(a.iteration))
        row.update({
            "reductions.firings": sum(sol.kernel.rule_counts.values()),
            "reductions.kernel_n": sol.kernel.n_kernel,
            "reductions.kernel_m": sol.kernel.m_kernel,
            "reductions.kernel_m2": sol.kernel.m2_kernel,
            "reductions.offset": sol.kernel.offset,
            "transform.n_sq": sol.kernel.n_square or 0,
            "transform.m_sq": sol.kernel.m_square or 0,
            "mis.nodes": sol.mis_nodes if exact else 0,
            "mis.ils_iters": 0 if exact else sol.mis_nodes,
        })
        for kind in ReductionKind:
            row[f"reductions.firings.{kind.value}"] = sol.kernel.rule_counts.get(kind, 0)
        rows.append(row)

    n = len(rows)
    quality = [r for r in rows if r["solve"] < w.quality]
    out: dict[str, tuple[float, str]] = {}

    def mean_s(metric: str) -> float:
        return _ratio(sum(r[metric] for r in rows), n)

    def total(metric: str) -> int:
        return sum(r[metric] for r in quality)

    out["graphio.parse_s"] = (parse_s, "s")
    out["graphio.parse_mb_per_s"] = (_ratio(sum(map(len, corpus.texts)) / 1e6, parse_s), "MB/s")
    for metric in SOLVE_LAYERS:
        out[metric] = (mean_s(metric), "s")
    for metric in ("graph.materialize_s", "graph.remove_s"):
        out[metric] = (_ratio(tracer.seconds[metric], n), "s")
    counted = list(COUNTS) + [
        "reductions.firings",
        *(f"reductions.firings.{k.value}" for k in ReductionKind),
        "reductions.kernel_n",
        "reductions.kernel_m",
        "reductions.kernel_m2",
        "reductions.offset",
        "transform.n_sq",
        "transform.m_sq",
        "mis.nodes",
        "mis.ils_iters",
    ]
    for metric in counted:
        out[metric] = (total(metric), "count")
    out["reductions.fire_ratio"] = (
        _ratio(total("reductions.firings"), total("reductions.probes")),
        "ratio",
    )
    for work, busy in (("mis.nodes", "mis.exact_s"), ("mis.ils_iters", "mis.heuristic_s")):
        rate = _ratio(sum(r[work] for r in rows), sum(r[busy] for r in rows))
        out[f"{work}_per_s"] = (rate, "1/s")
    seen = [tracer.mis[r["solve"]] for r in rows if r["solve"] in tracer.mis]
    out["mis.time_to_best_s"] = (_ratio(sum(s["time_to_best_s"] for s in seen), len(seen)), "s")
    out["mis.budget_s"] = (_ratio(sum(s["budget_s"] for s in seen), len(seen)), "s")
    untraced_p50 = statistics.median(a.wall for a in plain)
    out["trace.overhead"] = (statistics.median(a.wall for a in traced) / untraced_p50 - 1, "ratio")
    for name in ("proven_share", "deadline_overrun_s.p50", "failed_share"):
        out[name] = e2e[name]
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in out.items()}
    return metrics, rows


def print_report(metrics: dict[str, dict[str, Any]], rows: list[dict[str, Any]], quality: int) -> None:
    solve_s = sum(r["wall_s"] for r in rows) / len(rows)
    print(f"per-layer self time, mean of {len(rows)} traced solves ({solve_s:.6f} s each):")
    for metric in SOLVE_LAYERS:
        value = metrics[metric]["value"]
        print(f"  {metric:<26} {value:>12.6f} s  {100 * value / solve_s:6.2f} %")
    residual = max(abs(sum(r[m] for m in SOLVE_LAYERS) - r["wall_s"]) for r in rows)
    print(f"  layer self times sum to the solve time within {residual * 1e6:.1f} us per solve")
    print("per solve (quality set): " + ", ".join(m.split(".")[-1] for m in SOLVE_LAYERS))
    for r in rows:
        if r["solve"] < quality:
            cells = " ".join(f"{r[m]:.4f}" for m in SOLVE_LAYERS)
            print(f"  solve {r['solve']:>3} wall {r['wall_s']:.4f}  {cells}")
    print("counters and rates:")
    for name, m in metrics.items():
        if name not in SOLVE_LAYERS:
            print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
