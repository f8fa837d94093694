"""Traced run: spans around the calls the pipeline makes, counters below them.

The tracer replaces names from the outside and puts them back afterwards;
the package itself is not edited.  It wraps

* the five names ``twopack.pipeline`` calls (``reduce``, ``square``,
  ``exact_mis``, ``heuristic_mis``, ``reconstruct``) with spans;
* ``TwoLevelGraph.materialize_two_neighborhood`` and ``remove_vertex`` with a
  call count and accumulated time only, since they run up to ~10^5 times per
  solve;
* each entry of the reduction scheduler's rule table with a probe count.

Spans stay in memory as ``[solve, name, start, end, parent]`` lists until the
run writes them out.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Any, Callable

import twopack.pipeline as pipeline
import twopack.reductions as reductions
from twopack import TwoLevelGraph

PIPELINE_CALLS = ("reduce", "square", "exact_mis", "heuristic_mis", "reconstruct")

# Span name -> per-layer metric that carries its self time.
SELF_TIME_METRIC = {
    "solve_m2s": "pipeline.self_s",
    "reduce": "reductions.reduce_s",
    "square": "transform.square_s",
    "exact_mis": "mis.exact_s",
    "heuristic_mis": "mis.heuristic_s",
    "reconstruct": "pipeline.reconstruct_s",
    "parse_metis": "graphio.parse_s",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()
        # Per solve: the budget and results the back end saw.
        self.mis: dict[int, dict[str, float]] = {}
        self._solve: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # -- spans -----------------------------------------------------------------

    def span(self, name: str, func: Callable, *args: Any, solve: int | None = None) -> Any:
        """Call ``func(*args)`` inside a span; a ``solve`` id starts a new solve."""
        if solve is not None:
            self._solve = solve
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [self._solve, name, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            return func(*args)
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def _spanned(self, name: str, func: Callable) -> Callable:
        def wrapped(*args: Any, **kwargs: Any) -> Any:
            return self.span(name, lambda: func(*args, **kwargs))

        return wrapped

    def _mis(self, name: str, func: Callable) -> Callable:
        def wrapped(sq: Any, deadline: Any, *args: Any, **kwargs: Any) -> Any:
            result = self.span(name, lambda: func(sq, deadline, *args, **kwargs))
            self.mis[self._solve] = {
                "budget_s": deadline.seconds,
                "time_to_best_s": result.time_to_best,
            }
            return result

        return wrapped

    # -- counters ----------------------------------------------------------------

    def _materialize(self, func: Callable) -> Callable:
        counts, seconds = self.counts, self.seconds

        def wrapped(g: TwoLevelGraph, v: int) -> Any:
            fresh = not g.is_materialized(v)
            t0 = time.perf_counter()
            try:
                return func(g, v)
            finally:
                seconds["graph.materialize_s"] += time.perf_counter() - t0
                counts[self._solve, "graph.materialize_calls"] += 1
                if fresh:
                    counts[self._solve, "graph.materializations"] += 1

        return wrapped

    def _remove(self, func: Callable) -> Callable:
        counts, seconds = self.counts, self.seconds

        def wrapped(g: TwoLevelGraph, w: int, mark: Any) -> Any:
            t0 = time.perf_counter()
            try:
                return func(g, w, mark)
            finally:
                seconds["graph.remove_s"] += time.perf_counter() - t0
                counts[self._solve, "graph.removals"] += 1

        return wrapped

    def _probe(self, func: Callable) -> Callable:
        counts = self.counts

        def wrapped(*args: Any) -> Any:
            counts[self._solve, "reductions.probes"] += 1
            return func(*args)

        return wrapped

    # -- install / restore -----------------------------------------------------

    def _replace(self, owner: Any, name: str, new: Any) -> None:
        if isinstance(owner, dict):
            self._saved.append((owner, name, owner[name]))
            owner[name] = new
        else:
            self._saved.append((owner, name, getattr(owner, name)))
            setattr(owner, name, new)

    def __enter__(self) -> Tracer:
        for name in PIPELINE_CALLS:
            func = getattr(pipeline, name)
            wrap = self._mis(name, func) if name.endswith("_mis") else self._spanned(name, func)
            self._replace(pipeline, name, wrap)
        self._replace(
            TwoLevelGraph,
            "materialize_two_neighborhood",
            self._materialize(TwoLevelGraph.materialize_two_neighborhood),
        )
        self._replace(TwoLevelGraph, "remove_vertex", self._remove(TwoLevelGraph.remove_vertex))
        for kind, func in list(reductions._RULE_FUNCS.items()):
            self._replace(reductions._RULE_FUNCS, kind, self._probe(func))
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._saved:
            owner, name, old = self._saved.pop()
            if isinstance(owner, dict):
                owner[name] = old
            else:
                setattr(owner, name, old)
        self._solve = None

    # -- analysis ------------------------------------------------------------------

    def self_times(self) -> dict[int | None, dict[str, float]]:
        """Per solve (``None`` for set-up): self time per layer metric.

        A span's self time is its duration minus the durations of its child
        spans, so per solve the values add up to the root span's duration.
        """
        child_time = [0.0] * len(self.spans)
        for solve, name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[int | None, dict[str, float]] = {}
        for idx, (solve, name, start, end, parent) in enumerate(self.spans):
            metric = SELF_TIME_METRIC[name]
            row = out.setdefault(solve, {})
            row[metric] = row.get(metric, 0.0) + (end - start) - child_time[idx]
        return out

    def solve_counts(self, solve: int) -> dict[str, int]:
        return {key: n for (s, key), n in self.counts.items() if s == solve}
