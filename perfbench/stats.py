"""Order statistics shared by the run, collect and compare scripts."""

from __future__ import annotations

import statistics
from typing import Sequence


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as ``statistics.quantiles`` gives them."""
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q1, med, q3)


def tail(values: Sequence[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, samples).

    With ``N`` samples sorted ascending that is the ``N - 10``-th one, at
    percentile ``100 * (N - 10) / N``.  With ten samples or fewer no
    percentile qualifies, and the maximum is returned at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no values")
    if n <= 10:
        return (ordered[-1], 100.0, n)
    return (ordered[n - 11], 100.0 * (n - 10) / n, n)
