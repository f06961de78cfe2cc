"""Order statistics and the regression rule the benchmark gates with."""

from __future__ import annotations

import statistics


def median(values) -> float:
    """The median of a non-empty iterable."""
    return statistics.median(list(values))


def quartiles(values) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives
    them; a single value is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0]
    q1, __, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0 when there is no whole."""
    return part / whole if whole else 0.0


def verdict(base, new, bound: float, better: str) -> str:
    """Compare two samples of one metric by their medians.

    ``"worse"`` when ``new``'s median is worse than ``base``'s by more
    than ``bound`` (a share of the base median), ``"better"`` when it
    is better by more than that, else ``"same"``.
    """
    base_median = median(base)
    change = (median(new) - base_median) / base_median
    if better == "lower":
        change = -change
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "same"
