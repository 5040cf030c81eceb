"""Order statistics used by the report and by compare.py."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def tail(values, beyond: int = TAIL_BEYOND):
    """The highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile, n), or None when there are too few
    samples: with n sorted samples the answer is the (n - beyond)-th
    smallest, the percentile 100 (n - beyond) / n.
    """
    n = len(values)
    if n <= beyond:
        return None
    ordered = sorted(values)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n
