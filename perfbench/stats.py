"""Order statistics and metric units shared by the runner and the compare step."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10  # items that must lie beyond the reported tail percentile


def quartiles(values: list) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: list):
    """The highest percentile with at least ``TAIL_BEYOND`` items beyond it.

    Returns ``(percentile, value, samples)``, or ``None`` on fewer than
    ``2 * TAIL_BEYOND`` samples, where that percentile would lie below the
    median and so would not be a tail.
    """
    n = len(values)
    if n < 2 * TAIL_BEYOND:
        return None
    ordered = sorted(values)
    index = n - TAIL_BEYOND - 1  # ordered[index] has TAIL_BEYOND items after it
    return 100.0 * (index + 1) / n, ordered[index], n


def describe(name: str) -> tuple:
    """(unit, better) of any metric the runner reports."""
    fixed = {
        "items_per_s": ("1/s", "higher"),
        "item_p50_ms": ("ms", "lower"),
        "item_tail_ms": ("ms", "lower"),
        "setup_s": ("s", "lower"),
        "peak_rss_mb": ("MiB", "lower"),
        "failed_frac": ("ratio", "lower"),
        "trace_overhead_frac": ("ratio", "lower"),
    }
    if name in fixed:
        return fixed[name]
    suffix = name.rsplit(".", 1)[-1]
    return {
        "calls": ("count", "lower"),
        "self_s": ("s", "lower"),
        "ops": ("count", "lower"),
        "points": ("count", "lower"),
        "bytes": ("B", "lower"),
        "ops_per_s": ("1/s", "higher"),
        "points_per_s": ("1/s", "higher"),
        "calls_per_item": ("ratio", "lower"),
    }[suffix]
