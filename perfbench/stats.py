"""Summary statistics for timing samples."""

from __future__ import annotations

import statistics

# Tail percentiles in tenths of a percent, tried from the highest down; each
# needs ten samples beyond it.
TAIL_LEVELS = (999, 990, 900, 500)
SAMPLES_BEYOND = 10


def tail_percentile(samples: list[float]) -> tuple[float, float, int] | None:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(level, value, count)``, with the value read by the
    nearest-rank rule, or None when even the median lacks ten samples above it.
    """
    ordered = sorted(samples)
    count = len(ordered)
    for level in TAIL_LEVELS:
        rank = -(-level * count // 1000)  # nearest rank, 1-based
        if count - rank >= SAMPLES_BEYOND:
            return level / 10, ordered[rank - 1], count
    return None


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
