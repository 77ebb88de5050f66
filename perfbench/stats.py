"""Sample statistics for the reported timings.

A timing is reported as its median and the highest percentile, up to the
95th, that has at least ten samples beyond it.  With fewer than 40 samples
no tail percentile qualifies and the tail reads as the median.
"""

from __future__ import annotations

import statistics
from typing import Sequence

__all__ = ["MIN_BEYOND", "tail_percentile", "percentile"]

#: samples a tail percentile must have beyond it
MIN_BEYOND = 10

_TAILS = (95, 90, 75)


def tail_percentile(samples: int) -> int:
    """The highest of p95/p90/p75 with ``MIN_BEYOND`` samples beyond it, else 50."""
    for q in _TAILS:
        if samples * (100 - q) >= MIN_BEYOND * 100:
            return q
    return 50


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method; ``q=50`` is the median)."""
    if not values:
        raise ValueError("percentile of no samples")
    if q == 50 or len(values) == 1:
        return float(statistics.median(values))
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])
