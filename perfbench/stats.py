"""Summary statistics the benchmark reports."""

from __future__ import annotations

import statistics
from typing import Sequence

TAIL_BEYOND = 10
TRIM_SHARE = 0.1


def tail(samples: Sequence[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest percentile that still has ``beyond`` samples above it.

    Returns (value, percentile, sample count).  The value is the sample with
    exactly ``beyond`` samples ranked above it, so its percentile is
    100 * (n - beyond) / n.  Fewer than beyond + 1 samples have no such
    percentile and raise ValueError.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    return sorted(samples)[n - beyond - 1], 100.0 * (n - beyond) / n, n


def trimmed_mean(samples: Sequence[float], share: float = TRIM_SHARE) -> float:
    """Mean after dropping floor(share * n) samples from each end of the sorted samples."""
    ordered = sorted(samples)
    cut = int(share * len(ordered))
    return float(statistics.fmean(ordered[cut : len(ordered) - cut]))


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))


def quartile_spread(samples: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / q2
