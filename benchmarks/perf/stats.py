"""Order statistics the benchmark reports: medians, quartiles, percentiles."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: candidate tail percentiles, lowest first
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)

#: a tail percentile is reported only with this many samples beyond it
MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100] of ``values`` (non-empty)."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


def highest_supported_percentile(n: int) -> float | None:
    """The highest candidate percentile with >= MIN_BEYOND of ``n`` samples beyond it.

    A p95 is an estimate of the slowest 5 %; with fewer than ten samples
    in that tail it is one or two outliers, not a percentile.
    """
    # the 1e-9 absorbs float error in e.g. 10_000 * (100 - 99.9) / 100
    supported = [q for q in PERCENTILES if n * (100.0 - q) / 100.0 >= MIN_BEYOND - 1e-9]
    return supported[-1] if supported else None


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q1, statistics.median(values), q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one sample)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def summarize(values: Sequence[float]) -> dict[str, float]:
    """Median, quartiles, spread and sample count of one metric's samples."""
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": spread(values), "n": len(values)}
