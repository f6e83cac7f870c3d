"""The few order statistics the benchmark reports."""

from __future__ import annotations

import statistics
from typing import Sequence

#: Samples that must lie beyond a percentile before it may be reported.
TAIL_SAMPLES = 10


def quartiles(samples: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them; a
    single sample is its own quartiles."""
    if len(samples) < 2:
        return (samples[0],) * 3
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def relative_iqr(samples: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median (0 for one sample)."""
    q1, q2, q3 = quartiles(samples)
    return (q3 - q1) / q2 if q2 else 0.0


def high_percentile(samples: Sequence[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the highest order statistic that still has
    :data:`TAIL_SAMPLES` samples beyond it.

    With fewer than ``TAIL_SAMPLES + 1`` samples no percentile qualifies, so
    the median is returned and labelled as the 50th: the caller prints the
    percentile and the sample count next to the value either way.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        return statistics.median(ordered), 50.0
    index = n - 1 - TAIL_SAMPLES
    return ordered[index], 100.0 * (index + 1) / n
