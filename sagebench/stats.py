"""Order statistics shared by every workload.

Latency percentiles follow one rule: a tail percentile is reported only
where at least :data:`MIN_BEYOND` samples lie beyond it, so a "p99" is
never the maximum of a short run.  :func:`tail` picks the highest such
percentile, capped at ``cap`` and floored at the median.

The bounded end-to-end tail is capped at p90 (:data:`BOUNDED_TAIL`):
``spec_edit``'s latency is bimodal, with about 1% of edits 20-1000x
slower than the rest, so its p99 sits on that cliff and moves 3x from seed
to seed.  The p99 is still reported where it has enough samples.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10
#: Highest percentile of the bounded ``op_cpu_tail_ms`` metric.
BOUNDED_TAIL = 90.0


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_q(count: int, cap: float = 99.0) -> float:
    """The highest percentile with :data:`MIN_BEYOND` samples beyond it,
    within [50, cap]."""
    if count <= 0:
        return 50.0
    return min(cap, max(50.0, 100.0 * (1.0 - MIN_BEYOND / count)))


def tail(values, cap: float = 99.0) -> tuple[float, float]:
    """``(percentile, value)`` of the reportable tail of ``values``."""
    q = tail_q(len(values), cap)
    return q, percentile(values, q)


def median(values) -> float:
    return statistics.median(values)

