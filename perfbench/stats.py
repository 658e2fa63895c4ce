"""The benchmark's one latency and percentile helper.

Percentiles use the nearest-rank definition: the p-th percentile of n
sorted samples is the sample at rank ceil(p/100 * n).  A tail figure is
only meaningful when samples exist beyond it, so :func:`tail` reports
the highest percentile (at most ``want``) with at least ``BEYOND``
samples ranked above it, and says which percentile that was.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: Samples a tail percentile must have beyond it to be reported.
BEYOND = 10


def nearest_rank(ordered: Sequence[float], percent: float) -> float:
    """Nearest-rank percentile of already sorted samples."""
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail(values: Sequence[float], want: float = 99.0
         ) -> tuple[Optional[float], Optional[float]]:
    """``(percentile, value)`` of the highest nearest-rank percentile
    <= ``want`` that has at least :data:`BEYOND` samples beyond it, or
    ``(None, None)`` when there are too few samples for any."""
    ordered = sorted(values)
    n = len(ordered)
    rank = min(math.ceil(want / 100.0 * n), n - BEYOND)
    if rank < 1:
        return None, None
    return 100.0 * rank / n, ordered[rank - 1]


def summary(values: Sequence[float], want: float = 99.0) -> dict:
    """Median, tail percentile (see :func:`tail`) and sample count."""
    if not values:
        return {"count": 0, "p50": None, "tail_percentile": None,
                "tail": None}
    percent, value = tail(values, want)
    return {"count": len(values),
            "p50": nearest_rank(sorted(values), 50.0),
            "tail_percentile": percent, "tail": value}


class OpenLoop:
    """Fixed-rate request schedule for an open-loop client.

    Request ``i`` is due at ``start + i / rate`` whatever happened to
    earlier requests, so a stall shows as latency on every request
    queued behind it.  Latency is measured from the due time, and the
    generator's own lateness (send time minus due time) is kept so a
    run where the client, not the server, fell behind can be told
    apart.
    """

    def __init__(self, rate: float, start: float, duration: float):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self.start = start
        self.count = int(rate * duration)
        self.lateness: list[float] = []

    def due(self, index: int) -> float:
        return self.start + index / self.rate

    def sent(self, index: int, at: float) -> None:
        self.lateness.append(max(0.0, at - self.due(index)))
