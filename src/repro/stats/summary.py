"""Running summaries and percentile helpers for experiment reports."""

from __future__ import annotations

import math
from typing import Iterable, Sequence


class RunningSummary:
    """Welford-style online mean/variance plus min/max and count."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def record(self, value: float) -> None:
        value = float(value)
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.record(value)

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("mean of an empty summary")
        return self._mean

    @property
    def variance(self) -> float:
        """Sample (n-1) variance; zero for fewer than two samples."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "RunningSummary") -> "RunningSummary":
        """Combine two summaries (parallel aggregation of repetitions)."""
        merged = RunningSummary()
        merged.count = self.count + other.count
        if merged.count == 0:
            return merged
        delta = other._mean - self._mean
        merged._mean = self._mean + delta * (other.count / merged.count)
        merged._m2 = (
            self._m2
            + other._m2
            + delta * delta * self.count * other.count / merged.count
        )
        merged.minimum = min(self.minimum, other.minimum)
        merged.maximum = max(self.maximum, other.maximum)
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.count == 0:
            return "RunningSummary(empty)"
        return (
            f"RunningSummary(n={self.count}, mean={self._mean:.6f}, "
            f"sd={self.stddev:.6f}, min={self.minimum:.6f}, max={self.maximum:.6f})"
        )


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100].

    The fault campaigns use the nearest-rank
    :func:`repro.experiments.campaign.percentile` (``q`` in [0, 1], +inf
    on an empty sample) instead; their p99 gates are defined on it.
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile level {q!r} outside [0, 100]")
    ordered = sorted(float(v) for v in values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    frac = rank - low
    # a + frac * (b - a) is exact when a == b (the symmetric weighted form
    # can wobble below min/max by one ulp).
    return ordered[low] + frac * (ordered[high] - ordered[low])
