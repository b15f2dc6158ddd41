"""Small, dependency-free statistics helpers.

Experiments report means, percentiles and density histograms (e.g. the
Fig. 7 latency density).  These helpers avoid pulling numpy into library
code; benchmarks may still use numpy for their own analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence (explicitly defined)."""
    return sum(values) / len(values) if values else 0.0


def stddev(values: Sequence[float]) -> float:
    """Population standard deviation; 0.0 for fewer than two samples."""
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / len(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    frac = rank - low
    a, b = ordered[low], ordered[high]
    # a + (b-a)*frac, clamped: plain lerp can escape [a, b] by an ulp for
    # large magnitudes, breaking percentile monotonicity.
    return min(max(a + (b - a) * frac, a), b)


def describe(values: Sequence[float]) -> Dict[str, float]:
    """Summary statistics dictionary used by experiment reports."""
    if not values:
        return {"count": 0, "mean": 0.0, "std": 0.0, "min": 0.0, "p50": 0.0,
                "p90": 0.0, "p99": 0.0, "max": 0.0}
    return {
        "count": len(values),
        "mean": mean(values),
        "std": stddev(values),
        "min": min(values),
        "p50": percentile(values, 50),
        "p90": percentile(values, 90),
        "p99": percentile(values, 99),
        "max": max(values),
    }


@dataclass
class Histogram:
    """Fixed-bin histogram with density normalisation (Fig. 7 style)."""

    low: float
    high: float
    bins: int

    def __post_init__(self) -> None:
        if self.bins < 1:
            raise ValueError(f"bins must be >= 1, got {self.bins}")
        if self.high <= self.low:
            raise ValueError(f"empty range [{self.low}, {self.high}]")
        self.counts: List[int] = [0] * self.bins
        self.underflow = 0
        self.overflow = 0
        self.total = 0

    def add(self, value: float) -> None:
        """Record one sample."""
        self.total += 1
        if value < self.low:
            self.underflow += 1
            return
        if value >= self.high:
            self.overflow += 1
            return
        width = (self.high - self.low) / self.bins
        self.counts[int((value - self.low) / width)] += 1

    def add_all(self, values: Sequence[float]) -> None:
        """Record many samples."""
        for value in values:
            self.add(value)

    def density(self) -> List[Tuple[float, float]]:
        """(bin centre, probability density) pairs, normalised over in-range mass."""
        width = (self.high - self.low) / self.bins
        in_range = sum(self.counts)
        if in_range == 0:
            return [(self.low + (i + 0.5) * width, 0.0) for i in range(self.bins)]
        return [
            (self.low + (i + 0.5) * width, count / (in_range * width))
            for i, count in enumerate(self.counts)
        ]
