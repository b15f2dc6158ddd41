"""Sliding-window steady-state detection over timeline series.

Long soak experiments (multi-hour admission runs where the fee floor and
age expiry settle) should stop when the watched quantities stop moving,
not at an arbitrary horizon.  :class:`SteadyStateMonitor` watches chosen
:class:`~repro.obs.timeline.TimelineRecorder` series and declares steady
state when, over the last ``window_bins`` completed bins, every watched
series' values stay within a relative band:

* **gauge** series (fee floor, pool occupancy) are judged on their raw
  values;
* **counter** series (deliveries, admissions) are judged on their per-bin
  *rates* (delta divided by bin width), so a counter that keeps growing
  at a constant rate is steady while an accelerating one is not.

The most recent bin is excluded from the window: it is still filling, so
its delta under-reports the rate and its gauge value may predate the
latest sample.

Everything here is a pure function of the timeline contents, which are
themselves deterministic -- ``run --until-steady`` stops at the same
simulated time on every same-seed run.

>>> from repro.obs.steady import window_is_steady
>>> window_is_steady([100.0, 100.4, 99.8, 100.1], rel_tol=0.05)
True
>>> window_is_steady([100.0, 140.0, 180.0, 220.0], rel_tol=0.05)
False
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.obs.timeline import COUNTER, TimelineRecorder

#: Series watched by default when the admission pipeline is active: the
#: dynamic fee floor and pool occupancy are the quantities the ROADMAP's
#: soak experiments need to reach equilibrium.
DEFAULT_STEADY_SERIES = (
    "mempool.fee_floor_avg",
    "mempool.pool_txs_avg",
)


def window_is_steady(values: Sequence[float], rel_tol: float = 0.05,
                     abs_tol: float = 1e-9) -> bool:
    """Whether a window of values has stopped drifting.

    Steady iff the spread (max - min) stays within ``abs_tol +
    rel_tol * scale``, where the scale is the window's largest magnitude.
    An all-zero window is steady (spread 0 <= abs_tol).
    """
    if not values:
        return False
    low, high = min(values), max(values)
    scale = max(abs(low), abs(high))
    return (high - low) <= abs_tol + rel_tol * scale


class SteadyStateMonitor:
    """Declares steady state over chosen timeline series.

    ``series`` names must exist in the timeline before the monitor can
    report steady (a never-recorded series keeps the answer ``False``
    rather than silently passing).  ``window_bins`` is the number of
    completed bins each series must hold *and* satisfy
    :func:`window_is_steady` (at its default tolerances) over.
    """

    def __init__(
        self,
        timeline: TimelineRecorder,
        series: Optional[Iterable[str]] = None,
        window_bins: int = 12,
    ):
        if window_bins < 2:
            raise ValueError(f"window_bins must be >= 2, got {window_bins}")
        self.timeline = timeline
        self.series = tuple(series) if series is not None \
            else DEFAULT_STEADY_SERIES
        if not self.series:
            raise ValueError("monitor needs at least one series to watch")
        self.window_bins = window_bins

    def window_values(self, name: str) -> List[float]:
        """The judged window for one series (empty when not yet eligible).

        The last (still-filling) bin is dropped; counters are converted
        to per-bin rates using the timeline's current stride.
        """
        series = self.timeline.series(name)
        if series is None or len(series.points) < self.window_bins + 1:
            return []
        window = series.points[-(self.window_bins + 1):-1]
        if series.kind == COUNTER:
            bin_s = self.timeline.bin_s
            return [value / bin_s for _t, value in window]
        return [value for _t, value in window]

    def check(self) -> bool:
        """Whether every watched series is currently steady."""
        for name in self.series:
            values = self.window_values(name)
            if not values:
                return False
            if not window_is_steady(values):
                return False
        return True
