"""Fixed-memory time series of a run's counters, on the simulated clock.

The tracer (:mod:`repro.obs.tracer`) appends every record it sees, which
is perfect for seconds-long experiments and hopeless for multi-hour soak
runs.  :class:`TimelineRecorder` is the one periodic sampler: it reads a
simulation's collectors (:mod:`repro.obs.registry`) on the *simulated*
clock into per-series ring buffers that decimate by powers of two --
when a series reaches its bin budget, adjacent bins merge pairwise and
the bin stride doubles.  Memory is therefore O(bins) per series
regardless of how long the run lasts, and the resolution degrades
gracefully from fine (recent history at the base interval) to coarse
(the whole run at ``bin_s``).  Its series reach a file as ``timeline``
records of the ``repro.trace/1`` format (:mod:`repro.obs.export`).

Two series kinds, with different merge semantics:

* **counter** series store the *per-bin delta* of a monotone cumulative
  count.  Every count starts from zero when a simulation attaches its
  collectors (:meth:`TimelineRecorder.attach`), and merging two adjacent
  bins sums their deltas, so a series' total is what the run's
  simulations counted, exactly, across any number of decimations.
* **gauge** series store the *last sampled value* of each bin.  Merging
  keeps the later bin's value (last-write-wins), which is the natural
  downsample for a reading.  A collector value is a gauge when it is no
  count (:func:`is_gauge`): hit rates, sizes and pool occupancy.

Determinism: sampling happens on sim-clock ticks scheduled by the
harness, values come from the collectors, and bin timestamps are pure
functions of sim time -- nothing reads the wall clock, so two same-seed
runs produce byte-identical records.

Worked example -- a counter sampled far past the bin budget keeps its
total through decimation while memory stays bounded::

    >>> from repro.obs.timeline import TimelineRecorder
    >>> events = {"count": 0}
    >>> recorder = TimelineRecorder(interval_s=1.0, bins=8)
    >>> recorder.attach({"demo": lambda: {"events": events["count"]}})
    >>> for tick in range(64):
    ...     events["count"] += 3
    ...     recorder.sample(float(tick))
    >>> series = recorder.series("demo.events")
    >>> len(series.points) <= 8, recorder.bin_s, series.total()
    (True, 8.0, 192)
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from repro.obs.registry import Collector, MetricsRegistry

#: Series kinds.
COUNTER = "counter"
GAUGE = "gauge"

#: Collector values that are readings, not counts (see :func:`is_gauge`).
_GAUGE_SUFFIXES = (".hit_rate", ".size")
_GAUGE_NAMES = frozenset({"mempool.pool_txs", "mempool.pool_bytes"})


def is_gauge(name: str) -> bool:
    """Whether a collector value is a reading rather than a monotone count.

    >>> is_gauge("caches.sketch.decode.hit_rate"), is_gauge("net.delivered")
    (True, False)
    """
    return name.endswith(_GAUGE_SUFFIXES) or name in _GAUGE_NAMES


class TimelineSeries:
    """One named series: a bounded list of ``[bin_start, value]`` points.

    ``points`` timestamps are bin *starts* at the owning recorder's
    current stride, strictly increasing.  Counter points hold per-bin
    deltas, gauge points the bin's last sampled value (see module
    docstring).
    """

    __slots__ = ("name", "kind", "points")

    def __init__(self, name: str, kind: str):
        if kind not in (COUNTER, GAUGE):
            raise ValueError(f"unknown series kind {kind!r}")
        self.name = name
        self.kind = kind
        self.points: List[List[float]] = []

    def total(self) -> float:
        """Sum of the stored values (for counters: the conserved total)."""
        return sum(value for _t, value in self.points)

    def last(self) -> Optional[float]:
        """The most recent stored value, or ``None`` for an empty series."""
        return self.points[-1][1] if self.points else None

    def values(self) -> List[float]:
        """The stored values in time order."""
        return [value for _t, value in self.points]

    def _add(self, bin_start: float, value: float) -> None:
        """Accumulate ``value`` into the bin starting at ``bin_start``."""
        points = self.points
        if points and points[-1][0] == bin_start:
            if self.kind == COUNTER:
                points[-1][1] += value
            else:
                points[-1][1] = value
        else:
            points.append([bin_start, value])

    def _decimate(self, new_bin_s: float) -> None:
        """Re-bin every point onto the doubled stride, merging pairs."""
        points, self.points = self.points, []
        for t, value in points:
            self._add((t // new_bin_s) * new_bin_s, value)

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TimelineSeries({self.name!r}, {self.kind},"
                f" {len(self.points)} points)")


class TimelineRecorder:
    """Samples a simulation's collectors into power-of-two-decimating buffers.

    ``interval_s`` is the base sampling interval on the simulated clock
    (the harness schedules :meth:`sample` ticks at this period, and one
    more at the end of each run); ``bins`` is the per-series point budget
    and must be a power of two.  All series share one stride (``bin_s``),
    which starts at ``interval_s`` and doubles whenever any series would
    exceed the budget -- so timestamps line up across series and total
    memory is O(series x bins) for the whole run.

    ``sink`` may be set to a :class:`repro.obs.live.TelemetrySink`; the
    harness then flushes live progress snapshots alongside sampling.
    """

    def __init__(self, interval_s: float = 0.5, bins: int = 256):
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        if bins < 4 or bins & (bins - 1):
            raise ValueError(f"bins must be a power of two >= 4, got {bins}")
        self.registry = MetricsRegistry()
        self.interval_s = float(interval_s)
        self.bins = bins
        self.bin_s = float(interval_s)
        self.sink = None  # optional live TelemetrySink (set by the CLI)
        self._series: Dict[str, TimelineSeries] = {}
        self._counter_last: Dict[str, float] = {}
        self._origin = 0.0  # where the attached simulation's t = 0 lies
        self._latest = 0.0  # the latest time recorded

    def attach(self, collectors: Mapping[str, Collector]) -> None:
        """Sample ``collectors`` from now on, each count starting from zero.

        Replaces whatever was attached before: a simulation's counts start
        at zero when it is built, so the previous one's last values are no
        baseline for them.  Series already recorded keep their points, and
        a count's series total becomes the sum over the simulations.  The
        new simulation's clock also starts at zero, so its times are
        recorded after the latest one so far: the series of a run of
        several simulations lie end to end on one axis.
        """
        self.registry = MetricsRegistry(collectors)
        self._counter_last.clear()
        self._origin = self._latest

    # ------------------------------------------------------------ sampling

    def series_names(self) -> List[str]:
        """Sorted names of every recorded series."""
        return sorted(self._series)

    def series(self, name: str) -> Optional[TimelineSeries]:
        """The named series, or ``None`` if it never appeared."""
        return self._series.get(name)

    def _series_for(self, name: str, kind: str) -> TimelineSeries:
        series = self._series.get(name)
        if series is None:
            series = TimelineSeries(name, kind)
            self._series[name] = series
        return series

    def sample(self, t: float) -> None:
        """Absorb one collector snapshot taken at simulated time ``t``.

        A count records its growth since the previous sample, or since
        :meth:`attach` for its first one; a gauge records its value.
        """
        counters = self.registry.snapshot()["counters"]
        bin_start = self._bin_start(t)
        counter_last = self._counter_last
        for name, value in counters.items():
            if is_gauge(name):
                self._series_for(name, GAUGE)._add(bin_start, value)
            else:
                delta = value - counter_last.get(name, 0)
                counter_last[name] = value
                self._series_for(name, COUNTER)._add(bin_start, delta)
        self._maybe_decimate()

    def record_gauge(self, name: str, t: float, value: float) -> None:
        """Record one gauge observation that no collector reports.

        For quantities the harness derives itself (e.g. the mean fee
        floor across nodes).
        """
        self._series_for(name, GAUGE)._add(self._bin_start(t), float(value))
        self._maybe_decimate()

    def _bin_start(self, t: float) -> float:
        """The bin of simulated time ``t``; never one before the latest."""
        self._latest = max(self._latest, self._origin + t)
        return (self._latest // self.bin_s) * self.bin_s

    def _maybe_decimate(self) -> None:
        while any(len(s) > self.bins for s in self._series.values()):
            self.bin_s *= 2.0
            for series in self._series.values():
                series._decimate(self.bin_s)

    # ------------------------------------------------------------- export

    def timeline_records(self) -> List[Dict[str, Any]]:
        """One ``timeline`` record per series, sorted by name.

        The record shape is the one :mod:`repro.obs.schema` validates:
        ``{"type": "timeline", "name": str, "kind": "counter"|"gauge",
        "bin_s": float, "points": [[t, v], ...]}``.
        """
        records = []
        for name in self.series_names():
            series = self._series[name]
            records.append({
                "type": "timeline",
                "name": name,
                "kind": series.kind,
                "bin_s": self.bin_s,
                "points": [[t, v] for t, v in series.points],
            })
        return records
