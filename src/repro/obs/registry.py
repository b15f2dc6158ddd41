"""Unified metrics registry: named counters, gauges and histograms.

The repository grew several ad-hoc measurement surfaces -- the
:mod:`repro.obs.caches` hit/miss counters, the network's per-type byte
meters, the chaos injector's per-fault counters, the harness's wire
violation totals.  This registry absorbs them into one namespace so a
single :meth:`MetricsRegistry.snapshot` captures the whole system, either
on demand (the ``run --json`` report) or periodically into a trace
(:meth:`repro.obs.tracer.Tracer.snapshot_metrics`).

Two ways in:

* **owned instruments** -- code calls :meth:`counter` / :meth:`gauge` /
  :meth:`histogram` and mutates the returned object inline (hot paths keep
  a reference; instruments are plain attribute math, allocation-free after
  creation);
* **collectors** -- an existing subsystem keeps its own counters and
  registers a callable returning ``{name: number}``; its output is merged
  into the counter namespace under ``<collector>.<name>`` at snapshot
  time.  Registering under an existing collector name replaces it, so a
  fresh simulation in the same process supersedes the previous one's
  sources instead of double-reporting.

Snapshots are plain JSON-able dicts with deterministically sorted keys.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional


class Counter:
    """A monotonically increasing named value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, by: int = 1) -> None:
        """Add ``by`` (must be >= 0) to the counter."""
        if by < 0:
            raise ValueError(f"counter increment must be >= 0, got {by}")
        self.value += by


class Gauge:
    """A named value that can move both ways."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = float(value)


class Histogram:
    """Streaming summary of observed values (count/total/min/max).

    Full distributions live in :mod:`repro.obs.stats`; this keeps the
    allocation-free summary that a periodic snapshot can afford.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Fold one observation into the summary."""
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Mean of observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        """JSON-able summary dict."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
        }


class MetricsRegistry:
    """One process-wide (or per-run) namespace of instruments + collectors.

    >>> reg = MetricsRegistry()
    >>> reg.counter("demo.hits").inc(3)
    >>> reg.gauge("demo.depth").set(2.5)
    >>> reg.register_collector("ext", lambda: {"bytes": 128})
    >>> snap = reg.snapshot()
    >>> snap["counters"]["demo.hits"], snap["counters"]["ext.bytes"]
    (3, 128)
    >>> snap["gauges"]["demo.depth"]
    2.5
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._collectors: Dict[str, Callable[[], Dict[str, Any]]] = {}

    # ---------------------------------------------------------- instruments

    def counter(self, name: str) -> Counter:
        """Fetch-or-create the counter with this name."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """Fetch-or-create the gauge with this name."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        """Fetch-or-create the histogram with this name."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    # ----------------------------------------------------------- collectors

    def register_collector(
        self, name: str, collect: Callable[[], Dict[str, Any]]
    ) -> None:
        """Attach (or replace) an external counter source.

        ``collect()`` runs at snapshot time and must return a flat
        ``{key: number}`` dict; keys land in the counter namespace as
        ``<name>.<key>``.  Non-numeric values are skipped.
        """
        self._collectors[name] = collect

    def unregister_collector(self, name: str) -> None:
        """Detach a collector (missing names are ignored)."""
        self._collectors.pop(name, None)

    # ------------------------------------------------------------- snapshot

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Capture every instrument and collector as sorted plain dicts."""
        counters: Dict[str, Any] = {
            name: c.value for name, c in self._counters.items()
        }
        for cname in sorted(self._collectors):
            collected = self._collectors[cname]()
            for key, value in collected.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                counters[f"{cname}.{key}"] = value
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.summary()
                for name, h in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        """Drop every instrument and collector (tests, fresh runs)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._collectors.clear()
