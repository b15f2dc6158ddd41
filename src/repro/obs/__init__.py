"""``repro.obs``: every measurement this repository reports.

One process-wide tracer (module attribute :data:`TRACER`) defaults to a
no-op :class:`~repro.obs.tracer.NullTracer`; installing a real
:class:`~repro.obs.tracer.Tracer` (``set_tracer``) turns every
instrumented layer -- reconciliation rounds, block build/inspection,
accountability, network delivery, chaos injection, the experiment
harness -- into a sim-clock-stamped event/span stream exportable as
``repro.trace/1`` JSONL or Chrome trace-event JSON (Perfetto).

The tracer, the timeline (:data:`TIMELINE`) and the phase profiler
(:data:`PROFILER`) are three slots with one switch each: a call site
reads the slot once per call and does nothing more while it is off::

    from repro import obs
    _t = obs.TRACER
    if _t.enabled:
        _t.event("acct.suspicion", t=now, node_id=me, accused=peer)

Beside them: :mod:`~repro.obs.caches` (hit/miss counters of the hot-path
caches), :mod:`~repro.obs.stats` (percentiles, density histograms),
:mod:`~repro.obs.trackers` (latency and event trackers),
:mod:`~repro.obs.probes` (convergence probes) and
:mod:`~repro.obs.report` (trace reports, tables and JSON export).

See ``docs/observability.md`` for the span/event inventory and schema.
"""

import gc
from contextlib import contextmanager

from repro.obs.caches import (
    CacheStats,
    cache_stats,
    register_cache,
    reset_cache_stats,
)
from repro.obs.export import (
    chrome_trace,
    export_chrome,
    export_jsonl,
    trace_lines,
    write_jsonl,
)
from repro.obs.live import TelemetrySink, read_telemetry
from repro.obs.phases import PhaseProfiler, classify_callback
from repro.obs.probes import ConvergenceProbe
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.report import format_table, to_jsonable, write_json
from repro.obs.schema import validate_trace_file, validate_trace_lines
from repro.obs.stats import describe, mean, percentile, stddev
from repro.obs.steady import SteadyStateMonitor, window_is_steady
from repro.obs.timeline import (
    TIMELINE_SCHEMA,
    TimelineRecorder,
    TimelineSeries,
    load_timeline,
    validate_timeline_lines,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    TRACE_SCHEMA,
    Tracer,
)
from repro.obs.trackers import EventCounter, LatencyTracker

#: The process-wide tracer.  Instrumented code reads ``obs.TRACER`` once
#: per call (a module attribute lookup, so it stays current after
#: ``set_tracer``) and tests ``enabled`` before doing any work.
TRACER = NULL_TRACER

#: The process-wide timeline recorder (``None`` when no timeline is
#: installed).  Like the tracer it is installed with ``set_timeline`` /
#: ``use_timeline``; the harness samples it on its telemetry tick.
TIMELINE = None

#: The process-wide phase profiler (``None`` when profiling is off).
#: Profiled sites read ``obs.PROFILER`` once per call, like the tracer.
PROFILER = None


def set_tracer(tracer) -> None:
    """Install a tracer process-wide (pass ``NULL_TRACER`` to disable)."""
    global TRACER
    TRACER = tracer


def clear_tracer() -> None:
    """Restore the no-op tracer."""
    set_tracer(NULL_TRACER)


@contextmanager
def use_tracer(tracer):
    """Context manager: install ``tracer``, restore the previous one after.

    >>> from repro import obs
    >>> with obs.use_tracer(obs.Tracer()) as tr:
    ...     obs.TRACER.event("demo", t=0.0)
    >>> obs.TRACER.enabled, len(tr.records)
    (False, 1)
    """
    previous = TRACER
    set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


# ------------------------------------------------------------- timeline


def set_timeline(timeline) -> None:
    """Install a timeline recorder process-wide (``None`` to disable)."""
    global TIMELINE
    TIMELINE = timeline


def clear_timeline() -> None:
    """Remove any installed timeline recorder."""
    set_timeline(None)


@contextmanager
def use_timeline(timeline):
    """Install a timeline for a ``with`` block, restoring the previous one."""
    previous = TIMELINE
    set_timeline(timeline)
    try:
        yield timeline
    finally:
        set_timeline(previous)


# ------------------------------------------------------------- profiler


def set_profiler(profiler) -> None:
    """Install a phase profiler process-wide (``None`` to disable).

    :func:`_gc_phase` sits in ``gc.callbacks`` exactly while a profiler
    is installed.
    """
    global PROFILER
    PROFILER = profiler
    if _gc_phase in gc.callbacks:
        gc.callbacks.remove(_gc_phase)
    if profiler is not None:
        gc.callbacks.append(_gc_phase)


def clear_profiler() -> None:
    """Remove any installed phase profiler."""
    set_profiler(None)


@contextmanager
def use_profiler(profiler):
    """Install a profiler for a ``with`` block, restoring the previous one."""
    previous = PROFILER
    set_profiler(profiler)
    try:
        yield profiler
    finally:
        set_profiler(previous)


def _gc_phase(phase: str, info) -> None:
    """``gc.callbacks`` hook: each collector pass is a nested ``gc`` phase.

    Without it a pass is charged to whichever layer made the allocation
    that crossed the threshold.
    """
    profiler = PROFILER
    if profiler is None:
        return  # a pass between set_profiler(None) and this hook's removal
    if phase == "start":
        profiler.enter("gc")
    else:
        profiler.exit()


__all__ = [
    "CacheStats",
    "ConvergenceProbe",
    "Counter",
    "EventCounter",
    "Gauge",
    "Histogram",
    "LatencyTracker",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "PROFILER",
    "PhaseProfiler",
    "Span",
    "SteadyStateMonitor",
    "TIMELINE",
    "TIMELINE_SCHEMA",
    "TRACER",
    "TRACE_SCHEMA",
    "TelemetrySink",
    "TimelineRecorder",
    "TimelineSeries",
    "Tracer",
    "cache_stats",
    "chrome_trace",
    "classify_callback",
    "clear_profiler",
    "clear_timeline",
    "clear_tracer",
    "describe",
    "export_chrome",
    "export_jsonl",
    "format_table",
    "load_timeline",
    "mean",
    "percentile",
    "read_telemetry",
    "register_cache",
    "reset_cache_stats",
    "set_profiler",
    "set_timeline",
    "set_tracer",
    "stddev",
    "to_jsonable",
    "trace_lines",
    "use_profiler",
    "use_timeline",
    "use_tracer",
    "validate_timeline_lines",
    "validate_trace_file",
    "validate_trace_lines",
    "window_is_steady",
    "write_json",
    "write_jsonl",
]
