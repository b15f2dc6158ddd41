"""``repro.obs``: every measurement this repository reports.

One process-wide tracer (module attribute :data:`TRACER`) defaults to a
no-op :class:`~repro.obs.tracer.NullTracer`; installing a real
:class:`~repro.obs.tracer.Tracer` (``set_tracer``) turns every
instrumented layer -- reconciliation rounds, block build/inspection,
accountability, network delivery, chaos injection, the experiment
harness -- into a sim-clock-stamped event/span stream.  The timeline
recorder (:data:`TIMELINE`, :mod:`~repro.obs.timeline`) is the one
periodic sampler: it reads the simulation's counters
(:mod:`~repro.obs.registry`) into fixed-memory series.  Both land in one
``repro.trace/1`` JSONL file (:mod:`~repro.obs.export`), which
:mod:`~repro.obs.report` reads and converts (tables, Chrome trace-event
JSON for Perfetto, CSV).

The tracer, the timeline (:data:`TIMELINE`) and the phase profiler
(:data:`PROFILER`) are three slots with one switch each: a call site
reads the slot once per call and does nothing more while it is off::

    from repro import obs
    _t = obs.TRACER
    if _t.enabled:
        _t.event("acct.suspicion", t=now, node_id=me, accused=peer)

Beside them: :mod:`~repro.obs.caches` (hit/miss counters of the hot-path
caches), :mod:`~repro.obs.stats` (percentiles, density histograms) and
:mod:`~repro.obs.trackers` (latency and event trackers, from which
coverage curves are computed after a run).

See ``docs/observability.md`` for the span/event inventory and schema.
"""

import gc
from contextlib import contextmanager

from repro.obs.caches import (
    CacheStats,
    cache_stats,
    register_cache,
    reset_caches,
)
from repro.obs.export import (
    chrome_trace,
    export_chrome,
    export_csv,
    export_jsonl,
    trace_lines,
)
from repro.obs.phases import PhaseProfiler, classify_callback
from repro.obs.registry import MetricsRegistry
from repro.obs.report import format_table, to_jsonable, write_json
from repro.obs.schema import validate_trace_file, validate_trace_lines
from repro.obs.stats import describe, mean, percentile, stddev
from repro.obs.steady import SteadyStateMonitor, window_is_steady
from repro.obs.timeline import TimelineRecorder, TimelineSeries
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
#: ``use_timeline``; the harness samples it on its telemetry tick and at
#: the end of each run.
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
    "EventCounter",
    "LatencyTracker",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "PROFILER",
    "PhaseProfiler",
    "Span",
    "SteadyStateMonitor",
    "TIMELINE",
    "TRACER",
    "TRACE_SCHEMA",
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
    "export_csv",
    "export_jsonl",
    "format_table",
    "mean",
    "percentile",
    "register_cache",
    "reset_caches",
    "set_profiler",
    "set_timeline",
    "set_tracer",
    "stddev",
    "to_jsonable",
    "trace_lines",
    "use_profiler",
    "use_timeline",
    "use_tracer",
    "validate_trace_file",
    "validate_trace_lines",
    "window_is_steady",
    "write_json",
]
