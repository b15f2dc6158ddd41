"""``repro.obs``: every measurement this repository reports.

One process-wide tracer (module attribute :data:`TRACER`) defaults to a
no-op :class:`~repro.obs.tracer.NullTracer`; installing a real
:class:`~repro.obs.tracer.Tracer` (:func:`recording`) turns every
instrumented layer -- reconciliation rounds, block build/inspection,
accountability, network delivery, chaos injection, the experiment
harness -- into a sim-clock-stamped event/span stream.  The timeline
recorder (:data:`TIMELINE`, :mod:`~repro.obs.timeline`) is the one
periodic sampler: it reads the simulation's counters
(:mod:`~repro.obs.registry`) into fixed-memory series.  The phase
profiler (:data:`PROFILER`, :mod:`~repro.obs.phases`) charges wall time
to layers.  All three land in one ``repro.trace/1`` JSONL file
(:mod:`~repro.obs.export`), which :mod:`~repro.obs.report` reads and
converts (tables, Chrome trace-event JSON for Perfetto, CSV).

The tracer, the timeline (:data:`TIMELINE`) and the profiler are three
slots that :func:`recording` sets together; a call site reads its slot
once per call and does nothing more while it is off::

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
#: :func:`recording` installs another) and tests ``enabled`` before doing
#: any work.
TRACER = NULL_TRACER

#: The process-wide timeline recorder (``None`` when no timeline is
#: installed).  The harness samples it on its telemetry tick and at the
#: end of each run.
TIMELINE = None

#: The process-wide phase profiler (``None`` when profiling is off).
#: Profiled sites read ``obs.PROFILER`` once per call, like the tracer.
PROFILER = None


@contextmanager
def recording(tracer=None, timeline=None, profiler=None):
    """Install the three observers for a ``with`` block; restore the caller's.

    Every slot is set: one not given is off (the no-op tracer, no
    timeline, no profiler) inside the block.  :func:`_gc_phase` sits in
    ``gc.callbacks`` exactly while a profiler is installed.

    >>> from repro import obs
    >>> tracer = obs.Tracer()
    >>> with obs.recording(tracer=tracer):
    ...     obs.TRACER.event("demo", t=0.0)
    >>> obs.TRACER.enabled, len(tracer.records)
    (False, 1)
    """
    saved = TRACER, TIMELINE, PROFILER
    _install(NULL_TRACER if tracer is None else tracer, timeline, profiler)
    try:
        yield
    finally:
        _install(*saved)


def _install(tracer, timeline, profiler) -> None:
    global TRACER, TIMELINE, PROFILER
    TRACER, TIMELINE, PROFILER = tracer, timeline, profiler
    if _gc_phase in gc.callbacks:
        gc.callbacks.remove(_gc_phase)
    if profiler is not None:
        gc.callbacks.append(_gc_phase)


def _gc_phase(phase: str, info) -> None:
    """``gc.callbacks`` hook: each collector pass is a nested ``gc`` phase.

    Without it a pass is charged to whichever layer made the allocation
    that crossed the threshold.
    """
    profiler = PROFILER
    if profiler is None:
        return  # a pass between uninstalling and this hook's removal
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
    "describe",
    "export_chrome",
    "export_csv",
    "export_jsonl",
    "format_table",
    "mean",
    "percentile",
    "recording",
    "register_cache",
    "reset_caches",
    "stddev",
    "to_jsonable",
    "trace_lines",
    "validate_trace_file",
    "validate_trace_lines",
    "window_is_steady",
    "write_json",
]
