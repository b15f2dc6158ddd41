"""``repro.obs``: deterministic structured tracing and unified metrics.

One process-wide tracer (module attribute :data:`TRACER`) defaults to a
no-op :class:`~repro.obs.tracer.NullTracer`; installing a real
:class:`~repro.obs.tracer.Tracer` (``set_tracer``) turns every
instrumented layer -- reconciliation rounds, block build/inspection,
accountability, network delivery, chaos injection, the experiment
harness -- into a sim-clock-stamped event/span stream exportable as
``repro.trace/1`` JSONL or Chrome trace-event JSON (Perfetto).

Hot-path call sites guard on one attribute check::

    from repro import obs
    _t = obs.TRACER
    if _t.enabled:
        _t.event("acct.suspicion", t=now, node_id=me, accused=peer)

See ``docs/observability.md`` for the span/event inventory and schema.
"""

import gc
from contextlib import contextmanager

from repro.obs.export import (
    chrome_trace,
    export_chrome,
    export_jsonl,
    trace_lines,
    write_jsonl,
)
from repro.obs.live import TelemetrySink, read_telemetry
from repro.obs.phases import PhaseProfiler, classify_callback
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.schema import validate_trace_file, validate_trace_lines
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

#: The process-wide tracer. Instrumented code reads ``obs.TRACER`` on each
#: use (module attribute lookup stays current after ``set_tracer``).
TRACER = NULL_TRACER

#: The process-wide timeline recorder (``None`` when no timeline is
#: installed).  Like the tracer it is installed with ``set_timeline`` /
#: ``use_timeline``; the harness samples it on its telemetry tick.
TIMELINE = None

#: The process-wide phase profiler (``None`` when profiling is off).
#: Profiled modules hold a module-level ``_PHASES`` guard rebound via
#: :func:`on_profiler_change`, mirroring the tracer's ``_TRACE`` guard.
PROFILER = None

#: Callbacks invoked with the new tracer on every :func:`set_tracer`.
#: Hot-path modules use this to rebind a module-level guard once per
#: install instead of re-reading ``obs.TRACER.enabled`` per event (see
#: :func:`on_tracer_change`).
_TRACER_HOOKS = []


def get_tracer():
    """The currently installed tracer (the null tracer by default)."""
    return TRACER


def on_tracer_change(hook) -> None:
    """Register ``hook(tracer)`` to run on every :func:`set_tracer`.

    The hook is also invoked immediately with the current tracer, so a
    module can register at import time and hold a binding that is always
    current.  This is the mechanism behind the per-message fast paths:
    ``repro.net.network`` keeps a module-level ``_TRACE`` that is the
    tracer when tracing is enabled and ``None`` otherwise, reducing the
    per-message cost with tracing off to a single global load and branch
    (no attribute lookups, no no-op call frames).
    """
    _TRACER_HOOKS.append(hook)
    hook(TRACER)


def set_tracer(tracer) -> None:
    """Install a tracer process-wide (pass ``NULL_TRACER`` to disable)."""
    global TRACER
    TRACER = tracer
    for hook in _TRACER_HOOKS:
        hook(tracer)


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

#: Callbacks invoked with the new timeline on every :func:`set_timeline`.
_TIMELINE_HOOKS = []


def get_timeline():
    """The installed timeline recorder, or ``None``."""
    return TIMELINE


def on_timeline_change(hook) -> None:
    """Register ``hook(timeline)`` to run on every :func:`set_timeline`.

    Invoked immediately with the current timeline, exactly like
    :func:`on_tracer_change`, so modules can keep a module-level guard
    that is ``None`` whenever no timeline is installed.
    """
    _TIMELINE_HOOKS.append(hook)
    hook(TIMELINE)


def set_timeline(timeline) -> None:
    """Install a timeline recorder process-wide (``None`` to disable)."""
    global TIMELINE
    TIMELINE = timeline
    for hook in _TIMELINE_HOOKS:
        hook(timeline)


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

#: Callbacks invoked with the new profiler on every :func:`set_profiler`.
#: The event loop and the nested crypto/mempool/sketch sites rebind their
#: module-level ``_PHASES`` guards through this, keeping the off path at
#: one global load plus one branch per site.
_PROFILER_HOOKS = []


def get_profiler():
    """The installed phase profiler, or ``None``."""
    return PROFILER


def on_profiler_change(hook) -> None:
    """Register ``hook(profiler)`` to run on every :func:`set_profiler`.

    Invoked immediately with the current profiler (``None`` by default).
    """
    _PROFILER_HOOKS.append(hook)
    hook(PROFILER)


def set_profiler(profiler) -> None:
    """Install a phase profiler process-wide (``None`` to disable)."""
    global PROFILER
    PROFILER = profiler
    for hook in _PROFILER_HOOKS:
        hook(profiler)


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


def _rebind_gc_phase(profiler) -> None:
    """Keep :func:`_gc_phase` registered exactly while a profiler is."""
    if _gc_phase in gc.callbacks:
        gc.callbacks.remove(_gc_phase)
    if profiler is not None and profiler.enabled:
        gc.callbacks.append(_gc_phase)


on_profiler_change(_rebind_gc_phase)


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
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
    "chrome_trace",
    "classify_callback",
    "clear_profiler",
    "clear_timeline",
    "clear_tracer",
    "export_chrome",
    "export_jsonl",
    "get_profiler",
    "get_timeline",
    "get_tracer",
    "load_timeline",
    "on_profiler_change",
    "on_timeline_change",
    "on_tracer_change",
    "read_telemetry",
    "set_profiler",
    "set_timeline",
    "set_tracer",
    "trace_lines",
    "use_profiler",
    "use_timeline",
    "use_tracer",
    "validate_timeline_lines",
    "validate_trace_file",
    "validate_trace_lines",
    "window_is_steady",
    "write_jsonl",
]
