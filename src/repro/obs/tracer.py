"""Deterministic structured tracing: sim-clock-stamped events and spans.

A :class:`Tracer` collects two kinds of records during a simulation run:

* **events** -- point-in-time observations (a suspicion raised, a chaos
  drop, a commitment append) stamped with the simulated clock;
* **spans** -- named intervals (one Alg. 1 reconciliation round, a block
  inspection) with ``t_start``/``t_end``, an owning node, free-form
  attributes and an optional parent span.

Counters are not the tracer's: the timeline recorder
(:mod:`repro.obs.timeline`) samples them, and a traced run's file carries
its series as ``timeline`` records.

Records are appended in emission order, which under the deterministic
event loop (:mod:`repro.sim.loop`) is itself deterministic: two runs with
the same seed produce byte-identical exports.  Nothing in this module
reads the wall clock.

Zero cost when off: the process-wide tracer defaults to
:class:`NullTracer` (``enabled`` is ``False``) and every instrumentation
site guards its work behind that single attribute check::

    _t = obs.TRACER
    if _t.enabled:
        _t.event("acct.suspicion", t=self.now, node_id=self.node_id, ...)

Per-message network events are high-volume, so they go through
:meth:`Tracer.message_event`, which samples deterministically per
``(kind, msg_type)``: with ``sample_every=N`` the first and every Nth
message of each type is recorded (counter-based, never random).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional

TRACE_SCHEMA = "repro.trace/1"


class Span:
    """One open interval; closed (and recorded) via :meth:`Tracer.end_span`."""

    __slots__ = ("span_id", "name", "node_id", "t_start", "t_end", "attrs",
                 "parent_id")

    def __init__(self, span_id: int, name: str, node_id: Optional[int],
                 t_start: float, parent_id: Optional[int],
                 attrs: Dict[str, Any]):
        self.span_id = span_id
        self.name = name
        self.node_id = node_id
        self.t_start = t_start
        self.t_end: Optional[float] = None
        self.parent_id = parent_id
        self.attrs = attrs

    @property
    def duration(self) -> Optional[float]:
        """Span length in simulated seconds, once closed."""
        if self.t_end is None:
            return None
        return self.t_end - self.t_start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.t_end is None else f"dur={self.duration:.3f}"
        return f"Span({self.name!r}, node={self.node_id}, {state})"


class NullTracer:
    """The default no-op tracer: every method returns immediately.

    ``enabled`` is ``False``; hot paths check only that attribute, so with
    tracing off the per-message cost is one module attribute lookup plus
    one bool test.  The no-op methods exist so that cold call sites may
    skip the guard entirely.
    """

    enabled = False

    def event(self, name: str, t: float, node_id: Optional[int] = None,
              **attrs: Any) -> None:
        """No-op."""

    def message_event(self, kind: str, t: float, msg_type: str,
                      sender: int, recipient: int, wire_bytes: int) -> None:
        """No-op."""

    def begin_span(self, name: str, t: float, node_id: Optional[int] = None,
                   parent: Optional[Span] = None, **attrs: Any) -> Optional[Span]:
        """No-op; returns ``None`` (callers store it and never close it)."""
        return None

    def end_span(self, span: Optional[Span], t: float, **attrs: Any) -> None:
        """No-op."""


NULL_TRACER = NullTracer()


class Tracer:
    """Collects events and spans for one process.

    ``sample_every`` thins per-message network events (see module
    docstring); all other records are never sampled.

    >>> tr = Tracer()
    >>> tr.event("demo", t=1.0, node_id=3, detail="x")
    >>> span = tr.begin_span("round", t=1.0, node_id=3, peer=4)
    >>> tr.end_span(span, t=2.5, outcome="ok")
    >>> [r["type"] for r in tr.records]
    ['event', 'span']
    >>> tr.records[1]["attrs"]["outcome"]
    'ok'
    """

    enabled = True

    def __init__(self, sample_every: int = 1):
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.sample_every = sample_every
        self.records: List[Dict[str, Any]] = []
        self._span_ids = itertools.count(1)
        self._open_spans = 0
        self._msg_counts: Dict[str, int] = {}

    # -------------------------------------------------------------- events

    def event(self, name: str, t: float, node_id: Optional[int] = None,
              **attrs: Any) -> None:
        """Record a point-in-time event at simulated time ``t``."""
        self.records.append({
            "type": "event",
            "t": float(t),
            "name": name,
            "node": node_id,
            "attrs": attrs,
        })

    def message_event(self, kind: str, t: float, msg_type: str,
                      sender: int, recipient: int, wire_bytes: int) -> None:
        """Record a sampled per-message event (``net.send`` / ``net.deliver``).

        Sampling is deterministic: a per ``(kind, msg_type)`` counter keeps
        the first and every ``sample_every``-th message of each type.
        """
        key = kind + "\x00" + msg_type
        count = self._msg_counts.get(key, 0)
        self._msg_counts[key] = count + 1
        if count % self.sample_every:
            return
        self.records.append({
            "type": "event",
            "t": float(t),
            "name": kind,
            "node": sender,
            "attrs": {
                "msg_type": msg_type,
                "sender": sender,
                "recipient": recipient,
                "wire_bytes": wire_bytes,
                "nth": count,
            },
        })

    # --------------------------------------------------------------- spans

    def begin_span(self, name: str, t: float, node_id: Optional[int] = None,
                   parent: Optional[Span] = None, **attrs: Any) -> Span:
        """Open a span; nothing is recorded until :meth:`end_span`."""
        span = Span(
            span_id=next(self._span_ids),
            name=name,
            node_id=node_id,
            t_start=float(t),
            parent_id=parent.span_id if parent is not None else None,
            attrs=attrs,
        )
        self._open_spans += 1
        return span

    def end_span(self, span: Optional[Span], t: float, **attrs: Any) -> None:
        """Close a span and record it (closing order = record order).

        Idempotent per span: a second close is ignored, so teardown paths
        (restart, abort) can close defensively.  ``attrs`` are merged over
        those given at :meth:`begin_span`.
        """
        if span is None or span.t_end is not None:
            return
        span.t_end = float(t)
        span.attrs.update(attrs)
        self._open_spans -= 1
        self.records.append({
            "type": "span",
            "name": span.name,
            "node": span.node_id,
            "t_start": span.t_start,
            "t_end": span.t_end,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "attrs": span.attrs,
        })

    @property
    def open_spans(self) -> int:
        """Spans begun but not yet ended (these are never exported)."""
        return self._open_spans

    # --------------------------------------------------------------- query

    def events_named(self, name: str) -> List[Dict[str, Any]]:
        """All event records with a given name (test/report convenience)."""
        return [r for r in self.records
                if r["type"] == "event" and r["name"] == name]

    def spans_named(self, name: str) -> List[Dict[str, Any]]:
        """All closed span records with a given name."""
        return [r for r in self.records
                if r["type"] == "span" and r["name"] == name]
