"""Discrete-event loop with a simulated clock.

The loop maintains a priority queue of timestamped events.  ``run_until``
pops events in (time, sequence) order, advancing the clock to each event's
timestamp before invoking its callback.  Ties are broken by insertion order,
which makes runs fully deterministic.

Representation
--------------

One heap entry is one callback: a plain ``[time, seq, callback, args]``
list.  ``heapq`` orders entries with ``<``, and list comparison runs
entirely in C: because ``seq`` is unique, a comparison never proceeds
past the ``(time, seq)`` prefix, so ``callback`` and ``args`` are never
compared, and two runs with the same seed execute callbacks in
byte-identical order.

There are two ways in.  :meth:`EventLoop.call_at` /
:meth:`EventLoop.call_later` return an :class:`Event`, the cancellation
handle, which wraps the heap entry directly; cancelling tombstones the
entry in place (the callback slot becomes ``None``), which the pop loop
skips with one ``is None`` test -- no side table, no hashing -- and
cancelling a handle whose callback already ran does nothing.
:meth:`EventLoop.schedule_at` / :meth:`EventLoop.schedule_later` are the
same push without the handle, for call sites that never cancel (every
message delivery, workload injection).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional

from repro import obs

#: Heap entry layout: ``[time, seq, callback, args]``.  ``callback`` is
#: ``None`` for a cancelled (tombstoned) entry.
_TIME, _SEQ, _CALLBACK, _ARGS = 0, 1, 2, 3

class SimulationError(RuntimeError):
    """Raised on misuse of the simulation engine (e.g. scheduling in the past)."""


class Event:
    """Handle to a scheduled callback.

    Events are returned by :meth:`EventLoop.call_at` /
    :meth:`EventLoop.call_later` and can be cancelled.  A cancelled event
    stays in the heap as a tombstone until it is popped or the owning loop
    compacts its heap (see :meth:`EventLoop._maybe_compact`).
    """

    __slots__ = ("_entry", "_loop")

    def __init__(self, entry: List[Any], loop: "EventLoop"):
        self._entry = entry
        self._loop = loop

    @property
    def time(self) -> float:
        """Absolute simulated timestamp the callback is scheduled for."""
        return self._entry[_TIME]

    @property
    def seq(self) -> int:
        """Insertion sequence number (the deterministic tie-breaker)."""
        return self._entry[_SEQ]

    @property
    def callback(self) -> Optional[Callable[..., Any]]:
        """The scheduled callable, or ``None`` once cancelled."""
        return self._entry[_CALLBACK]

    @property
    def args(self) -> tuple:
        """Positional arguments the callback will be invoked with."""
        return self._entry[_ARGS]

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called on this event."""
        return self._entry[_CALLBACK] is None

    def cancel(self) -> None:
        """Prevent the callback from running when the event is popped.

        A no-op on an event that already ran (a timer callback cancelling
        its own handle) or was already cancelled.
        """
        entry = self._entry
        if entry[_CALLBACK] is None or self._loop._has_run(entry):
            return
        entry[_CALLBACK] = None
        entry[_ARGS] = ()  # release argument references immediately
        self._loop._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {state})"


class EventLoop:
    """A deterministic discrete-event scheduler.

    >>> loop = EventLoop()
    >>> seen = []
    >>> _ = loop.call_later(2.0, seen.append, "b")
    >>> _ = loop.call_later(1.0, seen.append, "a")
    >>> loop.run_until(10.0)
    >>> seen
    ['a', 'b']
    >>> loop.now
    10.0
    """

    #: Compaction never triggers below this heap size: rebuilding a tiny
    #: heap costs more bookkeeping than the dead entries it would free.
    COMPACT_MIN_SIZE = 64

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: List[List[Any]] = []
        self._seq = itertools.count()
        self._processed = 0
        # Sequence number of the entry dispatched last (see _has_run).
        self._ran_seq = -1
        self._cancelled = 0
        self._compactions = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events awaiting execution."""
        return len(self._heap) - self._cancelled

    @property
    def heap_size(self) -> int:
        """Raw heap length, cancelled tombstones included (for tests)."""
        return len(self._heap)

    @property
    def compactions(self) -> int:
        """How many times the heap was rebuilt to shed cancelled events."""
        return self._compactions

    @property
    def processed_events(self) -> int:
        """Total number of callbacks executed so far."""
        return self._processed

    def call_at(self, when: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event at t={when:.6f} before now={self._now:.6f}"
            )
        entry = [when, next(self._seq), callback, args]
        heapq.heappush(self._heap, entry)
        return Event(entry, self)

    def call_later(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.call_at(self._now + delay, callback, *args)

    def schedule_at(self, when: float, callback: Callable[..., Any],
                    *args: Any) -> None:
        """:meth:`call_at` without a cancellation handle (hot path).

        Fire-and-forget call sites (network delivery, workload injection)
        schedule millions of events and never cancel them; skipping the
        :class:`Event` allocation makes those sites one heap push.
        Scheduling order, and therefore execution order, is identical to
        :meth:`call_at`.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event at t={when:.6f} before now={self._now:.6f}"
            )
        heapq.heappush(self._heap, [when, next(self._seq), callback, args])

    def schedule_later(self, delay: float, callback: Callable[..., Any],
                       *args: Any) -> None:
        """:meth:`call_later` without a cancellation handle (hot path)."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        heapq.heappush(
            self._heap, [self._now + delay, next(self._seq), callback, args]
        )

    def _has_run(self, entry: List[Any]) -> bool:
        """Whether ``entry`` has been dispatched (it is no longer in the heap).

        Entries leave the heap in strictly increasing ``(time, seq)``
        order: nothing can be scheduled before ``now``, and a new entry's
        ``seq`` exceeds every older one.  So an entry has run exactly when
        it sorts at or before the last dispatched ``(time, seq)``.  The
        clock may be ahead of that time (``run_until`` ends by moving it
        to the deadline); then nothing before ``now`` is pending, and
        whatever is scheduled at ``now`` later gets a ``seq`` above
        ``_ran_seq``.
        """
        time = entry[_TIME]
        return time < self._now or (
            time == self._now and entry[_SEQ] <= self._ran_seq
        )

    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel`; compacts when tombstones dominate.

        Heavy retry/cancel workloads (session timeouts rearmed on every
        round) would otherwise grow the heap without bound: cancelled
        events are only freed when their timestamp is finally popped,
        which for long-timeout timers can be arbitrarily far in the
        future.  Rebuilding once the cancelled fraction passes 50% keeps
        the heap O(live events) at amortised O(1) per cancellation.
        """
        self._cancelled += 1
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        heap = self._heap
        if len(heap) >= self.COMPACT_MIN_SIZE and self._cancelled * 2 > len(heap):
            # In-place rebuild: ``run_until``/``step`` hold a reference to
            # the heap list across callbacks, so the object identity must
            # survive compaction.
            heap[:] = [e for e in heap if e[_CALLBACK] is not None]
            heapq.heapify(heap)
            self._cancelled = 0
            self._compactions += 1

    def run_until(self, deadline: float) -> None:
        """Run all events with ``time <= deadline``, then set the clock to it.

        The deadline is inclusive: events scheduled exactly at the deadline
        run.  Events scheduled by callbacks during the run are honoured if
        they also fall within the deadline.

        When a phase profiler is installed (``obs.PROFILER``), every
        callback runs inside an enter/exit pair attributing its wall time
        to a phase; the slot is read once per call, so with profiling off
        the dispatch loop is byte-for-byte the unprofiled one.
        """
        if deadline < self._now:
            raise SimulationError(
                f"deadline t={deadline:.6f} is before now={self._now:.6f}"
            )
        heap = self._heap  # identity survives compaction (see above)
        pop = heapq.heappop
        profiler = obs.PROFILER
        if profiler is None:
            while heap and heap[0][0] <= deadline:
                entry = pop(heap)
                callback = entry[_CALLBACK]
                if callback is None:
                    self._cancelled -= 1
                    continue
                self._now = entry[_TIME]
                self._ran_seq = entry[_SEQ]
                self._processed += 1
                callback(*entry[_ARGS])
        else:
            classify = profiler.classify
            enter = profiler.enter
            leave = profiler.exit
            while heap and heap[0][0] <= deadline:
                entry = pop(heap)
                callback = entry[_CALLBACK]
                if callback is None:
                    self._cancelled -= 1
                    continue
                self._now = entry[_TIME]
                self._ran_seq = entry[_SEQ]
                self._processed += 1
                enter(classify(callback))
                try:
                    callback(*entry[_ARGS])
                finally:
                    leave()
        self._now = deadline

    def run_for(self, duration: float) -> None:
        """Run the simulation forward by ``duration`` seconds."""
        self.run_until(self._now + duration)

    def step(self) -> Optional[Event]:
        """Execute the single next pending event, if any.

        Returns the executed event, or ``None`` when the heap is empty.
        Useful in tests that want to observe one delivery at a time.
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            callback = entry[_CALLBACK]
            if callback is None:
                self._cancelled -= 1
                continue
            self._now = entry[_TIME]
            self._ran_seq = entry[_SEQ]
            self._processed += 1
            callback(*entry[_ARGS])
            return Event(entry, self)
        return None

    def drain(self, max_events: int = 1_000_000) -> int:
        """Run until no events remain; returns the number executed.

        ``max_events`` guards against livelock from self-rescheduling
        processes; exceeding it raises :class:`SimulationError`.
        """
        executed = 0
        while self._heap:
            if executed >= max_events:
                raise SimulationError(f"drain exceeded {max_events} events")
            if self.step() is not None:
                executed += 1
        return executed
