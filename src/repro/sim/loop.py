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

The heap entry is also the timer.  :meth:`EventLoop.call_at` /
:meth:`EventLoop.call_later` push it and return it; callers that never
cancel drop it.  :meth:`EventLoop.cancel` tombstones the entry in place
(the callback slot becomes ``None``), which the pop loop skips with one
``is None`` test -- no side table, no hashing -- and cancelling a timer
whose callback already ran does nothing.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List

from repro import obs

#: Heap entry layout: ``[time, seq, callback, args]``.  ``callback`` is
#: ``None`` for a cancelled (tombstoned) entry.
_TIME, _SEQ, _CALLBACK, _ARGS = 0, 1, 2, 3

#: A scheduled callback: the heap entry ``call_at`` / ``call_later``
#: return, and the argument :meth:`EventLoop.cancel` takes.
Timer = List[Any]


class SimulationError(RuntimeError):
    """Raised on misuse of the simulation engine (e.g. scheduling in the past)."""


class EventLoop:
    """A deterministic discrete-event scheduler.

    >>> loop = EventLoop()
    >>> seen = []
    >>> _ = loop.call_later(2.0, seen.append, "b")
    >>> _ = loop.call_later(1.0, seen.append, "a")
    >>> timer = loop.call_later(1.5, seen.append, "never")
    >>> loop.cancel(timer)
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
        self._heap: List[Timer] = []
        self._seq = itertools.count()
        self._processed = 0
        # Sequence number of the entry dispatched last (see cancel).
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

    def call_at(self, when: float, callback: Callable[..., Any], *args: Any) -> Timer:
        """Schedule ``callback(*args)`` at absolute simulated time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event at t={when:.6f} before now={self._now:.6f}"
            )
        entry = [when, next(self._seq), callback, args]
        heapq.heappush(self._heap, entry)
        return entry

    def call_later(self, delay: float, callback: Callable[..., Any], *args: Any) -> Timer:
        """Schedule ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        entry = [self._now + delay, next(self._seq), callback, args]
        heapq.heappush(self._heap, entry)
        return entry

    # The benchmark harness under ``lobench/`` is frozen with the benchmark
    # and still schedules through this name; it is the same push.
    schedule_at = call_at

    def cancel(self, timer: Timer) -> None:
        """Prevent ``timer``'s callback from running; compacts when tombstones dominate.

        A no-op on a timer that already ran (a timer callback cancelling
        its own timer) or was already cancelled.  Entries leave the heap in
        strictly increasing ``(time, seq)`` order: nothing can be scheduled
        before ``now``, and a new entry's ``seq`` exceeds every older one.
        So a timer has run exactly when it sorts at or before the last
        dispatched ``(time, seq)``.  The clock may be ahead of that time
        (``run_until`` ends by moving it to the deadline); then nothing
        before ``now`` is pending, and whatever is scheduled at ``now``
        later gets a ``seq`` above ``_ran_seq``.

        Heavy retry/cancel workloads (session timeouts rearmed on every
        round) would otherwise grow the heap without bound: cancelled
        entries are only freed when their timestamp is finally popped,
        which for long-timeout timers can be arbitrarily far in the
        future.  Rebuilding once the cancelled fraction passes 50% keeps
        the heap O(live events) at amortised O(1) per cancellation.
        """
        if timer[_CALLBACK] is None:
            return
        time = timer[_TIME]
        if time < self._now or (time == self._now and timer[_SEQ] <= self._ran_seq):
            return
        timer[_CALLBACK] = None
        timer[_ARGS] = ()  # release argument references immediately
        self._cancelled += 1
        heap = self._heap
        if len(heap) >= self.COMPACT_MIN_SIZE and self._cancelled * 2 > len(heap):
            # In-place rebuild: ``run_until`` holds a reference to the heap
            # list across callbacks, so the object identity must survive.
            heap[:] = [e for e in heap if e[_CALLBACK] is not None]
            heapq.heapify(heap)
            self._cancelled = 0
            self._compactions += 1

    def run_until(self, deadline: float) -> None:
        """Run all events with ``time <= deadline``, then set the clock to it.

        The deadline is inclusive: events scheduled exactly at the deadline
        run.  Events scheduled by callbacks during the run are honoured if
        they also fall within the deadline.

        When a phase profiler is installed (``obs.PROFILER``, read once per
        call), every callback runs inside an enter/exit pair attributing
        its wall time to a phase; without one the callback is called
        directly.
        """
        if deadline < self._now:
            raise SimulationError(
                f"deadline t={deadline:.6f} is before now={self._now:.6f}"
            )
        heap = self._heap  # identity survives compaction (see cancel)
        pop = heapq.heappop
        profiler = obs.PROFILER
        if profiler is not None:
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
            if profiler is None:
                callback(*entry[_ARGS])
            else:
                enter(classify(callback))
                try:
                    callback(*entry[_ARGS])
                finally:
                    leave()
        self._now = deadline

    def run_for(self, duration: float) -> None:
        """Run the simulation forward by ``duration`` seconds."""
        self.run_until(self._now + duration)
