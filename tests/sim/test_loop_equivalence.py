"""Property tests: the list-entry heap loop matches a reference loop.

The production :class:`~repro.sim.loop.EventLoop` stores heap entries as
plain ``[time, seq, callback, args]`` lists so ``heapq`` compares them in
C.  These tests pin its observable behaviour to an *embedded reference
implementation* that keeps the old object-based heap (a Python ``__lt__``
on event objects) and the identical scheduling semantics.  Hypothesis
drives both loops through random schedule/cancel/run programs -- including
callbacks that schedule further events mid-run -- and every observable
must match exactly: callback execution order, the clock at each callback,
the final clock, and the processed/pending/compaction counters.  After
every operation ``pending_events`` must also equal the live entries
actually in the heap, on both loops -- cancelling a timer whose callback
already ran (from outside, or from inside that very callback) is a no-op.
"""

import heapq
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.loop import EventLoop, SimulationError


# --------------------------------------------------------------------------
# Reference implementation: object-entry heap, Python-level ordering.
# --------------------------------------------------------------------------


class _RefEvent:
    """Heap entry ordered by ``(time, seq)`` via a Python ``__lt__``."""

    __slots__ = ("time", "seq", "callback", "args", "ran")

    def __init__(self, time, seq, callback, args):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.ran = False  # set by the loop as it dispatches the event

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)



class ReferenceLoop:
    """Pre-refactor loop semantics, kept only as a test oracle.

    Mirrors :class:`EventLoop`'s public surface (``call_at``,
    ``call_later``, ``cancel``, ``run_until``, the counters) and its
    compaction policy, but with the object-based heap the production loop
    replaced and a per-event ``ran`` flag instead of the ``(time, seq)``
    test.
    """

    COMPACT_MIN_SIZE = EventLoop.COMPACT_MIN_SIZE

    def __init__(self, start_time=0.0):
        self._now = float(start_time)
        self._heap = []
        self._seq = itertools.count()
        self._processed = 0
        self._cancelled = 0
        self._compactions = 0

    @property
    def now(self):
        return self._now

    @property
    def pending_events(self):
        return len(self._heap) - self._cancelled

    @property
    def heap_size(self):
        return len(self._heap)

    @property
    def compactions(self):
        return self._compactions

    @property
    def processed_events(self):
        return self._processed

    def call_at(self, when, callback, *args):
        if when < self._now:
            raise SimulationError("scheduling in the past")
        event = _RefEvent(when, next(self._seq), callback, args)
        heapq.heappush(self._heap, event)
        return event

    def call_later(self, delay, callback, *args):
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.call_at(self._now + delay, callback, *args)

    def cancel(self, event):
        if event.callback is None or event.ran:
            return
        event.callback = None
        event.args = ()
        self._cancelled += 1
        if (len(self._heap) >= self.COMPACT_MIN_SIZE
                and self._cancelled * 2 > len(self._heap)):
            self._heap = [e for e in self._heap if e.callback is not None]
            heapq.heapify(self._heap)
            self._cancelled = 0
            self._compactions += 1

    def run_until(self, deadline):
        if deadline < self._now:
            raise SimulationError("deadline before now")
        heap = self._heap
        while heap and heap[0].time <= deadline:
            event = heapq.heappop(heap)
            if event.callback is None:
                self._cancelled -= 1
                continue
            self._now = event.time
            self._processed += 1
            event.ran = True
            event.callback(*event.args)
        self._now = deadline


# --------------------------------------------------------------------------
# Program interpreter: one op list, two loops, compared observables.
# --------------------------------------------------------------------------


def _callback(timer):
    """The callback slot of either loop's timer (``None`` once cancelled)."""
    return timer.callback if isinstance(timer, _RefEvent) else timer[2]


def _live_entries(loop):
    """Heap entries that still hold a callback, counted the slow way."""
    if isinstance(loop, ReferenceLoop):
        return sum(1 for event in loop._heap if event.callback is not None)
    return sum(1 for entry in loop._heap if entry[2] is not None)


def _run_program(loop, ops):
    """Execute a schedule/cancel/run program; returns the observation log.

    Tags divisible by 3 schedule a follow-up from inside their callback
    (mid-run scheduling), tags divisible by 5 keep their timer so cancel
    ops have targets (those divisible by 10 also cancel their own timer
    from inside the callback); the rest drop it.  Cancel ops pick among
    the timers not yet cancelled -- run or not -- and re-cancel to pin
    idempotence; "cancel_ran" ops pick among timers whose callback has
    run.
    """
    record = []
    timers = []
    ran = []  # positions in ``timers`` whose callback has run

    def check():
        assert loop.pending_events == _live_entries(loop)

    def make_callback(tag, position=None):
        def callback():
            record.append((tag, loop.now, loop.processed_events))
            if position is not None:
                ran.append(position)
                if tag % 10 == 0:
                    loop.cancel(timers[position])
                    check()
            if tag % 3 == 0:
                loop.call_later((tag % 7) * 0.05, make_callback(tag + 1000))
        return callback

    for op in ops:
        kind = op[0]
        if kind == "sched":
            _, centi_delay, tag = op
            delay = centi_delay / 100.0
            if tag % 5 == 0:
                callback = make_callback(tag, len(timers))
                timers.append(loop.call_later(delay, callback))
            else:
                loop.call_later(delay, make_callback(tag))
        elif kind == "cancel":
            _, pick = op
            pending = [t for t in timers if _callback(t) is not None]
            if pending:
                target = pending[pick % len(pending)]
                loop.cancel(target)
                # Cancel must be idempotent: a second call is a no-op.
                loop.cancel(target)
        elif kind == "cancel_ran":
            _, pick = op
            if ran:
                target = timers[ran[pick % len(ran)]]
                loop.cancel(target)
                assert _callback(target) is not None  # not tombstoned either
        elif kind == "run":
            _, centi_duration = op
            loop.run_until(loop.now + centi_duration / 100.0)
        check()
    loop.run_until(loop.now + 100.0)  # drain everything still pending
    check()
    assert loop.pending_events == 0
    return record


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("sched"), st.integers(0, 400),
                  st.integers(0, 50)),
        st.tuples(st.just("cancel"), st.integers(0, 64)),
        st.tuples(st.just("cancel_ran"), st.integers(0, 64)),
        st.tuples(st.just("run"), st.integers(0, 300)),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_loop_equivalent_to_reference(ops):
    real, reference = EventLoop(), ReferenceLoop()
    real_record = _run_program(real, ops)
    ref_record = _run_program(reference, ops)
    assert real_record == ref_record
    assert real.now == reference.now
    assert real.processed_events == reference.processed_events
    assert real.pending_events == reference.pending_events
    assert real.compactions == reference.compactions


@settings(max_examples=100, deadline=None)
@given(ops=_OPS)
def test_loop_runs_are_reproducible(ops):
    # The same program on two fresh loops is observably identical --
    # the determinism contract every same-seed simulation relies on.
    first = _run_program(EventLoop(), ops)
    second = _run_program(EventLoop(), ops)
    assert first == second


@settings(max_examples=100, deadline=None)
@given(
    delays=st.lists(st.integers(0, 1000), min_size=1, max_size=100),
    deadline_centi=st.integers(0, 1200),
)
def test_partial_run_executes_exactly_the_due_prefix(delays, deadline_centi):
    # run_until(deadline) must run exactly the events with time <= deadline
    # (inclusive), in (time, insertion) order.
    loop = EventLoop()
    fired = []
    for index, centi in enumerate(delays):
        loop.call_at(centi / 100.0, fired.append, (centi / 100.0, index))
    deadline = deadline_centi / 100.0
    loop.run_until(deadline)
    expected = sorted(
        ((centi / 100.0, index) for index, centi in enumerate(delays)
         if centi / 100.0 <= deadline),
    )
    assert fired == expected
    assert loop.now == deadline
    assert loop.pending_events == len(delays) - len(expected)


def test_past_scheduling_raises_like_reference():
    for loop in (EventLoop(), ReferenceLoop()):
        loop.run_until(1.0)
        with pytest.raises(SimulationError):
            loop.call_at(0.5, lambda: None)
        with pytest.raises(SimulationError):
            loop.call_later(-0.1, lambda: None)


def test_mass_cancellation_compacts_both_loops_identically():
    real, reference = EventLoop(), ReferenceLoop()
    for loop in (real, reference):
        timers = [loop.call_later(10.0 + i, lambda: None)
                  for i in range(200)]
        for timer in timers[:150]:
            loop.cancel(timer)
    assert real.compactions == reference.compactions > 0
    assert real.pending_events == reference.pending_events == 50
    assert real.heap_size == reference.heap_size
