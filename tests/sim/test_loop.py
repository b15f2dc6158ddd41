"""Unit tests for the discrete-event loop."""

import pytest

from repro.sim import EventLoop, SimulationError


def test_events_run_in_time_order():
    loop = EventLoop()
    seen = []
    loop.call_later(3.0, seen.append, "c")
    loop.call_later(1.0, seen.append, "a")
    loop.call_later(2.0, seen.append, "b")
    loop.run_until(5.0)
    assert seen == ["a", "b", "c"]
    assert loop.now == 5.0


def test_ties_break_by_insertion_order():
    loop = EventLoop()
    seen = []
    for label in ("first", "second", "third"):
        loop.call_at(1.0, seen.append, label)
    loop.run_until(1.0)
    assert seen == ["first", "second", "third"]


def test_deadline_is_inclusive():
    loop = EventLoop()
    seen = []
    loop.call_at(2.0, seen.append, "edge")
    loop.run_until(2.0)
    assert seen == ["edge"]


def test_events_beyond_deadline_stay_pending():
    loop = EventLoop()
    seen = []
    loop.call_at(10.0, seen.append, "late")
    loop.run_until(5.0)
    assert seen == []
    loop.run_until(10.0)
    assert seen == ["late"]


def test_cancelled_event_does_not_run():
    loop = EventLoop()
    seen = []
    event = loop.call_later(1.0, seen.append, "x")
    event.cancel()
    loop.run_until(2.0)
    assert seen == []


def test_callbacks_can_schedule_more_events():
    loop = EventLoop()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            loop.call_later(0.5, chain, n + 1)

    loop.call_later(0.5, chain, 0)
    loop.run_until(10.0)
    assert seen == [0, 1, 2, 3]


def test_nested_event_within_deadline_runs():
    loop = EventLoop()
    seen = []
    loop.call_later(1.0, lambda: loop.call_later(0.5, seen.append, "inner"))
    loop.run_until(2.0)
    assert seen == ["inner"]


def test_scheduling_in_the_past_raises():
    loop = EventLoop()
    loop.run_until(5.0)
    with pytest.raises(SimulationError):
        loop.call_at(4.0, lambda: None)
    with pytest.raises(SimulationError):
        loop.call_later(-1.0, lambda: None)


def test_run_until_backwards_raises():
    loop = EventLoop()
    loop.run_until(5.0)
    with pytest.raises(SimulationError):
        loop.run_until(4.0)


def test_run_for_advances_relative():
    loop = EventLoop(start_time=10.0)
    loop.run_for(2.5)
    assert loop.now == 12.5


def test_step_executes_single_event():
    loop = EventLoop()
    seen = []
    loop.call_later(1.0, seen.append, "a")
    loop.call_later(2.0, seen.append, "b")
    loop.step()
    assert seen == ["a"]
    assert loop.now == 1.0


def test_step_on_empty_heap_returns_none():
    assert EventLoop().step() is None


def test_drain_runs_everything():
    loop = EventLoop()
    seen = []
    loop.call_later(1.0, seen.append, 1)
    loop.call_later(2.0, seen.append, 2)
    executed = loop.drain()
    assert executed == 2
    assert seen == [1, 2]


def test_drain_guards_against_livelock():
    loop = EventLoop()

    def reschedule():
        loop.call_later(0.1, reschedule)

    loop.call_later(0.1, reschedule)
    with pytest.raises(SimulationError):
        loop.drain(max_events=100)


def test_processed_events_counter():
    loop = EventLoop()
    for _ in range(5):
        loop.call_later(1.0, lambda: None)
    loop.run_until(2.0)
    assert loop.processed_events == 5


# ------------------------------------------------- cancelled-event accounting


def test_pending_events_excludes_cancelled():
    loop = EventLoop()
    events = [loop.call_later(float(i + 1), lambda: None) for i in range(5)]
    assert loop.pending_events == 5
    events[0].cancel()
    events[3].cancel()
    assert loop.pending_events == 3


def test_cancel_is_idempotent_in_accounting():
    loop = EventLoop()
    event = loop.call_later(1.0, lambda: None)
    loop.call_later(2.0, lambda: None)
    event.cancel()
    event.cancel()
    event.cancel()
    assert loop.pending_events == 1


def test_heap_compacts_when_tombstones_dominate():
    loop = EventLoop()
    keep = 40
    cancel = 80  # majority cancelled, heap comfortably above the minimum
    kept = [loop.call_later(1000.0 + i, lambda: None) for i in range(keep)]
    doomed = [loop.call_later(2000.0 + i, lambda: None) for i in range(cancel)]
    assert loop.heap_size == keep + cancel
    for event in doomed:
        event.cancel()
    # The cancelled fraction crossed 50% part-way through; a rebuild must
    # have shed the tombstones accumulated so far instead of waiting for
    # their (far-future) timestamps to be popped.  Cancellations after the
    # rebuild may linger, but never enough to dominate again.
    assert loop.compactions >= 1
    assert loop.pending_events == keep
    assert loop.heap_size < keep + cancel
    tombstones = loop.heap_size - loop.pending_events
    assert tombstones * 2 <= loop.heap_size
    assert all(not e.cancelled for e in kept)


def test_no_compaction_below_min_size():
    loop = EventLoop()
    events = [loop.call_later(100.0 + i, lambda: None) for i in range(10)]
    for event in events[:9]:
        event.cancel()
    assert loop.compactions == 0          # tiny heaps are left alone
    assert loop.heap_size == 10           # tombstones still in place
    assert loop.pending_events == 1


def test_events_still_run_in_order_after_compaction():
    loop = EventLoop()
    seen = []
    live = []
    for i in range(64):
        if i % 2:
            live.append((i, loop.call_later(float(i + 1), seen.append, i)))
        else:
            loop.call_later(float(i + 1), seen.append, i)
    doomed = [e for i, e in live]  # cancel every odd-timed event
    for event in doomed:
        event.cancel()
    extra = [loop.call_later(500.0, lambda: None) for _ in range(80)]
    for event in extra:
        event.cancel()
    assert loop.compactions >= 1
    loop.run_until(100.0)
    assert seen == [i for i in range(64) if i % 2 == 0]
    assert loop.pending_events == 0


def test_popping_tombstones_keeps_accounting_consistent():
    loop = EventLoop()
    events = [loop.call_later(float(i + 1), lambda: None) for i in range(6)]
    for event in events[::2]:
        event.cancel()
    loop.run_until(10.0)  # pops the tombstones without compaction
    assert loop.pending_events == 0
    assert loop.heap_size == 0
    assert loop.processed_events == 3


def test_cancel_after_run_is_a_no_op():
    # Regression: a handle whose callback had already run still looked
    # cancellable, so each such cancel drove pending_events one below zero
    # and fed a phantom tombstone count to the compaction policy.
    loop = EventLoop()
    seen = []
    events = [loop.call_later(1.0, seen.append, i) for i in range(4)]
    loop.run_until(2.0)
    for event in events:
        event.cancel()
        event.cancel()
    assert loop.pending_events == 0
    assert not any(event.cancelled for event in events)
    later = loop.call_later(1.0, seen.append, "later")
    assert loop.pending_events == 1
    later.cancel()  # a handle that has not run still cancels
    assert later.cancelled and loop.pending_events == 0
    loop.run_until(5.0)
    assert seen == [0, 1, 2, 3]


def test_timer_callback_may_cancel_its_own_handle():
    loop = EventLoop()
    handles = []
    fired = []

    def timer():
        fired.append(loop.now)
        handles[0].cancel()  # the usual "disarm" call, from inside the timer

    handles.append(loop.call_later(1.0, timer))
    same_time = loop.call_at(1.0, fired.append, "same time, still pending")
    loop.step()
    assert fired == [1.0]
    assert loop.pending_events == 1
    same_time.cancel()  # same timestamp, younger seq: really pending
    assert same_time.cancelled and loop.pending_events == 0


def test_step_returns_an_event_that_reads_as_run_not_cancelled():
    loop = EventLoop()
    loop.call_later(1.0, lambda: None)
    event = loop.step()
    assert not event.cancelled
    event.cancel()
    assert not event.cancelled and loop.pending_events == 0
