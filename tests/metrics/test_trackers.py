"""Unit tests for latency and event trackers."""

from repro.obs.trackers import EventCounter, LatencyTracker


def test_latency_basic_flow():
    tracker = LatencyTracker()
    tracker.record_created(1, 10.0)
    tracker.record_seen(1, observer=5, when=11.5)
    tracker.record_seen(1, observer=6, when=12.0)
    assert sorted(tracker.latencies(1)) == [1.5, 2.0]
    assert tracker.observers_of(1) == 2
    assert tracker.created_at(1) == 10.0


def test_first_seen_wins():
    tracker = LatencyTracker()
    tracker.record_created(1, 0.0)
    tracker.record_seen(1, 5, 1.0)
    tracker.record_seen(1, 5, 9.0)  # later re-observation ignored
    assert tracker.latencies(1) == [1.0]


def test_first_created_wins():
    tracker = LatencyTracker()
    tracker.record_created(1, 2.0)
    tracker.record_created(1, 0.0)
    assert tracker.created_at(1) == 2.0


def test_unknown_item_has_no_latencies():
    tracker = LatencyTracker()
    tracker.record_seen(9, 1, 5.0)  # seen without creation record
    assert tracker.latencies(9) == []
    assert tracker.created_at(9) is None


def test_all_latencies_flattens():
    tracker = LatencyTracker()
    for item in (1, 2):
        tracker.record_created(item, 0.0)
        tracker.record_seen(item, 1, 1.0)
        tracker.record_seen(item, 2, 2.0)
    assert sorted(tracker.all_latencies()) == [1.0, 1.0, 2.0, 2.0]
    assert sorted(tracker.items()) == [1, 2]


def test_counter_totals_and_per_node():
    counter = EventCounter()
    counter.increment("recon", node=1)
    counter.increment("recon", node=1, by=2)
    counter.increment("recon", node=2)
    counter.increment("other")
    assert counter.total("recon") == 4
    assert counter.per_node("recon") == {1: 3, 2: 1}
    assert counter.total("other") == 1
    assert counter.total("missing") == 0
    assert set(counter.labels()) == {"recon", "other"}
