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


def test_coverage_counts_observers_seen_by_a_time():
    tracker = LatencyTracker()
    tracker.record_created(1, 0.0)
    for observer, when in ((0, 0.0), (1, 0.5), (2, 2.0)):
        tracker.record_seen(1, observer, when)
    assert [tracker.coverage(1, t, 4) for t in (0.0, 0.5, 1.9, 2.0)] \
        == [0.25, 0.5, 0.5, 0.75]
    assert tracker.coverage(99, 5.0, 4) == 0.0


def test_post_hoc_coverage_matches_live_convergence_fraction():
    """The coverage curve computed after a run from the first-seen times
    equals ``sim.convergence_fraction`` sampled live at the same times."""
    from repro.experiments.harness import LOSimulation, SimulationParams

    sim = LOSimulation(SimulationParams(num_nodes=12, seed=4))
    tracked = []
    live = []

    def create():
        tracked.append(sim.nodes[3].create_transaction(fee=20).sketch_id)

    def sample(when):
        live.append((when, sim.convergence_fraction(tracked[0])))

    sim.loop.call_at(1.0, create)
    times = [1.0 + 0.25 * step for step in range(1, 25)]
    for when in times:
        sim.loop.call_at(when, sample, when)
    sim.run(8.0)
    post_hoc = [(when, sim.mempool_tracker.coverage(
        tracked[0], when, len(sim.correct_ids))) for when in times]
    assert post_hoc == live
    assert live[0][1] < 1.0 and live[-1][1] == 1.0
