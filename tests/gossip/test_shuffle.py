"""Unit tests for neighbour shuffling."""

import random

import pytest

from repro.gossip import NeighborShuffler, PeerSampler
from repro.sim import EventLoop


def make_shuffler(neighbors, blocklist=None, period=1.0, target=4, swaps=1):
    loop = EventLoop()
    sampler = PeerSampler(range(20), random.Random(1))
    changes = []
    shuffler = NeighborShuffler(
        loop,
        node_id=0,
        neighbors=neighbors,
        sampler=sampler,
        rng=random.Random(2),
        period=period,
        swaps_per_round=swaps,
        target_degree=target,
        blocklist=blocklist,
        on_change=lambda added, removed: changes.append((added, removed)),
    )
    return loop, shuffler, changes


def test_maintains_target_degree():
    neighbors = {1, 2, 3, 4}
    loop, shuffler, _ = make_shuffler(neighbors)
    shuffler.start()
    loop.run_until(10.0)
    assert len(neighbors) == 4


def test_rotates_neighbors_over_time():
    neighbors = {1, 2, 3, 4}
    original = set(neighbors)
    loop, shuffler, _ = make_shuffler(neighbors)
    shuffler.start()
    loop.run_until(30.0)
    assert neighbors != original or shuffler.total_swaps > 0


def test_blocked_neighbors_evicted():
    neighbors = {1, 2, 3, 4}
    loop, shuffler, _ = make_shuffler(
        neighbors, blocklist=lambda: {1, 2}
    )
    shuffler.start()
    loop.run_until(2.0)
    assert 1 not in neighbors and 2 not in neighbors
    assert len(neighbors) == 4  # refilled


def test_blocked_never_readded():
    neighbors = {1, 2, 3, 4}
    loop, shuffler, _ = make_shuffler(neighbors, blocklist=lambda: {1})
    shuffler.start()
    loop.run_until(20.0)
    assert 1 not in neighbors


def test_on_change_reports_swaps():
    neighbors = {1, 2, 3, 4}
    loop, shuffler, changes = make_shuffler(neighbors)
    shuffler.start()
    loop.run_until(5.0)
    assert changes
    added, removed = changes[0]
    assert added or removed


def test_never_adds_self():
    neighbors = set()
    loop, shuffler, _ = make_shuffler(neighbors, target=8)
    shuffler.start()
    loop.run_until(5.0)
    assert 0 not in neighbors


def test_round_times_are_pinned():
    # The phase is drawn at construction and each round's +-10% jitter
    # after that round's own draws; these times were recorded before the
    # shuffler scheduled itself, so shuffled runs replay unchanged.
    neighbors = {1, 2, 3, 4}
    loop, shuffler, _ = make_shuffler(neighbors)
    times = []
    tick = shuffler.tick
    shuffler.tick = lambda: (times.append(loop.now), tick())
    shuffler.start()
    loop.run_until(11.0)
    assert times == [
        0.9560342718892494, 1.874351229370264, 2.941451004996154,
        3.891767664515147, 4.913128011243314, 6.013071770432368,
        7.0738056590629546, 8.082641068548819, 9.083054526997826,
        10.15726112067142,
    ]
    assert sorted(neighbors) == [3, 4, 12, 17]


def test_first_round_runs_at_the_phase_drawn_from_the_rng():
    # make_shuffler seeds the shuffler's rng with 2; the phase is its first draw.
    loop, shuffler, _ = make_shuffler({1, 2, 3, 4}, period=2.0)
    times = []
    tick = shuffler.tick
    shuffler.tick = lambda: (times.append(loop.now), tick())
    shuffler.start()
    loop.run_until(2.0)
    assert times[0] == random.Random(2).uniform(0, 2.0)


def test_rounds_are_jittered_within_ten_percent_of_the_period():
    loop, shuffler, _ = make_shuffler({1, 2, 3, 4}, period=2.0)
    times = []
    tick = shuffler.tick
    shuffler.tick = lambda: (times.append(loop.now), tick())
    shuffler.start()
    loop.run_until(60.0)
    assert 0.0 <= times[0] <= 2.0  # the phase is drawn within one period
    intervals = [b - a for a, b in zip(times, times[1:])]
    assert all(1.8 <= i <= 2.2 for i in intervals)
    assert len(set(round(i, 6) for i in intervals)) > 1


def test_invalid_period_rejected():
    with pytest.raises(ValueError):
        make_shuffler({1, 2, 3, 4}, period=0.0)
