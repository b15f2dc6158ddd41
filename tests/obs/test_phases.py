"""Phase profiler tests: attribution maths, classification, integration.

The profiler reads the wall clock, so unit tests inject a fake clock for
exact attribution; the integration tests only assert structure (which
phases appear) and the contract that profiling never changes simulation
results.
"""

import gc

import pytest

from repro import obs
from repro.experiments.harness import LOSimulation, SimulationParams
from repro.obs.caches import cache_stats
from repro.obs import PhaseProfiler
from repro.obs.phases import CLASSIFY_RULES, OTHER_PHASE, classify_callback


class FakeClock:
    """A manually advanced perf counter."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        """Move time forward by ``dt`` seconds."""
        self.now += dt


# ---------------------------------------------------------------- attribution


def test_flat_phase_accumulates_self_and_inclusive():
    clock = FakeClock()
    profiler = PhaseProfiler(clock=clock)
    for _ in range(3):
        profiler.enter("net")
        clock.advance(2.0)
        profiler.exit()
    assert profiler.calls["net"] == 3
    assert profiler.self_s["net"] == 6.0
    assert profiler.incl_s["net"] == 6.0


def test_nested_child_time_excluded_from_parent_self():
    clock = FakeClock()
    profiler = PhaseProfiler(clock=clock)
    profiler.enter("net")
    clock.advance(1.0)
    profiler.enter("crypto")
    clock.advance(3.0)
    profiler.exit()
    clock.advance(1.0)
    profiler.exit()
    assert profiler.self_s["net"] == 2.0  # 5 elapsed - 3 child
    assert profiler.incl_s["net"] == 5.0
    assert profiler.self_s["crypto"] == 3.0
    assert profiler.incl_s["crypto"] == 3.0


def test_reentrant_phase_charges_inclusive_once():
    """crypto inside crypto: self time counts both frames, inclusive only
    the outermost, so totals never double-count."""
    clock = FakeClock()
    profiler = PhaseProfiler(clock=clock)
    profiler.enter("crypto")
    clock.advance(1.0)
    profiler.enter("crypto")
    clock.advance(2.0)
    profiler.exit()
    clock.advance(1.0)
    profiler.exit()
    assert profiler.self_s["crypto"] == 4.0
    assert profiler.incl_s["crypto"] == 4.0  # once, not 4 + 2
    assert profiler.calls["crypto"] == 2


def test_rows_sorted_by_self_time_and_fractions_sum_to_one():
    clock = FakeClock()
    profiler = PhaseProfiler(clock=clock)
    for phase, dt in (("net", 6.0), ("crypto", 3.0), ("mempool", 1.0)):
        profiler.enter(phase)
        clock.advance(dt)
        profiler.exit()
    rows = profiler.rows()
    assert [row[0] for row in rows] == ["net", "crypto", "mempool"]
    assert sum(row[4] for row in rows) == pytest.approx(1.0)
    as_dict = profiler.as_dict()
    assert as_dict["net"]["self_s"] == 6.0
    assert as_dict["net"]["self_fraction"] == 0.6


def test_collector_passes_are_a_nested_phase_of_their_own():
    """A pass inside ``net`` is charged to ``gc``, not to ``net``; the hook
    is registered exactly while a profiler is installed."""
    clock = FakeClock()
    profiler = PhaseProfiler(clock=clock)

    def three_seconds_in_the_collector(phase, info):
        if phase == "start":
            clock.advance(3.0)

    assert obs._gc_phase not in gc.callbacks
    was_enabled = gc.isenabled()
    gc.disable()  # only the forced pass below may run
    try:
        with obs.use_profiler(profiler):
            assert gc.callbacks.count(obs._gc_phase) == 1
            gc.callbacks.append(three_seconds_in_the_collector)
            profiler.enter("net")
            clock.advance(1.0)
            gc.collect()
            clock.advance(1.0)
            profiler.exit()
    finally:
        gc.callbacks.remove(three_seconds_in_the_collector)
        if was_enabled:
            gc.enable()
    assert obs._gc_phase not in gc.callbacks
    assert profiler.calls == {"net": 1, "gc": 1}
    assert profiler.self_s == {"net": 2.0, "gc": 3.0}
    assert profiler.incl_s == {"net": 5.0, "gc": 3.0}


# -------------------------------------------------------------- classification


def test_classify_callback_by_qualname():
    class Network:
        def _deliver(self):
            """Stub resembling the real delivery callback."""

    def _sync_tick():
        pass

    def unknown():
        pass

    assert classify_callback(Network()._deliver) == "net"
    assert classify_callback(_sync_tick) == "reconcile"
    assert classify_callback(unknown) == OTHER_PHASE
    assert classify_callback(lambda: None) == OTHER_PHASE


def test_classify_is_cached_per_function():
    profiler = PhaseProfiler()

    class Network:
        def _deliver(self):
            """Stub resembling the real delivery callback."""

    a, b = Network(), Network()
    assert profiler.classify(a._deliver) == "net"
    assert profiler.classify(b._deliver) == "net"
    # two bound methods, one underlying function, one cache entry
    assert len(profiler._classify_cache) == 1


def test_classification_rules_cover_telemetry_ticks():
    rules = dict(CLASSIFY_RULES)
    assert rules["telemetry_tick"] == "telemetry"


# ----------------------------------------------------------------- integration


def _run(seed=11, profiler=None):
    if profiler is not None:
        ctx = obs.use_profiler(profiler)
    else:
        import contextlib

        ctx = contextlib.nullcontext()
    with ctx:
        sim = LOSimulation(SimulationParams(num_nodes=8, seed=seed))
        sim.inject_workload(rate_per_s=6.0, duration_s=4.0)
        sim.run(8.0)
    return {
        "events": sim.loop.processed_events,
        "delivered": sim.network.delivered_messages,
        "latencies": sim.mempool_tracker.all_latencies(),
    }


def test_profiled_sim_attributes_expected_phases():
    profiler = PhaseProfiler()
    _run(profiler=profiler)
    phases = set(profiler.self_s)
    assert {"net", "reconcile", "workload", "crypto", "sketch"} <= phases
    # one sketch frame per decode-cache miss, none for a hit
    misses = cache_stats()["sketch.decode"]["misses"]
    assert misses > 0
    assert profiler.calls["sketch"] == misses
    assert all(t >= 0.0 for t in profiler.self_s.values())
    assert profiler._stack == []  # every enter() found its exit()
    # crypto nests inside loop phases: inclusive >= self for its parents
    for phase in phases:
        assert profiler.incl_s[phase] >= 0.0


def test_profiling_does_not_change_simulation_results():
    baseline = _run()
    profiled = _run(profiler=PhaseProfiler())
    assert baseline == profiled
    assert baseline["events"] > 0
