"""Steady-state detection: window maths, monitor verdicts, early stop.

The monitor must say "steady" for a converged soak and keep saying "not
yet" for a drifting one, and ``LOSimulation.run_until_steady`` must stop
a converging admission run strictly before its horizon -- at the same
simulated time on every same-seed run.
"""

import pytest

from repro import obs
from repro.core.config import AdmissionConfig, LOConfig
from repro.experiments.harness import LOSimulation, SimulationParams
from repro.obs import SteadyStateMonitor, TimelineRecorder
from repro.obs.steady import DEFAULT_STEADY_SERIES, window_is_steady


# ------------------------------------------------------------- window maths


def test_window_is_steady_relative_band():
    assert window_is_steady([100.0, 102.0, 99.0], rel_tol=0.05)
    assert not window_is_steady([100.0, 120.0, 99.0], rel_tol=0.05)


def test_window_is_steady_edge_cases():
    assert not window_is_steady([])
    assert window_is_steady([5.0])
    assert window_is_steady([0.0, 0.0, 0.0])  # all-zero: spread <= abs_tol
    # tiny jitter around zero passes only via abs_tol
    assert window_is_steady([0.0, 1e-12], rel_tol=0.0, abs_tol=1e-9)
    assert not window_is_steady([0.0, 1.0], rel_tol=0.0, abs_tol=1e-9)


# ---------------------------------------------------------------- monitor


def _gauge_timeline(values, name="g", interval_s=1.0):
    recorder = TimelineRecorder(interval_s=interval_s, bins=64)
    for i, value in enumerate(values):
        recorder.record_gauge(name, interval_s * i, value)
    return recorder


def test_monitor_not_steady_until_window_fills():
    recorder = _gauge_timeline([5.0] * 4)
    monitor = SteadyStateMonitor(recorder, series=("g",), window_bins=4)
    # 4 points = window + still-filling bin not yet available
    assert monitor.window_values("g") == []
    assert not monitor.check()
    status = monitor.status()
    assert status["series"]["g"] == {"eligible": False, "steady": False}


def test_monitor_converging_gauge_goes_steady():
    values = [100.0, 60.0, 30.0, 20.0] + [10.0] * 6
    recorder = _gauge_timeline(values)
    monitor = SteadyStateMonitor(recorder, series=("g",), window_bins=4)
    assert monitor.check()
    assert monitor.status()["steady"] is True


def test_monitor_drifting_gauge_stays_unsteady():
    values = [float(10 * i) for i in range(10)]  # linear climb
    recorder = _gauge_timeline(values)
    monitor = SteadyStateMonitor(recorder, series=("g",), window_bins=4)
    assert not monitor.check()
    assert monitor.status()["series"]["g"] == {"eligible": True,
                                               "steady": False}


def test_monitor_excludes_still_filling_bin():
    """A spike in the newest bin must not flip the verdict: that bin is
    still filling and is excluded from the judged window."""
    recorder = _gauge_timeline([10.0] * 8 + [500.0])
    monitor = SteadyStateMonitor(recorder, series=("g",), window_bins=4)
    assert monitor.window_values("g") == [10.0] * 4
    assert monitor.check()


def test_monitor_judges_counters_as_rates():
    """A counter growing at a constant rate is steady; an accelerating
    one is not."""
    for deltas, expected in (
        ([7.0] * 10, True),
        ([float(2 ** i) for i in range(10)], False),
    ):
        count = {"c": 0.0}
        recorder = TimelineRecorder(interval_s=1.0, bins=64)
        recorder.attach({"demo": lambda: dict(count)})
        for i, delta in enumerate(deltas):
            count["c"] += delta
            recorder.sample(float(i))
        monitor = SteadyStateMonitor(recorder, series=("demo.c",),
                                     window_bins=4)
        assert monitor.check() is expected, deltas


def test_monitor_never_recorded_series_blocks_steady():
    recorder = _gauge_timeline([1.0] * 10, name="present")
    monitor = SteadyStateMonitor(recorder, series=("present", "absent"),
                                 window_bins=4)
    assert not monitor.check()
    assert monitor.status()["series"]["absent"]["eligible"] is False


def test_monitor_validation():
    recorder = TimelineRecorder()
    with pytest.raises(ValueError):
        SteadyStateMonitor(recorder, window_bins=1)
    with pytest.raises(ValueError):
        SteadyStateMonitor(recorder, series=())
    assert SteadyStateMonitor(recorder).series == DEFAULT_STEADY_SERIES


# ------------------------------------------------------------ harness stop


def _steady_soak(seed=7):
    recorder = TimelineRecorder(interval_s=0.5, bins=256)
    with obs.use_timeline(recorder):
        sim = LOSimulation(SimulationParams(
            num_nodes=8, seed=seed,
            config=LOConfig(admission=AdmissionConfig()),
        ))
        sim.inject_workload(rate_per_s=6.0, duration_s=60.0)
        outcome = sim.run_until_steady(80.0)
    return outcome


def test_run_until_steady_stops_converging_soak_before_horizon():
    outcome = _steady_soak()
    assert outcome["steady"] is True
    assert outcome["steady_at"] is not None
    assert outcome["t"] < outcome["horizon"] == 80.0


def test_run_until_steady_is_deterministic():
    assert _steady_soak() == _steady_soak()


def test_run_until_steady_requires_timeline():
    sim = LOSimulation(SimulationParams(num_nodes=4, seed=1))
    with pytest.raises(ValueError):
        sim.run_until_steady(10.0)


def test_run_until_steady_unsteady_run_reaches_horizon():
    """A drifting watched series keeps the run going to the horizon."""
    recorder = TimelineRecorder(interval_s=0.5, bins=256)
    with obs.use_timeline(recorder):
        sim = LOSimulation(SimulationParams(num_nodes=6, seed=3))
        sim.inject_workload(rate_per_s=4.0, duration_s=8.0)
        monitor = SteadyStateMonitor(recorder, series=("never.recorded",))
        outcome = sim.run_until_steady(8.0, monitor=monitor)
    assert outcome["steady"] is False
    assert outcome["steady_at"] is None
    assert outcome["t"] == outcome["horizon"] == 8.0
