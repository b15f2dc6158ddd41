"""Timeline recorder unit + property tests: fixed memory, exact totals.

Memory stays O(bins) per series no matter how long the run, a counter
series' total is exactly what the run's simulations counted (through
every decimation, and across simulations run in turn), bin timestamps
stay strictly increasing, and a same-seed simulation records
byte-identical ``timeline`` records every time.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.experiments.harness import LOSimulation, SimulationParams
from repro.obs import TimelineRecorder
from repro.obs.export import export_csv, export_jsonl, trace_lines
from repro.obs.report import load_trace
from repro.obs.schema import validate_trace_lines


def _attached(interval_s=1.0, bins=16):
    """A recorder reading one ``demo`` collector; returns it and the
    mutable dict the collector reports."""
    values = {}
    recorder = TimelineRecorder(interval_s=interval_s, bins=bins)
    recorder.attach({"demo": lambda: dict(values)})
    return recorder, values


# ------------------------------------------------------------------ sampling


def test_counter_series_records_per_bin_deltas():
    recorder, values = _attached()
    values["c"] = 5
    recorder.sample(0.0)  # counted from zero at attach: delta 5
    values["c"] = 7
    recorder.sample(1.0)
    values["c"] = 14
    recorder.sample(2.0)
    series = recorder.series("demo.c")
    assert series.kind == "counter"
    assert series.points == [[0.0, 5], [1.0, 2], [2.0, 7]]
    assert series.total() == 14  # the last cumulative value


def test_gauge_series_keeps_last_value_per_bin():
    recorder, values = _attached(interval_s=2.0)
    values["pool.size"] = 1.0
    recorder.sample(0.0)
    values["pool.size"] = 9.0
    recorder.sample(1.0)  # same 2s bin: last write wins
    values["pool.size"] = 4.0
    recorder.sample(2.0)
    series = recorder.series("demo.pool.size")
    assert series.kind == "gauge"
    assert series.points == [[0.0, 9.0], [2.0, 4.0]]
    assert series.last() == 4.0


def test_readings_are_gauges_and_counts_are_counters():
    recorder = TimelineRecorder()
    recorder.attach({
        "caches": lambda: {"decode.hits": 3, "decode.hit_rate": 0.75,
                           "decode.size": 4},
        "mempool": lambda: {"accepted": 2, "pool_txs": 5.0,
                            "pool_bytes": 900.0},
    })
    recorder.sample(0.0)
    kinds = {name: recorder.series(name).kind
             for name in recorder.series_names()}
    assert kinds == {
        "caches.decode.hit_rate": "gauge",
        "caches.decode.hits": "counter",
        "caches.decode.size": "gauge",
        "mempool.accepted": "counter",
        "mempool.pool_bytes": "gauge",
        "mempool.pool_txs": "gauge",
    }


def test_attach_restarts_every_count_at_zero():
    """A fresh source counts from zero: its first value is growth, never a
    negative delta against the previous source's last value."""
    recorder, values = _attached()
    values["c"] = 40
    recorder.sample(0.0)
    recorder.attach({"demo": lambda: {"c": 3}})
    recorder.sample(1.0)
    assert recorder.series("demo.c").values() == [40, 3]


def test_record_gauge_bypasses_registry():
    """A gauge no collector reports (the harness's derived averages)."""
    recorder = TimelineRecorder(interval_s=1.0, bins=8)
    recorder.record_gauge("derived.fee", 3.0, 0.25)
    assert recorder.series("derived.fee").points == [[3.0, 0.25]]


def test_constructor_validation():
    with pytest.raises(ValueError):
        TimelineRecorder(interval_s=0.0)
    with pytest.raises(ValueError):
        TimelineRecorder(bins=3)
    with pytest.raises(ValueError):
        TimelineRecorder(bins=12)  # not a power of two


# ---------------------------------------------------------------- decimation


def test_memory_stays_bounded_over_long_runs():
    """10k samples against an 8-bin budget never exceed 8 points."""
    recorder, values = _attached(interval_s=0.5, bins=8)
    for i in range(10_000):
        values["c"] = 2 * (i + 1)
        values["g.size"] = float(i)
        recorder.sample(0.5 * i)
        assert all(len(recorder.series(n)) <= 8
                   for n in recorder.series_names())
    # the stride grew by powers of two to cover the horizon
    assert recorder.bin_s / recorder.interval_s == 2 ** 11  # 1024s horizon
    assert recorder.series("demo.c").total() == 2 * 10_000
    assert recorder.series("demo.g.size").last() == 9_999.0


def test_all_series_share_one_stride():
    """Decimation is recorder-wide: a busy series drags every series'
    stride with it so timestamps keep lining up across series."""
    recorder = TimelineRecorder(interval_s=1.0, bins=4)
    recorder.record_gauge("sparse", 0.0, 1.0)
    for i in range(16):
        recorder.record_gauge("busy", float(i), float(i))
    record_strides = {r["bin_s"] for r in recorder.timeline_records()}
    assert record_strides == {recorder.bin_s}
    assert recorder.bin_s == 4.0


# ------------------------------------------------------------------- export


def _sampled_recorder():
    recorder, values = _attached(bins=8)
    for i in range(20):
        values["events"] = values.get("events", 0) + i % 3
        recorder.sample(float(i))
    return recorder


def test_export_validates_and_roundtrips(tmp_path):
    """``run --timeline``'s file: a repro.trace/1 header and the
    ``timeline`` records alone."""
    recorder = _sampled_recorder()
    assert validate_trace_lines(trace_lines(None, timeline=recorder)) == []
    path = tmp_path / "t.jsonl"
    written = export_jsonl(None, str(path), meta={"seed": 1},
                           timeline=recorder)
    assert written == len(recorder.series_names())
    meta, records = load_trace(str(path))
    assert meta == {"seed": 1}
    assert records == recorder.timeline_records()
    header = json.loads(path.read_text().splitlines()[0])
    assert header["schema"] == "repro.trace/1"


def test_csv_export_rows_match_points(tmp_path):
    recorder = _sampled_recorder()
    path = tmp_path / "t.csv"
    rows = export_csv(recorder.timeline_records(), str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "series,kind,bin_s,t,value"
    assert rows == len(lines) - 1
    assert rows == sum(len(r["points"])
                       for r in recorder.timeline_records())


def test_validator_rejects_malformed_lines():
    good = trace_lines(None, timeline=_sampled_recorder())
    bad_record = json.loads(good[1])
    bad_record["points"] = [[0.0, 1.0], [0.0, 2.0]]  # not increasing
    errors = validate_trace_lines([good[0], json.dumps(bad_record)])
    assert any("not increasing" in e for e in errors)
    bad_record.update(kind="nope", bin_s=0, points=[[1.0]])
    errors = validate_trace_lines([good[0], json.dumps(bad_record)])
    assert any("counter|gauge" in e for e in errors)
    assert any("positive 'bin_s'" in e for e in errors)
    assert any("is not [t, v]" in e for e in errors)


# --------------------------------------------------------------- properties


@settings(max_examples=50, deadline=None)
@given(
    increments=st.lists(st.integers(min_value=0, max_value=50),
                        min_size=1, max_size=300),
    bins=st.sampled_from([4, 8, 16]),
)
def test_counter_total_conserved_and_timestamps_increase(increments, bins):
    """Across any number of decimations the counter total equals the
    cumulative count, and every series' bin timestamps stay strictly
    increasing (the schema invariant)."""
    recorder, values = _attached(interval_s=0.5, bins=bins)
    for i, inc in enumerate(increments):
        values["c"] = values.get("c", 0) + inc
        recorder.sample(0.5 * i)
    series = recorder.series("demo.c")
    assert len(series) <= bins
    assert series.total() == sum(increments)
    timestamps = [t for t, _v in series.points]
    assert timestamps == sorted(set(timestamps))
    assert all(t % recorder.bin_s == 0 for t in timestamps)
    assert validate_trace_lines(trace_lines(None, timeline=recorder)) == []


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=300),
)
def test_gauge_last_value_survives_decimation(values):
    recorder = TimelineRecorder(interval_s=1.0, bins=4)
    for i, value in enumerate(values):
        recorder.record_gauge("g", float(i), value)
    series = recorder.series("g")
    assert len(series) <= 4
    assert series.last() == values[-1]


# ------------------------------------------------------------- determinism


def _timeline_lines(seed):
    """One small run under a fresh recorder; returns its timeline file."""
    recorder = TimelineRecorder(interval_s=0.5, bins=64)
    with obs.recording(timeline=recorder):
        sim = LOSimulation(SimulationParams(num_nodes=8, seed=seed))
        sim.inject_workload(rate_per_s=6.0, duration_s=6.0)
        sim.run(10.0)
    return trace_lines(None, meta={"seed": seed}, timeline=recorder)


def test_same_seed_runs_export_byte_identical_timelines():
    first = _timeline_lines(seed=21)
    second = _timeline_lines(seed=21)
    assert first == second
    assert len(first) > 1  # header + at least one series


def test_different_seeds_export_different_timelines():
    assert _timeline_lines(seed=21) != _timeline_lines(seed=22)


# ---------------------------------------------------------- exact totals


def _small_run(seed=1):
    """8 nodes, 4 tx/s for 3 s, run to 5 s; returns the final counters."""
    sim = LOSimulation(SimulationParams(num_nodes=8, seed=seed))
    sim.inject_workload(rate_per_s=4.0, duration_s=3.0)
    sim.run(5.0)
    return sim.metrics_snapshot()["counters"]


def _counter_series(recorder):
    return {name: recorder.series(name) for name in recorder.series_names()
            if recorder.series(name).kind == "counter"}


def test_counter_totals_equal_what_the_simulation_counted():
    """Every count the simulation kept is a counter series whose total is
    that count: none is lost before its first tick or after the last."""
    recorder = TimelineRecorder()
    with obs.recording(timeline=recorder):
        final = _small_run()
    counters = _counter_series(recorder)
    assert counters
    assert {name: series.total() for name, series in counters.items()} \
        == {name: value for name, value in final.items()
            if name in counters}
    assert {name for name in final if name not in counters} == {
        name for name in final
        if name.endswith((".hit_rate", ".size"))
    }


def test_no_counter_series_has_a_negative_bin():
    recorder = TimelineRecorder()
    with obs.recording(timeline=recorder):
        _small_run()
    assert not [name for name, series in _counter_series(recorder).items()
                if any(value < 0 for value in series.values())]


def test_two_simulations_in_turn_add_up_under_one_recorder():
    """The second simulation's counts start from zero again (the caches'
    too): no bin goes negative, each total is the sum of both runs'
    final counts, and the second run's bins follow the first's."""
    recorder = TimelineRecorder()
    with obs.recording(timeline=recorder):
        first = _small_run(seed=1)
        second = _small_run(seed=2)
    counters = _counter_series(recorder)
    assert not [name for name, series in counters.items()
                if any(value < 0 for value in series.values())]
    for name, series in counters.items():
        assert series.total() == first.get(name, 0) + second.get(name, 0), \
            name
    assert validate_trace_lines(trace_lines(None, timeline=recorder)) == []
    assert max(t for t, _v in counters["net.delivered"].points) >= 5.0
