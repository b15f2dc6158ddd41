"""Timeline recorder unit + property tests: fixed memory, conserved totals.

The acceptance bar (ISSUE 9): memory stays O(bins) per series no matter
how long the run, counter totals survive every decimation exactly, bin
timestamps stay strictly increasing, and a same-seed simulation exports
a byte-identical ``repro.timeline/1`` file every time.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.experiments.harness import LOSimulation, SimulationParams
from repro.obs.caches import reset_cache_stats
from repro.obs import MetricsRegistry, TimelineRecorder
from repro.obs.timeline import (
    TIMELINE_SCHEMA,
    load_timeline,
    validate_timeline_lines,
)
from repro.sketch.pinsketch import clear_decode_cache, clear_syndrome_cache


# ------------------------------------------------------------------ sampling


def test_counter_series_records_per_bin_deltas():
    registry = MetricsRegistry()
    counter = registry.counter("c")
    recorder = TimelineRecorder(registry=registry, interval_s=1.0, bins=16)
    counter.inc(5)
    recorder.sample(0.0)  # first sighting anchors the baseline: delta 0
    counter.inc(2)
    recorder.sample(1.0)
    counter.inc(7)
    recorder.sample(2.0)
    series = recorder.series("c")
    assert series.kind == "counter"
    assert series.points == [[0.0, 0.0], [1.0, 2.0], [2.0, 7.0]]
    assert series.total() == 9.0  # last cumulative - first cumulative


def test_gauge_series_keeps_last_value_per_bin():
    registry = MetricsRegistry()
    gauge = registry.gauge("g")
    recorder = TimelineRecorder(registry=registry, interval_s=2.0, bins=16)
    gauge.set(1.0)
    recorder.sample(0.0)
    gauge.set(9.0)
    recorder.sample(1.0)  # same 2s bin: last write wins
    gauge.set(4.0)
    recorder.sample(2.0)
    series = recorder.series("g")
    assert series.kind == "gauge"
    assert series.points == [[0.0, 9.0], [2.0, 4.0]]
    assert series.last() == 4.0


def test_record_gauge_bypasses_registry():
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
    registry = MetricsRegistry()
    counter = registry.counter("c")
    gauge = registry.gauge("g")
    recorder = TimelineRecorder(registry=registry, interval_s=0.5, bins=8)
    for i in range(10_000):
        counter.inc(2)
        gauge.set(float(i))
        recorder.sample(0.5 * i)
        assert all(len(recorder.series(n)) <= 8
                   for n in recorder.series_names())
    # the stride grew by powers of two to cover the horizon
    assert recorder.bin_s / recorder.interval_s == 2 ** 11  # 1024s horizon
    assert recorder.series("c").total() == 2 * 9_999  # baseline excluded
    assert recorder.series("g").last() == 9_999.0


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
    registry = MetricsRegistry()
    counter = registry.counter("events")
    recorder = TimelineRecorder(registry=registry, interval_s=1.0, bins=8)
    for i in range(20):
        counter.inc(i % 3)
        recorder.sample(float(i))
    return recorder


def test_export_validates_and_roundtrips(tmp_path):
    recorder = _sampled_recorder()
    assert validate_timeline_lines(recorder.export_lines()) == []
    path = tmp_path / "t.jsonl"
    written = recorder.export_jsonl(str(path), meta={"seed": 1})
    assert written == len(recorder.series_names())
    meta, records = load_timeline(str(path))
    assert meta == {"seed": 1}
    assert [r["name"] for r in records] == recorder.series_names()
    header = json.loads(path.read_text().splitlines()[0])
    assert header["schema"] == TIMELINE_SCHEMA


def test_csv_export_rows_match_points(tmp_path):
    recorder = _sampled_recorder()
    path = tmp_path / "t.csv"
    rows = recorder.export_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "series,kind,bin_s,t,value"
    assert rows == len(lines) - 1
    assert rows == sum(len(r["points"])
                       for r in recorder.timeline_records())


def test_validator_rejects_malformed_lines():
    recorder = _sampled_recorder()
    good = recorder.export_lines()
    assert validate_timeline_lines(["not json"]) != []
    assert any("schema" in e for e in validate_timeline_lines(
        ['{"schema":"wrong/9","meta":{}}']))
    bad_record = json.loads(good[1])
    bad_record["points"] = [[0.0, 1.0], [0.0, 2.0]]  # not increasing
    errors = validate_timeline_lines([good[0], json.dumps(bad_record)])
    assert any("not increasing" in e for e in errors)
    assert validate_timeline_lines([]) == ["timeline is empty (no header line)"]


# --------------------------------------------------------------- properties


@settings(max_examples=50, deadline=None)
@given(
    increments=st.lists(st.integers(min_value=0, max_value=50),
                        min_size=1, max_size=300),
    bins=st.sampled_from([4, 8, 16]),
)
def test_counter_total_conserved_and_timestamps_increase(increments, bins):
    """Across any number of decimations the counter total equals the
    cumulative growth after the baseline sample, and every series' bin
    timestamps stay strictly increasing (the schema invariant)."""
    registry = MetricsRegistry()
    counter = registry.counter("c")
    recorder = TimelineRecorder(registry=registry, interval_s=0.5, bins=bins)
    for i, inc in enumerate(increments):
        counter.inc(inc)
        recorder.sample(0.5 * i)
    series = recorder.series("c")
    assert len(series) <= bins
    assert series.total() == sum(increments[1:])
    timestamps = [t for t, _v in series.points]
    assert timestamps == sorted(set(timestamps))
    assert all(t % recorder.bin_s == 0 for t in timestamps)
    assert validate_timeline_lines(recorder.export_lines()) == []


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
    """One small admission run under a fresh recorder; returns the export.

    The sketch caches are process-global, so back-to-back in-process runs
    must start them cold for byte-identity (separate processes, as the
    CLI runs, start cold anyway).
    """
    clear_decode_cache()
    clear_syndrome_cache()
    reset_cache_stats()
    recorder = TimelineRecorder(interval_s=0.5, bins=64)
    with obs.use_timeline(recorder):
        sim = LOSimulation(SimulationParams(num_nodes=8, seed=seed))
        sim.inject_workload(rate_per_s=6.0, duration_s=6.0)
        sim.run(10.0)
    return recorder.export_lines(meta={"seed": seed})


def test_same_seed_runs_export_byte_identical_timelines():
    first = _timeline_lines(seed=21)
    second = _timeline_lines(seed=21)
    assert first == second
    assert len(first) > 1  # header + at least one series


def test_different_seeds_export_different_timelines():
    assert _timeline_lines(seed=21) != _timeline_lines(seed=22)
