"""Tests for time-series probes and reporting helpers."""

import io
import json
from dataclasses import dataclass

import pytest

from repro.obs.probes import ConvergenceProbe
from repro.obs.report import format_table, to_jsonable, write_json
from repro.sim import EventLoop


def test_probe_records_coverage_growth():
    loop = EventLoop()
    coverage = {"value": 0.0}
    probe = ConvergenceProbe(loop, lambda item: coverage["value"], period_s=0.5)
    probe.track(1)
    probe.start()
    loop.call_at(1.0, lambda: coverage.update(value=0.5))
    loop.call_at(2.0, lambda: coverage.update(value=1.0))
    loop.run_until(4.0)
    curve = probe.curve(1)
    assert curve[0][1] == 0.0
    assert curve[-1][1] == 1.0
    values = [c for _t, c in curve]
    assert values == sorted(values)


def test_probe_time_to_coverage():
    loop = EventLoop()
    state = {"value": 0.0}
    probe = ConvergenceProbe(loop, lambda item: state["value"], period_s=0.25)
    probe.track(7)
    probe.start()
    loop.call_at(1.5, lambda: state.update(value=1.0))
    loop.run_until(3.0)
    reached = probe.time_to_coverage(7)
    assert reached is not None
    assert 1.5 <= reached <= 2.0
    assert probe.time_to_coverage(99) is None


def test_probe_stop_halts_sampling():
    loop = EventLoop()
    probe = ConvergenceProbe(loop, lambda item: 0.5, period_s=0.5)
    probe.track(1)
    probe.start()
    loop.run_until(1.0)
    probe.stop()
    samples = len(probe.series[1])
    loop.run_until(5.0)
    assert len(probe.series[1]) == samples


def test_probe_invalid_period():
    with pytest.raises(ValueError):
        ConvergenceProbe(EventLoop(), lambda i: 0.0, period_s=0.0)


# ------------------------------------------------------------- reporting


def test_format_table_alignment():
    text = format_table(("name", "value"), [("a", 1), ("long-name", 22)])
    lines = text.splitlines()
    assert lines[0].startswith("name")
    assert len(lines) == 4
    assert "long-name" in lines[3]


def test_to_jsonable_handles_rich_types():
    @dataclass
    class Inner:
        data: bytes

    @dataclass
    class Outer:
        inner: Inner
        items: set
        mapping: dict

    value = Outer(Inner(b"\x01\x02"), {3, 1}, {"k": (1, 2)})
    encoded = to_jsonable(value)
    assert encoded == {
        "inner": {"data": "0102"},
        "items": [1, 3],
        "mapping": {"k": [1, 2]},
    }
    json.dumps(encoded)  # round-trips through the json module


def test_write_json_with_label():
    stream = io.StringIO()
    write_json({"x": 1}, stream, label="demo")
    payload = json.loads(stream.getvalue())
    assert payload == {"experiment": "demo", "result": {"x": 1}}


def test_to_jsonable_nan_becomes_null():
    assert to_jsonable(float("nan")) is None
