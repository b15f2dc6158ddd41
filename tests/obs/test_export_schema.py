"""Exporter and schema-validator tests (JSONL determinism, Chrome format)."""

import json

from repro.obs import (
    PhaseProfiler,
    TimelineRecorder,
    Tracer,
    chrome_trace,
    export_chrome,
    export_jsonl,
    trace_lines,
    validate_trace_file,
    validate_trace_lines,
)


def make_tracer():
    tracer = Tracer()
    tracer.event("chaos.drop", t=0.5, node_id=1, msg_type="tx")
    span = tracer.begin_span("reconcile.round", t=1.0, node_id=2, peer=3)
    tracer.end_span(span, t=2.0, outcome="ok")
    return tracer


def make_timeline():
    timeline = TimelineRecorder(interval_s=1.0, bins=8)
    timeline.attach({"net": lambda: {"hits": 7}})
    timeline.sample(3.0)
    return timeline


# ----------------------------------------------------------------- JSONL


def test_trace_lines_header_first():
    lines = trace_lines(make_tracer(), meta={"seed": 7},
                        timeline=make_timeline())
    header = json.loads(lines[0])
    assert header == {"schema": "repro.trace/1", "meta": {"seed": 7}}
    assert len(lines) == 4  # header + event + span + timeline series
    assert json.loads(lines[-1])["type"] == "timeline"


def test_export_jsonl_roundtrip_and_validation(tmp_path):
    path = tmp_path / "t.jsonl"
    count = export_jsonl(make_tracer(), str(path), meta={"seed": 7},
                         timeline=make_timeline())
    assert count == 3
    assert validate_trace_file(str(path)) == []


def test_export_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    export_jsonl(make_tracer(), str(a), meta={"seed": 7})
    export_jsonl(make_tracer(), str(b), meta={"seed": 7})
    assert a.read_bytes() == b.read_bytes()


# ------------------------------------------------------------- validator


def make_profiler():
    profiler = PhaseProfiler(clock=iter([0.0, 0.25]).__next__)
    profiler.enter("net")
    profiler.exit()
    return profiler


def test_validator_accepts_valid_lines():
    lines = trace_lines(make_tracer(), timeline=make_timeline(),
                        profiler=make_profiler())
    assert lines[-1] == ('{"calls":1,"incl_s":0.25,"name":"net",'
                         '"self_s":0.25,"type":"phase"}')
    assert validate_trace_lines(lines) == []


def test_validator_rejects_empty_trace():
    errors = validate_trace_lines([])
    assert errors == ["trace is empty (no header line)"]


def test_validator_flags_bad_header():
    errors = validate_trace_lines(['{"schema": "bogus/9"}'])
    assert any("header schema" in e for e in errors)
    assert any("meta" in e for e in errors)


def test_validator_flags_malformed_records():
    lines = [
        '{"schema": "repro.trace/1", "meta": {}}',
        "not json at all",
        '{"type": "event", "name": "", "node": "x"}',
        '{"type": "span", "name": "s", "t_start": 5.0, "t_end": 1.0,'
        ' "span_id": 1, "parent_id": null, "node": null, "attrs": {}}',
        '{"type": "timeline", "name": "k", "kind": "counter",'
        ' "bin_s": 1.0, "points": [[0.0, "NaNish"]]}',
        '{"type": "phase", "name": "net", "calls": -1, "self_s": "x",'
        ' "incl_s": 0.1}',
        '{"type": "metrics", "t": 0.0, "counters": {}}',
        '{"type": "mystery"}',
        '{"type": ["phase"]}',
    ]
    errors = validate_trace_lines(lines)
    assert any("not valid JSON" in e for e in errors)
    assert any("non-empty 'name'" in e for e in errors)
    assert any("ends before it starts" in e for e in errors)
    assert any("is not [t, v]" in e for e in errors)
    assert any("non-negative integer 'calls'" in e for e in errors)
    assert any("numeric 'self_s'/'incl_s'" in e for e in errors)
    # the tracer's metrics snapshots are gone: the type is unknown now
    assert sum("unknown record type" in e for e in errors) == 3


# --------------------------------------------------------------- chrome


def test_chrome_trace_structure():
    # phase records carry no simulated time, so they become no event
    records = (make_tracer().records + make_timeline().timeline_records()
               + make_profiler().phase_records())
    payload = chrome_trace(records, meta={"seed": 7})
    assert payload["displayTimeUnit"] == "ms"
    assert payload["otherData"]["schema"] == "repro.trace/1"
    events = payload["traceEvents"]
    phases = [e["ph"] for e in events]
    assert phases == ["i", "X", "C"]
    instant, complete, counter = events
    assert instant["ts"] == 0.5e6 and instant["tid"] == 1
    assert complete["ts"] == 1.0e6 and complete["dur"] == 1.0e6
    assert complete["args"]["outcome"] == "ok"
    assert counter["name"] == "timeline.net.hits"
    assert counter["ts"] == 3.0e6 and counter["args"] == {"counter": 7}


def test_export_chrome_is_loadable_json(tmp_path):
    path = tmp_path / "t.chrome.json"
    records = make_tracer().records + make_timeline().timeline_records()
    count = export_chrome(records, str(path))
    payload = json.loads(path.read_text())
    assert count == len(payload["traceEvents"]) == 3
