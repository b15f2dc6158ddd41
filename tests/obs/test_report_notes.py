"""``report`` hardening: empty and fault-free traces render explicit notes.

Regression tests for the failure mode where a sparse trace (no spans, no
faults, no timeline series) made ``report`` print half-empty tables or
nothing at all.  Every absent section must say so explicitly, and the
command must still exit 0 -- an empty trace is a valid trace.
"""

import json

from repro.cli import main
from repro.obs import Tracer, export_jsonl
from repro.obs.timeline import TimelineRecorder


def _write_trace(path, tracer, meta=None):
    export_jsonl(tracer, str(path), meta=meta)
    return str(path)


def test_report_on_completely_empty_trace(tmp_path, capsys):
    path = _write_trace(tmp_path / "empty.jsonl", Tracer())
    assert main(["report", path]) == 0
    out = capsys.readouterr().out
    assert "0 records" in out
    assert "no spans recorded" in out
    assert "no events recorded" in out
    assert "no faults recorded" in out
    assert "no timeline series recorded" in out


def test_report_on_fault_free_trace_names_the_absent_faults(tmp_path, capsys):
    tracer = Tracer()
    span = tracer.begin_span("sim.run", t=0.0)
    tracer.event("net.send.sampled", t=1.0, node_id=0)
    tracer.end_span(span, t=2.0)
    path = _write_trace(tmp_path / "clean.jsonl", tracer)
    assert main(["report", path]) == 0
    out = capsys.readouterr().out
    assert "sim.run" in out  # the span table rendered
    assert "no faults recorded (no chaos crashes, equivocations or" in out
    # the note explains *what kind* of faults would have appeared
    assert "block-policy violations" in out


def test_report_timeline_flag_on_trace_without_timeline(tmp_path, capsys):
    """A trace without timeline records says so (there is no flag to ask)."""
    path = _write_trace(tmp_path / "t.jsonl", Tracer())
    assert main(["report", path]) == 0
    out = capsys.readouterr().out
    assert "no timeline series recorded" in out
    assert "final counters" not in out


def test_report_timeline_flag_renders_embedded_series(tmp_path, capsys):
    """Timeline records in a trace always render, with the final counters."""
    tracer = Tracer()
    timeline = TimelineRecorder(interval_s=1.0, bins=8)
    count = {"events": 0}
    timeline.attach({"demo": lambda: dict(count)})
    for i in range(6):
        count["events"] += 2
        timeline.sample(float(i))
    path = tmp_path / "t.jsonl"
    export_jsonl(tracer, str(path), timeline=timeline)
    assert main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "demo.events" in out
    assert "counter" in out
    assert "final counters" in out


def test_report_standalone_timeline_export(tmp_path, capsys):
    """``run --timeline``'s file is a repro.trace/1 file of timeline
    records alone; ``report`` validates it and renders the series."""
    timeline = TimelineRecorder(interval_s=1.0, bins=8)
    timeline.record_gauge("pool.depth", 0.0, 3.0)
    timeline.record_gauge("pool.depth", 1.0, 4.0)
    path = tmp_path / "timeline.jsonl"
    export_jsonl(None, str(path), meta={"seed": 5}, timeline=timeline)
    assert main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "repro.trace/1, 1 records" in out
    assert "no spans recorded" in out
    assert "pool.depth" in out
    assert "gauge" in out


def test_report_rejects_malformed_timeline_export(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    lines = [
        json.dumps({"schema": "repro.trace/1", "meta": {}}),
        json.dumps({"type": "timeline", "name": "x", "kind": "nope",
                    "bin_s": 1.0, "points": []}),
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["report", str(path)]) == 1
    assert "schema error" in capsys.readouterr().err
