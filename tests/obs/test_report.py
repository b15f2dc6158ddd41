"""Report helpers and the ``report`` CLI verb (plus ``--trace`` plumbing)."""

import io
import json
from dataclasses import dataclass

import pytest

from repro.cli import main
from repro.obs import TimelineRecorder, Tracer, export_jsonl
from repro.obs.report import (
    cache_rows,
    event_counts,
    fault_detection_rows,
    final_counters,
    format_table,
    load_trace,
    span_rows,
    to_jsonable,
    write_json,
)


def write_demo_trace(path):
    tracer = Tracer()
    for peer, (start, end) in ((3, (1.0, 2.0)), (4, (2.0, 2.5))):
        span = tracer.begin_span("reconcile.round", t=start, node_id=1,
                                 peer=peer)
        tracer.end_span(span, t=end, outcome="ok")
    tracer.event("chaos.crash", t=3.0, node_id=2)
    tracer.event("acct.suspicion", t=4.0, node_id=1, accused=2,
                 kind="timeout")
    tracer.event("acct.exposure", t=6.0, node_id=1, accused=2,
                 kind="equivocation")
    timeline = TimelineRecorder(interval_s=1.0, bins=8)
    counts = {"decode.hits": 0, "decode.misses": 0}
    timeline.attach({"caches": lambda: dict(counts, **{
        "decode.hit_rate": 1.0 if counts["decode.hits"] else 0.0}),
        "net": lambda: {"delivered": 40}})
    timeline.sample(0.0)
    counts["decode.hits"], counts["decode.misses"] = 9, 3
    timeline.sample(7.0)
    export_jsonl(tracer, str(path), meta={"seed": 1, "command": "demo"},
                 timeline=timeline)
    return path


# ----------------------------------------------------------- pure helpers


def test_load_trace_splits_meta_and_records(tmp_path):
    path = write_demo_trace(tmp_path / "t.jsonl")
    meta, records = load_trace(str(path))
    assert meta == {"seed": 1, "command": "demo"}
    assert len(records) == 9  # 2 spans, 3 events, 4 timeline series
    assert records[0]["type"] == "span"


def test_load_trace_rejects_non_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("this is not json\n")
    with pytest.raises(ValueError):
        load_trace(str(path))


def test_span_rows_aggregate_and_per_node(tmp_path):
    _, records = load_trace(str(write_demo_trace(tmp_path / "t.jsonl")))
    (row,) = span_rows(records, per_node=False)
    assert row == ("reconcile.round", "*", 2, 1.5, 0.75, 1.0)
    (per_node_row,) = span_rows(records, per_node=True)
    assert per_node_row[:3] == ("reconcile.round", 1, 2)


def test_event_counts(tmp_path):
    _, records = load_trace(str(write_demo_trace(tmp_path / "t.jsonl")))
    assert event_counts(records) == [
        ("acct.exposure", 1), ("acct.suspicion", 1), ("chaos.crash", 1),
    ]


def test_fault_detection_pairs_crash_with_first_detection(tmp_path):
    _, records = load_trace(str(write_demo_trace(tmp_path / "t.jsonl")))
    (row,) = fault_detection_rows(records)
    node, fault, fault_t, suspicion_t, exposure_t, latency = row
    assert (node, fault, fault_t) == (2, "chaos.crash", 3.0)
    assert (suspicion_t, exposure_t) == (4.0, 6.0)
    assert latency == 1.0  # suspicion came first


def test_fault_without_detection_has_none_latency():
    records = [{"type": "event", "t": 2.0, "name": "chaos.crash",
                "node": 5, "attrs": {}}]
    (row,) = fault_detection_rows(records)
    assert row == (5, "chaos.crash", 2.0, None, None, None)


def test_detection_before_fault_is_ignored():
    records = [
        {"type": "event", "t": 5.0, "name": "acct.suspicion", "node": 1,
         "attrs": {"accused": 2}},
        {"type": "event", "t": 9.0, "name": "chaos.crash", "node": 2,
         "attrs": {}},
    ]
    (row,) = fault_detection_rows(records)
    assert row[3] is None  # the t=5 suspicion predates the t=9 fault


def test_final_metrics_and_cache_rows(tmp_path):
    """The final counters come off the timeline series: counter totals,
    and hit rates recomputed from hits and misses (not the last reading,
    which the demo collector reports as 1.0)."""
    _, records = load_trace(str(write_demo_trace(tmp_path / "t.jsonl")))
    counters = final_counters(records)
    assert counters == {
        "caches.decode.hit_rate": 0.75,
        "caches.decode.hits": 9,
        "caches.decode.misses": 3,
        "net.delivered": 40,
    }
    assert cache_rows(counters) == [("caches.decode.hit_rate", 0.75),
                                    ("caches.decode.hits", 9),
                                    ("caches.decode.misses", 3)]
    assert final_counters([]) == {}


# -------------------------------------------------------------- CLI verb


def test_report_command(tmp_path, capsys):
    path = write_demo_trace(tmp_path / "t.jsonl")
    code = main(["report", str(path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "reconcile.round" in out
    assert "fault -> detection latency" in out
    assert "chaos.crash" in out
    assert "timeline series (4)" in out
    assert "caches.decode.hits" in out


def test_report_command_rejects_invalid_trace(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"schema": "bogus/9"}\n{"type": "mystery"}\n')
    code = main(["report", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "schema error" in err


def test_run_command_with_trace_export(tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    chrome = tmp_path / "run.chrome.json"
    out_json = tmp_path / "run.json"
    code = main(["run", "--nodes", "8", "--rate", "3", "--duration", "4",
                 "--drain", "4", "--trace", str(trace),
                 "--trace-sample", "10", "--json", str(out_json)])
    assert code == 0
    assert "trace written" in capsys.readouterr().out

    header = json.loads(trace.read_text().splitlines()[0])
    assert header["schema"] == "repro.trace/1"
    assert header["meta"]["command"] == "run"
    assert main(["report", str(trace), "--chrome", str(chrome)]) == 0
    assert "chrome trace written" in capsys.readouterr().out
    assert json.loads(chrome.read_text())["traceEvents"]

    # satellite: run --json now surfaces drops, violations and metrics
    result = json.loads(out_json.read_text())["result"]
    assert set(result) >= {"drop_breakdown", "wire_violation_totals",
                           "metrics"}
    assert "counters" in result["metrics"]

    # the report verb digests the freshly written trace
    code = main(["report", str(trace)])
    assert code == 0
    assert "span durations" in capsys.readouterr().out


def test_trace_flag_leaves_null_tracer_installed(tmp_path):
    from repro import obs

    main(["run", "--nodes", "6", "--rate", "2", "--duration", "3",
          "--drain", "3", "--trace", str(tmp_path / "t.jsonl")])
    assert obs.TRACER.enabled is False


# ------------------------------------------------ one traced run, every table


def _traced_run(tmp_path, seed):
    trace, out_json = tmp_path / f"run{seed}.jsonl", tmp_path / f"run{seed}.json"
    assert main(["run", "--nodes", "8", "--rate", "4", "--duration", "3",
                 "--drain", "2", "--seed", str(seed), "--trace", str(trace),
                 "--json", str(out_json)]) == 0
    return trace, json.loads(out_json.read_text())["result"]


@pytest.mark.parametrize("seed", [1, 5, 7])
def test_report_final_counters_equal_run_json_metrics(seed, tmp_path,
                                                      capsys):
    """``report``'s cache and final-counter tables, read off the trace's
    timeline series, are exactly the run's ``--json`` metrics counters,
    and no counter series has a negative bin."""
    trace, result = _traced_run(tmp_path, seed)
    _, records = load_trace(str(trace))
    assert final_counters(records) == result["metrics"]["counters"]
    assert not [r["name"] for r in records
                if r["type"] == "timeline" and r["kind"] == "counter"
                and any(v < 0 for _t, v in r["points"])]
    capsys.readouterr()
    assert main(["report", str(trace)]) == 0
    out = capsys.readouterr().out
    for name, value in result["metrics"]["counters"].items():
        assert f"{name}  " in out and str(value) in out


def test_every_report_table_renders_from_one_traced_run(tmp_path, capsys):
    trace, _ = _traced_run(tmp_path, 1)
    capsys.readouterr()
    assert main(["report", str(trace)]) == 0
    out = capsys.readouterr().out
    for heading in ("span durations (all nodes)", "span durations per node",
                    "events", "no faults recorded", "timeline series (",
                    "cache effectiveness", "final counters"):
        assert heading in out, heading


# -------------------------------------------------------------- rendering


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
