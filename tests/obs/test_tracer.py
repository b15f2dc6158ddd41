"""Tracer and collector-map unit tests: no-op cost, spans, sampling."""

import pytest

from repro import obs
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    NullTracer,
    TimelineRecorder,
    Tracer,
    trace_lines,
)


# ------------------------------------------------------------------ tracer


def test_null_tracer_is_disabled_and_inert():
    tracer = NullTracer()
    assert tracer.enabled is False
    tracer.event("x", t=1.0, node_id=2, detail="y")
    span = tracer.begin_span("x", t=1.0)
    assert span is None
    tracer.end_span(span, t=2.0)
    tracer.message_event("net.send", 0.0, "tx", 1, 2, 100)  # all no-ops


def test_default_tracer_is_null():
    assert obs.TRACER is NULL_TRACER
    assert obs.TRACER.enabled is False


def test_event_record_shape():
    tracer = Tracer()
    tracer.event("acct.suspicion", t=3.5, node_id=7, accused=2, kind="timeout")
    (record,) = tracer.records
    assert record == {
        "type": "event",
        "t": 3.5,
        "name": "acct.suspicion",
        "node": 7,
        "attrs": {"accused": 2, "kind": "timeout"},
    }


def test_span_lifecycle_and_attr_merge():
    tracer = Tracer()
    parent = tracer.begin_span("outer", t=1.0, node_id=0)
    child = tracer.begin_span("inner", t=1.5, node_id=0, parent=parent,
                              peer=3)
    assert tracer.open_spans == 2
    assert tracer.records == []  # nothing recorded until close
    tracer.end_span(child, t=2.0, outcome="ok")
    tracer.end_span(parent, t=4.0)
    assert tracer.open_spans == 0
    inner, outer = tracer.records
    assert inner["name"] == "inner"
    assert inner["parent_id"] == outer["span_id"]
    assert inner["attrs"] == {"peer": 3, "outcome": "ok"}
    assert inner["t_end"] - inner["t_start"] == pytest.approx(0.5)
    assert outer["parent_id"] is None


def test_end_span_is_idempotent_and_none_tolerant():
    tracer = Tracer()
    span = tracer.begin_span("s", t=0.0)
    tracer.end_span(span, t=1.0)
    tracer.end_span(span, t=9.0, late="ignored")
    tracer.end_span(None, t=2.0)
    assert len(tracer.records) == 1
    assert tracer.records[0]["t_end"] == 1.0
    assert "late" not in tracer.records[0]["attrs"]


def test_unclosed_spans_never_recorded():
    tracer = Tracer()
    tracer.begin_span("open", t=0.0)
    assert tracer.open_spans == 1
    assert tracer.spans_named("open") == []


def test_message_sampling_keeps_first_and_every_nth():
    tracer = Tracer(sample_every=3)
    for i in range(7):
        tracer.message_event("net.send", float(i), "tx", 1, 2, 100)
    kept = [r["attrs"]["nth"] for r in tracer.events_named("net.send")]
    assert kept == [0, 3, 6]


def test_message_sampling_is_per_kind_and_type():
    tracer = Tracer(sample_every=2)
    tracer.message_event("net.send", 0.0, "tx", 1, 2, 10)
    tracer.message_event("net.send", 0.0, "sync_req", 1, 2, 10)
    tracer.message_event("net.deliver", 0.0, "tx", 1, 2, 10)
    # three distinct (kind, type) streams, each keeps its first message
    assert len(tracer.records) == 3


def test_sample_every_validation():
    with pytest.raises(ValueError):
        Tracer(sample_every=0)


def test_use_tracer_restores_previous():
    """A nested recording replaces every slot and restores the outer
    block's on exit."""
    assert obs.TRACER is NULL_TRACER
    tracer, timeline = Tracer(), TimelineRecorder()
    with obs.recording(tracer=tracer, timeline=timeline):
        assert (obs.TRACER, obs.TIMELINE) == (tracer, timeline)
        inner = Tracer()
        with obs.recording(tracer=inner):
            assert (obs.TRACER, obs.TIMELINE) == (inner, None)
        assert (obs.TRACER, obs.TIMELINE) == (tracer, timeline)
    assert (obs.TRACER, obs.TIMELINE, obs.PROFILER) == (NULL_TRACER, None,
                                                        None)


def test_set_and_clear_tracer():
    """A recording that raises still puts the no-op tracer back."""
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with obs.recording(tracer=tracer):
            assert obs.TRACER is tracer
            raise RuntimeError("the block fails")
    assert obs.TRACER is NULL_TRACER


# ---------------------------------------------------------------- registry


def test_the_registry_has_no_counter_or_histogram_instruments():
    """The map holds collectors only: a snapshot is their counters."""
    reg = MetricsRegistry({"sim": lambda: {"hits": 5, "depth": 2.5}})
    assert reg.snapshot() == {"counters": {"sim.depth": 2.5, "sim.hits": 5}}
    assert not hasattr(reg, "counter") and not hasattr(reg, "histogram")


def test_a_reattached_source_counts_from_zero_again():
    """No count is recorded as going down: a timeline reading a fresh
    source (a new simulation) counts it from zero again."""
    timeline = TimelineRecorder(interval_s=1.0, bins=8)
    timeline.attach({"sim": lambda: {"c": 9}})
    timeline.sample(0.0)
    timeline.attach({"sim": lambda: {"c": 2}})
    timeline.sample(1.0)
    assert timeline.series("sim.c").values() == [9, 2]


def test_collectors_merge_under_prefix_and_skip_non_numeric():
    reg = MetricsRegistry({"net": lambda: {"bytes": 128, "name": "eth0",
                                           "up": True}})
    counters = reg.snapshot()["counters"]
    assert counters == {"net.bytes": 128}  # str and bool skipped


def test_collector_reregistration_replaces():
    """Attaching a simulation's collectors replaces the previous ones."""
    timeline = TimelineRecorder(interval_s=1.0, bins=8)
    timeline.attach({"sim": lambda: {"txs": 1}, "chaos": lambda: {"d": 1}})
    timeline.attach({"sim": lambda: {"txs": 99}})
    assert timeline.registry.snapshot()["counters"] == {"sim.txs": 99}


def test_snapshot_keys_sorted():
    reg = MetricsRegistry({"z": lambda: {"b": 1, "a": 1},
                           "m": lambda: {"k": 1}})
    assert list(reg.snapshot()["counters"]) == ["m.k", "z.a", "z.b"]


def test_counters_reach_a_trace_through_the_timeline_not_the_tracer():
    """The tracer records events and spans only; the counters it used to
    snapshot reach the trace as the timeline's series."""
    tracer = Tracer()
    assert not hasattr(tracer, "registry")
    timeline = TimelineRecorder(interval_s=1.0, bins=8)
    timeline.attach({"net": lambda: {"hits": 2}})
    timeline.sample(5.0)
    lines = trace_lines(tracer, timeline=timeline)
    assert len(lines) == 2  # header + one timeline record
    assert '"name":"net.hits"' in lines[1] and '"points":[[5.0,2]]' in lines[1]


def test_registry_reset():
    """An empty map (a recorder no simulation attached) reads nothing."""
    assert MetricsRegistry().snapshot() == {"counters": {}}
    assert TimelineRecorder().registry.snapshot() == {"counters": {}}
