"""Trace regression tests on a real simulation: determinism + coverage.

Acceptance (ISSUE 4): a seeded chaos scenario traced twice yields
byte-identical ``repro.trace/1`` JSONL, the trace validates against the
schema, and it contains at least one reconciliation span, one
chaos/fault event, and one accountability event.
"""

import json

from repro import obs
from repro.attacks import make_censor_factory
from repro.experiments.harness import LOSimulation, SimulationParams
from repro.net.chaos import ChaosPlan, CrashWindow
from repro.net.latency import ConstantLatencyModel
from repro.obs import (
    TimelineRecorder,
    Tracer,
    export_jsonl,
    validate_trace_file,
)

PLAN = ChaosPlan(
    seed=5,
    drop_rate=0.05,
    duplicate_rate=0.05,
    crash_windows=(CrashWindow(4, 3.0, 8.0),),
)


def run_traced(tmp_path, name, sample_every=4):
    """One seeded chaos + equivocator run; returns the JSONL path."""
    tracer = Tracer(sample_every=sample_every)
    timeline = TimelineRecorder()
    with obs.recording(tracer=tracer, timeline=timeline):
        sim = LOSimulation(
            SimulationParams(
                num_nodes=10,
                seed=11,
                malicious_ids=[0],
                attacker_factory=make_censor_factory(
                    {0}, ignore_sync=True, drop_blames=True, equivocate=True
                ),
                latency_model=ConstantLatencyModel(0.05),
                chaos_plan=PLAN,
            )
        )
        sim.inject_workload(rate_per_s=4.0, duration_s=10.0)
        sim.run(20.0)
    path = tmp_path / name
    export_jsonl(tracer, str(path), meta={"seed": 11}, timeline=timeline)
    return path


def test_traced_chaos_run_is_byte_identical(tmp_path):
    a = run_traced(tmp_path, "a.jsonl")
    b = run_traced(tmp_path, "b.jsonl")
    assert a.read_bytes() == b.read_bytes()


def test_trace_validates_and_covers_required_records(tmp_path):
    path = run_traced(tmp_path, "t.jsonl")
    assert validate_trace_file(str(path)) == []

    records = [json.loads(line) for line in path.read_text().splitlines()[1:]]
    spans = {r["name"] for r in records if r["type"] == "span"}
    events = {r["name"] for r in records if r["type"] == "event"}

    assert "reconcile.round" in spans
    assert "sim.run" in spans
    # chaos / fault events
    assert events & {"chaos.drop", "chaos.duplicate", "chaos.crash",
                     "net.drop"}
    assert "chaos.crash" in events  # the scripted crash window
    # accountability events
    assert events & {"acct.suspicion", "acct.equivocation", "acct.exposure"}

    # every reconciliation round closed with an outcome attribute
    rounds = [r for r in records
              if r["type"] == "span" and r["name"] == "reconcile.round"]
    assert rounds and all("outcome" in r["attrs"] for r in rounds)

    # the timeline's series made it in, carrying every collector namespace
    series = {r["name"] for r in records if r["type"] == "timeline"}
    assert any(k.startswith("net.") for k in series)
    assert any(k.startswith("chaos.") for k in series)
    assert any(k.startswith("caches.") for k in series)


def test_tracing_off_leaves_no_records(tmp_path):
    assert obs.TRACER.enabled is False
    sim = LOSimulation(SimulationParams(num_nodes=6, seed=3))
    sim.inject_workload(rate_per_s=3.0, duration_s=3.0)
    sim.run(6.0)
    # a tracer installed *afterwards* observes nothing from that run
    tracer = Tracer()
    assert tracer.records == []
