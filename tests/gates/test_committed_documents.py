"""Every committed figure document is re-made byte for byte.

A document under ``results/<name>/sweep.json`` lists its own tasks
(experiment, seed, repetition, parameters).  Re-running that list with
two worker processes must produce the committed bytes: a number in
EXPERIMENTS.md then traces to a run anyone can repeat, and a change that
moves a figure must commit the document it moved.  At the figures' 20-80
nodes the eleven simulation documents take about 90-110 s on a 2-core
host, 50-70 s of it the ``ablation-timeout`` row with a 0.5 s request
timeout and no retries (each ``execution.json`` records the wall time of
the run that made it).

Byte identity holds under the Python version that made a document, which
its ``execution.json`` records as ``python``: 3.12 made ``sum()`` over
floats compensated, so a mean can move in its last bit between versions.
Under another version the gate fails on that precondition rather than on
a byte diff; run it under the recorded version, or re-make the documents.

``cpu`` holds wall-clock timings, which no re-run repeats: its 128-item
task is re-run instead and held to the section 6.5 shape (partitioning
pays more than 2x and splits the difference over several sketches).
"""

import json
import platform
from pathlib import Path

import pytest

import repro
from repro.exec import SweepTask, run_sweep

pytestmark = pytest.mark.gate

RESULTS = Path(repro.__file__).resolve().parents[2] / "results"
DOCUMENTS = sorted(path.parent.name for path in RESULTS.glob("*/sweep.json"))


def _tasks(name):
    doc = json.loads((RESULTS / name / "sweep.json").read_text())
    return [SweepTask(index=t["index"], experiment=t["experiment"],
                      seed=t["seed"], repetition=t["repetition"],
                      params=t["params"]) for t in doc["tasks"]]


@pytest.mark.parametrize("name", [d for d in DOCUMENTS if d != "cpu"])
def test_a_committed_document_is_remade_byte_for_byte(name):
    made_under = json.loads(
        (RESULTS / name / "execution.json").read_text())["python"]
    running = platform.python_version()
    assert made_under.split(".")[:2] == running.split(".")[:2], (
        f"results/{name} was made under Python {made_under}, this is"
        f" {running}: run the gate under {made_under} or re-make it")
    outcome = run_sweep(_tasks(name), workers=2)
    assert not outcome.failed(), [o.error for o in outcome.failed()]
    assert outcome.results_bytes() == (RESULTS / name / "sweep.json").read_bytes()


def test_partitioned_decoding_pays_at_128_items():
    (task,) = [t for t in _tasks("cpu") if t.params["difference"] == 128]
    (outcome,) = run_sweep([task]).outcomes
    result = outcome.result
    assert result["naive_seconds"] / result["partitioned_seconds"] > 2.0
    assert result["partitioned_sketches"] > 1
