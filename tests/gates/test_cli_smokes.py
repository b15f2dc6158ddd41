"""The command line end to end, each in a fresh interpreter.

* **A seeded 10,000-node run inside a wall-clock budget.**  The paper
  evaluated LO on a 10,000-node cluster; a seeded run at that size must
  complete well inside 180 s (the run itself takes a few seconds -- the
  budget exists to catch quadratic regressions, which turn seconds into
  minutes), put bytes on the wire and expose no correct node.
* **An admission soak goes steady.**  ``--until-steady`` must end the
  converging soak before its 80 s horizon; the run writes its
  fixed-memory ``repro.trace/1`` timeline file into a directory that is
  not there yet, and ``watch --once`` reads it and ``report``
  schema-validates it (a malformed file fails it).
* **A traced figure point validates and converts.**  ``sweep fig6_point
  --task-traces`` at 12 nodes writes a task trace that ``report``
  schema-validates and turns into a non-empty Chrome trace-event file
  (about 2 s).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.obs.schema import validate_trace_file

pytestmark = pytest.mark.gate

SRC = str(Path(repro.__file__).resolve().parents[1])


def _repro(args, cwd, timeout=None):
    """``python -m repro ARGS`` in ``cwd``; fails the test on a non-zero exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (SRC, env.get("PYTHONPATH")) if part)
    subprocess.run([sys.executable, "-m", "repro", *args], cwd=cwd, env=env,
                   check=True, timeout=timeout)


def test_a_seeded_10000_node_run_finishes_inside_180_s(tmp_path):
    _repro(["run", "--nodes", "10000", "--rate", "5.0", "--duration", "0.6",
            "--drain", "0.4", "--seed", "1234", "--json", "paper-scale.json"],
           tmp_path, timeout=180)
    result = json.loads((tmp_path / "paper-scale.json").read_text())["result"]
    assert result["nodes"] == 10000, result["nodes"]
    assert result["overhead_bytes"] > 0, result
    assert result["exposures"] == 0, result


def test_an_admission_soak_goes_steady_before_its_horizon(tmp_path):
    _repro(["run", "--nodes", "8", "--rate", "6.0", "--duration", "60",
            "--drain", "20", "--admission", "--seed", "7", "--until-steady",
            "--timeline", "soak-out/timeline.jsonl",
            "--json", "soak-out/run.json"],
           tmp_path)
    doc = json.loads((tmp_path / "soak-out" / "run.json").read_text())
    steady = doc["result"]["steady"]
    assert steady["steady"], steady
    assert steady["t"] < steady["horizon"], steady
    _repro(["watch", "soak-out/timeline.jsonl", "--once"], tmp_path)
    _repro(["report", "soak-out/timeline.jsonl"], tmp_path)


def test_a_traced_fig6_point_validates_and_converts(tmp_path):
    _repro(["sweep", "fig6_point", "--param", "num_nodes=12",
            "--param", "malicious_fraction=0.2", "--task-traces",
            "--out-dir", "trace-out"], tmp_path)
    trace = "trace-out/task-0000.trace.jsonl"
    assert validate_trace_file(str(tmp_path / trace)) == []
    _repro(["report", trace, "--chrome", "trace-out/fig6.chrome.json"],
           tmp_path)
    chrome = json.loads((tmp_path / "trace-out/fig6.chrome.json").read_text())
    assert chrome["traceEvents"]
