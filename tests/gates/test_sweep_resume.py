"""A spool sweep SIGKILLed mid-run resumes to the serial result.

The crash-resumability acceptance test, end to end at the command line:
an 8-task ``sweep --workers 2 --spool DIR`` has its whole process group
(the coordinator and its task processes alike) SIGKILLed as soon as its
first result is published.  The kill must land mid-run (fewer than 8
results in the spool), and ``--resume`` must then merge to a file
byte-identical to an uninterrupted ``--workers 1`` run.  The kill is
triggered by that observed state, not by a fixed sleep, so it lands
mid-run however fast the host is (about 4 s in all).
"""

import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.gate

SRC = str(Path(repro.__file__).resolve().parents[1])

SWEEP = ["sweep", "run", "--param", "num_nodes=12,14,16,18",
         "--param", "rate_per_s=5.0", "--param", "duration_s=8.0",
         "--param", "drain_s=4.0", "--repetitions", "2"]
TASKS = 8


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (SRC, env.get("PYTHONPATH")) if part)
    return env


def _repro(args, cwd):
    """``python -m repro ARGS`` in ``cwd``; fails the test on a non-zero exit."""
    subprocess.run([sys.executable, "-m", "repro", *args], cwd=cwd,
                   env=_env(), check=True, stdout=subprocess.DEVNULL,
                   timeout=300)


def test_a_sweep_killed_mid_run_resumes_to_the_serial_result(tmp_path):
    results = tmp_path / "spool-out" / "results"
    sweep = subprocess.Popen(
        [sys.executable, "-m", "repro", *SWEEP, "--workers", "2",
         "--spool", "spool-out"],
        cwd=tmp_path, env=_env(), stdout=subprocess.DEVNULL,
        start_new_session=True,
    )
    deadline = time.monotonic() + 120.0
    try:
        while not list(results.glob("task-*.json")):
            assert sweep.poll() is None, "the sweep ended before a result"
            assert time.monotonic() < deadline, "no result within 120 s"
            time.sleep(0.005)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(sweep.pid, signal.SIGKILL)
        sweep.wait()
    completed = len(list(results.glob("task-*.json")))
    assert 1 <= completed < TASKS, f"{completed}/{TASKS} results at the kill"

    _repro(SWEEP + ["--workers", "2", "--spool", "spool-out", "--resume",
                    "--out-dir", "resumed"], tmp_path)
    _repro(SWEEP + ["--workers", "1", "--out-dir", "serial"], tmp_path)
    assert (tmp_path / "resumed" / "sweep.json").read_bytes() == \
        (tmp_path / "serial" / "sweep.json").read_bytes()
