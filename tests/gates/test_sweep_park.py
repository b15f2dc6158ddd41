"""A sweep task past its timeout is parked, not waited on.

``sweep run --param duration_s=600 --workers 2 --timeout 2
--max-attempts 1``: 600 simulated seconds cannot finish inside a 2 s
budget, so with one attempt the task must come back ``PARK`` well before
a 120 s bound (the in-worker alarm, or the coordinator's ``2 x 2 + 5 s``
hard deadline if the alarm is swallowed), in about 3 s.  Its ``task_s``
must be the wall time its attempt spent, at least the 2 s timeout: a
parked task used to report 0.00 s, so ``execution.json`` dropped the time
its failed attempts took.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.gate

SRC = str(Path(repro.__file__).resolve().parents[1])


def test_a_task_past_its_timeout_is_parked_with_its_seconds(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (SRC, env.get("PYTHONPATH")) if part)
    done = subprocess.run(
        [sys.executable, "-m", "repro", "sweep", "run",
         "--param", "duration_s=600", "--workers", "2", "--timeout", "2",
         "--max-attempts", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    print(done.stdout)
    assert done.returncode == 0, done.stderr
    (row,) = [line.split() for line in done.stdout.splitlines()
              if " PARK " in line]
    header = done.stdout.splitlines()[0].split()
    assert float(row[header.index("task_s")]) >= 2.0, row
