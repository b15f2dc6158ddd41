"""The parent side: runs cold children one at a time and aggregates them.

The parent never imports ``repro``: every repeat is a fresh
``python -m lobench.child`` so caches, tables and the allocator start
empty, and no two children ever run at once (the box has two cores and
a concurrent child would disturb the timed one).  Metric names, units,
directions and bounds are read from ``BENCHMARK.json``, the one place
they are declared.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "lobench/1"
CHILD_TIMEOUT_S = 120
MIN_REPEATS = 3
#: A repeat whose CPU time is below this share of its wall time shared
#: the core with something else; it is flagged, never dropped.
DISTURBED_CPU_WALL_RATIO = 0.95


def catalogue() -> Dict[str, Any]:
    """``BENCHMARK.json``: workloads and metric declarations."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def spawn(args: List[str]) -> Dict[str, Any]:
    """Run one child to its end and return its JSON document.

    A child that crashes, exceeds ``CHILD_TIMEOUT_S``, prints no document
    or breaks one of its checks comes back with ``"failed"`` set to the
    reason.
    """
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    command = [sys.executable, "-m", "lobench.child", *args]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"failed": f"timeout after {CHILD_TIMEOUT_S} s"}
    lines = done.stdout.strip().splitlines()
    try:
        document = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"failed": f"exit {done.returncode}, no result",
                "stderr": done.stderr[-2000:]}
    broken = [name for name, ok in document["checks"].items() if not ok]
    if broken:
        document["failed"] = "check failed: " + ", ".join(broken)
    elif done.returncode != 0:
        document["failed"] = f"exit {done.returncode}"
    return document


def summarise(values: List[float]) -> Dict[str, Any]:
    """Median, extremes and sample count of one metric's repeats."""
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": values,
    }


def measure_workload(
    name: str,
    seed: int,
    *,
    repeats: Optional[int] = None,
    seconds: Optional[float] = None,
    timed: bool = True,
    traced: bool = True,
    quick: bool = False,
    out_dir: Optional[Path] = None,
) -> Dict[str, Any]:
    """All repeats of one workload at one seed, checked and aggregated.

    Timed (untraced) children run until ``repeats`` of them are done or,
    when ``seconds`` is given instead, until another one would no longer
    fit in that many seconds -- but never fewer than ``MIN_REPEATS``.
    With ``timed=False`` a single untraced child still runs, as the
    reference the traced one is compared with.  The traced child writes
    ``trace-<name>.json`` into ``out_dir``.
    """
    base = ["--workload", name, "--seed", str(seed)] + (["--quick"] * quick)
    started = time.perf_counter()
    runs: List[Dict[str, Any]] = []
    longest = 0.0

    def enough() -> bool:
        if not timed:
            return bool(runs)
        if repeats is not None:
            return len(runs) >= repeats
        elapsed = time.perf_counter() - started
        return len(runs) >= MIN_REPEATS and elapsed + longest > seconds

    while not enough():
        before = time.perf_counter()
        runs.append(spawn(base))
        longest = max(longest, time.perf_counter() - before)

    traced_run = None
    if traced:
        out_dir = out_dir or ROOT / "lobench-out"
        out_dir.mkdir(parents=True, exist_ok=True)
        traced_run = spawn(base + ["--trace", str(out_dir / f"trace-{name}.json")])

    everything = runs + ([traced_run] if traced_run else [])
    good = [run for run in runs if "failed" not in run]
    digests = {run["stats_sha256"] for run in everything if "stats_sha256" in run}
    result: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "quick": quick,
        "attempted": len(everything),
        "failed": sum(1 for run in everything if "failed" in run),
        # Same seed, same simulated outcome: between repeats (determinism)
        # and between traced and untraced (tracing changes no behaviour).
        "deterministic": len(digests) == 1,
        "disturbed_repeats": sum(
            1 for run in good
            if run["cpu_wall_ratio"] < DISTURBED_CPU_WALL_RATIO
        ),
        "runs": runs,
        "traced_run": traced_run,
    }
    if good:
        result["end_to_end"] = {
            metric: summarise([run["end_to_end"][metric] for run in good])
            for metric in good[0]["end_to_end"]
        }
        # As the clock read them, before scaling to the reference host speed.
        result["wall"] = {
            "setup_s": summarise([run["phases"]["setup_s"] for run in good]),
            "run_s": summarise([run["phases"]["run_s"] for run in good]),
            "host_speed": summarise([run["host_speed"] for run in good]),
        }
    if traced_run is not None and "failed" not in traced_run and good:
        per_layer = dict(traced_run["per_layer"])
        untraced = result["end_to_end"]["run_s"]["median"]
        per_layer["bench.trace_overhead_frac"] = \
            (traced_run["end_to_end"]["run_s"] - untraced) / untraced
        result["per_layer"] = per_layer
    result["correct"] = result["failed"] == 0 and result["deterministic"]
    return result


def preflight(seed: int) -> Dict[str, Any]:
    """Sketch decode against brute force, in a child of its own."""
    return spawn(["--preflight", "--seed", str(seed)])


def environment(seed: int) -> Dict[str, Any]:
    """Where and on what the results were taken."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"seed": seed, "nproc": os.cpu_count(), "git_commit": commit}
