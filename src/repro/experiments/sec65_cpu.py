"""Section 6.5: CPU cost of sketch decoding, naive vs hash-partitioned.

Paper: "calculating a set difference comprising 1,000 items takes
approximately 10 seconds using Minisketch.  ...  For a set difference of
1,000 items, our method completes all necessary sketches in under 100 ms"
-- a >=100x speedup from partitioning.  Absolute times differ in pure
Python (DESIGN.md, substitutions); the reproduced quantity is the speedup
ratio, which holds because decode cost is superlinear in the difference
size while partitioning keeps every decode at the per-sketch capacity.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List

from repro.sketch import PartitionedReconciler, PinSketch, SketchDecodeError
from repro.sketch.pinsketch import clear_decode_cache


@dataclass
class CpuResult:
    """One naive-vs-partitioned decode timing comparison."""

    difference: int
    naive_seconds: float
    partitioned_seconds: float
    partitioned_sketches: int

    @property
    def speedup(self) -> float:
        if self.partitioned_seconds <= 0:
            return float("inf")
        return self.naive_seconds / self.partitioned_seconds


def make_sets(difference: int, common: int = 200, seed: int = 42):
    """Two random id sets with the requested symmetric difference."""
    rng = random.Random(seed)
    universe = rng.sample(range(1, 1 << 31), difference + common)
    half = difference // 2
    a_only = set(universe[:half])
    b_only = set(universe[half:difference])
    shared = set(universe[difference:])
    return a_only | shared, b_only | shared


def time_naive(set_a, set_b, capacity: int) -> float:
    """Seconds for a single full-capacity sketch decode of the difference."""
    sketch_a = PinSketch(capacity, 32)
    sketch_a.add_all(set_a)
    sketch_b = PinSketch(capacity, 32)
    sketch_b.add_all(set_b)
    clear_decode_cache()  # time real decoding, not the memoisation layer
    start = time.perf_counter()
    try:
        decoded = (sketch_a ^ sketch_b).decode()
    except SketchDecodeError:  # pragma: no cover - capacity sized to fit
        raise AssertionError("naive decode must succeed at full capacity")
    elapsed = time.perf_counter() - start
    assert decoded == set_a ^ set_b
    return elapsed


def time_partitioned(set_a, set_b, capacity: int, max_depth: int = 12):
    """Seconds (and decode count) for partitioned reconciliation."""
    reconciler = PartitionedReconciler(capacity=capacity, m=32,
                                       max_depth=max_depth)
    clear_decode_cache()  # time real decoding, not the memoisation layer
    start = time.perf_counter()
    decoded, stats = reconciler.reconcile_sets(set_a, set_b)
    elapsed = time.perf_counter() - start
    assert decoded == set_a ^ set_b
    return elapsed, stats.sketches_decoded


def run_cpu_comparison(
    difference: int = 128,
    partition_capacity: int = 16,
    seed: int = 42,
) -> CpuResult:
    """The section 6.5 row at a configurable difference size.

    The default difference of 128 keeps the pure-Python naive decode in
    benchmark-friendly territory; the speedup ratio is the reproduced
    quantity and grows with the difference (the paper's 1,000-item row is
    reachable by passing ``difference=1000``).
    """
    set_a, set_b = make_sets(difference, seed=seed)
    naive_s = time_naive(set_a, set_b, capacity=difference)
    part_s, sketches = time_partitioned(set_a, set_b, partition_capacity)
    # Microseconds: finer digits of a wall-clock decode time are noise.
    return CpuResult(
        difference=difference,
        naive_seconds=round(naive_s, 6),
        partitioned_seconds=round(part_s, 6),
        partitioned_sketches=sketches,
    )


def table(tasks: List[Dict[str, Any]]):
    """Section 6.5's CPU table: one row per ``cpu`` task.

    Timings are stored rounded to the microsecond and shown in full.
    """
    rows = [
        (r["difference"], task["seed"], f"{r['naive_seconds']:.6f}",
         f"{r['partitioned_seconds']:.6f}",
         f"{r['naive_seconds'] / r['partitioned_seconds']:.1f}x"
         if r["partitioned_seconds"] > 0 else "inf",
         r["partitioned_sketches"])
        for task in tasks for r in [task["result"]]
    ]
    return [(
        "Sec. 6.5 -- sketch decode cost, naive vs hash-partitioned",
        ("difference", "seed", "naive_s", "partitioned_s", "speedup",
         "sketches"),
        rows,
    )]
