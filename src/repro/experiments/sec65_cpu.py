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
from dataclasses import dataclass, field
from typing import List, Sequence

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
    return CpuResult(
        difference=difference,
        naive_seconds=naive_s,
        partitioned_seconds=part_s,
        partitioned_sketches=sketches,
    )


@dataclass
class CpuSweepResult:
    """Naive-vs-partitioned comparisons across difference sizes."""

    points: List[CpuResult] = field(default_factory=list)


def run_cpu_sweep(
    differences: Sequence[int],
    partition_capacity: int = 16,
    seed: int = 42,
) -> CpuSweepResult:
    """Section 6.5 rows at several difference sizes."""
    return CpuSweepResult(points=[
        run_cpu_comparison(difference=d, partition_capacity=partition_capacity,
                           seed=seed)
        for d in differences
    ])
