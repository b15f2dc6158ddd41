"""Repetition helpers: "Each experiment was repeated 10 times, and the
average result of these runs is reported" (paper section 6.1).

Experiment runners are deterministic functions of their seed;
:func:`repeat_scalar` re-runs one with derived seeds and aggregates any
numeric extractions.
"""

from __future__ import annotations

import statistics
from typing import Callable, Dict, List, Sequence, TypeVar

T = TypeVar("T")


def derive_seeds(base_seed: int, repetitions: int) -> List[int]:
    """Independent per-repetition seeds from a base seed."""
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    return [base_seed + 1000 * i for i in range(repetitions)]


def repeat_scalar(
    run: Callable[..., T],
    extract: Dict[str, Callable[[T], float]],
    base_seed: int = 42,
    repetitions: int = 3,
    workers: int = 1,
) -> Dict[str, Dict[str, float]]:
    """Run ``run(seed=s)`` per repetition and average scalar extractions.

    Returns ``{metric: {"mean": ..., "std": ..., "min": ..., "max": ...,
    "runs": n}}`` for each extractor.

    ``workers > 1`` fans the repetitions across worker processes
    (:func:`repro.exec.map_points`); results come back in seed order and
    the extraction/aggregation below consumes the identical float
    sequence, so mean/std match the serial run exactly.  ``run`` must
    then be picklable (a module-level function or ``functools.partial``
    of one); ``extract`` callables always run in this process and are
    unconstrained.
    """
    from repro.exec.engine import map_points

    seeds = derive_seeds(base_seed, repetitions)
    results = map_points(run, [{"seed": s} for s in seeds], workers=workers)
    samples: Dict[str, List[float]] = {name: [] for name in extract}
    for result in results:
        for name, fn in extract.items():
            samples[name].append(float(fn(result)))
    out: Dict[str, Dict[str, float]] = {}
    for name, values in samples.items():
        out[name] = {
            "mean": statistics.mean(values),
            "std": statistics.pstdev(values) if len(values) > 1 else 0.0,
            "min": min(values),
            "max": max(values),
            "runs": float(len(values)),
        }
    return out
