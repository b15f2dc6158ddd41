"""Repetition seeds: "Each experiment was repeated 10 times, and the
average result of these runs is reported" (paper section 6.1).

Experiment runners are deterministic functions of their seed;
:func:`derive_seeds` gives the per-repetition seeds of every sweep
(:func:`repro.exec.derive_tasks`, ``sweep --repetitions``), and a
figure's table averages or pools over them.
"""

from __future__ import annotations

from typing import List


def derive_seeds(base_seed: int, repetitions: int) -> List[int]:
    """Independent per-repetition seeds from a base seed."""
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    return [base_seed + 1000 * i for i in range(repetitions)]
