"""Sweep task derivation: deterministic (experiment, seed, grid-point) fan-out.

A *sweep* is the cartesian product of a parameter grid with a set of
per-repetition seeds (derived by :func:`repro.experiments.derive_seeds`,
exactly as the serial repetition helper does).  Tasks are enumerated in a
fixed order -- grid-major, repetition-minor, with grid axes sorted by
parameter name -- so the task list, and therefore the merged result
document, is a pure function of the sweep specification.  Workers may
finish in any order; results are keyed by ``task.index`` and re-assembled
in derivation order, which is what makes the parallel merge byte-identical
to the serial run (see ``docs/parallelism.md``).

Experiments are looked up by *name* in a registry of module-level entry
points, so nothing but plain data (name, seed, params) ever crosses the
process boundary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Sequence

from repro.experiments import (
    fig6_detection,
    fig7_mempool_latency,
    fig8_block_latency,
    fig9_bandwidth,
    fig10_reconciliations,
    plain_run,
    sec65_cpu,
    sec65_memory,
)
from repro.experiments.repeat import derive_seeds

Runner = Callable[..., Any]


@dataclass(frozen=True)
class SweepTask:
    """One unit of work: run ``experiment`` at ``seed`` with ``params``.

    ``index`` is the task's position in the deterministic enumeration and
    doubles as the merge key; ``repetition`` records which derived seed
    this is (0-based) so aggregation across repetitions stays explicit.
    """

    index: int
    experiment: str
    seed: int
    repetition: int
    params: Mapping[str, Any] = field(default_factory=dict)

    def spec(self) -> Dict[str, Any]:
        """Plain-data form a task process reads from the spool (JSON)."""
        return {
            "index": self.index,
            "experiment": self.experiment,
            "seed": self.seed,
            "repetition": self.repetition,
            "params": dict(self.params),
        }


def expand_grid(grid: Mapping[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """Cartesian product of a ``{param: [values...]}`` grid.

    Axes iterate in sorted-name order and values in their given order, so
    the point list is deterministic regardless of dict insertion order.
    An empty grid yields one empty point (a sweep of repetitions only).

    >>> expand_grid({"b": [1, 2], "a": ["x"]})
    [{'a': 'x', 'b': 1}, {'a': 'x', 'b': 2}]
    """
    if not grid:
        return [{}]
    names = sorted(grid)
    points = []
    for combo in itertools.product(*(grid[name] for name in names)):
        points.append(dict(zip(names, combo)))
    return points


def derive_tasks(
    experiment: str,
    grid: Mapping[str, Sequence[Any]],
    base_seed: int = 42,
    repetitions: int = 1,
) -> List[SweepTask]:
    """Enumerate the full task list for a sweep, in deterministic order.

    Every grid point runs once per derived seed; the per-repetition seeds
    are shared across grid points (repetition ``i`` of every point uses
    ``derive_seeds(base_seed, repetitions)[i]``), mirroring the paper's
    "each experiment was repeated 10 times" protocol.
    """
    if experiment not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment!r}; have {sorted(EXPERIMENTS)}"
        )
    seeds = derive_seeds(base_seed, repetitions)
    tasks: List[SweepTask] = []
    for point in expand_grid(grid):
        for repetition, seed in enumerate(seeds):
            tasks.append(SweepTask(
                index=len(tasks),
                experiment=experiment,
                seed=seed,
                repetition=repetition,
                params=point,
            ))
    return tasks


# ----------------------------------------------------------------- registry


#: Experiment name -> ``fn(seed, **params) -> result`` entry point.  All
#: entries are module-level functions so worker processes can resolve them
#: by name; results must be picklable and `to_jsonable`-serialisable.
#: Each is one point of a figure: the figure is a sweep of its entry, and
#: the arithmetic across points lives in the ``table`` function of the
#: entry's module, which ``report`` prints
#: (:mod:`repro.experiments.tables`).
EXPERIMENTS: Dict[str, Runner] = {
    "run": plain_run.run_plain,
    "fig6_point": fig6_detection.run_detection_point,
    "fig7_point": fig7_mempool_latency.run_fig7_point,
    "fig8_policy": fig8_block_latency.run_policy,
    "fig9_point": fig9_bandwidth.run_protocol_point,
    "fig10_point": fig10_reconciliations.run_fig10_point,
    "memory_point": sec65_memory.run_memory_point,
    "cpu": sec65_cpu.run_cpu_comparison,
}


def register_experiment(name: str, runner: Runner) -> None:
    """Add (or replace) a sweepable experiment entry point.

    ``runner`` must be an importable module-level callable of the form
    ``fn(seed, **params)``; closures/lambdas would not survive the trip to
    a worker process.  Registration is inherited by fork-started workers;
    under a spawn start method the registering module must be importable
    from the worker too.
    """
    EXPERIMENTS[name] = runner


def experiment_names() -> List[str]:
    """Sorted names of all registered sweepable experiments."""
    return sorted(EXPERIMENTS)
