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


def run_plain(seed: int, num_nodes: int = 20, rate_per_s: float = 10.0,
              duration_s: float = 10.0, drain_s: float = 5.0,
              enable_blocks: bool = False) -> Dict[str, Any]:
    """A plain LO network run (the ``run`` CLI verb as a sweepable task)."""
    import statistics

    from repro.core.config import LOConfig
    from repro.experiments.harness import LOSimulation, SimulationParams

    sim = LOSimulation(SimulationParams(
        num_nodes=num_nodes, seed=seed, config=LOConfig(),
        enable_blocks=enable_blocks,
    ))
    count = sim.inject_workload(rate_per_s=rate_per_s, duration_s=duration_s)
    sim.run(duration_s + drain_s)
    latencies = sim.mempool_tracker.all_latencies()
    return {
        "nodes": num_nodes,
        "transactions": count,
        "mean_mempool_latency_s":
            statistics.mean(latencies) if latencies else None,
        "chain_height":
            sim.nodes[0].ledger.height if enable_blocks else None,
        "overhead_bytes": sim.total_overhead_bytes(),
        "exposures": sum(len(n.acct.exposed) for n in sim.nodes.values()),
        "events_processed": sim.loop.processed_events,
    }


def _fig6_point(seed: int, **params: Any):
    from repro.experiments.fig6_detection import run_detection_point
    return run_detection_point(seed=seed, **params)


def _fig6(seed: int, **params: Any):
    from repro.experiments.fig6_detection import run_fig6
    return run_fig6(seed=seed, **params)


def _fig7(seed: int, **params: Any):
    from repro.experiments.fig7_mempool_latency import run_fig7
    return run_fig7(seed=seed, **params)


def _fig7_point(seed: int, **params: Any):
    from repro.experiments.fig7_mempool_latency import run_fig7_point
    return run_fig7_point(seed=seed, **params)


def _fig8_policy(seed: int, **params: Any):
    from repro.experiments.fig8_block_latency import run_policy
    return run_policy(seed=seed, **params)


def _fig9(seed: int, **params: Any):
    from repro.experiments.fig9_bandwidth import run_fig9
    return run_fig9(seed=seed, **params)


def _fig10_point(seed: int, **params: Any):
    from repro.experiments.fig10_reconciliations import run_fig10_point
    return run_fig10_point(seed=seed, **params)


def _memory_point(seed: int, **params: Any):
    from repro.experiments.sec65_memory import run_memory_point
    return run_memory_point(seed=seed, **params)


def _cpu(seed: int, **params: Any):
    from repro.experiments.sec65_cpu import run_cpu_comparison
    return run_cpu_comparison(seed=seed, **params)


#: Experiment name -> ``fn(seed, **params) -> result`` entry point.  All
#: entries are module-level functions so worker processes can resolve them
#: by name; results must be picklable and `to_jsonable`-serialisable.
EXPERIMENTS: Dict[str, Runner] = {
    "run": run_plain,
    "fig6": _fig6,
    "fig6_point": _fig6_point,
    "fig7": _fig7,
    "fig7_point": _fig7_point,
    "fig8_policy": _fig8_policy,
    "fig9": _fig9,
    "fig10_point": _fig10_point,
    "memory_point": _memory_point,
    "cpu": _cpu,
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
