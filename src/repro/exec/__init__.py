"""``repro.exec``: the parallel experiment executor.

The paper's evaluation protocol (section 6.1) is embarrassingly parallel:
every experiment is a deterministic function of its seed, repeated 10
times and swept over node counts / rates / adversary fractions.  This
package fans those (experiment, seed, grid-point) tasks across worker
processes and merges the results into a document byte-identical to the
serial run:

* :func:`derive_tasks` / :func:`expand_grid` -- deterministic task
  enumeration on top of :func:`repro.experiments.derive_seeds`;
* :func:`run_sweep` -- serial in-process with ``workers=1``; otherwise
  :func:`run_spool_sweep` on a temporary directory;
* :func:`run_spool_sweep` / :mod:`repro.exec.spool` -- the one parallel
  executor: tasks, attempt counts and results live as atomically
  published files in a spool directory, the coordinator runs each task in
  its own child process, a task whose process crashed or wedged is
  retried at once until its attempt budget is spent and then parked, and
  an interrupted sweep resumes (skipping completed indices) to a merged
  document byte-identical to the uninterrupted serial run;
* :func:`register_experiment` -- add custom sweepable entry points.

This is the only way to run experiments in parallel: the figure runners
and their CLI verbs are serial, and each figure's parallel form is a
sweep of its registered entry (``fig6_point``, ``fig7_point``,
``fig8_policy``, ``fig9``, ``fig10_point``, ``memory_point``, ``cpu``).

Shell entry point: ``python -m repro sweep`` (``--workers N``, and
``--spool DIR`` / ``--resume`` for durable runs).  See
``docs/parallelism.md`` for the execution model and the determinism
argument.
"""

from repro.exec.engine import (
    SweepOutcome,
    TaskOutcome,
    run_sweep,
)
from repro.exec.spool import (
    SpoolError,
    collect_outcomes,
    init_spool,
    load_manifest,
    run_spool_sweep,
    spool_status,
)
from repro.exec.tasks import (
    EXPERIMENTS,
    SweepTask,
    derive_tasks,
    expand_grid,
    experiment_names,
    register_experiment,
)
from repro.exec.worker import execute_task

__all__ = [
    "EXPERIMENTS",
    "SpoolError",
    "SweepOutcome",
    "SweepTask",
    "TaskOutcome",
    "collect_outcomes",
    "derive_tasks",
    "execute_task",
    "expand_grid",
    "experiment_names",
    "init_spool",
    "load_manifest",
    "register_experiment",
    "run_spool_sweep",
    "run_sweep",
    "spool_status",
]
