"""Experiment runners: one module per paper table/figure.

Each module's point runner builds a simulation from
:mod:`repro.experiments.harness`, drives the workload, and returns a
plain-data result for one point of its figure.  A figure is a sweep of
that runner's registered entry (``python -m repro sweep``;
:mod:`repro.exec`), and the module's ``table(tasks)`` turns the merged
sweep document into the figure's rows, doing any arithmetic across
points (:mod:`repro.experiments.tables`, ``python -m repro report``).
The committed documents are under ``results/``; DESIGN.md section 4
indexes the experiments and EXPERIMENTS.md shows each table.
"""

from repro.experiments.harness import LOSimulation, SimulationParams
from repro.experiments.repeat import derive_seeds

__all__ = [
    "LOSimulation",
    "SimulationParams",
    "derive_seeds",
]
