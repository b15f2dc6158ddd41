"""Experiment runners: one module per paper table/figure.

Each runner builds a simulation from :mod:`repro.experiments.harness`,
drives the workload, and returns a plain-data result object that the
corresponding benchmark prints as the paper's rows/series.  See DESIGN.md
section 4 for the experiment index.

Runners are serial: each calls its point function in a plain loop.  To
spread a figure's points or repetitions across processes, sweep its
registered entry with :func:`repro.exec.run_sweep` (``python -m repro
sweep``; see ``docs/parallelism.md``).
"""

from repro.experiments.harness import LOSimulation, SimulationParams
from repro.experiments.repeat import derive_seeds

__all__ = [
    "LOSimulation",
    "SimulationParams",
    "derive_seeds",
]
