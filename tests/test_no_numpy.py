"""The program never imports numpy.

Every field routine in :mod:`repro.sketch.gf` is scalar Python, so the
package, the CLI, a simulation run and a candidate-free decode (closed
forms up to degree 4, the Frobenius chain and trace splitting above) must
leave ``numpy`` out of ``sys.modules``.  Checked in a fresh interpreter:
the test process itself may hold numpy through pytest plugins.
"""

import os
import subprocess
import sys

import repro

SCRIPT = r"""
import random
import sys

import repro
import repro.cli
import repro.experiments.harness
from repro.experiments.harness import LOSimulation, SimulationParams
from repro.sketch import PinSketch
from repro.sketch.pinsketch import clear_decode_cache

sim = LOSimulation(SimulationParams(num_nodes=10, seed=3))
sim.inject_workload(2.0, 4.0)
sim.run(10.0)
committed = sum(len(node.log) for node in sim.nodes.values())
assert committed > 0, committed

rnd = random.Random(5)
# No candidates: degrees <= 4 take the closed forms, 8 and 12 the
# Frobenius chain and trace splitting.
for degree in (1, 2, 3, 4, 8, 12):
    elements = set(rnd.sample(range(1, 1 << 32), degree))
    sketch = PinSketch(16, 32)
    sketch.add_all(elements)
    clear_decode_cache()
    assert sketch.decode() == elements, degree
assert "numpy" not in sys.modules, sorted(
    name for name in sys.modules if name.split(".")[0] == "numpy")
print(committed)
"""


def test_program_runs_without_importing_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.split()[-1]) > 0
