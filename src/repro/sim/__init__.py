"""Deterministic discrete-event simulation substrate.

All LO protocol code runs against this simulated clock rather than wall-clock
time.  The paper evaluates LO on a research cluster with netem-emulated
latencies; we substitute a deterministic event-driven simulator so that every
experiment is reproducible bit-for-bit from a seed (see DESIGN.md section 3).

Public API:

* :class:`~repro.sim.loop.EventLoop` -- the scheduler.  ``call_at`` /
  ``call_later`` return a :data:`~repro.sim.loop.Timer` (the heap entry
  itself), which ``EventLoop.cancel`` disarms; periodic activities
  reschedule themselves with ``call_later``.
* :class:`~repro.sim.rng.SeededRng` -- named deterministic random streams.
"""

from repro.sim.loop import EventLoop, SimulationError, Timer
from repro.sim.rng import SeededRng

__all__ = [
    "EventLoop",
    "SeededRng",
    "SimulationError",
    "Timer",
]
