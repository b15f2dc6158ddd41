"""Low-overhead wall-clock phase profiler with nested attribution.

Where is the wall time going -- event-loop dispatch, network delivery,
reconciliation, mempool admission, crypto?  The tracer can't answer: it
records *simulated* time.  :class:`PhaseProfiler` times real execution:
the event loop classifies every callback it runs into a coarse phase
(see :func:`classify_callback`), and a few nested hot spots (signature
creation/verification, mempool admission, sketch decode-cache misses)
attribute their own slices, so a phase's **self** time excludes its
children while **inclusive** time contains them.

Near zero cost when off: each profiled site reads ``obs.PROFILER`` once
per call, so the off path is one attribute load plus one ``is None``
branch -- and the event loop reads it once per ``run_until`` call, not
per event.

The profiler reads the wall clock, so nothing it measures enters the
simulation or the deterministic records: a run that writes a recording
(``run --trace`` / ``--timeline``, ``sweep --task-traces``) appends its
totals to the file as ``phase`` records, the one wall-clock record type
of ``repro.trace/1``, and two same-seed files differ only in those.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Qualname substrings -> phase, tried in order; the first match wins.
#: Callback classification is cached per underlying function object, so
#: this table is consulted a handful of times per run, not per event.
CLASSIFY_RULES: Tuple[Tuple[str, str], ...] = (
    ("Network._deliver", "net"),
    ("_sync_tick", "reconcile"),
    ("_on_sync_timeout", "reconcile"),
    ("_on_content_timeout", "reconcile"),
    ("_drain_mempool", "mempool"),
    ("_inject_one", "workload"),
    ("_inject_client", "workload"),
    ("LeaderSchedule", "blocks"),
    ("NeighborShuffler", "gossip"),
    ("telemetry_tick", "telemetry"),
    ("ChaosController", "chaos"),
)

#: Phase assigned when no rule matches.
OTHER_PHASE = "loop.other"


def classify_callback(callback: Callable[..., Any]) -> str:
    """Map a scheduled callback to its phase name (uncached form).

    Bound methods classify by their underlying function's qualified name;
    closures by their code's qualified name.  Unknown callbacks land in
    :data:`OTHER_PHASE` rather than erroring -- profiling must never take
    a run down.
    """
    func = getattr(callback, "__func__", callback)
    qualname = getattr(func, "__qualname__", "") or ""
    for needle, phase in CLASSIFY_RULES:
        if needle in qualname:
            return phase
    return OTHER_PHASE


class PhaseProfiler:
    """Accumulates wall-clock self/inclusive time per named phase.

    One coherent stack: :meth:`enter` pushes a frame, :meth:`exit` pops
    it, charging the elapsed time to the phase's inclusive total and the
    elapsed-minus-children time to its self total.  Re-entrant phases
    (a ``crypto`` slice inside another ``crypto`` slice) only charge
    inclusive time at the outermost frame, so totals never double-count.

    ``clock`` is injectable for tests; production uses
    :func:`time.perf_counter`.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock or time.perf_counter
        self.self_s: Dict[str, float] = {}
        self.incl_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        # Stack frames: [phase, start, child_time_acc, outermost_of_phase]
        self._stack: List[List[Any]] = []
        self._classify_cache: Dict[Any, str] = {}

    # ------------------------------------------------------------- timing

    def classify(self, callback: Callable[..., Any]) -> str:
        """Cached :func:`classify_callback` (keyed per function object)."""
        func = getattr(callback, "__func__", callback)
        phase = self._classify_cache.get(func)
        if phase is None:
            phase = classify_callback(callback)
            self._classify_cache[func] = phase
        return phase

    def enter(self, phase: str) -> None:
        """Open a phase frame (pair every call with :meth:`exit`)."""
        outermost = all(frame[0] != phase for frame in self._stack)
        self._stack.append([phase, self._clock(), 0.0, outermost])

    def exit(self) -> None:
        """Close the innermost frame and charge its times."""
        phase, start, child_time, outermost = self._stack.pop()
        elapsed = self._clock() - start
        self.calls[phase] = self.calls.get(phase, 0) + 1
        self.self_s[phase] = self.self_s.get(phase, 0.0) \
            + (elapsed - child_time)
        if outermost:
            self.incl_s[phase] = self.incl_s.get(phase, 0.0) + elapsed
        if self._stack:
            self._stack[-1][2] += elapsed

    # ------------------------------------------------------------ records

    def phase_records(self) -> List[Dict[str, Any]]:
        """One ``phase`` record per phase, sorted by name.

        ``{"type": "phase", "name": str, "calls": int, "self_s": float,
        "incl_s": float}``, seconds rounded to the microsecond; ``python
        -m repro report`` renders them as the phase table.
        """
        return [{
            "type": "phase",
            "name": phase,
            "calls": self.calls[phase],
            "self_s": round(self.self_s[phase], 6),
            "incl_s": round(self.incl_s.get(phase, self.self_s[phase]), 6),
        } for phase in sorted(self.self_s)]
