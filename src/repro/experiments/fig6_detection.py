"""Fig. 6: time to suspect / expose colluding censoring miners.

Paper setup (section 6.2): colluding malicious miners censor transactions,
commitments and blame traffic; all attackers are interconnected; the
correct nodes stay connected through correct-only paths.  Reported series:

* 'Exposure'  -- time for *all* correct nodes to hold the exposure,
  measured from the attack start; the paper notes convergence lands 6-7 s
  after the first detection.
* 'Suspicion' -- time until every correct node suspects all faulty nodes
  (slower: it waits on request timeouts and retries).

Both series are produced as a function of the fraction of colluding
miners.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.attacks import make_censor_factory
from repro.experiments.harness import LOSimulation, SimulationParams
from repro.testing.invariants import DetectionMonitor


@dataclass
class DetectionPoint:
    """One x-axis point of Fig. 6."""

    malicious_fraction: float
    num_malicious: int
    first_exposure_at: Optional[float]
    exposure_convergence_at: Optional[float]    # all correct nodes exposed all
    suspicion_convergence_at: Optional[float]   # all correct nodes suspect all
    exposure_spread_s: Optional[float]          # convergence - first exposure


def run_detection_point(
    num_nodes: int,
    malicious_fraction: float,
    seed: int = 42,
    tx_rate_per_s: float = 5.0,
    horizon_s: float = 60.0,
) -> DetectionPoint:
    """Measure detection times for one malicious fraction."""
    num_malicious = max(1, int(round(num_nodes * malicious_fraction)))
    malicious = list(range(num_malicious))
    factory = make_censor_factory(
        set(malicious), ignore_sync=True, drop_blames=True, equivocate=True
    )
    sim = LOSimulation(
        SimulationParams(
            num_nodes=num_nodes,
            seed=seed,
            malicious_ids=malicious,
            attacker_factory=factory,
        )
    )
    sim.inject_workload(rate_per_s=tx_rate_per_s, duration_s=horizon_s * 0.5)

    monitor = DetectionMonitor(sim, exposed=malicious,
                               suspected=malicious).start()
    sim.run(horizon_s)

    spread = None
    if monitor.exposure_at is not None and monitor.first_exposure_at is not None:
        spread = monitor.exposure_at - monitor.first_exposure_at
    return DetectionPoint(
        malicious_fraction=malicious_fraction,
        num_malicious=num_malicious,
        first_exposure_at=monitor.first_exposure_at,
        exposure_convergence_at=monitor.exposure_at,
        suspicion_convergence_at=monitor.suspicion_at,
        exposure_spread_s=spread,
    )


def table(tasks: List[Dict[str, Any]]):
    """Fig. 6's table: one row per point of a ``fig6_point`` sweep."""
    def s(value: Optional[float]) -> str:
        return "n/a" if value is None else f"{value:.2f}"

    rows = [
        (task["seed"], f"{r['malicious_fraction']:.0%}", r["num_malicious"],
         s(r["suspicion_convergence_at"]), s(r["exposure_convergence_at"]),
         s(r["exposure_spread_s"]))
        for task in tasks for r in [task["result"]]
    ]
    return [(
        "Fig. 6 -- detection times (suspicion/exposure convergence across"
        " all correct nodes, simulated s)",
        ("seed", "malicious", "count", "suspicion_s", "exposure_s",
         "spread_s"),
        rows,
    )]
