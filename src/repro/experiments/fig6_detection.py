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

from dataclasses import dataclass, field
from typing import List, Optional

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


@dataclass
class Fig6Result:
    """All points of one Fig. 6 sweep."""

    points: List[DetectionPoint] = field(default_factory=list)


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


def run_fig6(
    num_nodes: int = 60,
    fractions: Optional[List[float]] = None,
    seed: int = 42,
) -> Fig6Result:
    """Sweep the malicious fraction as in Fig. 6."""
    fractions = fractions or [0.1, 0.2, 0.3, 0.4, 0.5]
    return Fig6Result(points=[
        run_detection_point(num_nodes=num_nodes, malicious_fraction=fraction,
                            seed=seed)
        for fraction in fractions
    ])
