"""Seeded chaos runs: faults heal, invariants hold, runs are bit-identical.

Acceptance: a seeded chaos schedule (drop + duplicate + reorder + corrupt
+ crash/recover over >= 20 nodes) is deterministic across two invocations
and passes the invariant harness -- zero false exposures, suspicions of
correct nodes cleared, append-only commitment logs, and full mempool
convergence once the faults stop.
"""

import pytest

from repro.core.config import LOConfig
from repro.experiments.harness import LOSimulation, SimulationParams
from repro.mempool.admission import AdmissionConfig
from repro.net.chaos import ChaosPlan, CrashWindow
from repro.net.latency import ConstantLatencyModel
from repro.testing import InvariantMonitor, check_chaos_invariants

CHAOS_UNTIL = 20.0
HEAL_UNTIL = 90.0

PLAN = ChaosPlan(
    seed=99,
    drop_rate=0.05,
    duplicate_rate=0.05,
    reorder_rate=0.2,
    max_jitter_s=0.4,
    corrupt_rate=0.03,
    crash_windows=(CrashWindow(3, 5.0, 12.0), CrashWindow(7, 8.0, 16.0)),
)


def chaos_then_heal(params, inject, chaos_until, heal_until):
    """Faults until ``chaos_until``, quiet until ``heal_until``."""
    sim = LOSimulation(params)
    monitor = InvariantMonitor(sim, period_s=2.0).start()
    inject(sim)
    sim.run(chaos_until)
    sim.chaos.uninstall()  # faults heal; crash windows already elapsed
    sim.run(heal_until)
    return sim, monitor


def run_chaos_simulation():
    """One full chaos-then-heal run; returns (sim, monitor)."""
    def inject(sim):
        for i in range(8):
            sim.inject_at(0.5 + 1.5 * i, origin=(i * 5) % 20, fee=10)

    return chaos_then_heal(
        SimulationParams(
            num_nodes=20,
            seed=7,
            config=LOConfig(quarantine_base_s=2.0, quarantine_max_s=8.0),
            latency_model=ConstantLatencyModel(0.03),
            chaos_plan=PLAN,
        ),
        inject, CHAOS_UNTIL, HEAL_UNTIL,
    )


def fingerprint(sim):
    """Everything observable that a nondeterministic run would perturb."""
    return {
        "delivered": sim.network.delivered_messages,
        "drops": sim.drop_breakdown(),
        "chaos": sim.chaos.injector.counters.as_dict(),
        "violations": sim.wire_violation_totals(),
        "logs": {nid: len(node.log) for nid, node in sim.nodes.items()},
        "chains": {
            nid: tuple(node._digest_chain) for nid, node in sim.nodes.items()
        },
        "restarts": {nid: node.restarts for nid, node in sim.nodes.items()},
    }


@pytest.mark.chaos
def test_chaos_run_passes_invariants_and_is_deterministic():
    sim_a, monitor_a = run_chaos_simulation()

    # The invariant battery: no false exposures, suspicions cleared,
    # append-only logs (sampled during the run), full convergence.
    check_chaos_invariants(sim_a, monitor=monitor_a)

    # The schedule actually exercised every fault class.
    counters = sim_a.chaos.injector.counters
    assert counters.dropped > 0
    assert counters.duplicated > 0
    assert counters.reordered > 0
    assert counters.corrupted > 0
    assert sim_a.drop_breakdown().get("chaos", 0) == counters.dropped
    # Corrupted payloads surfaced as contained wire violations somewhere.
    assert sum(sim_a.wire_violation_totals().values()) > 0
    # Both scripted crash windows ran their restart path.
    assert sim_a.nodes[3].restarts == 1
    assert sim_a.nodes[7].restarts == 1

    # Determinism: an identical second invocation is bit-for-bit the same.
    sim_b, monitor_b = run_chaos_simulation()
    check_chaos_invariants(sim_b, monitor=monitor_b)
    assert fingerprint(sim_a) == fingerprint(sim_b)


@pytest.mark.chaos
def test_restarted_nodes_reconverge_with_the_rest():
    sim, monitor = run_chaos_simulation()
    reference = set(sim.nodes[0].log.order)
    for crashed in PLAN.crashed_ids():
        assert set(sim.nodes[crashed].log.order) == reference
    check_chaos_invariants(sim, monitor=monitor)


def run_admission_chaos_simulation():
    """Clients submit through the admission pipeline while faults run."""
    return chaos_then_heal(
        SimulationParams(
            num_nodes=12,
            seed=11,
            config=LOConfig(admission=AdmissionConfig(),
                            quarantine_base_s=2.0, quarantine_max_s=8.0),
            latency_model=ConstantLatencyModel(0.03),
            chaos_plan=ChaosPlan(
                seed=41, drop_rate=0.05, duplicate_rate=0.05,
                reorder_rate=0.2, max_jitter_s=0.4, corrupt_rate=0.03,
                crash_windows=(CrashWindow(4, 3.0, 9.0),),
            ),
        ),
        lambda sim: sim.inject_open_loop(
            rate_per_s=10.0, duration_s=8.0, hot_fraction=0.5,
            rbf_fraction=0.1),
        chaos_until=14.0, heal_until=70.0,
    )


@pytest.mark.chaos
def test_admission_under_chaos_passes_invariants_and_is_deterministic():
    # Faults and clean runs share one delivery path, so the admission
    # pipeline (pending pool drained into commitments on sync ticks) can
    # be held to the same battery under drop + duplicate + reorder +
    # corrupt and a crash window as commit-on-receipt is above.
    sim_a, monitor_a = run_admission_chaos_simulation()
    check_chaos_invariants(sim_a, monitor=monitor_a)

    counters = sim_a.chaos.injector.counters.as_dict()
    assert all(counters[kind] > 0 for kind in
               ("dropped", "duplicated", "reordered", "corrupted"))
    assert sim_a.drop_breakdown()["crashed"] > 0
    assert sim_a.nodes[4].restarts == 1
    breakdown = sim_a.admission_breakdown()
    assert breakdown["drained"] > 30
    # Every admitted transaction was committed by every node.
    assert {len(node.log) for node in sim_a.nodes.values()} == \
        {breakdown["drained"]}

    sim_b, monitor_b = run_admission_chaos_simulation()
    check_chaos_invariants(sim_b, monitor=monitor_b)
    assert fingerprint(sim_a) == fingerprint(sim_b)
    assert breakdown == sim_b.admission_breakdown()
