#!/usr/bin/env python3
"""Light clients and enforcement (paper sections 2.3 stage I and 5.4).

A light client submits transactions to miners and collects signed
acknowledgements; a stage-I censor fake-acks and withholds, which the
client catches by comparing acks against status queries.  On top of the
detection layer, the section 5.4 enforcement levers fire: stake slashing,
network eviction, leader ineligibility and block rejection.

Run:  python examples/client_and_enforcement.py
"""

from repro.attacks import (
    OffChannel,
    Reorderer,
    attacker,
    make_block_attacker_factory,
)
from repro.core.client import LightClient
from repro.core.enforcement import EnforcementManager
from repro.experiments.harness import LOSimulation, SimulationParams


def stage1_censorship_demo() -> None:
    print("== stage-I censorship caught by the client ==")

    factory = attacker(OffChannel, launder=True, intercept_fee_min=100)
    sim = LOSimulation(
        SimulationParams(num_nodes=12, seed=21, malicious_ids=[0],
                         attacker_factory=factory)
    )
    client = LightClient(sim.loop, sim.network, seed=b"demo-client")
    tx = client.make_transaction(fee=750)
    client.submit(tx, miners=[0, 3])  # one censor, one honest miner
    sim.run(3.0)
    acks = client.acks_for(tx)
    print(f"submitted fee={tx.fee} tx to miners 0 and 3;"
          f" acks received: {len(acks)} (all signed+accepted:"
          f" {all(a.accepted and a.verify() for a in acks)})")
    client.query_status(tx.sketch_id, miner=0)
    client.query_status(tx.sketch_id, miner=3)
    sim.run(6.0)
    contradicted = client.contradicted_acks(tx)
    print(f"status at censor (miner 0):"
          f" {[r.status for r in client.status_replies[tx.sketch_id] if sim.directory.id_of(r.miner) == 0]}")
    print(f"contradicted acks (signed evidence of stage-I censorship):"
          f" {len(contradicted)}")
    assert len(contradicted) == 1


def enforcement_demo() -> None:
    print("\n== section 5.4 enforcement after a re-ordering attack ==")
    sim = LOSimulation(
        SimulationParams(
            num_nodes=15, seed=22, malicious_ids=[0],
            attacker_factory=make_block_attacker_factory(Reorderer),
        )
    )
    manager = EnforcementManager(sim.directory)
    for node in sim.nodes.values():
        manager.attach(node)
    sim.inject_workload(rate_per_s=4.0, duration_s=8.0)
    sim.run(14.0)
    sim.nodes[0].on_leader_elected()  # the attack
    sim.run(30.0)
    attacker_key = sim.directory.key_of(0)
    print(f"attacker stake after slashing:"
          f" {manager.slashing.stake_of(attacker_key):.0f}"
          f" / {manager.slashing.initial_stake}")
    print(f"neighbour evictions applied: {manager.report.evictions}")
    print(f"still eligible for leadership: {manager.leader_eligible(0)}")
    # A repeat offense is now rejected outright.
    sim.nodes[0].on_leader_elected()
    sim.run(sim.loop.now + 10.0)
    report = manager.finalize_report()
    print(f"repeat-offender blocks rejected before settlement:"
          f" {report.rejected_blocks}")
    assert report.total_slashed > 0
    assert not manager.leader_eligible(0)
    assert report.rejected_blocks > 0


def main() -> None:
    stage1_censorship_demo()
    enforcement_demo()
    print("\nOK: client-side evidence and enforcement levers all firing.")


if __name__ == "__main__":
    main()
