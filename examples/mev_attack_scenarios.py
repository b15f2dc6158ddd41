#!/usr/bin/env python3
"""MEV attack scenarios and their detection (paper sections 2.2, 4.3, 5).

Runs the three transaction-manipulation primitives through a faulty block
creator and shows LO's inspection attributing each one:

* injection       -> uncommitted-tx-in-body (front-running style)
* re-ordering     -> order-deviation (fee-sorting the block)
* blockspace censorship -> missing-committed-tx

and finally a collusion scenario (section 5.3): an attacker learns a
transaction off-channel, launders it as a fake 'local' submission, and is
implicated by commitment-chain tracing.

Run:  python examples/mev_attack_scenarios.py
"""

from repro.attacks import (
    BlockspaceCensor,
    Injector,
    OffChannel,
    Reorderer,
    attacker,
    make_block_attacker_factory,
    trace_commitment_chain,
)
from repro.experiments.harness import LOSimulation, SimulationParams


def run_block_attack(name, policy, censor_predicate=None):
    factory = make_block_attacker_factory(policy, censor_predicate)
    sim = LOSimulation(
        SimulationParams(num_nodes=20, seed=11, malicious_ids=[0],
                         attacker_factory=factory)
    )
    sim.inject_workload(rate_per_s=5.0, duration_s=8.0)
    sim.run(14.0)                      # converge mempools
    sim.nodes[0].on_leader_elected()   # the attacker wins leadership
    sim.run(30.0)                      # blocks + blames propagate

    key = sim.directory.key_of(0)
    exposed_by = [
        nid for nid in sim.correct_ids if sim.nodes[nid].acct.is_exposed(key)
    ]
    kinds = set()
    for nid in exposed_by:
        blame = sim.nodes[nid].acct.exposed[key]
        if blame.block_violation is not None:
            violation = blame.block_violation.violation
            kinds.add(violation.kind)
    print(f"\n== {name} ==")
    block = sim.nodes[0].ledger.block_at(0)
    print(f"attacker's block: {len(block.tx_ids)} txs at height 0")
    print(f"exposed by {len(exposed_by)}/{len(sim.correct_ids)} correct nodes")
    for kind in kinds:
        print(f"violation: {kind.value}  "
              f"(policy broken: {kind.policy.value}; "
              f"manipulation: {kind.manipulation.value})")
    # The attacker's own record of what it did: the ground truth the
    # inspectors' verdicts are checked against.
    recorded = {kind for _, kind, _ in sim.nodes[0].adversary.record}
    print(f"attacker's record: {sorted(recorded)}")
    assert len(exposed_by) == len(sim.correct_ids)
    assert recorded == {kind.value for kind in kinds}
    return kinds


def run_collusion():
    print("\n== off-channel collusion (section 5.3 + stage-I interception) ==")

    # Colluders 0 and 1 launder, and steal juicy client transactions.
    factory = attacker(OffChannel, colluders={0, 1}, launder=True,
                       intercept_fee_min=500)
    sim = LOSimulation(
        SimulationParams(num_nodes=20, seed=13, malicious_ids=[0, 1],
                         attacker_factory=factory)
    )
    sim.inject_workload(rate_per_s=3.0, duration_s=5.0)

    # A client submits a high-fee transaction to miner B (node 1).  B
    # fake-acks it, never commits it, and slips it to C (node 0)
    # off-channel -- Fig. 5's covert edge.
    from repro.crypto import KeyPair
    from repro.mempool import make_transaction

    client = KeyPair.generate(seed=b"victim-client")
    state = {}

    def submit():
        tx = make_transaction(client, 1, fee=900, created_at=sim.loop.now)
        accepted = sim.nodes[1].receive_client_transaction(tx)
        state["tx"] = tx
        state["acked"] = accepted

    def strike():
        creator = sim.nodes[0]
        tx = state["tx"]
        state["covert"] = (
            tx.sketch_id in creator.adversary.stolen
            and tx.sketch_id not in creator.log
        )
        creator.on_leader_elected()  # launders the stolen tx as 'local'

    sim.loop.call_at(1.0, submit)
    sim.loop.call_at(3.0, strike)
    sim.run(25.0)

    tx = state["tx"]
    print(f"client submitted fee={tx.fee} tx to miner B (node 1);"
          f" fake-acked: {state['acked']}")
    print(f"creator C (node 0) held it covertly before building:"
          f" {state['covert']}")
    block = sim.nodes[0].ledger.block_at(0)
    print(f"C's block contains the stolen tx: {tx.sketch_id in block.tx_ids}")
    result = trace_commitment_chain(
        sim.nodes, tx.sketch_id, block_creator=0, true_origin=1,
        client_submitted_to=1,
    )
    print("commitment-chain trace from block creator:")
    for step in result.chain:
        source = (
            "local claim" if step.claims_local else f"from node {step.source_peer}"
        )
        print(f"  node {step.node_id}: bundle {step.bundle_index} ({source})")
    print(f"verdict: culprit=node {result.culprit} -- {result.reason}")
    assert result.culprit == 0


def main() -> None:
    from repro.core.policies import ViolationKind

    kinds = run_block_attack("injection (front-running)", Injector)
    assert ViolationKind.UNCOMMITTED_TX_IN_BODY in kinds
    kinds = run_block_attack("re-ordering (fee-sorted block)", Reorderer)
    assert ViolationKind.ORDER_DEVIATION in kinds
    kinds = run_block_attack(
        "blockspace censorship", BlockspaceCensor,
        censor_predicate=lambda i: i % 2 == 0,
    )
    assert ViolationKind.MISSING_COMMITTED_TX in kinds
    run_collusion()
    print("\nOK: every manipulation primitive detected and attributed.")


if __name__ == "__main__":
    main()
