"""The fault checks change nothing while every message passes them.

Counts, not timings.  There is one delivery path: with no fault installed
``Network.send_fanout`` skips its crash / blocked-link / partition / hook
checks as a whole, with any fault installed every message goes through
them.  A hook that approves everything turns the checks on and must leave
``censor_storm`` (74k deliveries at full size, three censors, exposures
and suspicions) exactly as it was: same events, deliveries, drops, bytes
and verdicts.

The lobench workload runs at smoke size, seed 7; each build starts on
empty caches, as in a fresh process.
"""

import pytest

from lobench.workloads import WORKLOADS

pytestmark = pytest.mark.gate


def _run(approve_all_hook, seed=7):
    workload = WORKLOADS["censor_storm"]
    sim = workload.construct(seed, True)
    if approve_all_hook:
        sim.network.add_delivery_hook(lambda message: True)
    workload.inject(sim, seed, True)
    sim.run(workload.horizon(True))
    nodes = [sim.nodes[node_id] for node_id in sorted(sim.nodes)]
    return {
        "events": sim.loop.processed_events,
        "delivered": sim.network.delivered_messages,
        "drops": sim.network.drop_breakdown(),
        "overhead_bytes": sim.network.total_overhead_bytes(),
        "exposed": [sorted(key.hex() for key in node.acct.exposed)
                    for node in nodes],
        "suspected": [sorted(key.hex() for key in node.acct.suspected)
                      for node in nodes],
    }


def test_the_fault_checks_change_nothing_while_every_message_passes():
    clean, hooked = _run(False), _run(True)
    print(f"censor_storm: {clean['events']} events, "
          f"{clean['delivered']} deliveries, "
          f"{clean['overhead_bytes']} overhead bytes, drops {clean['drops']}")
    assert clean["delivered"] > 10_000, clean["delivered"]
    assert any(clean["exposed"]) and any(clean["suspected"])
    for field in clean:
        assert clean[field] == hooked[field], field
