"""A suspicion is one epidemic per episode, not per retry round.

Counts, not timings.  A blame is keyed on the time its accuser's
suspicion episode began (``SuspicionBlame.key()``), so the re-probe
rounds that time out again inside one episode re-announce one blame,
which nobody relays twice.  Each node's ``suspicion_claims`` counter
counts its first-hand claims, one per (kind, detail) per episode: the
distinct keys on the wire may not exceed their sum, and every key costs
at most N x fan-out deliveries.

The lobench workload runs at smoke size, seed 7.
"""

import collections

import pytest

from lobench.workloads import WORKLOADS
from repro.net.network import Network
from repro.testing import SuspicionGossipTally, assert_suspicion_gossip_bounded

pytestmark = pytest.mark.gate


def test_a_suspicion_is_one_epidemic_per_episode(monkeypatch):
    delivered = collections.Counter()
    deliver = Network._deliver

    def counting_deliver(self, message):
        delivered[message.msg_type] += 1
        deliver(self, message)

    monkeypatch.setattr(Network, "_deliver", counting_deliver)
    workload = WORKLOADS["censor_storm"]
    sim = workload.construct(7, True)
    tally = SuspicionGossipTally(sim)
    workload.inject(sim, 7, True)
    sim.run(workload.horizon(True))
    keys = len(tally.per_key)
    claims = sim.counter.total("suspicion_claims")
    per_key = len(sim.nodes) * sim.params.config.blame_gossip_fanout
    print(f"censor_storm: {keys} blame keys for {claims} claims, "
          f"{delivered['lo/suspicion']} lo/suspicion deliveries "
          f"(bound {keys * per_key})")
    assert 0 < keys <= claims, (keys, claims)
    assert delivered["lo/suspicion"] <= keys * per_key, delivered
    assert_suspicion_gossip_bounded(sim, tally)
