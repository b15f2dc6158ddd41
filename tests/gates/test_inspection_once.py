"""A block's chain check and bundle permutations are computed once per
announce, not once per inspecting node.

Counts, not timings.  Every correct node inspects every block (§4.3), and
gossip hands all of them the same announce object.  Before inspection
shared its work, each of the 31 inspectors of a ``steady_gossip`` block
re-hashed the creator's digest chain over the pinned prefix and
re-permuted every pinned bundle: at seed 7, 124 inspections of 4 distinct
announces hashed 3,782 bundle digests and ran 3,904 shuffles for 122
distinct ``(prev_hash, index, ids)``, and the waste grows with the
history.  Now the digests are hashed exactly once per distinct announce
(the sum of their ``commit_seq``: 122), no ``(prev_hash, index)`` seed is
shuffled twice, and a bundle with no surviving id is not shuffled at all
(53 shuffles; 237 for the 1,872 pinned bundles of the 60 s run).  The
counters wrap the program from the test; nothing under lobench/ knows
about them.

``steady_gossip`` runs at full size, seed 7, then a 60 s run of the same
shape (32 nodes, 4 s blocks, 10 transactions a second).
"""

import collections

import pytest

from lobench.workloads import WORKLOADS, inject_node_trace, trace
from repro.core import node as node_module
from repro.core import ordering
from repro.core.node import LONode

pytestmark = pytest.mark.gate


def test_each_announce_is_checked_once_and_each_bundle_shuffled_once(
        monkeypatch):
    hashed = [0]
    seeded = collections.Counter()
    announces = {}
    checks = [0]
    bundle_digest = node_module.bundle_digest
    block_order_seed = ordering.block_order_seed
    verify = LONode._verify_announce_context

    def counted_digest(ids):
        hashed[0] += 1
        return bundle_digest(ids)

    def counted_seed(prev_hash, index):
        seeded[prev_hash, index] += 1
        return block_order_seed(prev_hash, index)

    def recorded_verify(self, announce):
        checks[0] += 1
        announces[id(announce)] = announce
        return verify(self, announce)

    monkeypatch.setattr(node_module, "bundle_digest", counted_digest)
    monkeypatch.setattr(ordering, "block_order_seed", counted_seed)
    monkeypatch.setattr(LONode, "_verify_announce_context", recorded_verify)

    def run(label, inject, horizon, seed=7):
        hashed[0] = checks[0] = 0
        seeded.clear()
        announces.clear()
        workload = WORKLOADS["steady_gossip"]
        sim = workload.construct(seed, False)
        inject(sim)
        sim.run(horizon)
        pinned = {
            (a.block.prev_hash, index, ids)
            for a in announces.values()
            for index, ids in enumerate(a.bundle_ids[: a.block.commit_seq])
        }
        print(f"{label}: {checks[0]} inspections of {len(announces)} "
              f"announces hashed {hashed[0]} digests; "
              f"{sum(seeded.values())} shuffles for {len(seeded)} seeds, "
              f"{len(pinned)} pinned bundles")
        assert checks[0] >= 10 * len(announces) > 0, "too few blocks to count"
        assert hashed[0] == sum(a.block.commit_seq for a in announces.values())
        assert seeded and max(seeded.values()) == 1, seeded.most_common(3)
        assert sum(seeded.values()) <= len(pinned)

    workload = WORKLOADS["steady_gossip"]
    run("steady_gossip", lambda sim: workload.inject(sim, 7, False),
        workload.horizon(False))
    run("60 s", lambda sim: inject_node_trace(
        sim, trace(7, 32, [(0.0, 57.0, 570)])), 60.0)
