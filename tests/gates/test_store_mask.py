"""What a node knows a peer holds is a mask over its own log, not an id set.

Counts, not timings.  A commitment store records a peer's ids as
positions in the observer's log (``CommitmentStore.held``, one bit an
id); a set is allocated only for a recorded id the observer never
committed (``extra``), which only an adversary's commit filter causes.
A cell slice is recorded as an OR of the log's cell masks, so
``ids_for_spec`` is only walked for bit-refined specs.  Per-peer id sets
held 3.6 MB of ``steady_gossip``'s 9.9 MB run heap; one creeping back
shows here as an honest store with ``extra``, a mask wider than its log,
or a bit-level-0 slice walked id by id.

Both lobench workloads run at smoke size, seed 7.
"""

import pytest

import repro.core.node as node_module
from lobench.workloads import WORKLOADS

pytestmark = pytest.mark.gate


def test_what_a_node_knows_a_peer_holds_is_a_mask(monkeypatch):
    levels = []
    ids_for_spec = node_module.ids_for_spec

    def counting(log, spec):
        levels.append(spec.bit_level)
        return ids_for_spec(log, spec)

    monkeypatch.setattr(node_module, "ids_for_spec", counting)
    for name in ("steady_gossip", "censor_storm"):
        levels.clear()
        workload = WORKLOADS[name]
        sim = workload.construct(7, True)
        workload.inject(sim, 7, True)
        sim.run(workload.horizon(True))
        stores = [(node, store) for node in sim.nodes.values()
                  for store in node.acct.stores.values()]
        honest_extra = sum(store.extra is not None for node, store in stores
                           if node.adversary is None)
        too_wide = sum(store.held.bit_length() > len(node.log)
                       for node, store in stores)
        held = sum(bin(store.held).count("1") for _, store in stores)
        print(f"{name}: {len(stores)} stores holding {held} position bits, "
              f"{honest_extra} honest stores with extra, {too_wide} masks "
              f"wider than their log, {len(levels)} ids_for_spec calls "
              f"at bit levels {sorted(set(levels))}")
        assert held > 0, name
        assert honest_extra == 0, honest_extra
        assert too_wide == 0, too_wide
        assert 0 not in levels, levels
