"""A re-delivered payload runs no schema check; a first delivery always does.

Counts, not timings.  Gossip hands one immutable payload object to many
nodes and ``wire.validate_payload`` remembers clean verdicts per object:
before that, ``censor_storm`` ran the ``lo/suspicion`` schema for every
delivery a censor did not swallow (ratio 0.94).  With one epidemic per
suspicion episode the smoke run delivers 20,352 ``lo/suspicion`` for 95
schema runs (0.0047): each blame object still reaches every node about 8
times, so > 10,000 deliveries and < 0.05 keep both the volume and the
memo's share with a 2x / 10x margin.  ``paper_scale`` shares no payload
between deliveries, so there every delivery must still be checked.  The
counters wrap the program from the test; nothing under lobench/ knows
about them.

Both lobench workloads run at smoke size, seed 7, ``censor_storm`` first.
"""

import collections

import pytest

from lobench.workloads import WORKLOADS
from repro.core import wire
from repro.net.network import Network

pytestmark = pytest.mark.gate


def test_a_redelivered_payload_runs_no_schema_check(monkeypatch):
    schema_runs = collections.Counter()
    delivered = collections.Counter()

    def counted(msg_type, validator):
        def run(payload):
            schema_runs[msg_type] += 1
            return validator(payload)
        return run

    for msg_type, validator in list(wire.VALIDATORS.items()):
        monkeypatch.setitem(wire.VALIDATORS, msg_type,
                            counted(msg_type, validator))
    deliver = Network._deliver

    def counting_deliver(self, message):
        delivered[message.msg_type] += 1
        deliver(self, message)

    monkeypatch.setattr(Network, "_deliver", counting_deliver)

    def run(name, seed=7):
        schema_runs.clear()
        delivered.clear()
        workload = WORKLOADS[name]
        sim = workload.construct(seed, True)
        workload.inject(sim, seed, True)
        sim.run(workload.horizon(True))

    run("censor_storm")
    storm = schema_runs["lo/suspicion"] / delivered["lo/suspicion"]
    print(f"censor_storm: {schema_runs['lo/suspicion']} schema runs for "
          f"{delivered['lo/suspicion']} lo/suspicion deliveries ({storm:.4f})")
    assert delivered["lo/suspicion"] > 10_000, delivered
    assert storm < 0.05, "gossip duplicates are being re-validated"
    run("paper_scale")
    print(f"paper_scale: {sum(schema_runs.values())} schema runs for "
          f"{sum(delivered.values())} deliveries")
    assert sum(delivered.values()) > 1_000, delivered
    assert schema_runs == delivered, (schema_runs, delivered)
