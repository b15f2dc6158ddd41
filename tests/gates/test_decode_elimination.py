"""Every decode miss is one elimination over the simulation's committed ids.

Counts, not timings.  Every id a correct sketch carries was committed by
some node of the same simulation, and the responder hands that registry
(``Directory.committed``) to the decoder, which reduces the sketch's
packed vector against the registry's GF(2) echelon basis
(``CandidateRegistry.combination``) before anything else.  If the
registry stops reaching the decoder, or a basis stops covering the ids a
difference holds, every miss pays Berlekamp--Massey again, and from
degree 3 a GF(2) quartic solve or a Frobenius chain -- and nothing else
would notice, because the decoded sets are identical either way.  So at
smoke size, seed 7, every decode miss must be answered by an
elimination, with 0 Berlekamp--Massey runs, 0 chains and 0 quartic
solves.

The three field methods are counted on ``GF2m``, where they are defined,
so a call through any field class is seen.
"""

import pytest

from lobench.workloads import WORKLOADS
from repro.sketch import CandidateRegistry, pinsketch
from repro.sketch.gf import GF2m

pytestmark = pytest.mark.gate


def test_every_decode_miss_is_one_elimination(monkeypatch):
    eliminated = []
    runs = []
    chains = []
    quartics = []
    combination = CandidateRegistry.combination
    berlekamp_massey = GF2m.berlekamp_massey
    frobenius_chain = GF2m.frobenius_chain
    solve_linearized_quartic = GF2m.solve_linearized_quartic

    def counting(self, packed, capacity, m):
        found = combination(self, packed, capacity, m)
        eliminated.append(found is not None)
        return found

    def counting_bm(self, odd):
        runs.append(len(odd))
        return berlekamp_massey(self, odd)

    def counting_chain(self, q):
        chains.append(len(q) - 1)
        return frobenius_chain(self, q)

    def counting_quartic(self, a, b, v):
        quartics.append((a, b, v))
        return solve_linearized_quartic(self, a, b, v)

    monkeypatch.setattr(CandidateRegistry, "combination", counting)
    monkeypatch.setattr(GF2m, "berlekamp_massey", counting_bm)
    monkeypatch.setattr(GF2m, "frobenius_chain", counting_chain)
    monkeypatch.setattr(GF2m, "solve_linearized_quartic", counting_quartic)

    for name in ("steady_gossip", "burst_admission", "paper_scale"):
        for counts in (eliminated, runs, chains, quartics):
            counts.clear()
        workload = WORKLOADS[name]
        sim = workload.construct(7, True)
        misses = pinsketch._DECODE_STATS.misses
        workload.inject(sim, 7, True)
        sim.run(workload.horizon(True))
        misses = pinsketch._DECODE_STATS.misses - misses
        print(f"{name}: {misses} decode misses, "
              f"{sum(eliminated)} answered by elimination, "
              f"{len(runs)} Berlekamp-Massey runs, "
              f"{len(chains)} Frobenius chains, "
              f"{len(quartics)} quartic solves")
        assert misses >= 1, name
        assert sum(eliminated) == len(eliminated) == misses, eliminated
        assert runs == [], runs
        assert chains == [], chains
        assert quartics == [], quartics
