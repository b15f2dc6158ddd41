"""A sketch is one packed int from the log to the decoder.

Counts, not timings.  A sketch holds its syndromes as one int, so the
log's cell combine, the XOR of two sketches, the decode memo's key, the
elimination and the verification take it as it is.  A per-slot list is
unpacked only as Berlekamp--Massey's input, and packed only when the
syndrome cache computes an id's vector (:func:`pinsketch._extend`, one
pack per extension).  A slot list creeping back between the log and the
decoder shows here as unpacks without Berlekamp--Massey runs (with a list
per sketch, ``steady_gossip`` unpacked 605 times and ran none) or as more
packs than cache misses.

Both lobench workloads run at smoke size, seed 7, one after the other on
caches emptied first, as in a fresh process.
"""

import pytest

from lobench.workloads import WORKLOADS
from repro.sketch import pinsketch
from repro.sketch.gf import GF2m

pytestmark = pytest.mark.gate


def test_a_sketch_is_one_packed_int_from_the_log_to_the_decoder(monkeypatch):
    counts = {"unpack": 0, "pack": 0, "berlekamp_massey": 0}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(pinsketch, "unpack_syndromes",
                        counting("unpack", pinsketch.unpack_syndromes))
    monkeypatch.setattr(pinsketch, "pack_syndromes",
                        counting("pack", pinsketch.pack_syndromes))
    monkeypatch.setattr(GF2m, "berlekamp_massey",
                        counting("berlekamp_massey", GF2m.berlekamp_massey))
    pinsketch.clear_syndrome_cache()
    pinsketch.clear_decode_cache()
    syndromes = pinsketch._SYNDROMES.stats

    for name in ("steady_gossip", "burst_admission"):
        workload = WORKLOADS[name]
        sim = workload.construct(7, True)
        counts.update(dict.fromkeys(counts, 0))
        misses = syndromes.misses
        workload.inject(sim, 7, True)
        sim.run(workload.horizon(True))
        misses = syndromes.misses - misses
        assert misses >= 1, name
        assert counts["unpack"] <= counts["berlekamp_massey"], (name, counts)
        assert counts["pack"] <= misses, (name, counts, misses)
