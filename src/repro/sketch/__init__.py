"""From-scratch PinSketch/Minisketch set reconciliation (paper section 4.2).

The paper leverages Minisketch [Naumenko et al. 2019], which implements the
PinSketch algorithm [Dodis et al. 2008]: a set of nonzero elements of
GF(2^m) is represented by its odd power sums ("syndromes"); two sketches
XOR-combine into a sketch of the symmetric difference, which is decoded with
Berlekamp--Massey plus root finding, exactly like a BCH decoder.

Submodules:

* :mod:`repro.sketch.gf` -- carry-less GF(2^m) arithmetic and polynomials.
* :mod:`repro.sketch.pinsketch` -- sketch create/add/merge/decode.
* :mod:`repro.sketch.registry` -- candidate ids and the GF(2) bases that
  decode a difference among them by one elimination (a simulation's
  committed ids, tried before any search).
* :mod:`repro.sketch.partition` -- the recursive hash-partitioning fallback
  the paper introduces in section 6.5 to bound decode cost.
"""

from repro.sketch.gf import GF2m, default_field
from repro.sketch.pinsketch import (
    PinSketch,
    SketchDecodeError,
    pack_syndromes,
    sketch_syndromes,
    sketch_syndromes_packed,
    unpack_syndromes,
)
from repro.sketch.registry import CandidateRegistry
from repro.sketch.partition import PartitionedReconciler, ReconcileStats

__all__ = [
    "CandidateRegistry",
    "GF2m",
    "PartitionedReconciler",
    "PinSketch",
    "ReconcileStats",
    "SketchDecodeError",
    "default_field",
    "pack_syndromes",
    "sketch_syndromes",
    "sketch_syndromes_packed",
    "unpack_syndromes",
]
