"""Mempool reconciliation: messages, adaptive sketch sizing, split recursion.

One reconciliation round between a requester ``i`` and responder ``j``
(Alg. 1 plus the section 4.2 implementation details):

1. ``i`` sends a :class:`SyncRequest`: its signed commitment header (Bloom
   Clock inside) plus a Minisketch of its transactions in the cells that
   look out of date, sized from the clock-gap estimate.
2. ``j`` XORs the sketch with its own over the same id subset and decodes
   the symmetric difference.  On success it commits to every transaction it
   was missing ("an assurance to process them immediately following all
   known local transactions") and answers with a :class:`SyncResponse`
   carrying its updated header, the ids it wants content for, and the ids
   ``i`` appears to be missing.
3. On decode failure ``j`` answers with ``status="split"`` and two
   :class:`SplitSpec` halves; ``i`` re-issues one SyncRequest per half
   ("we divide the data into two subsets and attempt the reconciliation
   process on each subset").  Recursion is depth-limited by the config.

Content then flows via :class:`ContentRequest`/:class:`ContentResponse`;
content bytes are *not* protocol overhead (Fig. 9 excludes them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Collection, List, Optional, Set, Tuple

from repro.core.commitment import CommitmentHeader
from repro.core.config import LOConfig
from repro.mempool.txlog import TransactionLog, all_cells
from repro.sketch import PinSketch, SketchDecodeError


@dataclass(frozen=True)
class SplitSpec:
    """A slice of the id space: Bloom-Clock cells, then low id bits.

    ``bit_level == 0`` selects all ids in ``cells``.  Deeper levels keep
    only ids with ``id & ((1 << bit_level) - 1) == bit_index``; used when a
    single cell still exceeds sketch capacity.
    """

    cells: Tuple[int, ...]
    bit_level: int = 0
    bit_index: int = 0

    def matches(self, sketch_id: int) -> bool:
        """Whether an id falls inside this slice (cell check excluded)."""
        if self.bit_level == 0:
            return True
        return sketch_id & ((1 << self.bit_level) - 1) == self.bit_index

    def split(self) -> Tuple["SplitSpec", "SplitSpec"]:
        """Bisect: halve the cell list, or descend one id bit for one cell."""
        if len(self.cells) > 1 and self.bit_level == 0:
            mid = len(self.cells) // 2
            return (
                SplitSpec(self.cells[:mid], 0, 0),
                SplitSpec(self.cells[mid:], 0, 0),
            )
        return (
            SplitSpec(self.cells, self.bit_level + 1, self.bit_index),
            SplitSpec(
                self.cells, self.bit_level + 1, self.bit_index | (1 << self.bit_level)
            ),
        )

    def wire_size(self) -> int:
        """On-wire size: one byte per cell index plus the bit refinement."""
        return len(self.cells) + 2


@lru_cache(maxsize=8)
def full_range_spec(clock_cells: int) -> SplitSpec:
    """The spec selecting every cell: one instance per cell count.

    Most requests probe the whole clock.  Sharing the (frozen) spec lets a
    receiver's per-object schema verdict hit instead of re-checking
    ``clock_cells`` ints per request, and its cells are the logs' own
    tuple (:meth:`TransactionLog.spans_every_cell` by identity).
    """
    return SplitSpec(all_cells(clock_cells))


def sketch_for_spec(
    log: TransactionLog, spec: SplitSpec, capacity: int
) -> PinSketch:
    """The log's sketch restricted to a split spec.

    Pure cell slices reuse the incrementally maintained per-cell sketches
    (cheap XOR); bit-refined slices sketch the filtered items ad hoc.
    """
    if spec.bit_level == 0:
        return log.sketch_for_cells(spec.cells, capacity)
    items = [i for i in log.items_in_cells(spec.cells) if spec.matches(i)]
    return log.subset_sketch(items, capacity)


def ids_for_spec(log: TransactionLog, spec: SplitSpec) -> List[int]:
    """All local ids inside a split spec, as a new list.

    The order is :meth:`TransactionLog.items_in_cells`'s.  A node reads a
    bit-level-0 slice as a position mask
    (:meth:`TransactionLog.mask_for_cells`) instead, so only bit-refined
    specs are walked here.
    """
    return [i for i in log.items_in_cells(spec.cells) if spec.matches(i)]


def adaptive_capacity(estimate: int, config: LOConfig) -> int:
    """Sketch capacity for an estimated difference.

    The Bloom-Clock estimate is a lower bound, so it is inflated by the
    configured safety factor and rounded up to a power of two (stable wire
    sizes), clamped to [min_sketch_capacity, sketch_capacity].
    """
    scaled = max(1, int(math.ceil(estimate * config.sketch_safety_factor)))
    capacity = 1 << (scaled - 1).bit_length()
    return max(config.min_sketch_capacity, min(capacity, config.sketch_capacity))


def decode_difference(
    local: PinSketch, remote: PinSketch, candidates: Collection[int] = ()
) -> Optional[Set[int]]:
    """XOR-combine and decode; None signals capacity overflow (split).

    ``candidates`` are ids the difference is expected to be among -- a
    responder passes its simulation's registry of committed ids
    (:class:`repro.core.node.Directory`), which holds every id of a correct
    difference.  The decoder eliminates over them before it searches the
    field (:meth:`PinSketch.decode`); the decoded set does not depend on
    them.
    """
    try:
        return (local ^ remote).decode(candidates)
    except SketchDecodeError:
        return None


# --------------------------------------------------------------------------
# Message payloads.  ``wire_size`` states the realistic on-wire cost; the
# network layer adds the fixed envelope.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SyncRequest:
    """Step 1: commitment request with the requester's sketch."""

    request_id: int
    header: CommitmentHeader
    spec: SplitSpec
    sketch: PinSketch
    is_retry: bool = False

    def wire_size(self) -> int:
        """On-wire size: header + split spec + sketch syndromes."""
        return self.header.wire_size() + self.spec.wire_size() + self.sketch.wire_size()


@dataclass(frozen=True)
class SyncResponse:
    """Step 2/3: the responder's commitment plus the decoded difference.

    ``status`` is ``"ok"`` or ``"split"``.  On ok, ``requested_ids`` are
    ids the responder just committed to and needs content for, and
    ``offered_ids`` are ids the requester appears to lack.  On split,
    ``split_specs`` carries the two halves to retry.
    """

    request_id: int
    header: CommitmentHeader
    status: str
    requested_ids: Tuple[int, ...] = ()
    offered_ids: Tuple[int, ...] = ()
    split_specs: Tuple[SplitSpec, ...] = ()

    def wire_size(self) -> int:
        """On-wire size: header, status byte, id lists, split specs."""
        size = self.header.wire_size() + 1
        size += 4 * (len(self.requested_ids) + len(self.offered_ids))
        size += sum(spec.wire_size() for spec in self.split_specs)
        return size


@dataclass(frozen=True)
class ContentRequest:
    """Ask a peer for the transaction bytes of committed ids."""

    request_id: int
    ids: Tuple[int, ...]

    def wire_size(self) -> int:
        """On-wire size: request id plus 4 bytes per requested id."""
        return 8 + 4 * len(self.ids)


@dataclass(frozen=True)
class ContentResponse:
    """Transaction bytes; counted as payload, not protocol overhead."""

    request_id: int
    txs: Tuple  # tuple of Transaction

    def wire_size(self) -> int:
        """On-wire size: request id plus the transaction payloads."""
        return 8 + sum(tx.wire_size() for tx in self.txs)


@dataclass(frozen=True)
class BlockAnnounce:
    """A freshly built block with its inspection context.

    Carries the creator's signed header at the pinned seq and the bundle id
    lists for the pinned prefix.  Wire accounting charges only the block,
    the header and the bundle *boundaries*: inspectors already hold the ids
    through reconciliation, so a real implementation ships offsets, not id
    lists (DESIGN.md).
    """

    block: object  # Block
    header: CommitmentHeader
    bundle_ids: Tuple[Tuple[int, ...], ...]

    def wire_size(self) -> int:
        """On-wire size: block + header + 2 bytes per bundle boundary."""
        return self.block.wire_size() + self.header.wire_size() + 2 * len(self.bundle_ids)
