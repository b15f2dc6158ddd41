"""A hash-linked ledger of settled blocks.

Consensus itself is out of scope (section 2.3 stage IV); the ledger is the
substrate blocks settle into.  In the simulation every correct node appends
the leader's block as soon as it is delivered, which models a consensus
protocol that always finalises the elected leader's proposal.  Block
*inspection* (detecting policy violations) is deliberately separate from
block *validation*: "block inspection is a separate process from block
validation, and does not affect the block inclusion into the chain"
(section 4.3) -- so even a manipulated block settles, and the manipulation
is exposed after the fact.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.chain.block import GENESIS_HASH, Block
from repro.empty import EMPTY_MAP


class Ledger:
    """Append-only chain of blocks plus an index of settled transactions."""

    __slots__ = ("_blocks", "_by_hash", "_settle_height")

    def __init__(self) -> None:
        # Shared empties until the first append makes all three
        # (:mod:`repro.empty`): at paper scale most ledgers stay empty.
        self._blocks: Sequence[Block] = ()
        self._by_hash: Dict[bytes, Block] = EMPTY_MAP
        # Settled id -> height of the first block that settled it; its
        # keys are the settled ids.
        self._settle_height: Dict[int, int] = EMPTY_MAP

    # --------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._blocks)

    @property
    def height(self) -> int:
        """Height of the chain tip; -1 when empty."""
        return len(self._blocks) - 1

    @property
    def tip_hash(self) -> bytes:
        """Hash of the latest block, or the genesis constant when empty."""
        return self._blocks[-1].block_hash if self._blocks else GENESIS_HASH

    def block_at(self, height: int) -> Block:
        """Block at a given height."""
        return self._blocks[height]

    def block_by_hash(self, block_hash: bytes) -> Optional[Block]:
        """Block with the given hash, if settled here."""
        return self._by_hash.get(block_hash)

    def is_settled(self, sketch_id: int) -> bool:
        """Whether a transaction id already appears in some settled block."""
        return sketch_id in self._settle_height

    def settle_height_of(self, sketch_id: int) -> Optional[int]:
        """Height of the block that settled the id, if any."""
        return self._settle_height.get(sketch_id)

    @property
    def settle_heights(self) -> Mapping[int, int]:
        """Settled id -> height of the first block that settled it.

        The ledger's own index, not a copy: read it, never write it.  A
        settle height never changes and later blocks only settle at greater
        heights, so "settled below height ``h``" --
        ``settle_heights.get(i, h) < h`` -- answers the same after any
        append.
        """
        return self._settle_height

    # -------------------------------------------------------------- mutation

    def append(self, block: Block) -> bool:
        """Append a block extending the current tip.

        Returns False (no-op) for duplicates or blocks that do not extend
        the tip; the simulation's random-leader settlement never forks, so
        a mismatch indicates a late or duplicate delivery rather than an
        error.
        """
        if block.block_hash in self._by_hash:
            return False
        if block.prev_hash != self.tip_hash or block.height != self.height + 1:
            return False
        if not self._blocks:
            self._blocks = []
            self._by_hash = {}
            self._settle_height = {}
        self._blocks.append(block)
        self._by_hash[block.block_hash] = block
        for sketch_id in block.tx_ids:
            self._settle_height.setdefault(sketch_id, block.height)
        return True

