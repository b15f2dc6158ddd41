"""Deterministic block building (section 4.3, Fig. 3).

Steps: select every committed transaction (step 1), reject invalid and
below-fee-threshold transactions (step 2), order the survivors canonically
(step 3), assemble and sign the block (step 4).  The builder may append its
own brand-new transactions *after* all committed bundles ("The new
transaction can only be appended after all committed transaction bundles",
section 5.2); those become the builder's next committed bundle.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.chain.block import Block, sign_block
from repro.chain.ledger import Ledger
from repro.core.commitment import BundleInfo
from repro.core.config import LOConfig
from repro.core.ordering import canonical_order, fee_priority_order
from repro.crypto.keys import KeyPair
from repro.mempool.txlog import TransactionLog


class BlockBuilder:
    """Builds blocks for one miner from its transaction log."""

    __slots__ = ("keypair", "config")

    def __init__(self, keypair: KeyPair, config: LOConfig):
        self.keypair = keypair
        self.config = config

    def exclusion_predicate(
        self, log: TransactionLog, ledger: Ledger
    ) -> Callable[[int], bool]:
        """Ids a block must not contain: settled, invalid, or low-fee.

        Ids whose content is unknown are also excluded -- a block cannot
        carry a transaction the builder cannot produce bytes for.  Correct
        builders pin ``commit_seq`` to a prefix whose contents they hold,
        so for them this clause never fires.
        """

        def exclude(sketch_id: int) -> bool:
            if ledger.is_settled(sketch_id):
                return True
            tx = log.content_of(sketch_id)
            if tx is None:
                return True
            if log.is_invalid(sketch_id):
                return True
            return tx.fee < self.config.min_fee

        return exclude

    def coverable_seq(self, log: TransactionLog, bundles: Sequence[BundleInfo]) -> int:
        """Largest commitment seq whose bundles' contents are all held.

        A correct builder pins the block to this prefix: everything up to
        it can be included (or provably excluded), so inspection can demand
        full inclusion without false positives.
        """
        covered = 0
        for bundle in bundles:
            if all(
                log.content_of(i) is not None or log.is_invalid(i)
                for i in bundle.ids
            ):
                covered = bundle.index + 1
            else:
                break
        return covered

    def build(
        self,
        log: TransactionLog,
        bundles: Sequence[BundleInfo],
        ledger: Ledger,
        created_at: float,
        commit_seq: Optional[int] = None,
        appended_ids: Sequence[int] = (),
    ) -> Block:
        """Build and sign the canonical block for the current tip.

        ``appended_ids`` are the builder's own new transactions, placed
        after all committed bundles; the caller is responsible for
        committing them as the next bundle.
        """
        seq = self.coverable_seq(log, bundles) if commit_seq is None else commit_seq
        exclude = self.exclusion_predicate(log, ledger)
        ordered = canonical_order(bundles, seq, ledger.tip_hash, exclude)
        ordered.extend(i for i in appended_ids if not exclude(i))
        ordered = ordered[: self.config.max_block_txs]
        return sign_block(
            self.keypair,
            height=ledger.height + 1,
            prev_hash=ledger.tip_hash,
            tx_ids=ordered,
            commit_seq=seq,
            created_at=created_at,
        )

    def build_highest_fee(
        self,
        log: TransactionLog,
        ledger: Ledger,
        created_at: float,
    ) -> Block:
        """The Fig. 8 'Highest Fee' baseline: fee-priority selection.

        Not a valid LO block (inspection would flag it); used to compare
        transaction latency under today's dominant policy.
        """
        exclude = self.exclusion_predicate(log, ledger)

        def fee_of(sketch_id: int) -> int:
            tx = log.content_of(sketch_id)
            return tx.fee if tx is not None else 0

        ordered = fee_priority_order(log.order, fee_of, exclude)
        ordered = ordered[: self.config.max_block_txs]
        return sign_block(
            self.keypair,
            height=ledger.height + 1,
            prev_hash=ledger.tip_hash,
            tx_ids=ordered,
            commit_seq=0,
            created_at=created_at,
        )
