"""Block-building attackers: injection, re-ordering, blockspace censorship.

Each attacker changes the canonical body in exactly one way at the block
body seam; the node re-signs and announces it as it would its honest
block, and block inspection (section 4.3) attributes the matching
violation kind and exposes the creator.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.attacks.adversary import Adversary, attacker
from repro.mempool.transaction import make_transaction


class Injector(Adversary):
    """Front-runs by inserting its own uncommitted transactions first.

    "Faulty miners inject new transactions in blocks in an arbitrary
    manner, without prior sharing of the updated mempool" (section 2.2).
    """

    def __init__(self, node, injected_per_block: int = 2):
        super().__init__(node)
        self.injected_per_block = injected_per_block

    def block_body(self, block):
        node = self.node
        front = []
        for _ in range(self.injected_per_block):
            node._nonce += 1
            tx = make_transaction(
                node.keypair, node._nonce, fee=1000, created_at=node.now
            )
            # Deliberately NOT committed: the whole point of the attack.
            front.append(tx.sketch_id)
            self.did("uncommitted-tx-in-body", tx.sketch_id)
        return tuple(front) + block.tx_ids, block.commit_seq


class Reorderer(Adversary):
    """Replaces the canonical order with fee-priority order (same tx set)."""

    def block_body(self, block):
        content_of = self.node.log.content_of

        def fee(sketch_id: int) -> int:
            tx = content_of(sketch_id)
            return tx.fee if tx is not None else 0

        body = tuple(sorted(block.tx_ids, key=lambda i: (-fee(i), i)))
        for canonical, placed in zip(block.tx_ids, body):
            if placed != canonical:
                self.did("order-deviation", placed)
        return body, block.commit_seq


class BlockspaceCensor(Adversary):
    """Omits targeted committed transactions from its blocks.

    "Faulty miners can exclude valid transactions from blocks, even after
    acknowledging their reception and including them in their mempool"
    (section 2.2, blockspace censorship).
    """

    def __init__(self, node, censor_predicate: Callable[[int], bool]):
        super().__init__(node)
        self.censor_predicate = censor_predicate

    def block_body(self, block):
        kept = self.omit(block.tx_ids, self.censor_predicate,
                         "missing-committed-tx")
        return tuple(kept), block.commit_seq


def make_block_attacker_factory(
    policy,
    censor_predicate: Optional[Callable[[int], bool]] = None,
):
    """Harness factory for one block attack.

    Only :class:`BlockspaceCensor` takes ``censor_predicate``; given to
    another policy it is a ``TypeError``, not silently ignored.
    """
    settings = {} if censor_predicate is None else {
        "censor_predicate": censor_predicate}
    return attacker(policy, **settings)
