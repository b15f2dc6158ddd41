"""The one adversary mechanism: a policy on the seams of the honest node.

A faulty miner is an honest :class:`~repro.core.node.LONode` whose
``adversary`` slot holds an :class:`Adversary`.  The node consults it at
five seams, the methods below, each one ``is not None`` check on the
honest path.  The base class answers every seam as an honest node would,
so a policy overrides only the seams it deviates at (docs/attacks.md has
the seam table).  Every deviation a policy commits is appended to its
``record`` as ``(sim time, kind, peer or tx id)``: ground truth, kept
apart from anything the detector sees.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List, Sequence, Tuple

from repro.core.commitment import CommitmentHeader, sign_header
from repro.core.node import LONode
from repro.crypto.hashing import sha256


class Adversary:
    """An attack policy bound to one node; every seam answers honestly.

    Record kinds: ``drop-blame``, ``withhold-content``, ``ignore-sync``
    and ``equivocation`` name a peer; ``refuse-commit``, ``offchannel``,
    ``intercept``, ``launder`` and the block-inspection kinds
    ``uncommitted-tx-in-body``, ``order-deviation`` and
    ``missing-committed-tx`` name a transaction id; ``garbage`` names the
    peer a malformed message went to.
    """

    def __init__(self, node: LONode):
        self.node = node
        self.record: List[Tuple[float, str, int]] = []
        self._forks: Dict[int, CommitmentHeader] = {}

    # ------------------------------------------------------------ the seams

    def intercepts(self, message) -> bool:
        """First in ``on_message``: True when the policy took ``message``
        (dropped, deferred or answered it) and the node must not handle it."""
        return False

    def header_for(self, peer: int, msg_type: str) -> CommitmentHeader:
        """The header the node shows ``peer`` in a ``msg_type`` message
        (sync request and its retry, the sync responses, commit update)."""
        return self.node.header()

    def commit_filter(self, ids: Sequence[int], source_peer) -> Sequence[int]:
        """In ``_commit_bundle``: the ids of ``ids`` the node commits to."""
        return ids

    def block_body(self, block) -> Tuple[Tuple[int, ...], int]:
        """``(tx_ids, commit_seq)`` of the block ``on_leader_elected``
        announces; the node re-signs a block this changes."""
        return block.tx_ids, block.commit_seq

    def intercepts_client_tx(self, tx) -> bool:
        """In ``receive_client_transaction``: True when the policy took
        ``tx``; the client is told it was accepted, and nothing else."""
        return False

    # ------------------------------------------------------------- helpers

    def fork(self, peer: int) -> CommitmentHeader:
        """A signed header at the node's seq with a conflicting chain tip.

        Signing two chains at one seq is the equivocation the commitment
        store proves (section 5.2).  One fork per seq is kept; before the
        first commitment there is nothing to fork and the honest header is
        shown, which is no deviation.
        """
        node = self.node
        seq = node.seq
        if seq == 0:
            return node.header()
        forked = self._forks.get(seq)
        if forked is None:
            digests = list(node.header().digests)
            digests[-1] = sha256(digests[-1] + b"fork")
            forked = self._forks[seq] = sign_header(
                node.keypair, seq=seq, tx_count=len(node.log),
                digests=digests, clock=node.log.clock,
            )
        self.did("equivocation", peer)
        return forked

    def omit(self, ids: Sequence[int], omitted: Callable[[int], bool],
             kind: str) -> List[int]:
        """``ids`` without those ``omitted`` holds for, each one recorded."""
        kept = []
        for sketch_id in ids:
            if omitted(sketch_id):
                self.did(kind, sketch_id)
            else:
                kept.append(sketch_id)
        return kept

    def did(self, kind: str, subject: int) -> None:
        """Record one deviation, now."""
        self.record.append((self.node.now, kind, subject))


def attacker(policy: Callable[..., Adversary], **settings
             ) -> Callable[..., LONode]:
    """A harness ``attacker_factory``: an honest node run by ``policy``.

    Each node gets its own ``policy(node, **settings)``.  A setting the
    policy does not take is a ``TypeError`` here, not at the first node.
    """
    inspect.signature(policy).bind_partial(None, **settings)

    def factory(**kwargs) -> LONode:
        node = LONode(**kwargs)
        node.adversary = policy(node, **settings)
        return node

    return factory
