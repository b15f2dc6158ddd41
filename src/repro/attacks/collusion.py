"""Colluding miners and commitment-chain tracing (section 5.3, Fig. 5).

The attack: miner ``C`` wants to use transaction ``t`` (created by ``A``)
out of order, but is not ``A``'s neighbour.  A colluding peer ``B`` that
learned ``t`` normally forwards it to ``C`` *off-channel*, without the
commitment exchange.  ``C`` then either

* includes ``t`` in a block without ever committing to it -- caught by
  block inspection as an injection; or
* commits ``t`` at the last moment, claiming it as a locally received
  client transaction -- structurally clean, but "detection of collusion
  hinges on tracking the commitment chain from the transaction's original
  creator ... to the block creator": :func:`trace_commitment_chain` walks
  the bundle provenance records and implicates the first node whose story
  breaks (a 'local' bundle for a transaction signed by somebody else who
  provably disseminated it elsewhere first).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from repro.attacks.adversary import Adversary
from repro.core.node import LONode
from repro.core.wire import validate_payload
from repro.net.message import Message


class OffChannel(Adversary):
    """A colluder that shares/receives transactions outside the protocol.

    ``colluders`` are its fellow colluders.  ``launder`` selects the
    variant: False -> include stolen txs uncommitted (injection),
    True -> commit them as a fake 'local' bundle right before building.
    Client transactions with fee >= ``intercept_fee_min`` are fake-acked,
    withheld from the protocol entirely, and forwarded off-channel ("a
    faulty miner either provides a fake transaction reception
    acknowledgement...", section 2.3 stage I).
    """

    def __init__(self, node: LONode, colluders: Iterable[int] = (),
                 launder: bool = False,
                 intercept_fee_min: Optional[int] = None):
        super().__init__(node)
        self.colluders = set(colluders) - {node.node_id}
        self.launder = launder
        self.intercept_fee_min = intercept_fee_min
        self.stolen: Dict[int, object] = {}  # sketch_id -> Transaction

    def _share(self, tx) -> None:
        for colluder in self.colluders:
            self.node._send(colluder, "atk/offchannel", tx, tx.wire_size())
            self.did("offchannel", tx.sketch_id)

    def intercepts(self, message: Message) -> bool:
        if message.msg_type == "atk/offchannel":
            tx = message.payload
            # Keep it secret: no commitment, no log entry.
            if tx.sketch_id not in self.node.log:
                self.stolen[tx.sketch_id] = tx
            return True
        # Forward every transaction content it receives, off the record.
        payload = message.payload
        if (message.msg_type == "lo/content_resp"
                and validate_payload("lo/content_resp", payload) is None):
            for tx in payload.txs:
                self._share(tx)
        return False

    def intercepts_client_tx(self, tx) -> bool:
        if (
            self.intercept_fee_min is None
            or tx.fee < self.intercept_fee_min
            or tx.sketch_id in self.node.log
        ):
            return False
        self.stolen[tx.sketch_id] = tx
        self.did("intercept", tx.sketch_id)
        self._share(tx)
        return True  # fake acknowledgement: the client believes it's in

    def commit_filter(self, ids, source_peer):
        # Fig. 5: the stolen transactions are deliberately kept out of the
        # protocol ("exchange transaction t off-channel without making any
        # commitments"), even when a reconciliation would commit them.
        if not self.stolen:
            return ids
        return self.omit(ids, self.stolen.__contains__, "refuse-commit")

    def block_body(self, block):
        node = self.node
        usable = {
            i: tx for i, tx in self.stolen.items()
            if i not in node.log and not node.ledger.is_settled(i)
        }
        if not usable:
            return block.tx_ids, block.commit_seq
        if not self.launder:
            # Injection variant: put the stolen txs first, uncommitted.
            for sketch_id in sorted(usable):
                self.did("uncommitted-tx-in-body", sketch_id)
            return tuple(sorted(usable)) + block.tx_ids, block.commit_seq
        # Commit the stolen txs as if clients had submitted them here
        # (dropping them from the covert store first, so the commit filter
        # lets them through), then build the canonical block over them.
        for sketch_id in usable:
            self.stolen.pop(sketch_id)
            self.did("launder", sketch_id)
        node._commit_bundle(sorted(usable), source_peer=None)
        for sketch_id, tx in usable.items():
            if sketch_id in node.log and node.log.content_of(sketch_id) is None:
                node.log.add_content(tx, valid=True)
        rebuilt = node.builder.build(
            node.log, node.bundles, node.ledger, created_at=node.now
        )
        return rebuilt.tx_ids, rebuilt.commit_seq


@dataclass
class TraceStep:
    """One hop of a commitment-chain trace."""

    node_id: int
    bundle_index: Optional[int]     # None: the node never committed the tx
    claims_local: bool
    source_peer: Optional[int]
    committed_at: Optional[float]


@dataclass
class TraceResult:
    """Outcome of tracing a transaction back from a block creator."""

    chain: List[TraceStep]
    culprit: Optional[int]          # node id to blame, if the story breaks
    reason: str


def trace_commitment_chain(
    nodes: Dict[int, LONode],
    sketch_id: int,
    block_creator: int,
    true_origin: int,
    client_submitted_to: Optional[int] = None,
) -> TraceResult:
    """Walk bundle provenance from the block creator toward the tx origin.

    Models the post-block investigation of section 5.3: the transaction's
    creator (``true_origin``) queries each implicated miner for the signed
    commitment that covers ``t`` and follows the recorded source.  The walk
    stops when it reaches the true origin (story checks out), hits a node
    with no commitment at all (blamed for using an uncommitted tx), or hits
    a node that claims the tx as locally submitted even though the origin
    provably disseminated it first (blamed for off-channel laundering).

    ``client_submitted_to`` covers the stage-I interception variant: when
    the transaction came from an external client, it names the miner the
    client actually handed it to.  A 'local submission' claim by any other
    miner is then disproven by the client's testimony.
    """
    chain: List[TraceStep] = []
    visited: Set[int] = set()
    current = block_creator
    while True:
        if current in visited:
            return TraceResult(chain, current, "provenance cycle")
        visited.add(current)
        node = nodes[current]
        bundle = _bundle_containing(node, sketch_id)
        if bundle is None:
            chain.append(TraceStep(current, None, False, None, None))
            return TraceResult(
                chain, current, "included transaction without any commitment"
            )
        step = TraceStep(
            node_id=current,
            bundle_index=bundle.index,
            claims_local=bundle.source_peer is None,
            source_peer=bundle.source_peer,
            committed_at=bundle.committed_at,
        )
        chain.append(step)
        if current == true_origin:
            return TraceResult(chain, None, "chain reaches the tx origin")
        if step.claims_local:
            if client_submitted_to is not None and current != client_submitted_to:
                return TraceResult(
                    chain, current,
                    "claims local submission of a transaction the client"
                    f" handed to node {client_submitted_to}",
                )
            # Claims a client submitted it here, but the true origin holds
            # an earlier signed commitment for the same tx: provably false.
            origin_bundle = _bundle_containing(nodes[true_origin], sketch_id)
            if (
                origin_bundle is not None
                and origin_bundle.committed_at <= (step.committed_at or 0.0)
            ):
                return TraceResult(
                    chain, current,
                    "claims local submission after the origin's commitment",
                )
            return TraceResult(chain, None, "local claim not disprovable")
        current = step.source_peer


def _bundle_containing(node: LONode, sketch_id: int):
    for bundle in node.bundles:
        if sketch_id in bundle.ids:
            return bundle
    return None
