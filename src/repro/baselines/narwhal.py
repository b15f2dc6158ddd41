"""Narwhal: DAG-based mempool with certified batches.

The Fig. 9 'Narwhal' baseline (Danezis et al., EuroSys 2022), implemented
as the paper describes its comparison setup: "each node creates batches of
recent transactions every 0.5 seconds and reliably broadcasts them.  A
batch, upon receiving acknowledgments from over two-thirds of the network,
is then incorporated into a header.  The header is broadcast to the
network.  Peers who are missing any batch from the header have the option
to directly request it from the originator."

Cost shape: every batch triggers N broadcasts, ~2N/3 signed acks back to
the creator, and an N-wide header broadcast whose certificate carries 2N/3
signatures -- "7 to 10 times greater" bandwidth than LO at 200 nodes, per
the paper, because certification traffic grows with the committee size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.baselines.common import BaseMempoolNode, SIGNATURE_BYTES
from repro.mempool.transaction import Transaction
from repro.net.message import Message

BATCH_INTERVAL_S = 0.5
DIGEST_BYTES = 32


@dataclass(frozen=True)
class Batch:
    """A broadcast batch of transactions."""

    creator: int
    batch_seq: int
    txs: Tuple[Transaction, ...]

    @property
    def digest_key(self) -> Tuple[int, int]:
        return (self.creator, self.batch_seq)


@dataclass(frozen=True)
class Header:
    """A certified header referencing one batch.

    The certificate is modelled as the quorum size (each member costs one
    signature on the wire); signature validity is assumed, as the paper's
    comparison only measures bandwidth.
    """

    creator: int
    batch_seq: int
    quorum: int


class NarwhalNode(BaseMempoolNode):
    """Batch -> ack -> certificate -> header pipeline."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._pending: List[Transaction] = []
        self._batch_seq = 0
        self._acks: Dict[int, Set[int]] = {}        # batch_seq -> ack senders
        self._certified: Set[int] = set()
        self._my_batches: Dict[int, Batch] = {}
        self._known_batches: Dict[Tuple[int, int], Batch] = {}

    def start(self) -> None:
        self.loop.call_later(
            BATCH_INTERVAL_S * self.rng.random(), self._batch_tick
        )

    @property
    def quorum_size(self) -> int:
        """Strictly more than two-thirds of the network."""
        return (2 * self.num_nodes) // 3 + 1

    def on_new_local_tx(self, tx: Transaction) -> None:
        self._pending.append(tx)

    # -------------------------------------------------------------- batches

    def _batch_tick(self) -> None:
        self.loop.call_later(BATCH_INTERVAL_S, self._batch_tick)
        if not self._pending:
            return
        batch = Batch(
            creator=self.node_id,
            batch_seq=self._batch_seq,
            txs=tuple(self._pending),
        )
        self._batch_seq += 1
        self._pending = []
        self._my_batches[batch.batch_seq] = batch
        self._known_batches[batch.digest_key] = batch
        self._acks[batch.batch_seq] = {self.node_id}
        payload_bytes = sum(tx.wire_size() for tx in batch.txs)
        for peer in range(self.num_nodes):
            if peer == self.node_id:
                continue
            # Batch envelope (digest + seq) is overhead; tx bytes are not.
            self.send(peer, "nw/batch", batch, DIGEST_BYTES + 8)
            self.send(peer, "nw/batch_payload", batch.digest_key,
                      payload_bytes, is_overhead=False)

    def on_message(self, message: Message) -> None:
        if message.msg_type == "nw/batch":
            batch: Batch = message.payload
            if batch.digest_key not in self._known_batches:
                self._known_batches[batch.digest_key] = batch
                for tx in batch.txs:
                    self._store(tx)
            self.send(message.sender, "nw/ack",
                      (batch.creator, batch.batch_seq),
                      DIGEST_BYTES + SIGNATURE_BYTES)
        elif message.msg_type == "nw/batch_payload":
            pass  # payload bytes are accounted on the wire; content is in nw/batch
        elif message.msg_type == "nw/ack":
            creator, batch_seq = message.payload
            if creator != self.node_id or batch_seq in self._certified:
                return
            acks = self._acks.setdefault(batch_seq, {self.node_id})
            acks.add(message.sender)
            if len(acks) >= self.quorum_size:
                self._certified.add(batch_seq)
                self._broadcast_header(batch_seq, len(acks))
        elif message.msg_type == "nw/header":
            header: Header = message.payload
            key = (header.creator, header.batch_seq)
            if key not in self._known_batches:
                self.send(header.creator, "nw/batch_request", key,
                          DIGEST_BYTES)
        elif message.msg_type == "nw/batch_request":
            key = message.payload
            batch = self._known_batches.get(key)
            if batch is not None:
                self.send(message.sender, "nw/batch", batch,
                          DIGEST_BYTES + 8)
                self.send(
                    message.sender, "nw/batch_payload", key,
                    sum(tx.wire_size() for tx in batch.txs),
                    is_overhead=False,
                )

    def _broadcast_header(self, batch_seq: int, quorum: int) -> None:
        header = Header(self.node_id, batch_seq, quorum)
        # Header = batch digest + certificate of `quorum` signatures.
        header_bytes = DIGEST_BYTES + 8 + quorum * SIGNATURE_BYTES
        for peer in range(self.num_nodes):
            if peer != self.node_id:
                self.send(peer, "nw/header", header, header_bytes)
