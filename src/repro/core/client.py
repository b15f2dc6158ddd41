"""Light clients: stage-I transaction submission and status queries.

Section 2.3, stage I: "The client shares the transaction with a subset of
peers that it personally knows ... Optionally, miners might respond to the
client with the transaction status, to acknowledge inclusion of a
transaction in a mempool.  Also optionally, a client can query a miner to
get an acknowledging of transaction inclusion in a mempool."  Section 3
notes the model covers light clients without modification.

:class:`LightClient` implements exactly that: it owns a key pair but no
mempool, submits signed transactions to chosen miners, collects signed
acknowledgements, and can later query any miner for a transaction's status
(unknown / committed / content-held / settled).  Comparing acks against
later status answers is the client-side evidence trail for the stage-I
censorship scenario (a miner that acked but never committed).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.crypto.keys import KeyPair, PublicKey, verify
from repro.mempool.transaction import Transaction, make_transaction
from repro.net.message import ENVELOPE_BYTES, Message
from repro.net.network import Endpoint, Network
from repro.sim.loop import EventLoop

_FIRST_CLIENT_ID = 1_000_000  # clients live above miner ids


@dataclass(frozen=True)
class SubmitAck:
    """A miner's signed acknowledgement of a client submission."""

    miner: PublicKey
    txid: bytes
    accepted: bool
    at_time: float
    signature: bytes = b""

    def signing_bytes(self) -> bytes:
        """Canonical bytes the miner signs: miner, txid, verdict, timestamp."""
        return b"|".join(
            (b"lo-ack", self.miner.raw, self.txid,
             b"1" if self.accepted else b"0", repr(self.at_time).encode())
        )

    def verify(self) -> bool:
        """Check the miner's signature over the acknowledgement."""
        return verify(self.miner, self.signing_bytes(), self.signature)

    def wire_size(self) -> int:
        """On-wire size: two keys, verdict byte, timestamp, signature."""
        return 32 + 32 + 1 + 8 + 64


@dataclass(frozen=True)
class StatusReply:
    """A miner's answer to a status query."""

    miner: PublicKey
    sketch_id: int
    status: str  # "unknown" | "committed" | "content-held" | "settled"
    at_time: float

    def wire_size(self) -> int:
        """On-wire size: key, sketch id, status byte, timestamp."""
        return 32 + 4 + 1 + 8


class LightClient(Endpoint):
    """A non-mining participant that submits and tracks transactions."""

    def __init__(self, loop: EventLoop, network: Network,
                 seed: Optional[bytes] = None):
        # The first client id this network has never seen: ``meters``
        # keeps the ids of detached endpoints too.
        self.node_id = next(
            i for i in itertools.count(_FIRST_CLIENT_ID)
            if i not in network.meters
        )
        self.loop = loop
        self.network = network
        self.keypair = KeyPair.generate(
            seed=seed or f"light-client-{self.node_id}".encode()
        )
        self.acks: Dict[bytes, List[SubmitAck]] = {}
        self.status_replies: Dict[int, List[StatusReply]] = {}
        self._nonce = 0
        network.register(self)

    # ------------------------------------------------------------ submitting

    def make_transaction(self, fee: int, size_bytes: int = 250,
                         payload: bytes = b"") -> Transaction:
        """Create and sign a transaction without submitting it."""
        self._nonce += 1
        return make_transaction(
            self.keypair, self._nonce, fee, self.loop.now, size_bytes, payload
        )

    def submit(self, tx: Transaction, miners: Sequence[int]) -> None:
        """Share a transaction with a subset of miners (stage I, step 1)."""
        for miner in miners:
            self.network.send(
                self.node_id, miner, "lo/client_submit", tx,
                wire_bytes=tx.wire_size() + ENVELOPE_BYTES, is_overhead=False,
            )

    def query_status(self, sketch_id: int, miner: int) -> None:
        """Ask a miner whether it holds/committed/settled a transaction."""
        self.network.send(
            self.node_id, miner, "lo/status_query",
            (self.node_id, sketch_id),
            wire_bytes=12 + ENVELOPE_BYTES,
        )

    # -------------------------------------------------------------- receiving

    def on_message(self, message: Message) -> None:
        if message.msg_type == "lo/submit_ack":
            ack: SubmitAck = message.payload
            if ack.verify():
                self.acks.setdefault(ack.txid, []).append(ack)
        elif message.msg_type == "lo/status_reply":
            reply: StatusReply = message.payload
            self.status_replies.setdefault(reply.sketch_id, []).append(reply)

    # -------------------------------------------------------------- evidence

    def acks_for(self, tx: Transaction) -> List[SubmitAck]:
        """Verified acknowledgements collected for a transaction."""
        return list(self.acks.get(tx.txid, ()))

    def latest_status(self, sketch_id: int) -> Optional[StatusReply]:
        """Most recent status reply for a transaction id."""
        replies = self.status_replies.get(sketch_id)
        return replies[-1] if replies else None

    def contradicted_acks(self, tx: Transaction) -> List[SubmitAck]:
        """Acks from miners that later reported the tx as unknown.

        This is the client-side red flag of stage-I censorship: "a faulty
        miner either provides a fake transaction reception acknowledgement,
        or does not acknowledge it at all" (section 2.2).  The ack is
        signed, so the pair (ack, status=unknown) is the client's evidence
        when it escalates.
        """
        suspicious = []
        for ack in self.acks_for(tx):
            if not ack.accepted:
                continue
            for reply in self.status_replies.get(tx.sketch_id, ()):
                if reply.miner == ack.miner and reply.status == "unknown":
                    suspicious.append(ack)
                    break
        return suspicious
