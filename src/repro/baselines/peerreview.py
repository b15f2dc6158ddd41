"""PeerReview: generic accountability via tamper-evident logs + witnesses.

The Fig. 9 'PeerReview' baseline (Haeberlen et al., SOSP 2007): "each miner
maintains a message log, with eight random witnesses assigned per miner.
These witnesses periodically retrieve and review miners' logs for any
indications of malicious activity, whether it be injection (commission) or
censorship (omission)."

Faithful cost model on top of the flooding relay (PeerReview wraps a
reference protocol; the mempool reference protocol *is* flooding):

* every protocol message carries an authenticator (signed hash-chain head,
  ~96 B) and is acknowledged with another authenticator;
* each node appends SEND/RECV entries to a hash-chained log;
* every audit period each witness fetches the log entries it has not seen
  yet (~72 B per entry on the wire) and replays them against the reference
  automaton (checked here by re-validating the hash chain).

The resulting overhead -- two authenticators per message plus an 8x
witness fan-out of per-message log entries -- is what makes PeerReview
roughly 20x more expensive than LO in the paper's comparison.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.baselines.common import AUTH_BYTES
from repro.baselines.flood import FloodNode
from repro.net.message import Message

LOG_ENTRY_WIRE_BYTES = 40     # content hash (32) + seq/type/peer packed (8)
AUDIT_INTERVAL_S = 2.0
NUM_WITNESSES = 8


@dataclass(frozen=True)
class LogEntry:
    """One tamper-evident log record."""

    seq: int
    kind: str          # "send" | "recv"
    peer: int
    msg_type: str
    digest: bytes      # hash-chain head after this entry


class PeerReviewNode(FloodNode):
    """Flooding relay wrapped with PeerReview logging and witnessing."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log_entries: List[LogEntry] = []
        self._chain_head = b"\x00" * 32
        self.witnesses: List[int] = self._pick_witnesses()
        self._witness_cursor: Dict[int, int] = {}  # audited node -> entries seen
        self._witness_head: Dict[int, bytes] = {}  # audited node -> last digest
        self.audit_failures = 0

    def _pick_witnesses(self) -> List[int]:
        """Deterministic pseudo-random witness set for this node."""
        seed = hashlib.sha256(f"witnesses-{self.node_id}".encode()).digest()
        picks: List[int] = []
        counter = 0
        while len(picks) < min(NUM_WITNESSES, self.num_nodes - 1):
            candidate = int.from_bytes(
                hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()[:4],
                "big",
            ) % self.num_nodes
            counter += 1
            if candidate != self.node_id and candidate not in picks:
                picks.append(candidate)
        return picks

    def start(self) -> None:
        self.loop.call_later(
            AUDIT_INTERVAL_S * (0.5 + self.rng.random()), self._audit_tick
        )

    # ------------------------------------------------------------- logging

    def _append_log(self, kind: str, peer: int, msg_type: str) -> LogEntry:
        payload = f"{kind}|{peer}|{msg_type}|{len(self.log_entries)}".encode()
        self._chain_head = hashlib.sha256(self._chain_head + payload).digest()
        entry = LogEntry(
            seq=len(self.log_entries),
            kind=kind,
            peer=peer,
            msg_type=msg_type,
            digest=self._chain_head,
        )
        self.log_entries.append(entry)
        return entry

    def send(self, peer, msg_type, payload, body_bytes, is_overhead=True):
        if msg_type.startswith("flood/"):
            # Reference-protocol messages carry an authenticator and are
            # logged; PeerReview-internal traffic is not double-wrapped.
            self._append_log("send", peer, msg_type)
            body_bytes += AUTH_BYTES
        super().send(peer, msg_type, payload, body_bytes, is_overhead)

    def on_message(self, message: Message) -> None:
        if message.msg_type.startswith("flood/"):
            self._append_log("recv", message.sender, message.msg_type)
            # Acknowledge with an authenticator (signed log head).
            self.send(message.sender, "pr/ack", self._chain_head, AUTH_BYTES)
            super().on_message(message)
            return
        if message.msg_type == "pr/ack":
            return  # authenticators are stored by witnesses, nothing to do
        if message.msg_type == "pr/log_request":
            since = message.payload
            entries = tuple(self.log_entries[since:])
            self.send(
                message.sender, "pr/log_reply", (self.node_id, since, entries),
                LOG_ENTRY_WIRE_BYTES * max(1, len(entries)),
            )
            return
        if message.msg_type == "pr/log_reply":
            self._check_log(message.payload)
            return
        super().on_message(message)

    # ------------------------------------------------------------ witnessing

    def _audit_tick(self) -> None:
        self.loop.call_later(AUDIT_INTERVAL_S, self._audit_tick)
        # This node acts as witness for everyone who picked it; witness
        # assignment is deterministic, so recompute the reverse mapping
        # lazily from the audited side: each node audits the peers it
        # witnesses by asking for fresh log segments.
        for audited in self._audited_nodes():
            since = self._witness_cursor.get(audited, 0)
            self.send(audited, "pr/log_request", since, 8)

    def _audited_nodes(self) -> List[int]:
        """Nodes this node witnesses (reverse of _pick_witnesses)."""
        if not hasattr(self, "_audited_cache"):
            audited = []
            for candidate in range(self.num_nodes):
                if candidate == self.node_id:
                    continue
                seed = hashlib.sha256(f"witnesses-{candidate}".encode()).digest()
                picks: List[int] = []
                counter = 0
                while len(picks) < min(NUM_WITNESSES, self.num_nodes - 1):
                    pick = int.from_bytes(
                        hashlib.sha256(
                            seed + counter.to_bytes(4, "big")
                        ).digest()[:4],
                        "big",
                    ) % self.num_nodes
                    counter += 1
                    if pick != candidate and pick not in picks:
                        picks.append(pick)
                if self.node_id in picks:
                    audited.append(candidate)
            self._audited_cache = audited
        return self._audited_cache

    def _check_log(self, payload: Tuple[int, int, Tuple[LogEntry, ...]]) -> None:
        """Replay a fetched log segment: verify the tamper-evident chain.

        Each entry's digest must equal H(previous digest || entry payload);
        the witness keeps the digest where its last audit stopped, so any
        history rewrite or fork in the continuation is caught (PeerReview's
        tamper-evidence property).  Sequence numbers must also be gap-free.
        """
        audited, since, entries = payload
        cursor = self._witness_cursor.get(audited, 0)
        if since != cursor:
            return  # stale reply
        expected_seq = cursor
        head = self._witness_head.get(audited, b"\x00" * 32)
        for entry in entries:
            if entry.seq != expected_seq:
                self.audit_failures += 1
                return
            payload_bytes = (
                f"{entry.kind}|{entry.peer}|{entry.msg_type}|{entry.seq}"
            ).encode()
            head = hashlib.sha256(head + payload_bytes).digest()
            if entry.digest != head:
                self.audit_failures += 1
                return
            expected_seq += 1
        self._witness_cursor[audited] = expected_seq
        self._witness_head[audited] = head
