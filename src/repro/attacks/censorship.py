"""Mempool censorship (sections 2.2, 6.2).

The section 6.2 adversary "aim[s] to hinder correct nodes from receiving
information about transactions, commitments, exposure, and suspicion
messages": it ignores reconciliation requests from correct nodes, drops
blame traffic instead of forwarding it, and keeps cooperating with its
co-conspirators.  A censoring miner may additionally *equivocate* when it
does respond, which upgrades its detectability from suspicion to exposure
(the two curves of Fig. 6).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from repro.attacks.adversary import Adversary, attacker
from repro.core.node import LONode
from repro.core.reconciliation import SyncResponse
from repro.core.wire import validate_payload
from repro.net.message import Message

#: Accountability gossip a blame-dropping censor swallows.
BLAME_TYPES = frozenset(("lo/suspicion", "lo/exposure", "lo/commit_upd"))

#: Compatibility name for the benchmark harness, whose tracer patches
#: ``CensoringNode.on_message``; censors are :class:`Censor` policies on
#: plain nodes.  Goes when a benchmark change stops lobench patching it.
CensoringNode = LONode


class Censor(Adversary):
    """A faulty miner that censors transactions and blame traffic.

    * ``colluders`` -- node ids it keeps talking to (other attackers).
    * ``ignore_sync`` -- drop sync and content requests from
      non-colluders (-> the requester times out, retries, then suspects:
      Fig. 6 'Suspicion').
    * ``drop_blames`` -- swallow suspicion/exposure/commit-update gossip.
    * ``equivocate`` -- answer every non-colluder's sync request with a
      bare response carrying a forked header, and nothing else
      (-> provable exposure: Fig. 6 'Exposure').
    * ``censor_predicate`` -- transaction ids it refuses to commit.
    """

    def __init__(self, node: LONode, colluders: Iterable[int] = (),
                 ignore_sync: bool = True, drop_blames: bool = True,
                 equivocate: bool = False,
                 censor_predicate: Optional[Callable[[int], bool]] = None):
        super().__init__(node)
        self.colluders = set(colluders) - {node.node_id}
        self.ignore_sync = ignore_sync
        self.drop_blames = drop_blames
        self.equivocate = equivocate
        self.censor_predicate = censor_predicate

    def intercepts(self, message: Message) -> bool:
        msg_type, sender = message.msg_type, message.sender
        if self.drop_blames and msg_type in BLAME_TYPES:
            self.did("drop-blame", sender)
            return True
        if sender in self.colluders:
            return False
        if msg_type == "lo/content_req" and self.ignore_sync:
            self.did("withhold-content", sender)
            return True
        if msg_type != "lo/sync_req":
            return False
        if self.equivocate:
            return self._answer_with_fork(message)
        if self.ignore_sync:
            # A pure censor never answers, leaving only suspicion evidence.
            self.did("ignore-sync", sender)
            return True
        return False

    def _answer_with_fork(self, message: Message) -> bool:
        if validate_payload("lo/sync_req", message.payload) is not None:
            return False  # malformed: ingress counts the violation
        response = SyncResponse(
            request_id=message.payload.request_id,
            header=self.header_for(message.sender, "lo/sync_resp"),
            status="ok",
            requested_ids=(),
            offered_ids=(),
        )
        self.node._send(message.sender, "lo/sync_resp", response,
                        response.wire_size())
        return True

    def header_for(self, peer: int, msg_type: str):
        if (self.equivocate and msg_type == "lo/sync_resp"
                and peer not in self.colluders):
            return self.fork(peer)
        return self.node.header()

    def commit_filter(self, ids: Sequence[int], source_peer) -> Sequence[int]:
        if self.censor_predicate is None:
            return ids
        return self.omit(ids, self.censor_predicate, "refuse-commit")


def make_censor_factory(
    colluders: Iterable[int],
    ignore_sync: bool = True,
    drop_blames: bool = True,
    equivocate: bool = False,
    censor_predicate: Optional[Callable[[int], bool]] = None,
) -> Callable[..., LONode]:
    """Harness factory producing nodes run by a configured :class:`Censor`."""
    return attacker(Censor, colluders=colluders, ignore_sync=ignore_sync,
                    drop_blames=drop_blames, equivocate=equivocate,
                    censor_predicate=censor_predicate)
