"""Suspicion and exposure bookkeeping (sections 3.2 and 5.2).

Blames come in two strengths: an *exposure* is a transferable, verifiable
proof of misbehaviour (equivocation evidence or a block policy violation);
a *suspicion* is the unprovable-but-shareable observation that a node is
ignoring requests.  The :class:`AccountabilityState` tracks both per node,
implements the request/timeout/retry machinery ("The request timeout was
set to 1 second.  If a request was not fulfilled within this time, it was
resent three times, after which the node was suspected", section 6.1), and
evaluates the Fig. 4 consistency-check rules when third-party blames
arrive.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Set, Tuple

from repro.chain.block import Block
from repro.core.commitment import (
    CommitmentHeader,
    CommitmentStore,
    EquivocationEvidence,
    bundle_digest,
    chain_digest,
    GENESIS_DIGEST,
)
from repro.core.inspection import Violation
from repro.core.policies import STALE_SEQ_SLACK, ViolationKind
from repro.crypto.keys import PublicKey
from repro.empty import EMPTY_MAP
from repro.mempool.txlog import TransactionLog

_request_ids = itertools.count()


@dataclass
class PendingRequest:
    """A request awaiting a response, subject to the suspicion timeout.

    Slotted by hand (``dataclass(slots=True)`` needs Python 3.10), so no
    field has a default.  Correct nodes keep every unanswered request, so
    a node facing silent peers holds one of these per timed-out round.
    """

    __slots__ = ("request_id", "target", "kind", "detail", "sent_at",
                 "retries_left", "resend_count")

    request_id: int
    target: PublicKey
    kind: str                   # "sync" | "content" | "commitment"
    detail: Tuple[int, ...]     # e.g. the requested tx ids
    sent_at: float
    retries_left: int
    resend_count: int


@dataclass(frozen=True)
class SuspicionBlame:
    """Shareable notice that ``accused`` ignored ``kind`` requests.

    Carries the accuser's last known commitment of the accused so that
    better-informed peers can run the Fig. 4 consistency check.
    ``raised_at`` is when the accuser's current suspicion *episode* of the
    accused began (its :attr:`SuspicionRecord.since`), not when this blame
    was built: a retry that times out inside one episode re-announces the
    same blame.
    """

    accuser: PublicKey
    accused: PublicKey
    kind: str
    detail: Tuple[int, ...]
    last_known: Optional[CommitmentHeader]
    raised_at: float

    def wire_size(self) -> int:
        """On-wire size: keys + timestamp + detail ids + header + signature."""
        header = self.last_known.wire_size() if self.last_known else 0
        return 32 + 32 + 8 + 4 * len(self.detail) + header + 64

    def key(self) -> Tuple:
        """Deduplication key for gossip: what the blame announces.

        "``accuser`` has suspected ``accused`` for ``kind`` (``detail``)
        since ``raised_at``".  ``last_known`` is left out: it is the
        accuser's evidence, and it may grow inside one episode.
        """
        return (self.accuser.raw, self.accused.raw, self.kind, self.detail,
                self.raised_at)


@dataclass(frozen=True)
class BlockViolationEvidence:
    """Proof that a creator's block violates LO's policies.

    Bundles are carried as explicit id tuples.  :meth:`verify_structure`
    checks the block's signature and that the digest chain of those
    bundles matches the creator's *signed* commitment header; for
    ``STALE_COMMITMENT_SEQ`` it checks the seq gap instead.  It does not
    re-run the inspection, so the carried ``violation`` of any other kind
    is taken as claimed: a forged one around an honest block verifies
    (ROADMAP item 11(a)).
    """

    accused: PublicKey
    block: Block
    header: CommitmentHeader
    bundle_ids: Tuple[Tuple[int, ...], ...]
    violation: Violation

    def chain_matches_header(self) -> bool:
        """The carried bundles must hash-chain to the signed header."""
        if self.header.signer != self.accused:
            return False
        if not self.header.signature_valid():
            return False
        if len(self.bundle_ids) < self.header.seq:
            return False
        digest = GENESIS_DIGEST
        for index in range(self.header.seq):
            digest = chain_digest(digest, bundle_digest(self.bundle_ids[index]))
            if self.header.digests[index] != digest:
                return False
        return True

    def verify_structure(self) -> bool:
        """Signature and digest-chain checks (content-independent)."""
        if self.block.creator != self.accused:
            return False
        if not self.block.signature_valid():
            return False
        if self.violation.kind is ViolationKind.STALE_COMMITMENT_SEQ:
            # Proof: the creator signed a commitment far newer than the
            # prefix its block pins; no bundle data needed.
            if self.header.signer != self.accused or not self.header.signature_valid():
                return False
            return self.header.seq - self.block.commit_seq > STALE_SEQ_SLACK
        return self.chain_matches_header()

    def wire_size(self) -> int:
        """On-wire size: the full block, the violated header, ids, signature."""
        ids = sum(len(b) for b in self.bundle_ids)
        return self.block.wire_size() + self.header.wire_size() + 4 * ids + 64


@dataclass(frozen=True)
class ExposureBlame:
    """A verifiable exposure: equivocation or a block policy violation."""

    accused: PublicKey
    equivocation: Optional[EquivocationEvidence] = None
    block_violation: Optional[BlockViolationEvidence] = None

    def verify(self) -> bool:
        """Check the embedded proof; at least one must be present and valid."""
        if self.equivocation is not None:
            return (
                self.equivocation.accused == self.accused
                and self.equivocation.verify()
            )
        if self.block_violation is not None:
            return (
                self.block_violation.accused == self.accused
                and self.block_violation.verify_structure()
            )
        return False

    def wire_size(self) -> int:
        """On-wire size of the accused key plus whichever proof is attached."""
        if self.equivocation is not None:
            return 32 + 2 * self.equivocation.header_a.wire_size() + 64
        if self.block_violation is not None:
            return 32 + self.block_violation.wire_size()
        return 32

    def key(self) -> Tuple:
        """Deduplication key for gossip."""
        if self.equivocation is not None:
            return (
                self.accused.raw,
                "equivocation",
                self.equivocation.header_a.seq,
                self.equivocation.header_b.seq,
            )
        if self.block_violation is not None:
            return (
                self.accused.raw,
                "block",
                self.block_violation.block.block_hash,
                self.block_violation.violation.kind.value,
            )
        return (self.accused.raw, "empty")


@dataclass
class SuspicionRecord:
    """Local suspicion state for one remote node: one suspicion episode.

    The episode runs from ``since`` until the record is cleared.
    ``claims`` are the ``(kind, detail)`` pairs this node has blamed the
    node for first-hand in the episode; each is one gossiped blame.
    """

    since: float
    kinds: Set[str] = field(default_factory=set)
    secondhand: bool = False
    claims: Set[Tuple[str, Tuple[int, ...]]] = field(default_factory=set)


class AccountabilityState:
    """Per-node accountability bookkeeping: Alg. 1's S and E sets."""

    __slots__ = ("owner", "log", "clock_cells", "exposed", "suspected",
                 "pending", "stores", "_seen_blame_keys")

    def __init__(self, owner: PublicKey, log: TransactionLog):
        self.owner = owner
        # The owner's log: every store records what its signer holds as
        # positions in it.
        self.log = log
        self.clock_cells = log.clock.cells  # the owner's Bloom-clock width
        # Each map is the shared empty until its first write
        # (:mod:`repro.empty`): at paper scale most nodes never expose,
        # suspect or hear from anyone.
        self.exposed: Dict[PublicKey, ExposureBlame] = EMPTY_MAP
        self.suspected: Dict[PublicKey, SuspicionRecord] = EMPTY_MAP
        self.pending: Dict[int, PendingRequest] = EMPTY_MAP
        self.stores: Dict[PublicKey, CommitmentStore] = EMPTY_MAP
        # Blame keys already verified (a dict used as a set).
        self._seen_blame_keys: Dict[Tuple, None] = EMPTY_MAP

    # ------------------------------------------------------------- requests

    def open_request(
        self,
        target: PublicKey,
        kind: str,
        detail: Sequence[int],
        now: float,
        retries: int,
    ) -> PendingRequest:
        """Register an outgoing request for timeout tracking."""
        request = PendingRequest(
            request_id=next(_request_ids),
            target=target,
            kind=kind,
            detail=tuple(detail),
            sent_at=now,
            retries_left=retries,
            resend_count=0,
        )
        if self.pending is EMPTY_MAP:
            self.pending = {}
        self.pending[request.request_id] = request
        return request

    def close_request(self, request_id: int) -> Optional[PendingRequest]:
        """A response arrived; drop the pending entry."""
        if self.pending is EMPTY_MAP:
            return None
        return self.pending.pop(request_id, None)

    def close_requests_to(self, target: PublicKey, kind: Optional[str] = None) -> int:
        """Close all pending requests to a node (e.g. satisfied indirectly)."""
        to_close = [
            rid
            for rid, req in self.pending.items()
            if req.target == target and (kind is None or req.kind == kind)
        ]
        for rid in to_close:
            del self.pending[rid]
        return len(to_close)

    def on_timeout(self, request_id: int, now: float) -> Optional[str]:
        """Handle a request timeout.

        Returns ``"resend"`` while retries remain, ``"suspect"`` when they
        are exhausted (the request stays pending: correct nodes "retain all
        pending requests"), or None when the request was already satisfied.
        """
        request = self.pending.get(request_id)
        if request is None:
            return None
        if request.retries_left > 0:
            request.retries_left -= 1
            request.resend_count += 1
            request.sent_at = now
            return "resend"
        self._suspect(request.target, request.kind, now, secondhand=False)
        return "suspect"

    # ------------------------------------------------------------ suspicion

    def _suspect(
        self, target: PublicKey, kind: str, now: float, secondhand: bool
    ) -> bool:
        """Mark a node suspected; returns True when newly suspected."""
        record = self.suspected.get(target)
        if record is None:
            if self.suspected is EMPTY_MAP:
                self.suspected = {}
            self.suspected[target] = SuspicionRecord(
                since=now, kinds={kind}, secondhand=secondhand
            )
            return True
        record.kinds.add(kind)
        return False

    def claim(
        self, target: PublicKey, kind: str, detail: Tuple[int, ...], now: float
    ) -> Tuple[float, bool]:
        """Suspect ``target`` first-hand for ``kind`` (``detail``).

        Returns ``(since, new)``: the start of the current episode, and
        whether this claim is new in it (a retry of a claim already made
        in the episode is not).
        """
        self._suspect(target, kind, now, secondhand=False)
        record = self.suspected[target]
        claim = (kind, detail)
        if claim in record.claims:
            return record.since, False
        record.claims.add(claim)
        return record.since, True

    def is_suspected(self, target: PublicKey) -> bool:
        """True while ``target`` has an unanswered suspicion against it."""
        return target in self.suspected

    def clear_suspicion(self, target: PublicKey) -> bool:
        """The node answered (directly or via a relayed commitment)."""
        if self.suspected is EMPTY_MAP:
            return False
        return self.suspected.pop(target, None) is not None

    def adopt_suspicion(self, blame: SuspicionBlame, now: float) -> bool:
        """Adopt a third-party suspicion; returns True when newly adopted.

        Exposed nodes stay exposed; a node we hold fresher evidence about
        (a commitment covering the blamed detail) is not re-suspected --
        the Fig. 4 "share the latest commitment" branch handles that at the
        node layer.
        """
        if blame.accused in self.exposed:
            return False
        if blame.accused == self.owner:
            return False
        return self._suspect(blame.accused, blame.kind, now, secondhand=True)

    # ------------------------------------------------------------- exposure

    def store_for(self, signer: PublicKey) -> CommitmentStore:
        """Commitment store for a remote signer (created on demand).

        For recording what ``signer`` sent; a caller that only reads uses
        :meth:`latest_header` (or ``stores.get``), so a peer nothing was
        ever heard from costs no store.
        """
        store = self.stores.get(signer)
        if store is None:
            if self.stores is EMPTY_MAP:
                self.stores = {}
            store = self.stores[signer] = CommitmentStore(signer, self.log)
        return store

    def latest_header(self, signer: PublicKey) -> Optional[CommitmentHeader]:
        """Newest header observed from ``signer``, or None (never creates)."""
        store = self.stores.get(signer)
        return store.latest if store is not None else None

    def observe_header(
        self, header: CommitmentHeader
    ) -> Optional[EquivocationEvidence]:
        """Record a commitment header, returning evidence on inconsistency.

        A header whose clock is not :meth:`comparable` with ours is dropped:
        neither state nor evidence.  It is not a violation either, since
        correct relays forward the same blame object unchanged.
        """
        if not self.comparable(header) or not header.signature_valid():
            return None  # unauthenticated headers are ignored, not evidence
        return self.store_for(header.signer).observe(header)

    def comparable(self, header: CommitmentHeader) -> bool:
        """Whether ``header``'s clock has our width (cell-by-cell comparable)."""
        return header.clock.cells == self.clock_cells

    def expose(self, blame: ExposureBlame) -> bool:
        """Verify and record an exposure; returns True when newly adopted.

        An exposed node is removed from the suspected set (exposure is the
        stronger state) and all pending requests to it are abandoned.
        """
        if not blame.verify():
            return False
        key = blame.key()
        if key in self._seen_blame_keys and blame.accused in self.exposed:
            return False
        if self._seen_blame_keys is EMPTY_MAP:
            self._seen_blame_keys = {}
        self._seen_blame_keys[key] = None
        if blame.accused in self.exposed:
            return False
        if self.exposed is EMPTY_MAP:
            self.exposed = {}
        self.exposed[blame.accused] = blame
        self.clear_suspicion(blame.accused)
        self.close_requests_to(blame.accused)
        return True

    def is_exposed(self, target: PublicKey) -> bool:
        """True once a verified exposure proof against ``target`` is held."""
        return target in self.exposed

    def blocklist(self) -> Set[PublicKey]:
        """Nodes to avoid when sampling peers: suspected or exposed."""
        return set(self.suspected) | set(self.exposed)

    # ------------------------------------------------------ Fig. 4 machinery

    def evaluate_suspicion(
        self, blame: SuspicionBlame
    ) -> Tuple[str, Optional[CommitmentHeader], Optional[EquivocationEvidence]]:
        """Run the Fig. 4 consistency check against local knowledge.

        Returns ``(action, header, evidence)`` with action one of:

        * ``"expose"``     -- our stored headers conflict with the blame's
                              ``last_known`` header: equivocation proof.
        * ``"relay"``      -- we hold a newer consistent commitment that
                              covers the blamed detail; send it back to the
                              accuser so it can clear the suspicion.
        * ``"investigate"``-- our newer commitment does not cover the
                              detail either; forward the request ourselves
                              (and suspect on timeout).
        * ``"adopt"``      -- no better information; adopt the suspicion.
        """
        store = self.stores.get(blame.accused)
        latest = store.latest if store is not None else None
        last_known = blame.last_known
        if last_known is not None and not self.comparable(last_known):
            last_known = None  # observe_header drops it; so do we
        if last_known is not None and last_known.signature_valid():
            evidence = self.observe_header(last_known)
            if evidence is not None:
                return "expose", None, evidence
        if latest is None:
            return "adopt", None, None
        if last_known is not None and latest.seq <= last_known.seq:
            return "adopt", None, None
        covered = blame.kind == "content" and all(
            store.holds(detail) for detail in blame.detail
        )
        if covered or blame.kind == "sync":
            return "relay", latest, None
        return "investigate", latest, None
