"""The admission pipeline: a production-grade pending pool.

:class:`Mempool` composes the stage modules into the full ingress path
a transaction traverses before it may be committed to the accountable
log:

1. **prevalidation** -- structural checks and signature verification
   (:func:`repro.mempool.transaction.prevalidate`);
2. **rate limiting** -- a per-peer token bucket
   (:mod:`repro.mempool.limiter`) rejects floods before they cost
   anything else;
3. **fee floor** -- the dynamic fee market
   (:mod:`repro.mempool.fee_market`) prices out transactions below the
   current congestion-adjusted minimum fee rate;
4. **nonce FIFO** -- per-sender ordering: stale nonces are rejected,
   duplicates of a pooled ``(sender, nonce)`` take the replace-by-fee
   path, and nonces too far ahead of the contiguous prefix are bounced
   (``nonce_gap``) so one sender cannot park unbounded future state;
5. **watermarks** -- if the pool is full, an eviction episode
   (:mod:`repro.mempool.evict`) removes strictly-lower-priority entries
   or, failing that, rejects the newcomer (``pool_full``).

Admitted transactions wait in the pool until the node *drains* them --
highest effective priority first, per-sender in nonce order (the
classic price-and-nonce schedule) -- into append-only log commitments.
Eviction therefore never has to un-commit anything: only drained
transactions ever reach the accountable log, which keeps LO's
append-only semantics intact.

Every decision is a pure function of (configuration, submitted
transactions, simulation clock), so same-seed runs produce
byte-identical admission counters and pool contents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro import obs
from repro.mempool.drain import DrainQueue
from repro.mempool.evict import Evictor
from repro.mempool.fee_market import FeeMarket, FeeMarketConfig
from repro.mempool.limiter import LimiterConfig, TokenBucketLimiter
from repro.mempool.priority import PriorityIndex, effective_priority
from repro.mempool.transaction import Transaction, prevalidate
from repro.mempool.watermark import WatermarkConfig

#: Acceptance outcomes.
ACCEPTED = "accepted"
REPLACED = "replaced"

#: Rejection reasons, in the order the pipeline checks them.
R_INVALID = "invalid"
R_RATE_LIMITED = "rate_limited"
R_UNDERPRICED = "underpriced"
R_DUPLICATE = "duplicate"
R_STALE_NONCE = "stale_nonce"
R_NONCE_GAP = "nonce_gap"
R_REPLACE_UNDERPRICED = "replace_underpriced"
R_POOL_FULL = "pool_full"

#: All rejection reasons a submission can earn, in pipeline order.
REJECT_REASONS: Tuple[str, ...] = (
    R_INVALID, R_RATE_LIMITED, R_UNDERPRICED, R_DUPLICATE,
    R_STALE_NONCE, R_NONCE_GAP, R_REPLACE_UNDERPRICED, R_POOL_FULL,
)

#: Pool-exit counters (beyond draining).
E_POOL_FULL = "evicted_pool_full"
E_AGE = "expired_age"

@dataclass(frozen=True)
class AdmissionConfig:
    """Configuration of the whole admission pipeline.

    Composes the per-stage configs plus the two knobs that belong to
    the pipeline itself: the nonce-gap bound and the per-tick drain
    batch size.
    """

    #: Dynamic-floor and replace-by-fee knobs.
    fee_market: FeeMarketConfig = field(default_factory=FeeMarketConfig)
    #: Per-peer ingress token-bucket knobs.
    limiter: LimiterConfig = field(default_factory=LimiterConfig)
    #: Pool size/age/count boundaries.
    watermarks: WatermarkConfig = field(default_factory=WatermarkConfig)
    #: How far ahead of a sender's contiguous nonce prefix a submission
    #: may run before it is rejected ``nonce_gap``.
    max_nonce_gap: int = 16
    #: Maximum transactions drained into log commitments per sync tick.
    drain_batch_size: int = 64

    def __post_init__(self) -> None:
        """Validate the pipeline-level knobs."""
        if self.max_nonce_gap < 0:
            raise ValueError("max_nonce_gap must be >= 0")
        if self.drain_batch_size < 1:
            raise ValueError("drain_batch_size must be >= 1")


@dataclass(frozen=True)
class AdmissionResult:
    """Outcome of one :meth:`Mempool.admit` call."""

    #: True when the transaction entered the pool (including via RBF).
    accepted: bool
    #: ``accepted``/``replaced`` or one of :data:`REJECT_REASONS`.
    reason: str
    #: txid of the pooled entry this submission replaced, if any.
    replaced_txid: Optional[bytes] = None


@dataclass
class _PoolEntry:
    """Internal bookkeeping for one pooled transaction."""

    tx: Transaction
    priority: float
    seq: int


class Mempool:
    """The pending pool behind a node's client-transaction ingress."""

    def __init__(self, config: Optional[AdmissionConfig] = None):
        self.config = config or AdmissionConfig()
        self.fee_market = FeeMarket(self.config.fee_market)
        self.limiter = TokenBucketLimiter(self.config.limiter)
        self._index = PriorityIndex()
        self.evictor = Evictor(self._index, self.config.watermarks)
        #: sketch id -> live entry.  Membership doubles as the drain
        #: queue's liveness predicate.
        self._entries: Dict[int, _PoolEntry] = {}
        self._drain = DrainQueue(self._entries.__contains__)
        #: sender raw key -> {nonce -> sketch id} of pooled entries.
        self._queues: Dict[bytes, Dict[int, int]] = {}
        #: sender raw key -> next undrained nonce (the stale boundary),
        #: lazily initialised at the sender's first admitted nonce.
        self._next_nonce: Dict[bytes, int] = {}
        self._seq = 0
        self.counters: Dict[str, int] = {
            ACCEPTED: 0, REPLACED: 0,
            **{reason: 0 for reason in REJECT_REASONS},
            E_POOL_FULL: 0, E_AGE: 0, "drained": 0,
        }

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, sketch_id: int) -> bool:
        return sketch_id in self._entries

    @property
    def pool_bytes(self) -> int:
        """Total bytes currently waiting in the pool."""
        return self._index.total_bytes

    def floor(self, now: float) -> float:
        """Current dynamic admission floor (fee units per byte)."""
        return self.fee_market.floor(now)

    def rejection_breakdown(self) -> Dict[str, int]:
        """Per-reason rejection counts (pipeline order, zeros included)."""
        return {reason: self.counters[reason] for reason in REJECT_REASONS}

    # -- admission -----------------------------------------------------

    def _reject(self, reason: str) -> AdmissionResult:
        self.counters[reason] += 1
        return AdmissionResult(False, reason)

    def _remove_entry(self, sketch_id: int) -> _PoolEntry:
        """Forget an entry everywhere except the (lazy) heaps."""
        entry = self._entries.pop(sketch_id)
        sender = entry.tx.sender.raw
        queue = self._queues.get(sender)
        if queue is not None:
            queue.pop(entry.tx.nonce, None)
            if not queue:
                del self._queues[sender]
        return entry

    def _apply_evictions(self, plan: List[Tuple[int, float]],
                         now: float) -> None:
        for sketch_id, _priority in plan:
            self._remove_entry(sketch_id)
            self.counters[E_POOL_FULL] += 1
        if plan:
            self.fee_market.on_pool_full_eviction(
                max(priority for _sid, priority in plan), now
            )

    def _insert(self, tx: Transaction, priority: float, now: float,
                head: bool) -> None:
        self._seq += 1
        seq = self._seq
        self._index.add(tx.sketch_id, priority, seq, tx.size_bytes)
        self._entries[tx.sketch_id] = _PoolEntry(tx, priority, seq)
        self._queues.setdefault(tx.sender.raw, {})[tx.nonce] = tx.sketch_id
        self.evictor.note_admitted(tx.sketch_id, now)
        if head:
            self._drain.push_ready(tx.sketch_id, priority, seq)

    def admit(self, tx: Transaction, now: float,
              peer: Optional[Hashable] = None) -> AdmissionResult:
        """Run one submission through every pipeline stage.

        ``peer`` is the opaque ingress identity metered by the rate
        limiter (a network peer id, or the sender key for local
        submissions); ``None`` skips the limiter stage.
        """
        profiler = obs.PROFILER
        if profiler is not None:
            profiler.enter("mempool")
        try:
            if not prevalidate(tx):
                return self._reject(R_INVALID)
            if peer is not None and not self.limiter.allow(peer, now):
                return self._reject(R_RATE_LIMITED)
            if not self.fee_market.meets_floor(tx, now):
                return self._reject(R_UNDERPRICED)
            if tx.sketch_id in self._entries:
                return self._reject(R_DUPLICATE)

            sender = tx.sender.raw
            next_nonce = self._next_nonce.get(sender)
            existing_id = self._queues.get(sender, {}).get(tx.nonce)
            if existing_id is not None:
                return self._replace(existing_id, tx, now)

            if next_nonce is None:
                next_nonce = tx.nonce  # lazy init: first sighting anchors
            elif tx.nonce < next_nonce:
                return self._reject(R_STALE_NONCE)
            if tx.nonce > next_nonce + self.config.max_nonce_gap:
                return self._reject(R_NONCE_GAP)

            priority = effective_priority(tx.fee, tx.size_bytes)
            plan = self.evictor.make_room_for(priority, tx.size_bytes)
            if plan is None:
                return self._reject(R_POOL_FULL)
            self._apply_evictions(plan, now)

            self._next_nonce.setdefault(sender, tx.nonce)
            self._insert(tx, priority, now, head=tx.nonce == next_nonce)
            self.counters[ACCEPTED] += 1
            return AdmissionResult(True, ACCEPTED)
        finally:
            if profiler is not None:
                profiler.exit()

    def _replace(self, old_id: int, tx: Transaction,
                 now: float) -> AdmissionResult:
        """Replace-by-fee path for a pooled ``(sender, nonce)`` slot."""
        old = self._entries[old_id].tx
        if not self.fee_market.replacement_ok(old, tx):
            return self._reject(R_REPLACE_UNDERPRICED)
        priority = effective_priority(tx.fee, tx.size_bytes)
        # Size the room check without the entry being displaced.
        old_info = self._index.info(old_id)
        self._index.remove(old_id)
        plan = self.evictor.make_room_for(priority, tx.size_bytes)
        if plan is None:
            old_priority, old_seq, old_bytes = old_info
            self._index.add(old_id, old_priority, old_seq, old_bytes)
            return self._reject(R_POOL_FULL)
        self._apply_evictions(plan, now)
        self._remove_entry(old_id)
        head = tx.nonce == self._next_nonce.get(tx.sender.raw)
        self._insert(tx, priority, now, head=head)
        self.counters[REPLACED] += 1
        return AdmissionResult(True, REPLACED, replaced_txid=old.txid)

    # -- drain ---------------------------------------------------------

    def drain(self, now: float,
              limit: Optional[int] = None) -> List[Transaction]:
        """Age-expire, then pop the next commitment batch.

        Returns up to ``limit`` (default: the configured batch size)
        transactions in price-and-nonce order: globally by descending
        effective priority, per sender strictly by ascending nonce --
        when a sender's head drains, their next contiguous nonce joins
        the candidate heap with its own priority.
        """
        self.limiter.prune(now)
        for sketch_id in self.evictor.expire_aged(now):
            self._remove_entry(sketch_id)
            self.counters[E_AGE] += 1

        batch: List[Transaction] = []
        budget = self.config.drain_batch_size if limit is None else limit
        while len(batch) < budget:
            sketch_id = self._drain.pop_best()
            if sketch_id is None:
                break
            entry = self._remove_entry(sketch_id)
            self._index.remove(sketch_id)
            sender = entry.tx.sender.raw
            self._next_nonce[sender] = entry.tx.nonce + 1
            successor = self._queues.get(sender, {}).get(entry.tx.nonce + 1)
            if successor is not None:
                succ = self._entries[successor]
                self._drain.push_ready(successor, succ.priority, succ.seq)
            batch.append(entry.tx)
        self.counters["drained"] += len(batch)
        return batch
