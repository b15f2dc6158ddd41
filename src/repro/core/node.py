"""The LO node: Alg. 1, accountability, block building and inspection.

Wire protocol (message types on the simulated network):

==================  =======================================================
``lo/sync_req``     :class:`~repro.core.reconciliation.SyncRequest`
``lo/sync_resp``    :class:`~repro.core.reconciliation.SyncResponse`
``lo/content_req``  :class:`~repro.core.reconciliation.ContentRequest`
``lo/content_resp`` :class:`~repro.core.reconciliation.ContentResponse`
                    (transaction payload; excluded from overhead accounting)
``lo/suspicion``    :class:`~repro.core.accountability.SuspicionBlame`
``lo/exposure``     :class:`~repro.core.accountability.ExposureBlame`
``lo/commit_upd``   :class:`~repro.core.commitment.CommitmentHeader` relay
``lo/block``        :class:`~repro.core.reconciliation.BlockAnnounce`
``lo/block_req``    missing-ancestor fetch (rejoin catch-up), height int
``lo/client_submit``:class:`~repro.mempool.Transaction` from a light client
``lo/submit_ack``   :class:`~repro.core.client.SubmitAck` back to the client
``lo/status_query`` (client_id, sketch_id) status probe
``lo/status_reply`` :class:`~repro.core.client.StatusReply`
==================  =======================================================
"""

from __future__ import annotations

import itertools
import random
from typing import (
    Any, Callable, Container, Dict, List, Optional, Sequence, Tuple,
)

from repro import obs
from repro.bloomclock import BloomClock
from repro.chain.block import Block, sign_block
from repro.chain.ledger import Ledger
from repro.core.accountability import (
    AccountabilityState,
    BlockViolationEvidence,
    ExposureBlame,
    SuspicionBlame,
)
from repro.core.blockbuilder import BlockBuilder
from repro.core.commitment import (
    BundleInfo,
    CommitmentHeader,
    GENESIS_DIGEST,
    bundle_digest,
    chain_digest,
    sign_header,
)
from repro.core.config import LOConfig
from repro.core.inspection import BlockInspector, InspectionResult, Violation
from repro.core.policies import ViolationKind
from repro.core.reconciliation import (
    BlockAnnounce,
    ContentRequest,
    ContentResponse,
    SplitSpec,
    SyncRequest,
    SyncResponse,
    adaptive_capacity,
    decode_difference,
    full_range_spec,
    ids_for_spec,
    sketch_for_spec,
)
from repro.core.wire import PeerQuarantine, validate_payload
from repro.crypto.keys import KeyPair, PublicKey
from repro.empty import EMPTY_MAP
from repro.mempool.admission import Mempool
from repro.mempool.transaction import Transaction, make_transaction, prevalidate
from repro.mempool.txlog import TransactionLog
from repro.obs.trackers import EventCounter, LatencyTracker
from repro.net.message import ENVELOPE_BYTES, Message
from repro.net.network import Endpoint, Network
from repro.sim.loop import EventLoop, Timer
from repro.sketch import CandidateRegistry
from repro.sketch.registry import MAX_CANDIDATES


class Directory:
    """What every node of one simulation shares: the PKI and committed ids.

    ``register`` / ``key_of`` / ``id_of`` are the node-id <-> public-key
    mapping (the PKI assumption).  ``committed`` is the simulation's
    registry of sketch ids (a :class:`~repro.sketch.CandidateRegistry`):
    every id some node committed (:meth:`LONode._commit_bundle` is the
    only way into a log), once, in first-commit order, capped at the newest
    :data:`~repro.sketch.registry.MAX_CANDIDATES`.  A responder hands it,
    uncopied, to the decoder as candidates: every id a correct sketch
    carries was committed by some node of this simulation, so the decoder
    finds the difference by one GF(2) elimination over these ids' syndrome
    vectors instead of Berlekamp--Massey and a root search in GF(2^32) --
    the simulator's stand-in for libminisketch's decoder, as the simulated
    signatures' ``verify()`` is for Ed25519 (DESIGN.md section 3).  The
    registry keeps one echelon basis per sketch capacity for that, which
    an id joins at the first decode after its commit.  Candidates never
    change a decode's result, only its cost.  ``request_ids`` numbers the
    simulation's sync and content requests.  One ``Directory`` is built per
    simulation, so two simulations never share the registry or the ids.
    """

    def __init__(self) -> None:
        self._by_id: Dict[int, PublicKey] = {}
        self._by_key: Dict[PublicKey, int] = {}
        self.committed = CandidateRegistry(limit=MAX_CANDIDATES)
        self.request_ids = itertools.count()

    def register(self, node_id: int, key: PublicKey) -> None:
        """Record one node's identity."""
        self._by_id[node_id] = key
        self._by_key[key] = node_id

    def key_of(self, node_id: int) -> PublicKey:
        """The public key registered for ``node_id`` (KeyError if unknown)."""
        return self._by_id[node_id]

    def id_of(self, key: PublicKey) -> int:
        """The node id registered for ``key`` (KeyError if unknown)."""
        return self._by_key[key]


class _Session:
    """Requester-side state for one outstanding sync request."""

    __slots__ = ("peer", "spec", "capacity", "depth", "pushed_counts",
                 "timer", "acct_id", "span")

    def __init__(self, peer: int, spec: SplitSpec, capacity: int, depth: int,
                 pushed_counts: Dict[int, int], timer: Timer, acct_id: int,
                 span=None):
        self.peer = peer
        self.spec = spec
        self.capacity = capacity
        self.depth = depth
        self.pushed_counts = pushed_counts  # cell -> own item count in spec
        self.timer = timer
        self.acct_id = acct_id
        self.span = span  # open "reconcile.round" trace span, if tracing


class LONode(Endpoint):
    """One miner running the LO accountable base layer.

    Every attribute ``__init__`` sets is a slot: with more than CPython's
    30 shared keys each node would own a full instance dict.  ``Endpoint``
    has no slots, so an attribute set outside them (an instance-method
    hook, ``adversary``) still lands in a ``__dict__``, made only for the
    nodes that use one.
    """

    __slots__ = (
        "node_id", "loop", "network", "config", "directory", "neighbors",
        "rng", "keypair", "_raw_key", "log", "bundles", "_digest_chain",
        "_headers_by_seq", "_header_dirty", "_cached_header", "acct",
        "ledger", "builder", "inspector", "_sessions", "_content_timers",
        "_pending_blocks", "_announces_by_height", "_pending_inspections",
        "_seen_blocks", "_seen_suspicions", "_relayed_updates",
        "_sync_event", "_sketch_cache", "_eligible_memo", "_nonce",
        "quarantine", "restarts", "mempool", "mempool_tracker",
        "block_tracker", "counter", "on_block_created", "block_policy",
        "inspection_enabled",
    )

    #: The attack policy running this node, if any: a
    #: :class:`repro.attacks.Adversary`, consulted at five seams
    #: (docs/attacks.md).  Honest nodes leave it ``None``.
    adversary = None

    def __init__(
        self,
        node_id: int,
        loop: EventLoop,
        network: Network,
        config: LOConfig,
        directory: Directory,
        neighbors: Tuple[int, ...],
        rng: random.Random,
        mempool_tracker: Optional[LatencyTracker] = None,
        block_tracker: Optional[LatencyTracker] = None,
        counter: Optional[EventCounter] = None,
    ):
        self.node_id = node_id
        self.loop = loop
        self.network = network
        self.config = config
        self.directory = directory
        # A sorted tuple, the one live copy of this node's overlay edges:
        # ``sim.topology`` reads it, and the shuffler and enforcement's
        # eviction rebind it rather than mutate it.
        self.neighbors = neighbors
        self.rng = rng
        self.keypair = KeyPair.generate(seed=f"lo-node-{node_id}".encode())
        self._raw_key = self.keypair.public_key.raw
        directory.register(node_id, self.keypair.public_key)

        self.log = TransactionLog(
            clock_cells=config.clock_cells,
            sketch_capacity=config.sketch_capacity,
            sketch_bits=config.sketch_bits,
        )
        # Every list and map below starts as the shared empty (``()`` or
        # EMPTY_MAP) and is made by its first write (repro.empty): at paper
        # scale most nodes never write most of them.
        self.bundles: Sequence[BundleInfo] = ()
        self._digest_chain: Sequence[bytes] = ()
        self._headers_by_seq: Dict[int, CommitmentHeader] = EMPTY_MAP
        self._header_dirty = True
        self._cached_header: Optional[CommitmentHeader] = None

        self.acct = AccountabilityState(self.keypair.public_key, self.log)
        self.ledger = Ledger()
        self.builder = BlockBuilder(self.keypair, config)
        self.inspector = BlockInspector(config)

        self._sessions: Dict[int, _Session] = EMPTY_MAP
        self._content_timers: Dict[int, Timer] = EMPTY_MAP
        self._pending_blocks: Dict[int, BlockAnnounce] = EMPTY_MAP
        self._announces_by_height: Dict[int, BlockAnnounce] = EMPTY_MAP
        self._pending_inspections: Sequence[BlockAnnounce] = ()
        # Dicts used as sets (values unused).
        self._seen_blocks: Dict[bytes, None] = EMPTY_MAP
        self._seen_suspicions: Dict[Tuple, None] = EMPTY_MAP
        self._relayed_updates: Dict[Tuple, None] = EMPTY_MAP
        self._sync_event: Optional[Timer] = None
        # Per-tick reconciliation cache, live only inside one _sync_tick
        # callback: (spec, capacity) -> (sketch, own counts, wire size).
        self._sketch_cache: Optional[Dict[Tuple, Tuple]] = None
        # (neighbours, exposed count, eligible) of the last filtered,
        # quarantine-free _eligible_neighbors() computation.
        self._eligible_memo: Optional[Tuple[Tuple[int, ...], int,
                                            Sequence[int]]] = None
        self._nonce = 0
        self.quarantine = PeerQuarantine(
            threshold=config.quarantine_threshold,
            base_s=config.quarantine_base_s,
            max_s=config.quarantine_max_s,
        )
        self.restarts = 0
        # Client-edge admission pipeline (None keeps commit-on-receipt).
        self.mempool: Optional[Mempool] = (
            Mempool(config.admission) if config.admission is not None else None
        )

        self.mempool_tracker = mempool_tracker
        self.block_tracker = block_tracker
        self.counter = counter
        self.on_block_created: Optional[Callable[[Block], None]] = None
        # "fifo" (LO's canonical policy) or "highest_fee" (the Fig. 8
        # baseline); highest-fee blocks are not canonical and are only used
        # with inspection-free latency experiments.
        self.block_policy = "fifo"
        # Fig. 8's policy-comparison runs disable inspection so that the
        # deliberately non-canonical baseline blocks do not flood the
        # network with (correct) exposures mid-measurement.
        self.inspection_enabled = True

        network.register(self)

    # ------------------------------------------------------------ properties

    @property
    def public_key(self) -> PublicKey:
        """This node's long-term identity key."""
        return self.keypair.public_key

    @property
    def seq(self) -> int:
        """Current commitment sequence number (bundle count)."""
        return len(self.bundles)

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self.loop.now

    def header(self) -> CommitmentHeader:
        """The node's current signed commitment header (cached)."""
        if self._header_dirty or self._cached_header is None:
            self._cached_header = sign_header(
                self.keypair,
                seq=self.seq,
                tx_count=len(self.log),
                digests=self._digest_chain,
                clock=self.log.clock,
            )
            if self._headers_by_seq is EMPTY_MAP:
                self._headers_by_seq = {}
            self._headers_by_seq[self.seq] = self._cached_header
            self._header_dirty = False
        return self._cached_header

    def _header_for(self, peer: int, msg_type: str) -> CommitmentHeader:
        """The header this node shows ``peer`` in a ``msg_type`` message."""
        if self.adversary is None:
            return self.header()
        return self.adversary.header_for(peer, msg_type)

    def header_at(self, seq: int) -> Optional[CommitmentHeader]:
        """Previously signed header at an exact seq, if retained."""
        if seq == self.seq:
            return self.header()
        return self._headers_by_seq.get(seq)

    # ---------------------------------------------------------------- control

    def start(self) -> None:
        """Begin the periodic NeighborsSync with a random phase."""
        phase = self.rng.uniform(0, self.config.sync_interval_s)
        self._sync_event = self.loop.call_later(phase, self._sync_tick)

    def stop(self) -> None:
        """Stop periodic syncing."""
        if self._sync_event is not None:
            self.loop.cancel(self._sync_event)
            self._sync_event = None

    def restart(self) -> None:
        """Rebuild volatile session state after a crash and rejoin.

        Models a process restart: the durable state (commitment log, chain,
        accountability stores) survives, but every in-flight request,
        timer and half-open session is gone.  Outstanding accountability
        requests are abandoned so that the fresh sessions opened by the
        next sync tick drive reconvergence instead of stale timeouts.
        """
        self.stop()
        _t = obs.TRACER
        for session in self._sessions.values():
            self.loop.cancel(session.timer)
            if _t.enabled:
                _t.end_span(session.span, self.now, outcome="restart")
        for timer in self._content_timers.values():
            self.loop.cancel(timer)
        # Forget rather than clear: a map never written is the shared
        # empty, which has no clear().
        self._sessions = EMPTY_MAP
        self._content_timers = EMPTY_MAP
        self.acct.pending = EMPTY_MAP
        self.restarts += 1
        self.start()

    # ----------------------------------------------------- transaction entry

    def create_transaction(
        self, fee: int, size_bytes: int = 250, payload: bytes = b""
    ) -> Transaction:
        """Create, sign and commit a new local transaction (stage I)."""
        self._nonce += 1
        tx = make_transaction(
            self.keypair, self._nonce, fee, self.now, size_bytes, payload
        )
        self.receive_client_transaction(tx)
        return tx

    def receive_client_transaction(self, tx: Transaction,
                                   peer=None) -> bool:
        """Accept a client-submitted transaction at the ingress edge.

        Without an admission config this prevalidates and commits on
        receipt (the original stage-I behaviour).  With admission
        enabled the transaction instead runs the full pipeline --
        rate limit, fee floor, nonce FIFO, watermarks -- and, if
        admitted, waits in the pending pool until a sync tick drains
        it into a commitment bundle.  ``peer`` is the opaque ingress
        identity the rate limiter meters (``None`` skips metering,
        e.g. for the node's own transactions).

        Returns False when the transaction was rejected (it is then
        neither stored nor committed).
        """
        adversary = self.adversary
        if adversary is not None and adversary.intercepts_client_tx(tx):
            return True
        if self.mempool is not None:
            result = self.mempool.admit(tx, self.now, peer=peer)
            if not result.accepted:
                if self.counter is not None:
                    self.counter.increment("admission_rejects",
                                           node=self.node_id)
                return False
            return True
        if not prevalidate(tx):
            return False
        if tx.sketch_id in self.log:
            return False
        self._commit_bundle([tx.sketch_id], source_peer=None)
        self.log.add_content(tx, valid=True)
        if self.mempool_tracker is not None:
            self.mempool_tracker.record_created(tx.sketch_id, self.now)
            self.mempool_tracker.record_seen(tx.sketch_id, self.node_id, self.now)
        if self.block_tracker is not None:
            self.block_tracker.record_created(tx.sketch_id, self.now)
        return True

    def _drain_mempool(self) -> None:
        """Commit one drain batch from the admission pool (sync tick)."""
        assert self.mempool is not None
        batch = self.mempool.drain(self.now)
        if not batch:
            return
        self._commit_bundle([tx.sketch_id for tx in batch], source_peer=None)
        for tx in batch:
            if tx.sketch_id in self.log:
                self.log.add_content(tx, valid=True)
                # Trackers register at drain time, not admit time: a
                # transaction enters the protocol when it is committed,
                # so RBF-replaced or evicted entries never count as
                # "created" for convergence/latency purposes.
                if self.mempool_tracker is not None:
                    self.mempool_tracker.record_created(tx.sketch_id, self.now)
                    self.mempool_tracker.record_seen(
                        tx.sketch_id, self.node_id, self.now
                    )
                if self.block_tracker is not None:
                    self.block_tracker.record_created(tx.sketch_id, self.now)

    def _commit_bundle(
        self, ids: Sequence[int], source_peer: Optional[int]
    ) -> Optional[BundleInfo]:
        """Append a bundle of new ids to the commitment log."""
        adversary = self.adversary
        if adversary is not None:
            ids = adversary.commit_filter(ids, source_peer)
        fresh = self.log.append_many(ids)
        if not fresh:
            return None
        self.directory.committed.add_many(fresh)
        if not self.bundles:
            self.bundles = []
            self._digest_chain = []
        bundle = BundleInfo(
            index=self.seq,
            ids=tuple(fresh),
            source_peer=source_peer,
            committed_at=self.now,
        )
        self.bundles.append(bundle)
        prev = self._digest_chain[-1] if self._digest_chain else GENESIS_DIGEST
        self._digest_chain.append(chain_digest(prev, bundle.digest))
        self._header_dirty = True
        _t = obs.TRACER
        if _t.enabled:
            _t.event("commit.append", t=self.now, node_id=self.node_id,
                     seq=bundle.index, ids=len(bundle.ids),
                     source=source_peer)
        return bundle

    # -------------------------------------------------------- NeighborsSync

    def _sync_tick(self) -> None:
        self._sync_event = self.loop.call_later(
            self.config.sync_interval_s, self._sync_tick
        )
        if self.mempool is not None:
            # Drain admitted transactions into a commitment bundle before
            # reconciling, so this round's sketches already cover them.
            self._drain_mempool()
        peers = self._eligible_neighbors()
        if not peers:
            return
        fanout = min(self.config.sync_fanout, len(peers))
        sampled = self.rng.sample(peers, fanout)
        if not self.log and not self.acct.suspected and not self._pending_blocks:
            # Idle (most ticks at paper scale): every peer is up to date
            # with an empty log, there is no content hole to heal, no
            # suspect to re-probe and no block gap.  The draw above stays,
            # so the rng advances as on any tick.
            return
        # Per-tick reconciliation batching: the log cannot change inside
        # this callback, so peers sharing a (spec, capacity) reuse one
        # sketch build / own-count scan / wire-size computation, and the
        # k sync requests leave as one delay-grouped network fan-out.
        self._sketch_cache = {}
        deferred: List[Tuple[int, str, Any, int, bool]] = []
        try:
            for peer in sampled:
                if self._peer_outdated(peer):
                    self._send_sync_request(peer, spec=None, depth=0,
                                            defer=deferred)
                else:
                    # Alg. 1 line 18: the peer is up to date, drop suspicion.
                    peer_key = self.directory.key_of(peer)
                    if self.acct.is_suspected(peer_key):
                        self.acct.clear_suspicion(peer_key)
            if deferred:
                self.network.send_many(self.node_id, deferred)
            # Heal content holes: ids committed (possibly second-hand) whose
            # bytes never arrived are re-requested from a random neighbour.
            missing = self.log.missing_content()
            if missing:
                self._send_content_request(self.rng.choice(sampled),
                                           missing[:64])
            # Heal chain gaps: keep fetching missing ancestor blocks while
            # any buffered successor is waiting (rejoin catch-up).
            if self._pending_blocks:
                self._request_missing_blocks()
            # Temporal accuracy under lossy networks: the clear-on-response
            # paths above only cover sampled neighbours, so a suspicion
            # adopted about a distant node could outlive the fault that
            # caused it.  Re-probe one suspected node per tick; its response
            # (or a relayed commitment) clears the suspicion once the
            # network heals.
            self._probe_one_suspect()
        finally:
            self._sketch_cache = None

    def _probe_one_suspect(self) -> None:
        suspects: List[int] = []
        for key in self.acct.suspected:
            try:
                peer = self.directory.id_of(key)
            except KeyError:
                continue
            if not self.quarantine.is_quarantined(peer, self.now):
                suspects.append(peer)
        if suspects:
            self._send_sync_request(
                self.rng.choice(sorted(suspects)), spec=None, depth=0
            )

    def _eligible_neighbors(self) -> Sequence[int]:
        """Neighbours that are not exposed or quarantined, sorted.

        Suspected peers are still probed (temporal accuracy); quarantined
        ones are skipped until their backoff window expires.

        The answer is shared: callers must not mutate it.  While nobody
        is exposed and no quarantine episode is open it is the neighbour
        tuple itself.  Otherwise, with no episode open, the filtered list
        is kept while the tuple is the same object (its owners rebind it,
        never mutate it) and the exposed set the same size (it only
        grows).  An open episode ends with the clock: nothing is kept
        while there is one.
        """
        neighbors = self.neighbors
        exposed = self.acct.exposed
        quarantine = self.quarantine
        if not exposed and not quarantine.any_open():
            return neighbors
        memo = self._eligible_memo
        if (
            memo is not None
            and memo[0] is neighbors
            and memo[1] == len(exposed)
            and not quarantine.any_open()
        ):
            return memo[2]
        now = self.now
        key_of = self.directory.key_of
        eligible = [
            peer for peer in neighbors
            if not quarantine.is_quarantined(peer, now)
            and key_of(peer) not in exposed
        ]
        if not quarantine.any_open():
            self._eligible_memo = (neighbors, len(exposed), eligible)
        return eligible

    def _peer_outdated(self, peer: int) -> bool:
        """Alg. 1 line 13: do we hold ids the peer has not committed to?

        Read from the peer's store as a position mask over our log
        (:meth:`CommitmentStore.outdated`): no walk over the log.
        """
        store = self.acct.stores.get(self.directory.key_of(peer))
        if store is None or store.latest is None:
            return len(self.log) > 0
        return store.outdated()

    def _flagged_spec(self, peer: int) -> SplitSpec:
        """Cells that look out of date versus the peer's last known clock."""
        latest = self.acct.latest_header(self.directory.key_of(peer))
        if not self.config.use_clock_prefilter or latest is None:
            return full_range_spec(self.config.clock_cells)
        flagged = self.log.clock.flagged_cells(latest.clock)
        if not flagged:
            # Same counts but our id set may still differ; probe everything.
            return full_range_spec(self.config.clock_cells)
        return SplitSpec(tuple(flagged))

    def _estimate_for(self, peer: int, spec: SplitSpec) -> int:
        latest = self.acct.latest_header(self.directory.key_of(peer))
        if latest is None:
            return len(self.log)
        return max(1, self.log.clock.estimate_difference(latest.clock))

    def _send_sync_request(
        self, peer: int, spec: Optional[SplitSpec], depth: int,
        capacity: Optional[int] = None,
        defer: Optional[List[Tuple[int, str, Any, int, bool]]] = None,
    ) -> None:
        if spec is None:
            spec = self._flagged_spec(peer)
        if capacity is None:
            if self.config.use_clock_prefilter:
                capacity = adaptive_capacity(
                    self._estimate_for(peer, spec), self.config
                )
            else:
                # Without the clock's difference estimate a real
                # implementation must provision the full worst-case sketch
                # every round -- that cost is what the ablation measures.
                capacity = self.config.sketch_capacity
        # Inside one _sync_tick the log is frozen, so peers sharing a
        # (spec, capacity) share one sketch build, own-count scan and
        # wire-size computation.
        cache = self._sketch_cache
        cached = cache.get((spec, capacity)) if cache is not None else None
        if cached is not None:
            sketch, shared_counts, wire_size = cached
            pushed = dict(shared_counts)  # sessions may mutate their copy
        else:
            sketch = sketch_for_spec(self.log, spec, capacity)
            pushed = self._own_counts_for_spec(spec)
            wire_size = None
        request_obj = self.acct.open_request(
            next(self.directory.request_ids), self.directory.key_of(peer),
            "sync", (), self.now, self.config.request_retries,
        )
        timer = self.loop.call_later(
            self.config.request_timeout_s, self._on_sync_timeout,
            request_obj.request_id,
        )
        request = SyncRequest(
            request_id=request_obj.request_id,
            header=self._header_for(peer, "lo/sync_req"),
            spec=spec,
            sketch=sketch,
        )
        if wire_size is None:
            wire_size = request.wire_size()
            if cache is not None:
                cache[(spec, capacity)] = (sketch, dict(pushed), wire_size)
        _t = obs.TRACER
        span = None
        if _t.enabled:
            # One span per Alg. 1 round: opened at sync_req, closed when the
            # response settles (ok / split / timeout / abort).
            span = _t.begin_span(
                "reconcile.round", self.now, node_id=self.node_id,
                peer=peer, cells=len(spec.cells), bit_level=spec.bit_level,
                capacity=capacity, depth=depth, retries=0,
            )
        if self._sessions is EMPTY_MAP:
            self._sessions = {}
        self._sessions[request_obj.request_id] = _Session(
            peer, spec, capacity, depth, pushed, timer,
            request_obj.request_id, span,
        )
        if defer is not None:
            defer.append((peer, "lo/sync_req", request,
                          wire_size + ENVELOPE_BYTES, True))
        else:
            self._send(peer, "lo/sync_req", request, wire_size)

    def _own_counts_for_spec(self, spec: SplitSpec) -> Dict[int, int]:
        """Per-cell count of our own items inside a spec (coverage check).

        At bit level 0 only cells holding ids are listed: a zero count is
        covered by any clock, so :meth:`_response_covers` needs no entry.
        """
        if spec.bit_level == 0:
            # matches() is vacuously true at bit level 0: the count is just
            # the cell population, no item scan needed.
            return self.log.cell_counts(spec.cells)
        counts: Dict[int, int] = {}
        for cell in spec.cells:
            items = self.log.items_in_cells((cell,))
            counts[cell] = sum(1 for i in items if spec.matches(i))
        return counts

    # --------------------------------------------------------- msg dispatch

    def on_message(self, message: Message) -> None:
        """Byzantine-hardened ingress: validate, contain, attribute.

        A malformed or type-confused payload must never crash the node
        (section 3.1 lets faulty nodes send arbitrary messages): the
        payload is schema-checked against its message type before the
        handler runs, the handler itself is exception-contained, and every
        violation is counted against the (authenticated) sender.  Repeated
        garbage quarantines the peer with exponential backoff.  An
        adversary's inbound filter sees the message before all of that.
        """
        adversary = self.adversary
        if adversary is not None and adversary.intercepts(message):
            return
        quarantine = self.quarantine
        if quarantine.any_open() and quarantine.is_quarantined(
            message.sender, self.loop.now
        ):
            if self.counter is not None:
                self.counter.increment("quarantine_drops", node=self.node_id)
            return
        msg_type = message.msg_type
        handler = self._HANDLERS.get(msg_type)
        if handler is None:
            self._record_wire_violation(
                message, f"unknown message type {msg_type!r}"
            )
            return
        error = validate_payload(msg_type, message.payload)
        if error is not None:
            self._record_wire_violation(message, error)
            return
        try:
            handler(self, message)
        except Exception as exc:
            # Containment: a payload that passed the shallow schema check
            # can still break a handler's deeper assumptions.  The node
            # must survive; the failure is attributed like any violation.
            self._record_wire_violation(
                message, f"handler error: {type(exc).__name__}: {exc}"
            )

    # ------------------------------------------------- ingress hardening

    def _peer_id_of(self, key: PublicKey) -> Optional[int]:
        """Directory lookup that tolerates unregistered keys (clients)."""
        try:
            return self.directory.id_of(key)
        except KeyError:
            return None

    def _record_wire_violation(self, message: Message, reason: str) -> None:
        """Count, attribute and react to one malformed inbound message."""
        sender = message.sender
        if self.counter is not None:
            self.counter.increment("wire_violations", node=self.node_id)
        _t = obs.TRACER
        if _t.enabled:
            _t.event("wire.violation", t=self.now, node_id=self.node_id,
                     sender=sender, msg_type=message.msg_type,
                     reason=reason[:120])
        self._salvage_evidence(message.payload)
        newly_quarantined = self.quarantine.record_violation(sender, self.now)
        if not newly_quarantined:
            return
        if self.counter is not None:
            self.counter.increment("peers_quarantined", node=self.node_id)
        if _t.enabled:
            _t.event("wire.quarantine", t=self.now, node_id=self.node_id,
                     peer=sender)
        try:
            self.directory.key_of(sender)
        except KeyError:
            return  # not a registered miner (e.g. a light client); local only
        self._raise_suspicion(sender, "wire", ())

    def _salvage_evidence(self, payload) -> None:
        """Harvest signed headers out of an otherwise-malformed payload.

        A malformed message can still carry validly-signed commitment
        headers; those are attributable regardless of the envelope, so
        observing them may yield transferable equivocation evidence (the
        "signed-but-malformed message becomes evidence" path).
        """
        from repro.core.commitment import CommitmentHeader

        candidates = []
        if isinstance(payload, CommitmentHeader):
            candidates.append(payload)
        else:
            for attr in ("header", "last_known"):
                value = getattr(payload, attr, None)
                if isinstance(value, CommitmentHeader):
                    candidates.append(value)
        for header in candidates:
            try:
                self._observe_remote_header(header)
            except Exception:
                continue  # hostile header internals; nothing salvageable

    def _send(
        self, peer: int, msg_type: str, payload, body_bytes: int,
        is_overhead: bool = True,
    ) -> None:
        self.network.send(
            self.node_id, peer, msg_type, payload,
            wire_bytes=body_bytes + ENVELOPE_BYTES, is_overhead=is_overhead,
        )

    def _send_fanout(
        self, peers: Sequence[int], msg_type: str, payload, body_bytes: int,
        is_overhead: bool = True,
    ) -> None:
        """One shared payload to many peers (metered once)."""
        if not peers:
            return
        self.network.send_fanout(
            self.node_id, peers, msg_type, payload,
            wire_bytes=body_bytes + ENVELOPE_BYTES, is_overhead=is_overhead,
        )

    # --------------------------------------------------- stage I: clients

    def _handle_client_submit(self, message: Message) -> None:
        """A light client shared a transaction (stage I steps 1-3)."""
        from repro.core.client import SubmitAck

        tx: Transaction = message.payload
        accepted = self.receive_client_transaction(tx, peer=message.sender)
        if not accepted and tx.sketch_id in self.log:
            accepted = True  # duplicate submission of a known tx is fine
        unsigned = SubmitAck(
            miner=self.public_key, txid=tx.txid, accepted=accepted,
            at_time=self.now,
        )
        ack = SubmitAck(
            miner=self.public_key, txid=tx.txid, accepted=accepted,
            at_time=unsigned.at_time,
            signature=self.keypair.sign(unsigned.signing_bytes()),
        )
        self._send(message.sender, "lo/submit_ack", ack, ack.wire_size())

    def _handle_status_query(self, message: Message) -> None:
        """A client asked for a transaction's status at this miner."""
        from repro.core.client import StatusReply

        client_id, sketch_id = message.payload
        if self.ledger.is_settled(sketch_id):
            status = "settled"
        elif sketch_id not in self.log:
            status = "unknown"
        elif self.log.content_of(sketch_id) is not None:
            status = "content-held"
        else:
            status = "committed"
        reply = StatusReply(
            miner=self.public_key, sketch_id=sketch_id, status=status,
            at_time=self.now,
        )
        self._send(client_id, "lo/status_reply", reply, reply.wire_size())

    # ------------------------------------------------- responder: sync_req

    def _foreign_clock(self, message: Message) -> bool:
        """Count a header clock whose width differs from ours as a violation.

        The schema cannot know the receiver's width; a clock of another
        width cannot be compared cell by cell, so a sync message carrying
        one is refused before any handler work.
        """
        cells = message.payload.header.clock.cells
        if cells == self.log.clock.cells:
            return False
        self._record_wire_violation(
            message, f"header.clock: {cells} cells, expected "
            f"{self.log.clock.cells}"
        )
        return True

    def _handle_sync_request(self, message: Message) -> None:
        if self._foreign_clock(message):
            return
        request: SyncRequest = message.payload
        sender = message.sender
        self._observe_remote_header(request.header)
        if self.acct.is_exposed(request.header.signer):
            return
        capacity = request.sketch.capacity
        # Cheap overload pre-check: the Bloom-Clock gap is a lower bound on
        # the true difference, so a gap beyond the sketch capacity makes the
        # decode certain to fail -- skip straight to the split reply.
        cell_gap = self._cell_gap(request.spec, request.header.clock)
        if (
            self.config.use_clock_prefilter
            and request.spec.bit_level == 0
            and cell_gap > capacity
        ):
            _t = obs.TRACER
            if _t.enabled:
                _t.event("reconcile.decode", t=self.now, node_id=self.node_id,
                         requester=sender, capacity=capacity,
                         cells=len(request.spec.cells), outcome="overload",
                         cell_gap=cell_gap)
            response = SyncResponse(
                request_id=request.request_id,
                header=self._header_for(sender, "lo/sync_resp"),
                status="split",
                split_specs=request.spec.split(),
            )
            self._send(sender, "lo/sync_resp", response, response.wire_size())
            return
        local = sketch_for_spec(self.log, request.spec, capacity)
        # Our own slice of the log, taken before the commit below: the
        # store records it once the round is done.
        held = self._slice_mask(request.spec)
        if self.counter is not None:
            self.counter.increment("reconciliations", node=self.node_id)
        # The decoder eliminates over the simulation's committed ids before
        # it searches; a correct requester's sketch carries nothing else.
        diff = decode_difference(local, request.sketch,
                                 self.directory.committed)
        _t = obs.TRACER
        if diff is None:
            if self.counter is not None:
                self.counter.increment("reconciliation_failures", node=self.node_id)
            if _t.enabled:
                _t.event("reconcile.decode", t=self.now, node_id=self.node_id,
                         requester=sender, capacity=capacity,
                         cells=len(request.spec.cells), outcome="fail")
            response = SyncResponse(
                request_id=request.request_id,
                header=self._header_for(sender, "lo/sync_resp"),
                status="split",
                split_specs=request.spec.split(),
            )
            self._send(sender, "lo/sync_resp", response, response.wire_size())
            return
        new_ids = sorted(i for i in diff if i not in self.log)
        offered = tuple(sorted(i for i in diff if i in self.log))
        if _t.enabled:
            _t.event("reconcile.decode", t=self.now, node_id=self.node_id,
                     requester=sender, capacity=capacity,
                     cells=len(request.spec.cells), outcome="ok",
                     diff=len(diff), new=len(new_ids), offered=len(offered))
        if new_ids:
            # Alg. 1 lines 21-23: commit to every previously unknown id, in
            # a fresh bundle ordered after everything already committed.
            self._commit_bundle(new_ids, source_peer=sender)
            if self.mempool_tracker is not None:
                for sketch_id in new_ids:
                    self.mempool_tracker.record_seen(
                        sketch_id, self.node_id, self.now
                    )
        response = SyncResponse(
            request_id=request.request_id,
            header=self._header_for(sender, "lo/sync_resp"),
            status="ok",
            requested_ids=tuple(new_ids),
            offered_ids=offered,
        )
        # After a successful round both parties hold the union over the
        # spec: what we held before the round, plus the difference.
        store = self.acct.store_for(request.header.signer)
        store.record_mask(held)
        store.record_ids(diff)
        self._send(sender, "lo/sync_resp", response, response.wire_size())

    def _slice_mask(self, spec: SplitSpec) -> int:
        """Our ids inside ``spec`` as a position mask over our log.

        At bit level 0 this is one OR per cell (or, for a full range, every
        position); only a bit-refined spec walks its items.
        """
        if spec.bit_level == 0:
            return self.log.mask_for_cells(spec.cells)
        return self.log.mask_of(ids_for_spec(self.log, spec))

    def _cell_gap(self, spec: SplitSpec, clock: BloomClock) -> int:
        """Sum of counter differences to ``clock`` over the spec's cells."""
        own = self.log.clock
        if self.log.spans_every_cell(spec.cells):
            return own.estimate_difference(clock)
        ours, theirs = own.counters, clock.counters
        return sum(abs(ours[c] - theirs[c]) for c in spec.cells)

    # ------------------------------------------------- requester: sync_resp

    def _handle_sync_response(self, message: Message) -> None:
        if self._foreign_clock(message):
            return
        response: SyncResponse = message.payload
        session = self._sessions.get(response.request_id)
        if session is None:
            return
        self.loop.cancel(session.timer)
        self._observe_remote_header(response.header)
        peer_key = self.directory.key_of(session.peer)
        _t = obs.TRACER
        if self.acct.is_exposed(peer_key):
            self._sessions.pop(response.request_id, None)
            self.acct.close_request(session.acct_id)
            if _t.enabled:
                _t.end_span(session.span, self.now, outcome="peer_exposed")
            return
        if response.status == "split":
            self._sessions.pop(response.request_id, None)
            self.acct.close_request(session.acct_id)
            if _t.enabled:
                _t.end_span(session.span, self.now, outcome="split",
                            subspecs=len(response.split_specs))
            if session.depth >= self.config.partition_max_depth:
                return
            for sub_spec in response.split_specs:
                self._send_sync_request(
                    session.peer, sub_spec, session.depth + 1, session.capacity
                )
            return
        # Coverage check: the responder's new clock must account for at
        # least our own items in every flagged cell, otherwise it silently
        # dropped transactions -- treat as an unanswered request: keep the
        # session alive and let the timeout/retry/suspect machinery run.
        if not self._response_covers(session, response.header.clock):
            self._on_sync_timeout(session.acct_id)
            return
        self._sessions.pop(response.request_id, None)
        self.acct.close_request(session.acct_id)
        if self.acct.clear_suspicion(peer_key):
            pass  # responded: no longer suspected (temporal accuracy)
        # Commit to what the responder offered (ids we lacked).
        fresh = sorted(i for i in response.offered_ids if i not in self.log)
        if _t.enabled:
            _t.end_span(session.span, self.now, outcome="ok",
                        offered=len(response.offered_ids),
                        requested=len(response.requested_ids),
                        committed=len(fresh))
        if fresh:
            self._commit_bundle(fresh, source_peer=session.peer)
            if self.mempool_tracker is not None:
                for sketch_id in fresh:
                    self.mempool_tracker.record_seen(
                        sketch_id, self.node_id, self.now
                    )
        store = self.acct.store_for(peer_key)
        store.record_mask(self._slice_mask(session.spec))
        store.record_ids(response.offered_ids)
        # Ship content the responder asked for; ask for content we lack.
        self._send_content(session.peer, response.requested_ids)
        missing = [
            i for i in response.offered_ids if self.log.content_of(i) is None
        ]
        if missing:
            self._send_content_request(session.peer, missing)

    def _response_covers(self, session: _Session, clock: BloomClock) -> bool:
        for cell, own_count in session.pushed_counts.items():
            if clock.counters[cell] < own_count:
                return False
        return True

    # ------------------------------------------------------------- content

    def _send_content(self, peer: int, ids: Sequence[int]) -> None:
        txs = tuple(
            tx for tx in (self.log.content_of(i) for i in ids) if tx is not None
        )
        if not txs:
            return
        response = ContentResponse(request_id=-1, txs=txs)
        self._send(
            peer, "lo/content_resp", response, response.wire_size(),
            is_overhead=False,
        )

    def _send_content_request(self, peer: int, ids: Sequence[int]) -> None:
        request_obj = self.acct.open_request(
            next(self.directory.request_ids), self.directory.key_of(peer),
            "content", tuple(ids), self.now, self.config.request_retries,
        )
        request = ContentRequest(request_id=request_obj.request_id, ids=tuple(ids))
        timer = self.loop.call_later(
            self.config.request_timeout_s, self._on_content_timeout,
            request_obj.request_id, peer, tuple(ids),
        )
        if self._content_timers is EMPTY_MAP:
            self._content_timers = {}
        self._content_timers[request_obj.request_id] = timer
        _t = obs.TRACER
        if _t.enabled:
            _t.event("content.request", t=self.now, node_id=self.node_id,
                     peer=peer, ids=len(ids))
        self._send(peer, "lo/content_req", request, request.wire_size())

    def _handle_content_request(self, message: Message) -> None:
        request: ContentRequest = message.payload
        txs = tuple(
            tx
            for tx in (self.log.content_of(i) for i in request.ids)
            if tx is not None
        )
        response = ContentResponse(request_id=request.request_id, txs=txs)
        self._send(
            message.sender, "lo/content_resp", response, response.wire_size(),
            is_overhead=False,
        )

    def _handle_content_response(self, message: Message) -> None:
        response: ContentResponse = message.payload
        if response.request_id >= 0:
            timers = self._content_timers
            timer = timers.pop(response.request_id, None) if timers else None
            if timer is not None:
                self.loop.cancel(timer)
            self.acct.close_request(response.request_id)
            sender_key = self.directory.key_of(message.sender)
            self.acct.clear_suspicion(sender_key)
        _t = obs.TRACER
        if _t.enabled:
            _t.event("content.recv", t=self.now, node_id=self.node_id,
                     peer=message.sender, txs=len(response.txs))
        for tx in response.txs:
            self._ingest_content(tx)
        if self._pending_inspections:
            self._retry_pending_inspections()

    def _ingest_content(self, tx: Transaction) -> None:
        if tx.sketch_id not in self.log:
            # Content for an uncommitted id: commit then store (the sender
            # vouches for it; it will appear in our next commitments).
            self._commit_bundle([tx.sketch_id], source_peer=None)
        if tx.sketch_id not in self.log:
            return  # an adversary's commit filter refused it
        if self.log.content_of(tx.sketch_id) is not None:
            return
        valid = prevalidate(tx)
        self.log.add_content(tx, valid=valid)

    # ------------------------------------------------------------ timeouts

    def _on_sync_timeout(self, request_id: int) -> None:
        session = self._sessions.get(request_id)
        action = self.acct.on_timeout(request_id, self.now)
        _t = obs.TRACER
        if action is None:
            if session is not None:
                self._sessions.pop(request_id, None)
                if _t.enabled:
                    _t.end_span(session.span, self.now, outcome="stale")
            return
        if action == "resend" and session is not None:
            if _t.enabled and session.span is not None:
                session.span.attrs["retries"] += 1
            sketch = sketch_for_spec(self.log, session.spec, session.capacity)
            request = SyncRequest(
                request_id=request_id,
                header=self._header_for(session.peer, "lo/sync_req"),
                spec=session.spec,
                sketch=sketch,
                is_retry=True,
            )
            session.timer = self.loop.call_later(
                self.config.request_timeout_s, self._on_sync_timeout, request_id
            )
            self._send(session.peer, "lo/sync_req", request, request.wire_size())
            return
        if action == "suspect" and session is not None:
            self._sessions.pop(request_id, None)
            if _t.enabled:
                _t.end_span(session.span, self.now, outcome="timeout")
            self._raise_suspicion(session.peer, "sync", ())

    def _on_content_timeout(
        self, request_id: int, peer: int, ids: Tuple[int, ...]
    ) -> None:
        action = self.acct.on_timeout(request_id, self.now)
        if action is None:
            if self._content_timers:
                self._content_timers.pop(request_id, None)
            return
        if action == "resend":
            request = ContentRequest(request_id=request_id, ids=ids)
            self._content_timers[request_id] = self.loop.call_later(
                self.config.request_timeout_s, self._on_content_timeout,
                request_id, peer, ids,
            )
            self._send(peer, "lo/content_req", request, request.wire_size())
            return
        if action == "suspect":
            self._content_timers.pop(request_id, None)
            self._raise_suspicion(peer, "content", ids)

    # -------------------------------------------------------------- blaming

    def _raise_suspicion(self, peer: int, kind: str, detail: Tuple[int, ...]) -> None:
        peer_key = self.directory.key_of(peer)
        if self.acct.is_exposed(peer_key):
            return
        if self.counter is not None and not self.acct.is_suspected(peer_key):
            self.counter.increment("suspicions_raised", node=self.node_id)
        _t = obs.TRACER
        if _t.enabled:
            _t.event("acct.suspicion", t=self.now, node_id=self.node_id,
                     accused=peer, accused_key=peer_key.raw.hex()[:16],
                     kind=kind, detail_len=len(detail))
        # The blame is stamped with the start of the current episode, so a
        # retry round that times out again re-announces the same blame.
        since, new = self.acct.claim(peer_key, kind, detail, self.now)
        if new and self.counter is not None:
            self.counter.increment("suspicion_claims", node=self.node_id)
        self._gossip_suspicion(SuspicionBlame(
            accuser=self.public_key,
            accused=peer_key,
            kind=kind,
            detail=detail,
            last_known=self.acct.latest_header(peer_key),
            raised_at=since,
        ))

    def _gossip_suspicion(self, blame: SuspicionBlame) -> None:
        key = blame.key()
        if key in self._seen_suspicions:
            return
        if self._seen_suspicions is EMPTY_MAP:
            self._seen_suspicions = {}
        self._seen_suspicions[key] = None
        peers = self._gossip_peers()
        if peers and self.counter is not None:
            self.counter.increment("suspicion_fanouts", node=self.node_id)
        self._send_fanout(peers, "lo/suspicion", blame, blame.wire_size())

    def _gossip_peers(self) -> List[int]:
        peers = self._eligible_neighbors()
        fanout = min(self.config.blame_gossip_fanout, len(peers))
        return self.rng.sample(peers, fanout) if fanout else []

    def _handle_suspicion(self, message: Message) -> None:
        blame: SuspicionBlame = message.payload
        accused = blame.accused.raw
        if accused == self._raw_key:
            # We are being suspected: answer publicly by pushing our latest
            # commitment back through the accuser's path.
            self._send_commit_update(message.sender)
            return
        if blame.key() in self._seen_suspicions:
            return
        action, header, evidence = self.acct.evaluate_suspicion(blame)
        if action == "expose" and evidence is not None:
            self._broadcast_exposure(
                ExposureBlame(accused=blame.accused, equivocation=evidence)
            )
            return
        if action == "relay" and header is not None:
            accuser_id = self.directory.id_of(blame.accuser)
            self._send(accuser_id, "lo/commit_upd", header, header.wire_size())
        elif action == "investigate":
            accused_id = self.directory.id_of(blame.accused)
            self._send_content_request(accused_id, blame.detail)
        elif (
            self.config.verify_suspicions_locally
            and not self.acct.is_suspected(blame.accused)
            and not self.acct.is_exposed(blame.accused)
        ):
            # Fig. 4: verify the hearsay with our own probe; the timeout /
            # retry machinery turns non-response into our own suspicion.
            accused_id = self.directory.id_of(blame.accused)
            self._send_sync_request(accused_id, spec=None, depth=0)
        else:
            newly = self.acct.adopt_suspicion(blame, self.now)
            if newly and self.counter is not None:
                self.counter.increment("suspicions_adopted", node=self.node_id)
            if newly:
                _t = obs.TRACER
                if _t.enabled:
                    _t.event(
                        "acct.suspicion_adopted", t=self.now,
                        node_id=self.node_id,
                        accused=self._peer_id_of(blame.accused),
                        accused_key=blame.accused.raw.hex()[:16],
                        accuser=self._peer_id_of(blame.accuser),
                        kind=blame.kind,
                    )
        self._gossip_suspicion(blame)

    def _send_commit_update(self, peer: int) -> None:
        header = self._header_for(peer, "lo/commit_upd")
        self._send(peer, "lo/commit_upd", header, header.wire_size())

    def _handle_commit_update(self, message: Message) -> None:
        header: CommitmentHeader = message.payload
        self._observe_remote_header(header)
        signer = header.signer
        if self.acct.is_suspected(signer):
            # The suspected node (or a relay on its behalf) answered.
            self.acct.clear_suspicion(signer)
            self.acct.close_requests_to(signer)
            relay_key = (signer.raw, header.seq)
            if relay_key not in self._relayed_updates:
                if self._relayed_updates is EMPTY_MAP:
                    self._relayed_updates = {}
                self._relayed_updates[relay_key] = None
                self._send_fanout(self._gossip_peers(), "lo/commit_upd",
                                  header, header.wire_size())

    def _observe_remote_header(self, header: CommitmentHeader) -> None:
        evidence = self.acct.observe_header(header)
        if evidence is not None:
            _t = obs.TRACER
            if _t.enabled:
                _t.event(
                    "acct.equivocation", t=self.now, node_id=self.node_id,
                    accused=self._peer_id_of(header.signer),
                    accused_key=header.signer.raw.hex()[:16],
                    seq_a=evidence.header_a.seq, seq_b=evidence.header_b.seq,
                )
            self._broadcast_exposure(
                ExposureBlame(accused=header.signer, equivocation=evidence)
            )

    def _broadcast_exposure(self, blame: ExposureBlame) -> None:
        newly = self.acct.expose(blame)
        if not newly:
            return
        if self.counter is not None:
            self.counter.increment("exposures_adopted", node=self.node_id)
        _t = obs.TRACER
        if _t.enabled:
            if blame.equivocation is not None:
                evidence_kind = "equivocation"
                digest = blame.accused.raw.hex()[:16]
            elif blame.block_violation is not None:
                evidence_kind = (
                    f"block:{blame.block_violation.violation.kind.name.lower()}"
                )
                digest = blame.block_violation.block.block_hash.hex()[:16]
            else:  # pragma: no cover - expose() rejects evidence-free blames
                evidence_kind, digest = "unknown", ""
            _t.event(
                "acct.exposure", t=self.now, node_id=self.node_id,
                accused=self._peer_id_of(blame.accused),
                accused_key=blame.accused.raw.hex()[:16],
                evidence=evidence_kind, evidence_digest=digest,
            )
        self._send_fanout(self._gossip_peers(), "lo/exposure", blame,
                          blame.wire_size())

    def _handle_exposure(self, message: Message) -> None:
        blame: ExposureBlame = message.payload
        self._broadcast_exposure(blame)

    # --------------------------------------------------------------- blocks

    def on_leader_elected(self) -> None:
        """Build and announce a block (called by the leader schedule)."""
        if self._pending_blocks:
            # We know our chain is behind (buffered successors exist); a
            # proposal on a stale tip could not be finalised by any
            # consensus layer, so the slot is skipped.
            return
        _t = obs.TRACER
        span = None
        if _t.enabled:
            span = _t.begin_span("block.build", self.now,
                                 node_id=self.node_id,
                                 policy=self.block_policy)
        if self.block_policy == "highest_fee":
            block = self.builder.build_highest_fee(
                self.log, self.ledger, created_at=self.now
            )
        else:
            block = self.builder.build(
                self.log, self.bundles, self.ledger, created_at=self.now
            )
        adversary = self.adversary
        if adversary is not None:
            tx_ids, commit_seq = adversary.block_body(block)
            if tx_ids != block.tx_ids or commit_seq != block.commit_seq:
                block = sign_block(
                    self.keypair, height=block.height,
                    prev_hash=block.prev_hash, tx_ids=tx_ids,
                    commit_seq=commit_seq, created_at=block.created_at,
                )
        if _t.enabled:
            _t.end_span(span, self.now, height=block.height,
                        txs=len(block.tx_ids), commit_seq=block.commit_seq)
        header = self.header_at(block.commit_seq)
        if header is None:
            header = self.header()
        announce = BlockAnnounce(
            block=block,
            header=header,
            bundle_ids=tuple(b.ids for b in self.bundles[: block.commit_seq]),
        )
        self.ledger.append(block)
        self._note_seen_block(block.block_hash)
        self._note_announce(announce)
        if self.block_tracker is not None:
            for sketch_id in block.tx_ids:
                self.block_tracker.record_seen(sketch_id, 0, self.now)
        if self.on_block_created is not None:
            self.on_block_created(block)
        self._send_fanout(self._eligible_neighbors(), "lo/block", announce,
                          announce.wire_size(), is_overhead=False)

    def _handle_block_announce(self, message: Message) -> None:
        announce: BlockAnnounce = message.payload
        block: Block = announce.block
        if block.block_hash in self._seen_blocks:
            return
        self._note_seen_block(block.block_hash)
        if not block.signature_valid():
            return
        # Forward first: settlement and detection both ride on propagation.
        self._send_fanout(
            [p for p in self._eligible_neighbors() if p != message.sender],
            "lo/block", announce, announce.wire_size(), is_overhead=False,
        )
        self._settle_or_buffer(announce)

    def _note_seen_block(self, block_hash: bytes) -> None:
        if self._seen_blocks is EMPTY_MAP:
            self._seen_blocks = {}
        self._seen_blocks[block_hash] = None

    def _note_announce(self, announce: BlockAnnounce) -> None:
        if self._announces_by_height is EMPTY_MAP:
            self._announces_by_height = {}
        self._announces_by_height[announce.block.height] = announce

    def _settle_or_buffer(self, announce: BlockAnnounce) -> None:
        block: Block = announce.block
        if block.height > self.ledger.height + 1:
            # Chain gap (e.g. we just rejoined after a crash): buffer and
            # fetch the missing ancestors from a random neighbour.
            if self._pending_blocks is EMPTY_MAP:
                self._pending_blocks = {}
            self._pending_blocks[block.height] = announce
            self._request_missing_blocks()
            return
        if not self.ledger.append(block):
            return
        self._note_announce(announce)
        self._inspect_announce(announce,
                               self.ledger.settled_before(block.height))
        # Drain any buffered successor blocks.
        pending = self._pending_blocks
        next_announce = (pending.pop(self.ledger.height + 1, None)
                         if pending else None)
        if next_announce is not None:
            self._settle_or_buffer(next_announce)

    def _request_missing_blocks(self) -> None:
        wanted = self.ledger.height + 1
        pending = self._pending_blocks
        buffered = pending.pop(wanted, None) if pending else None
        if buffered is not None:
            # The gap already closed from the buffer side; settle directly.
            self._settle_or_buffer(buffered)
            return
        peers = self._eligible_neighbors()
        if peers:
            peer = self.rng.choice(peers)
            self._send(peer, "lo/block_req", wanted, 8)

    def _handle_block_request(self, message: Message) -> None:
        height = message.payload
        announce = self._announces_by_height.get(height)
        if announce is not None:
            self._send(
                message.sender, "lo/block", announce, announce.wire_size(),
                is_overhead=False,
            )

    def _inspect_announce(
        self, announce: BlockAnnounce, settled_before: Container[int]
    ) -> None:
        if not self.inspection_enabled:
            return
        block: Block = announce.block
        evidence_ctx = self._verify_announce_context(announce)
        if not evidence_ctx:
            # Malformed inspection context: cannot judge, suspect the creator.
            creator_id = self.directory.id_of(block.creator)
            self._raise_suspicion(creator_id, "announce", ())
            return
        self._observe_remote_header(announce.header)
        self._check_stale_seq(announce)
        _t = obs.TRACER
        span = None
        if _t.enabled:
            span = _t.begin_span(
                "block.inspect", self.now, node_id=self.node_id,
                height=block.height,
                creator=self._peer_id_of(block.creator),
            )
        result = self._run_inspection(announce, settled_before)
        if not result.conclusive:
            if _t.enabled:
                _t.end_span(span, self.now, conclusive=False,
                            missing=len(result.missing_content))
            if result.missing_content:
                self._defer_inspection(announce)
                self._send_content_request(
                    self.directory.id_of(block.creator),
                    result.missing_content[:64],
                )
            return
        if self.counter is not None:
            self.counter.increment("blocks_inspected", node=self.node_id)
        if _t.enabled:
            _t.end_span(span, self.now, conclusive=True,
                        violations=len(result.violations))
        for violation in result.violations:
            if _t.enabled:
                _t.event(
                    "inspect.violation", t=self.now, node_id=self.node_id,
                    creator=self._peer_id_of(block.creator),
                    kind=violation.kind.name.lower(),
                    block_hash=block.block_hash.hex()[:16],
                )
            evidence = BlockViolationEvidence(
                accused=block.creator,
                block=block,
                header=announce.header,
                bundle_ids=announce.bundle_ids,
                violation=violation,
            )
            self._broadcast_exposure(
                ExposureBlame(accused=block.creator, block_violation=evidence)
            )

    def _check_stale_seq(self, announce: BlockAnnounce) -> None:
        """Lagging-censorship check: the pinned prefix must be recent.

        A creator that signs ever-newer commitments but pins its blocks to
        a far older prefix escapes the inclusion policy; any of its signed
        headers more than STALE_SEQ_SLACK bundles ahead of the pinned seq
        is transferable proof (policies.py).
        """
        from repro.core.policies import STALE_SEQ_SLACK

        block: Block = announce.block
        latest = self.acct.latest_header(block.creator)
        freshest = announce.header
        if latest is not None and latest.seq > freshest.seq:
            freshest = latest
        if freshest.seq - block.commit_seq <= STALE_SEQ_SLACK:
            return
        violation = Violation(
            ViolationKind.STALE_COMMITMENT_SEQ,
            block.block_hash,
            f"block pins seq {block.commit_seq} while the creator signed"
            f" seq {freshest.seq}",
        )
        evidence = BlockViolationEvidence(
            accused=block.creator,
            block=block,
            header=freshest,
            bundle_ids=(),
            violation=violation,
        )
        self._broadcast_exposure(
            ExposureBlame(accused=block.creator, block_violation=evidence)
        )

    def _verify_announce_context(self, announce: BlockAnnounce) -> bool:
        header: CommitmentHeader = announce.header
        block: Block = announce.block
        if header.signer != block.creator or not header.signature_valid():
            return False
        if header.seq < block.commit_seq or len(announce.bundle_ids) < block.commit_seq:
            return False
        digest = GENESIS_DIGEST
        for index in range(block.commit_seq):
            digest = chain_digest(digest, bundle_digest(announce.bundle_ids[index]))
            if header.digests[index] != digest:
                return False
        return True

    def _run_inspection(
        self, announce: BlockAnnounce, settled_before: Container[int]
    ) -> InspectionResult:
        block: Block = announce.block
        bundles = [
            BundleInfo(index=i, ids=ids, source_peer=None, committed_at=0.0)
            for i, ids in enumerate(announce.bundle_ids)
        ]
        prev_hash = block.prev_hash
        return self.inspector.inspect(
            block,
            bundles,
            prev_hash,
            settled_before,
            content_known=lambda i: self.log.content_of(i) is not None,
            is_invalid=self.log.is_invalid,
            fee_of=lambda i: (
                self.log.content_of(i).fee
                if self.log.content_of(i) is not None
                else None
            ),
        )

    def _defer_inspection(self, announce: BlockAnnounce) -> None:
        """Keep an inconclusive inspection for when its content arrives."""
        if not self._pending_inspections:
            self._pending_inspections = []
        self._pending_inspections.append(announce)

    def _retry_pending_inspections(self) -> None:
        pending = self._pending_inspections
        self._pending_inspections = ()
        for announce in pending:
            block: Block = announce.block
            height = block.height
            if height > self.ledger.height:
                self._defer_inspection(announce)
                continue
            result = self._run_inspection(
                announce, self.ledger.settled_before(height))
            if not result.conclusive:
                self._defer_inspection(announce)
                continue
            for violation in result.violations:
                evidence = BlockViolationEvidence(
                    accused=block.creator,
                    block=block,
                    header=announce.header,
                    bundle_ids=announce.bundle_ids,
                    violation=violation,
                )
                self._broadcast_exposure(
                    ExposureBlame(accused=block.creator, block_violation=evidence)
                )

    # Ingress calls ``handler(self, message)`` from this table, with no
    # per-message ``getattr``.
    _HANDLERS = {
        "lo/sync_req": _handle_sync_request,
        "lo/sync_resp": _handle_sync_response,
        "lo/content_req": _handle_content_request,
        "lo/content_resp": _handle_content_response,
        "lo/suspicion": _handle_suspicion,
        "lo/exposure": _handle_exposure,
        "lo/commit_upd": _handle_commit_update,
        "lo/block": _handle_block_announce,
        "lo/block_req": _handle_block_request,
        "lo/client_submit": _handle_client_submit,
        "lo/status_query": _handle_status_query,
    }
