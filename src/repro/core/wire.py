"""Defensive wire-format validation and peer quarantine for `lo/*` ingress.

A real deployment deserializes untrusted bytes; this simulator passes
Python objects, so a Byzantine peer (or the chaos injector's corruption
fault) can hand a handler *any* object.  Sections 3.1-3.2 demand that
correct nodes survive that: a malformed payload must never crash the node
and must never cause a correct peer to be blamed.  The counterpart is that
garbage is *attributable* -- the network layer authenticates the sender --
so repeated garbage from one peer is itself accountable behaviour.

Two pieces:

* :func:`validate_payload` -- a per-message-type structural schema check
  returning ``None`` when the payload is well-formed or a human-readable
  reason string when it is not.  Checks are deliberately shallow (types,
  shapes, enum values); cryptographic verification stays in the handlers.
* :class:`PeerQuarantine` -- per-peer violation accounting with
  exponential-backoff quarantine: after ``threshold`` violations in one
  admission window the peer is ignored for ``base_s * 2**(episode-1)``
  seconds (capped at ``max_s``), then re-admitted on probation.
"""

from __future__ import annotations

from operator import lt
from typing import Any, Callable, Dict, Optional, Tuple

from repro.bloomclock import BloomClock
from repro.chain.block import Block
from repro.core.accountability import (
    BlockViolationEvidence,
    ExposureBlame,
    SuspicionBlame,
)
from repro.core.commitment import CommitmentHeader, EquivocationEvidence
from repro.core.reconciliation import (
    BlockAnnounce,
    ContentRequest,
    ContentResponse,
    SplitSpec,
    SyncRequest,
    SyncResponse,
)
from repro.crypto.keys import PublicKey
from repro.empty import EMPTY_MAP
from repro.mempool.transaction import Transaction
from repro.obs.caches import IdentityMemo, clear_identity_memos
from repro.sketch import PinSketch
from repro.sketch.gf import IRREDUCIBLE_POLY

Validator = Callable[[Any], Optional[str]]


# --------------------------------------------------------------------------
# Small shape helpers.  Each returns a reason string or None.
# --------------------------------------------------------------------------


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_field(value: Any, name: str, minimum: Optional[int] = None) -> Optional[str]:
    if not _is_int(value):
        return f"{name}: expected int, got {type(value).__name__}"
    if minimum is not None and value < minimum:
        return f"{name}: {value} below minimum {minimum}"
    return None


def _float_field(value: Any, name: str) -> Optional[str]:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return f"{name}: expected number, got {type(value).__name__}"
    if value != value:  # NaN poisons timeout arithmetic
        return f"{name}: NaN"
    return None


def _int_tuple(value: Any, name: str) -> Optional[str]:
    if not isinstance(value, tuple):
        return f"{name}: expected tuple, got {type(value).__name__}"
    if not all(map(_is_int, value)):
        return f"{name}: non-integer element"
    return None


def _typed(value: Any, kind: type, name: str) -> Optional[str]:
    if not isinstance(value, kind):
        return f"{name}: expected {kind.__name__}, got {type(value).__name__}"
    return None


#: Headers and specs whose fields were found well-formed.  Both are frozen
#: and travel inside many payload objects (a node reuses its signed header
#: until its log advances; a spec is echoed back in responses and splits),
#: so a clean verdict is remembered per object -- here, not on the object a
#: peer built.  Only validity is kept: failure reasons embed ``name``,
#: which varies between call sites.  The header bound covers the live
#: headers of a 10,000-node run (one per node).
_CLEAN_HEADERS = IdentityMemo(
    "wire.header", kinds=frozenset({CommitmentHeader}), limit=16384
)
_CLEAN_SPECS = IdentityMemo(
    "wire.spec", kinds=frozenset({SplitSpec}), limit=512
)


def _check_header(header: Any, name: str = "header") -> Optional[str]:
    error = _typed(header, CommitmentHeader, name)
    if error:
        return error
    if _CLEAN_HEADERS.get(header):
        return None
    verdict = _check_header_fields(header, name)
    if verdict is None:
        _CLEAN_HEADERS.put(header, True)
    return verdict


def _check_header_fields(header: Any, name: str) -> Optional[str]:
    for reason in (
        _typed(header.signer, PublicKey, f"{name}.signer"),
        _int_field(header.seq, f"{name}.seq", minimum=0),
        _int_field(header.tx_count, f"{name}.tx_count", minimum=0),
        _typed(header.digests, tuple, f"{name}.digests"),
        _typed(header.clock, BloomClock, f"{name}.clock"),
        _typed(header.signature, bytes, f"{name}.signature"),
    ):
        if reason:
            return reason
    if not all(isinstance(d, bytes) for d in header.digests):
        return f"{name}.digests: non-bytes element"
    if len(header.digests) > header.seq:
        return f"{name}.digests: {len(header.digests)} entries for seq {header.seq}"
    clock = header.clock
    error = _int_field(clock.cells, f"{name}.clock.cells", minimum=1)
    if error:
        return error
    if type(clock.counters) is not list or len(clock.counters) != clock.cells:
        return f"{name}.clock: expected {clock.cells} counters"
    return None


def _check_spec(spec: Any, name: str = "spec") -> Optional[str]:
    error = _typed(spec, SplitSpec, name)
    if error:
        return error
    if _CLEAN_SPECS.get(spec):
        return None
    verdict = _check_spec_fields(spec, name)
    if verdict is None:
        _CLEAN_SPECS.put(spec, True)
    return verdict


def _check_spec_fields(spec: Any, name: str) -> Optional[str]:
    for reason in (
        _int_tuple(spec.cells, f"{name}.cells"),
        _int_field(spec.bit_level, f"{name}.bit_level", minimum=0),
        _int_field(spec.bit_index, f"{name}.bit_index", minimum=0),
    ):
        if reason:
            return reason
    cells = spec.cells
    if not cells:
        return f"{name}.cells: empty"
    if cells[0] < 0:
        return f"{name}.cells: negative cell"
    # Every honest producer emits ascending cells; a repeated cell would be
    # counted twice by the gap and XOR its own sketch away.
    if not all(map(lt, cells, cells[1:])):
        return f"{name}.cells: not strictly increasing"
    return None


def _spec_within(spec: SplitSpec, clock: BloomClock, name: str) -> Optional[str]:
    """A (well-formed) spec's cells must exist in the header's clock."""
    if spec.cells[-1] >= clock.cells:
        return f"{name}.cells: cell {spec.cells[-1]} beyond {clock.cells}"
    return None


def _check_sketch(sketch: Any) -> Optional[str]:
    """A sketch the decoder can take: its field, capacity and packed int.

    The field width must be one :func:`repro.sketch.gf.default_field`
    builds, the capacity a positive int, and the packed syndromes an int
    in ``[0, 2^(m*capacity))``: ``capacity`` slots, each in ``[0, 2^m)``.
    A negative one would read as an infinite run of set bits, and bits
    past the top slot would be silently masked off before the decoder
    runs.
    """
    error = _typed(sketch, PinSketch, "sketch")
    if error:
        return error
    m, capacity, packed = sketch.m, sketch.capacity, sketch.packed
    if not _is_int(m) or m not in IRREDUCIBLE_POLY:
        return "sketch.m: unsupported field width"
    error = _int_field(capacity, "sketch.capacity", minimum=1)
    if error:
        return error
    if type(packed) is not int:
        return "sketch: non-integer syndromes"
    if packed < 0 or packed.bit_length() > m * capacity:
        return (f"sketch: expected {capacity} syndromes, got a value "
                f"outside GF(2^{m})^{capacity}")
    return None


# --------------------------------------------------------------------------
# Per-message-type validators
# --------------------------------------------------------------------------


def _validate_sync_req(payload: Any) -> Optional[str]:
    error = _typed(payload, SyncRequest, "payload")
    if error:
        return error
    return (
        _int_field(payload.request_id, "request_id", minimum=0)
        or _check_header(payload.header)
        or _check_spec(payload.spec)
        or _spec_within(payload.spec, payload.header.clock, "spec")
        or _check_sketch(payload.sketch)
        or _typed(payload.is_retry, bool, "is_retry")
    )


def _validate_sync_resp(payload: Any) -> Optional[str]:
    error = _typed(payload, SyncResponse, "payload")
    if error:
        return error
    error = (
        _int_field(payload.request_id, "request_id", minimum=0)
        or _check_header(payload.header)
        or _int_tuple(payload.requested_ids, "requested_ids")
        or _int_tuple(payload.offered_ids, "offered_ids")
        or _typed(payload.split_specs, tuple, "split_specs")
    )
    if error:
        return error
    if payload.status not in ("ok", "split"):
        return f"status: {payload.status!r} not in ('ok', 'split')"
    clock = payload.header.clock
    for index, spec in enumerate(payload.split_specs):
        name = f"split_specs[{index}]"
        error = _check_spec(spec, name) or _spec_within(spec, clock, name)
        if error:
            return error
    return None


def _validate_content_req(payload: Any) -> Optional[str]:
    error = _typed(payload, ContentRequest, "payload")
    if error:
        return error
    return _int_field(payload.request_id, "request_id", minimum=0) or _int_tuple(
        payload.ids, "ids"
    )


def _validate_content_resp(payload: Any) -> Optional[str]:
    error = _typed(payload, ContentResponse, "payload")
    if error:
        return error
    error = _typed(payload.txs, tuple, "txs")
    if error:
        return error
    if not _is_int(payload.request_id):
        return f"request_id: expected int, got {type(payload.request_id).__name__}"
    for index, tx in enumerate(payload.txs):
        error = _typed(tx, Transaction, f"txs[{index}]")
        if error:
            return error
    return None


def _validate_suspicion(payload: Any) -> Optional[str]:
    error = _typed(payload, SuspicionBlame, "payload")
    if error:
        return error
    error = (
        _typed(payload.accuser, PublicKey, "accuser")
        or _typed(payload.accused, PublicKey, "accused")
        or _typed(payload.kind, str, "kind")
        or _int_tuple(payload.detail, "detail")
        or _float_field(payload.raised_at, "raised_at")
    )
    if error:
        return error
    if payload.last_known is not None:
        return _check_header(payload.last_known, "last_known")
    return None


def _validate_exposure(payload: Any) -> Optional[str]:
    error = _typed(payload, ExposureBlame, "payload")
    if error:
        return error
    error = _typed(payload.accused, PublicKey, "accused")
    if error:
        return error
    if payload.equivocation is None and payload.block_violation is None:
        return "exposure carries no evidence"
    if payload.equivocation is not None:
        error = _typed(payload.equivocation, EquivocationEvidence, "equivocation")
        if error:
            return error
        error = _check_header(payload.equivocation.header_a, "equivocation.header_a")
        if error:
            return error
        return _check_header(payload.equivocation.header_b, "equivocation.header_b")
    error = _typed(payload.block_violation, BlockViolationEvidence, "block_violation")
    if error:
        return error
    evidence = payload.block_violation
    error = (
        _typed(evidence.block, Block, "block_violation.block")
        or _check_header(evidence.header, "block_violation.header")
        or _typed(evidence.bundle_ids, tuple, "block_violation.bundle_ids")
    )
    if error:
        return error
    for index, bundle in enumerate(evidence.bundle_ids):
        error = _int_tuple(bundle, f"block_violation.bundle_ids[{index}]")
        if error:
            return error
    return None


def _validate_commit_update(payload: Any) -> Optional[str]:
    return _check_header(payload, "payload")


def _validate_block_announce(payload: Any) -> Optional[str]:
    error = _typed(payload, BlockAnnounce, "payload")
    if error:
        return error
    error = (
        _typed(payload.block, Block, "block")
        or _check_header(payload.header)
        or _typed(payload.bundle_ids, tuple, "bundle_ids")
    )
    if error:
        return error
    block = payload.block
    error = (
        _int_field(block.height, "block.height", minimum=0)
        or _int_field(block.commit_seq, "block.commit_seq", minimum=0)
        or _int_tuple(block.tx_ids, "block.tx_ids")
        or _typed(block.creator, PublicKey, "block.creator")
        or _typed(block.prev_hash, bytes, "block.prev_hash")
    )
    if error:
        return error
    for index, bundle in enumerate(payload.bundle_ids):
        error = _int_tuple(bundle, f"bundle_ids[{index}]")
        if error:
            return error
    return None


def _validate_block_request(payload: Any) -> Optional[str]:
    return _int_field(payload, "payload", minimum=0)


def _validate_client_submit(payload: Any) -> Optional[str]:
    error = _typed(payload, Transaction, "payload")
    if error:
        return error
    return (
        _typed(payload.sender, PublicKey, "sender")
        or _int_field(payload.nonce, "nonce")
        or _int_field(payload.fee, "fee", minimum=0)
        or _int_field(payload.size_bytes, "size_bytes", minimum=1)
        or _typed(payload.payload, bytes, "tx payload")
        or _typed(payload.signature, bytes, "signature")
    )


def _validate_status_query(payload: Any) -> Optional[str]:
    if not isinstance(payload, tuple) or len(payload) != 2:
        return f"payload: expected (client_id, sketch_id), got {type(payload).__name__}"
    client_id, sketch_id = payload
    return _int_field(client_id, "client_id", minimum=0) or _int_field(
        sketch_id, "sketch_id"
    )


VALIDATORS: Dict[str, Validator] = {
    "lo/sync_req": _validate_sync_req,
    "lo/sync_resp": _validate_sync_resp,
    "lo/content_req": _validate_content_req,
    "lo/content_resp": _validate_content_resp,
    "lo/suspicion": _validate_suspicion,
    "lo/exposure": _validate_exposure,
    "lo/commit_upd": _validate_commit_update,
    "lo/block": _validate_block_announce,
    "lo/block_req": _validate_block_request,
    "lo/client_submit": _validate_client_submit,
    "lo/status_query": _validate_status_query,
}


#: Payload classes whose clean verdict may be remembered.  All are frozen
#: dataclasses whose schema reads only frozen fields and tuples, so the
#: verdict on one object cannot change.  Matched by exact type: a subclass
#: can override any attribute with a property and is checked every time.
_MEMOISED_TYPES = frozenset({
    SyncRequest, SyncResponse, ContentRequest, ContentResponse,
    SuspicionBlame, ExposureBlame, CommitmentHeader, BlockAnnounce,
    Transaction,
})

#: Clean payload verdicts, ``id(payload) -> (payload, msg_type)``: a hit
#: needs this very object under the same message type.  At 512 entries the
#: memo is cleared wholesale.  Every entry pins its payload (and the
#: headers it carries), so the bound is what keeps peak RSS flat: 8,192
#: entries cost +5% on ``censor_storm``; 512 cost nothing and hit as
#: often, because gossip re-delivers an object within a few network delays
#: of its first arrival.
_CLEAN_PAYLOADS = IdentityMemo(
    "wire.validate", kinds=_MEMOISED_TYPES, limit=512
)


def clear_validation_memo() -> None:
    """Forget every remembered verdict (and let go of the objects).

    Empties every :class:`IdentityMemo`: the payload verdicts above, the
    header / spec schema verdicts and the signature verdicts of
    :meth:`CommitmentHeader.signature_valid` and
    :meth:`Transaction.signature_valid`.
    """
    clear_identity_memos()


def validate_payload(msg_type: str, payload: Any) -> Optional[str]:
    """Check a payload against its message type's schema.

    Returns ``None`` for a well-formed payload, a reason string otherwise.
    An unregistered message type is itself a violation ("unknown message
    type"): correct peers only ever send the types in :data:`VALIDATORS`.
    Validators are defensive -- any exception they raise on a hostile
    object is converted into a violation rather than propagated.

    Gossip delivers one immutable payload object to many nodes; the schema
    runs once per object and message type (see :data:`_MEMOISED_TYPES`),
    later deliveries cost one dict probe.  Only clean verdicts are kept.
    ``repro.obs.cache_stats()["wire.validate"]`` counts both.
    """
    validator = VALIDATORS.get(msg_type)
    if validator is None:
        return f"unknown message type {msg_type!r}"
    if _CLEAN_PAYLOADS.holds(payload, msg_type):
        return None
    try:
        error = validator(payload)
    except Exception as exc:  # hostile payloads can break any assumption
        return f"validator error: {type(exc).__name__}: {exc}"
    if error is None:
        _CLEAN_PAYLOADS.put(payload, msg_type)
    return error


# --------------------------------------------------------------------------
# Quarantine
# --------------------------------------------------------------------------


class PeerQuarantine:
    """Violation accounting plus exponential-backoff peer quarantine.

    A peer accumulates violations; hitting ``threshold`` within one
    admission window opens a quarantine episode during which its messages
    are dropped at ingress and it is skipped for outbound sync.  Episode
    ``n`` lasts ``min(max_s, base_s * 2**(n-1))`` seconds.  On expiry the
    peer is re-admitted with a cleared window (but its lifetime violation
    and episode counts persist, so the next episode doubles again).
    """

    __slots__ = ("threshold", "base_s", "max_s", "total_violations",
                 "episodes", "_window", "_until")

    def __init__(
        self, threshold: int = 3, base_s: float = 5.0, max_s: float = 300.0
    ):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if base_s <= 0 or max_s < base_s:
            raise ValueError(f"need 0 < base_s <= max_s, got {base_s}, {max_s}")
        self.threshold = threshold
        self.base_s = base_s
        self.max_s = max_s
        # Shared empties until the first violation makes all four
        # (:mod:`repro.empty`): most nodes never see one.
        self.total_violations: Dict[int, int] = EMPTY_MAP
        self.episodes: Dict[int, int] = EMPTY_MAP
        self._window: Dict[int, int] = EMPTY_MAP
        self._until: Dict[int, float] = EMPTY_MAP

    def record_violation(self, peer: int, now: float) -> bool:
        """Count one violation; returns True when quarantine newly opens."""
        if self.total_violations is EMPTY_MAP:
            self.total_violations = {}
            self.episodes = {}
            self._window = {}
            self._until = {}
        self.total_violations[peer] = self.total_violations.get(peer, 0) + 1
        if self.is_quarantined(peer, now):
            return False  # already serving an episode; don't extend per hit
        self._window[peer] = self._window.get(peer, 0) + 1
        if self._window[peer] < self.threshold:
            return False
        episode = self.episodes.get(peer, 0) + 1
        self.episodes[peer] = episode
        duration = min(self.max_s, self.base_s * (2 ** (episode - 1)))
        self._until[peer] = now + duration
        self._window[peer] = 0
        return True

    def is_quarantined(self, peer: int, now: float) -> bool:
        """Whether the peer is currently serving a quarantine episode."""
        until = self._until.get(peer)
        if until is None:
            return False
        if now >= until:
            del self._until[peer]  # lazily re-admit on probation
            return False
        return True

    def any_open(self) -> bool:
        """Whether any episode is open or expired but not yet re-admitted.

        While False, :meth:`is_quarantined` is False for every peer at
        every time, so callers may skip it.
        """
        return bool(self._until)

    def release_time(self, peer: int) -> Optional[float]:
        """End of the peer's current episode, if one is open."""
        return self._until.get(peer)

    def violations_of(self, peer: int) -> int:
        """Lifetime violation count for a peer."""
        return self.total_violations.get(peer, 0)

    def snapshot(self) -> Dict[int, Tuple[int, int]]:
        """Per-peer (violations, episodes) map -- for metrics/reports."""
        peers = set(self.total_violations) | set(self.episodes)
        return {
            peer: (
                self.total_violations.get(peer, 0),
                self.episodes.get(peer, 0),
            )
            for peer in sorted(peers)
        }
