"""Signed mempool commitments and per-peer commitment tracking.

A commitment "acts as a cryptographic verification of the incorporated
mempool transactions" and "comprises both the miner's Bloom Clock and
Minisketch" (section 4.2).  Commitments are append-only: each reconciling
interaction appends a *bundle* (an ordered batch of newly observed
transaction ids) to the signer's log, and the commitment header at sequence
``n`` binds the entire bundle history up to ``n`` through a digest chain.

Two signed headers from the same signer are *consistent* iff one's digest
chain is a prefix of the other's.  Inconsistency is transferable proof of
misbehaviour (equivocation / history rewriting) -- the evidence behind
Alg. 1 line 31's exposure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.bloomclock import BloomClock
from repro.crypto.hashing import sha256
from repro.crypto.keys import KeyPair, PublicKey, verify
from repro.mempool.txlog import TransactionLog
from repro.obs.caches import IdentityMemo

# Wire cost of a commitment header: bloom clock (68 B at 32 cells) + seq
# counter (8) + chained digest (32) + tx count (4) + signature (64).
def header_wire_size(clock_cells: int = 32) -> int:
    """Bytes a commitment header occupies on the wire."""
    return (2 * clock_cells + 4) + 8 + 32 + 4 + 64


def bundle_digest(ids: Sequence[int]) -> bytes:
    """Digest of one bundle's id *set*.

    Bundles order transactions at bundle granularity only ("commitment is
    recorded on a whole transaction bundle", section 1); the order inside a
    bundle is canonicalised by the deterministic shuffle at block-building
    time, so the digest sorts ids to be representation-independent.
    """
    return sha256(b",".join(str(i).encode() for i in sorted(ids)))


def chain_digest(prev: bytes, bundle: bytes) -> bytes:
    """Extend the commitment digest chain by one bundle."""
    return sha256(prev + bundle)


GENESIS_DIGEST = b"\x00" * 32


def sketch_history_consistent(
    older_sketch, newer_sketch, older_count: int, newer_count: int
) -> bool:
    """Section 5.2's Minisketch-based commitment consistency check.

    "When a node has two commitments, it can easily detect any
    inconsistency between the previous commitment n and the latest
    commitment n+1 by reconciling two Minisketches."

    An append-only history can only *add* items, so the decoded symmetric
    difference between the two sketches must consist purely of additions:
    its size must equal ``newer_count - older_count`` exactly.  Any
    removal (hiding a previously committed transaction) inflates the
    difference beyond the count delta -- even when paired with a fresh
    addition to keep the counts plausible -- and a decode failure on
    honestly-sized histories is itself suspicious.

    Returns True when the pair is consistent; False on proof of a
    non-append-only history.  Raises
    :class:`~repro.sketch.SketchDecodeError` when the difference exceeds
    the sketch capacity (the caller falls back to the digest-chain check).
    """
    delta = newer_count - older_count
    if delta < 0:
        return False  # histories cannot shrink
    difference = (older_sketch ^ newer_sketch).decode()
    return len(difference) == delta


@dataclass(frozen=True)
class BundleInfo:
    """One committed bundle: its ids (in order) and provenance.

    Provenance records where the bundle's transactions were learned from
    (``source_peer`` is None for locally created transactions) -- this is
    the "commitment chain" that section 5.3's collusion tracing follows
    from a block back to a transaction's creator.
    """

    index: int
    ids: Tuple[int, ...]
    source_peer: Optional[int]
    committed_at: float

    @property
    def digest(self) -> bytes:
        """The bundle digest chained into the commitment sequence."""
        return bundle_digest(self.ids)


@dataclass(frozen=True)
class CommitmentHeader:
    """A signed, self-contained commitment at one sequence number.

    ``digests`` is the full bundle digest chain (one entry per bundle); the
    signature covers the chain tip, the clock and the count, so any two
    headers from one signer can be checked for prefix consistency offline.
    """

    signer: PublicKey
    seq: int                      # number of committed bundles
    tx_count: int                 # total committed transaction ids
    digests: Tuple[bytes, ...]    # cumulative digest chain, len == seq
    clock: BloomClock
    signature: bytes = b""

    def signing_bytes(self) -> bytes:
        """Canonical bytes covered by the miner's commitment signature."""
        tip = self.digests[-1] if self.digests else GENESIS_DIGEST
        return b"|".join(
            (
                b"lo-commitment",
                self.signer.raw,
                str(self.seq).encode(),
                str(self.tx_count).encode(),
                tip,
                self.clock.serialize(),
            )
        )

    def signature_valid(self) -> bool:
        """Verify the signer's signature (remembered per header object).

        Headers are immutable snapshots -- every field is frozen and the
        clock is copied at signing time -- so the verdict cannot change.
        The same header object is observed once per peer per exchange, and
        re-verifying dominated the accountability profile before this memo.
        The verdict is kept by the verifier (:data:`_SIGNATURE_VERDICTS`),
        never on the header, which the signer built and could have marked.
        """
        verdict = _SIGNATURE_VERDICTS.get(self)
        if verdict is None:
            verdict = verify(self.signer, self.signing_bytes(), self.signature)
            _SIGNATURE_VERDICTS.put(self, verdict)
        return verdict

    def tip_digest(self) -> bytes:
        """Chain tip digest (genesis constant at seq 0)."""
        return self.digests[-1] if self.digests else GENESIS_DIGEST

    @property
    def has_full_chain(self) -> bool:
        """Whether interior chain digests are present (vs tip-only wire form).

        Headers decoded from :meth:`from_bytes` carry only the signed tip;
        prefix/consistency checks need the full chain, which peers exchange
        on demand.  Signature verification works either way.
        """
        return all(len(d) == 32 for d in self.digests)

    def wire_size(self) -> int:
        """On-wire size (constant-size header; chain is fetched on demand)."""
        return header_wire_size(self.clock.cells)

    def to_bytes(self) -> bytes:
        """Wire encoding: signer, seq, count, chain tip, clock, signature.

        Matches :meth:`wire_size`: the digest *chain* is not shipped (the
        tip commits to it; interior digests travel on demand), so two
        deserialized headers support signature checks and clock-based
        consistency checks, while prefix proofs fetch the chain separately.
        """
        return b"".join(
            (
                self.signer.raw,
                self.seq.to_bytes(8, "big"),
                self.tx_count.to_bytes(4, "big"),
                self.tip_digest(),
                self.clock.serialize(),
                self.signature,
            )
        )

    @classmethod
    def from_bytes(cls, data: bytes, clock_cells: int = 32) -> "CommitmentHeader":
        """Decode :meth:`to_bytes` output (chain carries only the tip)."""
        expected = header_wire_size(clock_cells)
        if len(data) != expected:
            raise ValueError(f"expected {expected} bytes, got {len(data)}")
        offset = 0
        signer = PublicKey(data[offset : offset + 32]); offset += 32
        seq = int.from_bytes(data[offset : offset + 8], "big"); offset += 8
        tx_count = int.from_bytes(data[offset : offset + 4], "big"); offset += 4
        tip = data[offset : offset + 32]; offset += 32
        clock_len = 2 * clock_cells + 4
        clock = BloomClock.deserialize(
            data[offset : offset + clock_len], cells=clock_cells
        )
        offset += clock_len
        signature = data[offset : offset + 64]
        digests = (tip,) if seq > 0 else ()
        return cls(
            signer=signer,
            seq=seq,
            tx_count=tx_count,
            digests=digests if seq <= 1 else (b"",) * (seq - 1) + (tip,),
            clock=clock,
            signature=signature,
        )

    def is_prefix_of(self, other: "CommitmentHeader") -> bool:
        """Digest-chain prefix test (both headers must share a signer)."""
        if self.seq > other.seq:
            return False
        return tuple(other.digests[: self.seq]) == tuple(self.digests)

    def consistent_with(self, other: "CommitmentHeader") -> bool:
        """True iff one header extends the other (append-only histories)."""
        if self.signer != other.signer:
            raise ValueError("consistency is defined per signer")
        if self.seq <= other.seq:
            return self.is_prefix_of(other) and other.clock.dominates(self.clock)
        return other.is_prefix_of(self) and self.clock.dominates(other.clock)


#: Signature verdicts of the headers this process has verified, both
#: outcomes.  One live header per node plus the ones still in flight: the
#: bound covers a 10,000-node run without a wholesale clear.
_SIGNATURE_VERDICTS = IdentityMemo(
    "crypto.header_sig", kinds=frozenset({CommitmentHeader}), limit=16384
)


def sign_header(
    keypair: KeyPair,
    seq: int,
    tx_count: int,
    digests: Sequence[bytes],
    clock: BloomClock,
) -> CommitmentHeader:
    """Create a signed commitment header."""
    unsigned = CommitmentHeader(
        signer=keypair.public_key,
        seq=seq,
        tx_count=tx_count,
        digests=tuple(digests),
        clock=clock.copy(),
    )
    signature = keypair.sign(unsigned.signing_bytes())
    return CommitmentHeader(
        signer=unsigned.signer,
        seq=seq,
        tx_count=tx_count,
        digests=unsigned.digests,
        clock=unsigned.clock,
        signature=signature,
    )


@dataclass(frozen=True)
class EquivocationEvidence:
    """Two signed, mutually inconsistent headers from the same signer.

    Verifiable by any third party: both signatures check out and the digest
    chains are not prefix-ordered (or a clock cell decreased).  This is the
    transferable proof behind exposures.
    """

    accused: PublicKey
    header_a: CommitmentHeader
    header_b: CommitmentHeader

    def verify(self) -> bool:
        """Check both signatures and the inconsistency claim."""
        if self.header_a.signer != self.accused or self.header_b.signer != self.accused:
            return False
        if not self.header_a.signature_valid() or not self.header_b.signature_valid():
            return False
        return not self.header_a.consistent_with(self.header_b)


class CommitmentStore:
    """All commitments a node has observed from one remote signer.

    Maintains the latest header, a per-seq header index for equivocation
    detection, and what the signer is known to hold (populated through
    reconciliation), which Alg. 1 needs for the ``C_i \\ C_hat_j`` test.
    Nearly every store only ever keeps one header, so ``by_seq`` is None
    until a second one is stored: until then ``latest`` is the index's
    only entry.

    What the signer holds is kept over the *observer's* log: ``held`` is a
    position mask (bit ``p`` set when the signer is known to hold
    ``log.order[p]``), about one bit per id where a set of ids costs about
    50 bytes each.  ``extra`` holds recorded ids the log did not hold when
    recorded; only an adversary's ``commit_filter`` produces one, so a
    correct node's store never allocates it.  The log is append-only, so a
    position never changes its id and ``held`` never goes stale.
    """

    __slots__ = ("signer", "latest", "by_seq", "log", "held", "extra")

    def __init__(self, signer: PublicKey, log: TransactionLog):
        self.signer = signer
        self.latest: Optional[CommitmentHeader] = None
        self.by_seq: Optional[Dict[int, CommitmentHeader]] = None
        self.log = log
        self.held = 0
        self.extra: Optional[Set[int]] = None

    def observe(
        self, header: CommitmentHeader
    ) -> Optional[EquivocationEvidence]:
        """Record a header; returns evidence when it conflicts with history.

        Conflicts: same seq, different digest chain; or any stored header
        that fails the prefix/clock consistency test against the new one.
        A conflicting header is *not* stored (the first one stands as our
        view), but both are embedded in the returned evidence.
        """
        if header.signer != self.signer:
            raise ValueError("header from a different signer")
        by_seq = self.by_seq
        latest = self.latest
        if by_seq is not None:
            existing = by_seq.get(header.seq)
        elif latest is not None and latest.seq == header.seq:
            existing = latest
        else:
            existing = None
        if existing is not None and existing.digests != header.digests:
            return EquivocationEvidence(self.signer, existing, header)
        for stored in self._anchors():
            if not stored.consistent_with(header):
                return EquivocationEvidence(self.signer, stored, header)
        if latest is None:
            self.latest = header
            return None
        if by_seq is None:
            if header is latest:
                return None
            by_seq = self.by_seq = {latest.seq: latest}
        by_seq[header.seq] = header
        if header.seq > latest.seq:
            self.latest = header
        return None

    def _anchors(self) -> List[CommitmentHeader]:
        """Headers used for consistency checks (latest plus the extremes)."""
        if self.by_seq is None:
            return [self.latest] if self.latest is not None else []
        seqs = sorted(self.by_seq)
        picked = {seqs[0], seqs[-1]}
        return [self.by_seq[s] for s in picked]

    def record_mask(self, mask: int) -> None:
        """Record that the signer holds the log ids at ``mask``'s bits.

        ``mask`` is a position mask of the observer's log, as
        :meth:`~repro.mempool.txlog.TransactionLog.mask_for_cells` gives.
        """
        self.held |= mask

    def record_ids(self, ids: Iterable[int]) -> None:
        """Record that the signer holds ``ids``, one id at a time.

        An id of the log sets its position bit; any other id goes to
        ``extra``, where it stays if the log commits it later.
        """
        position = self.log.position
        held = self.held
        for sketch_id in ids:
            index = position(sketch_id)
            if index is not None:
                held |= 1 << index
                continue
            if self.extra is None:
                self.extra = set()
            self.extra.add(sketch_id)
        self.held = held

    def holds(self, sketch_id: int) -> bool:
        """Whether the signer is known to hold ``sketch_id``."""
        index = self.log.position(sketch_id)
        if index is not None and self.held >> index & 1:
            return True
        return self.extra is not None and sketch_id in self.extra

    def outdated(self) -> bool:
        """Alg. 1 line 13: does the log hold an id the signer is not known to hold?

        True when some position below ``len(log)`` is unset in ``held``
        and its id is not in ``extra``.  An unset position whose id
        ``extra`` covers (recorded before the log committed it) is folded
        into ``held`` on the way, so each is looked up once.
        """
        missing = ((1 << len(self.log)) - 1) & ~self.held
        if not missing:
            return False
        extra = self.extra
        if not extra:
            return True
        order = self.log.order
        while missing:
            lowest = missing & -missing
            sketch_id = order[lowest.bit_length() - 1]
            if sketch_id not in extra:
                return True
            extra.discard(sketch_id)
            self.held |= lowest
            missing ^= lowest
        return False

    def known_ids(self) -> FrozenSet[int]:
        """Every id the signer is known to hold (a new frozenset; cold use)."""
        order = self.log.order
        # bin() lists the bits high to low; reversed, index p is bit p.
        bits = bin(self.held)[:1:-1]
        ids = {order[p] for p, bit in enumerate(bits) if bit == "1"}
        if self.extra:
            ids.update(self.extra)
        return frozenset(ids)

    @property
    def seq(self) -> int:
        """Latest observed sequence number (0 when nothing observed)."""
        return self.latest.seq if self.latest is not None else 0
