"""Transaction model and stage-I prevalidation.

A transaction "contains all the required context to be processed by miners,
such as signature, wallet address, execution commands, transaction fee,
etc." (paper section 2.3, stage I).  Prevalidation checks the signature,
fee and size; the paper's system is agnostic to richer validity rules, and
so is ours -- extra predicates can be passed to :func:`prevalidate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.crypto.hashing import sha256, txid_from_bytes
from repro.crypto.keys import KeyPair, PublicKey, verify
from repro.obs.caches import IdentityMemo

# Default size from the evaluation setup: "each transaction being 250 bytes
# in size" (section 6.1).
DEFAULT_TX_SIZE = 250


class TransactionError(ValueError):
    """Raised when constructing or validating a malformed transaction."""


@dataclass(frozen=True)
class Transaction:
    """An immutable signed transaction.

    ``txid`` is the SHA-256 of the serialized content; ``sketch_id`` is its
    32-bit truncation, "the 32-bit integer representation of transaction
    hashes" Minisketch operates on (section 4.2).
    """

    sender: PublicKey
    nonce: int
    fee: int
    size_bytes: int
    created_at: float
    payload: bytes
    signature: bytes
    txid: bytes = field(compare=False, default=b"")
    sketch_id: int = field(compare=False, default=0)

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise TransactionError(f"non-positive size: {self.size_bytes}")
        if self.fee < 0:
            raise TransactionError(f"negative fee: {self.fee}")
        digest = sha256(self.signing_bytes())
        object.__setattr__(self, "txid", digest)
        object.__setattr__(self, "sketch_id", txid_from_bytes(digest))

    def signing_bytes(self) -> bytes:
        """Canonical byte string the client signs (and that ``txid`` hashes)."""
        return b"|".join(
            (
                self.sender.raw,
                str(self.nonce).encode(),
                str(self.fee).encode(),
                str(self.size_bytes).encode(),
                repr(self.created_at).encode(),
                self.payload,
            )
        )

    def signature_valid(self) -> bool:
        """Verify the client signature (remembered per transaction object).

        Transactions are frozen, so the verdict is fixed at construction;
        the same object is prevalidated once per receiving node, and the
        repeat verifications were pure overhead.  The verdict is kept by
        the verifier (:data:`_SIGNATURE_VERDICTS`), never on the
        transaction, which its sender built and could have marked.
        """
        verdict = _SIGNATURE_VERDICTS.get(self)
        if verdict is None:
            verdict = verify(self.sender, self.signing_bytes(), self.signature)
            _SIGNATURE_VERDICTS.put(self, verdict)
        return verdict

    def wire_size(self) -> int:
        """On-wire size in bytes (the declared transaction size)."""
        return self.size_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Transaction({self.txid.hex()[:8]}, fee={self.fee},"
            f" from={self.sender.short()}, n={self.nonce})"
        )


#: Signature verdicts of the transactions this process has verified, both
#: outcomes.  A transaction is prevalidated by every node within a few
#: network delays of its first arrival; the bound is several seconds of
#: arrivals at the highest rates the workloads run.
_SIGNATURE_VERDICTS = IdentityMemo(
    "crypto.tx_sig", kinds=frozenset({Transaction}), limit=4096
)


def make_transaction(
    keypair: KeyPair,
    nonce: int,
    fee: int,
    created_at: float,
    size_bytes: int = DEFAULT_TX_SIZE,
    payload: bytes = b"",
) -> Transaction:
    """Create and sign a transaction (stage I, client side)."""
    unsigned = Transaction(
        sender=keypair.public_key,
        nonce=nonce,
        fee=fee,
        size_bytes=size_bytes,
        created_at=created_at,
        payload=payload,
        signature=b"",
    )
    signature = keypair.sign(unsigned.signing_bytes())
    return Transaction(
        sender=keypair.public_key,
        nonce=nonce,
        fee=fee,
        size_bytes=size_bytes,
        created_at=created_at,
        payload=payload,
        signature=signature,
    )


ValidityPredicate = Callable[[Transaction], bool]


def prevalidate(
    tx: Transaction,
    min_fee: int = 0,
    max_size: int = 1 << 20,
    extra_checks: Optional[Sequence[ValidityPredicate]] = None,
) -> bool:
    """Stage-I/II prevalidation: signature, fee floor, size cap, extras.

    "Successful prevalidation of a transaction may require: a valid
    signature from a client, sufficient amount of funds ... and the
    inclusion of a sufficient transaction processing fee" (section 2.3).
    """
    if not tx.signature_valid():
        return False
    if tx.fee < min_fee:
        return False
    if tx.size_bytes > max_size:
        return False
    for check in extra_checks or ():
        if not check(tx):
            return False
    return True
