"""Simulated asymmetric signatures with HMAC construction.

Every node owns a :class:`KeyPair`.  ``sign`` produces a 32-byte tag over
(public key, message) keyed by a private seed; ``verify`` recomputes it via
a process-global registry mapping public keys to their signing oracles.

Security model: within a simulation process, a signature over ``msg`` under
public key ``pk`` can only be produced by the holder of the matching
:class:`KeyPair` (the private seed never leaves the object, and the registry
exposes verification only).  That is exactly the "messages are
authenticated" assumption of the paper's system model; see DESIGN.md for why
this substitution is sound for accountability experiments.
"""

from __future__ import annotations

import hashlib
import hmac
import os
from typing import Dict, Optional

from repro import obs

#: Installed phase profiler or ``None``; rebound via
#: :func:`repro.obs.on_profiler_change` so signing/verification can
#: attribute their wall time to a nested ``crypto`` phase at the cost of
#: one global load and branch when profiling is off.
_PHASES = None


def _rebind_profiler(profiler) -> None:
    """Hook for :func:`repro.obs.on_profiler_change`."""
    global _PHASES
    _PHASES = profiler if profiler is not None and profiler.enabled else None


obs.on_profiler_change(_rebind_profiler)


class SignatureError(ValueError):
    """Raised when signature verification fails in contexts that demand it."""


class PublicKey:
    """An immutable, hashable public identity derived from a private seed.

    ``raw`` holds the 32 key bytes.  It is a plain slot so the hot paths
    that key on it (suspicion de-duplication, signature checks) pay one
    attribute read; nothing may assign to it after construction, the
    hash is precomputed from it.
    """

    __slots__ = ("raw", "_hash")

    def __init__(self, raw: bytes):
        if len(raw) != 32:
            raise ValueError(f"public key must be 32 bytes, got {len(raw)}")
        self.raw = raw
        self._hash = hash(raw)

    def hex(self) -> str:
        """Hex encoding of the key."""
        return self.raw.hex()

    def short(self) -> str:
        """First 8 hex chars, for logs."""
        return self.raw.hex()[:8]

    def __eq__(self, other: object) -> bool:
        # Directory keys are shared objects: most equal keys are identical.
        return other is self or (
            isinstance(other, PublicKey) and self.raw == other.raw
        )

    def __lt__(self, other: "PublicKey") -> bool:
        return self.raw < other.raw

    def __hash__(self) -> int:
        return self._hash  # precomputed: keys are dict keys everywhere

    def __repr__(self) -> str:
        return f"PublicKey({self.short()})"


# Process-global verification registry: public key bytes -> MAC oracle.
_VERIFIERS: Dict[bytes, "KeyPair"] = {}


class KeyPair:
    """A signing key pair; create one per node.

    >>> kp = KeyPair.generate(seed=b"node-0")
    >>> sig = kp.sign(b"hello")
    >>> verify(kp.public_key, b"hello", sig)
    True
    >>> verify(kp.public_key, b"tampered", sig)
    False
    """

    __slots__ = ("_seed", "public_key")

    def __init__(self, seed: bytes):
        if len(seed) == 0:
            raise ValueError("empty key seed")
        self._seed = hashlib.sha256(b"lo-keyseed:" + seed).digest()
        self.public_key = PublicKey(hashlib.sha256(b"lo-pubkey:" + self._seed).digest())
        _VERIFIERS[self.public_key.raw] = self

    @classmethod
    def generate(cls, seed: Optional[bytes] = None) -> "KeyPair":
        """Generate a key pair; deterministic when ``seed`` is provided."""
        return cls(seed if seed is not None else os.urandom(32))

    def sign(self, message: bytes) -> bytes:
        """Return a 32-byte signature over ``message``."""
        if _PHASES is not None:
            _PHASES.enter("crypto")
            try:
                return hmac.new(self._seed, b"lo-sig:" + message,
                                hashlib.sha256).digest()
            finally:
                _PHASES.exit()
        return hmac.new(self._seed, b"lo-sig:" + message, hashlib.sha256).digest()

    def _mac(self, message: bytes) -> bytes:
        return hmac.new(self._seed, b"lo-sig:" + message, hashlib.sha256).digest()


def verify(public_key: PublicKey, message: bytes, signature: bytes) -> bool:
    """Check ``signature`` over ``message`` under ``public_key``.

    Unknown public keys verify nothing (returns False), mirroring a real
    scheme where an invalid key yields invalid signatures.
    """
    if _PHASES is not None:
        _PHASES.enter("crypto")
        try:
            holder = _VERIFIERS.get(public_key.raw)
            if holder is None:
                return False
            return hmac.compare_digest(holder._mac(message), signature)
        finally:
            _PHASES.exit()
    holder = _VERIFIERS.get(public_key.raw)
    if holder is None:
        return False
    return hmac.compare_digest(holder._mac(message), signature)
