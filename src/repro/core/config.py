"""Protocol configuration, defaulting to the paper's evaluation setup.

Section 6.1: 8 outgoing / up to 125 incoming connections, reconciliation
with 3 random neighbours every second, 1 s request timeout resent 3 times,
1,000-byte Minisketch good for ~100-transaction differences, 32-cell
(68-byte) Bloom Clocks.  Section 6.3: 12 s mean block time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.mempool.admission import AdmissionConfig


@dataclass
class LOConfig:
    """Tunable parameters of the LO protocol."""

    # --- mempool reconciliation (section 6.1) ---
    sync_interval_s: float = 1.0        # NeighborsSync period
    sync_fanout: int = 3                # random neighbours per round
    request_timeout_s: float = 1.0      # suspicion timeout per request
    request_retries: int = 3            # resends before suspecting

    # --- commitments / sketches ---
    clock_cells: int = 32               # Bloom Clock cells (68 B serialized)
    sketch_capacity: int = 100          # max decodable set difference
    sketch_bits: int = 32               # field element width
    # Ablation knob: when False, reconciliation skips the Bloom-Clock cell
    # pre-filter and overload pre-check, sketching the whole id space every
    # round (what plain Minisketch-only reconciliation would do).
    use_clock_prefilter: bool = True
    sketch_safety_factor: float = 2.0   # sketch size = factor * clock estimate
    # Floor for adaptive sketch sizing.  Kept >= 16 because an overloaded
    # capacity-t sketch aliases to a wrong (but verification-passing)
    # <=t-element set with probability ~1/t!; at t=16 that is ~5e-14,
    # making silent decode corruption a non-issue (see tests/sketch).
    min_sketch_capacity: int = 16
    partition_max_depth: int = 8        # bisection limit on decode failure

    # --- block building (sections 4.3, 6.3) ---
    mean_block_time_s: float = 12.0     # network-wide average block interval
    max_block_txs: int = 256            # blockspace cap
    min_fee: int = 1                    # fee threshold for block inclusion

    # --- admission pipeline (client-edge ingress) ---
    # When set, client-submitted transactions pass through the production
    # admission pipeline (repro.mempool.admission.Mempool): per-peer rate
    # limiting, the dynamic fee floor with replace-by-fee, per-sender
    # nonce FIFOs and watermark eviction.  Admitted transactions wait in
    # the pending pool and are drained into log commitments on each sync
    # tick.  None (the default) keeps the original commit-on-receipt
    # behaviour, byte-identical with earlier versions.
    admission: Optional[AdmissionConfig] = None

    # --- ingress hardening (Byzantine message tolerance) ---
    # Every inbound lo/* payload is schema-checked before its handler runs
    # and handler exceptions are contained (repro.core.wire).
    # Wire violations within one admission window before the peer is
    # quarantined; episode n lasts base * 2**(n-1) seconds, capped at max.
    quarantine_threshold: int = 3
    quarantine_base_s: float = 5.0
    quarantine_max_s: float = 300.0

    # --- accountability ---
    blame_gossip_fanout: int = 8        # neighbours a blame is forwarded to
    # Fig. 4 semantics: a third-party suspicion with no local corroboration
    # triggers the receiver's *own* probe of the accused (suspect on
    # timeout) rather than instant adoption -- suspicion therefore
    # converges slower than exposure, as in the paper's Fig. 6.  Set False
    # to adopt hearsay immediately (faster, less accurate under churn).
    verify_suspicions_locally: bool = True

    def __post_init__(self) -> None:
        if self.sync_interval_s <= 0:
            raise ValueError("sync_interval_s must be > 0")
        if self.sync_fanout < 1:
            raise ValueError("sync_fanout must be >= 1")
        if self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be > 0")
        if self.request_retries < 0:
            raise ValueError("request_retries must be >= 0")
        if not 1 <= self.min_sketch_capacity <= self.sketch_capacity:
            raise ValueError(
                "need 1 <= min_sketch_capacity <= sketch_capacity"
            )
        if self.sketch_safety_factor < 1.0:
            raise ValueError("sketch_safety_factor must be >= 1.0")
        if self.max_block_txs < 1:
            raise ValueError("max_block_txs must be >= 1")
        if self.quarantine_threshold < 1:
            raise ValueError("quarantine_threshold must be >= 1")
        if not 0 < self.quarantine_base_s <= self.quarantine_max_s:
            raise ValueError("need 0 < quarantine_base_s <= quarantine_max_s")
