"""Pool watermarks: the size and age boundaries eviction enforces.

A bounded mempool needs two kinds of limits:

* **size watermarks** -- a *high* watermark at which eviction kicks in
  and a *low* watermark it drains down to.  Evicting a batch per
  episode (high -> low) instead of one entry per admission amortises
  the eviction work and produces hysteresis: the pool breathes between
  the two lines rather than thrashing at a single boundary;
* an **age limit** -- entries that sat unpicked for ``max_age_s``
  simulated seconds are expired regardless of priority.  Old
  transactions are the ones whose fee the market has already moved
  past; expiring them bounds worst-case occupancy by churn rate.

:class:`WatermarkConfig` is plain data consumed by
:mod:`repro.mempool.evict`; it lives in its own module so tuning guides
and tests can reason about the boundaries without pulling in eviction
mechanics.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class WatermarkConfig:
    """Size/age/count boundaries of the pending pool."""

    #: Hard ceiling on pooled transaction bytes (the high watermark).
    max_pool_bytes: int = 2_000_000
    #: Fraction of ``max_pool_bytes`` the evictor drains down to once
    #: the high watermark is crossed.
    low_fraction: float = 0.90
    #: Maximum simulated seconds an entry may wait in the pool before
    #: age expiry removes it.
    max_age_s: float = 120.0
    #: Hard ceiling on pooled transaction *count* (guards against a
    #: flood of minimum-size transactions saturating bookkeeping before
    #: the byte limit bites).
    max_pool_txs: int = 50_000

    def __post_init__(self) -> None:
        """Validate boundary sanity (positive sizes, fraction in (0, 1])."""
        if self.max_pool_bytes < 1:
            raise ValueError("max_pool_bytes must be >= 1")
        if not 0 < self.low_fraction <= 1.0:
            raise ValueError("low_fraction must be in (0, 1]")
        if self.max_age_s <= 0:
            raise ValueError("max_age_s must be > 0")
        if self.max_pool_txs < 1:
            raise ValueError("max_pool_txs must be >= 1")

    @property
    def low_watermark_bytes(self) -> int:
        """Byte level a pool-full eviction episode drains down to."""
        return int(self.max_pool_bytes * self.low_fraction)

    def fits(self, pool_bytes: int, pool_txs: int, tx_bytes: int) -> bool:
        """Would one more ``tx_bytes``-sized entry stay within the limits?"""
        return (pool_bytes + tx_bytes <= self.max_pool_bytes
                and pool_txs + 1 <= self.max_pool_txs)
