"""Effective-priority computation and the bucketed priority index.

A production mempool orders pending transactions by *effective priority*
-- fee paid per byte of blockspace consumed -- rather than by raw fee, so
a small high-fee transfer outranks a bloated contract call with the same
absolute fee.  The admission pipeline consults this ordering twice:

* **eviction** removes the *lowest*-priority entry first (see
  :mod:`repro.mempool.evict`), which gives the pipeline its headline
  invariant: a higher-priority transaction is never evicted while a
  lower-priority one remains;
* the **fee market** (:mod:`repro.mempool.fee_market`) quotes its dynamic
  admission floor in the same units, so the two mechanisms compose.

The index is *bucketed*: priorities are grouped into power-of-two
fee-rate bands (`bucket_of`), one min-heap per band.  Finding the global
minimum only has to inspect the lowest non-empty band, and per-band
population/byte counts double as a cheap fee-rate histogram for metrics
and for the fee market's congestion signal.  With realistic fee spreads
there are a few dozen bands at most, so the band scan is O(1) in
practice while each band keeps exact heap order.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Tuple

#: Fixed-point scale applied to fee-per-byte before bucketing, so
#: sub-unit fee rates (fee 1, size 500 -> 0.002) still land in distinct
#: power-of-two bands instead of all collapsing into bucket zero.
PRIORITY_SCALE = 1024.0


def effective_priority(fee: int, size_bytes: int) -> float:
    """Fee per byte -- the mempool's one ordering unit.

    >>> effective_priority(500, 250)
    2.0
    >>> effective_priority(500, 1000) < effective_priority(500, 250)
    True
    """
    if size_bytes <= 0:
        raise ValueError(f"non-positive size: {size_bytes}")
    return fee / size_bytes


def bucket_of(priority: float) -> int:
    """Power-of-two band index of a priority value.

    Doubling the fee rate moves a transaction up exactly one band:

    >>> bucket_of(2.0) - bucket_of(1.0)
    1
    >>> bucket_of(0.0)
    0
    """
    if priority <= 0:
        return 0
    return max(0, int(math.log2(priority * PRIORITY_SCALE)) + 1)


class PriorityIndex:
    """Bucketed min-order index over ``(priority, seq) -> entry id``.

    Entries are identified by an opaque integer id (the caller's sketch
    id).  Removal is lazy: :meth:`remove` marks the id dead and the heaps
    shed corpses as they surface, which keeps both :meth:`add` and
    :meth:`remove` O(log n) without tombstone scans.

    Ties within a band break on *descending* arrival sequence: among
    equal fee rates the newest entry is evicted first, so an attacker
    replaying the floor price cannot flush older honest transactions.
    """

    def __init__(self) -> None:
        self._buckets: Dict[int, List[Tuple[float, int, int]]] = {}
        self._bucket_count: Dict[int, int] = {}
        self._alive: Dict[int, Tuple[float, int]] = {}
        self._bytes = 0
        self._byte_sizes: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._alive)

    def __contains__(self, item_id: int) -> bool:
        return item_id in self._alive

    @property
    def total_bytes(self) -> int:
        """Sum of the byte sizes of every live entry."""
        return self._bytes

    def add(self, item_id: int, priority: float, seq: int,
            size_bytes: int) -> None:
        """Insert a live entry (``item_id`` must not already be present)."""
        if item_id in self._alive:
            raise ValueError(f"id {item_id} already indexed")
        band = bucket_of(priority)
        heap = self._buckets.get(band)
        if heap is None:
            heap = self._buckets[band] = []
        heapq.heappush(heap, (priority, -seq, item_id))
        self._bucket_count[band] = self._bucket_count.get(band, 0) + 1
        self._alive[item_id] = (priority, seq)
        self._byte_sizes[item_id] = size_bytes
        self._bytes += size_bytes

    def remove(self, item_id: int) -> bool:
        """Lazily drop an entry; returns False when it was not present."""
        info = self._alive.pop(item_id, None)
        if info is None:
            return False
        band = bucket_of(info[0])
        self._bucket_count[band] -= 1
        self._bytes -= self._byte_sizes.pop(item_id)
        return True

    def info(self, item_id: int) -> Optional[Tuple[float, int, int]]:
        """``(priority, seq, size_bytes)`` of a live entry, or None.

        The evictor uses this to snapshot entries it may have to roll
        back (re-:meth:`add`) when an eviction plan aborts.
        """
        alive = self._alive.get(item_id)
        if alive is None:
            return None
        return alive[0], alive[1], self._byte_sizes[item_id]

    def _lowest_band(self) -> Optional[int]:
        live = [b for b, count in self._bucket_count.items() if count > 0]
        return min(live) if live else None

    def peek_lowest(self) -> Optional[Tuple[int, float]]:
        """``(id, priority)`` of the lowest-priority live entry, or None."""
        band = self._lowest_band()
        if band is None:
            return None
        heap = self._buckets[band]
        while heap:
            priority, _neg_seq, item_id = heap[0]
            info = self._alive.get(item_id)
            if info is None or info[0] != priority:
                heapq.heappop(heap)  # corpse from a lazy remove
                continue
            return item_id, priority
        # Band emptied out through corpses; drop it and retry.
        del self._buckets[band]
        self._bucket_count.pop(band, None)
        return self.peek_lowest()

    def pop_lowest(self) -> Optional[Tuple[int, float]]:
        """Remove and return the lowest-priority entry as ``(id, priority)``."""
        lowest = self.peek_lowest()
        if lowest is None:
            return None
        self.remove(lowest[0])
        return lowest

    def band_histogram(self) -> Dict[int, int]:
        """Live entry count per non-empty band (a fee-rate histogram)."""
        return {b: c for b, c in sorted(self._bucket_count.items()) if c > 0}
