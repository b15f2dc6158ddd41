"""Event trackers wired into protocol code by the experiments.

:class:`LatencyTracker` records, per transaction, the moment of creation
and the moments other nodes first learn it / include it in a block --
feeding Figs. 7 and 8 and the convergence curves
(:meth:`LatencyTracker.coverage`).  :class:`EventCounter` is a labelled
counter used for reconciliation counts (Fig. 10) and detection events
(Fig. 6).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional


class LatencyTracker:
    """First-occurrence latency recording for a population of observers."""

    def __init__(self) -> None:
        self._created_at: Dict[int, float] = {}
        self._first_seen: Dict[int, Dict[int, float]] = defaultdict(dict)

    def record_created(self, item: int, when: float) -> None:
        """Register an item's creation time (idempotent, first wins)."""
        self._created_at.setdefault(item, when)

    def record_seen(self, item: int, observer: int, when: float) -> None:
        """Register the first time ``observer`` saw ``item`` (first wins)."""
        seen = self._first_seen[item]
        if observer not in seen:
            seen[observer] = when

    def created_at(self, item: int) -> Optional[float]:
        """Creation time of an item, if registered."""
        return self._created_at.get(item)

    def latencies(self, item: int) -> List[float]:
        """Per-observer latencies for one item (seen - created)."""
        created = self._created_at.get(item)
        if created is None:
            return []
        return [seen - created for seen in self._first_seen[item].values()]

    def all_latencies(self) -> List[float]:
        """Flat list of every (item, observer) latency."""
        out: List[float] = []
        for item in self._created_at:
            out.extend(self.latencies(item))
        return out

    def coverage(self, item: int, when: float, population: int) -> float:
        """Share of ``population`` observers that had seen ``item`` by ``when``.

        Convergence curves are computed from this after the run, at any
        times, instead of being sampled while it runs.
        """
        seen = self._first_seen.get(item, {})
        return sum(1 for t in seen.values() if t <= when) / population

    def observers_of(self, item: int) -> int:
        """How many observers have seen the item."""
        return len(self._first_seen[item])

    def items(self) -> List[int]:
        """All registered items."""
        return list(self._created_at)


class EventCounter:
    """Labelled counters with optional per-node granularity."""

    def __init__(self) -> None:
        self._totals: Dict[str, int] = defaultdict(int)
        self._per_node: Dict[str, Dict[int, int]] = defaultdict(
            lambda: defaultdict(int)
        )

    def increment(self, label: str, node: Optional[int] = None, by: int = 1) -> None:
        """Count an event, optionally attributed to a node."""
        self._totals[label] += by
        if node is not None:
            self._per_node[label][node] += by

    def total(self, label: str) -> int:
        """Total count for a label (0 when never incremented)."""
        return self._totals.get(label, 0)

    def totals(self) -> Dict[str, int]:
        """Every label's total as a plain dict (copy)."""
        return dict(self._totals)

    def per_node(self, label: str) -> Dict[int, int]:
        """Per-node counts for a label (copy)."""
        return dict(self._per_node.get(label, {}))

    def labels(self) -> List[str]:
        """All labels seen so far."""
        return list(self._totals)
