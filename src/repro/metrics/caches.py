"""Process-wide cache instrumentation (hit/miss/eviction counters).

Hot-path caches (the sketch syndrome cache, the decode memoisation layer,
field-table sharing) register a :class:`CacheStats` here so experiments and
benchmarks can report cache effectiveness without importing the subsystem
internals.  Counters are plain ints mutated inline by the owning cache --
the instrumented paths are the tightest loops in the repository, so the
accounting must stay allocation-free.

>>> stats = register_cache("doctest.example")
>>> stats.hits += 2
>>> stats.misses += 1
>>> round(stats.hit_rate, 2)
0.67
>>> cache_stats()["doctest.example"]["hits"]
2
>>> unregister_cache("doctest.example")
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Dict, Optional, Tuple


class CacheStats:
    """Mutable counters for one named cache.

    ``size_probe`` (optional) reports the cache's current entry count when a
    snapshot is taken; it is a callable so the registry never holds a strong
    reference to the cached data itself.
    """

    __slots__ = ("name", "hits", "misses", "evictions", "size_probe")

    def __init__(self, name: str, size_probe: Optional[Callable[[], int]] = None):
        self.name = name
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.size_probe = size_probe

    @property
    def lookups(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never used)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        """Zero all counters (the cache contents are not touched)."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def snapshot(self) -> Dict[str, float]:
        """A JSON-friendly dict of the current counter values."""
        out: Dict[str, float] = {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }
        if self.size_probe is not None:
            out["size"] = self.size_probe()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheStats({self.name!r}, hits={self.hits}, "
            f"misses={self.misses}, evictions={self.evictions})"
        )


_REGISTRY: Dict[str, CacheStats] = {}
_IDENTITY_MEMOS: "weakref.WeakSet[IdentityMemo]" = weakref.WeakSet()


def register_cache(
    name: str, size_probe: Optional[Callable[[], int]] = None
) -> CacheStats:
    """Create (or fetch) the stats object for a named cache.

    Idempotent: re-registering returns the existing object so module
    reloads and repeated imports keep a single counter set; a provided
    ``size_probe`` replaces the previous one.
    """
    stats = _REGISTRY.get(name)
    if stats is None:
        stats = CacheStats(name, size_probe)
        _REGISTRY[name] = stats
    elif size_probe is not None:
        stats.size_probe = size_probe
    return stats


class IdentityMemo:
    """What a verifier has established about immutable objects it was handed.

    ``id(obj) -> (obj, verdict)``, kept on the verifier's side: a verdict
    stored *on* a peer-supplied object (an attribute, a ``__dict__`` entry)
    is one the peer can set before sending.  The entry references the
    object, so while it is here the object cannot be freed and its id
    cannot come to name another one.  Only instances of exactly ``kind``
    are remembered -- a subclass can turn any field into a property, so
    its verdict may not hold twice.  At ``limit`` entries the memo is
    cleared wholesale (every entry pins its object; the bound is what
    keeps memory flat) and :func:`clear_identity_memos` empties every memo.

    >>> memo = IdentityMemo("doctest.memo", kind=tuple, limit=2)
    >>> point = (1, 2)
    >>> memo.get(point) is None
    True
    >>> memo.put(point, True)
    >>> memo.get(point), memo.get((1, 2)), memo.stats.hits
    (True, None, 1)
    >>> unregister_cache("doctest.memo")
    """

    __slots__ = ("kind", "limit", "entries", "stats", "__weakref__")

    def __init__(self, name: str, kind: type, limit: int):
        self.kind = kind
        self.limit = limit
        self.entries: Dict[int, Tuple[Any, Any]] = {}
        self.stats = register_cache(name, size_probe=self.entries.__len__)
        _IDENTITY_MEMOS.add(self)

    def get(self, obj: Any) -> Any:
        """The verdict remembered for this very object, else ``None``."""
        entry = self.entries.get(id(obj))
        if entry is not None and entry[0] is obj:
            self.stats.hits += 1
            return entry[1]
        self.stats.misses += 1
        return None

    def put(self, obj: Any, verdict: Any) -> None:
        """Remember ``verdict`` (not ``None``) if ``obj`` is exactly a ``kind``."""
        if type(obj) is not self.kind:
            return
        entries = self.entries
        if len(entries) >= self.limit:
            self.stats.evictions += len(entries)
            entries.clear()
        entries[id(obj)] = (obj, verdict)


def clear_identity_memos() -> None:
    """Empty every :class:`IdentityMemo` (and let go of the objects)."""
    for memo in _IDENTITY_MEMOS:
        memo.entries.clear()


def unregister_cache(name: str) -> None:
    """Drop a cache's stats from the registry (used by tests/doctests)."""
    _REGISTRY.pop(name, None)


def cache_stats() -> Dict[str, Dict[str, float]]:
    """Snapshot every registered cache: ``{name: {hits, misses, ...}}``."""
    return {name: stats.snapshot() for name, stats in sorted(_REGISTRY.items())}


def reset_cache_stats() -> None:
    """Zero the counters of every registered cache."""
    for stats in _REGISTRY.values():
        stats.reset()
