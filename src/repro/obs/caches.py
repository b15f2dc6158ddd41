"""Process-wide caches: their hit/miss/eviction counters and one reset.

Hot-path caches (the sketch syndrome cache, the decode memoisation layer,
the verifiers' identity memos) register a :class:`CacheStats` here so
experiments and benchmarks can report cache effectiveness without
importing the subsystem internals.  Counters are plain ints mutated inline
by the owning cache -- the instrumented paths are the tightest loops in the
repository, so the accounting must stay allocation-free.

A cache registered with ``clear=`` is emptied by :func:`reset_caches`,
which every ``LOSimulation`` build calls: a run starts from empty caches
and zeroed counters whatever ran before it in the process.

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

from typing import Any, Callable, Dict, FrozenSet, Optional, Tuple


class CacheStats:
    """Mutable counters for one named cache.

    ``size_probe`` (optional) reports the cache's current entry count when a
    snapshot is taken, and ``clear`` (optional) empties the cache.
    """

    __slots__ = ("name", "hits", "misses", "evictions", "size_probe", "clear")

    def __init__(self, name: str, size_probe: Optional[Callable[[], int]] = None,
                 clear: Optional[Callable[[], None]] = None):
        self.name = name
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.size_probe = size_probe
        self.clear = clear

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
        """Empty the cache (when it registered ``clear``) and zero the
        counters."""
        if self.clear is not None:
            self.clear()
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


def register_cache(
    name: str, size_probe: Optional[Callable[[], int]] = None,
    clear: Optional[Callable[[], None]] = None,
) -> CacheStats:
    """Create (or fetch) the stats object for a named cache.

    Idempotent: re-registering returns the existing object so module
    reloads and repeated imports keep a single counter set; a provided
    ``size_probe`` or ``clear`` replaces the previous one.
    """
    stats = _REGISTRY.get(name)
    if stats is None:
        stats = CacheStats(name, size_probe, clear)
        _REGISTRY[name] = stats
    else:
        if size_probe is not None:
            stats.size_probe = size_probe
        if clear is not None:
            stats.clear = clear
    return stats


class IdentityMemo:
    """What a verifier has established about immutable objects it was handed.

    ``id(obj) -> (obj, verdict)``, kept on the verifier's side: a verdict
    stored *on* a peer-supplied object (an attribute, a ``__dict__`` entry)
    is one the peer can set before sending.  The entry references the
    object, so while it is here the object cannot be freed and its id
    cannot come to name another one.  Only instances of exactly one of
    ``kinds`` are remembered -- a subclass can turn any field into a
    property, so its verdict may not hold twice.  At ``limit`` entries the
    memo is cleared wholesale (every entry pins its object; the bound is
    what keeps memory flat) and :func:`reset_caches` empties every memo.

    >>> memo = IdentityMemo("doctest.memo", kinds=frozenset({tuple}), limit=2)
    >>> point = (1, 2)
    >>> memo.get(point) is None
    True
    >>> memo.put(point, "clean")
    >>> memo.get(point), memo.get((1, 2)), memo.stats.hits
    ('clean', None, 1)
    >>> memo.holds(point, "clean"), memo.holds(point, "other")
    (True, False)
    >>> unregister_cache("doctest.memo")
    """

    __slots__ = ("kinds", "limit", "entries", "stats")

    def __init__(self, name: str, kinds: FrozenSet[type], limit: int):
        self.kinds = kinds
        self.limit = limit
        self.entries: Dict[int, Tuple[Any, Any]] = {}
        self.stats = register_cache(name, size_probe=self.entries.__len__,
                                    clear=self.entries.clear)

    def get(self, obj: Any) -> Any:
        """The verdict remembered for this very object, else ``None``."""
        entry = self.entries.get(id(obj))
        if entry is not None and entry[0] is obj:
            self.stats.hits += 1
            return entry[1]
        self.stats.misses += 1
        return None

    def holds(self, obj: Any, verdict: Any) -> bool:
        """Whether this very object is remembered with exactly ``verdict``.

        Counts a hit only then; any other verdict is a miss.
        """
        entry = self.entries.get(id(obj))
        if entry is not None and entry[0] is obj and entry[1] == verdict:
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def put(self, obj: Any, verdict: Any) -> None:
        """Remember ``verdict`` (not ``None``) if ``obj`` is exactly a kind."""
        if type(obj) not in self.kinds:
            return
        entries = self.entries
        if len(entries) >= self.limit:
            self.stats.evictions += len(entries)
            entries.clear()
        entries[id(obj)] = (obj, verdict)


def unregister_cache(name: str) -> None:
    """Drop a cache's stats from the registry (used by tests/doctests)."""
    _REGISTRY.pop(name, None)


def cache_stats() -> Dict[str, Dict[str, float]]:
    """Snapshot every registered cache: ``{name: {hits, misses, ...}}``."""
    return {name: stats.snapshot() for name, stats in sorted(_REGISTRY.items())}


def reset_caches() -> None:
    """Empty every registered cache that can be cleared and zero every
    counter: what a simulation starts from."""
    for stats in _REGISTRY.values():
        stats.reset()
