"""The collector map: every counter a simulation keeps, in one namespace.

The repository's measurement surfaces -- the :mod:`repro.obs.caches`
hit/miss counters, the network's per-type byte meters, the chaos
injector's per-fault counters, the harness's event counter -- each keep
their own numbers.  A **collector** is a callable returning such a flat
``{name: number}`` dict; :class:`MetricsRegistry` maps a prefix to each
one and merges their output into one sorted ``counters`` namespace as
``<prefix>.<name>`` on every :meth:`~MetricsRegistry.snapshot`.  The
``run --json`` report takes one snapshot; the timeline recorder
(:mod:`repro.obs.timeline`) takes one per sample.

Snapshots are plain JSON-able dicts with deterministically sorted keys.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional

Collector = Callable[[], Mapping[str, Any]]


class MetricsRegistry:
    """Named collectors, read together.

    >>> reg = MetricsRegistry({"ext": lambda: {"bytes": 128, "up": True},
    ...                        "net": lambda: {"delivered": 3}})
    >>> reg.snapshot()
    {'counters': {'ext.bytes': 128, 'net.delivered': 3}}
    """

    def __init__(self, collectors: Optional[Mapping[str, Collector]] = None):
        self._collectors: Dict[str, Collector] = dict(collectors or {})

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Every collector's current numbers, as ``{"counters": {...}}``.

        Each collector returns a flat ``{key: number}`` dict; non-numeric
        values are skipped.
        """
        counters: Dict[str, Any] = {}
        for cname in sorted(self._collectors):
            for key, value in self._collectors[cname]().items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                counters[f"{cname}.{key}"] = value
        return {"counters": dict(sorted(counters.items()))}
