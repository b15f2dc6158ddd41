"""One-way delay models for simulated links.

The paper emulates latency with netem using WonderNetwork ping statistics
from 32 cities, assigning miners to cities round-robin (section 6.1).  That
dataset is not redistributable, so :class:`CityLatencyModel` builds a
synthetic 32-city matrix with the same structure: a handful of continental
clusters with small intra-cluster and large inter-cluster RTTs spanning the
~5-300 ms range of the real data (DESIGN.md section 3, substitutions).
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple


class LatencyModel:
    """Base class: maps (sender, recipient) to a one-way delay in seconds."""

    def delay(self, sender: int, recipient: int) -> float:
        """One-way delay for a message between two node indices."""
        raise NotImplementedError


class ConstantLatencyModel(LatencyModel):
    """Every message takes exactly ``delay_s`` seconds; handy in unit tests."""

    def __init__(self, delay_s: float = 0.05):
        if delay_s < 0:
            raise ValueError(f"negative delay: {delay_s}")
        self.delay_s = delay_s

    def delay(self, sender: int, recipient: int) -> float:
        return self.delay_s


class UniformLatencyModel(LatencyModel):
    """Delays drawn uniformly per *unordered* pair, fixed after first use.

    The link is symmetric: ``delay(a, b) == delay(b, a)``, both directions
    sharing one draw keyed by ``(min, max)`` of the two node ids -- the
    same modelling choice as the symmetric city matrix of
    :class:`CityLatencyModel`.  The first query for a pair draws from
    ``rng``; every later query (either direction) returns the cached
    value.
    """

    def __init__(self, low_s: float, high_s: float, rng: random.Random):
        if not 0 <= low_s <= high_s:
            raise ValueError(f"invalid range [{low_s}, {high_s}]")
        self.low_s = low_s
        self.high_s = high_s
        self._rng = rng
        self._cache: Dict[Tuple[int, int], float] = {}

    def delay(self, sender: int, recipient: int) -> float:
        key = (min(sender, recipient), max(sender, recipient))
        if key not in self._cache:
            self._cache[key] = self._rng.uniform(self.low_s, self.high_s)
        return self._cache[key]


# Synthetic "32 cities" grouped into 6 regional clusters.  Coordinates are
# abstract positions on a latency plane; pairwise one-way delay is
# base + distance-proportional, matching the spread of WonderNetwork pings.
_CLUSTERS: Sequence[Tuple[str, float, float, int]] = (
    # (region, x, y, number of cities)
    ("north-america", 0.0, 0.0, 8),
    ("south-america", 20.0, -60.0, 4),
    ("europe", 80.0, 10.0, 8),
    ("africa", 90.0, -40.0, 3),
    ("asia", 150.0, 15.0, 6),
    ("oceania", 170.0, -45.0, 3),
)


def synthetic_city_table(jitter_rng: random.Random) -> List[Tuple[str, float, float]]:
    """Generate the synthetic 32-city table: (name, x, y) on the latency plane."""
    cities: List[Tuple[str, float, float]] = []
    for region, base_x, base_y, count in _CLUSTERS:
        for i in range(count):
            x = base_x + jitter_rng.uniform(-8.0, 8.0)
            y = base_y + jitter_rng.uniform(-8.0, 8.0)
            cities.append((f"{region}-{i}", x, y))
    return cities


class CityLatencyModel(LatencyModel):
    """Synthetic WonderNetwork-like model; nodes assigned to cities round-robin.

    One-way delay between cities = 2 ms base + 0.9 ms per distance unit +
    up to 10% pair-specific jitter, which yields ~4 ms same-city to ~170 ms
    antipodal one-way delays (8-340 ms RTT), matching the real dataset's
    range.

    Sized for paper-scale networks: the node-to-city assignment is pure
    round-robin arithmetic, so no per-node table is materialized for
    ``delay`` no matter how many nodes the network has (1,000 or 10,000
    alike) -- only the fixed 32x32 city matrix is precomputed, flattened
    row-major so a lookup is a single list index.

    Id handling: any non-negative id is assigned a city by ``id %
    num_cities``.  Overlay-external endpoints (light clients register
    with ids above the miner range) therefore get a stable city of their
    own instead of silently aliasing onto a miner's: the historical
    ``(id % num_nodes) % num_cities`` double-mod collapsed client
    ``1_000_000`` onto whatever miner ``1_000_000 % num_nodes`` happened
    to be.  Negative ids are always a caller bug and raise.
    """

    BASE_DELAY_S = 0.002
    PER_UNIT_S = 0.0009

    def __init__(self, num_nodes: int, rng: random.Random):
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        self._cities = synthetic_city_table(rng)
        self._num_nodes = num_nodes
        self._rng = rng
        n = len(self._cities)
        self._num_cities = n
        # Flattened row-major city->city delay matrix (32*32 floats).
        flat = [0.0] * (n * n)
        for a in range(n):
            for b in range(a, n):
                _, xa, ya = self._cities[a]
                _, xb, yb = self._cities[b]
                distance = ((xa - xb) ** 2 + (ya - yb) ** 2) ** 0.5
                delay = self.BASE_DELAY_S + self.PER_UNIT_S * distance
                delay *= 1.0 + rng.uniform(0.0, 0.10)
                flat[a * n + b] = delay
                flat[b * n + a] = delay
        self._city_delay_flat = flat

    def _city_index(self, node: int) -> int:
        if node < 0:
            raise ValueError(f"negative node id: {node}")
        return node % self._num_cities

    def city_of(self, node: int) -> str:
        """Name of the city a node id is assigned to (round-robin)."""
        return self._cities[self._city_index(node)][0]

    def delay(self, sender: int, recipient: int) -> float:
        if sender < 0 or recipient < 0:
            raise ValueError(f"negative node id: ({sender}, {recipient})")
        n = self._num_cities
        return self._city_delay_flat[(sender % n) * n + recipient % n]
