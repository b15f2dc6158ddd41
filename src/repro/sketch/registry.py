"""Candidate ids and the GF(2) bases that decode a difference among them.

:class:`CandidateRegistry` is an ordered, deduplicated, optionally bounded
set of ids -- a simulation's committed sketch ids
(:class:`repro.core.node.Directory`) -- that a decoder expects a sketch
difference to be among.

A capacity-``t`` PinSketch over GF(2^m) is a GF(2)-linear function of its
set: its packed syndrome vector
(:attr:`~repro.sketch.pinsketch.PinSketch.packed`, ``m*t`` bits) is the
XOR of its elements' packed vectors
(:func:`~repro.sketch.pinsketch.sketch_syndromes_packed`).  A difference
among known ids is therefore a *combination* of their vectors, and one
Gaussian elimination over GF(2) finds it
(:meth:`CandidateRegistry.combination`):

* The registry keeps one echelon basis per ``(capacity, m)`` that a decode
  asks for.  A row is a packed vector, keyed by its highest bit, and the
  bitmask of the registry ids it combines.
* Ids join a basis at its next decode, one reduction each.
* A basis covers the newest ``min(MAX_CANDIDATES, m*t // 2)`` ids.  That
  is half the bits the sketch carries, so the rows stay independent (a
  hash-derived id's vector falls into the span of the others with
  probability at most ``2^(-m*t/4)``), and a reduction is at most ``m*t``
  row XORs.  Ids that slide out of that window stay rows, unused, until a
  rebuild; one rebuild per half a window of new ids keeps the cost per
  added id amortised ``O(m*t)``.  A dependent id only costs a search:
  no combination is reported unless it is the only one of at most ``t``
  ids.
* Ids that are no element of GF(2^m) -- outside ``[1, 2^m)``, or not an
  ``int`` -- get no row in its bases and are never reported.

Iteration, ``len`` and ``in`` see the ids in first-insertion order.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.sketch.pinsketch import sketch_syndromes_packed

#: Most ids a basis covers, and the newest ids a simulation's registry
#: keeps (:class:`repro.core.node.Directory`): a basis of capacity 64 or
#: more over GF(2^32) covers the whole registry.
MAX_CANDIDATES = 1024


class _Basis:
    """One echelon basis over the packed vectors of ``(capacity, m)``."""

    __slots__ = ("capacity", "m", "window", "vectors", "masks", "ids",
                 "synced")

    def __init__(self, capacity: int, m: int):
        self.capacity, self.m = capacity, m
        self.window = min(MAX_CANDIDATES, m * capacity // 2)
        self.synced = 0  # the registry's insertion count seen
        self.clear()

    def clear(self) -> None:
        """Drop every row and id."""
        bits = self.m * self.capacity
        self.vectors = [0] * (bits + 1)  # bit_length of a row -> the row
        self.masks = [0] * (bits + 1)    # ... and the ids it combines
        self.ids: List[int] = []  # bit i of a mask stands for ids[i]

    def extend(self, fresh: List[int]) -> None:
        """Reduce each id's vector into the basis (one new row unless the
        vector is a combination of the rows already there)."""
        vectors, masks, ids = self.vectors, self.masks, self.ids
        capacity, m = self.capacity, self.m
        bound = 1 << m
        bit = 1 << len(ids)
        for value in fresh:
            ids.append(value)
            if type(value) is int and 0 < value < bound:
                vector = sketch_syndromes_packed(value, capacity, m)
                mask = bit
                while vector:
                    top = vector.bit_length()
                    row = vectors[top]
                    if not row:
                        vectors[top], masks[top] = vector, mask
                        break
                    vector ^= row
                    mask ^= masks[top]
            bit <<= 1


class CandidateRegistry:
    """Ids in first-insertion order, each once, the newest ``limit`` of them.

    >>> registry = CandidateRegistry([5, 7, 5], limit=2)
    >>> registry.add_many([9])
    >>> list(registry), len(registry), 5 in registry
    ([7, 9], 2, False)

    A difference among the ids is read off their syndrome vectors:

    >>> from repro.sketch import sketch_syndromes_packed
    >>> def packed(*ids):  # the capacity-4 sketch of ``ids`` over GF(2^16)
    ...     vector = 0
    ...     for x in ids:
    ...         vector ^= sketch_syndromes_packed(x, 4, 16)
    ...     return vector
    >>> sorted(registry.combination(packed(7, 9), 4, 16))
    [7, 9]
    >>> registry.combination(packed(5, 9), 4, 16) is None  # 5 was evicted
    True
    """

    def __init__(self, ids: Iterable[int] = (), limit: Optional[int] = None):
        self.limit = limit
        self._ids: "OrderedDict[int, None]" = OrderedDict()
        self._added = 0  # ids ever inserted: a basis syncs from here
        self._bases: Dict[Tuple[int, int], _Basis] = {}
        self.add_many(ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, value: object) -> bool:
        return value in self._ids

    def add_many(self, ids: Iterable[int]) -> None:
        """Append the ids not held yet; past ``limit`` the oldest go."""
        held = self._ids
        limit = self.limit
        for value in ids:
            if value in held:
                continue
            if limit is not None and len(held) >= limit:
                held.popitem(last=False)
            held[value] = None
            self._added += 1

    def combination(
        self, packed: int, capacity: int, m: int
    ) -> Optional[Set[int]]:
        """The ids whose packed vectors XOR to ``packed``, if at most
        ``capacity`` of the newest ``min(MAX_CANDIDATES, m*capacity // 2)``
        do; ``None`` otherwise.

        One reduction of ``packed`` against the ``(capacity, m)`` basis,
        after the ids inserted since its last call have joined it.  The
        rows are independent, so the combination is the only one within
        the basis.
        """
        if packed >> (m * capacity):
            return None  # a slot wider than the field: no set's sketch
        basis = self._bases.get((capacity, m))
        if basis is None:
            basis = self._bases[(capacity, m)] = _Basis(capacity, m)
        if basis.synced != self._added:
            self._sync(basis)
        vectors, masks = basis.vectors, basis.masks
        mask = 0
        while packed:
            top = packed.bit_length()
            row = vectors[top]
            if not row:
                return None
            packed ^= row
            mask ^= masks[top]
        ids = basis.ids
        # Bits below ``stale`` stand for ids that left the window.
        stale = len(ids) - min(basis.window, len(self._ids))
        if mask & ((1 << stale) - 1):
            return None
        found: Set[int] = set()
        while mask:
            if len(found) == capacity:
                return None
            low = mask & -mask
            found.add(ids[low.bit_length() - 1])
            mask ^= low
        return found

    def _sync(self, basis: _Basis) -> None:
        """Let the ids inserted since ``basis.synced`` join the basis.

        When the basis would then hold more than half a window of ids
        outside the window, it is rebuilt from the window alone.
        """
        window = min(basis.window, len(self._ids))
        new = min(self._added - basis.synced, window)
        if len(basis.ids) + new > window + window // 2:
            basis.clear()
            new = window
        fresh = list(islice(reversed(self._ids), new))
        fresh.reverse()
        basis.extend(fresh)
        basis.synced = self._added
