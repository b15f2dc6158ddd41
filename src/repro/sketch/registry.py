"""Candidate roots that carry their power rows.

:class:`CandidateRegistry` is an ordered, deduplicated, optionally bounded
set of ids -- a simulation's committed sketch ids
(:class:`repro.core.node.Directory`) -- that a decoder tests as roots
(:meth:`repro.sketch.gf.GF2Tower32.roots_among`).  Testing ``q(c) == 0``
for every id ``c`` is ``sum_j q_j c^j``: the powers ``c^j`` depend only on
the id, so the registry keeps them, as the three GF(2^16) subfield logs
(hi, lo, hi ^ lo) of each tower element ``c^0 .. c^w``.  A test is then
one broadcast product against the locator's coefficient logs, whatever
its degree.

* A row is built once per id, the first time a test meets it (ids that
  are committed but never tested cost nothing), and kept until the id is
  evicted.
* The width ``w`` grows lazily to the highest degree ever tested, at
  least doubling each time, and every kept row is extended, not rebuilt.
* Ids outside ``[1, 2^32)`` are kept for order and membership but get no
  row: they are no element of the tower field and are never reported.

Iteration, ``len`` and ``in`` see the ids in first-insertion order; the
generic :meth:`repro.sketch.gf.GF2m.roots_among` and the pure-Python
fallback read the registry only that way.  Rows need numpy and are built
only on the numpy path.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Tuple

try:
    import numpy as _np
except ImportError:  # pragma: no cover - rows are then never built
    _np = None

if TYPE_CHECKING:  # pragma: no cover
    from repro.sketch.gf import GF2Tower32

#: Ids at or above this bound are no GF(2^32) element and get no row.
_ELEMENT_BOUND = 1 << 32


class CandidateRegistry:
    """Ids in first-insertion order, each once, the newest ``limit`` of them.

    >>> registry = CandidateRegistry([5, 7, 5], limit=2)
    >>> registry.add_many([9])
    >>> list(registry), len(registry), 5 in registry
    ([7, 9], 2, False)
    """

    def __init__(self, ids: Iterable[int] = (), limit: Optional[int] = None):
        self.limit = limit
        self._slot_of: "OrderedDict[int, Optional[int]]" = OrderedDict()
        self._values: List[int] = []   # slot -> id; 0 marks a free slot
        self._free: List[int] = []
        self._pending: List[int] = []  # slots whose row is not built yet
        self._rows = None              # intp (width + 1, 3, slots)
        self._width = -1
        self.add_many(ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self._slot_of)

    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, value: object) -> bool:
        return value in self._slot_of

    def add_many(self, ids: Iterable[int]) -> None:
        """Append the ids not held yet; past ``limit`` the oldest go."""
        slot_of = self._slot_of
        limit = self.limit
        for value in ids:
            if value in slot_of:
                continue
            if limit is not None and len(slot_of) >= limit:
                _, slot = slot_of.popitem(last=False)
                if slot is not None:
                    self._values[slot] = 0
                    self._free.append(slot)
            slot = None
            if 0 < value < _ELEMENT_BOUND:
                if self._free:
                    slot = self._free.pop()
                    self._values[slot] = value
                else:
                    slot = len(self._values)
                    self._values.append(value)
                self._pending.append(slot)
            slot_of[value] = slot

    def block(
        self, field: "GF2Tower32", degree: int
    ) -> Tuple[object, List[int]]:
        """``(logs, values)`` for a test of a degree-``degree`` polynomial.

        ``logs[j, k, i]`` is subfield log ``k`` (hi, lo, hi ^ lo) of
        ``values[i] ** j`` for ``j <= degree``, as ``intp`` (numpy gathers
        with it as they are); a ``values`` entry of 0 is a free slot,
        whose row is stale and must not be reported.
        """
        rows, width = self._rows, self._width
        if degree > width:
            self._grow(field, max(degree, 2 * width))
        elif len(self._values) > rows.shape[2]:
            self._grow(field, width)
        if self._pending:
            slots = sorted(set(self._pending))
            self._pending = []
            self._build(field, [s for s in slots if self._values[s]])
        return self._rows[:degree + 1, :, :len(self._values)], self._values

    def _build(self, field: "GF2Tower32", slots: List[int]) -> None:
        """Fill the rows of ``slots`` (each built once per id)."""
        if slots:
            self._rows[:, :, slots] = _np.array([
                _power_logs(field, self._values[s], 0, self._width + 1)
                for s in slots
            ]).transpose(2, 1, 0)

    def _grow(self, field: "GF2Tower32", width: int) -> None:
        """Room for every slot and powers up to ``width``; extend kept rows."""
        old, old_width = self._rows, self._width
        rows = _np.zeros((width + 1, 3, max(16, 2 * len(self._values))),
                         dtype=_np.intp)
        if old is not None:
            rows[:old_width + 1, :, :old.shape[2]] = old
        self._rows, self._width = rows, width
        if old is None or width == old_width:
            return
        pending = set(self._pending)
        kept = [s for s, value in enumerate(self._values)
                if value and s not in pending]
        if kept:
            rows[old_width + 1:, :, kept] = _np.array([
                _power_logs(field, self._values[s], old_width + 1, width + 1)
                for s in kept
            ]).transpose(2, 1, 0)


def _power_logs(
    field: "GF2Tower32", c: int, start: int, stop: int
) -> Tuple[List[int], List[int], List[int]]:
    """Subfield logs (hi, lo, hi ^ lo) of ``c^start .. c^(stop-1)``."""
    exp, log, lc = field._sub_exp, field._sub_log, field._log_c
    k1, k0 = log[c >> 16], log[c & 0xFFFF]
    kx = log[(c >> 16) ^ (c & 0xFFFF)]
    power = field.pow(c, start)
    out1: List[int] = []
    out0: List[int] = []
    outx: List[int] = []
    for _ in range(start, stop):
        p1, p0 = power >> 16, power & 0xFFFF
        l1, l0, lx = log[p1], log[p0], log[p1 ^ p0]
        out1.append(l1)
        out0.append(l0)
        outx.append(lx)
        m0 = exp[l0 + k0]
        power = ((exp[lx + kx] ^ m0) << 16) | (
            m0 ^ exp[log[exp[l1 + k1]] + lc]
        )
    return out1, out0, outx
