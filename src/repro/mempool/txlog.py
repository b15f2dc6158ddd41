"""The secure append-only transaction log ("mempool data structure").

Every miner "includes all valid transactions it encountered during the
system run in its locally maintained append-only transactions set"
(section 4.1, Inclusion of All Transactions), in the order they were
received (Transaction Selection in Received Order).  The log is therefore
an ordered, append-only sequence of transaction ids, with:

* the node's :class:`~repro.bloomclock.BloomClock` over the same ids;
* one incremental sketch per Bloom-Clock cell, held as the packed int a
  :class:`~repro.sketch.PinSketch` holds (m bits per slot), so a sketch
  restricted to any flagged cell subset is one int XOR per cell and one
  mask (sketches are linear, and slot-wise XOR never carries) -- this is
  how commitments stay cheap to produce;
* one position mask per Bloom-Clock cell (bit ``p`` set when
  ``order[p]`` maps to the cell), so the ids of any cell slice are one int
  OR per cell as positions -- what a peer is known to hold is recorded
  this way (:class:`~repro.core.commitment.CommitmentStore`), and a cell's
  ids are read back from its mask (there is no per-cell id list; the
  clock's counters are the per-cell counts);
* content storage: ids can be committed before their transaction bytes
  arrive ("share the transaction IDs, and only later selectively share the
  transaction content", section 2.3 stage II).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.bloomclock import BloomClock
from repro.empty import EMPTY_MAP
from repro.mempool.transaction import Transaction
from repro.sketch import PinSketch, sketch_syndromes_packed


@lru_cache(maxsize=8)
def all_cells(clock_cells: int) -> Tuple[int, ...]:
    """``(0, ..., clock_cells - 1)``, one tuple shared by every log."""
    return tuple(range(clock_cells))


class TransactionLog:
    """Append-only, insertion-ordered record of observed transactions."""

    __slots__ = ("clock", "sketch_capacity", "sketch_bits", "_order",
                 "_position", "_content", "_invalid", "_cell_masks",
                 "_no_content", "_cell_packed", "_full_packed", "_all_cells")

    def __init__(self, clock_cells: int = 32, sketch_capacity: int = 100,
                 sketch_bits: int = 32):
        self.clock = BloomClock(cells=clock_cells)
        self.sketch_capacity = sketch_capacity
        self.sketch_bits = sketch_bits
        # Every container starts as the shared empty (``()`` or
        # :data:`~repro.empty.EMPTY_MAP`, see :mod:`repro.empty`): at paper
        # scale most logs stay empty for most of the run.  The first
        # append makes the five it always writes.
        self._order: Sequence[int] = ()          # sketch ids, received order
        self._position: Dict[int, int] = EMPTY_MAP   # sketch id -> index
        self._content: Dict[int, Transaction] = EMPTY_MAP
        # Ids whose content failed validation (a dict used as a set).
        self._invalid: Dict[int, None] = EMPTY_MAP
        # cell -> position mask of that cell's ids: a cell slice as
        # positions is one OR per cell, and a cell's ids are its mask's
        # bits read against ``_order``.
        self._cell_masks: Dict[int, int] = EMPTY_MAP
        # Committed ids whose content has not arrived, in log order (the
        # values are unused): the per-tick hole scan reads only these.
        self._no_content: Dict[int, None] = EMPTY_MAP
        # Per-cell and whole-log sketches as packed ints (PinSketch.packed
        # at ``sketch_capacity``): an append is two int XORs, a cell-subset
        # combine one int XOR per cell.  Nothing is memoised on top: a
        # combine costs about what validating a memo entry would.  The
        # per-cell list is made by the first append too: an empty log's
        # sketches are all 0, which ``_full_packed`` already says.
        self._cell_packed: Sequence[int] = ()
        self._full_packed: int = 0
        self._all_cells = all_cells(clock_cells)

    # --------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, sketch_id: int) -> bool:
        return sketch_id in self._position

    @property
    def order(self) -> Sequence[int]:
        """All committed ids in received order (do not mutate)."""
        return self._order

    def position(self, sketch_id: int) -> Optional[int]:
        """Insertion index of an id, or None when unknown."""
        return self._position.get(sketch_id)

    def ids_after(self, index: int) -> List[int]:
        """Ids appended at or after ``index`` (used to diff commitments)."""
        return list(self._order[index:])

    def known_ids(self) -> Set[int]:
        """Set view of every committed id."""
        return set(self._position)

    def content_of(self, sketch_id: int) -> Optional[Transaction]:
        """Stored transaction bytes for an id, if they have arrived."""
        return self._content.get(sketch_id)

    def missing_content(self) -> List[int]:
        """Committed ids whose transaction content has not arrived yet.

        In log order; the cost is the number of holes, not the log length.
        """
        return list(self._no_content)

    def is_invalid(self, sketch_id: int) -> bool:
        """Whether the id's content failed validation on arrival."""
        return sketch_id in self._invalid

    # -------------------------------------------------------------- mutation

    def append(self, sketch_id: int) -> bool:
        """Commit to an id at the tail of the log.

        Returns False (and does nothing) when the id is already present:
        the log is a set as well as a sequence, and re-announcements must
        not move a transaction's committed position.
        """
        if sketch_id in self._position:
            return False
        order = self._order
        if not order:
            order = self._order = []
            self._position = {}
            self._no_content = {}
            self._cell_masks = {}
            self._cell_packed = [0] * self.clock.cells
        position = len(order)
        self._position[sketch_id] = position
        order.append(sketch_id)
        self._no_content[sketch_id] = None
        self.clock.add(sketch_id)
        cell = self.clock.cell_of(sketch_id)
        masks = self._cell_masks
        masks[cell] = masks.get(cell, 0) | (1 << position)
        # One packed-vector fetch feeds both the cell and whole-log
        # sketches; each update is a single big-integer XOR.  An empty
        # sketch takes the cached int itself: ``0 ^ packed`` is a new
        # int as wide as the sketch.
        packed = sketch_syndromes_packed(sketch_id, self.sketch_capacity,
                                         self.sketch_bits)
        cell_packed = self._cell_packed
        held = cell_packed[cell]
        cell_packed[cell] = held ^ packed if held else packed
        held = self._full_packed
        self._full_packed = held ^ packed if held else packed
        return True

    def append_many(self, sketch_ids: Iterable[int]) -> List[int]:
        """Append a bundle of ids, preserving their order; returns new ones."""
        added = []
        for sketch_id in sketch_ids:
            if self.append(sketch_id):
                added.append(sketch_id)
        return added

    def add_content(self, tx: Transaction, valid: bool = True) -> None:
        """Attach transaction bytes to a committed id.

        ``valid=False`` marks the content as failing prevalidation; the id
        stays in the log (commitments are append-only) but block building
        and inspection both treat it as excluded (section 4.3).
        """
        sketch_id = tx.sketch_id
        if sketch_id not in self._position:
            raise KeyError(f"id {sketch_id} was never committed to this log")
        if self._content is EMPTY_MAP:
            self._content = {}
        self._content[sketch_id] = tx
        self._no_content.pop(sketch_id, None)
        if not valid:
            if self._invalid is EMPTY_MAP:
                self._invalid = {}
            self._invalid[sketch_id] = None

    # ------------------------------------------------------------- sketching

    def sketch_for_cells(
        self, cells: Iterable[int], capacity: Optional[int] = None
    ) -> PinSketch:
        """Sketch of all ids whose Bloom-Clock cell is in ``cells``.

        Cheap: per-cell sketches are maintained incrementally and XOR
        (linearity) combines them; ``capacity`` (<= the maintained maximum)
        truncates to the requested size.
        """
        capacity = self._capacity(capacity)
        cell_packed = self._cell_packed
        if not cell_packed or self.spans_every_cell(cells):
            # XOR over every cell == the maintained whole-log sketch (0
            # while the log is empty).
            packed = self._full_packed
        else:
            packed = 0
            for cell in cells:
                packed ^= cell_packed[cell]
        return PinSketch.from_packed(packed, capacity, self.sketch_bits)

    def full_sketch(self, capacity: Optional[int] = None) -> PinSketch:
        """Sketch of the entire log."""
        return self.sketch_for_cells(self._all_cells, capacity)

    def _capacity(self, capacity: Optional[int]) -> int:
        """``capacity``, by default the maintained one, which it may not
        exceed: a peer's sketch names the capacity a responder builds."""
        capacity = capacity or self.sketch_capacity
        if capacity > self.sketch_capacity:
            raise ValueError(
                f"capacity {capacity} exceeds maintained {self.sketch_capacity}"
            )
        return capacity

    def spans_every_cell(self, cells: Iterable[int]) -> bool:
        """Whether ``cells`` is ``(0, ..., clock_cells - 1)``, in that order.

        :func:`repro.core.reconciliation.full_range_spec` carries this
        log's own tuple, so the usual full-range request is an identity hit.
        """
        all_cells = self._all_cells
        return cells is all_cells or cells == all_cells

    def cell_counts(self, cells: Iterable[int]) -> Dict[int, int]:
        """Ids per cell of ``cells``, for the cells that hold any.

        A cell with no ids is left out rather than counted as 0.  The
        log's clock counts exactly its own ids per cell, so this reads
        the clock's counters.
        """
        counters = self.clock.counters
        if self.spans_every_cell(cells):
            return {cell: count for cell, count in enumerate(counters) if count}
        return {cell: counters[cell] for cell in cells if counters[cell]}

    def items_in_cells(self, cells: Iterable[int]) -> List[int]:
        """All ids mapping into the given Bloom-Clock cells (a new list).

        Cells are walked in the order given, each one's ids in received
        order: a cell's position mask read lowest bit first.
        """
        order = self._order
        masks = self._cell_masks
        items: List[int] = []
        for cell in cells:
            mask = masks.get(cell, 0)
            while mask:
                low = mask & -mask
                items.append(order[low.bit_length() - 1])
                mask ^= low
        return items

    def mask_for_cells(self, cells: Iterable[int]) -> int:
        """Positions of the ids in ``cells`` as a mask: bit ``p`` is ``order[p]``.

        One OR per cell; a full range (:meth:`spans_every_cell`) is every
        position below ``len(self)``.  The log is append-only, so a mask
        taken now keeps naming the same ids later.
        """
        if self.spans_every_cell(cells):
            return (1 << len(self._order)) - 1
        masks = self._cell_masks
        mask = 0
        for cell in cells:
            mask |= masks.get(cell, 0)
        return mask

    def mask_of(self, ids: Iterable[int]) -> int:
        """Positions of ``ids`` as a mask; every id must be in the log."""
        position = self._position
        mask = 0
        for sketch_id in ids:
            mask |= 1 << position[sketch_id]
        return mask

    def subset_sketch(
        self, ids: Iterable[int], capacity: Optional[int] = None
    ) -> PinSketch:
        """Ad-hoc sketch over explicit ids (partition-fallback path)."""
        sketch = PinSketch(self._capacity(capacity), self.sketch_bits)
        sketch.add_all(ids)
        return sketch
