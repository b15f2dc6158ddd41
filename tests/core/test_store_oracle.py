"""Oracle for what a commitment store knows a peer holds.

:class:`~repro.core.commitment.CommitmentStore` keeps a peer's ids as a
position mask over the observer's own log, plus ``extra`` for ids the log
did not hold when they were recorded.  This state machine drives a
:class:`~repro.mempool.TransactionLog` and a store against a plain-set
model -- a list for the log, a set for what the peer holds -- through
appends, id-by-id records (some ids not in the log, some committed after
they were recorded) and full- and partial-range cell-mask records.  After
every step Alg. 1's outdated-peer predicate, the per-id coverage test and
``known_ids()`` must equal the model's answers.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.commitment import CommitmentStore
from repro.crypto import KeyPair
from repro.mempool import TransactionLog
from repro.mempool.txlog import all_cells

SIGNER = KeyPair.generate(seed=b"oracle-peer").public_key
CELLS = 4
POOL = range(1, 41)
IDS = st.integers(min_value=POOL.start, max_value=POOL.stop - 1)


class StoreAgainstSets(RuleBasedStateMachine):
    """A log and a store, stepped beside a list and a set."""

    def __init__(self):
        super().__init__()
        self.log = TransactionLog(clock_cells=CELLS, sketch_capacity=4)
        self.store = CommitmentStore(SIGNER, self.log)
        self.order = []     # the model log
        self.known = set()  # the model of what the peer holds

    def _append(self, sketch_id):
        self.log.append(sketch_id)
        if sketch_id not in self.order:
            self.order.append(sketch_id)

    @rule(sketch_id=IDS)
    def append(self, sketch_id):
        self._append(sketch_id)

    @rule(ids=st.lists(IDS, max_size=6))
    def record_ids(self, ids):
        self.store.record_ids(ids)
        self.known.update(ids)

    @precondition(lambda self: not self.known.issubset(self.order))
    @rule(data=st.data())
    def commit_a_recorded_id(self, data):
        outside = sorted(self.known.difference(self.order))
        self._append(data.draw(st.sampled_from(outside)))

    @rule(cells=st.sets(st.integers(0, CELLS - 1), min_size=1))
    def record_cells(self, cells):
        cells = tuple(sorted(cells))
        self.store.record_mask(self.log.mask_for_cells(cells))
        cell_of = self.log.clock.cell_of
        self.known.update(i for i in self.order if cell_of(i) in cells)

    @rule()
    def record_full_range(self):
        self.store.record_mask(self.log.mask_for_cells(all_cells(CELLS)))
        self.known.update(self.order)

    @invariant()
    def answers_as_the_sets_do(self):
        store = self.store
        assert list(self.log.order) == self.order
        assert store.held.bit_length() <= len(self.log)
        assert store.known_ids() == self.known
        for sketch_id in POOL:
            assert store.holds(sketch_id) == (sketch_id in self.known)
        outdated = any(i not in self.known for i in self.order)
        assert store.outdated() == outdated
        # Folding ``extra`` into the mask changes no answer.
        assert store.known_ids() == self.known
        assert store.outdated() == outdated


StoreAgainstSets.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
test_store_matches_the_set_model = StoreAgainstSets.TestCase
