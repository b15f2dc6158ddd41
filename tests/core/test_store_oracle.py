"""Oracles for a commitment store: what a peer holds, and its headers.

:class:`~repro.core.commitment.CommitmentStore` keeps a peer's ids as a
position mask over the observer's own log, plus ``extra`` for ids the log
did not hold when they were recorded.  This state machine drives a
:class:`~repro.mempool.TransactionLog` and a store against a plain-set
model -- a list for the log, a set for what the peer holds -- through
appends, id-by-id records (some ids not in the log, some committed after
they were recorded) and full- and partial-range cell-mask records.  After
every step Alg. 1's outdated-peer predicate, the per-id coverage test and
``known_ids()`` must equal the model's answers.

A store also keeps the signer's headers for equivocation detection, with
no per-seq dict until a second header is stored.  A dict-backed reference
store, the algorithm as it was before that, must return the same evidence
and keep the same ``latest`` and anchors over honest headers, same-seq
forks, cross-seq forks and re-observed headers.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.bloomclock import BloomClock
from repro.core.commitment import (
    GENESIS_DIGEST,
    CommitmentStore,
    EquivocationEvidence,
    bundle_digest,
    chain_digest,
    sign_header,
)
from repro.crypto import KeyPair
from repro.mempool import TransactionLog
from repro.mempool.txlog import all_cells

SIGNER_KEYS = KeyPair.generate(seed=b"oracle-peer")
SIGNER = SIGNER_KEYS.public_key
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


class DictStore:
    """The reference: every stored header in a per-seq dict from the start."""

    def __init__(self):
        self.latest = None
        self.by_seq = {}

    def observe(self, header):
        existing = self.by_seq.get(header.seq)
        if existing is not None and existing.digests != header.digests:
            return EquivocationEvidence(SIGNER, existing, header)
        for stored in self.anchors():
            if not stored.consistent_with(header):
                return EquivocationEvidence(SIGNER, stored, header)
        self.by_seq[header.seq] = header
        if self.latest is None or header.seq > self.latest.seq:
            self.latest = header
        return None

    def anchors(self):
        if not self.by_seq:
            return []
        seqs = sorted(self.by_seq)
        return [self.by_seq[s] for s in {seqs[0], seqs[-1]}]


HONEST = [[1], [2, 3], [4], [5], [6, 7], [8]]


def _header(seq, fork_at, extra):
    """The honest chain cut at ``seq``, its bundle ``fork_at`` replaced.

    ``extra`` adds an uncommitted id to the clock only, so the digests are
    the honest ones and the clock dominates theirs.
    """
    bundles = [list(ids) for ids in HONEST[:seq]]
    if fork_at is not None and fork_at < seq:
        bundles[fork_at] = [100 + fork_at]
    clock = BloomClock(cells=CELLS)
    digests = []
    digest = GENESIS_DIGEST
    for ids in bundles:
        clock.add_all(ids)
        digest = chain_digest(digest, bundle_digest(ids))
        digests.append(digest)
    if extra:
        clock.add(999)
    return sign_header(SIGNER_KEYS, seq, sum(map(len, bundles)), digests,
                       clock)


headers = st.tuples(
    st.integers(0, len(HONEST)),                        # seq
    st.one_of(st.none(), st.integers(0, len(HONEST))),  # fork_at
    st.booleans(),                                      # clock-only extra
    st.booleans(),                                      # re-observe object
)


@given(st.lists(headers, min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_a_lazy_store_keeps_what_a_dict_store_keeps(specs):
    lazy = CommitmentStore(SIGNER, TransactionLog(clock_cells=CELLS))
    reference = DictStore()
    made = {}
    for seq, fork_at, extra, again in specs:
        key = (seq, fork_at, extra)
        header = made.get(key) if again else None
        if header is None:
            header = made[key] = _header(seq, fork_at, extra)
        got, want = lazy.observe(header), reference.observe(header)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert got.header_a is want.header_a
            assert got.header_b is want.header_b
        assert lazy.latest is reference.latest
        assert [id(h) for h in lazy._anchors()] == \
            [id(h) for h in reference.anchors()]
        assert lazy.by_seq is None or lazy.by_seq == reference.by_seq
        assert lazy.seq == (reference.latest.seq if reference.latest else 0)
