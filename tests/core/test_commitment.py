"""Unit tests for signed commitments and commitment stores."""

import pytest

from repro.bloomclock import BloomClock
from repro.core.commitment import (
    BundleInfo,
    CommitmentHeader,
    CommitmentStore,
    GENESIS_DIGEST,
    bundle_digest,
    chain_digest,
    header_wire_size,
    sign_header,
)
from repro.crypto import KeyPair
from repro.mempool import TransactionLog

KP = KeyPair.generate(seed=b"committer")


def make_header(bundles, keypair=KP, clock=None, tamper_last=False):
    """Signed header over a list of bundle id-lists."""
    if clock is None:
        clock = BloomClock()
        for ids in bundles:
            clock.add_all(ids)
    digests = []
    digest = GENESIS_DIGEST
    for ids in bundles:
        digest = chain_digest(digest, bundle_digest(ids))
        digests.append(digest)
    if tamper_last and digests:
        digests[-1] = chain_digest(digests[-1], b"fork")
    return sign_header(
        keypair,
        seq=len(bundles),
        tx_count=sum(len(ids) for ids in bundles),
        digests=digests,
        clock=clock,
    )


def test_signed_header_verifies():
    header = make_header([[1, 2], [3]])
    assert header.signature_valid()
    assert header.seq == 2
    assert header.tx_count == 3


def test_tampered_header_fails():
    header = make_header([[1, 2]])
    forged = CommitmentHeader(
        signer=header.signer,
        seq=header.seq + 1,
        tx_count=header.tx_count,
        digests=header.digests + (b"x" * 32,),
        clock=header.clock,
        signature=header.signature,
    )
    assert not forged.signature_valid()


def test_bundle_digest_is_order_insensitive():
    assert bundle_digest([1, 2, 3]) == bundle_digest([3, 1, 2])
    assert bundle_digest([1, 2]) != bundle_digest([1, 2, 3])


def test_prefix_consistency():
    older = make_header([[1, 2]])
    newer = make_header([[1, 2], [3, 4]])
    assert older.is_prefix_of(newer)
    assert not newer.is_prefix_of(older)
    assert older.consistent_with(newer)
    assert newer.consistent_with(older)


def test_forked_histories_are_inconsistent():
    a = make_header([[1, 2], [3]])
    b = make_header([[1, 2], [4]])
    assert not a.consistent_with(b)


def test_clock_regression_is_inconsistent():
    # An extension whose clock fails to dominate the earlier header's
    # clock proves a non-append-only history even when digests line up.
    bundles = [[10, 20]]
    honest = make_header(bundles)
    bigger = make_header(bundles + [[30]])
    assert honest.consistent_with(bigger)
    inflated = make_header(bundles, clock=_inflated_clock())
    assert not bigger.consistent_with(inflated)


def _inflated_clock():
    clock = BloomClock()
    for i in range(1, 2000):
        clock.add(i)
    return clock


def test_consistency_requires_same_signer():
    other = KeyPair.generate(seed=b"other")
    with pytest.raises(ValueError):
        make_header([[1]]).consistent_with(make_header([[1]], keypair=other))


def test_wire_size_constant():
    small = make_header([[1]])
    large = make_header([[i] for i in range(1, 40)])
    assert small.wire_size() == large.wire_size() == header_wire_size(32)


def test_store_accepts_consistent_sequence():
    store = CommitmentStore(KP.public_key, TransactionLog())
    assert store.observe(make_header([[1]])) is None
    assert store.observe(make_header([[1], [2]])) is None
    assert store.seq == 2
    assert store.latest.seq == 2


def test_store_detects_same_seq_fork():
    store = CommitmentStore(KP.public_key, TransactionLog())
    store.observe(make_header([[1], [2]]))
    evidence = store.observe(make_header([[1], [3]]))
    assert evidence is not None
    assert evidence.verify()
    assert evidence.accused == KP.public_key


def test_store_detects_history_rewrite():
    store = CommitmentStore(KP.public_key, TransactionLog())
    store.observe(make_header([[1], [2]]))
    # A "newer" header whose prefix disagrees with what we stored.
    evidence = store.observe(make_header([[9], [2], [3]]))
    assert evidence is not None
    assert evidence.verify()


def test_store_out_of_order_observation_ok():
    store = CommitmentStore(KP.public_key, TransactionLog())
    assert store.observe(make_header([[1], [2], [3]])) is None
    assert store.observe(make_header([[1]])) is None  # older but consistent
    assert store.seq == 3


def test_store_rejects_foreign_signer():
    store = CommitmentStore(KP.public_key, TransactionLog())
    other = KeyPair.generate(seed=b"foreign")
    with pytest.raises(ValueError):
        store.observe(make_header([[1]], keypair=other))


def test_store_known_ids_accumulate():
    log = TransactionLog()
    log.append_many([1, 2])
    store = CommitmentStore(KP.public_key, log)
    store.record_ids([1, 2])
    store.record_ids([2, 3])  # 3 is not in the observer's log
    assert store.known_ids() == {1, 2, 3}
    assert store.held == 0b11 and store.extra == {3}


def test_store_folds_an_id_recorded_before_the_log_committed_it():
    log = TransactionLog()
    log.append(1)
    store = CommitmentStore(KP.public_key, log)
    store.record_ids([1, 2])
    log.append(2)
    assert store.holds(2)
    assert not store.outdated()
    assert store.held == 0b11 and store.known_ids() == {1, 2}


def test_evidence_for_honest_pair_does_not_verify():
    from repro.core.commitment import EquivocationEvidence

    a = make_header([[1]])
    b = make_header([[1], [2]])
    bogus = EquivocationEvidence(accused=KP.public_key, header_a=a, header_b=b)
    assert not bogus.verify()


def test_bundle_info_digest():
    bundle = BundleInfo(index=0, ids=(5, 1), source_peer=None, committed_at=0.0)
    assert bundle.digest == bundle_digest([1, 5])


# ------------------------------------------------- sketch-based consistency


def _sketch_of(ids, capacity=16):
    from repro.sketch import PinSketch

    sketch = PinSketch(capacity, 32)
    sketch.add_all(ids)
    return sketch


def test_sketch_consistency_accepts_pure_growth():
    from repro.core.commitment import sketch_history_consistent

    older = {101, 202, 303}
    newer = older | {404, 505}
    assert sketch_history_consistent(
        _sketch_of(older), _sketch_of(newer), len(older), len(newer)
    )


def test_sketch_consistency_detects_removal():
    from repro.core.commitment import sketch_history_consistent

    older = {101, 202, 303}
    newer = {101, 202}  # dropped 303
    assert not sketch_history_consistent(
        _sketch_of(older), _sketch_of(newer), len(older), len(newer)
    )


def test_sketch_consistency_detects_swap_with_matching_counts():
    from repro.core.commitment import sketch_history_consistent

    older = {101, 202, 303}
    newer = {101, 202, 999}  # removed 303, added 999: counts line up
    assert not sketch_history_consistent(
        _sketch_of(older), _sketch_of(newer), 3, 3
    )


def test_sketch_consistency_identical_histories():
    from repro.core.commitment import sketch_history_consistent

    items = {7, 8, 9}
    assert sketch_history_consistent(_sketch_of(items), _sketch_of(items), 3, 3)


def test_sketch_consistency_shrinking_count_rejected():
    from repro.core.commitment import sketch_history_consistent

    assert not sketch_history_consistent(
        _sketch_of({1, 2}), _sketch_of({1}), 2, 1
    )


def test_sketch_consistency_matches_live_node_history():
    from repro.core.commitment import sketch_history_consistent
    from tests.conftest import make_sim

    sim = make_sim(num_nodes=6)
    node = sim.nodes[0]
    snapshots = []

    def snap():
        snapshots.append((node.log.full_sketch(capacity=32), len(node.log)))

    for i in range(4):
        sim.inject_at(0.2 + 0.4 * i, i % 6, fee=10)
        sim.loop.call_at(0.3 + 0.4 * i, snap)
    sim.run(8.0)
    snap()
    for (s_old, c_old), (s_new, c_new) in zip(snapshots, snapshots[1:]):
        assert sketch_history_consistent(s_old, s_new, c_old, c_new)
