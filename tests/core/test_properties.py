"""Hypothesis property tests on core protocol invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloomclock import BloomClock
from repro.core.commitment import (
    CommitmentStore,
    GENESIS_DIGEST,
    bundle_digest,
    chain_digest,
    sign_header,
)
from repro.core.commitment import BundleInfo
from repro.core.ordering import canonical_order, shuffle_bundle
from repro.crypto import KeyPair
from repro.mempool import TransactionLog

KP = KeyPair.generate(seed=b"prop-signer")

bundle_lists = st.lists(
    st.lists(
        st.integers(min_value=1, max_value=2 ** 32 - 1),
        min_size=1, max_size=6, unique=True,
    ),
    min_size=0, max_size=6,
)
hashes = st.binary(min_size=32, max_size=32)


def header_for(bundles):
    clock = BloomClock()
    digests = []
    digest = GENESIS_DIGEST
    for ids in bundles:
        clock.add_all(ids)
        digest = chain_digest(digest, bundle_digest(ids))
        digests.append(digest)
    return sign_header(
        KP, len(bundles), sum(len(b) for b in bundles), digests, clock
    )


@given(bundles=bundle_lists)
@settings(max_examples=60)
def test_prefix_headers_are_always_consistent(bundles):
    """Every prefix of an honest history is consistent with the full one."""
    full = header_for(bundles)
    for cut in range(len(bundles) + 1):
        prefix = header_for(bundles[:cut])
        assert prefix.consistent_with(full)
        assert full.consistent_with(prefix)


@given(bundles=bundle_lists, extra=st.integers(min_value=1, max_value=2 ** 32 - 1))
@settings(max_examples=60)
def test_store_never_flags_honest_growth(bundles, extra):
    """Observing an honest, growing history never produces evidence."""
    store = CommitmentStore(KP.public_key, TransactionLog())
    history = []
    for ids in bundles + [[extra]]:
        history.append([i for i in ids if all(i not in b for b in history)])
        if not history[-1]:
            history.pop()
            continue
        assert store.observe(header_for(history)) is None


@given(bundles=bundle_lists, prev=hashes)
@settings(max_examples=60)
def test_canonical_order_is_permutation_of_committed(bundles, prev):
    """The canonical order contains each committed id exactly once."""
    infos = [
        BundleInfo(i, tuple(ids), None, 0.0) for i, ids in enumerate(bundles)
    ]
    order = canonical_order(infos, len(infos), prev, lambda i: False)
    committed = [i for ids in bundles for i in ids]
    # ids may repeat across bundles in generated data; canonical order
    # preserves multiplicity per bundle.
    assert sorted(order) == sorted(committed)


@given(bundles=bundle_lists, prev=hashes)
@settings(max_examples=60)
def test_canonical_order_is_reproducible(bundles, prev):
    infos = [
        BundleInfo(i, tuple(ids), None, 0.0) for i, ids in enumerate(bundles)
    ]
    a = canonical_order(infos, len(infos), prev, lambda i: False)
    b = canonical_order(infos, len(infos), prev, lambda i: False)
    assert a == b


@given(
    ids=st.lists(st.integers(min_value=1, max_value=2 ** 32 - 1),
                 min_size=1, max_size=20, unique=True),
    prev_a=hashes,
    prev_b=hashes,
    index=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=60)
def test_shuffle_permutation_property(ids, prev_a, prev_b, index):
    out = shuffle_bundle(ids, prev_a, index)
    assert sorted(out) == sorted(ids)
    # Determinism in all arguments.
    assert out == shuffle_bundle(list(reversed(ids)), prev_a, index)


@given(bundles=bundle_lists)
@settings(max_examples=60)
def test_clock_dominance_monotone_along_history(bundles):
    """Later headers' clocks dominate earlier ones (append-only growth)."""
    previous = None
    history = []
    for ids in bundles:
        history.append(ids)
        header = header_for(history)
        if previous is not None:
            assert header.clock.dominates(previous.clock)
        previous = header
