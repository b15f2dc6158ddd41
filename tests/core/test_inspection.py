"""Unit tests for block inspection."""

from repro.chain.block import sign_block
from repro.core.commitment import BundleInfo
from repro.core.config import LOConfig
from repro.core.inspection import BlockInspector
from repro.core.ordering import canonical_order
from repro.core.policies import ViolationKind
from repro.crypto import KeyPair
from repro.mempool import make_transaction

KP = KeyPair.generate(seed=b"inspected-miner")
CLIENT = KeyPair.generate(seed=b"inspection-client")
PREV = b"\x03" * 32


def make_world(num_txs=6, fee=10):
    txs = [
        make_transaction(CLIENT, n, fee, created_at=0.0)
        for n in range(1, num_txs + 1)
    ]
    half = num_txs // 2
    bundles = [
        BundleInfo(0, tuple(t.sketch_id for t in txs[:half]), None, 0.0),
        BundleInfo(1, tuple(t.sketch_id for t in txs[half:]), None, 0.0),
    ]
    contents = {t.sketch_id: t for t in txs}
    return txs, bundles, contents


def inspect(block, bundles, contents, settled=frozenset(), config=None):
    inspector = BlockInspector(config or LOConfig())
    return inspector.inspect(
        block,
        [bundle.ids for bundle in bundles],
        {i: block.height - 1 for i in settled},
        contents.get,
        is_invalid=lambda i: False,
    )


def canonical_ids(bundles, seq=2, settled=frozenset()):
    return canonical_order(bundles, seq, PREV, lambda i: i in settled)


def test_clean_block_passes():
    txs, bundles, contents = make_world()
    body = canonical_ids(bundles)
    block = sign_block(KP, 0, PREV, body, 2, 0.0)
    result = inspect(block, bundles, contents)
    assert result.clean


def test_reordered_block_flagged():
    txs, bundles, contents = make_world()
    body = canonical_ids(bundles)
    body[0], body[1] = body[1], body[0]
    block = sign_block(KP, 0, PREV, body, 2, 0.0)
    result = inspect(block, bundles, contents)
    assert result.conclusive
    assert [v.kind for v in result.violations] == [ViolationKind.ORDER_DEVIATION]


def test_injected_tx_flagged():
    txs, bundles, contents = make_world()
    alien = make_transaction(KP, 999, 1000, created_at=1.0)
    body = [alien.sketch_id] + canonical_ids(bundles)
    block = sign_block(KP, 0, PREV, body, 2, 0.0)
    result = inspect(block, bundles, contents)
    assert result.conclusive
    assert [v.kind for v in result.violations] == [
        ViolationKind.UNCOMMITTED_TX_IN_BODY
    ]


def test_censored_tx_flagged():
    txs, bundles, contents = make_world()
    body = canonical_ids(bundles)
    removed = body.pop(1)
    block = sign_block(KP, 0, PREV, body, 2, 0.0)
    result = inspect(block, bundles, contents)
    assert result.conclusive
    assert [v.kind for v in result.violations] == [
        ViolationKind.MISSING_COMMITTED_TX
    ]
    assert str(removed) in result.violations[0].detail


def test_censored_tail_tx_flagged():
    txs, bundles, contents = make_world()
    body = canonical_ids(bundles)[:-1]  # drop the last canonical tx
    block = sign_block(KP, 0, PREV, body, 2, 0.0)
    result = inspect(block, bundles, contents)
    assert result.conclusive
    assert [v.kind for v in result.violations] == [
        ViolationKind.MISSING_COMMITTED_TX
    ]


def test_appended_new_txs_allowed():
    txs, bundles, contents = make_world()
    own = make_transaction(KP, 7, 30, created_at=1.0)
    body = canonical_ids(bundles) + [own.sketch_id]
    block = sign_block(KP, 0, PREV, body, 2, 0.0)
    result = inspect(block, bundles, contents)
    assert result.clean


def test_duplicated_committed_tx_in_suffix_flagged():
    txs, bundles, contents = make_world()
    body = canonical_ids(bundles)
    body.append(body[0])  # replay a committed tx after the canonical body
    block = sign_block(KP, 0, PREV, body, 2, 0.0)
    result = inspect(block, bundles, contents)
    assert result.conclusive
    assert result.violations


def test_settled_txs_must_be_skipped():
    txs, bundles, contents = make_world()
    settled = {txs[0].sketch_id}
    body = canonical_ids(bundles, settled=settled)
    block = sign_block(KP, 0, PREV, body, 2, 0.0)
    result = inspect(block, bundles, contents, settled=settled)
    assert result.clean


def test_below_threshold_fee_must_be_excluded():
    txs, bundles, contents = make_world(fee=0)
    # Canonical expectation under min_fee=1 is an empty body.
    block = sign_block(KP, 0, PREV, (), 2, 0.0)
    assert inspect(block, bundles, contents).clean
    # Including a low-fee tx deviates from the canonical sequence.
    body = canonical_order(bundles, 2, PREV, lambda i: False)
    bad = sign_block(KP, 0, PREV, body, 2, 0.0)
    result = inspect(bad, bundles, contents)
    assert result.conclusive and result.violations


def test_unknown_content_makes_inspection_inconclusive():
    txs, bundles, contents = make_world()
    missing_id = txs[0].sketch_id
    del contents[missing_id]
    body = canonical_ids(bundles)
    block = sign_block(KP, 0, PREV, body, 2, 0.0)
    result = inspect(block, bundles, contents)
    assert not result.conclusive
    assert missing_id in result.missing_content
    assert not result.violations


def test_unknown_commitment_prefix_is_inconclusive():
    txs, bundles, contents = make_world()
    block = sign_block(KP, 0, PREV, (), 5, 0.0)  # seq beyond known bundles
    result = inspect(block, bundles, contents)
    assert not result.conclusive


def test_block_capacity_respected_by_expectation():
    txs, bundles, contents = make_world()
    config = LOConfig(max_block_txs=3)
    body = canonical_ids(bundles)[:3]
    block = sign_block(KP, 0, PREV, body, 2, 0.0)
    result = inspect(block, bundles, contents, config=config)
    assert result.clean
