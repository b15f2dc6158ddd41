"""Unit tests for the ledger."""

from repro.chain import Ledger
from repro.chain.block import GENESIS_HASH, sign_block
from repro.crypto import KeyPair

KP = KeyPair.generate(seed=b"ledger-miner")


def chain_block(ledger, tx_ids, seq=0):
    return sign_block(
        KP, ledger.height + 1, ledger.tip_hash, tx_ids, seq, created_at=0.0
    )


def test_empty_ledger_state():
    ledger = Ledger()
    assert len(ledger) == 0
    assert ledger.height == -1
    assert ledger.tip_hash == GENESIS_HASH


def test_append_extends_chain():
    ledger = Ledger()
    b0 = chain_block(ledger, (1, 2))
    assert ledger.append(b0)
    assert ledger.height == 0
    assert ledger.tip_hash == b0.block_hash
    b1 = chain_block(ledger, (3,))
    assert ledger.append(b1)
    assert ledger.block_at(1) is b1


def test_duplicate_append_noop():
    ledger = Ledger()
    block = chain_block(ledger, (1,))
    assert ledger.append(block)
    assert not ledger.append(block)
    assert ledger.height == 0


def test_non_extending_block_rejected():
    ledger = Ledger()
    b0 = chain_block(ledger, (1,))
    ledger.append(b0)
    orphan = sign_block(KP, 5, b"\x07" * 32, (9,), 0, 0.0)
    assert not ledger.append(orphan)


def test_settlement_index():
    ledger = Ledger()
    ledger.append(chain_block(ledger, (10, 20)))
    ledger.append(chain_block(ledger, (30,)))
    assert ledger.is_settled(10)
    assert ledger.is_settled(30)
    assert not ledger.is_settled(99)
    assert ledger.settle_height_of(20) == 0
    assert ledger.settle_height_of(30) == 1
    assert ledger.settle_heights == {10: 0, 20: 0, 30: 1}


def test_block_by_hash():
    ledger = Ledger()
    block = chain_block(ledger, (1,))
    ledger.append(block)
    assert ledger.block_by_hash(block.block_hash) is block
    assert ledger.block_by_hash(b"\x00" * 32) is None


def test_settle_height_keeps_first_occurrence():
    ledger = Ledger()
    ledger.append(chain_block(ledger, (5,)))
    # A (faulty) later block repeating the id must not move its height.
    ledger.append(chain_block(ledger, (5, 6)))
    assert ledger.settle_height_of(5) == 0


def test_settled_before_is_the_union_of_lower_blocks():
    """"Settled below height h" read from the settle heights
    (``settle_heights.get(i, h) < h``) answers like the ids of the blocks
    below h, both before and after later appends; an empty ledger settles
    nothing."""
    ledger = Ledger()
    assert ledger.settle_heights == {}
    bodies = [(1, 2), (3,), (2, 4), (), (5, 1)]

    def settled_below(height):
        heights = ledger.settle_heights
        return [heights.get(i, height) < height for i in range(7)]

    answers = []
    for body in bodies:
        answers.append(settled_below(ledger.height + 1))
        ledger.append(chain_block(ledger, body))
    answers.append(settled_below(len(bodies)))
    for height, answer in enumerate(answers):
        below = {i for body in bodies[:height] for i in body}
        assert answer == [i in below for i in range(7)]
        assert settled_below(height) == answer
