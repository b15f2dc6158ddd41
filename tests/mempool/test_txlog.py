"""Unit tests for the append-only transaction log."""

import pytest

from repro.crypto import KeyPair
from repro.mempool import TransactionLog, make_transaction

KP = KeyPair.generate(seed=b"log-client")


def make_tx(nonce):
    return make_transaction(KP, nonce, fee=10, created_at=0.0)


def test_append_preserves_order():
    log = TransactionLog()
    log.append(300)
    log.append(100)
    log.append(200)
    assert list(log.order) == [300, 100, 200]
    assert log.position(100) == 1


def test_append_duplicate_is_noop():
    log = TransactionLog()
    assert log.append(5)
    assert not log.append(5)
    assert len(log) == 1
    assert log.position(5) == 0


def test_append_many_returns_fresh_only():
    log = TransactionLog()
    log.append(1)
    added = log.append_many([1, 2, 3])
    assert added == [2, 3]
    assert list(log.order) == [1, 2, 3]


def test_contains_and_known_ids():
    log = TransactionLog()
    log.append_many([7, 8])
    assert 7 in log and 9 not in log
    assert log.known_ids() == {7, 8}


def test_ids_after():
    log = TransactionLog()
    log.append_many([1, 2, 3, 4])
    assert log.ids_after(2) == [3, 4]


def test_clock_tracks_appends():
    log = TransactionLog()
    log.append_many(range(1, 21))
    assert log.clock.total == 20


def test_content_lifecycle():
    log = TransactionLog()
    tx = make_tx(1)
    log.append(tx.sketch_id)
    assert log.content_of(tx.sketch_id) is None
    assert log.missing_content() == [tx.sketch_id]
    log.add_content(tx)
    assert log.content_of(tx.sketch_id) is tx
    assert log.missing_content() == []
    assert not log.is_invalid(tx.sketch_id)


def test_missing_content_is_the_holes_in_log_order():
    log = TransactionLog()
    txs = [make_tx(n) for n in range(1, 7)]
    log.append_many(tx.sketch_id for tx in txs)
    for tx in (txs[3], txs[0], txs[3]):  # a repeated arrival is harmless
        log.add_content(tx)
    log.append(txs[0].sketch_id)  # already committed: still not a hole
    expected = [i for i in log.order if log.content_of(i) is None]
    assert log.missing_content() == expected
    assert expected == [tx.sketch_id for tx in (txs[1], txs[2], txs[4], txs[5])]


def test_cell_masks_name_the_cells_ids_by_position():
    log = TransactionLog(clock_cells=4)
    log.append_many(range(1, 30))
    for cells in ((0,), (1, 3), (2, 0)):
        mask = log.mask_for_cells(cells)
        assert mask == log.mask_of(log.items_in_cells(cells))
    assert log.mask_for_cells(tuple(range(4))) == (1 << 29) - 1
    assert log.mask_of([]) == 0


def test_invalid_content_marked():
    log = TransactionLog()
    tx = make_tx(2)
    log.append(tx.sketch_id)
    log.add_content(tx, valid=False)
    assert log.is_invalid(tx.sketch_id)


def test_content_for_uncommitted_id_rejected():
    log = TransactionLog()
    with pytest.raises(KeyError):
        log.add_content(make_tx(3))


def test_full_sketch_decodes_log():
    log = TransactionLog(sketch_capacity=16)
    ids = [make_tx(n).sketch_id for n in range(1, 9)]
    log.append_many(ids)
    assert log.full_sketch().decode() == set(ids)


def test_cell_sketches_partition_the_log():
    log = TransactionLog(sketch_capacity=16)
    ids = [make_tx(n).sketch_id for n in range(1, 13)]
    log.append_many(ids)
    recovered = set()
    for cell in range(log.clock.cells):
        recovered |= log.sketch_for_cells([cell]).decode()
    assert recovered == set(ids)


def test_sketch_for_cells_matches_items_in_cells():
    log = TransactionLog(sketch_capacity=16)
    ids = [make_tx(n).sketch_id for n in range(1, 11)]
    log.append_many(ids)
    cells = [0, 1, 2, 3]
    sketched = log.sketch_for_cells(cells).decode()
    assert sketched == set(log.items_in_cells(cells))


@pytest.mark.parametrize("count", [0, 1, 4, 40, 300])
def test_a_cell_walk_returns_each_cells_ids_in_received_order(count):
    """Cells in the order given, each one's ids as the log received them,
    in a new list: a later append does not reach a list already returned."""
    log = TransactionLog(sketch_capacity=16)
    log.append_many(make_tx(n).sketch_id for n in range(1, count + 1))
    every = tuple(range(log.clock.cells))
    for cells in (every, every[::-1], (5, 2, 30)):
        expected = [i for cell in cells for i in log.order
                    if log.clock.cell_of(i) == cell]
        assert log.items_in_cells(cells) == expected
    walked = log.items_in_cells(every)
    assert sorted(walked) == sorted(log.order)
    log.append(make_tx(count + 1).sketch_id)
    assert len(walked) == count


def test_cell_counts_list_only_cells_that_hold_ids():
    log = TransactionLog(sketch_capacity=16)
    log.append_many(make_tx(n).sketch_id for n in range(1, 9))
    every = tuple(range(log.clock.cells))
    counts = {cell: len(log.items_in_cells((cell,))) for cell in every}
    occupied = {cell: count for cell, count in counts.items() if count}
    assert log.cell_counts(every) == occupied
    some = (0, 3, 7, 11, 19, 30)
    assert log.cell_counts(some) == {
        cell: count for cell, count in occupied.items() if cell in some}


def test_sketch_capacity_truncation():
    log = TransactionLog(sketch_capacity=32)
    small = log.sketch_for_cells(range(32), capacity=8)
    assert small.capacity == 8
    with pytest.raises(ValueError):
        log.sketch_for_cells(range(32), capacity=64)


def test_subset_sketch():
    log = TransactionLog(sketch_capacity=8)
    ids = [make_tx(n).sketch_id for n in range(1, 5)]
    log.append_many(ids)
    assert log.subset_sketch(ids[:2]).decode() == set(ids[:2])
