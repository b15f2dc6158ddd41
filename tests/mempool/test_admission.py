"""The admission pipeline: rejection reasons, RBF, nonce FIFO, drain order."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import KeyPair
from repro.mempool.admission import (
    ACCEPTED,
    AdmissionConfig,
    Mempool,
    REJECT_REASONS,
    REPLACED,
    R_DUPLICATE,
    R_NONCE_GAP,
    R_POOL_FULL,
    R_RATE_LIMITED,
    R_REPLACE_UNDERPRICED,
    R_STALE_NONCE,
    R_UNDERPRICED,
)
from repro.mempool.fee_market import FeeMarketConfig
from repro.mempool.limiter import LimiterConfig
from repro.mempool.transaction import make_transaction
from repro.mempool.watermark import WatermarkConfig
from repro.workload.hotkey import HotKeySampler

KP = KeyPair.generate(seed=b"admission-test")
KP2 = KeyPair.generate(seed=b"admission-test-2")


def tx(keypair=KP, nonce=1, fee=100, created_at=0.0, size_bytes=250):
    return make_transaction(keypair, nonce, fee, created_at,
                            size_bytes=size_bytes)


def test_accept_and_duplicate():
    pool = Mempool()
    t = tx()
    assert pool.admit(t, now=0.0).reason == ACCEPTED
    assert t.sketch_id in pool
    assert pool.admit(t, now=1.0).reason == R_DUPLICATE
    assert len(pool) == 1


def test_underpriced_rejected():
    config = AdmissionConfig(fee_market=FeeMarketConfig(min_fee_rate=1.0))
    pool = Mempool(config)
    assert pool.admit(tx(fee=100, size_bytes=250), 0.0).reason == R_UNDERPRICED
    assert pool.admit(tx(fee=250, size_bytes=250), 0.0).reason == ACCEPTED


def test_stale_and_gapped_nonces():
    pool = Mempool(AdmissionConfig(max_nonce_gap=2))
    assert pool.admit(tx(nonce=5), 0.0).accepted  # anchors next_nonce at 5
    assert pool.admit(tx(nonce=4, fee=999), 0.0).reason == R_STALE_NONCE
    assert pool.admit(tx(nonce=7), 0.0).accepted  # within the gap
    assert pool.admit(tx(nonce=8, fee=999), 0.0).reason == R_NONCE_GAP


def test_rbf_requires_fee_and_rate_bump():
    pool = Mempool()
    old = tx(fee=100)
    assert pool.admit(old, 0.0).accepted
    # Same slot, insufficient bump: rejected, original stays pooled.
    low = tx(fee=105, created_at=1.0)
    assert pool.admit(low, 1.0).reason == R_REPLACE_UNDERPRICED
    assert old.sketch_id in pool and low.sketch_id not in pool
    # Sufficient absolute bump but a worse rate: still rejected.
    fat = tx(fee=110, created_at=1.0, size_bytes=500)
    assert pool.admit(fat, 1.0).reason == R_REPLACE_UNDERPRICED
    # The advertised 10% bump at the same size replaces.
    good = tx(fee=110, created_at=1.0)
    result = pool.admit(good, 1.0)
    assert result.reason == REPLACED
    assert result.replaced_txid == old.txid
    assert old.sketch_id not in pool and good.sketch_id in pool
    assert len(pool) == 1


def test_rate_limiter_rejects_floods():
    config = AdmissionConfig(limiter=LimiterConfig(rate_per_s=1.0, burst=3.0))
    pool = Mempool(config)
    reasons = [pool.admit(tx(nonce=n), now=0.0, peer="p").reason
               for n in range(1, 6)]
    assert reasons == [ACCEPTED] * 3 + [R_RATE_LIMITED] * 2
    # peer=None skips metering entirely.
    assert pool.admit(tx(nonce=4), now=0.0, peer=None).accepted


def test_pool_full_rejects_cheap_incoming():
    config = AdmissionConfig(
        watermarks=WatermarkConfig(max_pool_bytes=500, low_fraction=1.0,
                                   max_age_s=1e9, max_pool_txs=50_000))
    pool = Mempool(config)
    assert pool.admit(tx(keypair=KP, fee=100), 0.0).accepted
    assert pool.admit(tx(keypair=KP2, fee=100), 0.0).accepted
    cheap = KeyPair.generate(seed=b"cheap")
    assert pool.admit(tx(keypair=cheap, fee=10), 0.0).reason == R_POOL_FULL
    assert len(pool) == 2


def test_eviction_raises_floor():
    config = AdmissionConfig(
        watermarks=WatermarkConfig(max_pool_bytes=500, low_fraction=1.0,
                                   max_age_s=1e9, max_pool_txs=50_000))
    pool = Mempool(config)
    pool.admit(tx(keypair=KP, fee=100), 0.0)
    pool.admit(tx(keypair=KP2, fee=100), 0.0)
    rich = KeyPair.generate(seed=b"rich")
    assert pool.admit(tx(keypair=rich, fee=1000), 0.0).accepted
    assert pool.counters["evicted_pool_full"] >= 1
    # The floor now sits above the evicted entry's fee rate and decays.
    assert pool.floor(0.0) > 100 / 250
    assert pool.floor(1e6) == config.fee_market.min_fee_rate


def test_drain_price_and_nonce_order():
    pool = Mempool()
    # KP: three contiguous nonces, mid-priced.  KP2: one expensive tx.
    for nonce, fee in ((1, 300), (2, 200), (3, 100)):
        assert pool.admit(tx(keypair=KP, nonce=nonce, fee=fee), 0.0).accepted
    assert pool.admit(tx(keypair=KP2, nonce=1, fee=250), 0.0).accepted
    batch = pool.drain(now=1.0)
    order = [(t.sender.raw, t.nonce) for t in batch]
    # Global priority picks KP/1 (300) first, then KP2/1 (250), then the
    # successors in nonce order; per sender the nonces ascend strictly.
    assert order[0] == (KP.public_key.raw, 1)
    assert order[1] == (KP2.public_key.raw, 1)
    assert [n for s, n in order if s == KP.public_key.raw] == [1, 2, 3]
    assert pool.counters["drained"] == 4
    assert len(pool) == 0


def test_drain_respects_batch_limit():
    pool = Mempool(AdmissionConfig(drain_batch_size=2))
    for nonce in range(1, 6):
        pool.admit(tx(nonce=nonce), 0.0)
    assert len(pool.drain(1.0)) == 2
    assert len(pool.drain(2.0, limit=10)) == 3


def test_gap_closes_after_drain():
    pool = Mempool(AdmissionConfig(max_nonce_gap=1))
    assert pool.admit(tx(nonce=1), 0.0).accepted
    assert pool.admit(tx(nonce=3, fee=999), 0.0).reason == R_NONCE_GAP
    pool.drain(1.0)  # drains nonce 1 -> next_nonce becomes 2
    assert pool.admit(tx(nonce=3, fee=999, created_at=1.0), 1.0).accepted


def test_age_expiry_leaves_gap_then_resubmission_works():
    config = AdmissionConfig(
        watermarks=WatermarkConfig(max_age_s=10.0))
    pool = Mempool(config)
    pool.admit(tx(nonce=1), 0.0)
    pool.admit(tx(nonce=2), 0.0)
    assert pool.drain(now=20.0) == []  # both aged out before draining
    assert pool.counters["expired_age"] == 2
    # next_nonce never advanced, so the sender may resubmit nonce 1.
    assert pool.admit(tx(nonce=1, created_at=21.0), 21.0).accepted


def test_skewed_stream_clears_and_tiny_pool_evicts():
    """Two pipeline shapes end to end: a hot-key-skewed stream mostly
    clears admission, and rising fees into a tiny pool evict on most
    admits."""
    rnd = random.Random(42)
    sampler = HotKeySampler(rnd, num_accounts=1_000, num_hot=8,
                            hot_fraction=0.6)
    keys, nonces = {}, {}
    pool = Mempool(AdmissionConfig(max_nonce_gap=1_000_000))
    count, rate_per_s = 2_000, 200.0
    for i in range(count):
        account = sampler()
        if account not in keys:
            keys[account] = KeyPair.generate(seed=b"hot-%d" % account)
        nonces[account] = nonce = nonces.get(account, 0) + 1
        fee = max(1, int(rnd.lognormvariate(3.0, 1.1)))
        t = make_transaction(keys[account], nonce, fee, i / rate_per_s)
        pool.admit(t, now=i / rate_per_s, peer=t.sender.raw)
    assert pool.counters["accepted"] + pool.counters["replaced"] > count // 2

    pressure = 500
    pool = Mempool(AdmissionConfig(
        watermarks=WatermarkConfig(max_pool_bytes=50_000, low_fraction=0.9,
                                   max_age_s=1e9, max_pool_txs=50_000)))
    for i in range(pressure):
        keypair = KeyPair.generate(seed=b"pressure-%d" % i)
        t = make_transaction(keypair, 1, 100 + i + rnd.randrange(50), float(i))
        pool.admit(t, now=float(i), peer=None)
    assert pool.counters["evicted_pool_full"] > pressure // 4


def test_rejection_breakdown_covers_all_reasons():
    pool = Mempool()
    assert tuple(pool.rejection_breakdown()) == REJECT_REASONS
    assert all(v == 0 for v in pool.rejection_breakdown().values())


# -- properties --------------------------------------------------------

fees = st.integers(min_value=10, max_value=10_000)


@given(old_fee=fees)
@settings(max_examples=60)
def test_rbf_bump_is_strictly_monotone(old_fee):
    """required_replacement_fee always strictly exceeds the old fee, and
    its own replacement requirement exceeds it again (chains of accepted
    replacements have strictly increasing fees)."""
    from repro.mempool.fee_market import FeeMarket

    market = FeeMarket(FeeMarketConfig())
    required = market.required_replacement_fee(old_fee)
    assert required > old_fee
    assert market.required_replacement_fee(required) > required


@given(old_fee=fees, delta=st.integers(min_value=-50, max_value=50))
@settings(max_examples=60)
def test_rbf_threshold_is_exact(old_fee, delta):
    """Same-size replacements are accepted iff fee >= the integer bound."""
    from repro.mempool.fee_market import FeeMarket

    market = FeeMarket(FeeMarketConfig())
    required = market.required_replacement_fee(old_fee)
    new_fee = max(0, required + delta)
    old = tx(fee=old_fee)
    new = tx(fee=new_fee, created_at=1.0)
    assert market.replacement_ok(old, new) == (new_fee >= required)


@given(nonces=st.lists(st.integers(min_value=1, max_value=60),
                       min_size=1, max_size=30))
@settings(max_examples=60)
def test_pooled_nonces_always_within_gap_of_anchor(nonces):
    """Whatever the submission order, every pooled nonce sits in the
    window [next_nonce, next_nonce + max_nonce_gap] and duplicates take
    the RBF path instead of double-pooling."""
    gap = 5
    pool = Mempool(AdmissionConfig(max_nonce_gap=gap))
    anchor = None
    for i, nonce in enumerate(nonces):
        result = pool.admit(tx(nonce=nonce, created_at=float(i)), float(i))
        if anchor is None and result.accepted:
            anchor = nonce
    pooled = sorted(
        entry.tx.nonce for entry in pool._entries.values()
    )
    assert len(pooled) == len(set(pooled))  # one entry per (sender, nonce)
    if pooled:
        assert anchor is not None
        assert pooled[0] >= anchor
        assert pooled[-1] <= anchor + gap
