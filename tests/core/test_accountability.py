"""Unit tests for suspicion/exposure bookkeeping."""

import pytest

from repro.bloomclock import BloomClock
from repro.core.accountability import (
    AccountabilityState,
    BlockViolationEvidence,
    ExposureBlame,
    SuspicionBlame,
)
from repro.chain.block import sign_block
from repro.core.commitment import (
    EquivocationEvidence,
    GENESIS_DIGEST,
    bundle_digest,
    chain_digest,
    sign_header,
)
from repro.core.inspection import Violation
from repro.core.policies import STALE_SEQ_SLACK, ViolationKind
from repro.crypto import KeyPair
from repro.mempool import TransactionLog

OWNER = KeyPair.generate(seed=b"acct-owner")
REMOTE = KeyPair.generate(seed=b"acct-remote")


def make_header(bundles, keypair=REMOTE):
    clock = BloomClock()
    digests = []
    digest = GENESIS_DIGEST
    for ids in bundles:
        clock.add_all(ids)
        digest = chain_digest(digest, bundle_digest(ids))
        digests.append(digest)
    return sign_header(
        keypair, len(bundles), sum(len(b) for b in bundles), digests, clock
    )


def fresh_state(log=None):
    return AccountabilityState(OWNER.public_key,
                               TransactionLog() if log is None else log)


# ------------------------------------------------------------ request cycle


def test_request_timeout_retry_then_suspect():
    state = fresh_state()
    req = state.open_request(REMOTE.public_key, "sync", (), 0.0, retries=2)
    assert state.on_timeout(req.request_id, 1.0) == "resend"
    assert state.on_timeout(req.request_id, 2.0) == "resend"
    assert state.on_timeout(req.request_id, 3.0) == "suspect"
    assert state.is_suspected(REMOTE.public_key)
    # Pending requests are retained after suspicion (paper section 5.2).
    assert req.request_id in state.pending


def test_response_closes_request():
    state = fresh_state()
    req = state.open_request(REMOTE.public_key, "content", (5,), 0.0, retries=3)
    assert state.close_request(req.request_id) is req
    assert state.on_timeout(req.request_id, 1.0) is None
    assert not state.is_suspected(REMOTE.public_key)


def test_close_requests_to_filters_by_kind():
    state = fresh_state()
    state.open_request(REMOTE.public_key, "sync", (), 0.0, 1)
    state.open_request(REMOTE.public_key, "content", (1,), 0.0, 1)
    assert state.close_requests_to(REMOTE.public_key, kind="sync") == 1
    assert len(state.pending) == 1


def test_clear_suspicion():
    state = fresh_state()
    req = state.open_request(REMOTE.public_key, "sync", (), 0.0, 0)
    state.on_timeout(req.request_id, 1.0)
    assert state.clear_suspicion(REMOTE.public_key)
    assert not state.is_suspected(REMOTE.public_key)
    assert not state.clear_suspicion(REMOTE.public_key)


# ---------------------------------------------------------------- suspicion


def blame(kind="content", detail=(5,), last=None):
    return SuspicionBlame(
        accuser=OWNER.public_key,
        accused=REMOTE.public_key,
        kind=kind,
        detail=detail,
        last_known=last,
        raised_at=1.0,
    )


def test_adopt_suspicion():
    state = fresh_state()
    assert state.adopt_suspicion(blame(), now=1.0)
    assert state.is_suspected(REMOTE.public_key)
    assert not state.adopt_suspicion(blame(), now=2.0)  # already suspected


def test_own_accusation_not_adopted():
    state = fresh_state()
    self_blame = SuspicionBlame(
        accuser=REMOTE.public_key,
        accused=OWNER.public_key,
        kind="sync",
        detail=(),
        last_known=None,
        raised_at=0.0,
    )
    assert not state.adopt_suspicion(self_blame, now=1.0)


def test_blocklist_combines_suspected_and_exposed():
    state = fresh_state()
    state.adopt_suspicion(blame(), now=0.0)
    assert REMOTE.public_key in state.blocklist()


# ----------------------------------------------------------------- exposure


def make_equivocation():
    a = make_header([[1], [2]])
    b = make_header([[1], [3]])
    return EquivocationEvidence(REMOTE.public_key, a, b)


def test_expose_with_valid_evidence():
    state = fresh_state()
    exposure = ExposureBlame(REMOTE.public_key, equivocation=make_equivocation())
    assert state.expose(exposure)
    assert state.is_exposed(REMOTE.public_key)
    assert not state.expose(exposure)  # idempotent


def test_exposure_supersedes_suspicion():
    state = fresh_state()
    req = state.open_request(REMOTE.public_key, "sync", (), 0.0, 0)
    state.on_timeout(req.request_id, 1.0)
    state.expose(ExposureBlame(REMOTE.public_key, equivocation=make_equivocation()))
    assert not state.is_suspected(REMOTE.public_key)
    assert not state.pending  # abandoned requests to exposed node
    # Suspicions of exposed nodes are not re-adopted.
    assert not state.adopt_suspicion(blame(), now=2.0)


def test_invalid_evidence_rejected():
    state = fresh_state()
    consistent = EquivocationEvidence(
        REMOTE.public_key, make_header([[1]]), make_header([[1], [2]])
    )
    assert not state.expose(ExposureBlame(REMOTE.public_key, equivocation=consistent))
    assert not state.is_exposed(REMOTE.public_key)


def test_empty_blame_rejected():
    state = fresh_state()
    assert not state.expose(ExposureBlame(REMOTE.public_key))


def test_wrong_accused_rejected():
    state = fresh_state()
    other = KeyPair.generate(seed=b"acct-third").public_key
    assert not state.expose(ExposureBlame(other, equivocation=make_equivocation()))


def test_observe_header_produces_evidence_on_fork():
    state = fresh_state()
    assert state.observe_header(make_header([[1], [2]])) is None
    evidence = state.observe_header(make_header([[1], [9]]))
    assert evidence is not None and evidence.verify()


def test_observe_unsigned_header_ignored():
    state = fresh_state()
    header = make_header([[1]])
    forged = type(header)(
        signer=header.signer,
        seq=header.seq,
        tx_count=header.tx_count,
        digests=header.digests,
        clock=header.clock,
        signature=b"\x00" * 32,
    )
    assert state.observe_header(forged) is None
    assert state.stores == {} or not state.stores[REMOTE.public_key].by_seq


# ------------------------------------------------------ block evidence


def make_block_violation(kind=ViolationKind.ORDER_DEVIATION, seq_gap=0):
    bundle_ids = ((1, 2), (3,))
    header = make_header([list(b) for b in bundle_ids])
    block = sign_block(
        REMOTE, 0, b"\x00" * 32, (3, 2, 1), header.seq - seq_gap, 0.0
    )
    violation = Violation(kind, block.block_hash, "test")
    return BlockViolationEvidence(
        accused=REMOTE.public_key,
        block=block,
        header=header,
        bundle_ids=bundle_ids,
        violation=violation,
    )


def test_block_violation_structure_verifies():
    evidence = make_block_violation()
    assert evidence.chain_matches_header()
    assert evidence.verify_structure()
    state = fresh_state()
    assert state.expose(ExposureBlame(REMOTE.public_key, block_violation=evidence))


@pytest.fixture(scope="module")
def honest_announce():
    """The first ``lo/block`` announce of a short correct-only run with
    blocks: a signed block, its creator's signed header and the bundles
    that hash-chain to it."""
    from repro.core.config import LOConfig
    from tests.conftest import make_sim

    sim = make_sim(num_nodes=8, config=LOConfig(mean_block_time_s=3.0),
                   enable_blocks=True)
    announces = []

    def keep(message):
        if message.msg_type == "lo/block":
            announces.append(message.payload)
        return True

    sim.network.add_delivery_hook(keep)
    for i in range(6):
        sim.inject_at(0.2 + 0.3 * i, i % 8, fee=10)
    sim.run(15.0)
    assert announces, "no block was announced"
    announce = announces[0]
    assert announce.block.tx_ids
    assert sim.nodes[0].acct.exposed == {}
    return announce


@pytest.mark.xfail(strict=True, reason="ROADMAP 11(a)")
def test_an_honest_announce_with_a_fabricated_violation_does_not_verify(
        honest_announce):
    """Any node can wrap an honest announce it received in evidence of a
    violation the block does not commit.  The verifier must re-derive the
    violation from the block, header and bundles and refuse this one; it
    checks only the block's signature and the digest chain, so the forgery
    verifies and would expose an honest creator network-wide."""
    announce = honest_announce
    creator = announce.block.creator
    forged = BlockViolationEvidence(
        accused=creator,
        block=announce.block,
        header=announce.header,
        bundle_ids=announce.bundle_ids,
        violation=Violation(ViolationKind.ORDER_DEVIATION,
                            announce.block.block_hash, "fabricated"),
    )
    assert forged.chain_matches_header()  # the honest parts are all real
    assert not ExposureBlame(creator, block_violation=forged).verify()


def test_block_violation_wrong_bundles_fails():
    good = make_block_violation()
    tampered = BlockViolationEvidence(
        accused=good.accused,
        block=good.block,
        header=good.header,
        bundle_ids=((1, 2), (99,)),
        violation=good.violation,
    )
    assert not tampered.verify_structure()


def test_stale_seq_evidence_requires_large_gap():
    small_gap = make_block_violation(ViolationKind.STALE_COMMITMENT_SEQ, seq_gap=1)
    assert not small_gap.verify_structure()
    # Build a genuinely huge gap: block pinned at 0, header far ahead.
    bundles = [[i] for i in range(1, STALE_SEQ_SLACK + 3)]
    header = make_header(bundles)
    block = sign_block(REMOTE, 0, b"\x00" * 32, (), 0, 0.0)
    violation = Violation(
        ViolationKind.STALE_COMMITMENT_SEQ, block.block_hash, "gap"
    )
    evidence = BlockViolationEvidence(
        accused=REMOTE.public_key,
        block=block,
        header=header,
        bundle_ids=(),
        violation=violation,
    )
    assert evidence.verify_structure()


# -------------------------------------------------------------- Fig. 4 logic


def test_evaluate_suspicion_exposes_on_fork():
    state = fresh_state()
    state.observe_header(make_header([[1], [2]]))
    forked = make_header([[1], [7]])
    action, header, evidence = state.evaluate_suspicion(blame(last=forked))
    assert action == "expose"
    assert evidence is not None and evidence.verify()


def test_evaluate_suspicion_relays_newer_covering_commitment():
    log = TransactionLog()
    log.append_many([1, 5])
    state = fresh_state(log)
    newer = make_header([[1], [5]])
    state.observe_header(newer)
    state.store_for(REMOTE.public_key).record_ids([5])
    older = make_header([[1]])
    action, header, _ = state.evaluate_suspicion(
        blame(kind="content", detail=(5,), last=older)
    )
    assert action == "relay"
    assert header.seq == 2


def test_evaluate_suspicion_investigates_uncovered_detail():
    state = fresh_state()
    state.observe_header(make_header([[1], [5]]))
    action, header, _ = state.evaluate_suspicion(
        blame(kind="content", detail=(42,), last=make_header([[1]]))
    )
    assert action == "investigate"


def test_evaluate_suspicion_adopts_without_better_info():
    state = fresh_state()
    action, _header, _ = state.evaluate_suspicion(blame())
    assert action == "adopt"
