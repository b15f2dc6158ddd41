"""Suspicion gossip: one epidemic per claim, and every censor still caught.

A blame announces "accuser A has suspected X for ``kind`` (``detail``)
since t", with t the start of A's suspicion episode.  Retry rounds that
time out again inside one episode re-announce the same blame, which gossip
deduplicates; a new episode (after the suspicion cleared) is a new blame.
"""

import pytest

from repro.attacks import make_censor_factory
from repro.bloomclock import BloomClock
from repro.core.accountability import AccountabilityState, SuspicionBlame
from repro.core.commitment import (
    GENESIS_DIGEST,
    bundle_digest,
    chain_digest,
    sign_header,
)
from repro.core.config import LOConfig
from repro.crypto.keys import KeyPair
from repro.experiments.harness import LOSimulation, SimulationParams
from repro.mempool import TransactionLog
from repro.testing import (
    DetectionMonitor,
    InvariantViolation,
    SuspicionGossipTally,
    assert_suspicion_gossip_bounded,
)


def _key(seed):
    return KeyPair.generate(seed=seed).public_key


def _blame(detail=(), last_known=None, raised_at=1.0):
    return SuspicionBlame(accuser=_key(b"a"), accused=_key(b"x"),
                          kind="content", detail=detail,
                          last_known=last_known, raised_at=raised_at)


def test_blame_key_is_what_the_blame_announces():
    assert _blame().key() == _blame().key()
    # The accuser's evidence may grow inside an episode; the blame does not.
    assert _blame(last_known=object()).key() == _blame().key()
    # Content blames for different ids in one episode are different blames.
    assert _blame(detail=(1,)).key() != _blame(detail=(2,)).key()
    assert _blame(raised_at=2.0).key() != _blame().key()


def test_a_claim_keeps_its_episode_start_until_the_suspicion_clears():
    acct = AccountabilityState(_key(b"me"), TransactionLog(clock_cells=32))
    peer = _key(b"peer")
    assert acct.claim(peer, "sync", (), 1.0) == (1.0, True)
    assert acct.claim(peer, "sync", (), 4.0) == (1.0, False)  # a retry round
    assert acct.claim(peer, "content", (7,), 5.0) == (1.0, True)
    acct.clear_suspicion(peer)
    assert acct.claim(peer, "sync", (), 9.0) == (9.0, True)  # new episode


def test_a_blame_carrying_a_clock_of_another_width_is_dropped_not_stored():
    # The accused really signed this header: a 64-cell clock (ours have
    # 32) extending its own chain to seq 6.  Receivers used to store it as
    # the accused's latest (and stop believing its real seq 6..8 headers)
    # or raise comparing it with a stored one, which counted a wire
    # violation against the relay.
    sim = LOSimulation(SimulationParams(num_nodes=8, seed=3))
    sim.inject_workload(2.0, 7.0)
    sim.run(1.5)
    accused, accuser = sim.nodes[1], sim.nodes[2]
    assert accused.seq < 6
    clock = BloomClock(64)
    clock.add_all(accused.log.known_ids())
    digests = list(accused._digest_chain)
    while len(digests) < 6:
        digests.append(chain_digest(digests[-1] if digests else GENESIS_DIGEST,
                                    bundle_digest([10**6 + len(digests)])))
    wide = sign_header(accused.keypair, 6, len(accused.log) + 1, digests, clock)
    blame = SuspicionBlame(accuser=accuser.public_key,
                           accused=accused.public_key, kind="sync",
                           detail=(), last_known=wide, raised_at=1.4)
    receivers = sorted(set(accused.neighbors) - {accuser.node_id})
    assert len(receivers) >= 5
    for receiver in receivers:
        sim.network.send(accuser.node_id, receiver, "lo/suspicion", blame,
                         blame.wire_size())
    sim.run(8.0)
    assert sim.wire_violation_totals() == {}
    for node_id in receivers:
        acct = sim.nodes[node_id].acct
        latest = acct.latest_header(accused.public_key)
        assert latest is not None and latest.clock.cells == 32
        assert latest == accused.header_at(latest.seq) and latest.seq > 6
        assert not acct.is_exposed(accused.public_key)


def test_a_foreign_width_last_known_is_treated_as_absent():
    acct = AccountabilityState(_key(b"me"), TransactionLog(clock_cells=32))
    keypair = KeyPair.generate(seed=b"x")
    digests = [chain_digest(GENESIS_DIGEST, bundle_digest([1]))]
    ours = sign_header(keypair, 1, 1, digests, BloomClock(32))
    assert acct.observe_header(ours) is None
    wide = sign_header(keypair, 2, 2, digests * 2, BloomClock(64))
    blame = SuspicionBlame(accuser=_key(b"a"), accused=keypair.public_key,
                           kind="sync", detail=(), last_known=wide,
                           raised_at=1.0)
    # With the wide header absent we hold the newest commitment: relay it.
    assert acct.evaluate_suspicion(blame) == ("relay", ours, None)
    assert acct.observe_header(wide) is None
    assert acct.latest_header(keypair.public_key) is ours


def _censor_sim(seed, censors, equivocate, verify):
    factory = make_censor_factory(set(censors), ignore_sync=True,
                                  drop_blames=True, equivocate=equivocate)
    sim = LOSimulation(SimulationParams(
        num_nodes=16, seed=seed,
        config=LOConfig(verify_suspicions_locally=verify),
        malicious_ids=list(censors), attacker_factory=factory,
    ))
    # The censors commit first, so each has content (and a history to
    # fork) to withhold; then correct nodes keep transactions coming.
    for index, censor in enumerate(censors):
        sim.inject_at(0.2 + 0.1 * index, censor, fee=10)
    for index in range(6):
        sim.inject_at(0.5 + 0.5 * index, len(censors) + index, fee=10)
    return sim


@pytest.mark.parametrize("verify", [True, False],
                         ids=["default", "no_local_verify"])
@pytest.mark.parametrize("equivocate", [False, True], ids=["pure", "forking"])
@pytest.mark.parametrize("count", [1, 3])
def test_censors_are_detected_and_blames_spread_once(verify, equivocate, count):
    censors = tuple(range(count))
    for seed in range(1, 11):
        sim = _censor_sim(seed, censors, equivocate, verify)
        tally = SuspicionGossipTally(sim)
        monitor = DetectionMonitor(
            sim,
            exposed=censors if equivocate else (),
            suspected=() if equivocate else censors,
        ).start()
        sim.run(20.0)
        monitor.verify()
        assert_suspicion_gossip_bounded(sim, tally)
        if not equivocate:
            assert sim.counter.total("suspicion_claims") > 0


def test_cost_invariant_catches_a_blame_stamped_per_retry_round(monkeypatch):
    """A blame dated at each retry round's timeout, not at the episode
    start, makes every round a new epidemic: the invariant must say so."""
    claim = AccountabilityState.claim

    def stamped_now(self, target, kind, detail, now):
        return now, claim(self, target, kind, detail, now)[1]

    monkeypatch.setattr(AccountabilityState, "claim", stamped_now)
    sim = _censor_sim(1, (0,), equivocate=False, verify=True)
    tally = SuspicionGossipTally(sim)
    sim.run(20.0)
    with pytest.raises(InvariantViolation, match="cost broken"):
        assert_suspicion_gossip_bounded(sim, tally)


def test_detection_monitor_reports_an_undetected_censor():
    sim = _censor_sim(1, (0,), equivocate=False, verify=True)
    monitor = DetectionMonitor(sim, exposed=(0,)).start()
    sim.run(5.0)
    with pytest.raises(InvariantViolation, match="never exposed every censor"):
        monitor.verify()


def _pure_storm(seed):
    """``censor_storm``'s network (32 nodes, censors 0-2) with all three
    censors pure and the default config: 20 transactions over 10 s, the
    first three minted by the censors."""
    censors = (0, 1, 2)
    pure = make_censor_factory(set(censors), ignore_sync=True,
                               drop_blames=True, equivocate=False)
    sim = LOSimulation(SimulationParams(
        num_nodes=32, seed=seed, malicious_ids=censors,
        attacker_factory=pure,
    ))
    for index in range(20):
        origin = censors[index] if index < 3 else 3 + (7 * index) % 29
        sim.inject_at(0.25 + 0.5 * index, origin, fee=10 + index)
    return sim


def test_default_config_pure_censor_storm_stays_bounded():
    """With an epidemic per retry round this storm takes 6.6M events by
    30 s; with one per episode it takes 103k by 30 s and 152k by 60 s."""
    sim = _pure_storm(7)
    sim.run(30.0)
    at_30 = sim.loop.processed_events
    sim.run(60.0)
    assert at_30 <= 200_000
    assert sim.loop.processed_events < 2 * at_30
