"""Safety invariants that must survive ANY fault schedule.

The chaos subsystem (:mod:`repro.net.chaos`) can drop, duplicate,
reorder and corrupt messages and crash-restart nodes -- none of which is
allowed to break accountability's safety promises (section 3.2):

* **No false positives** -- a correct node is never *exposed*, no matter
  how hostile the network was.
* **Temporal accuracy** -- suspicions of correct nodes are transient:
  once the faults heal and the network quiesces, they have cleared.
* **Append-only commitments** -- a node's bundle digest chain only ever
  grows; no rewrite survives a crash/restart.
* **Convergence after heal** -- every injected transaction reaches every
  correct node once faults stop.

Two more state what accountability gossip may cost and must achieve
under attack (sections 5.2, 6.2):

* **Cost** -- a suspicion blame is one epidemic per claim: each correct
  accuser puts at most as many distinct blame keys
  (:meth:`SuspicionBlame.key`) on the wire as it made first-hand claims
  (its ``suspicion_claims`` counter: one per ``(kind, detail)`` per
  suspicion episode; retry rounds inside an episode make none), and no
  key is sent more than ``N x blame_gossip_fanout`` times.
* **Completeness** -- every correct node exposes each equivocating
  censor and, at some poll, suspects each pure one.

:class:`InvariantMonitor` samples the append-only invariant *during* the
run (an end-state check could miss a rewrite-then-regrow), as
:class:`DetectionMonitor` polls completeness and
:class:`SuspicionGossipTally` counts blames on the wire; the ``assert_*``
helpers check end-state properties.  All helpers raise
:class:`InvariantViolation` with a readable account of what broke.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.accountability import SuspicionBlame


class InvariantViolation(AssertionError):
    """A chaos-run safety invariant did not hold."""


class InvariantMonitor:
    """Periodically samples per-node commitment chains for append-only-ness.

    Usage::

        monitor = InvariantMonitor(sim, period_s=2.0)
        monitor.start()
        sim.run(60.0)
        monitor.verify()   # raises InvariantViolation on any regression
    """

    def __init__(self, sim, period_s: float = 2.0):
        if period_s <= 0:
            raise ValueError(f"period must be > 0, got {period_s}")
        self.sim = sim
        self.period_s = period_s
        self.violations: List[str] = []
        self._last_chain: Dict[int, Tuple[bytes, ...]] = {}
        self._samples = 0

    def start(self) -> "InvariantMonitor":
        """Schedule the first periodic check; returns self for chaining."""
        self.sim.loop.call_later(self.period_s, self._tick)
        return self

    def _tick(self) -> None:
        self._samples += 1
        for node_id, node in self.sim.nodes.items():
            chain = tuple(node._digest_chain)
            previous = self._last_chain.get(node_id, ())
            if chain[: len(previous)] != previous:
                self.violations.append(
                    f"node {node_id}: digest chain rewrote history at"
                    f" t={self.sim.loop.now:.2f} (had {len(previous)}"
                    f" bundles, now {len(chain)})"
                )
            self._last_chain[node_id] = chain
        self.sim.loop.call_later(self.period_s, self._tick)

    def verify(self) -> None:
        """Raise if any sampled node ever rewrote its commitment chain."""
        if self._samples == 0:
            raise InvariantViolation("monitor never sampled; was it started?")
        if self.violations:
            raise InvariantViolation(
                "append-only violated:\n  " + "\n  ".join(self.violations)
            )


def _correct_pairs(sim):
    """(observer node, observed id, observed key) over correct nodes only."""
    for observer_id in sim.correct_ids:
        observer = sim.nodes[observer_id]
        for observed_id in sim.correct_ids:
            if observed_id == observer_id:
                continue
            yield observer, observed_id, sim.directory.key_of(observed_id)


def assert_no_false_exposures(sim) -> None:
    """No correct node may hold an exposure of another correct node."""
    broken = [
        f"node {observer.node_id} exposed correct node {observed_id}"
        for observer, observed_id, key in _correct_pairs(sim)
        if observer.acct.is_exposed(key)
    ]
    if broken:
        raise InvariantViolation(
            "false exposures (no-false-positives broken):\n  "
            + "\n  ".join(broken)
        )


def assert_suspicions_cleared(sim) -> None:
    """After heal + quiescence, no correct node still suspects a correct one."""
    broken = [
        f"node {observer.node_id} still suspects correct node {observed_id}"
        for observer, observed_id, key in _correct_pairs(sim)
        if observer.acct.is_suspected(key)
    ]
    if broken:
        raise InvariantViolation(
            "stale suspicions (temporal accuracy broken):\n  "
            + "\n  ".join(broken)
        )


def assert_append_only_logs(sim) -> None:
    """End-state cross-check: bundles, digest chain and log sizes agree."""
    broken = []
    for node_id, node in sim.nodes.items():
        if len(node._digest_chain) != len(node.bundles):
            broken.append(
                f"node {node_id}: {len(node.bundles)} bundles vs"
                f" {len(node._digest_chain)} chain digests"
            )
        committed = sum(len(b.ids) for b in node.bundles)
        if committed != len(node.log):
            broken.append(
                f"node {node_id}: bundles commit {committed} ids but log"
                f" holds {len(node.log)}"
            )
    if broken:
        raise InvariantViolation(
            "commitment bookkeeping diverged:\n  " + "\n  ".join(broken)
        )


def assert_mempool_convergence(
    sim,
    items: Optional[Sequence[int]] = None,
    min_fraction: float = 1.0,
) -> None:
    """Every tracked transaction reached >= min_fraction of correct nodes."""
    tracked = list(items) if items is not None else sim.mempool_tracker.items()
    broken = []
    for item in tracked:
        fraction = sim.convergence_fraction(item)
        if fraction < min_fraction:
            broken.append(f"tx {item}: coverage {fraction:.2f} < {min_fraction:.2f}")
    if broken:
        raise InvariantViolation(
            "mempool did not converge after heal:\n  " + "\n  ".join(broken)
        )


class SuspicionGossipTally:
    """Counts ``lo/suspicion`` messages per :meth:`SuspicionBlame.key`.

    Observes through a network delivery hook that approves every message,
    so it changes no outcome; a message an installed fault drops first is
    not counted.  Create it before ``sim.run``.
    """

    def __init__(self, sim):
        self.per_key: Counter = Counter()
        sim.network.add_delivery_hook(self._count)

    def _count(self, message) -> bool:
        payload = message.payload
        if message.msg_type == "lo/suspicion" and isinstance(payload,
                                                             SuspicionBlame):
            self.per_key[payload.key()] += 1
        return True


def assert_suspicion_gossip_bounded(sim, tally: SuspicionGossipTally) -> None:
    """Cost: one epidemic per first-hand claim (see the module docstring)."""
    limit = len(sim.nodes) * sim.params.config.blame_gossip_fanout
    claims = sim.counter.per_node("suspicion_claims")
    node_of = {sim.directory.key_of(i).raw: i for i in sim.nodes}
    correct = set(sim.correct_ids)
    keys_by_accuser: Counter = Counter()
    broken = []
    for key, sent in tally.per_key.items():
        accuser, accused = node_of.get(key[0]), node_of.get(key[1])
        if sent > limit:
            broken.append(f"{key[2]} blame of node {accused} by node"
                          f" {accuser} sent {sent} times > {limit}")
        if accuser in correct:
            keys_by_accuser[accuser] += 1
    for node_id, keys in sorted(keys_by_accuser.items()):
        if keys > claims.get(node_id, 0):
            broken.append(f"node {node_id}: {keys} blames gossiped for"
                          f" {claims.get(node_id, 0)} claims")
    if broken:
        raise InvariantViolation(
            "suspicion gossip unbounded (cost broken):\n  "
            + "\n  ".join(sorted(broken))
        )


class DetectionMonitor:
    """Fig. 6's poll: when had every correct node detected every censor?

    ``exposure_at`` is the simulated time by which every correct node held
    an exposure of every id in ``exposed``; ``suspicion_at`` the time by
    which each had, at some poll, suspected (or exposed) every id in
    ``suspected`` -- a suspicion is dropped again whenever the accused
    looks up to date, so they rarely all hold at one instant.
    ``first_exposure_at`` is when a correct node first held an exposure of
    any id in ``exposed``.  :meth:`verify` is the completeness invariant.
    """

    INTERVAL_S = 0.25

    def __init__(self, sim, exposed: Sequence[int] = (),
                 suspected: Sequence[int] = ()):
        self.sim = sim
        self.exposed = [sim.directory.key_of(i) for i in exposed]
        self.suspected = [sim.directory.key_of(i) for i in suspected]
        self.pending_exposure: Set[int] = set(sim.correct_ids)
        self.pending_suspicion: Set[int] = set(sim.correct_ids)
        self.first_exposure_at: Optional[float] = None
        self.exposure_at: Optional[float] = None
        self.suspicion_at: Optional[float] = None

    def start(self) -> "DetectionMonitor":
        """Schedule the first poll; returns self for chaining."""
        self.sim.loop.call_later(self.INTERVAL_S, self._poll)
        return self

    def _poll(self) -> None:
        sim = self.sim
        now = sim.loop.now
        for node_id in sorted(self.pending_exposure | self.pending_suspicion):
            acct = sim.nodes[node_id].acct
            if self.first_exposure_at is None and any(
                    acct.is_exposed(k) for k in self.exposed):
                self.first_exposure_at = now
            if all(acct.is_exposed(k) for k in self.exposed):
                self.pending_exposure.discard(node_id)
            if all(acct.is_suspected(k) or acct.is_exposed(k)
                   for k in self.suspected):
                self.pending_suspicion.discard(node_id)
        if self.exposure_at is None and not self.pending_exposure:
            self.exposure_at = now
        if self.suspicion_at is None and not self.pending_suspicion:
            self.suspicion_at = now
        if self.pending_exposure or self.pending_suspicion:
            sim.loop.call_later(self.INTERVAL_S, self._poll)

    def verify(self) -> None:
        """Raise unless every correct node detected every censor."""
        broken = [f"node {node_id} never exposed every censor"
                  for node_id in sorted(self.pending_exposure)]
        broken += [f"node {node_id} never suspected every censor"
                   for node_id in sorted(self.pending_suspicion)]
        if broken:
            raise InvariantViolation(
                "censors undetected (completeness broken):\n  "
                + "\n  ".join(broken)
            )


def check_chaos_invariants(
    sim,
    monitor: Optional[InvariantMonitor] = None,
    min_fraction: float = 1.0,
) -> None:
    """The full post-chaos battery, one call."""
    assert_no_false_exposures(sim)
    assert_suspicions_cleared(sim)
    assert_append_only_logs(sim)
    assert_mempool_convergence(sim, min_fraction=min_fraction)
    if monitor is not None:
        monitor.verify()
