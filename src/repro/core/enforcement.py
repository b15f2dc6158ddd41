"""Enforcement policies on top of detection (section 5.4).

The paper deliberately leaves enforcement to the deployment: "in
Proof-of-Stake consensus algorithms, various slashing strategies can be
applied ... Misbehaving nodes can also be penalized at the network layer
level, such as temporary disconnection from the network.  In addition ...
detection allows the implementation of mechanisms for the rejection of
blocks that deviate from the canonical transaction order."

This module implements those three levers as composable policies over the
simulation:

* :class:`StakeSlashing` -- a stake ledger debited on exposure;
* :class:`NetworkEviction` -- exposed nodes are dropped from overlay
  neighbour sets and barred from leader election;
* :class:`BlockRejection` -- blocks from exposed creators are rejected
  before settlement (this one changes consensus-visible state, which is
  why the paper keeps it optional).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.core.node import LONode
from repro.crypto.keys import PublicKey


@dataclass
class StakeSlashing:
    """Debit a validator's stake when it is exposed (PoS slashing).

    Stake is tracked per public key; each distinct exposure evidence slashes
    ``slash_fraction`` of the remaining stake, once per (victim, evidence
    key) pair.
    """

    initial_stake: int = 1000
    slash_fraction: float = 0.5
    stakes: Dict[PublicKey, float] = field(default_factory=dict)
    _slashed: Set[tuple] = field(default_factory=set)

    def register(self, key: PublicKey) -> None:
        """Give a validator its initial stake."""
        self.stakes.setdefault(key, float(self.initial_stake))

    def stake_of(self, key: PublicKey) -> float:
        """Current stake (initial if never registered explicitly)."""
        return self.stakes.get(key, float(self.initial_stake))

    def on_exposure(self, accused: PublicKey, evidence_key: tuple) -> float:
        """Apply one slash; returns the amount slashed (0 for duplicates)."""
        self.register(accused)
        dedup = (accused.raw, evidence_key)
        if dedup in self._slashed:
            return 0.0
        self._slashed.add(dedup)
        amount = self.stakes[accused] * self.slash_fraction
        self.stakes[accused] -= amount
        return amount


class NetworkEviction:
    """Temporary disconnection: drop exposed peers from the overlay.

    Applied per node: every time the node adopts an exposure, the exposed
    peer is removed from its neighbour set (the eligible-neighbour filter
    in LONode already excludes exposed peers from gossip; eviction also
    frees the slot for the shuffler to refill).
    """

    def __init__(self) -> None:
        self.evictions = 0

    def apply(self, node: LONode, directory) -> int:
        """Evict every currently-exposed neighbour of ``node``.

        Rebinds ``node.neighbors`` to the kept peers (still sorted) when
        any is evicted.
        """
        kept = tuple(peer for peer in node.neighbors
                     if not node.acct.is_exposed(directory.key_of(peer)))
        evicted = len(node.neighbors) - len(kept)
        if evicted:
            node.neighbors = kept
        self.evictions += evicted
        return evicted


class BlockRejection:
    """Reject blocks from exposed creators before settlement.

    Wraps a node's ledger-append path: a block whose creator the node has
    *already* exposed is not settled.  (Blocks that themselves carry the
    first evidence still settle -- inspection is post-hoc, section 4.3 --
    so only repeat offenders are filtered.)
    """

    def __init__(self) -> None:
        self.rejected = 0

    def install(self, node: LONode) -> None:
        """Monkey-patch the node's settle path with the rejection filter."""
        original = node._settle_or_buffer

        def filtered(announce) -> None:
            creator = announce.block.creator
            if node.acct.is_exposed(creator):
                self.rejected += 1
                return
            original(announce)

        node._settle_or_buffer = filtered  # type: ignore[method-assign]


@dataclass
class EnforcementReport:
    """Summary of enforcement actions across a run."""

    total_slashed: float = 0.0
    evictions: int = 0
    rejected_blocks: int = 0
    leader_elections_denied: int = 0


class EnforcementManager:
    """Wires the three policies into a simulation.

    Usage::

        manager = EnforcementManager(sim.directory)
        for node in sim.nodes.values():
            manager.attach(node)
        # make exposed nodes ineligible for leadership:
        schedule.eligible = manager.leader_eligible
    """

    def __init__(self, directory, slashing: Optional[StakeSlashing] = None):
        self.directory = directory
        self.slashing = slashing or StakeSlashing()
        self.eviction = NetworkEviction()
        self.rejection = BlockRejection()
        self.report = EnforcementReport()
        self._nodes: Dict[int, LONode] = {}

    def attach(self, node: LONode) -> None:
        """Install all policies on one node."""
        self._nodes[node.node_id] = node
        self.slashing.register(node.public_key)
        self.rejection.install(node)
        original = node._broadcast_exposure

        def hooked(blame) -> None:
            before = blame.accused in node.acct.exposed
            original(blame)
            if not before and blame.accused in node.acct.exposed:
                slashed = self.slashing.on_exposure(blame.accused, blame.key())
                self.report.total_slashed += slashed
                self.report.evictions += self.eviction.apply(
                    node, self.directory
                )

        node._broadcast_exposure = hooked  # type: ignore[method-assign]

    def leader_eligible(self, node_id: int) -> bool:
        """Eligibility filter: denied once a majority of nodes exposed it.

        Counting adopters keeps the filter consistent with exposure
        completeness: once evidence spreads, every correct node reaches the
        same verdict.
        """
        key = self.directory.key_of(node_id)
        exposers = sum(
            1 for node in self._nodes.values() if node.acct.is_exposed(key)
        )
        eligible = exposers <= len(self._nodes) // 2
        if not eligible:
            self.report.leader_elections_denied += 1
        return eligible

    def finalize_report(self) -> EnforcementReport:
        """Collect final counters into the report."""
        self.report.rejected_blocks = self.rejection.rejected
        return self.report
