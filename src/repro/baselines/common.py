"""Shared plumbing for baseline mempool protocols.

:class:`BaseMempoolNode` provides what every mempool protocol needs --
transaction creation/storage, latency tracking, neighbour lists -- so each
baseline only implements its dissemination strategy.
:class:`BaselineSimulation` mirrors :class:`~repro.experiments.harness.
LOSimulation` (same topology, latencies and workload) for any node class.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Set, Type

from repro.crypto.keys import KeyPair
from repro.mempool.transaction import Transaction, make_transaction
from repro.obs.trackers import LatencyTracker
from repro.net.latency import CityLatencyModel, LatencyModel
from repro.net.message import ENVELOPE_BYTES, Message
from repro.net.network import Endpoint, Network
from repro.net.topology import TopologyBuilder
from repro.sim.loop import EventLoop
from repro.sim.rng import SeededRng
from repro.workload import EthereumTraceGenerator

TX_HASH_BYTES = 32     # an announced transaction id on the wire
SIGNATURE_BYTES = 64   # one signature
AUTH_BYTES = 96        # a PeerReview authenticator (hash + seq + signature)


class BaseMempoolNode(Endpoint):
    """Common state for a baseline mempool node."""

    def __init__(
        self,
        node_id: int,
        loop: EventLoop,
        network: Network,
        neighbors: Set[int],
        rng: random.Random,
        num_nodes: int,
        tracker: Optional[LatencyTracker] = None,
    ):
        self.node_id = node_id
        self.loop = loop
        self.network = network
        self.neighbors = set(neighbors)
        self.rng = rng
        self.num_nodes = num_nodes
        self.tracker = tracker
        self.keypair = KeyPair.generate(seed=f"baseline-node-{node_id}".encode())
        self.txs: Dict[int, Transaction] = {}   # sketch_id -> Transaction
        self.known_ids: Set[int] = set()
        self._nonce = 0

    @property
    def now(self) -> float:
        return self.loop.now

    def start(self) -> None:
        """Hook for periodic protocols; default no-op."""

    def create_transaction(self, fee: int, size_bytes: int = 250) -> Transaction:
        """Create a local transaction and hand it to the protocol."""
        self._nonce += 1
        tx = make_transaction(self.keypair, self._nonce, fee, self.now, size_bytes)
        if self.tracker is not None:
            self.tracker.record_created(tx.sketch_id, self.now)
        self._store(tx)
        self.on_new_local_tx(tx)
        return tx

    def _store(self, tx: Transaction) -> bool:
        """Record a transaction; returns False for duplicates."""
        if tx.sketch_id in self.known_ids:
            return False
        self.known_ids.add(tx.sketch_id)
        self.txs[tx.sketch_id] = tx
        if self.tracker is not None:
            self.tracker.record_seen(tx.sketch_id, self.node_id, self.now)
        return True

    def on_new_local_tx(self, tx: Transaction) -> None:
        """Protocol-specific dissemination of a locally created tx."""
        raise NotImplementedError

    def send(
        self, peer: int, msg_type: str, payload, body_bytes: int,
        is_overhead: bool = True,
    ) -> None:
        """Send with the standard envelope added."""
        self.network.send(
            self.node_id, peer, msg_type, payload,
            wire_bytes=body_bytes + ENVELOPE_BYTES, is_overhead=is_overhead,
        )


class BaselineSimulation:
    """Harness running any :class:`BaseMempoolNode` subclass."""

    def __init__(
        self,
        node_cls: Type[BaseMempoolNode],
        num_nodes: int = 100,
        seed: int = 42,
        out_degree: int = 8,
        max_in_degree: int = 125,
        latency_model: Optional[LatencyModel] = None,
        node_kwargs: Optional[dict] = None,
    ):
        self.num_nodes = num_nodes
        self.rng = SeededRng(seed)
        self.loop = EventLoop()
        latency = latency_model or CityLatencyModel(
            num_nodes, self.rng.stream("latency")
        )
        self.network = Network(self.loop, latency)
        self.tracker = LatencyTracker()
        builder = TopologyBuilder(
            num_nodes, self.rng.stream("topology"),
            out_degree=out_degree, max_in_degree=max_in_degree,
        )
        self.topology = builder.build()
        self.nodes: Dict[int, BaseMempoolNode] = {}
        for node_id in range(num_nodes):
            node = node_cls(
                node_id=node_id,
                loop=self.loop,
                network=self.network,
                neighbors=self.topology[node_id],
                rng=self.rng.fork(f"node-{node_id}").stream("behaviour"),
                num_nodes=num_nodes,
                tracker=self.tracker,
                **(node_kwargs or {}),
            )
            self.network.register(node)
            self.nodes[node_id] = node
        for node in self.nodes.values():
            node.start()

    def inject_workload(
        self, rate_per_s: float, duration_s: float, tx_size_bytes: int = 250
    ) -> int:
        """Same Poisson/Ethereum-like workload as the LO harness."""
        generator = EthereumTraceGenerator(
            num_nodes=self.num_nodes,
            rate_per_s=rate_per_s,
            rng=self.rng.stream("workload"),
            mean_size_bytes=tx_size_bytes,
        )
        count = 0
        for trace_tx in generator.stream(duration_s):
            self.loop.call_at(
                trace_tx.at_time,
                self._inject_one,
                trace_tx.origin,
                trace_tx.fee,
                trace_tx.size_bytes,
            )
            count += 1
        return count

    def _inject_one(self, origin: int, fee: int, size_bytes: int) -> None:
        self.nodes[origin].create_transaction(fee=fee, size_bytes=size_bytes)

    def run(self, until: float) -> None:
        """Advance simulated time."""
        self.loop.run_until(until)

    def total_overhead_bytes(self) -> int:
        """Protocol overhead bytes sent network-wide."""
        return self.network.total_overhead_bytes()

    def convergence_fraction(self, sketch_id: int) -> float:
        """Fraction of nodes holding a given transaction."""
        have = sum(1 for n in self.nodes.values() if sketch_id in n.known_ids)
        return have / self.num_nodes
