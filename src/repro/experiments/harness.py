"""Shared simulation harness: wires nodes, network, workload and metrics.

The harness reproduces the paper's experimental setup (section 6.1):
Bitcoin-like topology (8 out / <=125 in), synthetic 32-city latencies with
round-robin assignment, reconciliation with 3 random neighbours per second,
1 s timeouts with 3 retries, Poisson transaction workload, and optional
random-leader block production at a configurable mean block time.

Faulty nodes are instantiated from an ``attacker_factory`` so every attack
in :mod:`repro.attacks` plugs into the same harness.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple,
)

from repro import obs
from repro.chain.leader import LeaderSchedule
from repro.core.config import LOConfig
from repro.gossip import NeighborShuffler, PeerSampler
from repro.core.node import Directory, LONode
from repro.net.chaos import ChaosController, ChaosPlan
from repro.net.latency import CityLatencyModel, LatencyModel
from repro.net.network import Network
from repro.net.topology import TopologyBuilder
from repro.obs.caches import cache_stats, reset_caches
from repro.obs.trackers import EventCounter, LatencyTracker
from repro.crypto.keys import KeyPair
from repro.mempool.transaction import make_transaction
from repro.sim.loop import EventLoop
from repro.sim.rng import SeededRng
from repro.workload import EthereumTraceGenerator, HotKeySampler, MMPPTraceGenerator

NodeFactory = Callable[..., LONode]


def _collect_cache_stats() -> Dict[str, float]:
    """Flatten :func:`repro.obs.caches.cache_stats` for the registry.

    ``{"sketch.syndrome": {"hits": 3, ...}}`` becomes
    ``{"sketch.syndrome.hits": 3, ...}`` so a metrics snapshot carries the
    LRU effectiveness of every registered hot-path cache.
    """
    flat: Dict[str, float] = {}
    for name, counters in cache_stats().items():
        for key, value in counters.items():
            flat[f"{name}.{key}"] = value
    return flat


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Build or run a large object graph without the collector re-walking it.

    Construction only allocates objects that stay alive, and a run makes
    no cyclic garbage on any workload measured (docs/performance.md,
    "The cyclic collector"), so every pass the collector would make there
    frees nothing and costs time proportional to the graph so far.  When
    the caller's collector was on, the block ends with exactly one young
    pass -- it frees every cycle made inside the block -- and the
    collector comes back on.  A collector the caller turned off stays
    off, and no pass is forced.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.collect(0)
            gc.enable()


@dataclass
class SimulationParams:
    """Knobs of one simulation run."""

    num_nodes: int = 100
    seed: int = 42
    config: LOConfig = field(default_factory=LOConfig)
    out_degree: int = 8
    max_in_degree: int = 125
    latency_model: Optional[LatencyModel] = None  # default: 32-city synthetic
    malicious_ids: Sequence[int] = ()
    attacker_factory: Optional[NodeFactory] = None
    enable_blocks: bool = False
    tx_size_bytes: int = 250
    # Section 5.1: periodic neighbour rotation against the peer sampler,
    # evicting suspected/exposed peers first.  Off by default: the static
    # Bitcoin-like topology already satisfies the experiments' connectivity
    # assumptions, and rotation adds noise to bandwidth measurements.
    enable_shuffling: bool = False
    shuffle_period_s: float = 10.0
    # Optional chaos fault schedule (drop / duplicate / reorder / corrupt /
    # crash-recover); deterministic from its own seed.  Crashed nodes are
    # halted and restarted (session rebuild) when their window closes.
    chaos_plan: Optional[ChaosPlan] = None


class LOSimulation:
    """A ready-to-run LO network."""

    def __init__(self, params: SimulationParams):
        with _collector_paused():
            self._build(params)

    def _build(self, params: SimulationParams) -> None:
        # The caches are process-wide; emptying them and their counters
        # here makes a run's counters, cache sizes and memory the same
        # whatever ran before it in the process.
        reset_caches()
        self.params = params
        self.rng = SeededRng(params.seed)
        self.loop = EventLoop()
        latency = params.latency_model or CityLatencyModel(
            params.num_nodes, self.rng.stream("latency")
        )
        self.network = Network(self.loop, latency)
        self.directory = Directory()
        self.mempool_tracker = LatencyTracker()
        self.block_tracker = LatencyTracker()
        self.counter = EventCounter()

        malicious = set(params.malicious_ids)
        builder = TopologyBuilder(
            params.num_nodes,
            self.rng.stream("topology"),
            out_degree=params.out_degree,
            max_in_degree=params.max_in_degree,
        )
        # node id -> neighbour set, each handed to its node once as a
        # sorted tuple (192 bytes for 19 ids, where the set built by ``add``
        # is 2,264).  The node's tuple is then the only copy: ``topology``
        # reads through the nodes, and the shufflers and enforcement's
        # eviction rebind it.
        if malicious:
            topology = builder.build_with_adversaries(sorted(malicious))
        else:
            topology = builder.build()

        self.nodes: Dict[int, LONode] = {}
        note_block_created = self._note_block_created  # one bound method
        for node_id in range(params.num_nodes):
            factory: NodeFactory = LONode
            if node_id in malicious and params.attacker_factory is not None:
                factory = params.attacker_factory
            node = factory(
                node_id=node_id,
                loop=self.loop,
                network=self.network,
                config=params.config,
                directory=self.directory,
                neighbors=tuple(sorted(topology.pop(node_id))),
                rng=self.rng.fork(f"node-{node_id}").stream("behaviour"),
                mempool_tracker=self.mempool_tracker,
                block_tracker=self.block_tracker,
                counter=self.counter,
            )
            node.on_block_created = note_block_created
            self.nodes[node_id] = node
        self.malicious_ids: Set[int] = malicious
        self.correct_ids: List[int] = [
            i for i in range(params.num_nodes) if i not in malicious
        ]

        self.shufflers: Dict[int, NeighborShuffler] = {}
        if params.enable_shuffling:
            self.sampler = PeerSampler(
                range(params.num_nodes), self.rng.stream("sampler")
            )
            for node_id, node in self.nodes.items():
                self.shufflers[node_id] = NeighborShuffler(
                    self.loop,
                    node_id=node_id,
                    owner=node,
                    sampler=self.sampler,
                    rng=self.rng.fork(f"shuffle-{node_id}").stream("s"),
                    period=params.shuffle_period_s,
                    target_degree=params.out_degree,
                    blocklist=self._blocklist_ids(node),
                )

        self.leader_schedule: Optional[LeaderSchedule] = None
        if params.enable_blocks:
            self.leader_schedule = LeaderSchedule(
                self.loop,
                node_ids=list(range(params.num_nodes)),
                mean_block_time=params.config.mean_block_time_s,
                rng=self.rng.stream("leader"),
                on_leader=self._on_leader,
                eligible=self._can_propose,
            )

        self.chaos: Optional[ChaosController] = None
        if params.chaos_plan is not None:
            self.chaos = ChaosController(
                self.loop,
                self.network,
                params.chaos_plan,
                halt=self._halt_node,
                restart=self._restart_node,
            ).install()

        for node in self.nodes.values():
            node.start()
        for shuffler in self.shufflers.values():
            shuffler.start()
        if self.leader_schedule is not None:
            self.leader_schedule.start()

        # Canonical chain height, maintained incrementally: every block
        # enters the network through some node's builder (correct leaders
        # and block-manipulating attackers alike fire on_block_created),
        # and deliveries/restarts can never push any ledger beyond the
        # highest created block -- so tracking creations tracks the max.
        self._canonical_height = -1

        # Open-loop client state: per-account signing keys and nonce
        # counters shared across injection calls (created lazily, seeded
        # by account index, hence deterministic).
        self._account_keys: Dict[int, KeyPair] = {}
        self._account_nonces: Dict[int, int] = {}
        self._client_rng = self.rng.stream("client-behaviour")

        self._runs = 0
        self._wire_timeline()

    @property
    def topology(self) -> Dict[int, Tuple[int, ...]]:
        """The current overlay: node id -> its sorted neighbour tuple.

        Built from the nodes on each read, so after shuffling or eviction
        it is the overlay as it is now.
        """
        return {node_id: node.neighbors for node_id, node in self.nodes.items()}

    # -------------------------------------------------------- observability

    def collectors(self) -> Dict[str, Callable[[], Dict[str, Any]]]:
        """This simulation's counter sources, by namespace prefix.

        The network byte/drop meters, the harness event counter, the
        hot-path cache statistics, the admission counters and, under a
        chaos plan, the per-fault counters (see
        :class:`~repro.obs.registry.MetricsRegistry`).
        """
        collectors: Dict[str, Callable[[], Dict[str, Any]]] = {
            "net": self.network.collect_metrics,
            "events": self.counter.totals,
            "caches": _collect_cache_stats,
            "mempool": self._mempool_metrics,
        }
        if self.chaos is not None:
            collectors["chaos"] = self.chaos.injector.counters.as_dict
        return collectors

    def metrics_snapshot(self) -> Dict[str, Dict[str, float]]:
        """One-off snapshot of :meth:`collectors` (used by ``run --json``)."""
        return obs.MetricsRegistry(self.collectors()).snapshot()

    def _wire_timeline(self) -> None:
        """Hook the installed timeline recorder up to this run, if any.

        Attaches :meth:`collectors` (each count starts from zero) and
        schedules a ``telemetry_tick`` at the recorder's base interval:
        each tick records the harness-derived gauges (mean fee floor and
        pool occupancy across admission-enabled nodes), absorbs one
        collector snapshot, and lets the recorder publish its file, which
        it does at most once per wall second
        (:meth:`~repro.obs.timeline.TimelineRecorder.publish`).
        :meth:`run` and :meth:`run_until_steady` end with one more sample
        (:meth:`_end_run`).
        """
        timeline = obs.TIMELINE
        if timeline is None:
            return
        timeline.attach(self.collectors())
        interval = timeline.interval_s

        def telemetry_tick() -> None:
            current = obs.TIMELINE
            if current is None:
                return  # recorder detached mid-run; stop rescheduling
            self._sample_timeline(current)
            current.publish()
            self.loop.call_later(interval, telemetry_tick)

        self.loop.call_later(interval, telemetry_tick)

    def _sample_timeline(self, timeline) -> None:
        """Record the derived gauges, then absorb one registry snapshot."""
        now = self.loop.now
        pools = [n.mempool for n in self.nodes.values()
                 if n.mempool is not None]
        if pools:
            timeline.record_gauge(
                "mempool.fee_floor_avg", now,
                sum(p.floor(now) for p in pools) / len(pools),
            )
            timeline.record_gauge(
                "mempool.pool_txs_avg", now,
                sum(len(p) for p in pools) / len(pools),
            )
        timeline.sample(now)

    def _halt_node(self, node_id: int) -> None:
        node = self.nodes.get(node_id)
        if node is not None:
            node.stop()

    def _restart_node(self, node_id: int) -> None:
        node = self.nodes.get(node_id)
        if node is not None:
            node.restart()

    def _blocklist_ids(self, node: LONode):
        """Suspected/exposed peers of ``node`` as node ids, for the shuffler."""

        def blocklist() -> Set[int]:
            ids: Set[int] = set()
            for key in node.acct.blocklist():
                try:
                    ids.add(self.directory.id_of(key))
                except KeyError:
                    continue
            return ids

        return blocklist

    # ------------------------------------------------------------- workload

    def _on_leader(self, node_id: int) -> None:
        self.nodes[node_id].on_leader_elected()

    def _note_block_created(self, block) -> None:
        """Track the canonical tip incrementally (O(1) per created block)."""
        if block.height > self._canonical_height:
            self._canonical_height = block.height

    @property
    def canonical_height(self) -> int:
        """Height of the highest block created anywhere in the network."""
        return self._canonical_height

    def _can_propose(self, node_id: int) -> bool:
        """Stage-IV abstraction: a slot goes to an online, up-to-date miner.

        Consensus is out of scope (section 2.3); modelling it as "one
        finalised block per slot" requires the winning proposal to extend
        the canonical tip -- an offline node, or one still catching up
        after a crash, cannot get a stale proposal finalised.  The
        canonical height is maintained by :meth:`_note_block_created`;
        recomputing ``max`` over every ledger here would make each leader
        slot O(num_nodes).
        """
        if self.network.is_crashed(node_id):
            return False
        return self.nodes[node_id].ledger.height == self._canonical_height

    def inject_workload(
        self, rate_per_s: float, duration_s: float, start_at: float = 0.0
    ) -> int:
        """Schedule a Poisson transaction workload; returns the tx count."""
        generator = EthereumTraceGenerator(
            num_nodes=self.params.num_nodes,
            rate_per_s=rate_per_s,
            rng=self.rng.stream("workload"),
            mean_size_bytes=self.params.tx_size_bytes,
        )
        count = 0
        call_at = self.loop.call_at
        for trace_tx in generator.stream(duration_s):
            call_at(
                start_at + trace_tx.at_time,
                self._inject_one,
                trace_tx.origin,
                trace_tx.fee,
                trace_tx.size_bytes,
            )
            count += 1
        _t = obs.TRACER
        if _t.enabled:
            _t.event("sim.workload", t=self.loop.now, rate_per_s=rate_per_s,
                     duration_s=duration_s, start_at=start_at, txs=count)
        return count

    def _inject_one(self, origin: int, fee: int, size_bytes: int) -> None:
        self.nodes[origin].create_transaction(fee=fee, size_bytes=size_bytes)

    def inject_open_loop(
        self,
        rate_per_s: float,
        duration_s: float,
        start_at: float = 0.0,
        arrivals: str = "poisson",
        hot_fraction: float = 0.0,
        num_hot: int = 8,
        num_accounts: int = 1000,
        scale: int = 1,
        burst_multiplier: float = 8.0,
        mean_calm_s: float = 8.0,
        mean_burst_s: float = 2.0,
        rbf_fraction: float = 0.0,
    ) -> int:
        """Schedule an open-loop *client* workload; returns the tx count.

        Unlike :meth:`inject_workload` (which mints transactions from the
        receiving node's own key), this path models external clients: each
        trace ``sender_account`` maps to a persistent account keypair with
        its own nonce sequence, submits to a sticky home node (``account
        mod num_nodes`` -- a client talks to *its* miner, which keeps the
        per-node nonce FIFO contiguous), and is metered by that node's
        per-peer rate limiter under its account identity.  Accounts only
        advance their nonce when a submission is accepted, like a
        well-behaved wallet; with probability ``rbf_fraction`` a client
        re-submits its previous nonce instead, exercising the
        replace-by-fee path.

        ``arrivals`` selects the arrival process: ``"poisson"`` (the
        baseline) or ``"bursty"`` (the two-state MMPP of
        :class:`repro.workload.bursty.MMPPTraceGenerator` with the given
        burst shape).  ``hot_fraction > 0`` routes that share of traffic
        through ``num_hot`` hot accounts
        (:class:`repro.workload.hotkey.HotKeySampler`); ``scale > 1``
        superposes that many replicas of the whole trace with disjoint
        account ranges (:meth:`EthereumTraceGenerator.replay_scaled`).
        """
        rng = self.rng.stream("openloop")
        sampler = None
        if hot_fraction > 0.0:
            sampler = HotKeySampler(
                rng, num_accounts=num_accounts, num_hot=num_hot,
                hot_fraction=hot_fraction,
            )
        common = dict(
            num_nodes=self.params.num_nodes,
            rate_per_s=rate_per_s,
            rng=rng,
            mean_size_bytes=self.params.tx_size_bytes,
            num_accounts=num_accounts,
            account_sampler=sampler,
        )
        if arrivals == "bursty":
            generator: EthereumTraceGenerator = MMPPTraceGenerator(
                burst_multiplier=burst_multiplier,
                mean_calm_s=mean_calm_s,
                mean_burst_s=mean_burst_s,
                **common,
            )
        elif arrivals == "poisson":
            generator = EthereumTraceGenerator(**common)
        else:
            raise ValueError(f"unknown arrival process: {arrivals!r}")
        if scale > 1:
            trace = generator.replay_scaled(duration_s, scale)
        else:
            trace = generator.stream(duration_s)
        count = 0
        call_at = self.loop.call_at
        for trace_tx in trace:
            call_at(
                start_at + trace_tx.at_time,
                self._inject_client,
                trace_tx.sender_account,
                trace_tx.fee,
                trace_tx.size_bytes,
                rbf_fraction,
            )
            count += 1
        _t = obs.TRACER
        if _t.enabled:
            _t.event("sim.workload_open_loop", t=self.loop.now,
                     rate_per_s=rate_per_s, duration_s=duration_s,
                     start_at=start_at, arrivals=arrivals,
                     hot_fraction=hot_fraction, scale=scale, txs=count)
        return count

    def _inject_client(self, account: int, fee: int, size_bytes: int,
                       rbf_fraction: float) -> None:
        keypair = self._account_keys.get(account)
        if keypair is None:
            keypair = KeyPair.generate(seed=f"acct-{account}".encode())
            self._account_keys[account] = keypair
        next_nonce = self._account_nonces.get(account, 1)
        nonce = next_nonce
        is_rbf = False
        if next_nonce > 1 and self._client_rng.random() < rbf_fraction:
            nonce, is_rbf = next_nonce - 1, True  # fee-bump the last one
        tx = make_transaction(
            keypair, nonce, fee, self.loop.now, size_bytes=size_bytes
        )
        origin = account % self.params.num_nodes
        accepted = self.nodes[origin].receive_client_transaction(
            tx, peer=account
        )
        if accepted and not is_rbf:
            self._account_nonces[account] = next_nonce + 1

    def admission_breakdown(self) -> Dict[str, int]:
        """Admission-pipeline counters summed across all nodes.

        Empty when no node runs the admission pipeline.  Key order is the
        pipeline's own counter order, so same-seed runs serialise
        identically.
        """
        totals: Dict[str, int] = {}
        for node_id in sorted(self.nodes):
            mempool = self.nodes[node_id].mempool
            if mempool is None:
                continue
            for key, value in mempool.counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def _mempool_metrics(self) -> Dict[str, float]:
        """Registry collector: admission counters plus pool occupancy."""
        totals: Dict[str, float] = dict(self.admission_breakdown())
        if not totals:
            return {}
        pools = [n.mempool for n in self.nodes.values()
                 if n.mempool is not None]
        totals["pool_txs"] = float(sum(len(p) for p in pools))
        totals["pool_bytes"] = float(sum(p.pool_bytes for p in pools))
        return totals

    def inject_at(self, when: float, origin: int, fee: int = 10,
                  size_bytes: int = 250) -> None:
        """Schedule a single transaction injection."""
        self.loop.call_at(when, self._inject_one, origin, fee, size_bytes)

    # ------------------------------------------------------------ execution

    def run(self, until: float) -> None:
        """Advance simulated time (traced as one ``sim.run`` phase span).

        The collector is paused for the run and, if the caller had it on,
        makes one young pass before returning (:func:`_collector_paused`).
        The run ends with a timeline sample (:meth:`_end_run`).  Driving
        ``self.loop.run_until`` directly skips all three.
        """
        tracer = obs.TRACER
        span = None
        if tracer.enabled:
            self._runs += 1
            span = tracer.begin_span(
                "sim.run", self.loop.now, phase=self._runs,
                num_nodes=self.params.num_nodes, seed=self.params.seed,
                malicious=len(self.malicious_ids),
            )
        try:
            with _collector_paused():
                self.loop.run_until(until)
        finally:
            self._end_run(span)

    def _end_run(self, span) -> None:
        """Close a run: the timeline's closing sample, then the run's span.

        The sample makes every series hold the run's counts up to its last
        event, however the run's end falls between two ticks.
        """
        timeline = obs.TIMELINE
        if timeline is not None:
            self._sample_timeline(timeline)
        tracer = obs.TRACER
        if span is not None and tracer.enabled:
            tracer.end_span(span, self.loop.now)

    def run_until_steady(
        self,
        horizon: float,
        monitor=None,
        check_every_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Advance time until steady state or ``horizon``, whichever first.

        Requires an installed timeline recorder (``obs.TIMELINE``) -- the
        steady verdict is a pure function of its series, so same-seed
        runs stop at the same simulated time.  ``monitor`` defaults to a
        :class:`~repro.obs.steady.SteadyStateMonitor` over
        :data:`~repro.obs.steady.DEFAULT_STEADY_SERIES`;
        ``check_every_s`` is the re-check period (default: four timeline
        intervals, so a verdict lands within a few bins of convergence).

        Returns ``{"steady": bool, "steady_at": float | None,
        "t": float, "horizon": float}``.  Traced as one
        ``sim.run_until_steady`` span.  Each leg between two checks runs
        like :meth:`run`: collector paused, one young pass at its end.
        """
        timeline = obs.TIMELINE
        if timeline is None:
            raise ValueError(
                "run_until_steady needs an installed timeline recorder"
                " (obs.recording(timeline=...))"
            )
        if monitor is None:
            monitor = obs.SteadyStateMonitor(timeline)
        step = check_every_s if check_every_s is not None \
            else timeline.interval_s * 4
        if step <= 0:
            raise ValueError(f"check_every_s must be > 0, got {step}")
        tracer = obs.TRACER
        span = None
        if tracer.enabled:
            self._runs += 1
            span = tracer.begin_span(
                "sim.run_until_steady", self.loop.now, phase=self._runs,
                num_nodes=self.params.num_nodes, seed=self.params.seed,
                horizon=horizon,
            )
        steady_at: Optional[float] = None
        try:
            while self.loop.now < horizon:
                with _collector_paused():
                    self.loop.run_until(min(horizon, self.loop.now + step))
                if monitor.check():
                    steady_at = self.loop.now
                    break
        finally:
            self._end_run(span)
        return {
            "steady": steady_at is not None,
            "steady_at": steady_at,
            "t": self.loop.now,
            "horizon": horizon,
        }

    # ------------------------------------------------------------- analysis

    def correct_nodes(self) -> List[LONode]:
        """The correct (non-malicious) node objects."""
        return [self.nodes[i] for i in self.correct_ids]

    def convergence_fraction(self, sketch_id: int) -> float:
        """Fraction of correct nodes that committed a given transaction."""
        have = sum(
            1 for node in self.correct_nodes() if sketch_id in node.log
        )
        return have / len(self.correct_ids)

    def all_exposed(self, accused_ids: Sequence[int]) -> bool:
        """Every correct node exposed every accused node?"""
        keys = [self.directory.key_of(i) for i in accused_ids]
        return all(
            all(node.acct.is_exposed(k) for k in keys)
            for node in self.correct_nodes()
        )

    def all_suspected_or_exposed(self, accused_ids: Sequence[int]) -> bool:
        """Every correct node at least suspects every accused node?"""
        keys = [self.directory.key_of(i) for i in accused_ids]
        return all(
            all(
                node.acct.is_suspected(k) or node.acct.is_exposed(k)
                for k in keys
            )
            for node in self.correct_nodes()
        )

    def total_overhead_bytes(self) -> int:
        """Protocol overhead bytes sent across the whole network."""
        return self.network.total_overhead_bytes()

    def drop_breakdown(self) -> Dict[str, int]:
        """Per-reason message drop counts from the network layer."""
        return self.network.drop_breakdown()

    def wire_violation_totals(self) -> Dict[int, int]:
        """Per-observing-node count of malformed inbound messages."""
        return self.counter.per_node("wire_violations")
