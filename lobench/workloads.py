"""The four lobench workloads.

A workload is a fixed system configuration (node count, protocol config,
attackers, horizon) plus an input trace generated from the seed.  The
seed reaches the simulator only as ``SimulationParams.seed`` (topology,
city assignment, keys, per-node peer choice) and as the benchmark's own
trace streams (arrival times, origins, fees, sizes, accounts).

Every trace has a *fixed* transaction count on a stratified schedule
(one arrival per equal slot, placed uniformly inside it).  The harness'
Poisson and MMPP generators draw the count itself, which alone moves the
work by 10% (``steady_gossip``) to several-fold (an MMPP burst that may
not start within the horizon) from seed to seed; the benchmark is run at
many seeds and must cost the same at each.  Fees, sizes, origins and
sender accounts still come from ``EthereumTraceGenerator``'s marginals.
``lobench/README.md`` gives the measurements behind each size.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterator, Sequence, Tuple

from repro.attacks import make_censor_factory
from repro.core.config import LOConfig
from repro.crypto.keys import KeyPair
from repro.experiments.harness import LOSimulation, SimulationParams
from repro.mempool import AdmissionConfig, make_transaction
from repro.sim.rng import SeededRng
from repro.workload import EthereumTraceGenerator, HotKeySampler
from repro.workload.ethtrace import TraceTransaction

#: (start_s, duration_s, transaction count) of one constant-rate segment.
Phase = Tuple[float, float, int]


@dataclasses.dataclass(frozen=True)
class Workload:
    """One named benchmark workload.

    ``construct(seed, quick)`` builds the network, ``inject(sim, seed,
    quick)`` schedules the trace; ``quick`` selects the shrunk smoke-test
    size.  By the horizon every correct node must hold an exposure of
    each id in ``exposed`` and must have suspected each id in
    ``suspected``.
    """

    name: str
    horizon_s: float
    quick_horizon_s: float
    construct: Callable[[int, bool], LOSimulation]
    inject: Callable[[LOSimulation, int, bool], None]
    exposed: Tuple[int, ...] = ()
    suspected: Tuple[int, ...] = ()

    def horizon(self, quick: bool) -> float:
        """Simulated seconds ``sim.run`` covers."""
        return self.quick_horizon_s if quick else self.horizon_s


def trace(
    seed: int,
    num_nodes: int,
    phases: Sequence[Phase],
    hot_fraction: float = 0.0,
) -> Iterator[TraceTransaction]:
    """Fixed-count open-loop trace over constant-rate ``phases``."""
    rng = SeededRng(seed).stream("lobench-trace")
    sampler = None
    if hot_fraction > 0.0:
        sampler = HotKeySampler(rng, hot_fraction=hot_fraction)
    marginals = EthereumTraceGenerator(
        num_nodes=num_nodes, rate_per_s=1.0, rng=rng, account_sampler=sampler
    ).stream(float("inf"))
    for start, duration, count in phases:
        slot = duration / count
        for index in range(count):
            yield dataclasses.replace(
                next(marginals), at_time=start + (index + rng.random()) * slot
            )


def inject_node_trace(sim: LOSimulation, txs: Iterator[TraceTransaction]) -> None:
    """Each transaction is minted by its origin node (``inject_workload``)."""
    for tx in txs:
        sim.inject_at(tx.at_time, tx.origin, fee=tx.fee, size_bytes=tx.size_bytes)


class Wallets:
    """External clients behind the admission pipeline.

    The client model of ``LOSimulation.inject_open_loop`` on a trace the
    benchmark fixes: one keypair and nonce sequence per account, a sticky
    home node, the nonce advancing only on acceptance, and with
    probability ``rbf_fraction`` a fee-bump of the previous nonce.
    """

    def __init__(self, sim: LOSimulation, seed: int, rbf_fraction: float):
        self.sim = sim
        self.rbf_fraction = rbf_fraction
        self.rng = SeededRng(seed).stream("lobench-wallets")
        self.keys = {}
        self.nonces = {}

    def submit(self, account: int, fee: int, size_bytes: int) -> None:
        """Submit one transaction from ``account`` to its home node."""
        keypair = self.keys.get(account)
        if keypair is None:
            keypair = KeyPair.generate(seed=f"acct-{account}".encode())
            self.keys[account] = keypair
        next_nonce = self.nonces.get(account, 1)
        is_rbf = next_nonce > 1 and self.rng.random() < self.rbf_fraction
        nonce = next_nonce - 1 if is_rbf else next_nonce
        sim = self.sim
        tx = make_transaction(keypair, nonce, fee, sim.loop.now, size_bytes)
        home = sim.nodes[account % sim.params.num_nodes]
        if home.receive_client_transaction(tx, peer=account) and not is_rbf:
            self.nonces[account] = next_nonce + 1

    def inject(self, txs: Iterator[TraceTransaction]) -> None:
        """Schedule every trace transaction on the simulated clock."""
        for tx in txs:
            self.sim.loop.schedule_at(
                tx.at_time, self.submit, tx.sender_account, tx.fee, tx.size_bytes
            )


def _steady_construct(seed: int, quick: bool) -> LOSimulation:
    return LOSimulation(SimulationParams(
        num_nodes=32, seed=seed, enable_blocks=True,
        config=LOConfig(mean_block_time_s=4.0),
    ))


def _steady_inject(sim: LOSimulation, seed: int, quick: bool) -> None:
    phases = [(0.0, 3.0, 30)] if quick else [(0.0, 14.0, 140)]
    inject_node_trace(sim, trace(seed, 32, phases))


def _burst_construct(seed: int, quick: bool) -> LOSimulation:
    return LOSimulation(SimulationParams(
        num_nodes=24, seed=seed, config=LOConfig(admission=AdmissionConfig()),
    ))


def _burst_inject(sim: LOSimulation, seed: int, quick: bool) -> None:
    if quick:
        phases = [(0.0, 1.0, 10), (1.0, 0.5, 20)]
    else:
        phases = [(0.0, 1.0, 5), (1.0, 3.0, 75), (4.0, 1.0, 5)]
    Wallets(sim, seed, rbf_fraction=0.1).inject(
        trace(seed, 24, phases, hot_fraction=0.3)
    )


CENSORS = (0, 1, 2)
FORKING_CENSOR = 0


def _storm_construct(seed: int, quick: bool) -> LOSimulation:
    censors = set(CENSORS)
    pure = make_censor_factory(censors, ignore_sync=True, drop_blames=True,
                               equivocate=False)
    forking = make_censor_factory(censors, ignore_sync=True, drop_blames=True,
                                  equivocate=True)
    return LOSimulation(SimulationParams(
        num_nodes=32, seed=seed,
        config=LOConfig(verify_suspicions_locally=False),
        malicious_ids=CENSORS,
        attacker_factory=lambda **kwargs: (
            forking if kwargs["node_id"] == FORKING_CENSOR else pure
        )(**kwargs),
    ))


def _storm_inject(sim: LOSimulation, seed: int, quick: bool) -> None:
    # The first transactions originate at the censors, so each has content
    # to withhold; with an empty log a censor never opens a sync round.
    correct = 32 - len(CENSORS)
    inject_node_trace(sim, (
        dataclasses.replace(tx, origin=CENSORS[i] if i < len(CENSORS)
                            else len(CENSORS) + tx.origin % correct)
        for i, tx in enumerate(trace(seed, 32, [(0.0, 10.0, 20)]))
    ))


def _scale_construct(seed: int, quick: bool) -> LOSimulation:
    return LOSimulation(SimulationParams(
        num_nodes=1000 if quick else 10_000, seed=seed,
    ))


def _scale_inject(sim: LOSimulation, seed: int, quick: bool) -> None:
    # One client shares each transaction with 25 miners at once (stage I):
    # an epidemic with 25 starts grows on nearly the same schedule at every
    # seed, so the horizon cuts the same amount of work; from a single
    # origin the cut would land anywhere between 16k and 29k deliveries.
    rng = SeededRng(seed).stream("lobench-broadcast")
    client = KeyPair.generate(seed=b"lobench-client")
    miners = range(sim.params.num_nodes)

    def share(nonce: int, fee: int, size_bytes: int, targets) -> None:
        tx = make_transaction(client, nonce, fee, sim.loop.now, size_bytes)
        for target in targets:
            sim.nodes[target].receive_client_transaction(tx)

    # Fixed arrival times: while the epidemics grow ~4x per second, 0.4 s
    # of arrival jitter would double the work the horizon cuts off.
    txs = trace(seed, sim.params.num_nodes, [(0.0, 2.0, 4)])
    for nonce, tx in enumerate(txs, start=1):
        sim.loop.schedule_at(0.5 * nonce - 0.45, share, nonce, tx.fee,
                             tx.size_bytes, rng.sample(miners, 25))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("steady_gossip", 17.0, 5.0, _steady_construct, _steady_inject),
        Workload("burst_admission", 6.0, 3.0, _burst_construct, _burst_inject),
        Workload("censor_storm", 70.0, 25.0, _storm_construct, _storm_inject,
                 exposed=(FORKING_CENSOR,),
                 suspected=tuple(c for c in CENSORS if c != FORKING_CENSOR)),
        Workload("paper_scale", 2.8, 2.5, _scale_construct, _scale_inject),
    )
}
