"""Seeded chaos engineering for the simulated network.

The paper's fault model (section 3.1) lets faulty nodes drop or delay
traffic arbitrarily; real deployments additionally see duplicated UDP
datagrams, reordering, bit-flipped payloads and whole-process crashes.
This module injects all of those *deterministically* so that robustness
runs are reproducible bit-for-bit from a seed:

* :class:`ChaosPlan` -- a declarative description of the faults: per-link
  probabilistic drop / duplication / delay jitter (reordering) / payload
  corruption rates plus scripted :class:`CrashWindow` schedules.
* :class:`ChaosInjector` -- the :meth:`repro.net.network.Network.set_fault_injector`
  implementation that turns one logical send into zero or more deliveries.
* :class:`ChaosController` -- schedules the crash windows on the event
  loop, crashing nodes at the network layer and restarting them (session
  rebuild, fresh sync phase) on recovery.
* :func:`corrupt_payload` -- structured payload mangling used both by the
  injector and by the ingress fuzz tests.

Determinism: every per-message decision consumes a fixed number of draws
from one ``random.Random(plan.seed)`` stream, and messages reach the
injector in event-loop order, which is itself deterministic.  Two runs of
the same seeded simulation with the same plan therefore produce identical
fault sequences.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.loop import EventLoop


@dataclass(frozen=True)
class CrashWindow:
    """One scripted crash: offline at ``crash_at``, back at ``recover_at``."""

    node_id: int
    crash_at: float
    recover_at: float

    def __post_init__(self) -> None:
        if self.crash_at < 0:
            raise ValueError(f"crash_at must be >= 0, got {self.crash_at}")
        if self.recover_at <= self.crash_at:
            raise ValueError(
                f"recover_at ({self.recover_at}) must be after"
                f" crash_at ({self.crash_at})"
            )


@dataclass(frozen=True)
class ChaosPlan:
    """Declarative fault schedule; all rates are per-message probabilities.

    ``max_jitter_s`` bounds the extra delivery delay drawn (uniformly) for
    messages selected by ``reorder_rate``; a jittered message can overtake
    or fall behind its neighbours, which is exactly network reordering.
    ``protected_types`` lists message types never corrupted (drop / dup /
    jitter still apply) -- useful to keep a control channel readable.
    """

    seed: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    max_jitter_s: float = 0.5
    corrupt_rate: float = 0.0
    crash_windows: Tuple[CrashWindow, ...] = ()
    protected_types: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "reorder_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.max_jitter_s < 0:
            raise ValueError(f"max_jitter_s must be >= 0, got {self.max_jitter_s}")

    def crashed_ids(self) -> Tuple[int, ...]:
        """Distinct node ids with at least one scripted crash window."""
        return tuple(sorted({w.node_id for w in self.crash_windows}))


# --------------------------------------------------------------------------
# Payload corruption
# --------------------------------------------------------------------------

_GARBAGE: Tuple[Callable[[random.Random], Any], ...] = (
    lambda rng: None,
    lambda rng: rng.getrandbits(32),
    lambda rng: -rng.getrandbits(16),
    lambda rng: bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 24))),
    lambda rng: "".join(chr(rng.randrange(33, 127)) for _ in range(8)),
    lambda rng: {"junk": rng.getrandbits(8)},
    lambda rng: (rng.getrandbits(8),) * rng.randrange(0, 4),
    lambda rng: float("nan"),
    lambda rng: [],
)


def _garbage_value(rng: random.Random) -> Any:
    return rng.choice(_GARBAGE)(rng)


def corrupt_payload(payload: Any, rng: random.Random) -> Any:
    """Return a structurally corrupted variant of ``payload``.

    Half the time the whole object is replaced with typed garbage (type
    confusion); otherwise, for dataclass payloads, one random field is
    swapped for garbage (field-level corruption), falling back to whole-
    object replacement when the dataclass rejects the mutation.
    """
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        if rng.random() < 0.5:
            fields = dataclasses.fields(payload)
            if fields:
                target = rng.choice(fields).name
                try:
                    return dataclasses.replace(
                        payload, **{target: _garbage_value(rng)}
                    )
                except Exception:
                    pass  # validating constructors refuse; fall through
        return _garbage_value(rng)
    if isinstance(payload, tuple) and payload:
        index = rng.randrange(len(payload))
        return payload[:index] + (_garbage_value(rng),) + payload[index + 1:]
    return _garbage_value(rng)


# --------------------------------------------------------------------------
# The injector
# --------------------------------------------------------------------------


@dataclass
class ChaosCounters:
    """What the injector actually did (drops are also in the network's)."""

    examined: int = 0
    dropped: int = 0
    duplicated: int = 0
    reordered: int = 0
    corrupted: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Counter snapshot as a plain dict (for assertions and reports)."""
        return dataclasses.asdict(self)


class ChaosInjector:
    """Per-message fault decisions, deterministic from the plan's seed.

    Install with ``network.set_fault_injector(injector)``.  Every message
    consumes the same number of RNG draws regardless of which faults fire,
    so editing one rate does not shift the decisions made for later
    messages of an otherwise identical run.
    """

    def __init__(self, plan: ChaosPlan, rng: Optional[random.Random] = None,
                 clock: Optional[EventLoop] = None):
        self.plan = plan
        self.rng = rng or random.Random(plan.seed)
        # Corruption draws a variable number of values, so it gets its own
        # stream: the decision stream stays at exactly five draws per
        # message no matter which faults fire.
        self._corrupt_rng = random.Random((plan.seed << 1) ^ 0x9E3779B9)
        self.counters = ChaosCounters()
        # Optional event-loop handle so fault events carry simulated time
        # in traces; without one they are stamped t=0.0 (standalone use).
        self.clock = clock

    def _trace_fault(self, kind: str, message: Message) -> None:
        _t = obs.TRACER
        if _t.enabled:
            _t.event(
                f"chaos.{kind}",
                t=self.clock.now if self.clock is not None else 0.0,
                node_id=message.recipient,
                msg_type=message.msg_type,
                sender=message.sender,
                recipient=message.recipient,
            )

    def __call__(
        self, message: Message, delay: float
    ) -> List[Tuple[float, Message]]:
        plan, rng = self.plan, self.rng
        self.counters.examined += 1
        # Fixed draw order: drop, duplicate, jitter, corrupt.
        drop = rng.random() < plan.drop_rate
        duplicate = rng.random() < plan.duplicate_rate
        jitter = rng.uniform(0.0, plan.max_jitter_s)
        reorder = rng.random() < plan.reorder_rate
        corrupt = rng.random() < plan.corrupt_rate
        if drop:
            self.counters.dropped += 1
            self._trace_fault("drop", message)
            return []
        if corrupt and message.msg_type not in plan.protected_types:
            self.counters.corrupted += 1
            self._trace_fault("corrupt", message)
            message = Message(
                sender=message.sender,
                recipient=message.recipient,
                msg_type=message.msg_type,
                payload=corrupt_payload(message.payload, self._corrupt_rng),
                wire_bytes=message.wire_bytes,
                is_overhead=message.is_overhead,
            )
        if reorder:
            self.counters.reordered += 1
            self._trace_fault("reorder", message)
            delay += jitter
        deliveries = [(delay, message)]
        if duplicate:
            self.counters.duplicated += 1
            self._trace_fault("duplicate", message)
            deliveries.append((delay + jitter + 1e-6, message))
        return deliveries


# --------------------------------------------------------------------------
# Crash / recover scheduling
# --------------------------------------------------------------------------


class ChaosController:
    """Runs a plan against a live simulation.

    ``halt`` is invoked with the node id when its crash window opens (the
    process dies: periodic timers should stop); ``restart`` when the
    window closes, *after* the network marks it reachable again.  The LO
    harness passes callbacks that stop the node and rebuild its volatile
    session state (:meth:`repro.core.node.LONode.restart`).
    """

    def __init__(
        self,
        loop: EventLoop,
        network: Network,
        plan: ChaosPlan,
        halt: Optional[Callable[[int], None]] = None,
        restart: Optional[Callable[[int], None]] = None,
    ):
        self.loop = loop
        self.network = network
        self.plan = plan
        self.halt = halt
        self.restart = restart
        self.injector = ChaosInjector(plan, clock=loop)
        self._installed = False

    def install(self) -> "ChaosController":
        """Attach the injector and schedule every crash window; idempotent."""
        if self._installed:
            return self
        self._installed = True
        self.network.set_fault_injector(self.injector)
        for window in self.plan.crash_windows:
            self.loop.call_at(window.crash_at, self._crash, window.node_id)
            self.loop.call_at(window.recover_at, self._recover, window.node_id)
        return self

    def uninstall(self) -> None:
        """Detach the injector (scheduled crash windows still run)."""
        self.network.set_fault_injector(None)
        self._installed = False

    def _crash(self, node_id: int) -> None:
        _t = obs.TRACER
        if _t.enabled:
            _t.event("chaos.crash", t=self.loop.now, node_id=node_id)
        self.network.crash(node_id)
        if self.halt is not None:
            self.halt(node_id)

    def _recover(self, node_id: int) -> None:
        _t = obs.TRACER
        if _t.enabled:
            _t.event("chaos.recover", t=self.loop.now, node_id=node_id)
        self.network.recover(node_id)
        if self.restart is not None:
            self.restart(node_id)
