"""Reusable correctness harnesses for robustness and chaos runs."""

from repro.testing.invariants import (
    DetectionMonitor,
    InvariantMonitor,
    InvariantViolation,
    SuspicionGossipTally,
    assert_append_only_logs,
    assert_mempool_convergence,
    assert_no_false_exposures,
    assert_suspicion_gossip_bounded,
    assert_suspicions_cleared,
    check_chaos_invariants,
)

__all__ = [
    "DetectionMonitor",
    "InvariantMonitor",
    "InvariantViolation",
    "SuspicionGossipTally",
    "assert_append_only_logs",
    "assert_mempool_convergence",
    "assert_no_false_exposures",
    "assert_suspicion_gossip_bounded",
    "assert_suspicions_cleared",
    "check_chaos_invariants",
]
