"""LO: the accountable base-layer protocol (the paper's contribution).

Public surface:

* :class:`~repro.core.node.LONode` -- a full miner: Alg. 1 reconciliation,
  accountability (suspicions/exposures), canonical block building and
  block inspection.
* :class:`~repro.core.config.LOConfig` -- protocol parameters (defaults
  follow the paper's evaluation setup).
* :mod:`repro.core.policies` -- the three explicit policies of Table 1.
* Commitments, ordering, inspection and accountability primitives for
  building custom nodes.  Attacks do not subclass :class:`LONode`: each
  is a policy in its ``adversary`` slot (:mod:`repro.attacks`).
"""

from repro.core.accountability import (
    AccountabilityState,
    BlockViolationEvidence,
    ExposureBlame,
    PendingRequest,
    SuspicionBlame,
)
from repro.core.blockbuilder import BlockBuilder
from repro.core.client import LightClient, StatusReply, SubmitAck
from repro.core.enforcement import (
    BlockRejection,
    EnforcementManager,
    NetworkEviction,
    StakeSlashing,
)
from repro.core.commitment import (
    BundleInfo,
    CommitmentHeader,
    CommitmentStore,
    EquivocationEvidence,
    sign_header,
)
from repro.core.config import LOConfig
from repro.core.inspection import BlockInspector, InspectionResult, Violation
from repro.core.node import Directory, LONode
from repro.core.ordering import canonical_order, fee_priority_order, shuffle_bundle
from repro.core.policies import Manipulation, Policy, ViolationKind
from repro.core.wire import PeerQuarantine, validate_payload

__all__ = [
    "AccountabilityState",
    "BlockBuilder",
    "BlockInspector",
    "BlockRejection",
    "EnforcementManager",
    "LightClient",
    "NetworkEviction",
    "StakeSlashing",
    "StatusReply",
    "SubmitAck",
    "BlockViolationEvidence",
    "BundleInfo",
    "CommitmentHeader",
    "CommitmentStore",
    "Directory",
    "EquivocationEvidence",
    "ExposureBlame",
    "InspectionResult",
    "LOConfig",
    "LONode",
    "Manipulation",
    "PeerQuarantine",
    "PendingRequest",
    "Policy",
    "SuspicionBlame",
    "Violation",
    "ViolationKind",
    "canonical_order",
    "fee_priority_order",
    "shuffle_bundle",
    "sign_header",
    "validate_payload",
]
