"""Block inspection (section 4.3, Fig. 3 steps 5-6).

"Given the mempool commitments, any node can verify the produced block by
inspecting its content with respect to the LO reference protocol ...  Any
violation exposes the block creator, by comparing the block content with
the known commitments."

Inspection is a pure comparison: recompute the canonical order from the
creator's committed bundle history (pinned by the block's ``commit_seq``),
apply the deterministic exclusion rules, and diff against the block body.
The result is either a (possibly empty) list of violations or
*inconclusive* when the inspector is still missing transaction contents it
needs for the exclusion rules -- a real inspector requests those and
re-inspects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Container, List, Optional, Sequence, Set

from repro.chain.block import Block
from repro.core.commitment import BundleInfo
from repro.core.config import LOConfig
from repro.core.ordering import canonical_order
from repro.core.policies import ViolationKind


@dataclass(frozen=True)
class Violation:
    """One detected policy violation, attributable to the block creator."""

    kind: ViolationKind
    block_hash: bytes
    detail: str

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Violation({self.kind.value}: {self.detail})"


@dataclass
class InspectionResult:
    """Outcome of inspecting one block."""

    conclusive: bool
    violations: List[Violation]
    missing_content: List[int]  # ids whose content the inspector still needs

    @property
    def clean(self) -> bool:
        """Conclusively free of violations."""
        return self.conclusive and not self.violations


class BlockInspector:
    """Inspects blocks against a creator's committed bundle history."""

    __slots__ = ("config",)

    def __init__(self, config: LOConfig):
        self.config = config

    def inspect(
        self,
        block: Block,
        bundles: Sequence[BundleInfo],
        prev_hash: bytes,
        settled: Container[int],
        content_known: Callable[[int], bool],
        is_invalid: Callable[[int], bool],
        fee_of: Callable[[int], Optional[int]],
    ) -> InspectionResult:
        """Compare a block body against the canonical expectation.

        ``bundles`` must be the creator's bundle history as reconstructed by
        the inspector (it is exchanged during reconciliation); ``settled``
        holds the ids already in the chain *before* this block (only
        ``in`` is asked of it).
        """
        if block.commit_seq > len(bundles):
            # The inspector has not yet learned the pinned commitment
            # prefix; it cannot judge the block either way.
            return InspectionResult(False, [], [])

        committed_prefix: List[int] = []
        for bundle in bundles[: block.commit_seq]:
            committed_prefix.extend(bundle.ids)

        unknown = [
            i for i in committed_prefix
            if not content_known(i) and not is_invalid(i) and i not in settled
        ]
        if unknown:
            return InspectionResult(False, [], unknown)

        def exclude(sketch_id: int) -> bool:
            if sketch_id in settled:
                return True
            if is_invalid(sketch_id):
                return True
            fee = fee_of(sketch_id)
            return fee is None or fee < self.config.min_fee

        expected = canonical_order(bundles, block.commit_seq, prev_hash, exclude)
        expected = expected[: self.config.max_block_txs]
        violations = self._diff(block, expected, set(committed_prefix), settled)
        return InspectionResult(True, violations, [])

    def _diff(
        self,
        block: Block,
        expected: List[int],
        committed: Set[int],
        settled: Container[int],
    ) -> List[Violation]:
        violations: List[Violation] = []
        body = list(block.tx_ids)
        prefix_len = min(len(expected), len(body))

        # 1. The body must start with the canonical sequence.
        for position in range(prefix_len):
            if body[position] != expected[position]:
                violations.append(
                    self._classify_mismatch(
                        block, position, body, expected, committed
                    )
                )
                break
        else:
            # 2. Canonical prefix matched; every committed tx must be there.
            if len(body) < len(expected):
                missing = expected[len(body)]
                violations.append(
                    Violation(
                        ViolationKind.MISSING_COMMITTED_TX,
                        block.block_hash,
                        f"committed tx {missing} absent from block body",
                    )
                )
            else:
                # 3. Suffix may only hold the creator's own new (never
                #    previously committed, unsettled) transactions.
                for extra in body[len(expected):]:
                    if extra in committed or extra in settled:
                        violations.append(
                            Violation(
                                ViolationKind.ORDER_DEVIATION,
                                block.block_hash,
                                f"tx {extra} duplicated outside canonical order",
                            )
                        )
                        break
        return violations

    def _classify_mismatch(
        self,
        block: Block,
        position: int,
        body: List[int],
        expected: List[int],
        committed: Set[int],
    ) -> Violation:
        """Label the first canonical-prefix mismatch with its primitive."""
        found = body[position]
        wanted = expected[position]
        if found not in committed:
            return Violation(
                ViolationKind.UNCOMMITTED_TX_IN_BODY,
                block.block_hash,
                f"tx {found} at position {position} was never committed"
                f" (expected {wanted})",
            )
        if wanted not in set(body):
            # The canonical tx is absent from the whole body: blockspace
            # censorship rather than a permutation.
            return Violation(
                ViolationKind.MISSING_COMMITTED_TX,
                block.block_hash,
                f"committed tx {wanted} absent from block body"
                f" (displaced at position {position})",
            )
        return Violation(
            ViolationKind.ORDER_DEVIATION,
            block.block_hash,
            f"tx {found} at position {position} deviates from canonical"
            f" order (expected {wanted})",
        )
