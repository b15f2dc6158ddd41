"""Block inspection (section 4.3, Fig. 3 steps 5-6).

"Given the mempool commitments, any node can verify the produced block by
inspecting its content with respect to the LO reference protocol ...  Any
violation exposes the block creator, by comparing the block content with
the known commitments."

Inspection is a pure comparison: recompute the canonical order from the
creator's committed bundle history (pinned by the block's ``commit_seq``),
apply the deterministic exclusion rules, and diff against the block body.
The permutations are shared with the block's creator and every other
inspector (:func:`repro.core.ordering.shuffled_bundle`), so an inspector's
own pass costs one lookup per settled id of the prefix.
The result is either a (possibly empty) list of violations or
*inconclusive* when the inspector is still missing transaction contents it
needs for the exclusion rules -- a real inspector requests those and
re-inspects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence, Set

from repro.chain.block import Block
from repro.core.config import LOConfig
from repro.core.ordering import canonical_survivors
from repro.core.policies import ViolationKind
from repro.mempool.transaction import Transaction


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
        bundle_ids: Sequence[Sequence[int]],
        settle_heights: Mapping[int, int],
        content_of: Callable[[int], Optional[Transaction]],
        is_invalid: Callable[[int], bool],
    ) -> InspectionResult:
        """Compare a block body against the canonical expectation.

        ``bundle_ids`` must be the creator's bundle history (bundle ``i``
        at index ``i``) as reconstructed by the inspector (it is exchanged
        during reconciliation); ``settle_heights`` maps each id settled in
        the inspector's chain to the height of the block that first
        settled it, so an id is settled before this block when that height
        is below ``block.height``.  The order seed is ``block.prev_hash``.

        One pass over the pinned prefix tests each id once: settled ids
        cost one lookup, and a bundle none of whose ids survive exclusion
        is not permuted.
        """
        if block.commit_seq > len(bundle_ids):
            # The inspector has not yet learned the pinned commitment
            # prefix; it cannot judge the block either way.
            return InspectionResult(False, [], [])

        prefix = bundle_ids[: block.commit_seq]
        height = block.height
        settled_at = settle_heights.get
        min_fee = self.config.min_fee
        unknown: List[int] = []
        expected: List[int] = []
        for index, ids in enumerate(prefix):
            survivors = []
            for sketch_id in ids:
                if settled_at(sketch_id, height) < height:
                    continue
                tx = content_of(sketch_id)
                if tx is None:
                    if not is_invalid(sketch_id):
                        unknown.append(sketch_id)
                elif tx.fee >= min_fee and not is_invalid(sketch_id):
                    survivors.append(sketch_id)
            if not unknown:
                expected.extend(canonical_survivors(
                    ids, block.prev_hash, index, survivors))
        if unknown:
            return InspectionResult(False, [], unknown)

        expected = expected[: self.config.max_block_txs]
        if list(block.tx_ids) == expected:
            return InspectionResult(True, [], [])
        committed = {sketch_id for ids in prefix for sketch_id in ids}
        violations = self._diff(block, expected, committed, settle_heights)
        return InspectionResult(True, violations, [])

    def _diff(
        self,
        block: Block,
        expected: List[int],
        committed: Set[int],
        settle_heights: Mapping[int, int],
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
                height = block.height
                for extra in body[len(expected):]:
                    if (extra in committed
                            or settle_heights.get(extra, height) < height):
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
