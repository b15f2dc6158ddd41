"""Oracle for block inspection: the one-pass inspector against the old one.

:meth:`BlockInspector.inspect` walks the pinned prefix once, reads the
bundle id tuples as they arrive in the announce, tests settledness against
the ledger's settle heights, skips the permutation of a bundle none of
whose ids survive exclusion, takes permutations from a process-wide cache
and builds the committed-id set only when the body is not exactly the
expected order.  :class:`ReferenceInspector` below is the inspector as it
was before that (a ``BundleInfo`` list, a settled container and three
per-id callables, an uncached shuffle), and it is the oracle: for random
histories, settled sets, invalid ids, fees around ``min_fee``, blockspace
caps and bodies -- canonical, permuted, truncated, or carrying uncommitted
ids, settled ids or a duplicated suffix -- both must return the same
``InspectionResult``: the same ``conclusive`` flag, violation kinds and
detail strings, and ``missing_content`` order.

The reference keeps the known miss of step 3 (a suffix may hold an id its
creator never committed); the oracle pins today's verdicts, not that fix.
"""

import random
from typing import Callable, Container, List, Optional, Sequence, Set

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import Block, block_order_seed, sign_block
from repro.core.commitment import BundleInfo
from repro.core.config import LOConfig
from repro.core.inspection import BlockInspector, InspectionResult, Violation
from repro.core.ordering import canonical_order, shuffle_bundle, shuffled_bundle
from repro.core.policies import ViolationKind
from repro.crypto import KeyPair
from repro.mempool import make_transaction

KP = KeyPair.generate(seed=b"oracle-miner")
CLIENT = KeyPair.generate(seed=b"oracle-client")
MIN_FEE = LOConfig().min_fee
#: One transaction per fee around the threshold: inspection reads only
#: the fee of an id's content.
BY_FEE = {
    fee: make_transaction(CLIENT, n, fee, created_at=0.0)
    for n, fee in enumerate((MIN_FEE - 1, MIN_FEE, MIN_FEE + 1), start=1)
}
POOL = range(1, 25)
UNCOMMITTED = 10_000
PREV_HASHES = (b"\x01" * 32, b"\x02" * 32)


# ------------------------------------------------------------- the oracle


def reference_shuffle(ids: Sequence[int], prev_hash: bytes, index: int) -> List[int]:
    shuffled = sorted(ids)
    random.Random(block_order_seed(prev_hash, index)).shuffle(shuffled)
    return shuffled


def reference_canonical_order(
    bundles: Sequence[BundleInfo],
    seq: int,
    prev_hash: bytes,
    exclude: Callable[[int], bool],
) -> List[int]:
    if seq > len(bundles):
        raise ValueError(
            f"seq {seq} exceeds available bundle history {len(bundles)}"
        )
    ordered: List[int] = []
    for bundle in bundles[:seq]:
        for sketch_id in reference_shuffle(bundle.ids, prev_hash, bundle.index):
            if not exclude(sketch_id):
                ordered.append(sketch_id)
    return ordered


class ReferenceInspector:
    """``BlockInspector`` as it was before the one-pass inspection."""

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
        if block.commit_seq > len(bundles):
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

        expected = reference_canonical_order(
            bundles, block.commit_seq, prev_hash, exclude)
        expected = expected[: self.config.max_block_txs]
        violations = self._diff(block, expected, set(committed_prefix), settled)
        return InspectionResult(True, violations, [])

    def _diff(self, block, expected, committed: Set[int], settled) -> List[Violation]:
        violations: List[Violation] = []
        body = list(block.tx_ids)
        prefix_len = min(len(expected), len(body))
        for position in range(prefix_len):
            if body[position] != expected[position]:
                violations.append(self._classify_mismatch(
                    block, position, body, expected, committed))
                break
        else:
            if len(body) < len(expected):
                missing = expected[len(body)]
                violations.append(Violation(
                    ViolationKind.MISSING_COMMITTED_TX, block.block_hash,
                    f"committed tx {missing} absent from block body",
                ))
            else:
                for extra in body[len(expected):]:
                    if extra in committed or extra in settled:
                        violations.append(Violation(
                            ViolationKind.ORDER_DEVIATION, block.block_hash,
                            f"tx {extra} duplicated outside canonical order",
                        ))
                        break
        return violations

    def _classify_mismatch(self, block, position, body, expected, committed):
        found = body[position]
        wanted = expected[position]
        if found not in committed:
            return Violation(
                ViolationKind.UNCOMMITTED_TX_IN_BODY, block.block_hash,
                f"tx {found} at position {position} was never committed"
                f" (expected {wanted})",
            )
        if wanted not in set(body):
            return Violation(
                ViolationKind.MISSING_COMMITTED_TX, block.block_hash,
                f"committed tx {wanted} absent from block body"
                f" (displaced at position {position})",
            )
        return Violation(
            ViolationKind.ORDER_DEVIATION, block.block_hash,
            f"tx {found} at position {position} deviates from canonical"
            f" order (expected {wanted})",
        )


# -------------------------------------------------------------- the worlds

ids = st.integers(min_value=POOL.start, max_value=POOL.stop - 1)


@st.composite
def worlds(draw):
    """A history, an inspector's view of it, and a block to inspect."""
    history = draw(st.lists(
        st.lists(ids, min_size=0, max_size=6).map(tuple), max_size=6))
    height = draw(st.integers(min_value=0, max_value=3))
    # Settled at heights on both sides of the block's: only the lower
    # ones count as settled before it.
    settle_heights = draw(st.dictionaries(
        ids, st.integers(min_value=0, max_value=5), max_size=12))
    invalid = draw(st.sets(ids, max_size=4))
    # Most ids' contents are held, so most inspections are conclusive.
    fees = draw(st.lists(st.sampled_from(sorted(BY_FEE)),
                         min_size=len(POOL), max_size=len(POOL)))
    absent = draw(st.sets(ids, max_size=2))
    contents = {i: BY_FEE[fee] for i, fee in zip(POOL, fees)
                if i not in absent}
    commit_seq = draw(st.integers(min_value=0, max_value=len(history) + 1))
    prev_hash = draw(st.sampled_from(PREV_HASHES))
    config = LOConfig(max_block_txs=draw(st.sampled_from((1, 3, 8, 256))))
    return history, height, settle_heights, invalid, contents, commit_seq, \
        prev_hash, config


def reference_result(world, body):
    history, height, settle_heights, invalid, contents, commit_seq, \
        prev_hash, config = world
    block = sign_block(KP, height, prev_hash, body, commit_seq, 0.0)
    settled = {i for i, h in settle_heights.items() if h < height}
    bundles = [BundleInfo(i, b, None, 0.0) for i, b in enumerate(history)]
    return block, ReferenceInspector(config).inspect(
        block, bundles, prev_hash, settled,
        content_known=lambda i: i in contents,
        is_invalid=lambda i: i in invalid,
        fee_of=lambda i: contents[i].fee if i in contents else None,
    )


def expected_order(world):
    """The reference canonical order the body is drawn around."""
    history, height, settle_heights, invalid, contents, commit_seq, \
        prev_hash, config = world
    seq = min(commit_seq, len(history))
    settled = {i for i, h in settle_heights.items() if h < height}
    bundles = [BundleInfo(i, b, None, 0.0) for i, b in enumerate(history)]

    def exclude(i):
        return (i in settled or i in invalid or i not in contents
                or contents[i].fee < MIN_FEE)

    return reference_canonical_order(bundles, seq, prev_hash, exclude)[
        : config.max_block_txs]


@st.composite
def bodies(draw, world):
    expected = expected_order(world)
    settle_heights = world[2]
    kind = draw(st.sampled_from((
        "canonical", "permuted", "truncated", "uncommitted", "settled",
        "duplicated_suffix", "appended_new", "random",
    )))
    body = list(expected)
    if kind == "permuted":
        body = list(draw(st.permutations(expected)))
    elif kind == "truncated":
        body = expected[: draw(st.integers(0, max(len(expected) - 1, 0)))]
    elif kind == "uncommitted":
        at = draw(st.integers(0, len(body)))
        body.insert(at, UNCOMMITTED + draw(st.integers(0, 3)))
    elif kind == "settled" and settle_heights:
        at = draw(st.integers(0, len(body)))
        body.insert(at, draw(st.sampled_from(sorted(settle_heights))))
    elif kind == "duplicated_suffix" and body:
        body += body[draw(st.integers(0, len(body) - 1)):]
    elif kind == "appended_new":
        body += draw(st.lists(st.sampled_from(
            (UNCOMMITTED,) + tuple(POOL)), min_size=1, max_size=3))
    elif kind == "random":
        body = draw(st.lists(ids, max_size=8))
    return body


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_one_pass_inspection_returns_the_reference_result(data):
    world = data.draw(worlds())
    history, height, settle_heights, invalid, contents, commit_seq, \
        prev_hash, config = world
    body = data.draw(bodies(world))
    block, reference = reference_result(world, body)
    result = BlockInspector(config).inspect(
        block, history, settle_heights, contents.get, invalid.__contains__)
    assert result == reference


def test_the_worlds_reach_every_verdict():
    """The oracle's inputs are not all of one kind: across a fixed set of
    examples every violation kind, a clean block, an unknown prefix and
    missing content all occur."""
    seen = set()

    @given(data=st.data())
    @settings(max_examples=400, deadline=None, database=None)
    def collect(data):
        world = data.draw(worlds())
        _, reference = reference_result(world, data.draw(bodies(world)))
        if not reference.conclusive:
            seen.add("missing" if reference.missing_content else "unknown")
        elif not reference.violations:
            seen.add("clean")
        seen.update(v.kind for v in reference.violations)

    collect()
    assert seen >= {
        "missing", "unknown", "clean", ViolationKind.ORDER_DEVIATION,
        ViolationKind.MISSING_COMMITTED_TX,
        ViolationKind.UNCOMMITTED_TX_IN_BODY,
    }, seen


@given(
    history=st.lists(st.lists(ids, max_size=6).map(tuple), max_size=6),
    excluded=st.sets(ids),
    prev_hash=st.sampled_from(PREV_HASHES),
)
@settings(max_examples=200, deadline=None)
def test_canonical_order_matches_the_reference(history, excluded, prev_hash):
    """The builder's order, which skips the permutation of a bundle with no
    survivor and takes the rest from the shared cache, is unchanged."""
    bundles = [BundleInfo(i, b, None, 0.0) for i, b in enumerate(history)]
    for seq in range(len(bundles) + 1):
        assert canonical_order(bundles, seq, prev_hash, excluded.__contains__) \
            == reference_canonical_order(
                bundles, seq, prev_hash, excluded.__contains__)


@given(bundle=st.lists(ids, min_size=1, max_size=8),
       prev_hash=st.sampled_from(PREV_HASHES),
       index=st.integers(min_value=0, max_value=5))
@settings(max_examples=100, deadline=None)
def test_shuffle_bundle_hands_out_a_fresh_list(bundle, prev_hash, index):
    """The permutation cache hands out no shared mutable state: each
    ``shuffle_bundle`` call returns a new list, equal to the uncached
    permutation, and writing into one leaves the next call unchanged."""
    first = shuffle_bundle(bundle, prev_hash, index)
    assert first == reference_shuffle(bundle, prev_hash, index)
    first.append(UNCOMMITTED)
    first.reverse()
    second = shuffle_bundle(tuple(bundle), prev_hash, index)
    assert second is not first
    assert second == reference_shuffle(bundle, prev_hash, index)
    assert type(shuffled_bundle(bundle, prev_hash, index)) is tuple
