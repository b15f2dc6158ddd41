"""Verifiable canonical transaction ordering (section 4.3).

"Committed transaction bundles are first assembled following a sequential
order.  The order inside a bundle is then pseudo-random: transactions are
shuffled using a known shuffling algorithm and an *order seed* value.  The
order seed value is based on the hash of the last created block."

The canonical order is a pure function of (bundle history prefix, previous
block hash, exclusion predicate), so the block creator and every inspector
compute the same sequence independently -- and in one process they share
each bundle's permutation (:func:`shuffled_bundle`).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Sequence, Tuple

from repro.chain.block import block_order_seed
from repro.core.commitment import BundleInfo
from repro.obs.caches import register_cache

#: Canonical permutations, ``(prev_hash, bundle_index, ids) -> tuple``.  A
#: block's creator and every inspector permute the same bundles under the
#: same seed, so each permutation is computed once per process.  The value
#: is a pure function of the key, so the cache decides only speed; at the
#: bound it is cleared wholesale, and every simulation build empties it.
_SHUFFLES: Dict[Tuple[bytes, int, Tuple[int, ...]], Tuple[int, ...]] = {}
_SHUFFLE_LIMIT = 4096
_SHUFFLE_STATS = register_cache("core.shuffle", size_probe=_SHUFFLES.__len__,
                                clear=_SHUFFLES.clear)


def shuffled_bundle(
    ids: Sequence[int], prev_hash: bytes, bundle_index: int
) -> Tuple[int, ...]:
    """Deterministic pseudo-random permutation of one bundle's ids.

    Fisher-Yates driven by a PRNG seeded from the previous block hash and
    the bundle index -- the "known shuffling algorithm and an order seed".
    The input is sorted first so the permutation depends only on the
    bundle's id *set* (any reconstruction of the bundle yields the same
    canonical order).  The tuple is shared with every other caller.
    """
    key = (prev_hash, bundle_index,
           ids if type(ids) is tuple else tuple(ids))
    order = _SHUFFLES.get(key)
    if order is not None:
        _SHUFFLE_STATS.hits += 1
        return order
    _SHUFFLE_STATS.misses += 1
    shuffled = sorted(ids)
    random.Random(block_order_seed(prev_hash, bundle_index)).shuffle(shuffled)
    order = tuple(shuffled)
    if len(_SHUFFLES) >= _SHUFFLE_LIMIT:
        _SHUFFLE_STATS.evictions += len(_SHUFFLES)
        _SHUFFLES.clear()
    _SHUFFLES[key] = order
    return order


def shuffle_bundle(ids: Sequence[int], prev_hash: bytes, bundle_index: int) -> List[int]:
    """:func:`shuffled_bundle` as a list of the caller's own."""
    return list(shuffled_bundle(ids, prev_hash, bundle_index))


def canonical_order(
    bundles: Sequence[BundleInfo],
    seq: int,
    prev_hash: bytes,
    exclude: Callable[[int], bool],
) -> List[int]:
    """The full canonical tx-id sequence for a block.

    * ``bundles``: the creator's committed bundle history.
    * ``seq``: the commitment sequence number the block pins; only bundles
      with ``index < seq`` participate.
    * ``prev_hash``: previous block hash, the order seed.
    * ``exclude``: predicate for ids that must *not* appear (invalid, fee
      below threshold, already settled).  Exclusion removes ids from the
      shuffled bundle, so the relative order of survivors is still the
      canonical one.
    """
    if seq > len(bundles):
        raise ValueError(
            f"seq {seq} exceeds available bundle history {len(bundles)}"
        )
    ordered: List[int] = []
    for bundle in bundles[:seq]:
        ids = bundle.ids
        ordered.extend(canonical_survivors(
            ids, prev_hash, bundle.index, [i for i in ids if not exclude(i)]))
    return ordered


def canonical_survivors(
    ids: Sequence[int], prev_hash: bytes, bundle_index: int,
    survivors: List[int],
) -> Sequence[int]:
    """``survivors`` -- the ids of one bundle that exclusion keeps, in any
    order -- in the bundle's canonical permutation.

    Exclusion is a predicate on the id, so which copies survive does not
    depend on when it is applied; a bundle with no survivor is not
    permuted at all.
    """
    if not survivors:
        return ()
    order = shuffled_bundle(ids, prev_hash, bundle_index)
    if len(survivors) == len(ids):
        return order
    keep = set(survivors)
    return [i for i in order if i in keep]


def fee_priority_order(
    ids: Sequence[int],
    fee_of: Callable[[int], int],
    exclude: Callable[[int], bool],
) -> List[int]:
    """The 'Highest Fee' baseline policy of Fig. 8.

    "Creating a block with the highest-fee transactions of the mempool" --
    sort eligible ids by descending fee, ties broken by id for determinism.
    """
    eligible = [i for i in ids if not exclude(i)]
    return sorted(eligible, key=lambda i: (-fee_of(i), i))
