"""PinSketch: sketches of sets decodable to the symmetric difference.

A sketch of capacity ``t`` over GF(2^m) stores the odd power sums
``s_k = sum(x^k for x in S)`` for ``k = 1, 3, ..., 2t-1``.  Sketches are
linear: XOR-ing two sketches yields the sketch of the symmetric difference
of the underlying sets (paper section 4.2).  Decoding reconstructs up to
``t`` elements via Berlekamp--Massey and root finding, the same pipeline as
a BCH decoder and as libminisketch.

Performance layers (docs/architecture.md has the full map):

* **One packed integer per sketch** -- a sketch's ``m * capacity`` bits
  are one Python int, slot ``i`` at bits ``m*i`` (:attr:`PinSketch.packed`).
  Slot-wise XOR never carries, so ``add``, ``^``, the transaction log's
  cell combine and truncation (a mask) are single int operations, and the
  same int is the decode memo's key, the elimination's input and
  :meth:`PinSketch._verify`'s comparand.  Slots are read one at a time
  only by Berlekamp--Massey and by ``serialize`` / ``deserialize``.
* **Syndrome cache** -- one packed vector per ``(element, m)``, extended
  in place when a larger capacity is requested and masked for a smaller
  one, LRU-bounded; every node in a simulation re-uses one vector per
  transaction id across all rounds (:class:`_SyndromeCache`).
* **A difference among known ids is one elimination** -- a sketch is a
  GF(2)-linear function of its set, so when the caller names candidates
  the sketch's packed vector is reduced against an echelon basis of
  theirs (:meth:`~repro.sketch.registry.CandidateRegistry.combination`),
  Python ints only (:meth:`PinSketch._decode_uncached`).
* **Otherwise decode cost follows the decoded difference** --
  Berlekamp--Massey runs online, one loop for every field, and stops at
  the first locator that reproduces every stored syndrome; its roots are
  found by closed forms up to degree 4 and one shared Frobenius chain
  above (:func:`_find_roots`).  Either way a found set is verified by
  XOR-ing its elements' cached packed syndrome vectors
  (:meth:`PinSketch._verify`).
* **Decode memoisation** -- an LRU keyed by ``(m, capacity, packed)``,
  with hit/miss/eviction counters exported via
  :func:`repro.obs.cache_stats`.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from functools import lru_cache
from typing import Collection, Iterable, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.obs.caches import register_cache
from repro.sketch.gf import GF2m, default_field

class SketchDecodeError(ValueError):
    """Decoding failed: the set difference exceeds the sketch capacity."""


# ---------------------------------------------------------------------------
# Packed syndrome vectors: one big integer, m bits per slot.
#
# XOR over GF(2^m) vectors is slot-independent (no carries), so XOR-ing the
# packed integers is *exactly* the element-wise XOR of the vectors -- one
# C-level operation regardless of capacity.  Every sketch is held in this
# form; the per-slot list below is for readers of single slots only.
# ---------------------------------------------------------------------------

_STRUCT_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


@lru_cache(maxsize=64)
def _slot_struct(capacity: int, m: int) -> Optional[struct.Struct]:
    code = _STRUCT_CODES.get(m)
    return struct.Struct(f"<{capacity}{code}") if code else None


def pack_syndromes(vector: Sequence[int], m: int) -> int:
    """Pack a syndrome vector into one integer (slot ``i`` at bits ``m*i``)."""
    packer = _slot_struct(len(vector), m)
    if packer is not None:
        return int.from_bytes(packer.pack(*vector), "little")
    packed = 0
    for value in reversed(vector):
        packed = (packed << m) | value
    return packed


def unpack_syndromes(packed: int, capacity: int, m: int) -> List[int]:
    """First ``capacity`` slots of a packed vector (inverse of pack).

    Extra high slots are ignored, the same truncation as
    :meth:`PinSketch.from_packed`.
    """
    packer = _slot_struct(capacity, m)
    if packer is not None:
        mask = (1 << (m * capacity)) - 1
        return list(packer.unpack((packed & mask).to_bytes(packer.size, "little")))
    mask = (1 << m) - 1
    return [(packed >> (m * i)) & mask for i in range(capacity)]


# ---------------------------------------------------------------------------
# Syndrome cache: element -> packed odd power sums, shared process-wide.
# ---------------------------------------------------------------------------


class _SyndromeCache:
    """LRU-bounded cache of per-element packed syndrome vectors.

    Keyed by ``(element, m)`` -- *not* by capacity: one packed vector
    serves every capacity.  Its slots are ``x, x^3, x^5, ...``, none of
    them zero, so its bit length tells how many it holds.  A request for
    more slots extends the stored vector in place from its top slot (one
    field multiplication by ``x^2`` per slot); a request for fewer masks
    it.
    """

    def __init__(self, max_entries: int = 262144):
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple[int, int], int]" = OrderedDict()
        self.stats = register_cache(
            "sketch.syndromes", size_probe=lambda: len(self._entries)
        )

    def clear(self) -> None:
        """Drop every cached vector (counters are preserved)."""
        self._entries.clear()

    def get(self, element: int, m: int, capacity: int) -> int:
        """The first ``capacity`` odd power sums of ``element`` over
        GF(2^m), packed.

        ``element`` must be an int in ``[1, 2^m)``, checked before every
        lookup, hit or miss: no bogus vector is ever cached, and a non-int
        that hashes like a cached id (``5.0``, ``True``) is refused all the
        same.
        """
        if type(element) is not int or element <= 0 or element >> m:
            raise ValueError(
                f"element {element!r} out of range for GF(2^{m})"
            )
        key = (element, m)
        entries = self._entries
        packed = entries.get(key)
        if packed is None:
            self.stats.misses += 1
            if len(entries) >= self.max_entries:
                entries.popitem(last=False)
                self.stats.evictions += 1
            packed = entries[key] = element  # the first slot, x^1
        else:
            self.stats.hits += 1
            entries.move_to_end(key)
        bits = m * capacity
        length = packed.bit_length()
        if length <= bits - m:  # fewer than ``capacity`` slots held
            packed = entries[key] = _extend(packed, element, m, capacity)
        elif length > bits:
            packed &= (1 << bits) - 1
        return packed


def _extend(packed: int, element: int, m: int, capacity: int) -> int:
    """``packed`` (the leading odd powers of ``element``) to ``capacity``
    slots."""
    field = default_field(m)
    held = (packed.bit_length() + m - 1) // m
    powers = field.mul_chain(packed >> (m * (held - 1)), field.sqr(element),
                             capacity - held)
    return packed | pack_syndromes(powers, m) << (m * held)


_SYNDROMES = _SyndromeCache()


def sketch_syndromes_packed(element: int, capacity: int, m: int) -> int:
    """The capacity-``capacity`` sketch of ``{element}``, packed.

    Cached process-wide and *incrementally*: the cache is keyed by
    ``(element, m)`` only, so a later request at a higher capacity extends
    the stored vector instead of recomputing it, and every node in a
    simulation re-uses each transaction id's vector as a cheap XOR (see
    docs/architecture.md).
    """
    return _SYNDROMES.get(element, m, capacity)


def sketch_syndromes(element: int, capacity: int, m: int) -> Tuple[int, ...]:
    """Odd power sums ``element^1, element^3, ..., element^(2t-1)``: the
    slots of :func:`sketch_syndromes_packed`, one by one.

    >>> sketch_syndromes(3, 3, 8)
    (3, 15, 51)
    >>> sketch_syndromes(3, 5, 8)[:3]
    (3, 15, 51)
    """
    return tuple(unpack_syndromes(_SYNDROMES.get(element, m, capacity),
                                  capacity, m))


def clear_syndrome_cache() -> None:
    """Drop all cached syndrome vectors (used by benchmarks)."""
    _SYNDROMES.clear()


# ---------------------------------------------------------------------------
# Decode memoisation: (m, capacity, packed) -> frozenset | failure, LRU.
# ---------------------------------------------------------------------------

_DECODE_CACHE: "OrderedDict[Tuple[int, int, int], object]" = OrderedDict()
_DECODE_CACHE_LIMIT = 131072
_UNDECODABLE = object()  # cache marker: decoding raises SketchDecodeError
_DECODE_STATS = register_cache(
    "sketch.decode", size_probe=lambda: len(_DECODE_CACHE)
)


def _cache_store(key, value) -> None:
    if key not in _DECODE_CACHE and len(_DECODE_CACHE) >= _DECODE_CACHE_LIMIT:
        _DECODE_CACHE.popitem(last=False)
        _DECODE_STATS.evictions += 1
    _DECODE_CACHE[key] = value


def clear_decode_cache() -> None:
    """Drop all memoised decode results (used by CPU benchmarks)."""
    _DECODE_CACHE.clear()


class PinSketch:
    """A fixed-capacity set sketch: ``capacity`` odd syndromes over
    GF(2^m), held as one packed int (:attr:`packed`).

    >>> a = PinSketch(capacity=8, m=16)
    >>> b = PinSketch(capacity=8, m=16)
    >>> for x in (10, 20, 30):
    ...     a.add(x)
    >>> for x in (20, 30, 40):
    ...     b.add(x)
    >>> sorted((a ^ b).decode())
    [10, 40]
    >>> PinSketch.from_packed(a.packed, 2, 16).packed == (
    ...     a.packed & (1 << 32) - 1)   # truncation is a mask
    True
    """

    __slots__ = ("capacity", "m", "field", "packed")

    def __init__(self, capacity: int, m: int = 32, field: Optional[GF2m] = None):
        if type(capacity) is not int:
            raise TypeError(f"capacity must be an int, got {capacity!r}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.m = m
        self.field = field if field is not None else default_field(m)
        #: Slot ``i`` (the syndrome ``s_(2i+1)``) at bits ``m*i``.
        self.packed = 0

    # ------------------------------------------------------------- mutation

    def add(self, element: int) -> None:
        """Toggle ``element`` in the sketched set (add == remove over GF(2)):
        one XOR of its cached packed vector."""
        self.packed ^= _SYNDROMES.get(element, self.m, self.capacity)

    def add_all(self, elements: Iterable[int]) -> None:
        """Toggle every element of ``elements`` (:meth:`add` for each); an
        invalid element leaves the sketch as it was."""
        get, m, capacity = _SYNDROMES.get, self.m, self.capacity
        packed = self.packed
        for element in elements:
            packed ^= get(element, m, capacity)
        self.packed = packed

    # ------------------------------------------------------------ combining

    def copy(self) -> "PinSketch":
        """An independent copy of this sketch."""
        return PinSketch.from_packed(self.packed, self.capacity, self.m,
                                     self.field)

    def truncated(self, capacity: int) -> "PinSketch":
        """A lower-capacity view: the first ``capacity`` odd syndromes."""
        if capacity > self.capacity:
            raise ValueError(
                f"cannot extend capacity {self.capacity} to {capacity}"
            )
        return PinSketch.from_packed(self.packed, capacity, self.m, self.field)

    def xor_accumulate_many(self, sketches: Iterable["PinSketch"]) -> None:
        """XOR a batch of (>= capacity) sketches into this one in place;
        a mismatched sketch leaves this one as it was."""
        m, capacity = self.m, self.capacity
        packed = self.packed
        for other in sketches:
            if other.m != m:
                raise ValueError(
                    "cannot combine sketches over different fields"
                )
            if other.capacity < capacity:
                raise ValueError(
                    f"cannot accumulate capacity {other.capacity} "
                    f"into capacity {capacity}"
                )
            packed ^= other.packed
        self.packed = packed & ((1 << (m * capacity)) - 1)

    def xor_accumulate(self, other: "PinSketch") -> None:
        """XOR ``other`` into this sketch in place (``other`` may be
        larger): ``self ^ other.truncated(self.capacity)`` without the
        intermediate sketches."""
        self.xor_accumulate_many((other,))

    def __xor__(self, other: "PinSketch") -> "PinSketch":
        if self.m != other.m:
            raise ValueError("cannot combine sketches over different fields")
        return PinSketch.from_packed(
            self.packed ^ other.packed, min(self.capacity, other.capacity),
            self.m, self.field,
        )

    @classmethod
    def from_packed(
        cls, packed: int, capacity: int, m: int = 32,
        field: Optional[GF2m] = None,
    ) -> "PinSketch":
        """A sketch holding the first ``capacity`` slots of ``packed``.

        Extra high slots are masked off, so passing a higher-capacity
        packed sketch truncates it (linearity makes the packed XOR of many
        sketches equal to the packed combined sketch).
        """
        sketch = cls(capacity, m, field)
        sketch.packed = packed & ((1 << (m * capacity)) - 1)
        return sketch

    def is_empty(self) -> bool:
        """True when every syndrome is zero (difference is empty or aliased)."""
        return not self.packed

    # ----------------------------------------------------------- wire format

    def serialize(self) -> bytes:
        """Pack syndromes as fixed-width big-endian integers."""
        width = (self.m + 7) // 8
        return b"".join(
            value.to_bytes(width, "big")
            for value in unpack_syndromes(self.packed, self.capacity, self.m)
        )

    @classmethod
    def deserialize(cls, data: bytes, capacity: int, m: int = 32) -> "PinSketch":
        """Inverse of :meth:`serialize`.

        Raises :class:`ValueError` on a length other than ``capacity``
        slots or on a slot outside GF(2^m): with ``m`` not a multiple of 8
        a slot's bytes can hold values no field element has.
        """
        width = (m + 7) // 8
        if len(data) != capacity * width:
            raise ValueError(
                f"expected {capacity * width} bytes, got {len(data)}"
            )
        syndromes = [
            int.from_bytes(data[i * width : (i + 1) * width], "big")
            for i in range(capacity)
        ]
        if any(value >> m for value in syndromes):
            raise ValueError(f"syndrome outside GF(2^{m})")
        return cls.from_packed(pack_syndromes(syndromes, m), capacity, m)

    def wire_size(self) -> int:
        """Serialized size in bytes."""
        return self.capacity * ((self.m + 7) // 8)

    # -------------------------------------------------------------- decoding

    def decode(self, candidates: Collection[int] = ()) -> Set[int]:
        """Recover the sketched set (|set| <= capacity) or raise.

        Raises :class:`SketchDecodeError` when the difference exceeds the
        capacity (detected via locator-degree and root-count checks, plus
        the syndrome re-verification that catches aliasing).

        ``candidates`` are values the caller expects the sketched set to be
        among -- a reconciliation responder passes its simulation's
        registry of committed ids (:class:`repro.core.node.Directory`),
        which holds the whole difference of a correct sketch.  Any
        collection of ints will do, junk, duplicates and values outside the
        field included; one that is no
        :class:`~repro.sketch.registry.CandidateRegistry` is put into a
        throwaway one.  They are a hint about *where* to look first
        (:meth:`_decode_uncached` eliminates over them, and searches only
        when they do not explain the sketch) and never about *what* is
        found: the result, the :class:`SketchDecodeError` outcome and the
        memo entry are the same for every ``candidates``, the empty default
        included.

        Results are memoised process-wide in an LRU keyed by
        ``(m, capacity, packed)`` (hit/miss counters:
        ``repro.obs.cache_stats()["sketch.decode"]``), and a hit is exact
        (same syndromes => same set).  How often it hits
        depends on how much work the nodes share: 99.8% on the 10,000-node
        ``paper_scale`` lobench workload (a few transactions, every pair
        decodes the same difference), 77% on ``censor_storm``, but only 9%
        on the paper-like ``steady_gossip`` and ``burst_admission``, where
        nearly every decode pays :meth:`_decode_uncached`.
        """
        if not self.packed:
            return set()
        cache_key = (self.m, self.capacity, self.packed)
        cached = _DECODE_CACHE.get(cache_key)
        if cached is not None:
            _DECODE_STATS.hits += 1
            _DECODE_CACHE.move_to_end(cache_key)
            if cached is _UNDECODABLE:
                # A fresh exception per hit: a cached instance would grow
                # and pin its __traceback__ with every re-raise.
                raise SketchDecodeError("sketch is not decodable (cached)")
            return set(cached)
        _DECODE_STATS.misses += 1
        profiler = obs.PROFILER
        if profiler is not None:
            profiler.enter("sketch")
        try:
            result = self._decode_uncached(candidates)
        except SketchDecodeError:
            _cache_store(cache_key, _UNDECODABLE)
            raise
        finally:
            if profiler is not None:
                profiler.exit()
        _cache_store(cache_key, frozenset(result))
        return result

    def _decode_uncached(self, candidates: Collection[int] = ()) -> Set[int]:
        """Elimination over the candidates, else early-exit
        Berlekamp--Massey and root finding; full verification either way.

        With candidates, the sketch's packed int is reduced as it is
        against their echelon basis
        (:meth:`~repro.sketch.registry.CandidateRegistry.combination`).
        When it reduces to 0 through at most ``t`` of them, that set is the
        result once :meth:`_verify` agrees.  It is exact for the reason
        below: it is a set of size <= t with these ``t`` odd power sums, so
        it is the one set Berlekamp--Massey returns.  Otherwise the search
        below runs as it does without candidates.

        Berlekamp--Massey is online, so the stored syndromes are fed one at
        a time and decoding stops at the first locator that explains the
        *whole* sketch: once the LFSR length ``L`` has survived until
        ``2L + 4`` syndromes are consumed (tried once per ``L``), the
        locator's roots are found and the candidate set is re-sketched at
        full capacity and compared with all ``t`` stored syndromes.  The
        cost follows the decoded difference, not the capacity.

        This is exact.  At most one set of size <= t has a given ``t`` odd
        power sums (BCH distance 2t + 1), and the full-length procedure
        returns exactly that set or raises.  An early candidate is only
        accepted when it passes the full-capacity check, so it *is* that
        set; when it fails, Berlekamp--Massey simply continues, and after
        the last syndrome the full-length procedure runs as it always did.
        Results and :class:`SketchDecodeError` outcomes are therefore
        identical to a full-length decode, aliased over-capacity sketches
        included.
        """
        if candidates:
            # Imported here: the registry reads this module's vectors.
            from repro.sketch.registry import CandidateRegistry

            if not isinstance(candidates, CandidateRegistry):
                candidates = CandidateRegistry(candidates)
            elements = candidates.combination(
                self.packed, self.capacity, self.m
            )
            if elements is not None and self._verify(elements):
                return elements
        tried = 0
        steps = self.field.berlekamp_massey(
            unpack_syndromes(self.packed, self.capacity, self.m)
        )
        for consumed, (length, locator) in enumerate(steps, 1):
            # `consumed` odd syndromes stand for 2 * consumed syndromes.
            if tried < length <= consumed - 2 and consumed < self.capacity:
                tried = length
                if len(locator) - 1 == length:
                    elements = self._explained_by(locator)
                    if elements is not None:
                        return elements
        degree = len(locator) - 1
        if degree == 0 or degree > self.capacity:
            raise SketchDecodeError(
                f"locator degree {degree} exceeds capacity {self.capacity}"
            )
        elements = self._explained_by(locator)
        if elements is None:
            raise SketchDecodeError(
                f"locator of degree {degree} has fewer distinct roots or "
                "its roots fail the syndrome check"
            )
        return elements

    def _explained_by(self, locator: List[int]) -> Optional[Set[int]]:
        """The set ``locator`` stands for, if it reproduces every syndrome.

        The difference elements are the roots of the reversed locator
        ``prod (x - e_i)``, which is monic because ``locator[0] == 1``.
        Both acceptance tests -- as many distinct roots as the degree, and
        the full-capacity re-sketch -- are applied to whatever
        :func:`_find_roots` returns.
        """
        elements = set(_find_roots(locator[::-1], self.field))
        if len(elements) == len(locator) - 1 and self._verify(elements):
            return elements
        return None

    def _verify(self, elements: Set[int]) -> bool:
        """Whether ``elements`` sketch to exactly these syndromes.

        The XOR of the elements' cached packed syndrome vectors
        (:func:`sketch_syndromes_packed`), compared with :attr:`packed`:
        one big-integer XOR per element and one int comparison.
        """
        get, capacity, m = _SYNDROMES.get, self.capacity, self.m
        packed = 0
        for element in elements:
            packed ^= get(element, m, capacity)
        return packed == self.packed


def _find_roots(poly: Sequence[int], field: GF2m) -> List[int]:
    """Roots of ``poly`` in GF(2^m), distinct-roots contract.

    Returns ``deg poly`` distinct values when ``poly`` is a product of
    distinct linear factors, and fewer distinct values otherwise; callers
    treat the latter as a decode failure.  By degree:

    * **Closed forms** (degree <= 4): degree 2 is an Artin--Schreier
      equation; degrees 3 and 4 are brought to an affine linearised
      quartic ``z^4 + A z^2 + B z = v`` and solved as an m x m system over
      GF(2) (:meth:`GF2m.solve_linearized_quartic`).
    * **One Frobenius chain** (degree >= 5): the chain
      ``x^(2^i) mod poly`` for ``i <= m`` (:meth:`GF2m.frobenius_chain`).
      Its last entry decides whether the polynomial splits at all, and
      every Berlekamp trace polynomial ``Tr(beta x) mod poly`` is a linear
      combination of its entries, so :func:`_trace_split` never squares
      again.
    """
    monic = field.poly_monic(poly)
    degree = len(monic) - 1
    if degree < 1:
        return []
    if degree <= 4:
        return _CLOSED_FORMS[degree](monic, field)
    chain = field.frobenius_chain(monic)
    if not chain.splits:
        return []
    roots: List[int] = []
    _trace_split(monic, 0, chain, field, roots)
    return roots


def _solve_linear(poly: Sequence[int], field: GF2m) -> List[int]:
    return [poly[0]]  # monic x + c has root c (addition is XOR)


def _solve_quadratic(poly: Sequence[int], field: GF2m) -> List[int]:
    """Closed-form roots of a monic quadratic x^2 + b x + c.

    ``b == 0`` means a repeated root (x + sqrt(c))^2 -- invalid for a
    PinSketch locator, whose roots are distinct.  Otherwise substituting
    x = b y reduces to the Artin-Schreier equation y^2 + y = c / b^2.
    """
    c, b = poly[0], poly[1]
    if b == 0:
        return []
    y = field.artin_schreier_solve(field.mul(c, field.inv(field.sqr(b))))
    if y is None:
        return []
    root = field.mul(b, y)
    return [root, root ^ b]  # the second solution is y + 1, i.e. +b after scaling


def _solve_cubic(poly: Sequence[int], field: GF2m) -> List[int]:
    """Closed-form roots of a monic cubic x^3 + a x^2 + b x + c.

    Multiplying by ``x + a`` cancels the cubic term and leaves the affine
    linearised quartic ``x^4 + (a^2 + b) x^2 + (a b + c) x = a c``, whose
    roots are the cubic's plus ``a``.  Its linear coefficient vanishes
    exactly when ``a`` is itself a root of the cubic, and then the cubic is
    ``(x + a)(x^2 + b)`` with a repeated root: not split.
    """
    c, b, a = poly[0], poly[1], poly[2]
    mul = field.mul
    roots = field.solve_linearized_quartic(
        field.sqr(a) ^ b, mul(a, b) ^ c, mul(a, c)
    )
    if roots:
        roots.remove(a)
    return roots


def _solve_quartic(poly: Sequence[int], field: GF2m) -> List[int]:
    """Closed-form roots of a monic quartic x^4 + a x^3 + b x^2 + c x + e.

    With ``a == 0`` the quartic is already affine linearised.  Otherwise
    shift by ``s = sqrt(c / a)``, which removes the linear term
    (``y^4 + a y^3 + b' y^2 + e'``), and reverse (``y = 1 / z``), which
    turns the cubic term into a linear one:
    ``z^4 + (b'/e') z^2 + (a/e') z = 1/e'``.  ``e' == 0`` means ``s`` is a
    root and then a repeated one: not split.
    """
    e, c, b, a = poly[0], poly[1], poly[2], poly[3]
    if a == 0:
        return field.solve_linearized_quartic(b, c, e)
    mul, inv = field.mul, field.inv
    s = field.sqrt(mul(c, inv(a)))
    shifted_b = mul(a, s) ^ b
    shifted_e = field.poly_eval(poly, s)
    if shifted_e == 0:
        return []
    inv_e = inv(shifted_e)
    zs = field.solve_linearized_quartic(
        mul(shifted_b, inv_e), mul(a, inv_e), inv_e
    )
    return [s ^ inv(z) for z in zs]


_CLOSED_FORMS = (None, _solve_linear, _solve_quadratic, _solve_cubic,
                 _solve_quartic)


def _trace_split(
    poly: List[int],
    bit: int,
    chain,
    field: GF2m,
    out: List[int],
) -> None:
    """Split a product of distinct linear factors down to closed forms.

    ``poly`` divides the chain's polynomial, which is known to split, so
    ``gcd(poly, Tr(beta x))`` separates the roots with ``Tr(beta r) = 0``
    from the rest, and some basis element ``beta = 1 << bit`` separates any
    two distinct roots.  Both halves continue with the next bit (this
    one's trace is constant on each of them).
    """
    degree = len(poly) - 1
    if degree <= 4:
        out.extend(_CLOSED_FORMS[degree](poly, field))
        return
    for bit in range(bit, field.m):
        trace = field.poly_mod(chain.trace(bit), poly)
        factor = field.poly_gcd(poly, trace)
        if 0 < len(factor) - 1 < degree:
            other = field.poly_divmod(poly, factor)[0]
            _trace_split(factor, bit + 1, chain, field, out)
            _trace_split(other, bit + 1, chain, field, out)
            return
    raise ArithmeticError("distinct roots not separated by any basis trace")
