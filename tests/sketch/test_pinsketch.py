"""Unit and property tests for PinSketch set reconciliation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch import PinSketch, SketchDecodeError, sketch_syndromes
from repro.sketch.pinsketch import clear_decode_cache

ids32 = st.sets(
    st.integers(min_value=1, max_value=2 ** 32 - 1), min_size=0, max_size=12
)


def test_roundtrip_small_set():
    sketch = PinSketch(capacity=8, m=32)
    sketch.add_all({10, 20, 30})
    assert sketch.decode() == {10, 20, 30}


def test_empty_sketch_decodes_empty():
    assert PinSketch(capacity=4, m=32).decode() == set()


def test_add_twice_removes():
    sketch = PinSketch(capacity=4, m=32)
    sketch.add(42)
    sketch.add(42)
    assert sketch.is_empty()
    assert sketch.decode() == set()


def test_xor_yields_symmetric_difference():
    a = PinSketch(capacity=8, m=32)
    b = PinSketch(capacity=8, m=32)
    a.add_all({1, 2, 3, 100})
    b.add_all({3, 100, 200})
    assert (a ^ b).decode() == {1, 2, 200}


@given(sa=ids32, sb=ids32)
@settings(max_examples=60, deadline=None)
def test_symmetric_difference_property(sa, sb):
    a = PinSketch(capacity=24, m=32)
    b = PinSketch(capacity=24, m=32)
    a.add_all(sa)
    b.add_all(sb)
    assert (a ^ b).decode() == sa ^ sb


def test_capacity_exact_fit():
    sketch = PinSketch(capacity=5, m=32)
    items = {11, 22, 33, 44, 55}
    sketch.add_all(items)
    assert sketch.decode() == items


def test_over_capacity_raises():
    # Overload detection is probabilistic: an overloaded sketch can alias
    # to a small set with identical syndromes (e.g. {1..8} == {8} at
    # capacity 3).  With random 31-bit elements that is astronomically
    # rare, so all trials should fail cleanly.
    rnd = random.Random(9)
    failures = 0
    for trial in range(8):
        sketch = PinSketch(capacity=4, m=32)
        sketch.add_all(rnd.sample(range(1, 2 ** 31), 12))
        try:
            decoded = sketch.decode()
            assert len(decoded) <= 4  # aliased result still looks in-capacity
        except SketchDecodeError:
            failures += 1
    assert failures >= 7


def test_decode_always_verifies_against_every_syndrome():
    """A locator that splits is not enough: all t syndromes must match.

    The first syndromes are a genuine 3-element sketch, so the early-exit
    candidate {5, 6, 7} is found -- and must be rejected because the last
    stored syndrome disagrees (verification is part of the algorithm, not
    an option).
    """
    sketch = PinSketch(capacity=8, m=32)
    sketch.add_all({5, 6, 7})
    assert sketch.decode() == {5, 6, 7}
    sketch.packed ^= 1 << (32 * 7)  # the lowest bit of the last slot
    with pytest.raises(SketchDecodeError):
        sketch.decode()


def test_cached_decode_failure_raises_fresh_exceptions():
    """1,000 cache hits on a failing sketch leave nothing growing.

    Re-raising one cached exception instance appended two traceback
    entries per hit and pinned every frame it passed through.
    """
    import gc

    from repro.obs.caches import cache_stats

    clear_decode_cache()
    sketch = PinSketch(capacity=3, m=32)
    sketch.add_all(random.Random(17).sample(range(1, 2 ** 31), 9))

    def failing_decode():
        try:
            sketch.decode()
        except SketchDecodeError as exc:
            return exc
        raise AssertionError("over-capacity sketch decoded")

    def depth(exc):
        count, tb = 0, exc.__traceback__
        while tb is not None:
            count, tb = count + 1, tb.tb_next
        return count

    first = failing_decode()  # the miss
    second = failing_decode()  # a hit
    hits_before = cache_stats()["sketch.decode"]["hits"]
    second_depth = depth(second)
    gc.collect()
    objects_before = len(gc.get_objects())
    last = second
    for _ in range(1000):
        last = failing_decode()
    assert cache_stats()["sketch.decode"]["hits"] == hits_before + 1000
    assert last is not second and last is not first
    assert depth(last) == second_depth
    assert depth(second) == second_depth  # earlier instances did not grow
    gc.collect()
    assert len(gc.get_objects()) - objects_before < 50
    # The cache holds a marker, never an exception instance (no referrer
    # that outlives the caller's handler).
    from repro.sketch import pinsketch

    assert not any(isinstance(value, BaseException)
                   for value in pinsketch._DECODE_CACHE.values())


def test_serialize_roundtrip():
    sketch = PinSketch(capacity=6, m=32)
    sketch.add_all({9, 99, 999})
    data = sketch.serialize()
    assert len(data) == sketch.wire_size() == 6 * 4
    restored = PinSketch.deserialize(data, capacity=6, m=32)
    assert restored.decode() == {9, 99, 999}


def test_deserialize_wrong_length_rejected():
    with pytest.raises(ValueError):
        PinSketch.deserialize(b"\x00" * 10, capacity=6, m=32)


@pytest.mark.parametrize("m", [8, 12, 16, 24, 32])
def test_deserialize_rejects_syndromes_outside_the_field(m):
    """A slot's bytes can hold more than m bits (m = 12 has 16): such a
    slot is no field element and is refused as the wire validator refuses
    it, instead of reaching the decoder's tables."""
    width = (m + 7) // 8
    top = ((1 << m) - 1).to_bytes(width, "big")
    assert PinSketch.deserialize(top, 1, m).packed == (1 << m) - 1
    if 8 * width > m:
        with pytest.raises(ValueError):
            PinSketch.deserialize(b"\xff" * width, 1, m)
        with pytest.raises(ValueError):
            PinSketch.deserialize(top + (1 << m).to_bytes(width, "big"), 2, m)


def test_truncated_keeps_prefix_semantics():
    big = PinSketch(capacity=16, m=32)
    big.add_all({100, 200})
    small = big.truncated(4)
    assert small.capacity == 4
    assert small.decode() == {100, 200}
    with pytest.raises(ValueError):
        small.truncated(8)


def test_copy_is_independent():
    a = PinSketch(capacity=4, m=32)
    a.add(77)
    b = a.copy()
    b.add(88)
    assert a.decode() == {77}
    assert b.decode() == {77, 88}


def test_mismatched_fields_cannot_combine():
    with pytest.raises(ValueError):
        PinSketch(4, m=16) ^ PinSketch(4, m=32)


def test_xor_uses_min_capacity():
    combined = PinSketch(8, m=32) ^ PinSketch(4, m=32)
    assert combined.capacity == 4


def test_element_out_of_range_rejected():
    sketch = PinSketch(capacity=4, m=16)
    with pytest.raises(ValueError):
        sketch.add(2 ** 16)
    with pytest.raises(ValueError):
        sketch.add(0)


@pytest.mark.parametrize("element", [-5, -1, -(2 ** 16), 5.0, "5", True,
                                     None])
def test_no_bogus_element_is_accepted_or_cached(element):
    """Negative ints and non-ints are refused by every entry point, also
    when a valid id of the same hash is cached, and none is stored."""
    from repro.sketch.pinsketch import _SYNDROMES

    sketch_syndromes(5, 3, 16)  # 5.0 and True hash like cached ids
    sketch_syndromes(1, 3, 16)
    sketch = PinSketch(capacity=4, m=16)
    with pytest.raises(ValueError):
        sketch.add(element)
    with pytest.raises(ValueError):
        sketch.add_all([3, 4, 6, element, 7])
    for m in (16, 32):
        with pytest.raises(ValueError):
            sketch_syndromes(element, 3, m)
        with pytest.raises(ValueError):
            _SYNDROMES.get(element, m, 3)
    assert sketch.is_empty()
    assert all(
        type(x) is int and 0 < x < 1 << m for x, m in _SYNDROMES._entries
    )


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        PinSketch(capacity=0, m=32)


@pytest.mark.parametrize("capacity", [8.0, "8", True, None])
def test_a_capacity_that_is_no_int_is_rejected(capacity):
    """A slot list of ``capacity`` zeros refused these implicitly; the
    packed form has no list, so the constructor checks."""
    with pytest.raises(TypeError):
        PinSketch(capacity=capacity, m=32)


def test_syndrome_cache_consistency():
    v1 = sketch_syndromes(12345, 8, 32)
    v2 = sketch_syndromes(12345, 8, 32)
    assert v1 == v2
    assert len(v1) == 8
    assert v1[0] == 12345


def test_pack_unpack_roundtrip_struct_and_generic_widths():
    from repro.sketch import pack_syndromes, unpack_syndromes

    for m in (8, 16, 32, 64):  # struct fast-path widths
        vector = [1, (1 << m) - 1, 7, 0]
        packed = pack_syndromes(vector, m)
        assert unpack_syndromes(packed, 4, m) == vector
    vector = [1, 4095, 7, 0]  # m=12: generic shift/mask fallback
    packed = pack_syndromes(vector, 12)
    assert unpack_syndromes(packed, 4, 12) == vector
    assert unpack_syndromes(packed, 2, 12) == vector[:2]


def test_packed_xor_matches_sketch_xor():
    from repro.sketch import unpack_syndromes

    a, b = PinSketch(capacity=8, m=32), PinSketch(capacity=8, m=32)
    for x in (10, 20, 30):
        a.add(x)
    for x in (20, 30, 40):
        b.add(x)
    combined = a ^ b
    # Slot-wise XOR never carries across slots, so the packed combine is
    # exactly the slot-by-slot combine.
    assert unpack_syndromes(combined.packed, 8, 32) == [
        x ^ y for x, y in zip(unpack_syndromes(a.packed, 8, 32),
                              unpack_syndromes(b.packed, 8, 32))]
    assert sorted(combined.decode()) == [10, 40]


def test_from_packed_truncates_high_slots():
    from repro.sketch import unpack_syndromes

    full = PinSketch(capacity=16, m=32)
    full.add_all(range(1, 6))
    truncated = PinSketch.from_packed(full.packed, 8, 32)
    assert truncated.packed == full.truncated(8).packed
    assert unpack_syndromes(truncated.packed, 8, 32) == \
        unpack_syndromes(full.packed, 16, 32)[:8]


def test_sketch_syndromes_packed_matches_tuple_view():
    from repro.sketch import sketch_syndromes_packed, unpack_syndromes

    view = sketch_syndromes(54321, 8, 32)
    packed = sketch_syndromes_packed(54321, 8, 32)
    assert unpack_syndromes(packed, 8, 32) == list(view)
    assert sketch_syndromes_packed(54321, 8, 32) == packed  # memoized


def test_decode_cache_failure_and_success_paths():
    clear_decode_cache()
    sketch = PinSketch(capacity=3, m=32)
    rnd = random.Random(17)
    sketch.add_all(rnd.sample(range(1, 2 ** 31), 9))
    with pytest.raises(SketchDecodeError):
        sketch.decode()
    # Second decode hits the cached failure.
    with pytest.raises(SketchDecodeError):
        sketch.decode()
    ok = PinSketch(capacity=3, m=32)
    ok.add_all({5, 6})
    assert ok.decode() == {5, 6}
    assert ok.decode() == {5, 6}  # cached success


def test_large_difference_decodes():
    rnd = random.Random(4)
    items = set(rnd.sample(range(1, 2 ** 31), 50))
    sketch = PinSketch(capacity=64, m=32)
    sketch.add_all(items)
    assert sketch.decode() == items


@pytest.mark.parametrize("m,capacity,difference", [
    (16, 64, 48), (32, 16, 12), (32, 64, 7), (32, 100, 45), (32, 12, 30),
])
def test_reconcile_decodes_the_difference_or_raises(m, capacity, difference):
    """Two sketches XORed: the decode is the difference in capacity and a
    ``SketchDecodeError`` past it."""
    rnd = random.Random(99)
    items = rnd.sample(range(1, (1 << m) - 1), difference)
    a = PinSketch(capacity, m)
    b = PinSketch(capacity, m)
    a.add_all(items[: difference // 3])
    b.add_all(items[difference // 3:])
    combined = a ^ b
    clear_decode_cache()
    if difference <= capacity:
        assert combined.decode() == set(items)
    else:
        with pytest.raises(SketchDecodeError):
            combined.decode()


def test_sixteen_bit_field_roundtrip():
    sketch = PinSketch(capacity=8, m=16)
    sketch.add_all({100, 200, 300})
    assert sketch.decode() == {100, 200, 300}


def test_eight_bit_field_roundtrip():
    sketch = PinSketch(capacity=4, m=8)
    sketch.add_all({11, 22, 33})
    assert sketch.decode() == {11, 22, 33}


def test_sixtyfour_bit_field_roundtrip():
    # The generic (table-less) field path; slower but must stay correct.
    sketch = PinSketch(capacity=3, m=64)
    items = {2 ** 40 + 1, 2 ** 50 + 7, 12345}
    sketch.add_all(items)
    assert sketch.decode() == items


def test_mixed_capacity_xor_difference():
    a = PinSketch(capacity=16, m=32)
    b = PinSketch(capacity=8, m=32)
    a.add_all({100, 200, 300})
    b.add_all({200, 400})
    assert (a ^ b).decode() == {100, 300, 400}


def test_one_packed_vector_per_id_serves_every_capacity():
    """The cache holds one packed vector per ``(id, m)``: a larger
    capacity extends it in place, a smaller one masks it, and each slot is
    the odd power it stands for."""
    from repro.sketch import sketch_syndromes_packed
    from repro.sketch.gf import default_field
    from repro.sketch.pinsketch import _SYNDROMES

    entries = _SYNDROMES._entries
    entries.pop((4099, 16), None)
    small = sketch_syndromes_packed(4099, 4, 16)
    assert entries[(4099, 16)] == small
    large = sketch_syndromes_packed(4099, 9, 16)
    assert entries[(4099, 16)] == large  # extended, still one entry
    assert large & ((1 << 64) - 1) == small
    assert sketch_syndromes_packed(4099, 4, 16) == small
    assert entries[(4099, 16)] == large  # a mask does not shrink it
    field = default_field(16)
    assert sketch_syndromes(4099, 9, 16) == tuple(
        field.pow(4099, 2 * k + 1) for k in range(9))
