"""Fast-path (numpy) vs pure-Python fallback equivalence.

The vectorised kernels in :mod:`repro.sketch.gf` and the batched syndrome
generation in :mod:`repro.sketch.pinsketch` must be *bit-identical* to the
scalar reference implementations -- these are property tests over random
inputs plus a few targeted regressions (field-table sharing, cache
identity, decode determinism).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch.gf import (
    GF2m,
    GF2Tower32,
    default_field,
    fast_path_active,
    have_numpy,
    set_fast_path,
)
from repro.sketch.pinsketch import (
    PinSketch,
    SketchDecodeError,
    clear_decode_cache,
    clear_syndrome_cache,
    sketch_syndromes,
)

needs_numpy = pytest.mark.skipif(not have_numpy(), reason="numpy unavailable")


@pytest.fixture
def fallback():
    """Force the pure-Python path for the duration of a test."""
    previous = set_fast_path(False)
    clear_syndrome_cache()
    clear_decode_cache()
    yield
    set_fast_path(previous)
    clear_syndrome_cache()
    clear_decode_cache()


def _random_batch(rnd, m, n, nonzero=False):
    low = 1 if nonzero else 0
    return [rnd.randrange(low, 1 << m) for _ in range(n)]


# ------------------------------------------------------------ kernel parity


@needs_numpy
@pytest.mark.parametrize("m", [8, 12, 16, 24, 32, 48, 64])
def test_batch_kernels_match_scalar(m):
    field = default_field(m)
    rnd = random.Random(1000 + m)
    xs = _random_batch(rnd, m, 257)
    ys = _random_batch(rnd, m, 257)
    nz = _random_batch(rnd, m, 257, nonzero=True)

    assert field.mul_batch(xs, ys) == [field.mul(x, y) for x, y in zip(xs, ys)]
    assert field.sqr_batch(xs) == [field.sqr(x) for x in xs]
    scalar = nz[0]
    assert field.mul_scalar_batch(scalar, xs) == [
        field.mul(scalar, x) for x in xs
    ]


@needs_numpy
@pytest.mark.parametrize("m", [16, 32])
def test_batch_kernels_identical_with_fast_path_off(m, fallback):
    field = default_field(m)
    rnd = random.Random(2000 + m)
    xs = _random_batch(rnd, m, 64)
    ys = _random_batch(rnd, m, 64)
    slow = field.mul_batch(xs, ys)
    set_fast_path(True)
    assert field.mul_batch(xs, ys) == slow


# ------------------------------------------- sentinel tables, fused kernels


def _tower_mul_by_definition(field, a, b):
    """(a1 y + a0)(b1 y + b0) mod y^2 + y + c on shift-and-add products."""
    mul = field.sub._mul_notable
    a1, a0, b1, b0 = a >> 16, a & 0xFFFF, b >> 16, b & 0xFFFF
    high = mul(a1, b1)
    return ((mul(a1, b0) ^ mul(a0, b1) ^ high) << 16) | (
        mul(a0, b0) ^ mul(high, field.QUAD_C)
    )


@pytest.mark.parametrize("fast", [True, False])
def test_sentinel_products_with_zero_operands(fast):
    """Zero operands fall out of the sentinel tables: no masks, no tests."""
    previous = set_fast_path(fast)
    try:
        rnd = random.Random(31)
        sub = default_field(16)
        xs = [0, 0, 1, 0xFFFF] + _random_batch(rnd, 16, 60)
        ys = [0, 7, 0, 0xFFFF] + _random_batch(rnd, 16, 60)
        expected = [sub._mul_notable(x, y) for x, y in zip(xs, ys)]
        assert [sub.mul(x, y) for x, y in zip(xs, ys)] == expected
        assert sub.mul_batch(xs, ys) == expected
        assert sub.sqr_batch(xs) == [sub._mul_notable(x, x) for x in xs]
        assert sub.mul_scalar_batch(0, xs) == [0] * len(xs)

        tower = default_field(32)
        # Zero halves as well as zero elements: every Karatsuba term hits
        # the sentinel somewhere.
        halves = [0, 0x10000, 0xFFFF, 0xFFFF0000, 0x00010001]
        xs = halves + _random_batch(rnd, 32, 60)
        ys = halves[::-1] + _random_batch(rnd, 32, 60)
        expected = [_tower_mul_by_definition(tower, x, y)
                    for x, y in zip(xs, ys)]
        assert [tower.mul(x, y) for x, y in zip(xs, ys)] == expected
        assert tower.mul_batch(xs, ys) == expected
        assert tower.sqr_batch(xs) == [
            _tower_mul_by_definition(tower, x, x) for x in xs]
        assert [tower.sqr(x) for x in xs] == tower.sqr_batch(xs)
        for scalar in (0, 0x10000, 0xFFFF, xs[-1]):
            for vec in (xs, xs * 2):
                assert tower.mul_scalar_batch(scalar, vec) == [
                    _tower_mul_by_definition(tower, scalar, v) for v in vec]
    finally:
        set_fast_path(previous)


def _split_poly(field, rnd, degree):
    poly = [1]
    for root in rnd.sample(range(1, field.order), degree):
        poly = field.poly_mul(poly, [root, 1])
    return poly


@needs_numpy
@pytest.mark.parametrize("degree", [2, 3, 5, 6, 8, 13, 31, 50])
def test_tower_chain_identical_numpy_vs_scalar(degree):
    """Whole-array chain steps and the beta batch == the scalar chain."""
    from repro.sketch.gf import FrobeniusChain, _TowerChain

    field = default_field(32)
    rnd = random.Random(degree)
    for splits in (True, False):
        poly = _split_poly(field, rnd, degree)
        if not splits:
            poly[0] ^= 1
        previous = set_fast_path(True)
        try:
            fast = _TowerChain(field, poly)
            traces = [fast.trace(bit) for bit in range(field.m)]
        finally:
            set_fast_path(previous)
        slow = FrobeniusChain(field, poly)
        assert fast.splits == slow.splits
        assert traces == [slow.trace(bit) for bit in range(field.m)]


@needs_numpy
def test_frobenius_chain_selected_by_degree_and_fast_path(fallback):
    """The only selection: locator degree and numpy's availability."""
    from repro.sketch.gf import FrobeniusChain, _TowerChain

    field = default_field(32)
    rnd = random.Random(2)
    small, large = _split_poly(field, rnd, 4), _split_poly(field, rnd, 9)
    assert type(field.frobenius_chain(large)) is FrobeniusChain
    set_fast_path(True)
    assert type(field.frobenius_chain(large)) is _TowerChain
    assert type(field.frobenius_chain(small)) is FrobeniusChain


@needs_numpy
@pytest.mark.parametrize("m", [16, 32])
def test_polynomial_layer_identical_fast_vs_fallback(m):
    """divmod / gcd / monic give the same results on either path."""
    field = default_field(m)
    rnd = random.Random(m)
    p = _random_batch(rnd, m, 140) + [1]
    q = _random_batch(rnd, m, 60) + [rnd.randrange(1, 1 << m)]
    shared = field.poly_mul(_split_poly(field, rnd, 3), q)
    results = []
    for fast in (True, False):
        previous = set_fast_path(fast)
        try:
            quotient, remainder = field.poly_divmod(p, q)
            assert field.poly_add(field.poly_mul(quotient, q), remainder) \
                == field.poly_trim(list(p))
            results.append((quotient, remainder, field.poly_gcd(shared, q),
                            field.poly_monic(q)))
        finally:
            set_fast_path(previous)
    assert results[0] == results[1]
    assert results[0][2] == field.poly_monic(q)


# ------------------------------------------------------- decode equivalence


@needs_numpy
def test_early_exit_bm_identical_fast_vs_fallback():
    """The online recurrence yields the same states on either path."""
    field = default_field(32)
    rnd = random.Random(8)
    sketch = PinSketch(80, 32)
    sketch.add_all(rnd.sample(range(1, 1 << 32), 70))
    odd = list(sketch.syndromes_view())
    states = []
    for fast in (True, False):
        previous = set_fast_path(fast)
        try:
            states.append([(length, list(locator)) for length, locator
                           in field.berlekamp_massey(odd)])
        finally:
            set_fast_path(previous)
    assert states[0] == states[1]
    assert states[0][-1][0] == 70


@needs_numpy
@given(st.sets(st.integers(min_value=1, max_value=2 ** 16 - 1),
               min_size=0, max_size=24))
@settings(max_examples=50, deadline=None)
def test_decode_identical_fast_vs_fallback(elements):
    """Whole-pipeline property: decode output is byte-identical."""
    previous = set_fast_path(True)
    try:
        sketch = PinSketch(32, 16)
        sketch.add_all(elements)
        clear_decode_cache()
        fast = sketch.decode()
        set_fast_path(False)
        clear_decode_cache()
        slow = sketch.decode()
    finally:
        set_fast_path(previous)
    assert fast == slow == set(elements)


@needs_numpy
@pytest.mark.parametrize("m,capacity,difference", [
    (16, 64, 48), (32, 16, 12), (32, 64, 7), (32, 100, 45), (32, 12, 30),
])
def test_reconcile_identical_fast_vs_fallback(m, capacity, difference):
    rnd = random.Random(99)
    items = rnd.sample(range(1, (1 << m) - 1), difference)
    a = PinSketch(capacity, m)
    b = PinSketch(capacity, m)
    a.add_all(items[: difference // 3])
    b.add_all(items[difference // 3:])
    combined = a ^ b

    def outcome():
        clear_decode_cache()
        try:
            return combined.decode()
        except SketchDecodeError:
            return None

    previous = set_fast_path(True)
    try:
        fast = outcome()
        set_fast_path(False)
        slow = outcome()
    finally:
        set_fast_path(previous)
    assert fast == slow == (set(items) if difference <= capacity else None)


def test_fallback_works_without_numpy_path(fallback):
    """The pure-Python pipeline stands alone (numpy never touched)."""
    assert not fast_path_active()
    sketch = PinSketch(8, 16)
    sketch.add_all([5, 9, 1000])
    assert sketch.decode() == {5, 9, 1000}


# -------------------------------------------------- field/table cache reuse


@pytest.mark.parametrize("m", [8, 16])
def test_explicit_modulus_field_is_cached(m):
    from repro.sketch.gf import IRREDUCIBLE_POLY

    modulus = IRREDUCIBLE_POLY[m]
    f1 = default_field(m, modulus)
    f2 = default_field(m, modulus)
    assert f1 is f2


def test_explicit_and_default_modulus_share_tables():
    """Two sketches over the same (m, modulus) share one table build."""
    from repro.sketch.gf import IRREDUCIBLE_POLY

    modulus = IRREDUCIBLE_POLY[16]
    f1 = GF2m(16, modulus)
    f2 = GF2m(16, modulus)
    assert f1._exp is f2._exp
    assert f1._log is f2._log

    s1 = PinSketch(8, 16, field=default_field(16, modulus))
    s2 = PinSketch(8, 16, field=default_field(16, modulus))
    assert s1.field is s2.field


def test_tower_subfield_tables_shared():
    t1 = GF2Tower32()
    t2 = GF2Tower32()
    assert t1.sub._exp is t2.sub._exp


@needs_numpy
@pytest.mark.parametrize("m", [8, 12, 16])
def test_numpy_mirrors_equal_the_sentinel_tables(m):
    """The mirrors are built from one period of ``exp``: same values."""
    import numpy as np

    field = GF2m(m)
    exp, log = field._np_tables()
    assert (exp.dtype, log.dtype) == (np.uint32, np.int32)
    assert exp.tolist() == field._exp and log.tolist() == field._log


# ------------------------------------------------------ syndrome-cache laws


def test_syndrome_views_are_identity_stable_across_capacities():
    v_small = sketch_syndromes(7, 4, 16)
    v_large = sketch_syndromes(7, 9, 16)
    assert v_large[:4] == v_small
    assert sketch_syndromes(7, 9, 16) is v_large


@needs_numpy
def test_batched_syndromes_match_scalar(fallback):
    elements = random.Random(7).sample(range(1, 2 ** 16 - 1), 40)
    scalar = [sketch_syndromes(e, 16, 16) for e in elements]
    set_fast_path(True)
    clear_syndrome_cache()
    sketch_a = PinSketch(16, 16)
    sketch_a.add_all(elements)
    sketch_b = PinSketch(16, 16)
    for syndromes in scalar:
        sketch_b.xor_syndromes(syndromes)
    assert sketch_a._syndromes == sketch_b._syndromes
