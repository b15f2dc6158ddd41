"""The decode path against independent oracles.

``reference_decode`` is the previous decoder (full-length
Berlekamp--Massey, per-beta trace splitting) written out on scalar field
arithmetic only; brute force is the definition (the symmetric difference
itself).  The library must agree with both on result-or-raise, for
random and structured inputs, in- and over-capacity, with the numpy fast
path on and off.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch import PinSketch, SketchDecodeError
from repro.sketch.gf import default_field, set_fast_path
from repro.sketch.pinsketch import (
    _berlekamp_massey,
    _find_roots,
    _solve_cubic,
    _solve_quartic,
    clear_decode_cache,
)

from tests.sketch import reference_decode as ref


def _library_decode(syndromes, m):
    """The library's result-or-None on a raw syndrome vector, cache off."""
    sketch = PinSketch(len(syndromes), m)
    sketch.load_syndromes(syndromes)
    clear_decode_cache()
    try:
        return sketch.decode()
    except SketchDecodeError:
        return None


def _check_against_oracles(elements, capacity, m):
    field = default_field(m)
    syndromes = ref.sketch_of(elements, capacity, field)
    expected = ref.decode(syndromes, field)
    for fast in (True, False):
        previous = set_fast_path(fast)
        try:
            got = _library_decode(syndromes, m)
        finally:
            set_fast_path(previous)
        assert got == expected, (fast, capacity, sorted(elements))
    # Brute force: the definition, independent of either decoder.
    if len(elements) <= capacity:
        assert expected == set(elements)
    elif expected is not None:  # an alias: in-capacity and same sketch
        assert len(expected) <= capacity
        assert ref.sketch_of(expected, capacity, field) == syndromes


@st.composite
def random_case(draw, m, max_capacity, overshoot):
    capacity = draw(st.integers(1, max_capacity))
    size = draw(st.integers(0, overshoot(capacity)))
    elements = draw(st.sets(st.integers(1, (1 << m) - 1),
                            min_size=size, max_size=size))
    return elements, capacity


@st.composite
def structured_case(draw):
    """Element sets with algebraic structure a random draw never has."""
    m = draw(st.sampled_from([16, 32]))
    capacity = draw(st.integers(1, 24))
    size = draw(st.integers(1, capacity + 8))
    kind = draw(st.sampled_from(["consecutive", "low_half", "zero_sum"]))
    if kind == "consecutive":
        start = draw(st.integers(1, 1000))
        elements = set(range(start, start + size))
    elif kind == "low_half":  # high half zero: the GF(2^(m/2)) subfield
        elements = draw(st.sets(st.integers(1, (1 << (m // 2)) - 1),
                                min_size=size, max_size=size))
    else:  # roots summing to zero: s_1 == 0, the LFSR starts late
        elements = draw(st.sets(st.integers(1, (1 << m) - 1),
                                min_size=size, max_size=size))
        total = 0
        for x in elements:
            total ^= x
        if total:
            elements = elements ^ {total}  # toggling it makes the XOR zero
    return elements, capacity, m


@given(case=random_case(32, 24, lambda t: t + 8))
@settings(max_examples=350, deadline=None)
def test_decode_matches_reference_m32(case):
    _check_against_oracles(*case, m=32)


@given(case=random_case(16, 24, lambda t: t + 8))
@settings(max_examples=200, deadline=None)
def test_decode_matches_reference_m16(case):
    _check_against_oracles(*case, m=16)


@given(case=random_case(32, 12, lambda t: 3 * t))
@settings(max_examples=200, deadline=None)
def test_decode_matches_reference_far_over_capacity(case):
    _check_against_oracles(*case, m=32)


@given(case=structured_case())
@settings(max_examples=300, deadline=None)
def test_decode_matches_reference_structured(case):
    _check_against_oracles(*case)


@pytest.mark.parametrize("capacity,size", [
    (32, 5), (64, 9), (64, 40), (100, 1), (100, 17), (100, 60),
    (40, 44), (64, 72),
])
def test_decode_matches_reference_large_capacity(capacity, size):
    rnd = random.Random(capacity * 1000 + size)
    elements = set(rnd.sample(range(1, 1 << 32), size))
    _check_against_oracles(elements, capacity, m=32)


def test_decode_of_arbitrary_syndromes_matches_reference():
    """Syndrome vectors that are no set's sketch (wire garbage) agree too."""
    rnd = random.Random(5)
    field = default_field(32)
    for _ in range(60):
        capacity = rnd.randint(1, 12)
        syndromes = [rnd.randrange(1 << 32) for _ in range(capacity)]
        # A genuine prefix followed by garbage exercises rejected early exits.
        if rnd.random() < 0.5:
            genuine = ref.sketch_of(
                rnd.sample(range(1, 1 << 32), rnd.randint(1, 3)),
                capacity, field,
            )
            keep = rnd.randint(0, capacity)
            syndromes[:keep] = genuine[:keep]
        assert _library_decode(syndromes, 32) == ref.decode(syndromes, field)


# ------------------------------------------------- Berlekamp--Massey structure


@given(odd=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=24))
@settings(max_examples=200, deadline=None)
def test_online_bm_matches_plain_recurrence(odd):
    """Skipping the even steps is exact: their discrepancy is always zero.

    Holds for *arbitrary* odd syndromes (only ``s_2k = s_k^2`` is used),
    and the online recurrence yields the plain one's state after every
    second syndrome.
    """
    field = default_field(32)
    plain = ref.berlekamp_massey_trace(ref.full_syndromes(odd, field), field)
    assert all(d == 0 for _, _, d in plain[1::2])
    online = [(length, list(conn))
              for length, conn in _berlekamp_massey(odd, field)]
    assert online == [(length, conn) for length, conn, _ in plain[1::2]]


@pytest.mark.parametrize("m", [8, 16])
def test_online_bm_matches_plain_recurrence_small_fields(m):
    rnd = random.Random(m)
    field = default_field(m)
    for _ in range(100):
        odd = [rnd.randrange(1 << m) for _ in range(rnd.randint(1, 12))]
        plain = ref.berlekamp_massey_trace(ref.full_syndromes(odd, field), field)
        assert all(d == 0 for _, _, d in plain[1::2])
        assert [(l, list(c)) for l, c in _berlekamp_massey(odd, field)] \
            == [(l, c) for l, c, _ in plain[1::2]]


# ------------------------------------------------------- closed-form solvers


def _brute_roots(poly, field):
    return sorted(x for x in range(field.order) if field.poly_eval(poly, x) == 0)


@pytest.mark.parametrize("degree,solver", [(3, _solve_cubic), (4, _solve_quartic)])
@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_closed_forms_match_brute_force_gf256(degree, solver, data):
    """Every monic cubic/quartic over GF(2^8): all roots iff it splits.

    Random coefficients cover the non-split, repeated-root, zero-root and
    ``a == 0`` inputs (each is a constant fraction of a 256-element field).
    """
    field = default_field(8)
    poly = data.draw(st.lists(st.integers(0, 255),
                              min_size=degree, max_size=degree)) + [1]
    roots = _brute_roots(poly, field)
    distinct_split = len(roots) == degree  # degree distinct roots: no repeats
    got = sorted(solver(poly, field))
    assert got == (roots if distinct_split else [])


@pytest.mark.parametrize("m", [16, 32])
@pytest.mark.parametrize("degree,solver", [(3, _solve_cubic), (4, _solve_quartic)])
def test_closed_forms_special_inputs(m, degree, solver):
    field = default_field(m)
    rnd = random.Random(100 * m + degree)

    def product(roots):
        poly = [1]
        for r in roots:
            poly = field.poly_mul(poly, [r, 1])
        return poly

    for _ in range(50):
        roots = rnd.sample(range(1, field.order), degree)
        assert sorted(solver(product(roots), field)) == sorted(roots)
        # A zero root is an ordinary distinct root.
        with_zero = [0] + roots[1:]
        assert sorted(solver(product(with_zero), field)) == sorted(with_zero)
        # a == 0: the roots sum to zero.
        total = 0
        for r in roots[:-1]:
            total ^= r
        if total and total not in roots[:-1]:
            zero_sum = roots[:-1] + [total]
            poly = product(zero_sum)
            assert poly[degree - 1] == 0
            assert sorted(solver(poly, field)) == sorted(zero_sum)
        # A repeated root is not a distinct-roots split.
        assert solver(product(roots[:-1] + [roots[0]]), field) == []
        # An irreducible quadratic factor: not split.
        while True:
            b, c = rnd.randrange(1, field.order), rnd.randrange(1, field.order)
            if field.artin_schreier_solve(
                    field.div(c, field.sqr(b))) is None:
                break
        non_split = field.poly_mul(product(roots[:-2]), [c, b, 1])
        assert solver(non_split, field) == []


@pytest.mark.parametrize("fast", [True, False])
def test_find_roots_rejects_non_split_locators_of_every_degree(fast):
    """Degree >= 5 goes through the chain's split test."""
    field = default_field(32)
    rnd = random.Random(77)
    previous = set_fast_path(fast)
    try:
        for degree in range(1, 14):
            roots = rnd.sample(range(1, 1 << 32), degree)
            poly = [1]
            for r in roots:
                poly = field.poly_mul(poly, [r, 1])
            assert sorted(_find_roots(poly, field)) == sorted(roots)
            spoiled = list(poly)
            spoiled[0] ^= 1  # almost surely no longer a product of linears
            got = _find_roots(spoiled, field)
            expected = ref.find_roots(spoiled, field)
            if len(expected) == degree:
                assert sorted(got) == sorted(expected)
            else:
                assert len(got) < degree
    finally:
        set_fast_path(previous)
