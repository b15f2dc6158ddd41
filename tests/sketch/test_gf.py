"""Unit and property tests for GF(2^m) arithmetic."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch.gf import GF2m, GF2Tower32, default_field

FIELDS = {16: GF2m(16), 32: default_field(32)}

elem16 = st.integers(min_value=0, max_value=2 ** 16 - 1)
elem32 = st.integers(min_value=0, max_value=2 ** 32 - 1)
nonzero32 = st.integers(min_value=1, max_value=2 ** 32 - 1)


def test_default_field_32_is_tower():
    assert isinstance(default_field(32), GF2Tower32)


def test_default_field_is_cached():
    assert default_field(32) is default_field(32)


def test_tower_quadratic_constant_has_trace_one():
    field = default_field(32)
    assert field._subfield_trace(field.QUAD_C) == 1


@given(a=elem32, b=elem32)
@settings(max_examples=200)
def test_tower_mul_commutes(a, b):
    f = FIELDS[32]
    assert f.mul(a, b) == f.mul(b, a)


@given(a=elem32, b=elem32, c=elem32)
@settings(max_examples=200)
def test_tower_mul_associative_and_distributive(a, b, c):
    f = FIELDS[32]
    assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
    assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


@given(a=elem32)
@settings(max_examples=200)
def test_tower_square_is_self_multiply(a):
    f = FIELDS[32]
    assert f.sqr(a) == f.mul(a, a)


@given(a=nonzero32)
@settings(max_examples=200)
def test_tower_inverse(a):
    f = FIELDS[32]
    assert f.mul(a, f.inv(a)) == 1


@given(a=elem16, b=elem16)
@settings(max_examples=200)
def test_table_mul_matches_reference(a, b):
    f = FIELDS[16]
    assert f.mul(a, b) == f._mul_notable(a, b)


def test_identity_and_zero():
    for f in FIELDS.values():
        assert f.mul(0, 12345 % f.order) == 0
        assert f.mul(1, 12345 % f.order) == 12345 % f.order
        assert f.add(7, 7) == 0


def test_inv_of_zero_raises():
    for f in FIELDS.values():
        with pytest.raises(ZeroDivisionError):
            f.inv(0)


def test_pow_edge_cases():
    f = FIELDS[16]
    assert f.pow(5, 0) == 1
    assert f.pow(5, 1) == 5
    assert f.pow(5, 2) == f.sqr(5)
    assert f.mul(f.pow(5, 3), f.pow(5, -3)) == 1


def test_div_is_mul_by_inverse():
    f = FIELDS[32]
    assert f.div(100, 7) == f.mul(100, f.inv(7))


@given(u=elem32)
@settings(max_examples=150)
def test_artin_schreier_solver(u):
    f = FIELDS[32]
    solution = f.artin_schreier_solve(u)
    if solution is None:
        assert f.trace(u) == 1
    else:
        assert f.sqr(solution) ^ solution == u


def test_trace_is_gf2_valued_and_linear():
    f = FIELDS[32]
    for a, b in [(3, 5), (123456, 789), (2 ** 31, 17)]:
        assert f.trace(a) in (0, 1)
        assert f.trace(a ^ b) == f.trace(a) ^ f.trace(b)


# ------------------------------------------------------------- polynomials


def test_poly_mul_and_mod():
    f = FIELDS[16]
    # (x + 3)(x + 5) = x^2 + (3+5)x + 15
    product = f.poly_mul([3, 1], [5, 1])
    assert product == [f.mul(3, 5), 3 ^ 5, 1]
    assert f.poly_mod(product, [3, 1]) == []  # divisible by x + 3


def test_poly_gcd_of_shared_root():
    f = FIELDS[16]
    p = f.poly_mul([7, 1], [9, 1])
    q = f.poly_mul([7, 1], [11, 1])
    assert f.poly_gcd(p, q) == [7, 1]


def test_poly_eval_horner():
    f = FIELDS[16]
    poly = [1, 2, 3]  # 3x^2 + 2x + 1
    x = 7
    expected = f.mul(3, f.sqr(x)) ^ f.mul(2, x) ^ 1
    assert f.poly_eval(poly, x) == expected


def test_poly_monic_normalises_leading_coefficient():
    f = FIELDS[16]
    monic = f.poly_monic([4, 6])
    assert monic[-1] == 1
    # Roots preserved: p(r) == 0 <-> monic(r) == 0.
    root = f.div(4, 6)
    assert f.poly_eval(monic, root) == 0


@pytest.mark.parametrize("m", [16, 32])
def test_poly_divmod_gcd_and_monic_on_long_polynomials(m):
    """``p == quotient * q + remainder``, and a multiple of ``q`` has the
    monic ``q`` as its gcd with ``q``, at degrees 140 and 60."""
    import random

    f = default_field(m)
    rnd = random.Random(m)
    p = [rnd.randrange(1 << m) for _ in range(140)] + [1]
    q = [rnd.randrange(1 << m) for _ in range(60)] + [rnd.randrange(1, 1 << m)]
    quotient, remainder = f.poly_divmod(p, q)
    assert len(remainder) < len(q)
    assert f.poly_add(f.poly_mul(quotient, q), remainder) == p
    monic = f.poly_monic(q)
    assert monic[-1] == 1 and f.poly_mul([q[-1]], monic) == q
    cubic = f.poly_mul(f.poly_mul([3, 1], [5, 1]), [7, 1])
    assert f.poly_gcd(f.poly_mul(cubic, q), q) == monic


def test_poly_sqr_mod_consistency():
    """The Frobenius chain squares modulo q exactly like poly_mul + poly_mod."""
    for m in (8, 16, 32):
        f = default_field(m)
        q = [9, 7, 0, 3, 0, 1]  # monic, degree 5
        term = [0, 1]
        total = []
        for _ in range(f.m):
            total = f.poly_add(total, term)
            term = f.poly_mod(f.poly_mul(term, term), q)
        chain = f.frobenius_chain(q)
        assert chain.trace(0) == total
        assert chain.splits == (term == [0, 1])


@pytest.mark.parametrize("m", [8, 16, 32])
def test_frobenius_chain_traces_match_direct_sum(m):
    """Tr(beta x) mod q from the chain, for a q that splits, every beta."""
    import random

    f = default_field(m)
    rnd = random.Random(m)
    roots = rnd.sample(range(1, f.order), 6)
    q = [1]
    for r in roots:
        q = f.poly_mul(q, [r, 1])
    chain = f.frobenius_chain(q)
    assert chain.splits
    for bit in range(f.m):
        term = f.poly_mod([0, 1 << bit], q)
        total = []
        for _ in range(f.m):
            total = f.poly_add(total, term)
            term = f.poly_mod(f.poly_mul(term, term), q)
        assert chain.trace(bit) == total
        # The trace polynomial takes the GF(2) value Tr(beta r) at each root.
        for r in roots:
            assert f.poly_eval(total, r) == f.trace(f.mul(1 << bit, r))


@pytest.mark.parametrize("degree", [2, 3, 5, 6, 8, 13, 31, 50])
def test_tower_frobenius_chain_matches_direct_powers(degree):
    """The generic chain on the tower, for locators that split and that do
    not: ``splits`` is ``x^(2^32) == x mod q`` and ``trace(bit)`` is
    ``sum_i beta^(2^i) x^(2^i) mod q`` for ``beta = 2^bit``, both computed
    here by plain squaring and reduction."""
    import random

    field = default_field(32)
    rnd = random.Random(degree)
    for splits in (True, False):
        q = [1]
        for r in rnd.sample(range(1, field.order), degree):
            q = field.poly_mul(q, [r, 1])
        if not splits:
            q[0] ^= 1
        powers = [field.poly_mod([0, 1], q)]  # x^(2^i) mod q, i < m
        for _ in range(field.m):
            powers.append(field.poly_mod(field.poly_mul(powers[-1],
                                                        powers[-1]), q))
        chain = field.frobenius_chain(q)
        assert chain.splits == (powers[field.m] == powers[0])
        if splits:
            assert chain.splits
        for bit in range(field.m):
            beta, total = 1 << bit, []
            for power in powers[:field.m]:
                total = field.poly_add(
                    total, [field.mul(beta, c) for c in power])
                beta = field.sqr(beta)
            assert chain.trace(bit) == total


def test_berlekamp_massey_ends_at_the_difference_and_keeps_its_states():
    """A 70-element sketch of capacity 80: the last locator has degree 70,
    and no yielded state changes once the loop has run on."""
    import random

    from repro.sketch.pinsketch import PinSketch, unpack_syndromes

    field = default_field(32)
    rnd = random.Random(8)
    sketch = PinSketch(80, 32)
    sketch.add_all(rnd.sample(range(1, 1 << 32), 70))
    seen, kept = [], []
    slots = unpack_syndromes(sketch.packed, 80, 32)
    for length, locator in field.berlekamp_massey(slots):
        seen.append((length, list(locator)))
        kept.append((length, locator))
    assert [(length, list(c)) for length, c in kept] == seen
    assert seen[-1][0] == 70 == len(seen[-1][1]) - 1


def _reference_powers(f):
    """``(g, [g^0, ..., g^(n-1)])`` for the first primitive ``g`` the table
    build tries, walked with the shift-and-add ``_mul_notable``: no table
    is read."""
    n = f.order - 1
    for generator in range(2, 64):
        powers, value = [], 1
        for _ in range(n):
            powers.append(value)
            value = f._mul_notable(generator, value)
            if value == 1:
                break
        if len(powers) == n:
            return generator, powers
    raise AssertionError("no primitive generator below 64")


@pytest.mark.parametrize("m", [8, 12, 16])
def test_tables_match_reference_construction(m):
    """Inline generator walk == the shift-and-add ``_mul_notable`` walk."""
    f = GF2m(m)
    n = f.order - 1
    _, powers = _reference_powers(f)
    exp, log = f._exp.tolist(), f._log.tolist()
    assert exp[:n] == powers
    assert exp[n:2 * n] == powers
    assert not any(exp[2 * n:]) and len(exp) == 4 * n + 2
    assert log[0] == 2 * n
    assert all(log[value] == i for i, value in enumerate(powers))


def test_tables_are_packed():
    """The GF(2^16) tables are machine-word arrays, not lists of ints."""
    from array import array

    f = GF2m(16)
    assert isinstance(f._exp, array) and f._exp.typecode == "H"
    assert isinstance(f._log, array) and f._log.typecode == "I"
    assert sys.getsizeof(f._exp) + sys.getsizeof(f._log) <= 800_000


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmRSS from /proc/self/status")
def test_default_field_grows_a_fresh_process_by_at_most_1_5_mb():
    """Building the tower's tables in a fresh interpreter costs what the
    arrays hold; with lists of ints it cost 4.2 MB."""
    import os
    import subprocess
    import textwrap

    script = textwrap.dedent("""
        def rss():
            with open("/proc/self/status") as status:
                for line in status:
                    if line.startswith("VmRSS:"):
                        return int(line.split()[1]) * 1024
        from repro.sketch.gf import default_field
        before = rss()
        default_field(32)
        print(rss() - before)
    """)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    grown = int(subprocess.run(
        [sys.executable, "-c", script], env=env, check=True,
        capture_output=True, text=True,
    ).stdout)
    assert grown <= 1.5 * 2 ** 20, grown


def test_tower_quad_c_is_smallest_trace_one_element():
    field = default_field(32)
    assert field.QUAD_C == 2048
    assert all(field.sub.trace(c) == 0 for c in range(1, field.QUAD_C))


@pytest.mark.parametrize("m", [8, 16, 32, 64])
def test_sqrt_inverts_sqr(m):
    import random

    f = default_field(m)
    rnd = random.Random(m)
    for a in [0, 1] + [rnd.randrange(f.order) for _ in range(50)]:
        assert f.sqr(f.sqrt(a)) == a
        assert f.sqrt(f.sqr(a)) == a


def _brute_linearized(f, a, b, v):
    return sorted(
        z for z in range(f.order)
        if f.sqr(f.sqr(z)) ^ f.mul(a, f.sqr(z)) ^ f.mul(b, z) == v
    )


@given(a=st.integers(0, 255), b=st.integers(0, 255), v=st.integers(0, 255))
@settings(max_examples=300, deadline=None)
def test_linearized_quartic_matches_brute_force(a, b, v):
    """Four roots exactly when the equation has four distinct ones, else []."""
    f = default_field(8)
    expected = _brute_linearized(f, a, b, v)
    got = sorted(f.solve_linearized_quartic(a, b, v))
    if b != 0 and len(expected) == 4:
        assert got == expected
    else:
        assert got == []


@given(z=st.lists(elem32, min_size=3, max_size=3, unique=True))
@settings(max_examples=100, deadline=None)
def test_linearized_quartic_recovers_planted_roots_m32(z):
    """Plant a 2-dimensional kernel coset in GF(2^32) and recover it."""
    f = FIELDS[32]
    z0, k0, k1 = z
    if 0 in (k0, k1):
        return
    roots = [z0, z0 ^ k0, z0 ^ k1, z0 ^ k0 ^ k1]
    poly = [1]
    for r in roots:
        poly = f.poly_mul(poly, [r, 1])
    # A coset of a GF(2)-subspace has an affine linearised annihilator.
    assert poly[3] == 0 and poly[4] == 1
    assert sorted(f.solve_linearized_quartic(poly[2], poly[1], poly[0])) \
        == sorted(roots)


def test_poly_mod_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        FIELDS[16].poly_mod([1, 2], [])


def test_unknown_field_size_rejected():
    with pytest.raises(ValueError):
        GF2m(13)


# ------------------------------------------------ field and table sharing


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
    from repro.sketch.pinsketch import PinSketch, unpack_syndromes

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


def _tower_mul_by_definition(field, a, b):
    """(a1 y + a0)(b1 y + b0) mod y^2 + y + c on shift-and-add products."""
    mul = field.sub._mul_notable
    a1, a0, b1, b0 = a >> 16, a & 0xFFFF, b >> 16, b & 0xFFFF
    high = mul(a1, b1)
    return ((mul(a1, b0) ^ mul(a0, b1) ^ high) << 16) | (
        mul(a0, b0) ^ mul(high, field.QUAD_C)
    )


# Halves that hit the sentinel (0) and the top of the subfield (0xFFFF).
tower_half = st.one_of(st.sampled_from([0, 1, 0xFFFF]), elem16)
tower_elem = st.builds(lambda hi, lo: hi << 16 | lo, tower_half, tower_half)


@given(a=tower_elem, b=tower_elem, vec=st.lists(tower_elem, max_size=6),
       count=st.integers(0, 8))
@settings(max_examples=300, deadline=None)
def test_tower_kernels_match_table_free_karatsuba(a, b, vec, count):
    """Every tower kernel == the Karatsuba formula over y^2 + y + c on
    shift-and-add subfield products: no log/exp table in the oracle."""
    tower = FIELDS[32]
    ref = _tower_mul_by_definition
    assert tower.mul(a, b) == ref(tower, a, b)
    assert tower.sqr(a) == ref(tower, a, a)
    root = tower.sqrt(a)
    assert ref(tower, root, root) == a
    if a:
        assert ref(tower, a, tower.inv(a)) == 1
    assert tower.mul_scalar_batch(a, vec) == [ref(tower, a, v) for v in vec]
    chain, value = [], b
    for _ in range(count):
        value = ref(tower, value, a)
        chain.append(value)
    assert tower.mul_chain(b, a, count) == chain
    assert GF2m.mul_chain(tower, b, a, count) == chain


def test_tower_kernels_read_every_table_entry_correctly():
    """Products by ``g``, ``1``, ``g^-1`` and ``0`` over the whole subfield,
    in either half, squares and inverses: together they read ``log``
    everywhere and ``exp`` at every index of ``[0, 3n)`` but ``2n - 1`` and
    at ``4n``, so one wrong entry there fails here.  The expected values
    are the table-free walk of ``g``'s powers, reordered."""
    tower = FIELDS[32]
    generator, powers = _reference_powers(tower.sub)
    inverse = powers[-1]
    up, down = powers[1:] + powers[:1], powers[-1:] + powers[:-1]
    zeros = [0] * len(powers)
    for shift in (0, 16):
        vec = [p << shift for p in powers]
        for scalar, expected in ((generator, up), (1, powers),
                                 (inverse, down), (0, zeros)):
            assert tower.mul_scalar_batch(scalar, vec) == [
                e << shift for e in expected]
    assert tower.mul_chain(1, generator, len(powers)) == up
    assert tower.mul_chain(1, inverse, len(powers)) == powers[::-1]
    assert [tower.sqr(p) for p in powers] == powers[::2] + powers[1::2]
    assert [tower.inv(p) for p in powers] == powers[:1] + powers[:0:-1]


@pytest.mark.parametrize("swap", [True, False])
def test_sentinel_products_with_zero_operands(swap):
    """Zero operands fall out of the sentinel tables: no masks, no tests.
    ``swap`` puts each zero on the other side of the product."""
    import random

    rnd = random.Random(31)
    sub = default_field(16)
    xs = [0, 0, 1, 0xFFFF] + [rnd.randrange(1 << 16) for _ in range(60)]
    ys = [0, 7, 0, 0xFFFF] + [rnd.randrange(1 << 16) for _ in range(60)]
    if swap:
        xs, ys = ys, xs
    assert [sub.mul(x, y) for x, y in zip(xs, ys)] == [
        sub._mul_notable(x, y) for x, y in zip(xs, ys)]
    assert [sub.sqr(x) for x in xs] == [sub._mul_notable(x, x) for x in xs]
    assert sub.mul_scalar_batch(0, xs) == [0] * len(xs)

    tower = default_field(32)
    # Zero halves as well as zero elements: every Karatsuba term hits
    # the sentinel somewhere.
    halves = [0, 0x10000, 0xFFFF, 0xFFFF0000, 0x00010001]
    xs = halves + [rnd.randrange(1 << 32) for _ in range(60)]
    ys = halves[::-1] + [rnd.randrange(1 << 32) for _ in range(60)]
    if swap:
        xs, ys = ys, xs
    assert [tower.mul(x, y) for x, y in zip(xs, ys)] == [
        _tower_mul_by_definition(tower, x, y) for x, y in zip(xs, ys)]
    assert [tower.sqr(x) for x in xs] == [
        _tower_mul_by_definition(tower, x, x) for x in xs]
    for scalar in (0, 0x10000, 0xFFFF, xs[-1]):
        for vec in (xs, xs * 2):
            assert tower.mul_scalar_batch(scalar, vec) == [
                _tower_mul_by_definition(tower, scalar, v) for v in vec]


@pytest.mark.parametrize("m", [8, 12, 16, 24, 32, 48, 64])
def test_mul_scalar_batch_matches_scalar_mul(m):
    """The row update of every polynomial routine, on all three tiers."""
    import random

    f = default_field(m)
    rnd = random.Random(1000 + m)
    xs = [0, 1, f.mask] + [rnd.randrange(1 << m) for _ in range(254)]
    for scalar in (0, 1, f.mask, rnd.randrange(1, 1 << m)):
        assert f.mul_scalar_batch(scalar, xs) == [f.mul(scalar, x) for x in xs]
