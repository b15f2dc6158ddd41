"""The decode path against independent oracles.

``reference_decode`` is the previous decoder (full-length
Berlekamp--Massey, per-beta trace splitting) written out on scalar field
arithmetic only; brute force is the definition (the symmetric difference
itself).  The library must agree with both on result-or-raise, for
random and structured inputs, in- and over-capacity.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch import (
    CandidateRegistry, PinSketch, SketchDecodeError, pinsketch,
)
from repro.sketch.gf import GF2m, default_field
from repro.sketch.pinsketch import (
    _find_roots,
    _solve_cubic,
    _solve_quartic,
    clear_decode_cache,
)
from repro.sketch.registry import MAX_CANDIDATES

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
    got = _library_decode(syndromes, m)
    assert got == expected, (capacity, sorted(elements))
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
              for length, conn in field.berlekamp_massey(odd)]
    assert online == [(length, conn) for length, conn, _ in plain[1::2]]


@pytest.mark.parametrize("m", [8, 16])
def test_online_bm_matches_plain_recurrence_small_fields(m):
    rnd = random.Random(m)
    field = default_field(m)
    for _ in range(100):
        odd = [rnd.randrange(1 << m) for _ in range(rnd.randint(1, 12))]
        plain = ref.berlekamp_massey_trace(ref.full_syndromes(odd, field), field)
        assert all(d == 0 for _, _, d in plain[1::2])
        assert [(l, list(c)) for l, c in field.berlekamp_massey(odd)] \
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


@pytest.mark.parametrize("tower", [True, False])
def test_find_roots_rejects_non_split_locators_of_every_degree(tower):
    """Degree >= 5 goes through the chain's split test, in the tower basis
    and in the polynomial basis of GF(2^32)."""
    field = default_field(32) if tower else GF2m(32)
    rnd = random.Random(77)
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


# --------------------------------------- elimination over known candidates

CANDIDATE_KINDS = ("half", "superset", "junk", "duplicates", "empty",
                   "over_bound", "out_of_range")

#: One registry shared by every example below, so that bases are synced,
#: windows slide and rebuilds happen between decodes.
_SHARED = CandidateRegistry(limit=300)


def _candidates(kind, elements, m, rnd):
    """Candidate lists a caller could pass: helpful, useless and hostile."""
    ordered = sorted(elements)
    half = rnd.sample(ordered, len(ordered) // 2)
    junk = [x for x in (rnd.randrange(1, 1 << m) for _ in range(40))
            if x not in elements]
    if kind == "half":
        return half
    if kind == "superset":
        mixed = ordered + junk
        rnd.shuffle(mixed)
        return mixed
    if kind == "junk":
        return junk
    if kind == "duplicates":
        return half + junk[:5] + half + half
    if kind == "empty":
        return ()
    if kind == "over_bound":  # more ids than any basis covers, newest last
        padding = MAX_CANDIDATES + 1 - len(half)
        return half + [rnd.randrange(1, 1 << m) for _ in range(padding)]
    # Values that are no field element.  ``e + 2^32`` is ``e`` once
    # narrowed to uint32: it must not come back as an element.
    return half + [0, -1, -ordered[0] if ordered else -7, 1 << m, 5.0,
                   "x"] + [e + (1 << 32) for e in ordered] + [
        e + (1 << m) for e in ordered]


@st.composite
def candidate_case(draw):
    m = draw(st.sampled_from([16, 32]))
    elements, capacity = draw(random_case(m, 24, lambda t: t + 8))
    kind = draw(st.sampled_from(CANDIDATE_KINDS))
    return elements, capacity, m, kind, draw(st.integers(0, 2 ** 32))


@given(case=candidate_case())
@settings(max_examples=400, deadline=None)
def test_candidates_never_change_the_decode(case):
    """decode(candidates=C) == decode() == the reference == brute force,
    for C as a list and as a long-lived registry, and the memo holds the
    same entries either way."""
    elements, capacity, m, kind, seed = case
    field = default_field(m)
    syndromes = ref.sketch_of(elements, capacity, field)
    expected = ref.decode(syndromes, field)
    if len(elements) <= capacity:
        assert expected == set(elements)
    candidates = _candidates(kind, elements, m, random.Random(seed))
    _SHARED.add_many(candidates)
    sketch = PinSketch(capacity, m)
    sketch.load_syndromes(syndromes)
    outcomes, memos = [], []
    for hint in ((), candidates, _SHARED):
        clear_decode_cache()
        try:
            outcomes.append(sketch.decode(hint))
        except SketchDecodeError:
            outcomes.append(None)
        # What the memo now holds does not depend on the hint.
        memos.append(list(pinsketch._DECODE_CACHE.items()))
    assert outcomes == [expected] * 3, (kind, capacity)
    assert memos[0] == memos[1] == memos[2]


def _hint(candidates, registry):
    """``candidates`` as given, or in a ``CandidateRegistry`` of their own
    (a plain collection is wrapped in one by the decoder)."""
    return CandidateRegistry(candidates) if registry else candidates


@pytest.mark.parametrize("m", [16, 32])
@pytest.mark.parametrize("registry", [True, False])
def test_decode_with_candidates_then_without_is_a_cache_hit(m, registry):
    """Whether the hint is a plain list or a ``CandidateRegistry``."""
    rnd = random.Random(31 * m + registry)
    elements = set(rnd.sample(range(1, 1 << m), 9))
    sketch = PinSketch(16, m)
    sketch.add_all(elements)
    clear_decode_cache()
    stats = pinsketch._DECODE_STATS
    hits, misses = stats.hits, stats.misses
    assert sketch.decode(_hint(sorted(elements)[:4], registry)) == elements
    assert (stats.hits, stats.misses) == (hits, misses + 1)
    assert sketch.decode() == elements
    assert sketch.decode(_hint([1, 2, 3], registry)) == elements
    assert (stats.hits, stats.misses) == (hits + 2, misses + 1)


def _count_search(monkeypatch):
    """Lists that grow by one per Berlekamp--Massey run, Frobenius chain
    and GF(2) quartic solve."""
    from repro.sketch.gf import GF2m, GF2Tower32

    runs, chains, quartics = [], [], []
    frobenius_chain = GF2Tower32.frobenius_chain
    solve_linearized_quartic = GF2m.solve_linearized_quartic

    def counting(berlekamp_massey):
        def counting_bm(self, odd):
            runs.append(len(odd))
            return berlekamp_massey(self, odd)
        return counting_bm

    def counting_chain(self, q):
        chains.append(len(q) - 1)
        return frobenius_chain(self, q)

    def counting_quartic(self, a, b, v):
        quartics.append((a, b, v))
        return solve_linearized_quartic(self, a, b, v)

    # One loop for every field class: the tower inherits the patched one.
    monkeypatch.setattr(GF2m, "berlekamp_massey",
                        counting(GF2m.berlekamp_massey))
    monkeypatch.setattr(GF2Tower32, "frobenius_chain", counting_chain)
    monkeypatch.setattr(GF2m, "solve_linearized_quartic", counting_quartic)
    return runs, chains, quartics


@pytest.mark.parametrize("registry", [True, False])
def test_candidates_cannot_rescue_a_locator_that_does_not_split(
        monkeypatch, registry):
    """Over-capacity sketches and arbitrary syndromes, whose locators do
    not split: candidates holding every element (twice, next to junk),
    as a list or as a registry, leave the decode to the search, with the
    search's outcome, at m = 16 and m = 32."""
    rnd = random.Random(99 + registry)
    runs, _, _ = _count_search(monkeypatch)
    for m, capacity in [(m, t) for m in (16, 32) for t in range(2, 14)]:
        field = default_field(m)
        elements = rnd.sample(range(1, 1 << m), capacity + rnd.randint(1, 8))
        garbage = [rnd.randrange(1 << m) for _ in range(capacity)]
        for syndromes in (ref.sketch_of(set(elements), capacity, field),
                          garbage):
            expected = ref.decode(syndromes, field)
            sketch = PinSketch(capacity, m)
            sketch.load_syndromes(syndromes)
            for hint in (elements, elements * 2 + [0, 1 << m]):
                clear_decode_cache()
                del runs[:]
                try:
                    outcome = sketch.decode(_hint(hint, registry))
                except SketchDecodeError:
                    outcome = None
                assert outcome == expected
                assert len(runs) == 1  # the search decided
        assert expected is None or len(expected) <= capacity


@pytest.mark.parametrize("m", [8, 16, 32])
def test_a_reduction_past_capacity_falls_back_to_the_search(m):
    """At capacity 1 a sketch is its elements' XOR, so ``a ^ b`` is a
    combination of two registry ids: more than the capacity.  The decoder
    then searches, and returns what the search returns -- ``{a ^ b}`` for
    the sketch of ``{a ^ b}`` (whose own row is dependent, so the
    reduction never lands on it) and for the aliased sketch of ``{a, b}``."""
    field = default_field(m)
    rnd = random.Random(m)
    for _ in range(20):
        a, b = rnd.sample(range(1, 1 << m), 2)
        for members in ([a, b, a ^ b], [a, b]):
            registry = CandidateRegistry(members)
            for difference in ({a ^ b}, {a, b}):
                syndromes = ref.sketch_of(difference, 1, field)
                assert registry.combination(syndromes[0], 1, m) == (
                    {a ^ b} if members == [a ^ b] else None)
                sketch = PinSketch(1, m)
                sketch.load_syndromes(syndromes)
                clear_decode_cache()
                assert sketch.decode(registry) == {a ^ b} \
                    == ref.decode(syndromes, field)


# ------------------------------------------- every root among the candidates

FULL_KINDS = ("exact", "superset", "duplicates", "out_of_range")


def _candidates_with_every_root(kind, elements, rnd):
    """Candidate lists holding all of ``elements``, the way a simulation's
    registry of committed ids holds a correct difference: within the
    16 * capacity newest ids a basis covers."""
    ordered = sorted(elements)
    junk = [x for x in (rnd.randrange(1, 1 << 32) for _ in range(10))
            if x not in elements]
    if kind == "exact":
        return ordered
    if kind == "superset":
        mixed = ordered + junk
        rnd.shuffle(mixed)
        return mixed
    if kind == "duplicates":
        return ordered + junk[:5] + ordered[::-1] + ordered[:3]
    # Values that are no field element, next to the roots themselves.
    return [0, -1, -ordered[0], 1 << 32] + [
        e + (1 << 32) for e in ordered] + ordered


@pytest.mark.parametrize("kind", FULL_KINDS)
@pytest.mark.parametrize("registry", [True, False])
def test_candidates_holding_every_root_are_the_roots(
        monkeypatch, kind, registry):
    """Candidates holding the whole difference, as a list or as a
    registry, answer by elimination: no Berlekamp--Massey, no chain and no
    quartic solve, and the same set as the reference decoder, brute force
    and the plain search."""
    field = default_field(32)
    rnd = random.Random(10 * FULL_KINDS.index(kind) + registry)
    runs, chains, quartics = _count_search(monkeypatch)
    for degree in (1, 2, 3, 4, 5, 6, 8, 12, 17, 24):
        elements = set(rnd.sample(range(1, 1 << 32), degree))
        capacity = degree + rnd.randint(0, 8)
        syndromes = ref.sketch_of(elements, capacity, field)
        assert ref.decode(syndromes, field) == elements  # brute force
        sketch = PinSketch(capacity, 32)
        sketch.load_syndromes(syndromes)
        hint = _hint(_candidates_with_every_root(kind, elements, rnd),
                     registry)
        del runs[:], chains[:], quartics[:]
        clear_decode_cache()
        assert sketch.decode(hint) == elements
        assert runs == chains == quartics == []
        clear_decode_cache()
        assert sketch.decode() == elements
        # Without candidates the roots are searched for.
        assert runs and (chains if degree > 4 else
                         quartics if degree > 2 else True)


# -------------------------------------------- the registry's echelon bases


@pytest.mark.parametrize("snapshot", [True, False])
def test_registry_elimination_matches_brute_force(snapshot):
    """Hostile entries, evictions, several capacities sharing one registry.

    The registry holds the newest 48 of everything added, hostile values
    (0, negatives, >= 2^32, non-ints) among them.  A combination is
    reported exactly when the planted difference lies among the newest
    ids the ``(capacity, m)`` basis covers (brute force: at most one set
    of size <= t has a given sketch), and decoding with the registry
    gives the reference decoder's outcome whatever was planted, handed
    the live registry or (``snapshot``) a plain list of its entries.
    """
    field = default_field(32)
    rnd = random.Random(404 + snapshot)
    registry = CandidateRegistry(limit=48)
    evicted = rnd.sample(range(1, 1 << 32), 20)
    registry.add_many(evicted + evicted[:5])
    hostile = [0, -1, -evicted[0], 1 << 32, (1 << 32) + evicted[1],
               (1 << 64) + evicted[2], 5.0, "x"]
    reported = 0
    for step in range(160):
        capacity = rnd.choice((1, 2, 3, 4, 8, 16, 24))
        fresh = rnd.sample(range(1, 1 << 32), rnd.randint(0, 6))
        before = set(registry)
        # A hostile value evicts an id and is no element in its place.
        registry.add_many(hostile[step % 8:step % 8 + 1] + fresh)
        evicted += [c for c in before - set(registry)
                    if type(c) is int and 0 < c < 1 << 32]
        window = list(registry)[-min(16 * capacity, 48):]
        covered = [c for c in window
                   if type(c) is int and 0 < c < 1 << 32]
        held = [c for c in registry if type(c) is int and 0 < c < 1 << 32]
        pool = covered + held[:4] + evicted[-8:] + [(1 << 32) - 1]
        size = rnd.randint(1, capacity + 2)
        planted = set(rnd.sample(pool, min(size, len(pool))))
        syndromes = ref.sketch_of(planted, capacity, field)
        packed = pinsketch.pack_syndromes(syndromes, 32)
        got = registry.combination(packed, capacity, 32)
        in_window = len(planted) <= capacity and planted <= set(covered)
        assert got == (planted if in_window else None), step
        reported += got is not None
        sketch = PinSketch(capacity, 32)
        sketch.load_syndromes(syndromes)
        clear_decode_cache()
        try:
            outcome = sketch.decode(list(registry) if snapshot else registry)
        except SketchDecodeError:
            outcome = None
        assert outcome == ref.decode(syndromes, field), step
    assert not set(evicted) & set(registry)
    assert reported > 40  # not vacuous


def test_every_decode_miss_of_a_quick_run_is_one_elimination(monkeypatch):
    """A quick ``steady_gossip`` run: no Berlekamp--Massey at all, and each
    committed id is reduced into each basis once (the registry stays
    inside every window, so nothing is rebuilt)."""
    from lobench.workloads import WORKLOADS

    from repro.sketch.registry import _Basis

    runs, chains, quartics = _count_search(monkeypatch)
    reduced = []
    extend = _Basis.extend

    def counting_extend(basis, fresh):
        reduced.extend((basis.capacity, value) for value in fresh)
        return extend(basis, fresh)

    monkeypatch.setattr(_Basis, "extend", counting_extend)
    clear_decode_cache()
    workload = WORKLOADS["steady_gossip"]
    sim = workload.construct(7, True)
    misses = pinsketch._DECODE_STATS.misses  # the build resets the stats
    workload.inject(sim, 7, True)
    sim.run(workload.horizon(True))
    assert pinsketch._DECODE_STATS.misses - misses >= 50
    assert runs == chains == quartics == []
    assert reduced and len(reduced) == len(set(reduced))
    assert {value for _, value in reduced} <= set(sim.directory.committed)


@pytest.mark.parametrize("m", [8, 16, 32])
@pytest.mark.parametrize("one_shot", [True, False])
def test_fused_berlekamp_massey_matches_plain_recurrence(m, one_shot):
    """The one loop, which shifts through the even steps instead of
    computing their zero discrepancy, on every field class == the plain
    recurrence, state by state, on sketches of sets and on arbitrary
    syndromes, fed as a list or (``one_shot``) as an iterator consumed
    online."""
    field = default_field(m)
    rnd = random.Random(7 * m + one_shot)
    for trial in range(120):
        size = rnd.randint(0, 30)
        if trial % 3:  # a sketch of a set, in or over capacity
            capacity = rnd.randint(1, 24)
            elements = rnd.sample(range(1, 1 << m), min(size, 200))
            odd = ref.sketch_of(set(elements), capacity, field)
        else:  # arbitrary syndromes, zeros and the field's top included
            odd = [rnd.choice((0, 1, (1 << m) - 1, rnd.randrange(1 << m)))
                   for _ in range(rnd.randint(1, 24))]
        plain = ref.berlekamp_massey_trace(
            ref.full_syndromes(odd, field), field)
        steps = list(field.berlekamp_massey(iter(odd) if one_shot else odd))
        assert [(length, list(c)) for length, c in steps] \
            == [(length, c) for length, c, _ in plain[1::2]]
