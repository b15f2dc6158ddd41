"""The previous decode path, kept as an independent oracle (tests only).

Full-length Berlekamp--Massey over all ``2t`` syndromes, then Berlekamp
trace splitting with one scalar ``m``-step squaring chain *per beta*, a
Frobenius linearity check when splitting stalls, and a final syndrome
check -- the decoder ``repro.sketch.pinsketch`` shipped before its cost
was made to follow the decoded difference.  It shares only scalar field
arithmetic (``mul``/``sqr``/``inv`` and the Artin--Schreier solver) with
the library: polynomial arithmetic, the recurrence and the root finder
are spelled out here, so the early-exit recurrence, the shared Frobenius
chain, the closed forms and the fused kernels are all checked against
code that has none of them.  Same role as ``ReferenceLoop`` in
``tests/sim/test_loop_equivalence.py``.
"""

from typing import List, Optional, Sequence, Set

from repro.sketch.gf import GF2m


def full_syndromes(odd: Sequence[int], field: GF2m) -> List[int]:
    """``s_1 .. s_2t`` from the stored odd ones via ``s_2k = s_k^2``."""
    t = len(odd)
    full = [0] * (2 * t + 1)  # 1-indexed
    for i, value in enumerate(odd):
        full[2 * i + 1] = value
    for k in range(1, t + 1):
        full[2 * k] = field.sqr(full[k])
    return full[1:]


def berlekamp_massey(syndromes: Sequence[int], field: GF2m) -> List[int]:
    """Plain Berlekamp--Massey: every step computes its discrepancy."""
    return berlekamp_massey_trace(syndromes, field)[-1][1]


def berlekamp_massey_trace(syndromes: Sequence[int], field: GF2m):
    """``[(L, C)]`` after each syndrome of the plain recurrence."""
    current: List[int] = [1]
    previous: List[int] = [1]
    length = 0
    shift = 1
    prev_discrepancy = 1
    states = []
    for n, s_n in enumerate(syndromes):
        discrepancy = s_n
        for i in range(1, min(length, len(current) - 1) + 1):
            discrepancy ^= field.mul(current[i], syndromes[n - i])
        if discrepancy == 0:
            shift += 1
        else:
            coefficient = field.mul(discrepancy, field.inv(prev_discrepancy))
            update = [0] * shift + [field.mul(coefficient, c) for c in previous]
            merged = _poly_xor(current, update)
            if 2 * length <= n:
                previous = current
                length = n + 1 - length
                prev_discrepancy = discrepancy
                shift = 1
            else:
                shift += 1
            current = merged
        trimmed = list(current)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        states.append((length, trimmed, discrepancy))
    return states


def _poly_xor(a: Sequence[int], b: Sequence[int]) -> List[int]:
    out = list(a) if len(a) >= len(b) else list(b)
    for i, coeff in enumerate(b if len(a) >= len(b) else a):
        out[i] ^= coeff
    return out


def _trim(p: List[int]) -> List[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mod(p: Sequence[int], q: Sequence[int], field: GF2m) -> List[int]:
    rem = _trim(list(p))
    dq = len(q) - 1
    inv_lead = field.inv(q[-1])
    while rem and len(rem) - 1 >= dq:
        shift = len(rem) - 1 - dq
        factor = field.mul(rem[-1], inv_lead)
        for i, coeff in enumerate(q):
            rem[i + shift] ^= field.mul(factor, coeff)
        _trim(rem)
    return rem


def poly_monic(p: Sequence[int], field: GF2m) -> List[int]:
    p = _trim(list(p))
    if not p:
        return p
    inv_lead = field.inv(p[-1])
    return [field.mul(c, inv_lead) for c in p]


def poly_gcd(p: Sequence[int], q: Sequence[int], field: GF2m) -> List[int]:
    a, b = _trim(list(p)), _trim(list(q))
    while b:
        a, b = b, poly_mod(a, b, field)
    return poly_monic(a, field)


def poly_sqr_mod(p: Sequence[int], q: Sequence[int], field: GF2m) -> List[int]:
    if not p:
        return []
    out = [0] * (2 * len(p) - 1)
    for i, coeff in enumerate(p):
        out[2 * i] = field.sqr(coeff)
    return poly_mod(out, q, field)


def poly_divide_exact(
    numerator: Sequence[int], denominator: Sequence[int], field: GF2m
) -> List[int]:
    rem = _trim(list(numerator))
    dd = len(denominator) - 1
    inv_lead = field.inv(denominator[-1])
    quotient = [0] * (len(rem) - dd)
    while rem and len(rem) - 1 >= dd:
        shift = len(rem) - 1 - dd
        factor = field.mul(rem[-1], inv_lead)
        quotient[shift] = factor
        for i, coeff in enumerate(denominator):
            rem[i + shift] ^= field.mul(factor, coeff)
        _trim(rem)
    assert not rem, "polynomial division left a remainder"
    return quotient


class _NotFullySplittable(Exception):
    pass


def find_roots(poly: Sequence[int], field: GF2m) -> List[int]:
    """Distinct roots by trace splitting; fewer than the degree if not split."""
    monic = poly_monic(poly, field)
    if len(monic) <= 1:
        return []
    roots: List[int] = []
    try:
        _trace_split(monic, monic, field, roots, {})
    except _NotFullySplittable:
        pass
    return roots


def _solve_quadratic(poly: Sequence[int], field: GF2m, out: List[int]) -> None:
    c, b = poly[0], poly[1]
    if b == 0:
        raise _NotFullySplittable
    y = field.artin_schreier_solve(field.mul(c, field.inv(field.sqr(b))))
    if y is None:
        raise _NotFullySplittable
    out.append(field.mul(b, y))
    out.append(field.mul(b, y) ^ b)


def _trace_split(poly, top, field, out, trace_cache) -> None:
    degree = len(poly) - 1
    if degree <= 0:
        return
    if degree == 1:
        out.append(poly[0])
        return
    if degree == 2:
        _solve_quadratic(poly, field, out)
        return
    failures = 0
    for bit in range(field.m):
        beta = 1 << bit
        top_trace = trace_cache.get(beta)
        if top_trace is None:
            top_trace = _trace_poly(beta, top, field)
            trace_cache[beta] = top_trace
        trace = poly_mod(top_trace, poly, field)
        factor = poly_gcd(poly, trace, field)
        if 0 < len(factor) - 1 < degree:
            other = poly_divide_exact(poly, factor, field)
            _trace_split(factor, top, field, out, trace_cache)
            _trace_split(poly_monic(other, field), top, field, out, trace_cache)
            return
        failures += 1
        if failures == 4 and not _is_fully_linear(poly, field):
            raise _NotFullySplittable
    raise _NotFullySplittable


def _is_fully_linear(poly: Sequence[int], field: GF2m) -> bool:
    frob = poly_mod([0, 1], poly, field)
    for _ in range(field.m):
        frob = poly_sqr_mod(frob, poly, field)
    frob_minus_x = _trim(_poly_xor(frob, [0, 1]))
    return len(poly_gcd(list(poly), frob_minus_x, field)) == len(poly)


def _trace_poly(beta: int, modulus: Sequence[int], field: GF2m) -> List[int]:
    term = poly_mod([0, beta], modulus, field)
    total = list(term)
    for _ in range(field.m - 1):
        term = poly_sqr_mod(term, modulus, field)
        total = _trim(_poly_xor(total, term))
    return total


def sketch_of(elements, capacity: int, field: GF2m) -> List[int]:
    """Odd power sums by repeated scalar multiplication (no caches)."""
    syndromes = [0] * capacity
    for x in elements:
        x2 = field.sqr(x)
        power = x
        for k in range(capacity):
            syndromes[k] ^= power
            power = field.mul(power, x2)
    return syndromes


def decode(odd_syndromes: Sequence[int], field: GF2m) -> Optional[Set[int]]:
    """The decoded set, or None where the library raises SketchDecodeError."""
    capacity = len(odd_syndromes)
    if not any(odd_syndromes):
        return set()
    locator = berlekamp_massey(full_syndromes(odd_syndromes, field), field)
    degree = len(locator) - 1
    if degree == 0 or degree > capacity:
        return None
    roots = find_roots(locator, field)
    if len(roots) != degree:
        return None
    elements = {field.inv(r) for r in roots}
    if sketch_of(elements, capacity, field) != list(odd_syndromes):
        return None
    return elements
