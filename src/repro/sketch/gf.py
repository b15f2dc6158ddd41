"""Binary finite fields GF(2^m) and polynomial arithmetic over them.

Elements are Python ints in ``[0, 2^m)`` interpreted as polynomials over
GF(2).  Multiplication is carry-less multiplication followed by reduction
modulo an irreducible polynomial.  For small fields (m <= 16) log/exp tables
make multiplication three lookups; for larger fields a nibble-windowed
carry-less multiply plus a precomputed per-field reduction table keeps
pure-Python cost low.

Polynomials over GF(2^m) are represented as lists of coefficients in
ascending degree order, normalised so the last coefficient is nonzero (the
zero polynomial is the empty list).

Sentinel tables
---------------

The log/exp tables carry a zero sentinel (``log[0] = 2n``, ``exp`` zero on
``[2n, 4n + 2)`` for ``n = 2^m - 1``), so a table product is three
branch-free lookups whatever its operands.  Every kernel builds on that:
:meth:`GF2m.mul_scalar_batch` -- the row update of polynomial division,
gcd, Berlekamp--Massey and the Frobenius chain -- looks the logs of its
fixed operand up once per call, and :meth:`GF2m.dot` accumulates without
zero tests.  The tower field GF((2^16)^2) inlines the same lookups on its
subfield's tables.

Fast path
---------

When numpy is importable the field objects additionally run *batched*
kernels -- :meth:`GF2m.mul_batch`, :meth:`GF2m.sqr_batch`,
:meth:`GF2m.find_roots_scan`, and on the tower
field long :meth:`~GF2Tower32.mul_scalar_batch` rows, the candidate test
:meth:`~GF2Tower32.roots_among` and the :class:`FrobeniusChain` of a
locator of degree >= 5 -- as whole-array gathers on the same (mirrored)
tables.  Every batched kernel has a
pure-Python scalar fallback producing bit-identical results, selected
automatically when numpy is absent or the fast path is disabled via
:func:`set_fast_path`.  ``tests/sketch/test_fastpath.py`` property-tests the
equality; ``python -m lobench`` measures what it buys end to end.
"""

from __future__ import annotations

from operator import xor as _xor
from typing import Dict, List, Optional, Sequence, Tuple

try:  # The fast path is optional; the library must work without numpy.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via set_fast_path(False)
    _np = None

_FAST_ENABLED = True


def have_numpy() -> bool:
    """Whether numpy is importable in this process."""
    return _np is not None


def fast_path_active() -> bool:
    """Whether the vectorised kernels are currently in use."""
    return _np is not None and _FAST_ENABLED


def set_fast_path(enabled: bool) -> bool:
    """Enable/disable the numpy kernels; returns the previous setting.

    Disabling forces every batched API through the pure-Python scalar
    fallback -- used by the equality property tests as the reference
    switch.  A no-op (always "disabled") when numpy is not installed.
    """
    global _FAST_ENABLED
    previous = _FAST_ENABLED
    _FAST_ENABLED = bool(enabled)
    return previous


# Irreducible polynomials (without the leading x^m term) for supported m,
# matching the moduli used by libminisketch where applicable.
IRREDUCIBLE_POLY = {
    8: 0x1B,        # x^8 + x^4 + x^3 + x + 1
    12: 0x9,        # x^12 + x^3 + 1
    16: 0x2B,       # x^16 + x^5 + x^3 + x + 1
    24: 0x1B,       # x^24 + x^4 + x^3 + x + 1
    32: 0x8D,       # x^32 + x^7 + x^3 + x^2 + 1
    48: 0x2D,       # x^48 + x^5 + x^3 + x^2 + 1
    64: 0x1B,       # x^64 + x^4 + x^3 + x + 1
}

# Log/exp tables shared across every GF2m instance of the same (m, modulus):
# the tables are a pure function of the field, and partitioned sketches can
# construct many field objects (see default_field for instance sharing too).
_TABLE_CACHE: Dict[
    Tuple[int, int], Tuple[Optional[List[int]], Optional[List[int]]]
] = {}

# Numpy mirrors of the cached tables, built on first use of a batched kernel.
_NP_TABLE_CACHE: Dict[Tuple[int, int], tuple] = {}


class GF2m:
    """The finite field GF(2^m).

    >>> f = GF2m(16)
    >>> a, b = 0x1234, 0x5678
    >>> f.mul(a, f.inv(a))
    1
    >>> f.mul(a, b) == f.mul(b, a)
    True
    """

    def __init__(self, m: int, modulus: Optional[int] = None):
        if modulus is None:
            if m not in IRREDUCIBLE_POLY:
                raise ValueError(f"no built-in modulus for GF(2^{m})")
            modulus = IRREDUCIBLE_POLY[m]
        self.m = m
        self.order = 1 << m
        self.mask = self.order - 1
        # Full modulus polynomial including the x^m term.
        self.modulus = modulus | self.order
        self._low_modulus = modulus
        self._log: Optional[List[int]] = None
        self._exp: Optional[List[int]] = None
        self._reduce_table: Optional[List[int]] = None
        if m <= 16:
            self._build_tables()

    # ------------------------------------------------------------------ setup

    def _build_tables(self) -> None:
        """Build log/exp tables over a primitive element, in sentinel form.

        ``x`` itself need not be primitive for every irreducible modulus
        (it is not for the GF(2^16) modulus used here), so candidate
        generators are tried until one whose powers enumerate the whole
        multiplicative group (``n = 2^m - 1`` elements) is found.  The walk
        multiplies by the small candidate inline (xor of shifts, then one
        lookup to fold the few overflow bits back).

        Sentinel form: ``log[0] = 2n`` and ``exp`` is periodic on
        ``[0, 2n)`` and zero on ``[2n, 4n + 2)``, so ``exp[log[a] + log[b]]``
        and ``exp[2 * log[a]]`` are already correct for zero operands and
        the kernels below need no zero tests or masks.  The ``log`` list
        re-uses the int objects of ``exp`` (both hold ~2^m distinct values),
        which keeps the pair at the size the plain tables had.

        Tables are shared process-wide per (m, modulus) through a module
        cache: far too costly to repeat per sketch.
        """
        cache_key = (self.m, self.modulus)
        cached = _TABLE_CACHE.get(cache_key)
        if cached is not None:
            self._exp, self._log = cached
            return
        n = self.order - 1
        m, mask = self.m, self.mask
        for generator in range(2, 64):
            shifts = [k for k in range(generator.bit_length())
                      if generator >> k & 1]
            # fold[h] = (h << m) mod f for every overflow pattern of value * g.
            fold = [self._reduce(h << m) for h in range(generator)]
            exp = []
            value = 1
            while len(exp) <= n:
                exp.append(value)
                product = 0
                for k in shifts:
                    product ^= value << k
                value = (product & mask) ^ fold[product >> m]
                if value == 1:
                    break
            if len(exp) == n:
                break  # the powers of g enumerate the whole group
        else:
            _TABLE_CACHE[cache_key] = (None, None)
            return
        shared = [0] * self.order  # value -> the int object exp holds for it
        for value in exp:
            shared[value] = value
        log = [2 * n] * self.order
        for i, value in enumerate(exp):
            log[value] = shared[i]
        del shared
        exp = exp + exp + [0] * (2 * n + 2)
        self._exp, self._log = exp, log
        _TABLE_CACHE[cache_key] = (exp, log)

    def _np_tables(self):
        """Numpy mirrors of the log/exp tables, or None off the fast path.

        ``exp`` is uint32 (tower kernels shift products left by 16) and
        ``log`` int32 (index sums stay below ``4n + 2``).
        """
        if self._log is None or not fast_path_active():
            return None
        cache_key = (self.m, self.modulus)
        mirrors = _NP_TABLE_CACHE.get(cache_key)
        if mirrors is None:
            mirrors = (
                _np.asarray(self._exp, dtype=_np.uint32),
                _np.asarray(self._log, dtype=_np.int32),
            )
            _NP_TABLE_CACHE[cache_key] = mirrors
        return mirrors

    # ------------------------------------------------------------- arithmetic

    def add(self, a: int, b: int) -> int:
        """Addition (== subtraction) is XOR in characteristic 2."""
        return a ^ b

    def _mul_notable(self, a: int, b: int) -> int:
        """Reference shift-and-add multiply (used to bootstrap the tables)."""
        result = 0
        while a:
            if a & 1:
                result ^= b
            a >>= 1
            b <<= 1
        return self._reduce(result)

    def _build_reduce_table(self) -> List[int]:
        """Precompute ``x^(m+k) mod f`` for k in [0, m): one XOR per high bit.

        Carry-less products are at most 2m-1 bits wide, so reduction only
        ever needs these m precomputed rows; the shift-and-test loop of the
        naive reduction is replaced by table lookups (the "multiplication
        window" structure for fields too large for log/exp tables).
        """
        table = []
        row = self._low_modulus  # x^m == low part of the modulus
        for _ in range(self.m):
            table.append(row)
            row <<= 1
            if row & self.order:
                row ^= self.modulus  # clears the x^m bit
        self._reduce_table = table
        return table

    def _reduce(self, value: int) -> int:
        """Reduce an up-to-(2m-1)-bit carry-less product modulo the field."""
        if value < self.order:
            return value
        table = self._reduce_table
        if table is None:
            table = self._build_reduce_table()
        out = value & self.mask
        high = value >> self.m
        if high >> self.m:
            # Defensive: wider than any carry-less product; fall back to
            # the shift-based reduction for the out-of-contract top bits.
            top = value.bit_length()
            while top > 2 * self.m - 1:
                value ^= self.modulus << (top - self.m - 1)
                top = value.bit_length()
            out = value & self.mask
            high = value >> self.m
        k = 0
        while high:
            if high & 1:
                out ^= table[k]
            high >>= 1
            k += 1
        return out

    def _window(self, b: int) -> List[int]:
        """``[n * b for n in range(16)]`` as carry-less products (no reduce)."""
        table = [0, b]
        for i in range(1, 8):
            table.append(table[i] << 1)
            table.append((table[i] << 1) ^ b)
        return table

    def mul(self, a: int, b: int) -> int:
        """Field multiplication."""
        if self._log is not None:
            return self._exp[self._log[a] + self._log[b]]
        if a == 0 or b == 0:
            return 0
        # Nibble-windowed carry-less multiply for large fields.
        table = self._window(b)
        result = 0
        shift = 0
        while a:
            nib = a & 0xF
            if nib:
                result ^= table[nib] << shift
            a >>= 4
            shift += 4
        return self._reduce(result)

    def sqr(self, a: int) -> int:
        """Field squaring (linear in characteristic 2; bit-spread then reduce)."""
        if self._log is not None:
            return self._exp[2 * self._log[a]]
        result = 0
        bit = 0
        while a:
            if a & 1:
                result ^= 1 << (2 * bit)
            a >>= 1
            bit += 1
        return self._reduce(result)

    def sqrt(self, a: int) -> int:
        """The unique square root: ``a^(2^(m-1))`` (Frobenius is a bijection)."""
        if self._log is not None:
            if a == 0:
                return 0
            half = self._log[a]
            return self._exp[(half + (self.order - 1 if half & 1 else 0)) >> 1]
        for _ in range(self.m - 1):
            a = self.sqr(a)
        return a

    def pow(self, a: int, e: int) -> int:
        """Field exponentiation by squaring."""
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.sqr(base)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises on zero."""
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(2^m)")
        if self._log is not None:
            return self._exp[(self.order - 1) - self._log[a]]
        # a^(2^m - 2) by square-and-multiply.
        return self.pow(a, self.order - 2)

    # ------------------------------------------------------ batched kernels

    def mul_batch(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        """Elementwise field products of two equal-length sequences.

        Vectorised through the log/exp tables on the fast path; otherwise a
        scalar loop with identical results.
        """
        tables = self._np_tables()
        if tables is None:
            mul = self.mul
            return [mul(x, y) for x, y in zip(a, b)]
        exp, log = tables
        av = _np.asarray(a, dtype=_np.uint32)
        bv = _np.asarray(b, dtype=_np.uint32)
        return exp[log[av] + log[bv]].tolist()

    def mul_scalar_batch(self, scalar: int, vec: Sequence[int]) -> List[int]:
        """``[scalar * v for v in vec]`` with the per-scalar setup hoisted.

        The row update of every polynomial routine below.  For table fields
        the scalar's log is looked up once; for larger fields the nibble
        window table of ``scalar`` is built once and reused across the
        whole vector instead of once per product.
        """
        if self._log is not None:
            exp, log = self._exp, self._log
            log_s = log[scalar]
            return [exp[log[v] + log_s] for v in vec]
        if scalar == 0:
            return [0] * len(vec)
        window = self._window(scalar)
        reduce = self._reduce
        out = []
        for v in vec:
            result = 0
            shift = 0
            while v:
                nib = v & 0xF
                if nib:
                    result ^= window[nib] << shift
                v >>= 4
                shift += 4
            out.append(reduce(result))
        return out

    def sqr_batch(self, a: Sequence[int]) -> List[int]:
        """Elementwise field squares of a sequence."""
        tables = self._np_tables()
        if tables is None:
            sqr = self.sqr
            return [sqr(x) for x in a]
        exp, log = tables
        return exp[2 * log[_np.asarray(a, dtype=_np.uint32)]].tolist()

    def dot(self, a: Sequence[int], b: Sequence[int]) -> int:
        """XOR-accumulated inner product ``a[0]b[0] ^ a[1]b[1] ^ ...``.

        The Berlekamp--Massey discrepancy is exactly this shape.
        """
        acc = 0
        if self._log is not None:
            exp, log = self._exp, self._log
            for x, y in zip(a, b):
                acc ^= exp[log[x] + log[y]]
            return acc
        mul = self.mul
        for x, y in zip(a, b):
            acc ^= mul(x, y)
        return acc

    def find_roots_scan(self, poly: Sequence[int]) -> Optional[List[int]]:
        """All distinct roots of ``poly`` by a vectorised full-field scan.

        A Chien search in the log domain: the polynomial is evaluated at
        every nonzero element ``g^i`` simultaneously, one table-gather pass
        per nonzero coefficient.  The exponent array ``(j * i) mod (q-1)``
        is maintained incrementally (add, conditional subtract), so the
        inner loop is four branch-free numpy passes and never needs
        zero-masking.  Only available for table fields (m <= 16) on the
        fast path; returns None otherwise so callers fall back to
        trace splitting.  Repeated roots are reported once, which
        matches the decoder's distinct-roots contract.
        """
        tables = self._np_tables()
        if tables is None:
            return None
        exp, log = tables
        p = self.poly_trim(list(poly))
        if not p or len(p) == 1:
            return []
        n = self.order - 1  # multiplicative group order
        ii = _np.arange(n, dtype=_np.int32)
        # acc[i] accumulates poly(g^i); jpow[i] tracks (j*i) mod n.
        acc = _np.full(n, p[0], dtype=_np.uint32)
        jpow = _np.zeros(n, dtype=_np.int32)
        idx = _np.empty(n, dtype=_np.int32)
        for coeff in p[1:]:
            jpow += ii
            _np.subtract(jpow, n, out=jpow, where=jpow >= n)
            if coeff:
                # exp is periodic on [0, 2n), so log[c] + jpow needs no
                # second reduction.
                _np.add(jpow, int(log[coeff]), out=idx)
                acc ^= exp[idx]
        root_exponents = _np.nonzero(acc == 0)[0]
        roots = exp[root_exponents].tolist()
        if p[0] == 0:
            roots.insert(0, 0)
        return roots

    def trace(self, a: int) -> int:
        """Absolute trace down to GF(2): sum of the m Frobenius conjugates."""
        total = 0
        term = a
        for _ in range(self.m):
            total ^= term
            term = self.sqr(term)
        return total

    def artin_schreier_solve(self, u: int) -> Optional[int]:
        """A solution ``y`` of ``y^2 + y = u``, or None when none exists.

        The map ``f(y) = y^2 + y`` is GF(2)-linear with image of dimension
        m-1 (exactly the trace-zero elements).  A row-reduced form of f is
        precomputed once per field, making each solve m XOR steps; used by
        the closed-form quadratic root finder in PinSketch decoding.
        """
        if self._as_rows is None:
            self._build_artin_schreier()
        rows = self._as_rows
        y = 0
        for pivot_bit, image, preimage in rows:
            if u & pivot_bit:
                u ^= image
                y ^= preimage
        return y if u == 0 else None

    _as_rows: Optional[List[Tuple[int, int, int]]] = None

    def _build_artin_schreier(self) -> None:
        """Row-reduce the basis images of ``y -> y^2 + y`` over GF(2)."""
        pairs = []
        for bit in range(self.m):
            basis = 1 << bit
            pairs.append((self.sqr(basis) ^ basis, basis))
        rows: List[Tuple[int, int, int]] = []
        for image, preimage in pairs:
            for pivot_bit, row_image, row_pre in rows:
                if image & pivot_bit:
                    image ^= row_image
                    preimage ^= row_pre
            if image:
                pivot = 1 << (image.bit_length() - 1)
                rows.append((pivot, image, preimage))
        rows.sort(key=lambda r: -r[0])
        self._as_rows = rows

    _basis_powers: Optional[Tuple[List[int], List[int], List[int]]] = None

    def solve_linearized_quartic(self, a: int, b: int, v: int) -> List[int]:
        """The four roots of ``z^4 + a z^2 + b z = v``, or ``[]``.

        ``L(z) = z^4 + a z^2 + b z`` is GF(2)-linear, so the equation is an
        m x m linear system over GF(2): the images of the basis elements
        ``1 << k`` (two hoisted scalar-vector products on the precomputed
        basis squares and fourth powers) are put in echelon form by their
        top bit, carrying preimages along.  The solutions are a coset of
        the kernel of ``L``; there are four distinct ones exactly when the
        kernel has dimension 2 (it cannot be larger) and ``v`` is in the
        image -- anything else returns ``[]``.  The closed form behind the
        cubic and quartic root finders of PinSketch decoding.
        """
        if b == 0:
            return []  # L(z) + v is a square: every root is repeated
        if self._basis_powers is None:
            basis = [1 << k for k in range(self.m)]
            squares = [self.sqr(e) for e in basis]
            self._basis_powers = (
                basis, squares, [self.sqr(s) for s in squares]
            )
        basis, squares, fourths = self._basis_powers
        images = map(
            _xor3, fourths,
            self.mul_scalar_batch(a, squares), self.mul_scalar_batch(b, basis),
        )
        pivots: List[Optional[Tuple[int, int]]] = [None] * (self.m + 1)
        kernel = []
        for image, preimage in zip(images, basis):
            while image:
                row = pivots[image.bit_length()]
                if row is None:
                    pivots[image.bit_length()] = (image, preimage)
                    break
                image ^= row[0]
                preimage ^= row[1]
            else:
                kernel.append(preimage)
        if len(kernel) != 2:
            return []
        z = 0
        while v:
            row = pivots[v.bit_length()]
            if row is None:
                return []
            v ^= row[0]
            z ^= row[1]
        k0, k1 = kernel
        return [z, z ^ k0, z ^ k1, z ^ k0 ^ k1]

    def div(self, a: int, b: int) -> int:
        """Field division ``a / b``."""
        return self.mul(a, self.inv(b))

    # ------------------------------------------------------- polynomial layer

    @staticmethod
    def poly_trim(p: List[int]) -> List[int]:
        """Drop trailing zero coefficients in place and return the list."""
        while p and p[-1] == 0:
            p.pop()
        return p

    def poly_add(self, p: Sequence[int], q: Sequence[int]) -> List[int]:
        """Polynomial addition (coefficient-wise XOR)."""
        if len(p) < len(q):
            p, q = q, p
        out = list(p)
        for i, coeff in enumerate(q):
            out[i] ^= coeff
        return self.poly_trim(out)

    def poly_mul(self, p: Sequence[int], q: Sequence[int]) -> List[int]:
        """Polynomial multiplication (schoolbook)."""
        if not p or not q:
            return []
        out = [0] * (len(p) + len(q) - 1)
        scale = self.mul_scalar_batch
        for i, a in enumerate(p):
            if a:
                out[i : i + len(q)] = map(_xor, out[i : i + len(q)], scale(a, q))
        return self.poly_trim(out)

    def poly_divmod(
        self, p: Sequence[int], q: Sequence[int]
    ) -> Tuple[List[int], List[int]]:
        """Quotient and remainder of ``p / q``; ``q`` must be nonzero.

        Each elimination step is one row update: the scalar-vector product
        ``factor * q`` (:meth:`mul_scalar_batch`, per-scalar work hoisted)
        XOR-ed into the remainder as a C-level sweep.
        """
        q = self.poly_trim(list(q))
        if not q:
            raise ZeroDivisionError("polynomial division by zero")
        rem = self.poly_trim(list(p))
        lead = q.pop()
        dq = len(q)
        inv_lead = self.inv(lead) if lead != 1 else 1
        mul = self.mul
        scale = self.mul_scalar_batch
        quotient = [0] * max(len(rem) - dq, 0)
        while len(rem) > dq:
            factor = rem.pop()
            if factor:
                if inv_lead != 1:
                    factor = mul(factor, inv_lead)
                shift = len(rem) - dq
                quotient[shift] = factor
                rem[shift:] = map(_xor, rem[shift:], scale(factor, q))
        return quotient, self.poly_trim(rem)

    def poly_mod(self, p: Sequence[int], q: Sequence[int]) -> List[int]:
        """Polynomial remainder ``p mod q``; ``q`` must be nonzero."""
        return self.poly_divmod(p, q)[1]

    def poly_gcd(self, p: Sequence[int], q: Sequence[int]) -> List[int]:
        """Monic polynomial greatest common divisor."""
        a, b = list(p), list(q)
        self.poly_trim(a)
        self.poly_trim(b)
        while b:
            a, b = b, self.poly_divmod(a, b)[1]
        return self.poly_monic(a)

    def poly_monic(self, p: Sequence[int]) -> List[int]:
        """Return the monic scalar multiple of ``p``."""
        p = self.poly_trim(list(p))
        if not p or p[-1] == 1:
            return p
        return self.mul_scalar_batch(self.inv(p[-1]), p)

    def poly_eval(self, p: Sequence[int], x: int) -> int:
        """Evaluate ``p`` at ``x`` with Horner's rule."""
        acc = 0
        mul = self.mul
        for coeff in reversed(p):
            acc = mul(acc, x) ^ coeff
        return acc

    #: Most candidates :func:`repro.sketch.pinsketch._find_roots` tests
    #: before it searches.  Measured on the numpy tower path (docs/sketch.md
    #: section 3.4): the test is linear in the candidate count, the search
    #: does not depend on it, and between 1,000 and 2,000 candidates the
    #: test costs what finding half of the roots by it saves.
    MAX_TESTED_CANDIDATES = 1024

    def roots_among(
        self, poly: Sequence[int], candidates: Sequence[int]
    ) -> List[int]:
        """The distinct ``candidates`` at which ``poly`` is zero, ascending.

        A *test*, not a search: ``deg poly`` multiplications per candidate
        (Horner), nothing that depends on the field's size.  A value is
        reported only if ``poly`` evaluates to zero at it, so whatever the
        candidates are the result is a subset of ``poly``'s roots.
        Candidates outside ``[1, 2^m)`` are no sketch elements and are
        ignored (never reduced into the field).
        """
        if len(poly) < 2:
            return []
        mask = self.mask
        evaluate = self.poly_eval
        return sorted({
            c for c in candidates
            if 0 < c <= mask and evaluate(poly, c) == 0
        })

    def poly_deflate(self, p: Sequence[int], roots: Sequence[int]) -> List[int]:
        """``p / prod (x - r)`` over distinct roots ``r`` of ``p``, exactly.

        One synthetic division per root (``deg p`` multiplications each).
        Every remainder is ``p(r) == 0`` for distinct roots, so the
        quotient is exact; a value that is no root (or a repeat the
        quotient no longer vanishes at) raises :class:`ArithmeticError`.
        """
        quotient = list(p)
        mul = self.mul
        for r in roots:
            acc = 0
            for i in range(len(quotient) - 1, -1, -1):
                acc = quotient[i] ^ mul(acc, r)
                quotient[i] = acc
            if acc:
                raise ArithmeticError(f"{r} is not a root: remainder {acc}")
            del quotient[0]  # slot 0 held the remainder
        return quotient

    # -------------------------------------------------------- Frobenius chain

    _conjugates: Optional[Dict[int, List[int]]] = None

    def basis_conjugates(self, bit: int) -> List[int]:
        """``[beta^(2^i) for i < m]`` for ``beta = 1 << bit``, cached per field."""
        if self._conjugates is None:
            self._conjugates = {}
        conjugates = self._conjugates.get(bit)
        if conjugates is None:
            conjugates = [1 << bit]
            for _ in range(self.m - 1):
                conjugates.append(self.sqr(conjugates[-1]))
            self._conjugates[bit] = conjugates
        return conjugates

    def frobenius_chain(self, q: Sequence[int]) -> "FrobeniusChain":
        """The chain ``x^(2^i) mod q`` (``i <= m``) of a monic ``q``."""
        return FrobeniusChain(self, q)


def _xor3(a: int, b: int, c: int) -> int:
    return a ^ b ^ c


def _square_table(field: GF2m, q: Sequence[int]) -> List[List[int]]:
    """Rows ``x^(2j) mod q`` for ``j < deg q`` (``q`` monic).

    Squaring a polynomial is GF(2)-linear in characteristic 2 --
    ``(sum f_j x^j)^2 = sum f_j^2 x^(2j)`` -- so these rows turn every
    modular squaring into a matrix-vector product.  Only the rows with
    ``2j >= deg q`` need any reduction (two multiply-by-x steps each).
    """
    degree = len(q) - 1
    low = list(q[:-1])
    scale = field.mul_scalar_batch
    power = [1] + [0] * (degree - 1)
    rows = [power]
    for _ in range(2 * (degree - 1)):
        lead = power[-1]
        power = [0] + power[:-1]
        if lead:
            power = list(map(_xor, power, scale(lead, low)))
        rows.append(power)
    return rows[::2]


class FrobeniusChain:
    """``F_i = x^(2^i) mod q`` for ``i <= m``, computed once per locator.

    Everything root finding needs from the m modular squarings comes from
    this one chain:

    * ``splits``: ``F_m == x`` exactly when ``q`` divides ``x^(2^m) - x``,
      i.e. when ``q`` is a product of *distinct* linear factors -- a
      complete test that rejects over-capacity locators after one chain.
    * :meth:`trace`: ``Tr(beta x) mod q = sum_i beta^(2^i) F_i``, the
      Berlekamp trace-splitting polynomial for any ``beta``; factors of
      ``q`` reduce this one polynomial modulo themselves instead of running
      their own chain.

    ``q`` must be monic of degree >= 2.  This is the field-generic scalar
    implementation (one hoisted row update per coefficient and step);
    :class:`GF2Tower32` swaps in whole-array numpy steps when it pays.
    """

    def __init__(self, field: GF2m, q: Sequence[int]):
        self.field = field
        degree = len(q) - 1
        rows = _square_table(field, q)
        plain = (degree + 1) // 2  # rows[j] is the monomial x^(2j) below this
        sqr = field.sqr
        scale = field.mul_scalar_batch
        term = [0, 1] + [0] * (degree - 2)
        self._chain = [term]
        for _ in range(field.m):
            acc = [0] * degree
            for j in range(plain):
                acc[2 * j] = sqr(term[j])
            for j in range(plain, degree):
                if term[j]:
                    acc = list(map(_xor, acc, scale(sqr(term[j]), rows[j])))
            self._chain.append(acc)
            term = acc
        self.splits = term == self._chain[0]

    def trace(self, bit: int) -> List[int]:
        """``Tr((1 << bit) * x) mod q``, trimmed."""
        field = self.field
        scale = field.mul_scalar_batch
        total = [0] * len(self._chain[0])
        for conjugate, term in zip(field.basis_conjugates(bit), self._chain):
            if conjugate != 1:
                term = scale(conjugate, term)
            total = list(map(_xor, total, term))
        return field.poly_trim(total)


class GF2Tower32(GF2m):
    """GF(2^32) as the tower GF((2^16)^2): fast pure-Python arithmetic.

    Elements are 32-bit ints ``(hi << 16) | lo`` representing ``hi*y + lo``
    in GF(2^16)[y] / (y^2 + y + c), with ``c`` chosen so the quadratic is
    irreducible (trace of c over GF(2) equals 1).  Multiplication becomes
    three-and-a-bit GF(2^16) table multiplications (Karatsuba), roughly an
    order of magnitude faster than windowed carry-less multiplication --
    the same trick libminisketch uses with CPU-specific field backends.

    The tower field is isomorphic to, but not identical with, the
    polynomial-basis GF(2^32); sketches must be built and decoded with the
    same representation on both sides, which holds process-wide via
    :func:`default_field`.

    Every kernel works in the log domain of the subfield's sentinel tables
    (see :meth:`GF2m._build_tables`): a subfield product is three
    branch-free lookups, and the kernels with one fixed operand
    (:meth:`mul_scalar_batch`, the chain) look its logs up once.  On the
    fast path the batched kernels run the same lookups as whole-array
    numpy gathers.
    """

    #: Shortest vector for which one numpy pass beats the scalar row update.
    _NUMPY_ROW = 48
    #: Lowest locator degree whose Frobenius chain runs as numpy steps.
    _NUMPY_CHAIN = 5

    def __init__(self):
        # Intentionally no super().__init__: the base attributes are set up
        # manually around the GF(2^16) subfield.
        self.m = 32
        self.order = 1 << 32
        self.mask = self.order - 1
        self.modulus = 0  # not meaningful in tower representation
        self.sub = GF2m(16)
        if self.sub._log is None:  # pragma: no cover - defensive
            raise RuntimeError("GF(2^16) tables unavailable")
        self._log = None
        self._exp = None
        self._reduce_table = None
        self._sub_exp = self.sub._exp
        self._sub_log = self.sub._log
        # y^2 + y + c must be irreducible over GF(2^16), which holds exactly
        # when the GF(2)-trace of c is 1.  The trace is GF(2)-linear, so the
        # smallest such c is the lowest basis element with trace 1.
        self.QUAD_C = next(
            1 << k for k in range(16) if self._subfield_trace(1 << k) == 1
        )
        self._log_c = self._sub_log[self.QUAD_C]

    def _subfield_trace(self, value: int) -> int:
        """Trace of a GF(2^16) element down to GF(2)."""
        return self.sub.trace(value)

    def mul(self, a: int, b: int) -> int:
        """Tower-field multiplication (Karatsuba over GF(2^16))."""
        exp, log = self._sub_exp, self._sub_log
        a1, a0 = a >> 16, a & 0xFFFF
        b1, b0 = b >> 16, b & 0xFFFF
        m0 = exp[log[a0] + log[b0]]
        # hi = (a1 b0 + a0 b1) + a1 b1, lo = a0 b0 + c a1 b1
        return ((exp[log[a1 ^ a0] + log[b1 ^ b0]] ^ m0) << 16) | (
            m0 ^ exp[log[exp[log[a1] + log[b1]]] + self._log_c]
        )

    def sqr(self, a: int) -> int:
        """Tower-field squaring (two subfield squares + one constant mul)."""
        exp, log = self._sub_exp, self._sub_log
        s1 = exp[2 * log[a >> 16]]
        return (s1 << 16) | (
            exp[2 * log[a & 0xFFFF]] ^ exp[log[s1] + self._log_c]
        )

    def sqrt(self, a: int) -> int:
        """Tower-field square root (the inverse of :meth:`sqr`)."""
        sub = self.sub
        a1 = a >> 16
        return (sub.sqrt(a1) << 16) | sub.sqrt(
            (a & 0xFFFF) ^ sub.mul(a1, self.QUAD_C)
        )

    def inv(self, a: int) -> int:
        """Tower-field inverse via the GF(2^16) norm; raises on zero."""
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(2^32)")
        exp, log = self._sub_exp, self._sub_log
        a1, a0 = a >> 16, a & 0xFFFF
        l1, l0 = log[a1], log[a0]
        # Norm over GF(2^16): a0^2 + a0*a1 + c*a1^2 (never zero for a != 0).
        norm = exp[2 * l0] ^ exp[l0 + l1] ^ exp[log[exp[2 * l1]] + self._log_c]
        log_inv = 0xFFFF - log[norm]
        # inverse = conjugate(a) / norm, conj(a) = a1*y + (a0 + a1).
        return (exp[l1 + log_inv] << 16) | exp[log[a0 ^ a1] + log_inv]

    # ------------------------------------------------------ batched kernels

    def mul_batch(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        """Elementwise tower products of two equal-length sequences."""
        tables = self.sub._np_tables()
        if tables is None:
            mul = self.mul
            return [mul(x, y) for x, y in zip(a, b)]
        exp, log = tables
        av = _np.asarray(a, dtype=_np.uint32)
        bv = _np.asarray(b, dtype=_np.uint32)
        a1, a0 = av >> 16, av & 0xFFFF
        b1, b0 = bv >> 16, bv & 0xFFFF
        m0 = exp[log[a0] + log[b0]]
        hi = exp[log[a1 ^ a0] + log[b1 ^ b0]] ^ m0
        lo = m0 ^ exp[log[exp[log[a1] + log[b1]]] + self._log_c]
        return ((hi << 16) | lo).tolist()

    def mul_scalar_batch(self, scalar: int, vec: Sequence[int]) -> List[int]:
        """``[scalar * v for v in vec]`` with the scalar's logs hoisted."""
        l1 = self._sub_log[scalar >> 16]
        l0 = self._sub_log[scalar & 0xFFFF]
        lx = self._sub_log[(scalar >> 16) ^ (scalar & 0xFFFF)]
        lc = self._log_c
        if len(vec) >= self._NUMPY_ROW and fast_path_active():
            exp, log = self.sub._np_tables()
            vv = _np.asarray(vec, dtype=_np.uint32)
            v1, v0 = vv >> 16, vv & 0xFFFF
            m0 = exp[log[v0] + l0]
            hi = exp[log[v1 ^ v0] + lx] ^ m0
            lo = m0 ^ exp[log[exp[log[v1] + l1]] + lc]
            return ((hi << 16) | lo).tolist()
        exp, log = self._sub_exp, self._sub_log
        out = []
        append = out.append
        for v in vec:
            v1 = v >> 16
            v0 = v & 0xFFFF
            m0 = exp[log[v0] + l0]
            append(
                ((exp[log[v1 ^ v0] + lx] ^ m0) << 16)
                | (m0 ^ exp[log[exp[log[v1] + l1]] + lc])
            )
        return out

    def sqr_batch(self, a: Sequence[int]) -> List[int]:
        """Elementwise tower squares of a sequence."""
        tables = self.sub._np_tables()
        if tables is None:
            sqr = self.sqr
            return [sqr(x) for x in a]
        exp, log = tables
        av = _np.asarray(a, dtype=_np.uint32)
        s1 = exp[2 * log[av >> 16]]
        lo = exp[2 * log[av & 0xFFFF]] ^ exp[log[s1] + self._log_c]
        return ((s1 << 16) | lo).tolist()

    def dot(self, a: Sequence[int], b: Sequence[int]) -> int:
        """XOR-accumulated inner product over the tower field.

        The three Karatsuba partial products are accumulated separately
        (they are linear), so the constant multiplication and the
        recombination happen once per call instead of once per term.
        """
        exp, log = self._sub_exp, self._sub_log
        acc1 = acc0 = accx = 0
        for x, y in zip(a, b):
            x1 = x >> 16
            x0 = x & 0xFFFF
            y1 = y >> 16
            y0 = y & 0xFFFF
            acc1 ^= exp[log[x1] + log[y1]]
            acc0 ^= exp[log[x0] + log[y0]]
            accx ^= exp[log[x1 ^ x0] + log[y1 ^ y0]]
        return ((accx ^ acc0) << 16) | (
            acc0 ^ exp[log[acc1] + self._log_c]
        )

    def roots_among(
        self, poly: Sequence[int], candidates: Sequence[int]
    ) -> List[int]:
        """:meth:`GF2m.roots_among` as one Horner sweep over all candidates.

        The candidates' three subfield logs (hi, lo, hi ^ lo) are looked
        up once; each coefficient is then one whole-array tower
        multiply-add with the accumulator kept split in its subfield
        halves.  Out-of-range candidates are dropped as Python ints,
        before anything is narrowed to ``uint32``.
        """
        tables = self.sub._np_tables()
        if tables is None:
            return super().roots_among(poly, candidates)
        mask = self.mask
        values = _np.array(
            [c for c in candidates if 0 < c <= mask], dtype=_np.uint32
        )
        if not values.size or len(poly) < 2:
            return []
        exp, log = tables
        lc = self._log_c
        x1, x0 = values >> 16, values & 0xFFFF
        l1, l0, lx = log[x1], log[x0], log[x1 ^ x0]
        lead = poly[-1]
        a1 = _np.full(values.size, lead >> 16, dtype=_np.uint32)
        a0 = _np.full(values.size, lead & 0xFFFF, dtype=_np.uint32)
        for coeff in reversed(poly[:-1]):
            m0 = exp[log[a0] + l0]
            hi = exp[log[a1 ^ a0] + lx] ^ m0
            a0 = m0 ^ exp[log[exp[log[a1] + l1]] + lc] ^ (coeff & 0xFFFF)
            a1 = hi ^ (coeff >> 16)
        return sorted(set(values[(a1 | a0) == 0].tolist()))

    def frobenius_chain(self, q: Sequence[int]):
        """The chain of ``q``: numpy steps when they pay, else the generic one."""
        if len(q) > self._NUMPY_CHAIN and fast_path_active():
            return _TowerChain(self, q)
        return FrobeniusChain(self, q)


class _TowerChain:
    """:class:`FrobeniusChain` over the tower field as whole-array numpy steps.

    A chain entry is stored split, ``[hi coefficients | lo coefficients]``
    (subfield elements, ``2d`` of them).  Squaring a tower element
    ``f1 y + f0`` gives ``f1^2 (y + c) + f0^2``, so with the rows
    ``T_j = x^(2j) mod q`` of :func:`_square_table`

        ``F_(i+1) = sum_j  f1_j^2 * ((y + c) T_j)  +  f0_j^2 * T_j``

    -- subfield scalars times tower rows, i.e. plain subfield products.
    The logs of ``(y + c) T_j`` and ``T_j`` are fixed for the whole chain
    (a ``2d x 2d`` matrix looked up once); one step is then the logs of the
    ``2d`` squares, one broadcast add, one gather and one XOR reduction.
    Results are bit-identical with the generic chain.
    """

    def __init__(self, field: "GF2Tower32", q: Sequence[int]):
        self.field = field
        exp, log = field.sub._np_tables()
        lc = field._log_c
        m = field.m
        self.degree = degree = len(q) - 1
        table = _np.array(_square_table(field, q), dtype=_np.uint32)
        t1, t0 = table >> 16, table & 0xFFFF
        ts = t1 ^ t0
        logs = _np.empty((2, degree, 2, degree), dtype=_np.int32)
        logs[0, :, 0] = log[ts ^ exp[log[t1] + lc]]  # (y + c) T_j, hi part
        logs[0, :, 1] = log[exp[log[ts] + lc]]       # (y + c) T_j, lo part
        logs[1, :, 0] = log[t1]
        logs[1, :, 1] = log[t0]
        logs = logs.reshape(2 * degree, 2 * degree)
        chain = _np.zeros((m + 1, 2 * degree), dtype=_np.uint32)
        chain[0, degree + 1] = 1  # the polynomial x
        reduce = _np.bitwise_xor.reduce
        for i in range(m):
            squares = log[exp[2 * log[chain[i]]]]
            reduce(exp[squares[:, None] + logs], axis=0, out=chain[i + 1])
        self._chain = chain
        self.splits = bool((chain[m] == chain[0]).all())
        self._traces: List[List[int]] = []
        self._chain_logs = None

    def _polys(self, split) -> List[List[int]]:
        """Rows of ``[hi | lo]`` arrays as trimmed coefficient lists."""
        degree = self.degree
        joined = (split[:, :degree] << 16) | split[:, degree:]
        trim = self.field.poly_trim
        return [trim(row) for row in joined.tolist()]

    def trace(self, bit: int) -> List[int]:
        """``Tr((1 << bit) * x) mod q``, trimmed.

        ``beta = 1`` is a plain XOR of the chain; further betas are
        computed four at a time as one batched tower product
        ``sum_i beta^(2^i) F_i`` against the chain's logs.
        """
        traces = self._traces
        while bit >= len(traces):
            traces.extend(self._more_traces(len(traces)))
        return traces[bit]

    def _more_traces(self, first: int) -> List[List[int]]:
        field = self.field
        m = field.m
        degree = self.degree
        reduce = _np.bitwise_xor.reduce
        chain = self._chain[:m]
        if first == 0:
            return self._polys(reduce(chain, axis=0)[None, :])
        exp, log = field.sub._np_tables()
        if self._chain_logs is None:
            f1, f0 = chain[:, :degree], chain[:, degree:]
            self._chain_logs = (log[f1], log[f0], log[f1 ^ f0])
        lf1, lf0, lfx = self._chain_logs
        betas = _np.array(
            [field.basis_conjugates(b) for b in range(first, min(first + 4, m))],
            dtype=_np.uint32,
        )
        b1, b0 = betas >> 16, betas & 0xFFFF
        m1 = reduce(exp[log[b1][:, :, None] + lf1], axis=1)
        m0 = reduce(exp[log[b0][:, :, None] + lf0], axis=1)
        mx = reduce(exp[log[b1 ^ b0][:, :, None] + lfx], axis=1)
        lo = m0 ^ exp[log[m1] + field._log_c]
        return self._polys(_np.concatenate((mx ^ m0, lo), axis=1))


# Field instances shared per (m, modulus); see default_field.
_FIELDS: Dict[Tuple[int, Optional[int]], GF2m] = {}


def default_field(m: int = 32, modulus: Optional[int] = None) -> GF2m:
    """Shared per-process field instances (table construction is amortised).

    ``m == 32`` with the default modulus returns the fast tower-field
    implementation; other sizes use the generic polynomial-basis field.
    Explicit-modulus fields are cached too, keyed by ``(m, modulus)``, so
    partitioned sketches over a custom modulus share one table set instead
    of rebuilding log/exp tables per instance.
    """
    key = (m, modulus)
    field = _FIELDS.get(key)
    if field is None:
        if modulus is None:
            field = GF2Tower32() if m == 32 else GF2m(m)
        else:
            field = GF2m(m, modulus)
        _FIELDS[key] = field
    return field
