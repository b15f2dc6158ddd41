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
fixed operand up once per call.  The tower field GF((2^16)^2) inlines the
same lookups on its subfield's tables.

Every routine here is scalar Python on ints, one implementation per field
class: the polynomial layer, Berlekamp--Massey and the Frobenius chain are
written once on :class:`GF2m` and run on the tower through its ``mul``,
``sqr``, ``inv`` and ``mul_scalar_batch``.  ``python -m lobench`` measures
what they cost end to end.
"""

from __future__ import annotations

from operator import xor as _xor
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


def fast_path_active() -> bool:
    """Always ``False``: there is one scalar implementation per field.

    Kept because benchmark records still report it; nothing in the
    library calls it.
    """
    return False


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

    # ------------------------------------------------------ Berlekamp--Massey

    def berlekamp_massey(
        self, odd_syndromes: Iterable[int]
    ) -> Iterator[Tuple[int, List[int]]]:
        """Online Berlekamp--Massey over the stored (odd) syndromes.

        Consumes ``s_1, s_3, s_5, ...`` and, after each, yields ``(L, C)``:
        the length and the connection polynomial (``C[0] == 1``, trailing
        zeros trimmed) of the minimal LFSR generating ``s_1 .. s_2k`` for
        the ``k`` stored syndromes consumed so far.  The last pair is the
        error locator of the whole sketch; its degree is the number of
        difference elements when decoding succeeds.  A yielded list is
        never mutated afterwards.

        The even syndromes are never stored: ``s_2k = s_k^2`` in
        characteristic 2, so they are squared into the window as the
        recurrence reaches them, and the discrepancy at every even
        syndrome is identically zero (the classical binary-BCH
        simplification), so those steps need no inner product -- the LFSR
        is merely shifted.  The window holds the syndromes newest first,
        the one being consumed included, so the discrepancy is the inner
        product of the whole of ``C`` (``C[0] == 1``) with it.  The same
        loop serves every field class, the tower included.
        """
        current: List[int] = [1]
        previous: List[int] = [1]
        length = 0
        shift = 1
        prev_discrepancy = 1
        window: List[int] = []  # s_n, s_(n-1), ..., s_1: newest first
        mul, inv, sqr = self.mul, self.inv, self.sqr
        scale = self.mul_scalar_batch
        for k, s_odd in enumerate(odd_syndromes):
            if k:
                window.insert(0, sqr(window[k - 1]))  # s_2k = s_k^2
            window.insert(0, s_odd)
            discrepancy = 0
            for c, s in zip(current, window):
                discrepancy ^= mul(c, s)
            if discrepancy:
                update = scale(mul(discrepancy, inv(prev_discrepancy)),
                               previous)
                grown = current + [0] * (shift + len(update) - len(current))
                grown[shift : shift + len(update)] = map(
                    _xor, grown[shift:], update
                )
                if length <= k:  # 2L <= n for the n = 2k syndromes before
                    previous = current
                    length = 2 * k + 1 - length
                    prev_discrepancy = discrepancy
                    shift = 0
                current = grown
            shift += 2  # this step and the zero-discrepancy even step after
            while current[-1] == 0:
                current.pop()
            yield length, current

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

    ``q`` must be monic of degree >= 2.  One hoisted row update per
    coefficient and step, on every field class.
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
    (:meth:`mul_scalar_batch`) look its logs up once.  Berlekamp--Massey,
    the polynomial layer and the Frobenius chain are :class:`GF2m`'s, run
    on these kernels.
    """

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

    def mul_scalar_batch(self, scalar: int, vec: Sequence[int]) -> List[int]:
        """``[scalar * v for v in vec]`` with the scalar's logs hoisted."""
        l1 = self._sub_log[scalar >> 16]
        l0 = self._sub_log[scalar & 0xFFFF]
        lx = self._sub_log[(scalar >> 16) ^ (scalar & 0xFFFF)]
        lc = self._log_c
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
