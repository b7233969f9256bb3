"""Exact dense polynomial arithmetic over the integers.

Three small value types used everywhere else in the package:

* ``LaurentPoly`` -- Laurent polynomials in q, ``BiPoly`` in two
  commuting variables (integer exponents of either sign, integer
  coefficients).
* ``RatFunc``     -- a quotient of two Laurent polynomials: a value
  compared by cross multiplication, never reduced, with no arithmetic.

The polynomials met here are short and have no gaps, so both kinds are
dense.  A ``LaurentPoly`` is q^lo times a tuple of coefficients whose
first and last entries are nonzero (the empty tuple is zero).  A
``BiPoly`` is r^i s^j times rows, row k the coefficient of r^k as such
a tuple in s, every row read from the one s-offset j.  A product with a
one-term operand moves the offsets and shares the tuples; sums add
tuples in a C-level ``map`` (``_row_add``); other products are
schoolbook convolutions, row by row for a ``BiPoly``.  Recurrences with
nonnegative coefficients can instead run on packed integers, each
polynomial evaluated at q = 256^w, w bytes per coefficient
(``slot_width``), and build one ``LaurentPoly`` at the end (``unpack``);
``unpack_bi`` does the same for a ``BiPoly`` at s = 256^w, r = 256^(w k),
k above every s-degree (``stern.bi_stride``), one row per k slots.
Packing is the caller's: each packed value is built by the recurrence
or tally that owns it, and this module only decodes.
``RatFunc`` equality short-circuits equal shapes and otherwise compares
the two cross products.

All arithmetic is exact; there is no floating point anywhere.
Instances are immutable by convention: every operation returns a fresh
object or one of its operands, and nothing mutates the stored tuples.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from itertools import repeat
from operator import add, itemgetter

def _render(terms, var) -> str:
    """The fixed wire format shared by both polynomial types: terms in
    the given order joined by " + " (" - " and the absolute value for
    negative coefficients), a coefficient of 1 elided except on the
    constant term, which is the bare coefficient.  ``var(key)`` renders
    the variables of one term, "" for a constant."""
    parts: list[str] = []
    for key, c in terms:
        v = var(key)
        a = abs(c)
        body = v if a == 1 and v else f"{a}{v}"
        if parts:
            parts.append((" + " if c > 0 else " - ") + body)
        else:
            parts.append(body if c > 0 else "-" + body)
    return "".join(parts) or "0"


def _q_var(e: int) -> str:
    return "" if e == 0 else "q" if e == 1 else f"q^{e}"


def _dense(lo: int, c: tuple[int, ...]) -> "LaurentPoly":
    """q^lo * (c[0] + c[1] q + ...), with c already trimmed."""
    p = object.__new__(LaurentPoly)
    p._lo, p._c = lo, c
    return p


def _trimmed(lo: int, c: tuple[int, ...]) -> "LaurentPoly":
    """Like ``_dense``, dropping zero coefficients at either end."""
    i, j = 0, len(c)
    while i < j and not c[i]:
        i += 1
    if i == j:
        return ZERO
    while not c[j - 1]:
        j -= 1
    return _dense(lo + i, c[i:j])


def _convolve(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Schoolbook product of two coefficient tuples."""
    if len(a) > len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return tuple(out)


def _rstrip(c: tuple) -> tuple:
    """c without its trailing zeros."""
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return c[:n]


def _row_add(x: tuple, y: tuple) -> tuple:
    """x + y read from one offset, with no trailing zero if neither had one."""
    c, d = tuple(map(add, x, y)), len(x) - len(y)
    return c + (x[-d:] if d > 0 else y[d:]) if d else _rstrip(c)


class LaurentPoly:
    """A Laurent polynomial in one variable q, stored as q^lo * (c_0, c_1, ...),
    built from a {exponent: coeff} mapping; zero coefficients are dropped."""

    __slots__ = ("_lo", "_c")

    def __init__(self, terms: Mapping[int, int] | None = None):
        nz = {e: c for e, c in (terms or {}).items() if c}
        lo = min(nz, default=0)
        self._lo, self._c = lo, tuple([nz.get(e, 0) for e in range(lo, max(nz, default=-1) + 1)])

    @property
    def is_zero(self) -> bool:
        return not self._c

    def terms(self) -> list[tuple[int, int]]:
        """Sorted (exponent, coefficient) pairs."""
        return [(e, c) for e, c in enumerate(self._c, self._lo) if c]

    def coeff(self, exp: int) -> int:
        i = exp - self._lo
        return self._c[i] if 0 <= i < len(self._c) else 0

    @property
    def min_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no minimum exponent")
        return self._lo

    @property
    def max_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no maximum exponent")
        return self._lo + len(self._c) - 1

    @property
    def eval_at_one(self) -> int:
        """The integer shadow q = 1."""
        return sum(self._c)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        lo = min(self._lo, other._lo)
        return _trimmed(lo, _row_add((0,) * (self._lo - lo) + self._c,
                                     (0,) * (other._lo - lo) + other._c))

    def __neg__(self) -> "LaurentPoly":
        return _dense(self._lo, tuple(map(int.__neg__, self._c)))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other) if isinstance(other, LaurentPoly) else NotImplemented

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._c, other._c
        if not a or not b:
            return ZERO
        lo = self._lo + other._lo
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            k = b[0]
            return _dense(lo, a if k == 1 else tuple(map(k.__mul__, a)))
        # the end coefficients multiply to nonzero ends: no trimming
        return _dense(lo, _convolve(a, b))

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q^k."""
        return _dense(self._lo + k, self._c) if self._c else ZERO

    def reverse_var(self) -> "LaurentPoly":
        """Substitute q -> q^-1."""
        return _dense(1 - self._lo - len(self._c), self._c[::-1]) if self._c else ZERO

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._lo == other._lo and self._c == other._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def text(self) -> str:
        """The ``_render`` format: increasing exponents, exponent 1 as
        "q", anything else but 0 as "q^e"."""
        return _render(self.terms(), _q_var)

    __str__ = text

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self.terms())!r})"


ZERO = _dense(0, ())
ONE = _dense(0, (1,))
#: the variable q itself
Q = _dense(1, (1,))


def qint(a: int) -> LaurentPoly:
    """The q-integer [a]_q = 1 + q + ... + q^(a-1); [0]_q = 0."""
    if a < 0:
        raise ValueError("q-integer needs a >= 0")
    return _dense(0, (1,) * a) if a else ZERO


def qpow(e: int) -> LaurentPoly:
    """The monomial q^e (e may be negative)."""
    return _dense(e, (1,))


def slot_width(bound: int) -> int:
    """The fewest bytes w with 256^w > bound, at least one.  A polynomial
    with nonnegative coefficients and value at most ``bound`` at q = 1
    has every coefficient below 256^w, so its value at q = 256^w keeps
    each coefficient in its own w-byte slot, and so does every sum and
    product whose value at q = 1 stays within ``bound``."""
    return max(1, (bound.bit_length() + 7) >> 3)


#: memoryview formats of the slot widths that are native
#: integer types; a cast reads the slots of a little-endian ``to_bytes``
#: in order only on a little-endian host, so elsewhere no width has one
_NATIVE_SLOTS = {1: "B", 2: "H", 4: "I", 8: "Q"} if sys.byteorder == "little" else {}


def unpack(v: int, w: int, lo: int = 0) -> LaurentPoly:
    """q^lo * (c_0 + c_1 q + ...) from v = c_0 + c_1 256^w + ..., each
    0 <= c_i < 256^w: the packed value turned back into a trimmed
    ``LaurentPoly``.  The coefficients come from one little-endian
    ``to_bytes`` read as fixed-width slots: a native memoryview cast
    when ``_NATIVE_SLOTS`` has w, ``int.from_bytes`` slices otherwise."""
    if not v:
        return ZERO
    bits = 8 * w
    low = ((v & -v).bit_length() - 1) // bits  # zero slots at the bottom
    v >>= low * bits
    size = -(-v.bit_length() // bits) * w
    b = v.to_bytes(size, "little")
    fmt = _NATIVE_SLOTS.get(w)
    c = tuple(memoryview(b).cast(fmt) if fmt else map(
        int.from_bytes, map(b.__getitem__, map(slice, range(0, size, w), range(w, size + w, w))),
        repeat("little")))
    return _dense(lo + low, c)


def _bi(i: int, j: int, rows: tuple) -> "BiPoly":
    """r^i s^j * (rows[0] + rows[1] r + ...), rows already canonical."""
    p = object.__new__(BiPoly)
    p._i, p._j, p._rows = i, j, rows
    return p


def _canon(i: int, j: int, rows: tuple) -> "BiPoly":
    """``_bi`` for rows that end nonzero or are empty: empty rows at
    either end dropped, and the zeros that start every row moved to j."""
    lo, hi = 0, len(rows)
    while lo < hi and not rows[lo]:
        lo += 1
    if lo == hi:
        return _bi(0, 0, ())
    while not rows[hi - 1]:
        hi -= 1
    rows = rows[lo:hi]
    if not any(map(itemgetter(0), filter(None, rows))):
        m = min(next(e for e, c in enumerate(r) if c) for r in rows if r)
        rows, j = tuple(r[m:] for r in rows), j + m
    return _bi(i + lo, j, rows)


class BiPoly:
    """A polynomial in two commuting variables r, s, stored as r^i s^j
    (row_0 + row_1 r + ...), row k the dense tuple of coefficients of
    s^0, s^1, ... in the coefficient of r^k.  Exponents are integers of
    either sign.  The form is canonical (no row ends in 0, the first and
    last rows are nonzero, some row starts nonzero), so equality
    compares (i, j, rows).  The names r, s only matter for rendering."""

    __slots__ = ("_i", "_j", "_rows")

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        nz = terms or {}
        if not all(nz.values()):
            nz = {p: c for p, c in nz.items() if c}
        es, js = zip(*nz) if nz else ((0,), (0,))
        i0, j0, k = min(es), min(js), max(js) + 1 - min(js)
        flat = [0] * ((max(es) + 1 - i0) * k if nz else 0)
        for (i, j), c in nz.items():
            flat[(i - i0) * k + j - j0] = c
        rows = zip(*[iter(flat)] * k)  # k slots each, trailing zeros dropped below
        self._i, self._j, self._rows = i0, j0, tuple([r if r[-1] else _rstrip(r) for r in rows])

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def one(cls) -> "BiPoly":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, coeff: int = 1, e1: int = 0, e2: int = 0) -> "BiPoly":
        return cls({(e1, e2): coeff})

    @property
    def is_zero(self) -> bool:
        return not self._rows

    def terms(self) -> list[tuple[tuple[int, int], int]]:
        """((e1, e2), coeff) pairs in lexicographic order."""
        return [((i, j), c) for i, row in enumerate(self._rows, self._i)
                for j, c in enumerate(row, self._j) if c]

    def __add__(self, other: "BiPoly") -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        a, b = (self, other) if self._i <= other._i else (other, self)
        ra, rb, j = a._rows, b._rows, min(a._j, b._j)
        if a._j != b._j:  # read every row from the lower s-offset
            ra, rb = (tuple((0,) * (x._j - j) + r if r else r for r in x._rows) for x in (a, b))
        off = b._i - a._i
        ra += ((),) * (off + len(rb) - len(ra))  # pad ra to cover rb
        return _canon(a._i, j, ra[:off] + tuple(map(_row_add, ra[off:], rb)) + ra[off + len(rb):])

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        x, y = (other, self) if len(self._rows) == 1 and len(self._rows[0]) == 1 else (self, other)
        a, b = x._rows, y._rows
        if not a or not b:
            return _bi(0, 0, ())
        i, j = x._i + y._i, x._j + y._j
        if len(b) == 1 and len(b[0]) == 1:  # a monomial moves the offsets
            (k,), = b
            if k == 1:
                return _bi(i, j, a) if y._i or y._j else x
            return _bi(i, j, tuple(tuple(map(k.__mul__, r)) for r in a))
        out = [()] * (len(a) + len(b) - 1)
        for e, r in enumerate(a):
            for f, t in enumerate(b, e):
                if r and t:
                    out[f] = _row_add(out[f], _convolve(r, t))
        return _canon(i, j, tuple(out))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self._i == other._i and self._j == other._j and self._rows == other._rows

    def __bool__(self) -> bool:
        return bool(self._rows)

    def specialize(self, w1: int, w2: int) -> LaurentPoly:
        """Map each variable to a power of q, term by term:
        (e1, e2) -> q^(e1*w1 + e2*w2)."""
        return sum((_dense(e1 * w1 + e2 * w2, (c,)) for (e1, e2), c in self.terms()), ZERO)

    @property
    def eval_at_one(self) -> int:
        return sum(map(sum, self._rows))

    def text(self, names: tuple[str, str] = ("r", "s")) -> str:
        """Terms in lexicographic (e1, e2) order, e.g. "s + r" or "1 + r s^2"."""
        return _render(self.terms(), lambda exps: " ".join(
            name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e))

    __str__ = text

    def __repr__(self) -> str:
        return f"BiPoly({dict(self.terms())!r})"


def unpack_bi(v: int, w: int, k: int) -> BiPoly:
    """The ``BiPoly`` whose value at s = X = 256^w, r = X^k is v, each
    slot below X and k above every s-degree: r^i s^j read from slot
    i k + j, one row per k slots."""
    p = unpack(v, w)
    i, lo = divmod(p._lo, k)
    c = (0,) * lo + p._c
    return _canon(i, 0, tuple(_rstrip(c[e:e + k]) for e in range(0, len(c), k)))


class RatFunc:
    """A quotient num/den of Laurent polynomials, stored as given: a
    value, not a field element, with no arithmetic.  Equality (``==``,
    against another RatFunc only) is equality as rational functions, by
    cross multiplication; the pair is never reduced.  Two quotients of
    equal shape, the same coefficient tuples in num and in den and the
    same num-over-den offset, are equal without a product; any others
    compare the two cross products.
    ``canonical()`` clears negative exponents for display only."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        self.num, self.den = num, den

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls(ZERO, ONE)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        a, b, c, d = self.num, other.den, other.num, self.den  # a/d == c/b
        if a._c == c._c and b._c == d._c and a._lo - d._lo == c._lo - b._lo:
            return True  # a/d = q^x c / q^x b
        return a * b == c * d

    def canonical(self) -> "RatFunc":
        """Shift num and den by q^-e, e the least exponent present in
        either, so both are ordinary polynomials and one of them has a
        nonzero constant term.  Display form only; the value is unchanged."""
        e = min(self.den.min_exp, self.num.min_exp if self.num else self.den.min_exp)
        return RatFunc(self.num.shift(-e), self.den.shift(-e))

    def text(self) -> str:
        c = self.canonical()
        return f"({c.num.text()}) / ({c.den.text()})"

    __str__ = text

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r}, {self.den!r})"
