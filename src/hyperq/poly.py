"""Exact dense polynomial arithmetic over the integers.

Three small value types used everywhere else in the package:

* ``LaurentPoly`` -- univariate Laurent polynomials in q (integer
  exponents of either sign, integer coefficients).
* ``BiPoly``      -- ordinary polynomials in two commuting variables
  with nonnegative exponents.
* ``RatFunc``     -- a quotient of two Laurent polynomials: a value
  compared by cross multiplication, never reduced, with no arithmetic.

The polynomials met here are short and have no gaps, so a
``LaurentPoly`` is stored dense: q^lo times a tuple of coefficients
whose first and last entries are nonzero (the empty tuple is zero).
Shifting moves lo only and shares the tuple.  Products with a zero or
one-term operand are shifts and scalings; other products are a
schoolbook convolution.  Recurrences whose polynomials have
nonnegative coefficients can instead run on packed integers, each
polynomial evaluated at q = 256^w with w bytes per coefficient
(``slot_width``), and build one ``LaurentPoly`` at the end
(``unpack``); ``pack`` goes the other way, and ``RatFunc`` equality
multiplies packed integers when all four parts are nonnegative and
both numerators nonzero.
``BiPoly`` keeps a sparse {(e1, e2): coeff} dict with the same zero and
monomial shortcuts; ``pack_bi`` and ``unpack_bi`` pack it at s = 256^w,
r = 256^(w k), k above every s-degree.

All arithmetic is exact integer arithmetic; there is no floating point
anywhere.  Instances are immutable by convention: every operation
returns a fresh object or one of its operands, and nothing mutates the
stored terms.
"""

from __future__ import annotations

import struct
import sys
from collections.abc import Mapping
from itertools import repeat
from operator import itemgetter

def _render(terms, var) -> str:
    """The fixed wire format shared by both polynomial types.

    Terms in the given order joined by " + " (" - " and the absolute
    value for negative coefficients), a coefficient of 1 elided except
    on the constant term, the constant term as the bare coefficient.
    ``var(key)`` renders the variables of one term, "" for a constant.
    """
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
    p._lo = lo
    p._c = c
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
    return _dense(lo + i, c[i:j] if j - i < len(c) else c)


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


class LaurentPoly:
    """A Laurent polynomial in one variable q, stored as q^lo * (c_0, c_1, ...).

    Built from a {exponent: coeff} mapping; zero coefficients are dropped.
    """

    __slots__ = ("_lo", "_c")

    def __init__(self, terms: Mapping[int, int] | None = None):
        nz = {e: c for e, c in (terms or {}).items() if c}
        if nz:
            lo = min(nz)
            self._lo = lo
            self._c = tuple([nz.get(e, 0) for e in range(lo, max(nz) + 1)])
        else:
            self._lo, self._c = 0, ()

    # -- queries -------------------------------------------------------

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

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._c, other._c
        if not b:
            return self
        if not a:
            return other
        alo, blo = self._lo, other._lo
        if alo > blo:
            alo, a, blo, b = blo, b, alo, a
        off = blo - alo
        a += (0,) * (off + len(b) - len(a))  # pad a to cover b
        c = a[:off] + tuple(map(int.__add__, a[off:], b)) + a[off + len(b):]
        return _trimmed(alo, c)

    def __neg__(self) -> "LaurentPoly":
        return _dense(self._lo, tuple(map(int.__neg__, self._c)))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

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
        if not self._c:
            return ZERO
        return _dense(1 - self._lo - len(self._c), self._c[::-1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._lo == other._lo and self._c == other._c

    def __bool__(self) -> bool:
        return bool(self._c)

    # -- text ------------------------------------------------------------
    # Fixed wire format (``_render``): increasing exponents, exponent 1 as
    # "q", anything else but 0 as "q^e".

    def text(self) -> str:
        return _render(self.terms(), _q_var)

    def __str__(self) -> str:
        return self.text()

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
    """The fewest bytes w with 256^w > bound, at least one.

    A polynomial with nonnegative coefficients and value at most
    ``bound`` at q = 1 has every coefficient below 256^w, so its value at
    q = 256^w keeps each coefficient in its own w-byte slot, and so does
    every sum and product whose value at q = 1 stays within ``bound``.
    """
    return max(1, (bound.bit_length() + 7) >> 3)


#: memoryview formats of the slot widths that are native integer types;
#: a cast reads the slots of a little-endian ``to_bytes`` in order only
#: on a little-endian host, so elsewhere every width takes the slices
#: (``pack`` reads the same table, for its ``struct`` format letters)
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
    if fmt:
        c = tuple(memoryview(b).cast(fmt))
    else:
        c = tuple(map(int.from_bytes,
                      map(b.__getitem__, map(slice, range(0, size, w), range(w, size + w, w))),
                      repeat("little")))
    return _dense(lo + low, c)


def pack(p: LaurentPoly, w: int) -> int:
    """c_0 + c_1 256^w + ... for p = q^lo * (c_0 + c_1 q + ...), each
    0 <= c_i < 256^w: p at q = 256^w with its q^lo dropped, the inverse
    of ``unpack(v, w, lo)``.  The slots are one little-endian
    ``struct.pack`` when ``_NATIVE_SLOTS`` has w, w-byte ``to_bytes``
    otherwise, read as one integer; a coefficient outside its slot
    raises ``struct.error`` or ``OverflowError``."""
    c = p._c
    fmt = _NATIVE_SLOTS.get(w)
    if fmt:
        b = struct.pack(f"<{len(c)}{fmt}", *c)
    else:
        b = b"".join(map(int.to_bytes, c, repeat(w), repeat("little")))
    return int.from_bytes(b, "little")


def _sparse(terms: dict[tuple[int, int], int]) -> "BiPoly":
    """A BiPoly over ``terms``, which has no zero coefficient."""
    p = object.__new__(BiPoly)
    p._terms = terms
    return p


class BiPoly:
    """A polynomial in two commuting variables, stored as {(e1, e2): coeff}.

    Exponents are nonnegative.  The variable names only matter for
    rendering and default to "r", "s".
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        self._terms = {p: c for p, c in (terms or {}).items() if c != 0}

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
        return not self._terms

    def terms(self) -> list[tuple[tuple[int, int], int]]:
        return sorted(self._terms.items())

    def __add__(self, other: "BiPoly") -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        out = dict(self._terms)
        for p, c in other._terms.items():
            s = out.get(p, 0) + c
            if s:
                out[p] = s
            else:  # c is nonzero, so p was in out
                del out[p]
        return _sparse(out)

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        x, y = (other, self) if len(self._terms) == 1 else (self, other)
        a, b = x._terms, y._terms
        if not a or not b:
            return _sparse({})
        if len(b) == 1:
            if b == {(0, 0): 1}:
                return x
            ((b1, b2), k), = b.items()
            return _sparse({(e1 + b1, e2 + b2): c * k for (e1, e2), c in a.items()})
        out: dict[tuple[int, int], int] = {}
        for (a1, a2), c1 in a.items():
            for (b1, b2), c2 in b.items():
                p = (a1 + b1, a2 + b2)
                out[p] = out.get(p, 0) + c1 * c2
        return BiPoly(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def specialize(self, w1: int, w2: int) -> LaurentPoly:
        """Map each variable to a power of q: (e1, e2) -> q^(e1*w1 + e2*w2)."""
        out: dict[int, int] = {}
        for (e1, e2), c in self._terms.items():
            e = e1 * w1 + e2 * w2
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    @property
    def eval_at_one(self) -> int:
        return sum(self._terms.values())

    def text(self, names: tuple[str, str] = ("r", "s")) -> str:
        """Terms in lexicographic (e1, e2) order, e.g. "s + r" or "1 + r s^2"."""
        def var(exps: tuple[int, int]) -> str:
            return " ".join(name if e == 1 else f"{name}^{e}"
                            for name, e in zip(names, exps) if e)
        return _render(self.terms(), var)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"BiPoly({self._terms!r})"


def pack_bi(p: BiPoly, w: int, k: int) -> int | None:
    """p at s = X = 256^w, r = X^k: the ``BiPoly`` counterpart of
    ``pack``, with r^i s^j in slot i k + j.  None when that value would
    not determine p: a coefficient outside [0, X), or an exponent
    outside the slots (either exponent negative, or an s-degree of k or
    more)."""
    t, step = p._terms, 8 * w
    if not t:
        return 0
    cs, js = sorted(t.values()), sorted(map(itemgetter(1), t))  # both ends of each, in C
    if cs[0] < 0 or cs[-1] >> step or js[0] < 0 or js[-1] >= k:
        return None
    try:
        return sum(c << step * (i * k + j) for (i, j), c in t.items())
    except ValueError:  # with 0 <= j < k, a negative i is a negative shift count
        return None


def unpack_bi(v: int, w: int, k: int) -> BiPoly:
    """The ``BiPoly`` whose value at s = X = 256^w, r = X^k is v, each
    slot below X: the inverse of ``pack_bi``."""
    return BiPoly({divmod(e, k): c for e, c in unpack(v, w).terms()})


class RatFunc:
    """A quotient num/den of Laurent polynomials, stored as given.

    A value, not a field element: there is no arithmetic.  Equality
    (``==``, against another RatFunc only) means equality as rational
    functions, decided by cross multiplication; the pair is never
    reduced.  When both numerators are nonzero and no part has a
    negative coefficient, the cross products are compared on packed
    integers: first their lowest exponents, then the integer products of
    the parts packed at q = 256^w (``pack``), w the ``slot_width`` of the
    larger product's value at q = 1, which no coefficient of either
    product exceeds.  Signed or zero parts take the two convolutions.
    ``canonical()`` clears negative exponents for display only.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        self.num = num
        self.den = den

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls(ZERO, ONE)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        a, b, c, d = self.num, other.den, other.num, self.den  # a/d == c/b
        if a._c and c._c and min(map(min, (a._c, b._c, c._c, d._c))) >= 0:
            # nonnegative, so no coefficient of a b or c d exceeds its
            # value at q = 1, and packed products have no carries
            if a._lo + b._lo != c._lo + d._lo:
                return False
            w = slot_width(max(sum(a._c) * sum(b._c), sum(c._c) * sum(d._c)))
            return pack(a, w) * pack(b, w) == pack(c, w) * pack(d, w)
        return a * b == c * d

    def canonical(self) -> "RatFunc":
        """Shift num and den by q^-e, e the least exponent present in either.

        After the shift both parts are ordinary polynomials and at least
        one of them has a nonzero constant term.  Display form only; the
        value is unchanged.
        """
        exps = []
        if not self.num.is_zero:
            exps.append(self.num.min_exp)
        exps.append(self.den.min_exp)
        e = min(exps)
        return RatFunc(self.num.shift(-e), self.den.shift(-e))

    def text(self) -> str:
        c = self.canonical()
        return f"({c.num.text()}) / ({c.den.text()})"

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r}, {self.den!r})"
