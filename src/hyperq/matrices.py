"""Matrix products over the binary expansion and their entry formulas.

Reading the binary expansion of n with the leading 1 dropped and the
rest reversed as a word in

    L = | 1    0  |        R = | q  1 |
        | 1  1/q  |            | 0  1 |

gives a matrix M(n) whose entries are, up to monomial factors, the
hyperbinary generating functions h_q of four neighbours of n, and whose
row sums against (1, 1)^T are q^-k h_q(n-1) and q^-k-1 h_q(n).  The
bivariate companions

    L' = | 1  0 |           R' = | r  s |
         | r  s |                | 0  1 |

satisfy M'(n) (1, 1)^T = (h_rs(n-1), h_rs(n))^T.  One class body,
``_mat2``, is made once per entry ring: ``Mat2`` over ``LaurentPoly``
and ``BiMat2`` over ``BiPoly``.  For each row-sum identity,
``row_sum_check`` and ``m_prime_check`` return its two sides at one n,
and ``row_sum_checks`` and ``m_prime_checks`` at every n up to a limit,
which ``verify mnthm`` and ``verify mprime`` run; ``entries_checks`` is
the range form of "M(n) equals ``entries_formula(n)``", which
``verify mnent`` runs.

``m_of``, ``m_prime_of`` and the ranges run on packed integers.
Reading L as qL = [[q, 0], [q, 1]] turns M(n) into M~(n) = q^z M(n),
z the number of zeros of n after its leading 1, a matrix of
polynomials in q with nonnegative coefficients.  At q = 1 both M~(n)
and M'(n) are the matrix of Stern's sequence, whose row sums are
fusc(n) and fusc(n+1), so no coefficient of an entry or a row sum
reaches 256^w for w = ``stern.range_width(limit)``, the slot width of
the largest fusc in range.
Each entry of M~(n) is then one integer, its value at q = 256^w, and
each entry of M'(n) one integer at s = X = 256^w, r = X^K, K =
``stern.bi_stride(limit)`` above every s-degree (one per letter).
Both follow M(2n) = L M(n), M(2n+1) = R M(n), and a letter step
(``_letter``) is a few shifts and two big-int adds: a range
(``_packed_range``) is ``stern.halving_range`` with one step per n,
and ``m_of`` and ``m_prime_of`` take one per bit of n
(``_packed_word``), with limit n and ``stern.fusc_width``.
``m_range``, ``m_prime_range``, ``m_of`` and ``m_prime_of`` decode
every entry (``poly.unpack``, ``poly.unpack_bi``); the ``@`` fold of
``word_of(n)`` is left to the tests.  The three range checks read the
oracle side from one integer range at the same packing,
``hyperbinary.h_q_range(limit, w)`` at q = 256^w or
``h_rs_range(limit, w, K)`` at s = X, r = X^K, the recurrence run on
integers, and yield (claim, oracle, decode) with integers as claim and
oracle: ``row_sum_checks`` reads the two h_q values of
``_row_sums_index(n)`` and ``entries_checks`` the four of
``_entries_index(n)``, each shifted by its monomial factor and q^z,
both sides shifted up by q^(k+1) so that no shift is negative
(``_shifted_sides``), and ``m_prime_checks`` reads (h_rs(n-1),
h_rs(n)) as they are.  ``verify`` compares them and calls
``decode()`` only on a mismatch; it gives the two sides as
polynomials, both decoded from the same integers:
``row_sums_formula(n)`` and the row sums of M(n), M(n) and
``entries_formula(n)``, each formula over an h_q memo of the values it
reads, or the ``BiPoly`` pairs.  Each decode binds its n and values
when it is yielded.
"""

from __future__ import annotations

from functools import partial

from .hyperbinary import _BI_ONE, _BI_ZERO, _X1, _X2, _zeros, h_q, h_q_range, h_rs, h_rs_range
from .poly import BiPoly, LaurentPoly, ONE, ZERO, qpow, unpack, unpack_bi
from .stern import bi_stride, fusc_width, halving_range, range_width


def _mat2(name: str, one, zero) -> type:
    """The class of 2x2 matrices over the ring with this one and zero.
    Each call makes fresh methods: ``Mat2`` and ``BiMat2`` share no
    function, so a profile tells their products apart."""

    class Mat:
        """A 2x2 matrix, row major.  A value, immutable by convention."""

        __slots__ = ("a", "b", "c", "d")

        def __init__(self, a, b, c, d):
            self.a, self.b, self.c, self.d = a, b, c, d

        def __eq__(self, other: object) -> bool:  # and so no hash
            if other.__class__ is not self.__class__:
                return NotImplemented
            return self.entries() == other.entries()

        def __repr__(self) -> str:
            return f"{name}(a={self.a!r}, b={self.b!r}, c={self.c!r}, d={self.d!r})"

        @classmethod
        def identity(cls):
            return cls(one, zero, zero, one)

        def __matmul__(self, o):
            return Mat(
                self.a * o.a + self.b * o.c,
                self.a * o.b + self.b * o.d,
                self.c * o.a + self.d * o.c,
                self.c * o.b + self.d * o.d,
            )

        def column_sums_vector(self) -> tuple:
            """The image of (1, 1)^T: row sums as a column vector."""
            return (self.a + self.b, self.c + self.d)

        def entries(self) -> tuple:
            return (self.a, self.b, self.c, self.d)

    Mat.__name__ = Mat.__qualname__ = name
    return Mat


Mat2 = _mat2("Mat2", ONE, ZERO)
BiMat2 = _mat2("BiMat2", _BI_ONE, _BI_ZERO)

L = Mat2(ONE, ZERO, ONE, qpow(-1))
R = Mat2(qpow(1), ONE, ZERO, ONE)


def word_of(n: int) -> str:
    """Drop the leading 1 of the binary expansion, reverse, and map
    0 -> L, 1 -> R; the word of 1 is empty."""
    if n < 1:
        raise ValueError("n must be >= 1")
    bits = bin(n)[3:]
    return "".join("R" if bit == "1" else "L" for bit in reversed(bits))


def _letter(p: tuple, odd: int, u: int, r: int, s: int) -> tuple:
    """P(2n + odd) = R P(n) or L P(n), P(n) = p = (a, b, c, d) in integers,
    with L = [[2^u, 0], [2^r, 2^s]] and R = [[2^r, 2^s], [0, 1]]."""
    a, b, c, d = p
    x, y = (a << r) + (c << s), (b << r) + (d << s)
    return (x, y, c, d) if odd else (a << u, b << u, x, y)


def _packed_range(limit: int, u: int, r: int, s: int) -> list:
    """[None, P(1), ..., P(limit)]: the ``stern.halving_range`` of one
    ``_letter`` step per n, from P(n >> 1)."""
    return halving_range(limit, lambda n, f: _letter(f[n >> 1], n & 1, u, r, s),
                         None, (1, 0, 0, 1))


def _packed_word(n: int, u: int, r: int, s: int) -> tuple:
    """P(n) alone: one ``_letter`` step per bit of n after its leading 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p = (1, 0, 0, 1)
    for bit in bin(n)[3:]:
        p = _letter(p, bit == "1", u, r, s)
    return p


def _m_packed(limit: int) -> tuple[int, list]:
    """(w, [None, M~(1), ..., M~(limit)]) with M~(n) = q^z M(n) at
    q = 256^w, from the letters qL = [[q, 0], [q, 1]] and R."""
    w = range_width(limit)
    return w, _packed_range(limit, 8 * w, 8 * w, 0)


def m_of(n: int) -> Mat2:
    """M(n): the packed M~(n) walked over the bits of n, each entry
    unpacked and shifted by q^-z."""
    w, lo = fusc_width(n), -_zeros(n)
    return Mat2(*[unpack(v, w, lo) for v in _packed_word(n, 8 * w, 8 * w, 0)])


def m_range(limit: int) -> list[Mat2 | None]:
    """[None, M(1), ..., M(limit)]: the packed M~(n), each entry
    unpacked and shifted by q^-z."""
    w, ms = _m_packed(limit)
    out: list[Mat2 | None] = [None] * (limit + 1)
    for n in range(1, limit + 1):
        lo = -_zeros(n)
        out[n] = Mat2(*[unpack(v, w, lo) for v in ms[n]])
    return out


def _entries_index(n: int) -> tuple:
    """(m, e) for each entry of M(n), row major, the entry being q^e h_q(m).

    With k+1 binary digits, j leading ones, and n' built from the
    expansion with the first j-1 ones removed, the four entries are
    monomial multiples of h_q at n'-1, n', n - 2^k - 1 and n - 2^k; for
    n = 2^(k+1) - 1 the first column degenerates to (q^k, 0)^T, that is
    (q^k h_q(0), h_q(-1))^T.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    k = n.bit_length() - 1
    top = 1 << k
    # the first 0 of n is the leading 1 of its complement in k + 1 bits,
    # with e digits after it, so n' is 1 followed by n's last e digits
    e = (n ^ (2 * top - 1)).bit_length() - 1
    if e < 0:
        a, c = (0, k), (-1, 0)
    else:
        j = k - e
        nprime = (1 << e) | (n & ((1 << e) - 1))
        a, c = (nprime - 1, -k + 2 * j - 1), (nprime, -k + 2 * j - 2)
    return a, (n - top - 1, -k + 1), c, (n - top, -k)


def entries_formula(n: int, memo: dict[int, LaurentPoly] | None = None) -> Mat2:
    """M(n) assembled from h_q values without any matrix product: the
    entries of ``_entries_index(n)``."""
    if memo is None:
        memo = {}
    return Mat2(*[h_q(m, memo).shift(e) for m, e in _entries_index(n)])


def _row_sums_index(n: int) -> tuple:
    """(m, e) for each row sum of M(n), the sum being q^e h_q(m)."""
    k = n.bit_length() - 1
    return (n - 1, -k), (n, -k - 1)


def row_sums_formula(n: int, memo: dict[int, LaurentPoly] | None = None
                     ) -> tuple[LaurentPoly, LaurentPoly]:
    """(q^-k h_q(n-1), q^-k-1 h_q(n)), which M(n) (1,1)^T equals: the
    sums of ``_row_sums_index(n)``."""
    if memo is None:
        memo = {}
    return tuple([h_q(m, memo).shift(e) for m, e in _row_sums_index(n)])


def row_sum_check(n: int) -> tuple[tuple, tuple]:
    """The two sides of M(n) (1,1)^T = (q^-k h_q(n-1), q^-k-1 h_q(n))^T
    as (expected, actual) = (``row_sums_formula(n)``, M(n) (1,1)^T);
    ``verify mnthm`` compares them for every n through
    ``row_sum_checks``."""
    return row_sums_formula(n), m_of(n).column_sums_vector()


def _shifted_sides(hs: list, bits: int, n: int, index, claims: tuple) -> tuple[list, list]:
    """(claim, oracle) for the packed claims v of M~(n) = q^z M(n), each
    to be q^(e + z) h_q(m) at q = 2^bits, for the (m, e) of ``index``
    and h_q(m) read from ``hs = h_q_range``.  e + z may be negative, so
    both sides are taken times q^(k + 1), k + 1 the bit length of n: no
    e is below -k - 1."""
    z, up = _zeros(n), n.bit_length()
    return [v << bits * up for v in claims], [hs[m + 1] << bits * (e + z + up) for m, e in index]


def row_sum_checks(limit: int):
    """The checks of ``row_sum_check(n)`` for n = 1..limit, in order, as
    (claim, oracle, decode): the packed pair of M~(n) (1,1)^T against
    the two h_q values of ``_row_sums_index(n)``, read from one integer
    ``h_q_range`` at the slot width of M~, both shifted
    (``_shifted_sides``).  ``decode()`` gives the sides of
    ``row_sum_check(n)``: ``row_sums_formula(n)`` over those values
    decoded, and the row sums of M(n), unpacked.  Nothing when
    limit < 1."""
    if limit < 1:
        return
    w, ms = _m_packed(limit)
    hs = h_q_range(limit, w)

    def sides(n, sums):  # an h_q memo of the values read, decoded
        memo = {m + 1: unpack(hs[m + 1], w) for m, _ in _row_sums_index(n)}
        return row_sums_formula(n, memo), tuple(unpack(v, w, -_zeros(n)) for v in sums)

    for n, (a, b, c, d) in enumerate(ms[1:], 1):
        sums = a + b, c + d
        yield *_shifted_sides(hs, 8 * w, n, _row_sums_index(n), sums), partial(sides, n, sums)


def entries_checks(limit: int):
    """The checks of "M(n) equals ``entries_formula(n)``" for
    n = 2..limit, in order, as (claim, oracle, decode): the packed M~(n)
    against the four h_q values of ``_entries_index(n)``, read from one
    integer ``h_q_range`` at the slot width of M~, both shifted
    (``_shifted_sides``).  ``decode()`` gives M(n), unpacked, and
    ``entries_formula(n)`` over those values decoded.  The range ends
    at the largest m read.  Each m read for n is below 2^k, the top bit
    of n; with 2^K the top bit of the limit, the largest is
    n' = n - 2^(K-1) at n = min(limit, 2^K + 2^(K-1) - 1).  Nothing when
    limit < 2."""
    if limit < 2:
        return
    w, ms = _m_packed(limit)
    top = 1 << (limit.bit_length() - 1)
    hs = h_q_range(min(limit - top // 2, top - 1), w)

    def sides(n, m):  # an h_q memo of the values read, decoded
        memo = {h + 1: unpack(hs[h + 1], w) for h, _ in _entries_index(n)}
        return Mat2(*[unpack(v, w, -_zeros(n)) for v in m]), entries_formula(n, memo)

    for n in range(2, limit + 1):
        yield *_shifted_sides(hs, 8 * w, n, _entries_index(n), ms[n]), partial(sides, n, ms[n])


# ---------------------------------------------------------------------------
# bivariate companion


L_PRIME = BiMat2(_BI_ONE, _BI_ZERO, _X1, _X2)
R_PRIME = BiMat2(_X1, _X2, _BI_ZERO, _BI_ONE)


def m_prime_of(n: int) -> BiMat2:
    """M'(n): the packed M'(n) walked over the bits of n, at s = 256^w,
    r = 256^(w K) with K = ``stern.bi_stride(n)``, each entry decoded."""
    w, k = fusc_width(n), bi_stride(n)
    return BiMat2(*[unpack_bi(v, w, k) for v in _packed_word(n, 0, 8 * w * k, 8 * w)])


def _m_prime_packed(limit: int) -> tuple[int, int, list]:
    """(w, K, [None, M'(1), ..., M'(limit)]) at s = X = 256^w, r = X^K."""
    w, k = range_width(limit), bi_stride(limit)
    return w, k, _packed_range(limit, 0, 8 * w * k, 8 * w)


def m_prime_range(limit: int) -> list[BiMat2 | None]:
    """[None, M'(1), ..., M'(limit)]: the packed M'(n), each entry decoded."""
    w, k, ms = _m_prime_packed(limit)
    return [None] + [BiMat2(*[unpack_bi(v, w, k) for v in m]) for m in ms[1:]]


def m_prime_check(n: int) -> tuple[tuple, tuple]:
    """The two sides of M'(n) (1,1)^T = (h_rs(n-1), h_rs(n))^T as
    (expected, actual) = ((h_rs(n-1), h_rs(n)), M'(n) (1,1)^T);
    ``verify mprime`` compares them for every n through
    ``m_prime_checks``."""
    memo: dict[int, BiPoly] = {}
    return (h_rs(n - 1, memo), h_rs(n, memo)), m_prime_of(n).column_sums_vector()


def m_prime_checks(limit: int):
    """The checks of ``m_prime_check(n)`` for n = 1..limit, in order, as
    (claim, oracle, decode): the packed pair of M'(n) (1,1)^T against
    the entries h_rs(n-1), h_rs(n) of one integer ``h_rs_range``, at
    the s = X, r = X^K of M'(n).  ``decode()`` gives the two ``BiPoly``
    pairs, the entries and the row sums decoded.  Nothing when
    limit < 1."""
    if limit < 1:
        return
    w, k, ms = _m_prime_packed(limit)
    hs = h_rs_range(limit, w, k)

    def sides(pair, sums):
        return tuple(unpack_bi(v, w, k) for v in pair), tuple(unpack_bi(v, w, k) for v in sums)

    for n, (a, b, c, d) in enumerate(ms[1:], 1):
        pair, sums = (hs[n], hs[n + 1]), (a + b, c + d)
        yield sums, pair, partial(sides, pair, sums)
