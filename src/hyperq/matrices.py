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

satisfy M'(n) (1, 1)^T = (h_rs(n-1), h_rs(n))^T.  Each row-sum identity
is stated once: ``row_sum_check`` and ``m_prime_check`` return its two
sides, and ``verify mnthm`` and ``verify mprime`` run them.

``m_range`` builds every M(n) up to a limit with one cheap
multiplication each, using M(2n) = L M(n) and M(2n+1) = R M(n), and
``m_prime_range`` does the same with L' and R'.  Every letter entry is
zero or a monomial, and ``poly`` multiplies by those as a shift (a
product with zero is zero, a sum with zero is the other operand), so
each step is a couple of shifts and adds, never a full polynomial
product.
"""

from __future__ import annotations

from .hyperbinary import binary_expansion, h_q, h_rs
from .poly import BiPoly, LaurentPoly, ONE, ZERO, qpow


class Mat2:
    """A 2x2 matrix of Laurent polynomials, row major.  A value,
    immutable by convention."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: LaurentPoly, b: LaurentPoly, c: LaurentPoly, d: LaurentPoly):
        self.a, self.b, self.c, self.d = a, b, c, d

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries() == other.entries()

    def __hash__(self) -> int:
        return hash(self.entries())

    def __repr__(self) -> str:
        return f"Mat2(a={self.a!r}, b={self.b!r}, c={self.c!r}, d={self.d!r})"

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(ONE, ZERO, ZERO, ONE)

    def __matmul__(self, o: "Mat2") -> "Mat2":
        return Mat2(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    def column_sums_vector(self) -> tuple[LaurentPoly, LaurentPoly]:
        """The image of (1, 1)^T: row sums as a column vector."""
        return (self.a + self.b, self.c + self.d)

    def entries(self) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly, LaurentPoly]:
        return (self.a, self.b, self.c, self.d)


L = Mat2(ONE, ZERO, ONE, qpow(-1))
R = Mat2(qpow(1), ONE, ZERO, ONE)


def word_of(n: int) -> str:
    """Drop the leading 1 of the binary expansion, reverse, and map
    0 -> L, 1 -> R; the word of 1 is empty."""
    if n < 1:
        raise ValueError("n must be >= 1")
    bits = bin(n)[3:]
    return "".join("R" if bit == "1" else "L" for bit in reversed(bits))


def _word_product(n: int, identity, left, right):
    """The word of n read left to right in the letters ``left``, ``right``."""
    m = identity
    for ch in word_of(n):
        m = m @ (right if ch == "R" else left)
    return m


def _range(limit: int, identity, left, right) -> list:
    """[None, M(1), ..., M(limit)] in the given letters by the halving
    identities M(2n) = left M(n), M(2n+1) = right M(n)."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    out = [None] * (limit + 1)
    out[1] = identity
    for n in range(2, limit + 1):
        out[n] = (right if n % 2 else left) @ out[n // 2]
    return out


def m_of(n: int) -> Mat2:
    """M(n) as the left-to-right product of its word."""
    return _word_product(n, Mat2.identity(), L, R)


def m_range(limit: int) -> list[Mat2 | None]:
    """[None, M(1), ..., M(limit)] by the halving identities."""
    return _range(limit, Mat2.identity(), L, R)


def entries_formula(n: int, memo: dict[int, LaurentPoly] | None = None) -> Mat2:
    """M(n) assembled from h_q values without any matrix product.

    With k+1 binary digits, j leading ones, and n' built from the
    expansion with the first j-1 ones removed, the four entries are
    monomial multiples of h_q at n'-1, n', n - 2^k - 1 and n - 2^k; for
    n = 2^(k+1) - 1 the first column degenerates to (q^k, 0)^T.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if memo is None:
        memo = {}
    bits = binary_expansion(n)
    k = len(bits) - 1
    j = 0
    while j < len(bits) and bits[j] == 1:
        j += 1
    top = 1 << k
    b_ = h_q(n - top - 1, memo).shift(-k + 1)
    d_ = h_q(n - top, memo).shift(-k)
    if j == k + 1:
        return Mat2(qpow(k), b_, ZERO, d_)
    nprime = 0
    for bit in (1,) + bits[j + 1:]:
        nprime = 2 * nprime + bit
    a_ = h_q(nprime - 1, memo).shift(-k + 2 * j - 1)
    c_ = h_q(nprime, memo).shift(-k + 2 * j - 2)
    return Mat2(a_, b_, c_, d_)


def row_sums_formula(n: int, memo: dict[int, LaurentPoly] | None = None
                     ) -> tuple[LaurentPoly, LaurentPoly]:
    """(q^-k h_q(n-1), q^-k-1 h_q(n)), which M(n) (1,1)^T equals."""
    if memo is None:
        memo = {}
    k = n.bit_length() - 1
    return h_q(n - 1, memo).shift(-k), h_q(n, memo).shift(-k - 1)


def row_sum_check(n: int, m: Mat2 | None = None,
                  memo: dict[int, LaurentPoly] | None = None) -> tuple[tuple, tuple]:
    """The two sides of M(n) (1,1)^T = (q^-k h_q(n-1), q^-k-1 h_q(n))^T
    as (expected, actual) = (``row_sums_formula(n)``, M(n) (1,1)^T);
    ``verify mnthm`` compares them.  ``m`` is M(n) when the caller
    already has it."""
    if m is None:
        m = m_of(n)
    return row_sums_formula(n, memo), m.column_sums_vector()


# ---------------------------------------------------------------------------
# bivariate companion


class BiMat2:
    """A 2x2 matrix of bivariate polynomials, row major.  A value,
    immutable by convention."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: BiPoly, b: BiPoly, c: BiPoly, d: BiPoly):
        self.a, self.b, self.c, self.d = a, b, c, d

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries() == other.entries()

    def __hash__(self) -> int:
        return hash(self.entries())

    def __repr__(self) -> str:
        return f"BiMat2(a={self.a!r}, b={self.b!r}, c={self.c!r}, d={self.d!r})"

    @classmethod
    def identity(cls) -> "BiMat2":
        one, zero = BiPoly.one(), BiPoly.zero()
        return cls(one, zero, zero, one)

    def __matmul__(self, o: "BiMat2") -> "BiMat2":
        return BiMat2(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    def column_sums_vector(self) -> tuple[BiPoly, BiPoly]:
        return (self.a + self.b, self.c + self.d)

    def entries(self) -> tuple[BiPoly, BiPoly, BiPoly, BiPoly]:
        return (self.a, self.b, self.c, self.d)


_BR = BiPoly.monomial(1, 1, 0)
_BS = BiPoly.monomial(1, 0, 1)
L_PRIME = BiMat2(BiPoly.one(), BiPoly.zero(), _BR, _BS)
R_PRIME = BiMat2(_BR, _BS, BiPoly.zero(), BiPoly.one())


def m_prime_of(n: int) -> BiMat2:
    """M'(n): the word of n read in L', R'."""
    return _word_product(n, BiMat2.identity(), L_PRIME, R_PRIME)


def m_prime_range(limit: int) -> list[BiMat2 | None]:
    return _range(limit, BiMat2.identity(), L_PRIME, R_PRIME)


def m_prime_check(n: int, m: BiMat2 | None = None,
                  memo: dict[int, BiPoly] | None = None) -> tuple[tuple, tuple]:
    """The two sides of M'(n) (1,1)^T = (h_rs(n-1), h_rs(n))^T as
    (expected, actual) = ((h_rs(n-1), h_rs(n)), M'(n) (1,1)^T);
    ``verify mprime`` compares them.  ``m`` is M'(n) when the caller
    already has it."""
    if memo is None:
        memo = {}
    if m is None:
        m = m_prime_of(n)
    return (h_rs(n - 1, memo), h_rs(n, memo)), m.column_sums_vector()
