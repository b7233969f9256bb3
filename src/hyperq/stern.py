"""Stern's diatomic sequence, its q-analogue, and the Calkin-Wilf walk.

``fusc`` is the diatomic sequence 0, 1, 1, 2, 1, 3, 2, 3, ...; the map
n -> fusc(n)/fusc(n+1) runs through every nonnegative reduced rational
exactly once.  ``fusc_q`` replaces the integer values by Laurent
polynomials in q via

    fusc_q(2n)   = q * fusc_q(n)
    fusc_q(2n+1) = fusc_q(n+1) + q^2 * fusc_q(n)

with fusc_q(0) = 0 and fusc_q(1) = 1, and ``cw_q(n)`` is the quotient
fusc_q(n)/fusc_q(n+1).  fusc(n + 1) counts the hyperbinary expansions
of n, and ``digit_rule(w0, w1, w2)`` is the recurrence that weighs
appending the digit d by w_d: fusc_q weighs d by q^d, (1, q, q^2), and
fusc is (1, 1, 1).

Both recurrences are evaluated by one walk over the bits of n from
the top, carrying the values at m and m + 1 for the prefix m read so
far: ``_fusc_pair`` on integers, and ``halving`` for any rule of this
shape.  Neither recurses, so n of thousands of bits is fine.
``halving_range`` takes the same rule bottom up, every value of a range
once, with no walk.

``_fusc_pair`` walks fusc_q too, on packed integers at q = 256^w (w from
``fusc_width``): fusc_q, cw_q and hyperbinary.h_q take that walk without
a memo, and ``halving`` on ``LaurentPoly`` with one.  ``range_width`` is
the slot width for a whole range, and ``bi_stride`` the one stride K of
every bivariate packing (s = 256^w, r = 256^(w K)).  Every packed range
of the package is a ``halving_range``: ``hyperbinary``'s oracles, each
``digit_rule`` weight a power of 256^w, the letter products of
``matrices`` and the fence scans of ``fence``.

Memo dicts are owned by the caller: a sweep that passes one uses one
dict for the whole sweep and drops it afterwards, so repeated sweeps
never share state and single calls stay allocation-light.  There is
one memo table per recurrence: fusc_q, cw_q and hyperbinary.h_q all
use the fusc_q table, keyed by the argument of fusc_q.
"""

from __future__ import annotations

from .poly import ONE, ZERO, LaurentPoly, RatFunc, qpow, slot_width, unpack


def fusc(n: int) -> int:
    """Stern's diatomic sequence, iteratively over the bits of n.

    No recursion, so arbitrarily large n (say 10**9 or a few hundred
    bits) is fine.
    """
    if n < 0:
        raise ValueError("fusc is defined for n >= 0")
    return _fusc_pair(n)[0]


def _fusc_pair(n: int, step: int = 0) -> tuple[int, int]:
    """(fusc_q(n), fusc_q(n+1)) at q = 2^step, step 0 giving fusc, by one
    walk over the bits of n from the top, keeping the pair at the prefix
    m read so far.  No coefficient is negative and the pair's larger
    value never falls, so step = 8 ``fusc_width(n)`` keeps every slot."""
    a, b, step2 = 0, 1, 2 * step
    for bit in bin(n)[2:]:
        if bit == "0":
            a, b = a << step, b + (a << step2)
        else:
            a, b = b + (a << step2), b << step
    return a, b


def fusc_width(n: int) -> int:
    """Bytes per slot for the packed walks of n, here and in
    ``matrices``: ``slot_width`` of the larger of fusc(n), fusc(n+1)."""
    return slot_width(max(_fusc_pair(n)))


def range_width(limit: int) -> int:
    """Bytes per slot for the packed ranges to limit >= 0 in
    ``matrices``, ``fence`` and ``hyperbinary``: ``slot_width`` of the largest
    of fusc(0), ..., fusc(limit + 1), which bounds every coefficient of
    M~(n) and M'(n) for n <= limit, and of h_q(n), h_rs(n) and
    hbar_st(n), each a count of hyperbinary expansions."""
    return slot_width(max(fusc_range(limit + 1)))


def bi_stride(limit: int) -> int:
    """The stride K of the bivariate packings to limit >= 0, r^i s^j in
    slot i K + j at s = X = 256^w, r = X^K: one more than the bit length
    of the limit, here and only here.  ``matrices`` packs M'(n) with it
    (K of n alone for ``m_prime_of``), and ``hyperbinary`` the h_rs and
    hbar_st ranges and tallies.  A slot holds one term only while every
    s-degree in range is below K.  Those degrees count digits of n <=
    limit, which has limit.bit_length() digits at most: the letters of
    M'(n) (one per digit after the leading 1), the nonleading zeros
    of h_rs(n), the ones of hbar_st(n).  The ones reach the bound, at
    hbar_st(2^b - 1) = s^b, so K can be no smaller."""
    return limit.bit_length() + 1


def fusc_range(limit: int) -> list[int]:
    """[fusc(0), ..., fusc(limit)] bottom up (``halving_range``)."""
    return halving_range(limit, _FUSC_RULE, 0, 1)


def halving(n: int, rule, zero, one, memo: dict | None = None):
    """F(n) for F(0) = zero, F(1) = one and F(x) = rule(x, F) for x >= 2,
    where rule reads F[x // 2] and, for odd x, F[x // 2 + 1].

    Every halving recurrence in the package is one rule for this.  Like
    ``_fusc_pair``, it walks the bits of n from the top and keeps the
    pair F(m), F(m + 1) for the prefix m read so far, which is all the
    next level reads: F(2m) and F(2m + 1) read F(m) and F(m + 1), and
    so do F(2m + 1) and F(2m + 2).  The walk starts at the longest
    prefix whose pair is already known, m = 1 at worst, and builds each
    missing value once, at most two per bit, with no recursion and so
    no depth limit.  ``memo`` doubles as F; without one, only the last
    pair is kept.
    """
    if n < 2:
        return one if n else zero
    f = {} if memo is None else memo
    if n in f:
        return f[n]
    f[1] = one
    j, m = 1, n >> 1
    while m > 1 and not (m in f and m + 1 in f):
        j, m = j + 1, m >> 1
    for j in range(j, 0, -1):
        m = n >> j
        for x in (m, m + 1):
            if x not in f:
                f[x] = rule(x, f)
        if memo is None:
            f = {m: f[m], m + 1: f[m + 1]}
    if n not in f:  # 2 is in the pair of its prefix 1
        f[n] = rule(n, f)
    return f[n]


def halving_range(limit: int, rule, zero, one) -> list:
    """[F(0), ..., F(limit)] for the F of ``halving``, bottom up: one
    ``rule(x, f)`` call per x >= 2, with the list so far as f, which
    holds every value the rule reads."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    f = [zero, one][:limit + 1]
    for x in range(2, limit + 1):
        f.append(rule(x, f))
    return f


def digit_rule(w0, w1, w2):
    """The ``halving`` rule F(2y) = w1 F(y), F(2y+1) = w0 F(y+1) + w2 F(y),
    where w_d weighs appending the digit d: with F(x) = f(x - 1), the
    hyperbinary expansions of 2y - 1 append 1 to those of y - 1, and the
    expansions of 2y append 0 to those of y and 2 to those of y - 1.
    Each weight multiplies from the left.  A product by a ``BiPoly``
    one is the other operand itself, so with w1 = 1 F(2y) is the object
    F(y)."""

    def rule(x: int, f: dict | list):
        half = x >> 1
        if x & 1:
            return w0 * f[half + 1] + w2 * f[half]
        return w1 * f[half]

    return rule


#: fusc weighs each digit by 1, fusc_q each digit d by q^d
_FUSC_RULE = digit_rule(1, 1, 1)
_FUSC_Q_RULE = digit_rule(ONE, qpow(1), qpow(2))


def fusc_q(n: int, memo: dict[int, LaurentPoly] | None = None) -> LaurentPoly:
    """The q-deformed diatomic sequence: packed walk, or ``halving`` with a memo."""
    if n < 0:
        raise ValueError("fusc_q is defined for n >= 0")
    if memo is None:
        w = fusc_width(n)
        return unpack(_fusc_pair(n, 8 * w)[0], w)
    return halving(n, _FUSC_Q_RULE, ZERO, ONE, memo)


def cw(n: int) -> Fraction:
    """The n-th vertex of the Calkin-Wilf enumeration, fusc(n)/fusc(n+1)."""
    from fractions import Fraction  # only cw uses it; kept off every cold start

    if n < 0:
        raise ValueError("cw is defined for n >= 0")
    return Fraction(*_fusc_pair(n))


def cw_q(n: int, memo: dict[int, LaurentPoly] | None = None) -> RatFunc:
    """fusc_q(n)/fusc_q(n+1): one packed walk, or ``halving`` with a memo."""
    if n < 0:
        raise ValueError("cw_q is defined for n >= 0")
    if memo is None:
        w = fusc_width(n)
        return RatFunc(*(unpack(v, w) for v in _fusc_pair(n, 8 * w)))
    return RatFunc(fusc_q(n, memo), fusc_q(n + 1, memo))
