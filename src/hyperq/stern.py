"""Stern's diatomic sequence, its q-analogue, and the Calkin-Wilf walk.

``fusc`` is the diatomic sequence 0, 1, 1, 2, 1, 3, 2, 3, ...; the map
n -> fusc(n)/fusc(n+1) runs through every nonnegative reduced rational
exactly once.  ``fusc_q`` replaces the integer values by Laurent
polynomials in q via

    fusc_q(2n)   = q * fusc_q(n)
    fusc_q(2n+1) = fusc_q(n+1) + q^2 * fusc_q(n)

with fusc_q(0) = 0 and fusc_q(1) = 1, and ``cw_q(n)`` is the quotient
fusc_q(n)/fusc_q(n+1).

Memo dicts are owned by the caller: verification sweeps pass one dict
for the whole sweep and drop it afterwards, so repeated sweeps never
share state and single calls stay allocation-light.  A dict memoizes
one function only; never hand a fusc_q memo to h_q or vice versa.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import ONE, ZERO, LaurentPoly, RatFunc


def fusc(n: int) -> int:
    """Stern's diatomic sequence, iteratively over the bits of n.

    No recursion, so arbitrarily large n (say 10**9 or a few hundred
    bits) is fine.
    """
    if n < 0:
        raise ValueError("fusc is defined for n >= 0")
    return _fusc_pair(n)[0]


def _fusc_pair(n: int) -> tuple[int, int]:
    """(fusc(n), fusc(n+1)) by one walk over the bits of n from the top,
    keeping (fusc(m), fusc(m+1)) for the prefix m read so far."""
    a, b = 0, 1
    for bit in bin(n)[2:] if n else "":
        if bit == "0":
            b = a + b
        else:
            a = a + b
    return a, b


def fusc_range(limit: int) -> list[int]:
    """[fusc(0), ..., fusc(limit)] bottom up."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    out = [0] * (limit + 1)
    if limit >= 1:
        out[1] = 1
    for n in range(1, limit // 2 + 1):
        out[2 * n] = out[n]
        if 2 * n + 1 <= limit:
            out[2 * n + 1] = out[n] + out[n + 1]
    return out


def fusc_q(n: int, memo: dict[int, LaurentPoly] | None = None) -> LaurentPoly:
    """The q-deformed diatomic sequence as a Laurent polynomial."""
    if n < 0:
        raise ValueError("fusc_q is defined for n >= 0")
    if memo is None:
        memo = {}
    return _fusc_q(n, memo)


def _fusc_q(n: int, memo: dict[int, LaurentPoly]) -> LaurentPoly:
    if n <= 1:
        return ZERO if n == 0 else ONE
    got = memo.get(n)
    if got is not None:
        return got
    half, odd = divmod(n, 2)
    if odd:
        val = _fusc_q(half + 1, memo) + _fusc_q(half, memo).shift(2)
    else:
        val = _fusc_q(half, memo).shift(1)
    memo[n] = val
    return val


def cw(n: int) -> Fraction:
    """The n-th vertex of the Calkin-Wilf enumeration, fusc(n)/fusc(n+1)."""
    if n < 0:
        raise ValueError("cw is defined for n >= 0")
    return Fraction(*_fusc_pair(n))


def cw_q(n: int, memo: dict[int, LaurentPoly] | None = None) -> RatFunc:
    """The q-deformed Calkin-Wilf value fusc_q(n)/fusc_q(n+1)."""
    if n < 0:
        raise ValueError("cw_q is defined for n >= 0")
    if memo is None:
        memo = {}
    return RatFunc(_fusc_q(n, memo), _fusc_q(n + 1, memo))
