"""Fence posets attached to n and their order-ideal lattices.

The principal prefix b_1 ... b_r of the binary expansion (everything
before the rightmost zero) defines a fence on elements x_1, ..., x_r:

    b_i = 0  =>  x_i < x_{i-1}      (i = 2..r)
    b_i = 1  =>  x_i > x_{i-1}

The lattice of order ideals of this fence is order isomorphic to the
lattice of hyperbinary expansions of n; the isomorphism sends an
expansion d to the ideal whose indicator vector is the first r entries
of s(d) - s(bottom).  ``iso_check`` verifies all of this exhaustively
for one n in a single pass over D(n); see its docstring for why that
pass decides the order on every pair.

``rgf`` is the rank generating function sum q^|I| over ideals; the
weight identity h_q(n) = q^(r+s) * rgf(1/q), with s the number of ones
in the binary expansion of n, and its corollary expressing cw_q(n) as
a quotient of two rank generating functions are exposed as checks.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .hyperbinary import (
    Digits,
    digits_value,
    dot_source,
    expansions,
    h_q,
    min_element,
    principal_prefix,
    s_vector,
)
from .poly import LaurentPoly, ONE, RatFunc, qpow
from .stern import cw_q


@dataclass(frozen=True)
class FencePoset:
    """The zigzag poset built from a 0/1 prefix; element i is x_i."""

    bits: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.bits)

    def cover_pairs(self) -> tuple[tuple[int, int], ...]:
        """(lower, upper) pairs of 1-based element indices."""
        out = []
        for i in range(2, len(self.bits) + 1):
            if self.bits[i - 1] == 0:
                out.append((i, i - 1))
            else:
                out.append((i - 1, i))
        return tuple(out)


def fence(n: int) -> FencePoset:
    """The fence of n; empty when the binary expansion is all ones."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return FencePoset(principal_prefix(n))


def is_ideal(f: FencePoset, mask: int) -> bool:
    """Is the bitset (bit i-1 for x_i) downward closed?"""
    for lo, hi in f.cover_pairs():
        if (mask >> (hi - 1)) & 1 and not (mask >> (lo - 1)) & 1:
            return False
    return True


def _scan(f: FencePoset, out, inn, merge, grow):
    """The left-to-right scan over the fence that ``ideals`` and ``rgf``
    share.  The constraint between x_{i-1} and x_i only involves
    adjacent elements, so partial ideals of x_1..x_i are kept in two
    classes: ``out`` without x_i and ``inn`` with it.  ``merge`` joins
    two classes and ``grow(v, i)`` adds x_i to every member of one.
    The result merges the final two classes; the empty fence has only
    the empty ideal, ``out``."""
    if f.size == 0:
        return out
    for i in range(2, f.size + 1):
        if f.bits[i - 1]:  # x_i > x_{i-1}: x_i in forces x_{i-1} in
            out, inn = merge(out, inn), grow(inn, i)
        else:  # x_i < x_{i-1}: x_{i-1} in forces x_i in
            inn = grow(merge(out, inn), i)
    return merge(out, inn)


def ideals(f: FencePoset) -> tuple[int, ...]:
    """All order ideals as bitsets, sorted by (cardinality, bitset value),
    listed by the fence scan."""
    states = _scan(f, [0], [1], operator.add,
                   lambda masks, i: [m | 1 << (i - 1) for m in masks])
    states.sort(key=lambda m: (bin(m).count("1"), m))
    return tuple(states)


def rgf(f: FencePoset) -> LaurentPoly:
    """Rank generating function sum q^|I| over ideals, by the same
    fence scan without listing the ideals."""
    return _scan(f, ONE, qpow(1), operator.add, lambda p, i: p.shift(1))


def rgf_of(n: int) -> LaurentPoly:
    return rgf(fence(n))


def ideal_count(n: int) -> int:
    return rgf_of(n).eval_at_one


# ---------------------------------------------------------------------------
# the order isomorphism with D(n)


def _reduce(d: Digits, s0: tuple[int, ...], r: int) -> tuple[tuple[int, ...] | None, bool]:
    """The first r coordinates of s(d) - s0, or None when they are not
    all 0/1, and whether s(d) equals s0 on every later coordinate."""
    sd = s_vector(d)
    head = tuple(a - b for a, b in zip(sd[:r], s0))
    binary = all(v in (0, 1) for v in head)
    return (head if binary else None), sd[r:] == s0[r:]


def stilde(d: Digits) -> tuple[int, ...]:
    """The first r coordinates of s(d) - s(bottom); always a 0/1 vector
    and the indicator of the ideal matched with d."""
    n = digits_value(d)
    head = _reduce(d, s_vector(min_element(n)), len(principal_prefix(n)))[0]
    if head is None:
        raise ArithmeticError(f"reduced prefix sums not 0/1 for {d}")
    return head


@dataclass(frozen=True)
class IsoReport:
    n: int
    size: int
    passed: bool
    detail: str | None = None


def iso_check(n: int) -> IsoReport:
    """Exhaustively confirm D(n) and the ideal lattice are the same order.

    With s0 = s(bottom) and r the fence size, one pass over D(n) checks
    that every s(d) equals s0 beyond coordinate r and exceeds it by a
    0/1 vector on the first r, the indicator of an ideal.  Then
    s(c) <= s(d) holds exactly when the indicator of c is contained in
    that of d, so once the indicators are distinct and are all the
    ideals, d -> indicator is an order isomorphism: the same verdict as
    comparing domination with containment on every pair, and a failure
    whenever a tail differs.
    """
    elems = expansions(n)
    f = fence(n)
    r = f.size
    s0 = s_vector(min_element(n))
    h = len(elems)

    masks = set()
    for d in elems:
        head, tail_ok = _reduce(d, s0, r)
        if head is None:
            return IsoReport(n, h, False, f"{d}: reduced prefix sums not 0/1")
        if not tail_ok:
            return IsoReport(n, h, False,
                             f"prefix sums of {d} leave the bottom's beyond position {r}")
        masks.add(sum(1 << i for i, v in enumerate(head) if v))
    if len(masks) != h:
        return IsoReport(n, h, False, "reduced prefix vectors collide")
    if masks != set(ideals(f)):
        return IsoReport(n, h, False, "image is not the set of ideals")
    return IsoReport(n, h, True)


# ---------------------------------------------------------------------------
# weight identities


def ones_count(n: int) -> int:
    return n.bit_count()


def _weight(n: int) -> int:
    """r + s: the fence size plus the number of ones in binary n."""
    return len(principal_prefix(n)) + ones_count(n)


def h_q_fence(n: int) -> LaurentPoly:
    """h_q(n) through the fence: q^(r+s) * rgf(1/q)."""
    return rgf_of(n).reverse_var().shift(_weight(n))


def weight_check(n: int, memo: dict[int, LaurentPoly] | None = None) -> bool:
    """h_q(n) = q^(r+s) * rgf(1/q) with r the fence size and s the
    number of ones in the binary expansion of n."""
    return h_q(n, memo) == h_q_fence(n)


def qcw_fence(n: int) -> RatFunc:
    """cw_q(n) written as a quotient of two reversed rank generating
    functions, with the monomial prefix balancing the two weights."""
    if n < 1:
        raise ValueError("n must be >= 1")
    w = _weight(n)
    return RatFunc(h_q_fence(n - 1).shift(-w), h_q_fence(n).shift(-w))


def qcw_fence_check(n: int, memo: dict[int, LaurentPoly] | None = None) -> bool:
    return qcw_fence(n) == cw_q(n, memo)


# ---------------------------------------------------------------------------
# exports


def fence_dot(n: int) -> str:
    """Hasse diagram of the fence in DOT form, edges lower -> upper."""
    f = fence(n)
    return dot_source(f"fence_{n}", (f"x{i}" for i in range(1, f.size + 1)),
                      ((f"x{lo}", f"x{hi}") for lo, hi in f.cover_pairs()))


def ideal_members(mask: int, size: int) -> list[int]:
    return [i + 1 for i in range(size) if (mask >> i) & 1]


def ideal_label(mask: int, size: int) -> str:
    return "{" + ",".join(f"x{i}" for i in ideal_members(mask, size)) + "}"


def ideals_dot(n: int) -> str:
    """Hasse diagram of the ideal lattice, edges from smaller ideal to
    the ideal with one more element."""
    f = fence(n)
    masks = ideals(f)
    labels = {m: ideal_label(m, f.size) for m in masks}
    # edges grouped by the smaller ideal keep the output stable
    edges = ((labels[m], labels[other]) for m in masks for other in masks
             if m & ~other == 0 and (other ^ m).bit_count() == 1)
    return dot_source(f"ideals_{n}", labels.values(), edges)
