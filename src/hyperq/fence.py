"""Fences attached to n and their order-ideal lattices.

A fence is a word f = b_1 ... b_r over "0" and "1" on elements
x_1, ..., x_r; b_1 is ignored and each later letter orients one step:

    b_i = "0"  =>  x_i < x_{i-1}      (i = 2..r)
    b_i = "1"  =>  x_i > x_{i-1}

The fence of n, ``fence(n)``, is the binary digits of n before the
rightmost zero, the same kind of 0/1 word that ``qrational._word``
spells for a continued fraction.  The lattice of order ideals of the
fence of n is order isomorphic to the lattice of hyperbinary
expansions of n.  With o the indicator of an ideal I (o_0 = 0, o_i = 0
for i > r), let e(I) be the digit string with e_i = o_i - 2 o_{i-1}.
Since s_i = 2 s_{i-1} + d_i, the prefix sums of bottom + e(I) exceed
those of the bottom by exactly o, so the isomorphism is the image
identity

    D(n) = {bottom + e(I) : I an ideal},

with d -> I one to one, and s(c) <= s(d) exactly when the ideal of c
is contained in that of d.  ``iso_check`` decides the identity with one
set comparison of digit strings as bytes, their values in base 256,
and, like ``weight_check``, returns its two sides, which ``verify
mainbij`` runs.

``rgf`` is the rank generating function sum q^|I| over ideals, by the
same fence scan on packed integers (``poly.unpack``).  The weight
identity h_q(n) = q^(r+s) * rgf(1/q), with s the number of ones in the
binary expansion of n, is stated once, by ``weight_check``, which
returns the identity's two sides at one n.  ``weight_checks`` yields
its checks for n = 1..limit, and ``verify weightbij`` runs it.  The
fence of n is a binary prefix of n, so one scan step per prefix, a
``stern.halving_range`` (``_dual_rgf_range``), gives q^r rgf(1/q),
each ideal weighed by the elements it leaves out, for every fence in
range on packed integers at q = 256^w, w = ``stern.range_width(limit)``.
Each, times q^s, is yielded as the claim, with its entry in one
integer range at the same w, ``hyperbinary.h_q_range(limit, w)``, as
the oracle, and a decode into the sides of ``weight_check(n)``, which
``verify`` calls only when the two integers differ.
``qcw_fence`` writes cw_q(n) as a quotient of two rank generating
functions, the identity's corollary.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from functools import partial

from .hyperbinary import (
    Digits,
    _SEP,
    _as_bytes,
    _prefix_length,
    digits_value,
    dot_source,
    expansions,
    h_q,
    h_q_range,
    min_element,
    s_vector,
)
from .poly import LaurentPoly, RatFunc, slot_width, unpack
from .stern import halving_range, range_width


def fence(n: int) -> str:
    """The fence of n: the binary digits of n strictly before the
    rightmost 0, as the 0/1 word ``qrational._word`` also spells; ""
    when the expansion is all ones (including n = 0)."""
    return bin(n)[2:2 + _prefix_length(n)]


def cover_pairs(f: str) -> tuple[tuple[int, int], ...]:
    """(lower, upper) pairs of 1-based element indices of the fence f."""
    return tuple((i - 1, i) if f[i - 1] == "1" else (i, i - 1)
                 for i in range(2, len(f) + 1))


def _scan(f: str, out, inn, merge, grow):
    """The left-to-right scan over the fence f that ``ideals`` and
    ``rgf`` share; f is a 0/1 word, as ``qrational._word`` also spells
    it.  The constraint between x_{i-1} and x_i only involves adjacent
    elements, so partial ideals of x_1..x_i are kept in two classes:
    ``out`` without x_i and ``inn`` with it.  ``merge`` joins two
    classes and ``grow(v, i)`` adds x_i to every member of one.  The
    result merges the final two classes; the empty fence has only the
    empty ideal, ``out``."""
    if not f:
        return out
    for i in range(2, len(f) + 1):
        if f[i - 1] == "1":  # x_i > x_{i-1}: x_i in forces x_{i-1} in
            out, inn = merge(out, inn), grow(inn, i)
        else:  # x_i < x_{i-1}: x_{i-1} in forces x_i in
            inn = grow(merge(out, inn), i)
    return merge(out, inn)


def ideals(f: str) -> tuple[int, ...]:
    """All order ideals as bitsets, sorted by (cardinality, bitset value),
    listed by the fence scan."""
    states = _scan(f, [0], [1], operator.add,
                   lambda masks, i: [m | 1 << (i - 1) for m in masks])
    states.sort(key=lambda m: (bin(m).count("1"), m))
    return tuple(states)


def rgf(f: str) -> LaurentPoly:
    """Rank generating function sum q^|I| over the ideals of the fence
    f, a 0/1 word (``fence(n)`` or a word of ``qrational._word``), by
    the same fence scan without listing the ideals.

    The scan runs twice on integers.  The first pass counts the ideals,
    the value at q = 1, which fixes the slot width w (``slot_width``).
    The second carries each class's polynomial evaluated at q = 256^w,
    so adding x_i is a shift by one slot, and ``unpack`` reads the
    coefficients off the final value."""
    w = slot_width(_scan(f, 1, 1, operator.add, lambda v, i: v))
    step = 8 * w
    return unpack(_scan(f, 1, 1 << step, operator.add, lambda v, i: v << step), w)


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
    head = _reduce(d, s_vector(min_element(n)), len(fence(n)))[0]
    if head is None:
        raise ArithmeticError(f"reduced prefix sums not 0/1 for {d}")
    return head


#: both sides of a passing ``iso_check``
_ISO = "order isomorphism"

#: the bytes of the digits a hyperbinary expansion may use
_HYPERBINARY_DIGITS = bytes((0, 1, 2))


def _image(f: str, bottom: Digits) -> set[bytes]:
    """bottom + e(I) for every ideal I of f, each packed as k bytes.

    Adding x_i to an ideal adds 1 to digit i and -2 to digit i + 1,
    which adds 254 * 256^(k-i-1) to the base-256 value of the string.
    The bottom is longer than the fence, so digit i + 1 exists; a
    shorter one makes the shift count negative, a ValueError.  The
    values come from the fence scan, one addition per ideal and step;
    ``to_bytes`` raises OverflowError on a value outside 0..256^k - 1.
    """
    k = len(bottom)
    v0 = int.from_bytes(bytes(bottom), "big")

    def lift(values, i):
        unit = 254 << 8 * (k - i - 1)
        return [v + unit for v in values]

    values = _scan(f, [v0], lift([v0], 1) if f else [], operator.add, lift)
    return {v.to_bytes(k, "big") for v in values}


def iso_check(n: int, elems: Sequence | None = None) -> tuple[str, str]:
    """Exhaustively confirm D(n) and the ideal lattice are the same order,
    as (expected, actual): ("order isomorphism", "order isomorphism")
    when it holds, else actual is the first failure ``_walk`` names.

    The isomorphism is the image identity D(n) = {bottom + e(I)} over
    the ideals I of the fence (module docstring): d -> I is then one to
    one and onto, and s(c) <= s(d) exactly when the ideal of c is
    contained in that of d.  This is the same verdict as comparing
    domination with containment on every pair.

    The identity is checked as one comparison of sets of bytes.  Each d
    is a bytes object whose byte values are its digits, so its value in
    base 256, and each ideal gives bottom + e(I) from ``_image``.  Every
    d is checked to use only the digits 0, 1, 2, and the bottom, bottom
    + e(empty ideal), is one of them, so bottom + e(I) has digits in
    -2..3.  Two strings of one length whose digits differ by less than
    256 in every position have equal base-256 values only when they are
    equal, so equal byte sets, with no two d alike, mean the identity
    holds.

    Any other outcome, including digits that do not fit a byte, runs
    ``_walk``, the per-element prefix-sum check, which names the first
    failure.

    ``elems`` is D(n) when the caller already has it, say from
    ``expansions_upto``, whose bytes strings are read as they are; a
    listing of int tuples, or of both forms, is converted once as a
    whole.  When omitted, ``expansions(n)`` lists it.  The check takes
    the listing as given, so a wrong listing fails.
    """
    if elems is None:
        elems = expansions(n)
    f = fence(n)
    bottom = min_element(n)
    try:
        strings, joined = _as_bytes(elems)
        distinct = set(strings)
        if (len(distinct) == len(strings) and distinct == _image(f, bottom)
                and joined.translate(None, _HYPERBINARY_DIGITS) == _SEP * (len(strings) - 1)):
            return _ISO, _ISO
    except (ValueError, OverflowError):
        pass
    return _ISO, _walk(elems, f, bottom)


def _walk(elems: Sequence, f: str, bottom: Digits) -> str:
    """The per-element check behind a failed ``iso_check``.  Each s(d)
    must equal s(bottom) beyond coordinate r and exceed it by a 0/1
    vector, the indicator of an ideal, on the first r; the indicators
    must be distinct and be all the ideals.  Returns the first failure
    in that order, naming a string by its digits as an int tuple,
    whichever form it came in.  When all of this holds, the set
    comparison failed because some string is not over 0, 1, 2 or is no
    longer than the fence, so the check still fails."""
    r = len(f)
    s0 = s_vector(bottom)

    masks = set()
    for d in elems:
        head, tail_ok = _reduce(d, s0, r)
        if head is None:
            return f"{tuple(d)}: reduced prefix sums not 0/1"
        if not tail_ok:
            return f"prefix sums of {tuple(d)} leave the bottom's beyond position {r}"
        masks.add(sum(1 << i for i, v in enumerate(head) if v))
    if len(masks) != len(elems):
        return "reduced prefix vectors collide"
    if masks != set(ideals(f)):
        return "image is not the set of ideals"
    return "expansions are not strings over 0, 1, 2 longer than the fence"


# ---------------------------------------------------------------------------
# weight identities


def h_q_fence(n: int) -> LaurentPoly:
    """h_q(n) through the fence: q^(r+s) * rgf(1/q), with r the fence
    size and s the number of ones in binary n."""
    f = fence(n)
    return rgf(f).reverse_var().shift(len(f) + n.bit_count())


def weight_check(n: int, memo: dict[int, LaurentPoly] | None = None
                 ) -> tuple[LaurentPoly, LaurentPoly]:
    """The two sides of h_q(n) = q^(r+s) * rgf(1/q), with r the fence
    size and s the number of ones in the binary expansion of n, as
    (expected, actual) = (h_q_fence(n), h_q(n)); ``verify weightbij``
    compares them for every n through ``weight_checks``.  ``memo`` is
    an h_q memo."""
    return h_q_fence(n), h_q(n, memo)


def _dual_rgf_range(limit: int, step: int) -> list[int]:
    """[R(0), ..., R(limit)] at q = 2^step: R(m) is ``rgf`` of the dual
    of the word bin(m)[2:], every letter after the first flipped.  The
    complement of an ideal is an ideal of the dual fence, so R(m) sums
    q^(r - |I|) over the ideals I of the word, each weighed by the
    elements it leaves out.

    The word of m is the word of m >> 1 and one letter more, so the
    (out, inn) classes of ``_scan`` at m are one scan step from those
    at m >> 1, the letter flipped: the ``stern.halving_range`` of one
    step per m, as ``matrices._packed_range`` takes for M~(n).  m = 0
    holds (1, 0), from which the leading 1 of every m steps to the
    scan's start (1, q); R(0) = 1, the empty fence."""
    def scan_step(m: int, f: list) -> tuple[int, int]:
        out, inn = f[m >> 1]
        return (out, (out + inn) << step) if m & 1 else (out + inn, inn << step)

    return list(map(sum, halving_range(limit, scan_step, (1, 0), (1, 1 << step))))


def _packed_weights(limit: int) -> tuple[int, list[int]]:
    """(w, [c(0), ..., c(limit)]) with c(n) = q^-s h_q_fence(n) at
    q = 256^w, w = ``stern.range_width(limit)``.  The fence of n is the
    word of m = n >> (t + 1), t the trailing ones of n (m = 0 when n is
    all ones), so c(n) = R(m) of ``_dual_rgf_range``, and m <= n >> 1.
    At q = 1, R(m) counts the ideals of the fence of 2m, fusc(2m + 1),
    and each class of the scan at m at most that many, so every
    coefficient fits a slot."""
    w = range_width(limit)
    sums = _dual_rgf_range(limit >> 1, 8 * w)
    return w, [sums[n >> (~n & (n + 1)).bit_length()] for n in range(limit + 1)]


def weight_checks(limit: int):
    """The checks of ``weight_check(n)`` for n = 1..limit, in order, as
    (claim, oracle, decode); nothing when limit < 1.  The claim is the
    packed c(n) of ``_packed_weights``, h_q_fence(n) with its q^s
    dropped, s the number of ones of n, times q^s.  The oracle h_q(n) is
    read from one integer ``h_q_range`` at the same slot width.
    ``decode()`` gives the sides of ``weight_check(n)``: c(n) decoded
    (``poly.unpack``, q^s put back) and h_q(n) decoded."""
    if limit < 1:
        return
    w, claims = _packed_weights(limit)
    hs = h_q_range(limit, w)

    def sides(n, c):
        return unpack(c, w, n.bit_count()), unpack(hs[n + 1], w)

    for n, c in enumerate(claims[1:], 1):
        yield c << 8 * w * n.bit_count(), hs[n + 1], partial(sides, n, c)


def qcw_fence(n: int) -> RatFunc:
    """cw_q(n) written as a quotient of two reversed rank generating
    functions, with the monomial prefix balancing the two weights."""
    if n < 1:
        raise ValueError("n must be >= 1")
    w = len(fence(n)) + n.bit_count()
    return RatFunc(h_q_fence(n - 1).shift(-w), h_q_fence(n).shift(-w))


# ---------------------------------------------------------------------------
# exports


def fence_dot(n: int) -> str:
    """Hasse diagram of the fence in DOT form, edges lower -> upper."""
    f = fence(n)
    return dot_source(f"fence_{n}", (f"x{i}" for i in range(1, len(f) + 1)),
                      ((f"x{lo}", f"x{hi}") for lo, hi in cover_pairs(f)))


def ideal_members(mask: int, size: int) -> list[int]:
    return [i + 1 for i in range(size) if (mask >> i) & 1]


def ideal_label(mask: int, size: int) -> str:
    return "{" + ",".join(f"x{i}" for i in ideal_members(mask, size)) + "}"


def ideals_dot(n: int) -> str:
    """Hasse diagram of the ideal lattice, edges from smaller ideal to
    the ideal with one more element."""
    f = fence(n)
    masks = ideals(f)
    labels = {m: ideal_label(m, len(f)) for m in masks}
    # edges grouped by the smaller ideal, then by the added element,
    # keep the output stable
    edges = ((labels[m], labels[m | 1 << i]) for m in masks for i in range(len(f))
             if not (m >> i) & 1 and (m | 1 << i) in labels)
    return dot_source(f"ideals_{n}", labels.values(), edges)
