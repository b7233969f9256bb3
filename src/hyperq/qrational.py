"""q-deformed rationals and their two computation routes.

A reduced rational r/s >= 0 has a continued fraction [a1; a2, ..., am]
(canonical: a1 >= 0, a_i >= 1, last term >= 2 unless m = 1).  Its
q-deformation replaces each partial quotient by a q-integer, with the
variable inverted at alternate depths:

    [a1, a2, a3, ...]_q = [a1]_q + q^a1 / ( [a2]_{1/q} + q^-a2 / ( ... ))

evaluated bottom up as one 2x2 step per partial quotient on a
(numerator, denominator) pair,

    (P, Q) <- ([a]_q P + q^a Q, P)    ([a]_{1/q} and q^-a at even depth),

so (P, Q) is the product of the matrices (([a]_q, q^a), (1, 0)), one
per partial quotient, applied to (1, 0): the q-SL(2) product form.  P
and Q have nonnegative coefficients, so the steps run on the pair
evaluated at q = 256^w, one integer each (``_packed_cf``), decoded by
``poly.unpack``; ``verify``'s qrat sweep compares that packed pair
itself.  The result is the explicit quotient P/Q, never reduced.  The
value does not depend on which continued fraction representation of
r/s is used.

The run-length word of [a1, ..., am], a1 ones, a2 zeros, a3 ones, ...,
is read twice.  Reversed, it is the binary expansion of the Calkin-Wilf
index n with cw(n) = r/s (``cw_index``, odd-length expansion).  As a
left arc per one and a right arc per zero, it orients the path whose
closure sets give an independent route for r/s > 1 (Morier-Genoud and
Ovsienko): with both end vertices deleted, the closure sets are the
order ideals of a fence (``fence.rgf``), and ``qdeform_via_graph`` is
R(a1, ..., am) / R(0, a2, ..., am) with R their generating function
``closure_poly``.
"""

from __future__ import annotations

from .poly import LaurentPoly, RatFunc, slot_width, unpack


class UnsupportedDomain(ValueError):
    """An input outside the domain a construction is stated for; the
    CLI exits with ``exit_code``."""

    exit_code = 3


# ---------------------------------------------------------------------------
# continued fractions and the Calkin-Wilf index


def cf_expand(r: int, s: int) -> list[int]:
    """Canonical continued fraction of r/s (r >= 0, s >= 1, reduced or
    not): a1 >= 0, inner terms >= 1, last term >= 2 when there is more
    than one."""
    if s < 1 or r < 0:
        raise ValueError("need r >= 0 and s >= 1")
    out = []
    while s:
        a, rem = divmod(r, s)
        out.append(a)
        r, s = s, rem
    return out


def cf_odd(r: int, s: int) -> list[int]:
    """The unique odd-length representation of r/s: split a trailing
    a_m >= 2 into (a_m - 1, 1) when the canonical expansion has even
    length."""
    cf = cf_expand(r, s)
    if len(cf) % 2 == 0:
        return cf[:-1] + [cf[-1] - 1, 1]
    return cf


def cw_index(r: int, s: int) -> int:
    """The unique n >= 1 with cw(n) = r/s, for positive r and s: n in
    binary is the word of the odd-length continued fraction, reversed.
    Non-reduced input gives the index of its reduced form: kr/ks has
    the continued fraction of r/s."""
    if r < 1 or s < 1:
        raise ValueError("need r >= 1 and s >= 1")
    return int(_word(cf_odd(r, s))[::-1], 2)


def _word(cf: list[int]) -> str:
    """The word of [a1, ..., am]: a1 ones, a2 zeros, a3 ones, ..."""
    return "".join(("1" if i % 2 == 0 else "0") * a for i, a in enumerate(cf))


# ---------------------------------------------------------------------------
# the q-deformation, continued fraction route


def qdeform(r: int, s: int) -> RatFunc:
    """[r/s]_q as an explicit RatFunc; [0/s]_q = 0."""
    if s < 1 or r < 0:
        raise ValueError("need r >= 0 and s >= 1")
    return qdeform_cf(cf_expand(r, s))


def qdeform_cf(cf: list[int]) -> RatFunc:
    """Evaluate a continued fraction's q-deformation bottom up.

    From (P, Q) = (1, 0), each partial quotient a_i, deepest first, is
    one 2x2 step (P, Q) <- (B P + N Q, P), with B = [a_i]_q, N = q^a_i
    at odd depth i (1-based) and B = [a_i]_{1/q}, N = q^-a_i at even
    depth; the value is P/Q.

    Every P and Q has nonnegative coefficients, at most its value at
    q = 1, and those values are the integer continuants.  A first pass
    (P, Q) <- (a P + Q, P) on integers never lowers max(P, Q), so the
    final pair's larger value is the largest and fixes the slot width
    w.  The second pass, ``_packed_cf``, runs at q = 256^w.
    """
    if not cf:
        raise ValueError("empty continued fraction")
    p, q = 1, 0
    for a in reversed(cf):
        if a < 0:
            raise ValueError(f"partial quotient a{cf.index(a) + 1} = {a} is negative")
        p, q = a * p + q, p
    w = slot_width(max(p, q))
    p, q, lo = _packed_cf(cf, 8 * w)
    return RatFunc(unpack(p, w, lo), unpack(q, w, lo))


def _packed_cf(cf: list[int], step: int) -> tuple[int, int, int]:
    """(P, Q, lo) with the q-deformation of cf equal to q^lo P / q^lo Q,
    P and Q polynomials in q given by their values at q = 2^step, a
    multiple of 8 that leaves every coefficient its own slot.  [a]_q is
    the repunit of a slots and [a]_{1/q} = q^-(a-1) [a]_q, so an even
    step lowers lo by a and shifts the rest up:
    (P, Q) <- (q^-a (q [a]_q P + Q), q^-a q^a P)."""
    unit = b"\1".ljust(step >> 3, b"\0")
    p, q, lo = 1, 0, 0
    for i in range(len(cf), 0, -1):
        a = cf[i - 1]
        ones = int.from_bytes(unit * a, "little")
        if i % 2 == 1:
            p, q = ones * p + (q << step * a), p
        else:
            p, q = (ones * p << step) + q, p << step * a
            lo -= a
    return p, q, lo


# ---------------------------------------------------------------------------
# the closure-set route (r/s > 1 only)


def closure_poly(cf: list[int]) -> LaurentPoly:
    """Generating function sum q^|X| over the closure sets X of the
    oriented path of [a1, ..., am]: no arc may leave X.

    The path has N = a1 + ... + am edges, the first a1 pointing left,
    the next a2 right, alternating, and both end vertices are deleted,
    keeping N - 1 vertices and the N - 2 inner edges.  An arc u -> v
    says v is in X whenever u is, so the closure sets are the order
    ideals of the fence that rises at each left arc and falls at each
    right one: the 0/1 word ``_word(cf)`` without its last letter, a
    fence as ``fence.fence`` spells one, whose first letter ``rgf`` ignores."""
    from .fence import rgf  # only this route needs the fence
    return rgf(_word(cf)[:-1])


def qdeform_via_graph(r: int, s: int) -> RatFunc:
    """[r/s]_q for r/s > 1 as R(a1, ..., am) / R(0, a2, ..., am), with
    R = ``closure_poly``: deleting the first a1 vertices of the path of
    [a1, ..., am] leaves the path of [0, a2, ..., am], just as the
    denominator of [a1; a2, ...] is the numerator of [a2; ...]."""
    if s < 1 or r < 0:
        raise ValueError("need r >= 0 and s >= 1")
    if r <= s:
        raise UnsupportedDomain("the closure-set route needs r/s > 1")
    cf = cf_expand(r, s)
    return RatFunc(closure_poly(cf), closure_poly([0] + cf[1:]))
