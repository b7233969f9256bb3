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
evaluated at q = 256^w, one integer each (``poly.unpack``).  The
result is the explicit quotient P/Q, never reduced.  The value does
not depend on which continued fraction representation of r/s is used.

``cw_index`` inverts the Calkin-Wilf enumeration: it turns the odd
length continued fraction into the run-length blocks of a bit string,
reverses it, and reads off the index n with cw(n) = r/s.

For r/s > 1 there is an independent route through closure sets of an
oriented path: ``qdeform_via_graph`` builds the path, deletes end
vertices, and forms the quotient of closure-set generating functions.
"""

from __future__ import annotations

from math import gcd

from .poly import LaurentPoly, ONE, RatFunc, slot_width, unpack


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
    """The unique n >= 1 with cw(n) = r/s, for positive r and s.

    The odd-length continued fraction [a1, ..., am] spells a bit
    string of a1 ones, a2 zeros, a3 ones, ...; reversing it gives the
    binary expansion of n.  Non-reduced input is reduced first.
    """
    if r < 1 or s < 1:
        raise ValueError("need r >= 1 and s >= 1")
    g = gcd(r, s)
    cf = cf_odd(r // g, s // g)
    bits = []
    for i, a in enumerate(cf):
        bits.append(("1" if i % 2 == 0 else "0") * a)
    word = "".join(bits)[::-1]
    return int(word, 2)


# ---------------------------------------------------------------------------
# the q-deformation, continued fraction route


def qdeform(r: int, s: int) -> RatFunc:
    """[r/s]_q as an explicit RatFunc; [0/s]_q = 0."""
    if s < 1 or r < 0:
        raise ValueError("need r >= 0 and s >= 1")
    if r == 0:
        return RatFunc.zero()
    g = gcd(r, s)
    cf = cf_expand(r // g, s // g)
    return qdeform_cf(cf)


def qdeform_cf(cf: list[int]) -> RatFunc:
    """Evaluate a continued fraction's q-deformation bottom up.

    From (P, Q) = (1, 0), each partial quotient a_i, deepest first, is
    one 2x2 step (P, Q) <- (B P + N Q, P), with B = [a_i]_q, N = q^a_i
    at odd depth i (1-based) and B = [a_i]_{1/q}, N = q^-a_i at even
    depth; the value is P/Q.

    Every P and Q has nonnegative coefficients, at most its value at
    q = 1, and those values are the integer continuants, so a first
    pass (P, Q) <- (a P + Q, P) on integers finds the largest and fixes
    the slot width w.  The second pass writes P and Q as one common
    power q^lo times polynomials in q, and carries those two as their
    values at q = 256^w.  [a]_q is the repunit of a slots and
    [a]_{1/q} = q^-(a-1) [a]_q, so an even step lowers lo by a and
    shifts the rest up: (P, Q) <- (q^-a (q [a]_q P + Q), q^-a q^a P).
    """
    if not cf:
        raise ValueError("empty continued fraction")
    top = p = 1
    q = 0
    for a in reversed(cf):
        p, q = a * p + q, p
        top = max(top, p)
    w = slot_width(top)
    step = 8 * w
    unit = b"\1" + bytes(w - 1)
    p, q, lo = 1, 0, 0
    for i in range(len(cf), 0, -1):
        a = cf[i - 1]
        ones = int.from_bytes(unit * a, "little")
        if i % 2 == 1:
            p, q = ones * p + (q << step * a), p
        else:
            p, q = (ones * p << step) + q, p << step * a
            lo -= a
    return RatFunc(unpack(p, w, lo), unpack(q, w, lo))


# ---------------------------------------------------------------------------
# the closure-set route (r/s > 1 only)


class OrientedPath:
    """A path graph u_1 - u_2 - ... - u_k with each edge oriented.

    arcs[i] describes the edge between u_{i+1} and u_{i+2}: True means
    it points right (u_{i+1} -> u_{i+2}), False left.  k = len(arcs)+1
    vertices; the empty graph is modelled by vertices = 0.  A value,
    immutable by convention.
    """

    __slots__ = ("vertices", "arcs")

    def __init__(self, vertices: int, arcs: tuple[bool, ...]):
        if vertices < 0 or (vertices == 0 and arcs) or (
            vertices > 0 and len(arcs) != vertices - 1
        ):
            raise ValueError("arc count must be vertices - 1")
        self.vertices = vertices
        self.arcs = arcs

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertices, self.arcs) == (other.vertices, other.arcs)

    def __hash__(self) -> int:
        return hash((self.vertices, self.arcs))

    def __repr__(self) -> str:
        return f"OrientedPath(vertices={self.vertices!r}, arcs={self.arcs!r})"


def closure_graph(cf: list[int]) -> OrientedPath:
    """The oriented path for [a1, ..., am]: N = sum(a_i) edges, the
    first a1 pointing left, next a2 right, alternating; both end
    vertices of the underlying (N+1)-vertex path are deleted, keeping
    the N-1 inner vertices and the N-2 inner edges."""
    n_edges = sum(cf)
    directions = []
    for i, a in enumerate(cf):
        directions.extend([i % 2 == 1] * a)
    inner = directions[1:-1] if n_edges >= 2 else []
    vertices = max(n_edges - 1, 0)
    return OrientedPath(vertices, tuple(inner))


def left_delete(g: OrientedPath, count: int) -> OrientedPath:
    """Remove the leftmost ``count`` vertices (clamped at the empty graph)."""
    keep = max(g.vertices - count, 0)
    return OrientedPath(keep, g.arcs[len(g.arcs) - max(keep - 1, 0):] if keep else ())


def closure_poly(g: OrientedPath) -> LaurentPoly:
    """Generating function sum q^|X| over closure sets X: no arc may
    leave X.  An arc u -> v says v is in X whenever u is, so the closure
    sets are the order ideals of the fence that falls at each right arc
    and rises at each left one, and ``fence.rgf`` counts them."""
    if g.vertices == 0:
        return ONE
    from .fence import FencePoset, rgf  # only this route needs the fence
    return rgf(FencePoset((0,) + tuple(0 if right else 1 for right in g.arcs)))


def qdeform_via_graph(r: int, s: int) -> RatFunc:
    """[r/s]_q for r/s > 1 as closure polynomial of the path over the
    closure polynomial of the path with the first block deleted."""
    if s < 1 or r < 0:
        raise ValueError("need r >= 0 and s >= 1")
    if r <= s:
        raise UnsupportedDomain("the closure-set route needs r/s > 1")
    g = gcd(r, s)
    cf = cf_expand(r // g, s // g)
    big = closure_graph(cf)
    small = left_delete(big, cf[0])
    return RatFunc(closure_poly(big), closure_poly(small))
