"""Hyperbinary expansions of n and the lattice structure on them.

A hyperbinary expansion of n is a digit string d_1 ... d_k over
{0, 1, 2} with sum(d_i * 2^(k-i)) = n and k the length of the binary
expansion of n.  The public functions take and return digit strings
as plain tuples of ints, most significant digit first; n = 0 has the
single empty expansion ().  Inside the D(n) stream, ``expansions_upto``,
a digit string is a ``bytes`` object whose byte values are its digits
0, 1, 2: appending a digit is then one copy of the string, and the
tallies and ``fence.iso_check`` read a listing of them as one joined
``bytes`` object, with methods that run in C.  ``expansions`` converts
that form to int tuples once, at its return.

The set D(n) of all expansions satisfies the recursion

    D(2n+1) = { psi . 1          : psi in D(n)   }
    D(2n)   = { psi . 0          : psi in D(n)   }
            u { pad(chi . 2)     : chi in D(n-1) }

(pad = at most one leading zero, needed exactly when n is a power of
two).  Ordering D(n) by partial-sum domination of prefixes makes it a
distributive lattice; covers, meet and join are all computed through
the prefix-sum vectors.

Generating functions counted here:

    h_q(n)    = sum q^ell,        ell = (number of ones) + 2*(number of twos)
    h_rs(n)   = sum r^t s^z,      t = twos, z = zeros right of the first
                                  nonzero digit
    hbar_st(n) = sum s^p1 t^p2,   p1 = ones, p2 = twos

Each has an enumeration form (the oracle) and a halving recurrence
form; verification sweeps compare the two.  With f(-1) the empty sum,
F(x) = f(x - 1) has the shape of fusc: F(2y) = w1 F(y) and
F(2y+1) = w0 F(y+1) + w2 F(y), where w_d weighs appending the digit d
(``stern.digit_rule``).  The digit weights (w0, w1, w2) are

    h_q      (1, q, q^2),  so h_q(n) is fusc_q(n + 1)
    h_rs     (s, 1, r)
    hbar_st  (1, s, t)

So each recurrence, and the list D(n) itself, is one rule for
``stern.halving`` at n + 1, whose walk carries the pair F(m), F(m + 1)
down the prefixes m of n + 1.  Memo dicts are caller owned, exactly as
in stern, one table per recurrence and keyed by n + 1: an h_q memo is
a fusc_q memo.  ``h_q_range``, ``h_rs_range`` and ``hbar_st_range``
list every value up to a limit, bottom up (``stern.halving_range``),
indexed by n + 1 as the memos are, on integers: each polynomial at
q = X = 256^w, or for the bivariate ones the second variable at X and
the first at X^K, K = ``stern.bi_stride(limit)``, every weight a power
of X, so a step is two products by powers of two and an add.
``_packed_tallies`` sums a listing's tallies as integers at the same
X and K (``_tally_slots``), which the ``hrs`` and ``hbar`` sweeps
compare with those ranges; ``poly.unpack`` and ``unpack_bi`` decode
either.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from itertools import repeat
from operator import lshift

from .poly import BiPoly, LaurentPoly, qint, qpow
from .stern import bi_stride, digit_rule, fusc, fusc_q, halving, halving_range, range_width

Digits = tuple[int, ...]


# ---------------------------------------------------------------------------
# digit strings


def binary_expansion(n: int) -> Digits:
    """The binary digits of n, most significant first; () for n = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return ()
    return tuple(map(int, bin(n)[2:]))


def _zeros(n: int) -> int:
    """The zeros of n's binary expansion, all after its leading 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return n.bit_length() - n.bit_count()


def _prefix_length(n: int) -> int:
    """The length of the principal prefix of n: the index of the
    rightmost 0 of its binary expansion, or 0 when there is none.  That
    0 sits above the trailing ones, whose count is the bit length of
    ~n & (n + 1), less one."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return max(n.bit_length() - (~n & (n + 1)).bit_length(), 0)


def digits_value(d: Digits) -> int:
    """The integer a digit string stands for."""
    v = 0
    for dig in d:
        v = 2 * v + dig
    return v


def digits_text(d: Digits) -> str:
    return "".join(str(dig) for dig in d)


# ---------------------------------------------------------------------------
# enumeration


def expansions(n: int, memo: dict[int, tuple[bytes, ...]] | None = None) -> tuple[Digits, ...]:
    """All hyperbinary expansions of n, lexicographically decreasing.

    The first entry is always the binary expansion, the last the bottom
    element of the lattice.  ``memo`` maps m + 1 to D(m), each string
    held as bytes; without one, D(n) is built from scratch.  To list
    D(n) for every n of a range in increasing order,
    ``expansions_upto`` shares the work between neighbours and holds
    only O(log n) of the lists.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return tuple(map(tuple, _listing(n, memo)))


def _listing(n: int, memo: dict[int, tuple[bytes, ...]] | None = None) -> tuple[bytes, ...]:
    """D(n) in ``expansions`` order, each string as bytes; D(-1) is empty."""
    if n < -1:
        raise ValueError("n must be >= -1")
    return halving(n + 1, _expansions_rule, (), (b"",), memo)


def expansions_upto(limit: int, start: int = 0) -> Iterator[tuple[bytes, ...]]:
    """D(start), D(start + 1), ..., D(limit), each the strings of
    ``expansions(n)`` in its order, as bytes whose byte values are the
    digits: ``tuple(map(bytes, expansions(n)))``.

    One private memo serves the whole stream.  After each n it keeps
    only the pairs x, x + 1 for the prefixes x = n + 2, (n + 2) >> 1,
    ..., 1 of the next argument, where the walk of ``stern.halving`` for
    D(n + 1) starts.  So between two values the stream holds at most
    2 * (limit + 2).bit_length() lists, and it builds about two new ones
    per n where ``expansions(n)`` alone rebuilds its whole chain.  The
    memo is updated in place: the prefixes a of n + 1 and b = a + 1 of
    n + 2 differ on the trailing ones of n + 1 and agree below, so only
    the a of those levels leave, and never 1, 2 or 3, which every chain
    holds.
    """
    if start < 0:
        raise ValueError("start must be >= 0")
    memo: dict[int, tuple[bytes, ...]] = {}
    for n in range(start, limit + 1):
        yield _listing(n, memo)
        a, b = n + 1, n + 2
        while a != b and a > 3:
            memo.pop(a, None)
            a, b = a >> 1, b >> 1


def _expansions_rule(x: int, f: dict[int, tuple[bytes, ...]]) -> tuple[bytes, ...]:
    # D(x - 1) from D(m) = f[m + 1]: D(2m+1) appends 1 to D(m), which
    # keeps its order; D(2m) appends 0 to D(m) and 2 to D(m - 1)
    half = x >> 1
    if not x & 1:
        return tuple([psi + b"\1" for psi in f[half]])
    out = [psi + b"\0" for psi in f[half + 1]]
    if half & (half - 1):
        out += [chi + b"\2" for chi in f[half]]
    else:  # half a power of two: one leading zero of padding
        out += [b"\0" + chi + b"\2" for chi in f[half]]
    out.sort(reverse=True)
    return tuple(out)


#: the byte between the strings of a joined listing: no hyperbinary digit
_SEP = b"\3"


def _as_bytes(elems: Sequence) -> tuple[Sequence[bytes], bytes]:
    """A listing of digit strings with every string as bytes, and those
    strings joined with ``_SEP`` between them.  The listing is itself
    when its strings all are bytes, as ``expansions_upto`` yields them,
    else a tuple of all of them converted, int tuples and bytes alike.
    The join tells the two apart, since ``bytes`` of a bytes object is a
    copy that costs more than the join.  A digit outside 0..255 raises
    ValueError."""
    try:
        return elems, _SEP.join(elems)
    except TypeError:
        elems = tuple(map(bytes, elems))
        return elems, _SEP.join(elems)


def h_count(n: int) -> int:
    """How many hyperbinary expansions n has: fusc(n + 1), without
    listing them, in O(log n) steps."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return fusc(n + 1)


# ---------------------------------------------------------------------------
# statistics and generating functions


def stats(d: Digits) -> dict[str, int]:
    """Digit statistics of one expansion, in ``hyper --stats`` column
    order: ell = p1 + 2*p2 is the weight tracked by h_q, t = p2, and z
    counts the zeros strictly to the right of the leftmost nonzero digit
    (leading zeros are free)."""
    p1, p2 = d.count(1), d.count(2)
    lead = 0
    while lead < len(d) and d[lead] == 0:
        lead += 1
    return {"ell": p1 + 2 * p2, "p1": p1, "p2": p2, "t": p2, "z": d.count(0) - lead}


# The enumeration tallies.  Each reads the listing it is handed, or D(n)
# when it is handed none, as its strings joined (``_as_bytes``).  When
# every string has one length k < _BASE and only the digits 0, 1, 2,
# ``_window_sums`` weighs each digit with one ``translate``, sums each
# string's weights with one product and counts the sums with one
# Counter: a fixed number of C calls per listing, which covers the D(n)
# stream for every 0 < n < 2^15.  Any other listing takes the general
# path, C passes that call ``bytes`` methods once per string.  The
# ``*_enum`` tallies lay the Counter out as a polynomial;
# ``_packed_tallies`` sums it as one integer instead, and checks the
# listing once for several tables.

#: a weight x + _BASE y holds two digit counts x, y <= k < _BASE, and k
#: weights of at most _BASE each sum to less than 256.  Each table
#: weighs the digits 0, 1, 2 and the separator by 0.
_BASE = 16
_HQ_WEIGHTS = bytes((0, 1, 2)).ljust(256, b"\0")  # ell = p1 + 2 p2
_RS_WEIGHTS = bytes((1, 0, _BASE)).ljust(256, b"\0")  # z + _BASE t
_RS_LEAD = bytes((0, 0, _BASE)).ljust(256, b"\0")  # a leading zero is free
_HBAR_WEIGHTS = bytes((0, 1, _BASE)).ljust(256, b"\0")  # p1 + _BASE p2


def _stride(strings: Sequence[bytes], joined: bytes) -> int:
    """k when every string has the one length 0 < k < _BASE and only
    the digits 0, 1, 2, so that ``_window_sums`` can read the listing;
    else 0 (a _SEP off the stride, or a byte that is no digit)."""
    m = len(strings)
    k = (len(joined) + 1) // m - 1 if m else 0
    if (0 < k < _BASE and len(joined) == m * (k + 1) - 1
            and joined.translate(None, b"\0\1\2") == joined[k::k + 1] == _SEP * (m - 1)):
        return k
    return 0


def _window_sums(strings: Sequence[bytes], joined: bytes, table: bytes,
                 lead: bytes | None = None, k: int | None = None) -> Counter | None:
    """The Counter of the strings' weights, each the sum of ``table``
    over its digits (of ``lead`` on its first digit when given), or None
    when the listing needs the general path.  The weights of ``joined``,
    read as one little-endian integer, times the repunit of k bytes hold
    in each byte the sum of the k bytes up to it, at byte
    j (k + 1) + k - 1 string j's sum; no k weights reach 256, so no byte
    carries.  ``lead`` frees one leading zero, so two or more take the
    general path.  ``k`` is ``_stride(strings, joined)``, passed by a
    caller that tallies one listing more than once."""
    if k is None:
        k = _stride(strings, joined)
    if not k or lead is not None and (joined.startswith(b"\0\0") or _SEP + b"\0\0" in joined):
        return None
    weights = joined.translate(table)
    if lead is not None:
        weights = bytearray(weights)
        weights[::k + 1] = joined[::k + 1].translate(lead)
    sums = int.from_bytes(weights, "little") * ((256 ** k - 1) // 255)
    return Counter(sums.to_bytes(len(joined) + k, "little")[k - 1::k + 1])


def _tally_slots(limit: int) -> tuple[int, int, list[int], list[int]]:
    """(w, K, q shifts, bivariate shifts) for the tallies over D(0), ...,
    D(limit) and the integer ranges they are compared with.  Each
    coefficient counts expansions, so w is ``stern.range_width(limit)``,
    and K is ``stern.bi_stride(limit)``.  A shift list gives
    ``_packed_tallies`` the place 8 w (x + j y) of each window sum
    x + _BASE y below 256: a count of s^x r^y at s = 256^w, r = 256^(w K)
    for j = K, and of q^(x + _BASE y) at q = 256^w for j = _BASE."""
    w, k = range_width(limit), bi_stride(limit)
    return w, k, *([8 * w * (v % _BASE + j * (v // _BASE)) for v in range(256)] for j in (_BASE, k))


def _packed_tallies(elems: Sequence, bits: int, *tables) -> list[int | None]:
    """The tallies of one listing, one per (table, lead, shifts) of
    ``tables``, ``_window_sums`` taking the first two, each summed as an
    integer: sum of c 2^shifts[v] over its {v: c} (``_tally_slots``), the
    polynomial of ``h_q_enum`` at q = 2^bits, or of ``h_rs_enum`` or
    ``hbar_st_enum`` at s = 2^bits, r = t = 2^(bits k).  The listing is
    joined and checked once for them all.  None for a tally on the
    general path, and for all of them when the listing has 2^bits
    strings or more, so that a count could leave its slot."""
    strings, joined = _as_bytes(elems)
    k = 0 if len(strings) >> bits else _stride(strings, joined)
    out = []
    for table, lead, shifts in tables:
        c = _window_sums(strings, joined, table, lead, k)
        out.append(None if c is None else sum(map(lshift, c.values(), map(shifts.__getitem__, c))))
    return out


def h_q_enum(n: int, elems: Sequence | None = None) -> LaurentPoly:
    """h_q(n) = sum of q^ell over D(n), with ell the digit sum: the
    window sums of the digits, or one ``sum`` per string."""
    strings, joined = _as_bytes(_listing(n) if elems is None else elems)
    sums = _window_sums(strings, joined, _HQ_WEIGHTS)
    return LaurentPoly(Counter(map(sum, strings)) if sums is None else sums)


def h_rs_enum(n: int, elems: Sequence | None = None) -> BiPoly:
    """h_rs(n) = sum of r^t s^z over D(n): the window sums of
    z + _BASE t, a zero weighing 1 except in the first position, or a
    pass counting twos zipped with one taking z as the zero count of
    the string with its leading zeros stripped."""
    strings, joined = _as_bytes(_listing(n) if elems is None else elems)
    sums = _window_sums(strings, joined, _RS_WEIGHTS, _RS_LEAD)
    if sums is None:
        twos = map(bytes.count, strings, repeat(2))
        zeros = map(bytes.count, map(bytes.lstrip, strings, repeat(b"\0")), repeat(0))
        return BiPoly(Counter(zip(twos, zeros)))
    return BiPoly({divmod(w, _BASE): c for w, c in sums.items()})


def hbar_st_enum(n: int, elems: Sequence | None = None) -> BiPoly:
    """hbar_st(n) = sum of s^p1 t^p2 over D(n): the window sums of
    p1 + _BASE p2, or a pass counting twos zipped with one counting
    ones."""
    strings, joined = _as_bytes(_listing(n) if elems is None else elems)
    sums = _window_sums(strings, joined, _HBAR_WEIGHTS)
    if sums is None:
        twos = map(bytes.count, strings, repeat(2))
        ones = map(bytes.count, strings, repeat(1))
        return BiPoly(Counter(zip(twos, ones)))
    return BiPoly({divmod(w, _BASE): c for w, c in sums.items()})


def enum_polys(n: int, elems: Sequence | None = None
               ) -> tuple[LaurentPoly, BiPoly, BiPoly]:
    """(h_q(n), h_rs(n), hbar_st(n)) straight from the enumeration:
    D(n) is listed, or a given listing converted, at most once, and each
    of ``h_q_enum``, ``h_rs_enum`` and ``hbar_st_enum`` reads it on its
    own."""
    elems = _listing(n) if elems is None else _as_bytes(elems)[0]
    return h_q_enum(n, elems), h_rs_enum(n, elems), hbar_st_enum(n, elems)


def h_q(n: int, memo: dict[int, LaurentPoly] | None = None) -> LaurentPoly:
    """h_q(n) = fusc_q(n + 1), the q-analogue of h_count; h_q(-1) = 0.
    ``memo`` is a fusc_q memo: without one, fusc_q's packed walk runs."""
    if n < -1:
        raise ValueError("h_q is defined for n >= -1")
    return fusc_q(n + 1, memo)


def _int_range(limit: int, w0: int, w1: int, w2: int) -> list[int]:
    """[F(0), ..., F(limit + 1)] on integers for the digit weights
    (w0, w1, w2): f(-1), ..., f(limit) at index n + 1."""
    if limit < -1:
        raise ValueError("limit must be >= -1")
    return halving_range(limit + 1, digit_rule(w0, w1, w2), 0, 1)


def h_q_range(limit: int, w: int) -> list[int]:
    """[h_q(-1), h_q(0), ..., h_q(limit)] at q = X = 256^w, h_q(n) at
    index n + 1: the digit weights (1, X, X^2).  Every coefficient must
    be below X (``stern.range_width(limit)``); ``poly.unpack(v, w)``
    decodes an entry."""
    return _int_range(limit, 1, 256 ** w, 256 ** (2 * w))


# F(0) and F(1) of the bivariate recurrences, built once
_BI_ZERO = BiPoly.zero()
_BI_ONE = BiPoly.one()

# the two variables of a BiPoly: h_rs(n) is in (r, s), r marking a
# digit 2 and s a nonleading zero; hbar_st(n) is in (t, s), t marking a
# digit 2 and s a digit 1.  The weight-two variable takes the first
# exponent slot in both, so increasing-lex rendering lists lighter
# terms first.
_X1 = BiPoly.monomial(1, 1, 0)
_X2 = BiPoly.monomial(1, 0, 1)

#: digit weights (w0, w1, w2): h_rs is (s, 1, r), hbar_st is (1, s, t)
_H_RS_RULE = digit_rule(_X2, _BI_ONE, _X1)
_HBAR_ST_RULE = digit_rule(_BI_ONE, _X2, _X1)


def h_rs(n: int, memo: dict[int, BiPoly] | None = None) -> BiPoly:
    """h_rs(n) by recurrence: appending 1 is free, 0 costs s, 2 costs r."""
    if n < -1:
        raise ValueError("h_rs is defined for n >= -1")
    return halving(n + 1, _H_RS_RULE, _BI_ZERO, _BI_ONE, memo)


def h_rs_range(limit: int, w: int, k: int) -> list[int]:
    """[h_rs(-1), h_rs(0), ..., h_rs(limit)] at s = X = 256^w, r = X^k,
    h_rs(n) at index n + 1: the digit weights (X, 1, X^k).  Every
    coefficient must be below X and every s-degree below k
    (``stern.bi_stride(limit)``); ``poly.unpack_bi(v, w, k)`` decodes an
    entry."""
    return _int_range(limit, 256 ** w, 1, 256 ** (w * k))


HBAR_NAMES = ("t", "s")


def hbar_st(n: int, memo: dict[int, BiPoly] | None = None) -> BiPoly:
    """hbar_st(n) by recurrence: appending 1 costs s, 0 is free, 2 costs t.

    Specializing t -> q^2, s -> q (``specialize(2, 1)``) recovers
    h_q(n) term by term.  Render with ``text(HBAR_NAMES)``.
    """
    if n < -1:
        raise ValueError("hbar_st is defined for n >= -1")
    return halving(n + 1, _HBAR_ST_RULE, _BI_ZERO, _BI_ONE, memo)


def hbar_st_range(limit: int, w: int, k: int) -> list[int]:
    """[hbar_st(-1), ..., hbar_st(limit)] at s = X = 256^w, t = X^k, as
    ``h_rs_range``: the digit weights (1, X, X^k)."""
    return _int_range(limit, 1, 256 ** w, 256 ** (w * k))


def h_q_closed_form(n: int) -> LaurentPoly:
    """h_q(n) in closed form for the two special digit shapes.

    binary expansion 1^r       ->  q^r
    binary expansion 1^r 0 1^s ->  q^(r+s) + ... + q^(2r+s)

    Raises ValueError when the expansion is not of either shape; use
    ``h_q_closed_form_applies`` to test first.
    """
    zeros = _zeros(n)
    if not zeros:
        return qpow(n.bit_length())
    if zeros == 1:
        # the one zero is the rightmost: r is the prefix length, r + s + 1 digits
        return qint(_prefix_length(n) + 1).shift(n.bit_length() - 1)
    raise ValueError(f"binary expansion of {n} has more than one zero")


def h_q_closed_form_applies(n: int) -> bool:
    return _zeros(n) <= 1


# ---------------------------------------------------------------------------
# the lattice order on D(n)


def s_vector(d: Digits) -> tuple[int, ...]:
    """Prefix sums s_i = sum_{j<=i} d_j 2^(i-j); s_i(c) <= s_i(d) for all
    i is exactly the lattice order, and s_k recovers n."""
    out = []
    acc = 0
    for dig in d:
        acc = 2 * acc + dig
        out.append(acc)
    return tuple(out)


def leq(c: Digits, d: Digits) -> bool:
    """Lattice order: prefix-sum domination in every coordinate, in one
    pass over s_i(d) - s_i(c).  It may return to 0 after going negative,
    so the pass reads to the end to check both strings expand one n."""
    diff, below = 0, True
    for a, b in zip(c, d):
        diff = 2 * diff + b - a
        if diff < 0:
            below = False
    if diff or len(c) != len(d):
        raise ValueError("digit strings do not expand the same n")
    return below


def covers(d: Digits) -> tuple[Digits, ...]:
    """The elements covered by d: rewrite one adjacent pair (x, 0) with
    x > 0 into (x-1, 2), which lowers a single prefix sum by one."""
    out = []
    for i in range(len(d) - 1):
        if d[i] > 0 and d[i + 1] == 0:
            out.append(d[:i] + (d[i] - 1, 2) + d[i + 2:])
    out.sort(reverse=True)
    return tuple(out)


def min_element(n: int) -> Digits:
    """The bottom of D(n), in closed form."""
    b = binary_expansion(n)
    r = _prefix_length(n)
    if not r:
        # all ones: D(n) is a single point
        return b
    mid = tuple(dig + 1 for dig in b[1:r])
    return (0,) + mid + (2,) + (1,) * (len(b) - r - 1)


def meet(c: Digits, d: Digits) -> Digits:
    """Greatest lower bound, through coordinatewise min of prefix sums."""
    return _lattice_op(c, d, min)


def join(c: Digits, d: Digits) -> Digits:
    """Least upper bound, through coordinatewise max of prefix sums."""
    return _lattice_op(c, d, max)


def _lattice_op(c: Digits, d: Digits, pick) -> Digits:
    sc, sd = s_vector(c), s_vector(d)
    if len(sc) != len(sd) or sc[-1:] != sd[-1:]:
        raise ValueError("digit strings do not expand the same n")
    sm = tuple(pick(a, b) for a, b in zip(sc, sd))
    out = []
    prev = 0
    for s in sm:
        dig = s - 2 * prev
        if dig not in (0, 1, 2):
            raise ArithmeticError("prefix-sum vector does not reconstruct to digits in {0,1,2}")
        out.append(dig)
        prev = s
    return tuple(out)


def join_irreducibles(n: int) -> tuple[Digits, ...]:
    """The join irreducibles of D(n) in closed form: split n at each
    position of the principal prefix as n = q*2^(k-i) + m and glue the
    bottom elements of the two halves."""
    k = n.bit_length()
    out = []
    for i in range(1, _prefix_length(n) + 1):
        left = min_element(n >> (k - i))
        right = min_element(n & ((1 << (k - i)) - 1))
        pad = k - len(left) - len(right)
        out.append(left + (0,) * pad + right)
    out.sort(reverse=True)
    return tuple(out)


# ---------------------------------------------------------------------------
# exports


def dot_source(name: str, nodes: Iterable[str], edges: Iterable[tuple[str, str]]) -> str:
    """A bottom-to-top DOT digraph with the given node labels and
    (lower, upper) label pairs as edges, in the order given."""
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    lines += [f'  "{v}";' for v in nodes]
    lines += [f'  "{a}" -> "{b}";' for a, b in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def lattice_dot(n: int) -> str:
    """Hasse diagram of D(n) in DOT form, edges from covered to covering."""
    elems = expansions(n)
    return dot_source(f"hyperbinary_{n}", map(digits_text, elems),
                      ((digits_text(c), digits_text(d)) for d in elems for c in covers(d)))


def stats_rows(n: int) -> list[dict]:
    """One JSON-ready row per expansion."""
    return [{"digits": digits_text(d), **stats(d), "s_vector": list(s_vector(d))}
            for d in expansions(n)]
