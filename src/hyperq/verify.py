"""Exhaustive sweeps that confirm the package's identities on ranges.

Each sweep is a generator of ``(where, claim, oracle, decode)`` checks
over its range; ``_sweep`` registers it and turns it into
``verify_<name>(bound)``, which times the checks, counts them and
returns a ``VerifyReport``.  ``_sweep`` is the one place that compares:
a check passes where claim equals oracle, and only a mismatch calls
``decode()`` for the (expected, actual) sides as polynomials, which
fail the check only if they differ.  Everything is exact arithmetic; a
failure records where it happened plus expected/actual renderings.
mainbij yields the two sides that the library's check
``fence.iso_check`` returns, and gg two ``RatFunc`` values, whose
equality short-circuits two quotients of equal shape; both have no
decode.  weightbij yields the checks of ``fence.weight_checks``, the
range form of ``fence.weight_check``, mnthm and mprime those of
``matrices.row_sum_checks`` and ``matrices.m_prime_checks``, the range
forms of ``row_sum_check`` and ``m_prime_check``, and mnent those of
``matrices.entries_checks``, so each of those identities is written
down in the library.  Those four range forms read their oracle from one
integer range (``hyperbinary.h_q_range`` or ``h_rs_range``, the
recurrence run on integers at the claim's packing), yield integers as
claim and oracle, with a decode into the polynomials of the per-n
check, and yield nothing below their range.  hrs and hbar do the same
with their tallies over D(n): each is summed as one integer and
compared with one entry of ``h_q_range``, ``h_rs_range`` or
``hbar_st_range`` at the slots of ``hyperbinary._tally_slots``, and
the polynomials are built only for a failure or a listing off the
window sums' path (D(0), and every D(n) with n >= 2^15), whose decoded
sides are equal and pass.  hbar compares two tallies, its ones and
twos with ``hbar_st_range`` and its digit sums with ``h_q_range``, so
it specializes no polynomial to pass.  qrat compares packed integer
pairs too: its claim from ``h_q_range``, its oracle from the packed
pass of ``qrational.qdeform_cf``, each pair rid of its common power of
q, and decodes ``RatFunc`` values, so that a value of another shape
still passes.  Each decode binds its values when it is yielded, so
the checks may be collected before any is decoded.  A bound above
``sys.maxsize`` (2^63 - 1 on a 64-bit build) raises ``OverflowError``
before any check: no range or list can have that many entries.
Sweeps are single threaded and iterate in increasing order, so reports
are deterministic.  Each builds its own state: a range, or private
memo dicts, one per memoized function.

``hbar`` deserves a word: the literal halving recurrence usually quoted
for the (ones, twos) generating function drops a factor in the odd case
and is ambiguous about the variable in the even case.  Enumeration is
treated as ground truth; the verifier validates the corrected
recurrence and reports, informationally, where each literal reading
first disagrees with enumeration.  Those notes are not failures.
"""

from __future__ import annotations

import sys
import time
from functools import partial, wraps
from math import gcd

from . import hyperbinary as hb
from . import matrices as mx
from . import qrational as qr
from . import stern
from .fence import iso_check, weight_checks
from .poly import BiPoly, RatFunc, slot_width, unpack, unpack_bi

Failure = tuple[str, str, str]  # where, expected, actual


class VerifyReport:
    """One sweep's outcome: its range lo..hi, how many checks ran, the
    failures as rendered (where, expected, actual), the time taken and
    informational notes."""

    __slots__ = ("theorem", "lo", "hi", "checked", "failures", "elapsed_s", "notes")

    def __init__(self, theorem: str, lo: int, hi: int, checked: int,
                 failures: list[Failure], elapsed_s: float, notes: list[str] | None = None):
        self.theorem = theorem
        self.lo = lo
        self.hi = hi
        self.checked = checked
        self.failures = failures
        self.elapsed_s = elapsed_s
        self.notes = [] if notes is None else notes

    def __eq__(self, other: object) -> bool:  # and so, being mutable, no hash
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "lo": self.lo,
            "hi": self.hi,
            "checked": self.checked,
            "failures": [list(f) for f in self.failures],
            "notes": list(self.notes),
            "elapsed_s": round(self.elapsed_s, 3),
            "passed": self.passed,
        }

    def lines(self) -> list[str]:
        status = "PASS" if self.passed else "FAIL"
        out = [
            f"{status} {self.theorem} range={self.lo}..{self.hi} "
            f"checked={self.checked} elapsed={self.elapsed_s:.2f}s"
        ]
        for where, expected, actual in self.failures[:10]:
            out.append(f"  at {where}: expected {expected}, got {actual}")
        if len(self.failures) > 10:
            out.append(f"  ... and {len(self.failures) - 10} more failures")
        for note in self.notes:
            out.append(f"  note: {note}")
        return out


def _text(v) -> str:
    """One side of a check as text: a string as is, a pair of
    polynomials as ``(a, b)``, anything else by its ``text()``."""
    if isinstance(v, str):
        return v
    if isinstance(v, tuple):
        return "(" + ", ".join(x.text() for x in v) + ")"
    return v.text()


#: name -> (function, default bound, what the bound ranges over)
REGISTRY: dict[str, tuple] = {}


def _sweep(default: int, kind: str = "n", lo: int = 1, render=_text, notes=None):
    """Register the generator ``verify_<name>(bound)`` as sweep ``name``.

    The generator yields ``(where, claim, oracle, decode)`` per check,
    ``where`` an n or an "r/s".  The returned function counts every
    check and passes it where ``claim == oracle``.  Only a mismatch
    calls ``decode()``, for the (expected, actual) sides as
    polynomials, and fails where those differ; a ``decode`` of None
    takes claim and oracle as the sides.  It renders a failure, its
    ``where`` by ``str`` and its sides by ``render``, and appends
    ``notes(bound)``, all inside one timer.  Each ``decode`` binds its
    values when it is yielded, so that a caller may collect the checks
    before it decodes any.
    """
    def register(checks):
        name = checks.__name__.removeprefix("verify_")

        @wraps(checks)
        def run(bound: int = default) -> VerifyReport:
            if bound > sys.maxsize:  # no range or list can have that many entries
                raise OverflowError(f"bound {bound} is too large to index")
            t0 = time.perf_counter()
            failures: list[Failure] = []
            checked = 0
            for checked, (where, claim, oracle, decode) in enumerate(checks(bound), 1):
                if claim != oracle:
                    expected, actual = decode() if decode else (claim, oracle)
                    if expected != actual:
                        failures.append((str(where), render(expected), render(actual)))
            return VerifyReport(name, lo, bound, checked, failures,
                                time.perf_counter() - t0, notes(bound) if notes else [])

        REGISTRY[name] = (run, default, kind)
        return run
    return register


def _without_common_q(a: int, b: int, step: int) -> tuple[int, int]:
    """(a, b) divided by the largest power of q = 2^step dividing both."""
    v = a | b
    k = ((v & -v).bit_length() - 1) // step * step
    return a >> k, b >> k


@_sweep(10_000)
def verify_qrat(max_n):
    """[cw(n)]_q = q * cw_q(n) for 1 <= n <= max_n.  One fusc range
    gives r/s = cw(n) and the slot width w; at q = 256^w, the claim's
    (q fusc_q(n), fusc_q(n+1)) comes from ``h_q_range``, and [r/s]_q
    from its packed continued fraction pass (``qr._packed_cf``).  Each
    pair is divided by its largest common power of q and the two are
    compared as integers; a mismatch decodes them as ``RatFunc``
    values, the claim decoded against ``qr.qdeform(r, s)``."""
    fr = stern.fusc_range(max_n + 1)
    w = slot_width(max(fr))
    step = 8 * w
    hq = hb.h_q_range(max_n, w)

    def sides(n):
        return RatFunc(unpack(hq[n], w, 1), unpack(hq[n + 1], w)), qr.qdeform(fr[n], fr[n + 1])

    for n in range(1, max_n + 1):
        p, q, _ = qr._packed_cf(qr.cf_expand(fr[n], fr[n + 1]), step)
        yield (n, _without_common_q(hq[n] << step, hq[n + 1], step),
               _without_common_q(p, q, step), partial(sides, n))


@_sweep(4096)
def verify_mainbij(max_n):
    """D(n) is order isomorphic to the ideal lattice of the fence.  D(n)
    comes from one ``expansions_upto`` stream for the sweep, its strings
    as bytes, which ``iso_check`` compares as a set with the images of
    the ideals."""
    for n, elems in enumerate(hb.expansions_upto(max_n, 1), 1):
        yield n, *iso_check(n, elems), None


@_sweep(16_384)
def verify_weightbij(max_n):
    """h_q(n) = q^(r+s) * rgf(1/q) for 1 <= n <= max_n."""
    for n, check in enumerate(weight_checks(max_n), 1):
        yield n, *check


@_sweep(16_384, lo=2, render=lambda m: " | ".join(e.text() for e in m.entries()))
def verify_mnent(max_n):
    """entries_formula(n) equals the word product M(n) entrywise."""
    for n, check in enumerate(mx.entries_checks(max_n), 2):
        yield n, *check


@_sweep(16_384)
def verify_mnthm(max_n):
    """M(n) (1,1)^T = (q^-k h_q(n-1), q^-k-1 h_q(n))^T."""
    for n, check in enumerate(mx.row_sum_checks(max_n), 1):
        yield n, *check


@_sweep(16_384)
def verify_mprime(max_n):
    """M'(n) (1,1)^T = (h_rs(n-1), h_rs(n))^T."""
    for n, check in enumerate(mx.m_prime_checks(max_n), 1):
        yield n, *check


@_sweep(4096, lo=0)
def verify_hrs(max_n):
    """Enumeration equals recurrence for h_q and h_rs, and the closed
    forms match enumeration on every applicable n in range.  D(n) comes
    from one ``expansions_upto`` stream for the sweep, its strings as
    bytes, joined and checked once per n; ``hb._packed_tallies`` sums
    each string's digit sum, and its twos and nonleading zeros, as
    integers, each in a fixed number of C calls over the joined
    listing, and hbar_st is not tallied.  The recurrences are the
    integer ranges ``h_q_range`` and ``h_rs_range`` at the slot width of
    the largest |D(n)|; a tally that is not its entry, or off the window
    sums' path, decodes as the polynomial of ``h_q_enum`` or
    ``h_rs_enum`` against the entry decoded.  The closed form is weighed
    at the same q as one integer, the sum of its terms, and compared
    the same way."""
    if max_n < 0:
        return
    w, k, q_shifts, rs_shifts = hb._tally_slots(max_n)
    hq, hrs = hb.h_q_range(max_n, w), hb.h_rs_range(max_n, w, k)
    tables = (hb._HQ_WEIGHTS, None, q_shifts), (hb._RS_WEIGHTS, hb._RS_LEAD, rs_shifts)

    def q_sides(n, elems, value):
        return hb.h_q_enum(n, elems), unpack(value, w)

    def rs_sides(n, elems, value):
        return hb.h_rs_enum(n, elems), unpack_bi(value, w, k)

    for n, elems in enumerate(hb.expansions_upto(max_n)):
        tq, trs = hb._packed_tallies(elems, 8 * w, *tables)
        yield n, tq, hq[n + 1], partial(q_sides, n, elems, hq[n + 1])
        yield n, trs, hrs[n + 1], partial(rs_sides, n, elems, hrs[n + 1])
        if hb.h_q_closed_form_applies(n):
            closed = sum(c << 8 * w * e for e, c in hb.h_q_closed_form(n).terms())
            yield n, tq, closed, partial(q_sides, n, elems, closed)


@_sweep(50, kind="r,s")
def verify_gg(max_rs):
    """The closure-set quotient equals the continued-fraction value for
    every reduced r/s > 1 with r, s <= max_rs."""
    for s in range(1, max_rs + 1):
        for r in range(s + 1, max_rs + 1):
            if gcd(r, s) == 1:
                yield f"{r}/{s}", qr.qdeform(r, s), qr.qdeform_via_graph(r, s), None


def _hbar_notes(max_n: int) -> list[str]:
    """Informational: where the literal recurrence readings first break."""
    names = hb.HBAR_NAMES
    memo: dict[int, BiPoly] = {}

    def hbar(n: int) -> BiPoly:
        return hb.hbar_st(n, memo)

    s2 = BiPoly.monomial(1, 0, 2)
    ms = range(1, max_n // 2 + 1)
    notes = []
    m = next((m for m in ms if hbar(2 * m - 1) != hbar(m - 1)), None)
    if m is not None:
        notes.append(
            f"literal odd rule hbar(2n-1) = hbar(n-1) (no s factor) first fails at n={m}: "
            f"hbar({2 * m - 1}) = {hbar(2 * m - 1).text(names)} but "
            f"hbar({m - 1}) = {hbar(m - 1).text(names)}; "
            f"corrected rule hbar(2n-1) = s*hbar(n-1) verified on the whole range"
        )
    m = next((m for m in ms if hbar(2 * m) != hbar(m) + s2 * hbar(m - 1)), None)
    if m is not None:
        notes.append(
            f"literal even rule read as hbar(2n) = hbar(n) + s^2*hbar(n-1) first fails at n={m}: "
            f"hbar({2 * m}) = {hbar(2 * m).text(names)}; "
            f"reading the q^2 factor as t instead (hbar(2n) = hbar(n) + t*hbar(n-1)) "
            f"verified on the whole range"
        )
    return notes


@_sweep(4096, lo=0, notes=_hbar_notes,
        render=lambda v: f"({v[0].text(hb.HBAR_NAMES)}, {v[1].text()})")
def verify_hbar(max_n):
    """hbar_st by enumeration equals the corrected recurrence and
    specializes (s -> q, t -> q^2) to h_q; the literal textbook
    recurrence readings are diagnosed in the notes.  One check per n
    compares (enumeration, h_q) with (recurrence, its specialization).
    D(n) comes from one ``expansions_upto`` stream for the sweep, its
    strings as bytes; ``hb._packed_tallies`` sums each string's ones
    and twos as one integer, and its digit sum p1 + 2 p2 as another, in
    a fixed number of C calls over the joined listing.  They are
    compared, as the pair claim, with the pair oracle of the integer
    ranges ``hbar_st_range`` and ``h_q_range``: given the first
    equality, the second is the specialization's.  A mismatch, or a
    listing off the window sums' path, decodes: the ones and twos are
    tallied as a polynomial (``hbar_st_enum``), which is weighed
    p1 + 2 p2 as one integer, and a passing n gives (tally, h_q)
    against (recurrence, h_q), both entries decoded.  Only a failure
    specializes the recurrence (``BiPoly.specialize``) to render its
    actual side."""
    if max_n < 0:
        return
    w, k, q_shifts, st_shifts = hb._tally_slots(max_n)
    hq, hbar = hb.h_q_range(max_n, w), hb.hbar_st_range(max_n, w, k)
    tables = (hb._HBAR_WEIGHTS, None, st_shifts), (hb._HQ_WEIGHTS, None, q_shifts)

    def sides(n, elems, tally):
        rec, h = unpack_bi(hbar[n + 1], w, k), unpack(hq[n + 1], w)
        expected = hb.hbar_st_enum(n, elems), h
        weighed = sum(c << 8 * w * (j + 2 * i) for (i, j), c in expected[0].terms())
        if tally is not None or expected[0] != rec or weighed != hq[n + 1]:
            h = rec.specialize(2, 1)
        return expected, (rec, h)

    for n, elems in enumerate(hb.expansions_upto(max_n)):
        tallies = hb._packed_tallies(elems, 8 * w, *tables)
        yield n, tallies, [hbar[n + 1], hq[n + 1]], partial(sides, n, elems, tallies[0])


def run_verify(name: str, max_n: int | None = None) -> list[VerifyReport]:
    """Run one named verifier, or all of them.

    ``max_n`` overrides each verifier's default range bound.  Under
    ``all`` the override applies to the n-indexed sweeps only; gg keeps
    its own pair bound, since an n bound and an r,s bound are not
    comparable scales.
    """
    if name == "all":
        out = []
        for key, (func, default, kind) in REGISTRY.items():
            bound = default if (max_n is None or kind != "n") else max_n
            out.append(func(bound))
        return out
    if name not in REGISTRY:
        raise KeyError(f"unknown verifier {name!r}")
    func, default, _ = REGISTRY[name]
    return [func(default if max_n is None else max_n)]
