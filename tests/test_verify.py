"""The verification sweeps: registry, reports, determinism."""

from collections import Counter

import pytest

import hyperq.fence as fe
import hyperq.hyperbinary as hb
import hyperq.matrices as mx
import hyperq.verify as verify_module
from hyperq import qrational as qr
from hyperq import stern
from hyperq.poly import ONE, BiPoly, LaurentPoly, RatFunc, qint, qpow, unpack, unpack_bi
from hyperq.verify import REGISTRY, VerifyReport, run_verify


def test_registry_shape():
    assert set(REGISTRY) == {"qrat", "mainbij", "weightbij", "mnent",
                             "mnthm", "mprime", "hrs", "gg", "hbar"}
    for name, (func, default, kind) in REGISTRY.items():
        assert callable(func)
        assert isinstance(default, int) and default > 0
        assert kind in {"n", "r,s"}


def test_every_verifier_passes_on_a_small_range():
    for name, (_, _, kind) in REGISTRY.items():
        bound = 48 if kind == "n" else 12
        (rep,) = run_verify(name, bound)
        assert rep.theorem == name
        assert rep.passed, (name, rep.failures[:3])
        assert rep.failures == []
        assert rep.checked > 0
        assert rep.elapsed_s >= 0.0


def test_run_verify_all_covers_registry():
    reports = run_verify("all", 32)
    assert [r.theorem for r in reports] == list(REGISTRY)
    assert all(r.passed for r in reports)
    by_name = {r.theorem: r for r in reports}
    # n-indexed sweeps take the override; the pair sweep keeps its default
    assert by_name["qrat"].hi == 32
    assert by_name["mnent"].hi == 32 and by_name["mnent"].checked == 31
    assert by_name["gg"].hi == 50


@pytest.mark.parametrize("bound", [0, -1])
def test_every_sweep_passes_an_empty_range(bound):
    """Below its range every sweep checks nothing and passes; hrs and
    hbar start at n = 0, so at bound 0 they check n = 0 alone, and under
    ``all`` gg keeps its own bound.  The packed matrix and weight ranges
    size nothing for an empty range."""
    for name in REGISTRY:
        (rep,) = run_verify(name, bound)
        assert rep.passed and rep.failures == [] and rep.hi == bound
        assert rep.checked == {("hrs", 0): 3, ("hbar", 0): 1}.get((name, bound), 0)
    for rep in run_verify("all", bound):
        assert rep.passed
        if rep.theorem not in ("hrs", "hbar", "gg"):
            assert rep.checked == 0 and rep.hi == bound
    assert [list(mx.row_sum_checks(bound)), list(mx.entries_checks(bound)),
            list(mx.m_prime_checks(bound)), list(fe.weight_checks(bound))] == [[]] * 4
    assert list(mx.entries_checks(1)) == []


def test_unknown_name_raises():
    with pytest.raises(KeyError):
        run_verify("nonesuch", 8)


def test_default_bounds_used_when_max_missing():
    (rep,) = run_verify("gg", None)
    assert rep.hi == REGISTRY["gg"][1]


def test_report_to_dict():
    (rep,) = run_verify("qrat", 16)
    d = rep.to_dict()
    assert set(d) == {"theorem", "lo", "hi", "checked", "failures",
                      "notes", "elapsed_s", "passed"}
    assert d["theorem"] == "qrat" and d["lo"] == 1 and d["hi"] == 16
    assert d["checked"] == 16 and d["passed"] is True
    assert d["failures"] == [] and isinstance(d["notes"], list)
    assert d["elapsed_s"] == round(d["elapsed_s"], 3)


def test_report_lines_pass_format():
    (rep,) = run_verify("mnthm", 16)
    first = rep.lines()[0]
    assert first.startswith("PASS mnthm range=1..16 checked=16 elapsed=")
    assert first.endswith("s")


def test_report_lines_failure_truncation():
    failures = [(str(i), "x", "y") for i in range(12)]
    rep = VerifyReport("demo", 1, 12, 12, failures, 0.5, notes=["context"])
    assert not rep.passed
    lines = rep.lines()
    assert lines[0].startswith("FAIL demo range=1..12")
    assert lines[1] == "  at 0: expected x, got y"
    assert len([l for l in lines if l.startswith("  at ")]) == 10
    assert "  ... and 2 more failures" in lines
    assert lines[-1] == "  note: context"


def test_report_equality_and_default_notes():
    """Field by field, with notes defaulting to a fresh empty list;
    reports are mutable and so not hashable."""
    a = VerifyReport("demo", 1, 2, 2, [], 0.5)
    assert a.notes == [] and a.notes is not VerifyReport("demo", 1, 2, 2, [], 0.5).notes
    assert a == VerifyReport("demo", 1, 2, 2, [], 0.5, notes=[])
    assert a != VerifyReport("demo", 1, 2, 2, [], 0.5, notes=["x"])
    with pytest.raises(TypeError):
        hash(a)


def test_hbar_notes_diagnose_literal_readings():
    (rep,) = run_verify("hbar", 32)
    assert rep.passed
    assert len(rep.notes) == 2
    odd_note, even_note = rep.notes
    assert "first fails at n=1" in odd_note
    assert "s*hbar(n-1)" in odd_note
    assert "first fails at n=1" in even_note
    assert "t instead" in even_note


def test_reports_deterministic_modulo_elapsed():
    def snap(reports):
        return [
            {k: v for k, v in r.to_dict().items() if k != "elapsed_s"}
            for r in reports
        ]

    assert snap(run_verify("all", 24)) == snap(run_verify("all", 24))


def test_hrs_checked_counts_enums_and_closed_forms():
    (rep,) = run_verify("hrs", 16)
    # two comparisons per n, plus one when a closed form applies
    assert rep.checked >= 2 * 17
    assert rep.lo == 0 and rep.hi == 16


def test_runner_counts_and_renders_failures(monkeypatch):
    # weightbij with every packed claim 0: each n fails, its claim
    # decoded as the zero polynomial
    monkeypatch.setattr(fe, "_packed_weights", lambda limit: (1, [0] * (limit + 1)))
    (rep,) = run_verify("weightbij", 3)
    assert rep.checked == 3 and not rep.passed
    assert rep.failures[0] == ("1", "0", "q")
    assert len(rep.failures) == 3

    # hbar: one check per n, both sides rendered as pairs; every tally
    # empty, so each packed one is 0 and each fallback polynomial zero
    monkeypatch.setattr(hb, "_window_sums", lambda *_: Counter())
    (rep,) = run_verify("hbar", 1)
    assert rep.checked == 2
    assert rep.failures == [("0", "(0, 1)", "(1, 1)"), ("1", "(0, q)", "(s, q)")]


def _empty_sums(monkeypatch, table):
    """``hb._window_sums`` with the tally under ``table`` empty for every
    listing: the packed tally 0, and the polynomial built from it zero."""
    real = hb._window_sums

    def planted(strings, joined, tab, *rest):
        return Counter() if tab is table else real(strings, joined, tab, *rest)

    monkeypatch.setattr(hb, "_window_sums", planted)


def test_hrs_compares_its_tallies_with_the_recurrences(monkeypatch):
    """hrs reads its enumeration side through the module's tallies, so a
    wrong tally fails against the recurrence (and, for h_q, the closed
    form) instead of the recurrence being compared with itself."""
    _empty_sums(monkeypatch, hb._RS_WEIGHTS)
    (rep,) = run_verify("hrs", 2)
    assert rep.checked == 9 and not rep.passed
    assert rep.failures == [("0", "0", "1"), ("1", "0", "1"), ("2", "0", "s + r")]

    monkeypatch.undo()
    _empty_sums(monkeypatch, hb._HQ_WEIGHTS)
    (rep,) = run_verify("hrs", 2)
    assert rep.checked == 9
    # per n: the recurrence, then the closed form (0, 1 and 2 all have one)
    assert rep.failures == [("0", "0", "1"), ("0", "0", "1"),
                            ("1", "0", "q"), ("1", "0", "q"),
                            ("2", "0", "q + q^2"), ("2", "0", "q + q^2")]


def _identity_range(limit, u, r, s):
    """``mx._packed_range`` with every M(n) the identity: held as
    2^(u z) I, z the zeros of n after its leading 1, since the L letter's
    diagonal is 2^u (q for M~(n) = q^z M(n), 1 for M'(n))."""
    return [None] + [(1 << u * z, 0, 0, 1 << u * z)
                     for z in map(mx._zeros, range(1, limit + 1))]


@pytest.mark.parametrize("name,failures", [
    ("mnthm",
     [("2", "(1, q^-1 + 1)", "(1, 1)"), ("3", "(1 + q, 1)", "(1, 1)"),
      ("4", "(1, q^-2 + q^-1 + 1)", "(1, 1)")]),
    ("mprime",
     [("2", "(1, s + r)", "(1, 1)"), ("3", "(s + r, 1)", "(1, 1)"),
      ("4", "(1, s^2 + r + r s)", "(1, 1)")]),
])
def test_matrix_sweeps_render_the_checks_sides(monkeypatch, name, failures):
    """mnthm and mprime compare the two sides that ``row_sum_checks`` and
    ``m_prime_checks`` return: with every packed matrix replaced by the
    identity, the actual side is (1, 1) and the expected side is
    unchanged."""
    monkeypatch.setattr(mx, "_packed_range", _identity_range)
    (rep,) = run_verify(name, 4)
    assert rep.checked == 4
    assert rep.failures == failures


@pytest.mark.parametrize("name", ["mainbij", "hrs", "hbar"])
def test_lattice_sweeps_read_one_stream(monkeypatch, name):
    """mainbij, hrs and hbar list D(n) once per sweep: a D(10) that loses
    its bottom fails there, and the sweep builds about two lists per n."""
    rule = hb._expansions_rule
    calls = 0

    def dropped(x, f):
        nonlocal calls
        calls += 1
        out = rule(x, f)
        return out[:-1] if x == 11 else out

    monkeypatch.setattr(hb, "_expansions_rule", dropped)
    (rep,) = run_verify(name, 64)
    assert not rep.passed
    assert rep.failures[0][0] == "10"
    if name == "mainbij":
        assert rep.failures[0] == ("10", "order isomorphism", "image is not the set of ideals")
    # listing each n on its own makes 450 rule calls up to 64
    assert calls <= 2 * (64 + 2)


# --------------------------------------------------------- planted defects

def _plant(monkeypatch, module, name, at, change):
    """Replace ``module.name`` by the real function with ``change``
    applied to its result for the leading arguments ``at`` alone."""
    real = getattr(module, name)

    def planted(*args):
        out = real(*args)
        return change(out) if args[:len(at)] == at else out

    monkeypatch.setattr(module, name, planted)


def _one_more(p):
    """p with one added to its lowest coefficient."""
    return p + qpow(p.min_exp)


def _up(p):
    """p with its lo off by one."""
    return p.shift(1)


def _num(change):
    return lambda v: RatFunc(change(v.num), v.den)


def _plant_packed(monkeypatch, name, at, entry=None, slot=0, module=mx):
    """``module.name``, a packed range (w, ..., values), with one added
    to one slot (the lowest by default) of values[at], or of its entry
    ``entry`` when values[at] is a packed matrix, after the whole range
    is built."""
    real = getattr(module, name)

    def planted(limit):
        w, *head, ms = real(limit)
        unit = 1 << 8 * w * slot
        if entry is None:
            ms[at] += unit
        else:
            m = list(ms[at])
            m[entry] += unit
            ms[at] = tuple(m)
        return (w, *head, ms)

    monkeypatch.setattr(module, name, planted)


def _plant_range(monkeypatch, module, name, at, change):
    """``module.name``, an integer range indexed by n + 1
    (``hb.h_q_range(limit, w)``, ``hb.h_rs_range(limit, w, k)``,
    ``hb.hbar_st_range(limit, w, k)``), with ``change(v, w, *k)``
    applied to the value v of n = at alone, entry at + 1, after the
    whole range is built."""
    real = getattr(module, name)

    def planted(limit, w, *k):
        out = real(limit, w, *k)
        out[at + 1] = change(out[at + 1], w, *k)
        return out

    monkeypatch.setattr(module, name, planted)


def _poly(change):
    """A range change: ``change`` applied to the entry's polynomial,
    decoded (``unpack``, or ``unpack_bi``) and packed back as the sum of
    its terms, c in the slot of q^e, or of r^i s^j at slot i K + j."""
    def changed(v, w, *k):
        if k:
            terms = change(unpack_bi(v, w, *k)).terms()
            return sum(c << 8 * w * (i * k[0] + j) for (i, j), c in terms)
        return sum(c << 8 * w * e for e, c in change(unpack(v, w)).terms())
    return changed


def _slot(e, delta):
    """A range change: ``delta`` added in one slot of the entry, that of
    q^e, or of r^i s^j (t^i s^j) for e = (i, j), slot i K + j.  A -1 in
    an empty slot borrows from the slots above it."""
    return lambda v, w, *k: v + (delta << 8 * w * (e[0] * k[0] + e[1] if k else e))


def _plant_sums(monkeypatch, table, at, change):
    """``hb._window_sums`` with ``change`` applied to the Counter of
    weights under ``table`` for D(at) alone, whose first string is the
    binary expansion of at: the tally that the packed path sums and the
    ``*_enum`` fallback lays out as a polynomial."""
    real = hb._window_sums

    def planted(strings, joined, tab, *rest):
        out = real(strings, joined, tab, *rest)
        if tab is table and out is not None and hb.digits_value(strings[0]) == at:
            return change(out)
        return out

    monkeypatch.setattr(hb, "_window_sums", planted)


def _count_plus(weights):
    """Add the given {weight: count} to a Counter of window sums."""
    return lambda c: c + Counter(weights)


def _plant_stream(monkeypatch, at, change):
    """``hb.expansions_upto`` with ``change`` applied to D(at) alone."""
    real = hb.expansions_upto

    def planted(limit, start=0):
        for n, elems in enumerate(real(limit, start), start):
            yield change(elems) if n == at else elems

    monkeypatch.setattr(hb, "expansions_upto", planted)


def _d10_bytes(ds):
    """D(10) from the stream with its top, 1010, made 1011, as bytes."""
    assert ds[0] == b"\1\0\1\0"
    return (b"\1\0\1\1",) + ds[1:]


def _q_plus(terms):
    """Add the given {exponent: coeff} terms to a LaurentPoly."""
    return lambda p: p + LaurentPoly(terms)


def _bi(terms):
    return BiPoly(dict(terms))


def _bi_plus(terms):
    """Add the given {(r-degree, s-degree): coeff} terms to a BiPoly."""
    return lambda p: p + _bi(terms)


def _mnent_h6(p3, p2):
    """The failures of mnent up to 16 for a changed h_q(6) = p, given
    q^-3 p and q^-2 p rendered: n = 10, 11, 14 and 15 read it as c, a, d
    and b, c and d as q^-3 p, a and b as q^-2 p."""
    return [("10", "1 + q | q^-1 | q^-1 + 1 + q | q^-2 + q^-1", f"1 + q | q^-1 | {p3} | q^-2 + q^-1"),
            ("11", "1 + q + q^2 | q^-1 + 1 | 1 | q^-1", f"{p2} | q^-1 + 1 | 1 | q^-1"),
            ("14", "q^2 | 1 + q | q^2 | q^-1 + 1 + q", f"q^2 | 1 + q | q^2 | {p3}"),
            ("15", "q^3 | 1 + q + q^2 | 0 | 1", f"q^3 | {p2} | 0 | 1")]


#: id -> (sweep, bound, checks, planting, failures); each plants one small
#: error on one side of one n, or of one value that two neighbouring n read
PLANTS = {
    # claim side: the continued-fraction route, one coefficient up
    "qrat-claim": ("qrat", 16, 16, lambda mp: _plant(mp, qr, "qdeform", (3, 2), _num(_one_more)),
                   [("5", "(1 + q + q^2) / (1 + q)", "(2 + q + q^2) / (1 + q)")]),
    # oracle side: cw_q(5) with its numerator's lo off by one
    "qrat-oracle": ("qrat", 16, 16, lambda mp: _plant(mp, stern, "cw_q", (5,), _num(_up)),
                    [("5", "(q + q^2 + q^3) / (1 + q)", "(1 + q + q^2) / (1 + q)")]),
    "gg-claim": ("gg", 6, 11,
                 lambda mp: _plant(mp, qr, "qdeform_via_graph", (5, 3), _num(_one_more)),
                 [("5/3", "(1 + q + 2q^2 + q^3) / (1 + q + q^2)",
                   "(2 + q + 2q^2 + q^3) / (1 + q + q^2)")]),
    "gg-oracle": ("gg", 6, 11, lambda mp: _plant(mp, qr, "qdeform", (5, 3), _num(_up)),
                  [("5/3", "(q + q^2 + 2q^3 + q^4) / (1 + q + q^2)",
                    "(1 + q + 2q^2 + q^3) / (1 + q + q^2)")]),
    # claim side: the slot of q^2 in a of M~(6) = q M(6), which is q
    # once shifted back; oracle side: h_q(6), which n = 10, 11, 14 and 15
    # read as c, a, d and b
    "mnent-claim": ("mnent", 16, 15, lambda mp: _plant_packed(mp, "_m_packed", 6, 0, slot=2),
                    [("6", "2q | 1 | q | q^-1 + 1", "q | 1 | q | q^-1 + 1")]),
    "mnent-oracle": ("mnent", 16, 15, lambda mp: _plant_range(mp, mx, "h_q_range", 6, _poly(_up)),
                     _mnent_h6("1 + q + q^2", "q + q^2 + q^3")),
    # claim side: the lowest slot of the packed q^-2 h_q_fence(5), a
    # per-n value (n = 2 has the same fence, "1", and the same scan
    # state); oracle side: the recurrence
    "weightbij-claim": ("weightbij", 8, 8,
                        lambda mp: _plant_packed(mp, "_packed_weights", 5, module=fe),
                        [("5", "2q^2 + q^3", "q^2 + q^3")]),
    "weightbij-oracle": ("weightbij", 8, 8, lambda mp: _plant_range(mp, fe, "h_q_range", 6, _poly(_up)),
                         [("6", "q^2 + q^3 + q^4", "q^3 + q^4 + q^5")]),
    # h_q(6) = q^2 + q^3 + q^4 with one more in the slot of q^3 of the
    # integer range entry: n = 6 is compared as LaurentPoly, the packed
    # claim and the entry decoded
    "weightbij-coefficient": ("weightbij", 8, 8,
                              lambda mp: _plant_range(mp, fe, "h_q_range", 6, _slot(3, 1)),
                              [("6", "q^2 + q^3 + q^4", "q^2 + 2q^3 + q^4")]),
    # claim side: the last digit of 1010 in D(10) up by one; oracle side:
    # the bottom of D(10), 0122, replaced by 0202, one cover above it
    "mainbij-claim": ("mainbij", 16, 16,
                      lambda mp: _plant_stream(mp, 10, lambda ds: ((1, 0, 1, 1),) + ds[1:]),
                      [("10", "order isomorphism",
                        "prefix sums of (1, 0, 1, 1) leave the bottom's beyond position 3")]),
    # the same digit up in the stream's own form, bytes: it fails
    # mainbij with the same line, and the tallies of hrs and hbar at 10
    "mainbij-claim-bytes": ("mainbij", 16, 16, lambda mp: _plant_stream(mp, 10, _d10_bytes),
                            [("10", "order isomorphism",
                              "prefix sums of (1, 0, 1, 1) leave the bottom's beyond position 3")]),
    "hrs-claim-bytes": ("hrs", 16, 45, lambda mp: _plant_stream(mp, 10, _d10_bytes),
                        [("10", "3q^3 + q^4 + q^5", "q^2 + 2q^3 + q^4 + q^5"),
                         ("10", "s + r s + r s^2 + r^2 + r^2 s", "s^2 + r s + r s^2 + r^2 + r^2 s")]),
    "hbar-claim-bytes": ("hbar", 16, 17, lambda mp: _plant_stream(mp, 10, _d10_bytes),
                         [("10", "(s^3 + 2t s + t^2 + t^2 s, q^2 + 2q^3 + q^4 + q^5)",
                           "(s^2 + 2t s + t^2 + t^2 s, q^2 + 2q^3 + q^4 + q^5)")]),
    "mainbij-oracle": ("mainbij", 16, 16,
                       lambda mp: _plant(mp, fe, "min_element", (10,), lambda d: (0, 2, 0, 2)),
                       [("10", "order isomorphism", "(0, 1, 2, 2): reduced prefix sums not 0/1")]),
    # claim side: the tallies of D(5) and D(6), the Counter of window
    # sums that the packed path sums and the fallback lays out: one more
    # of D(5)'s lowest digit sum, 2, and one more weight 1 (s alone,
    # z + 16 t and p1 + 16 p2 alike).  An h_q tally fails both the
    # recurrence and the closed form.  Oracle side: the recurrence
    # ranges, at entry n + 1
    "hrs-claim-q": ("hrs", 8, 25, lambda mp: _plant_sums(mp, hb._HQ_WEIGHTS, 5, _count_plus({2: 1})),
                    [("5", "2q^2 + q^3", "q^2 + q^3"), ("5", "2q^2 + q^3", "q^2 + q^3")]),
    "hrs-claim-rs": ("hrs", 8, 25, lambda mp: _plant_sums(mp, hb._RS_WEIGHTS, 6, _count_plus({1: 1})),
                     [("6", "2s + r s + r^2", "s + r s + r^2")]),
    "hrs-oracle-q": ("hrs", 8, 25, lambda mp: _plant_range(mp, hb, "h_q_range", 5, _poly(_up)),
                     [("5", "q^2 + q^3", "q^3 + q^4")]),
    "hrs-oracle-rs": ("hrs", 8, 25, lambda mp: _plant_range(mp, hb, "h_rs_range", 6, _poly(_bi_plus({(1, 0): 1}))),
                      [("6", "s + r s + r^2", "s + r + r s + r^2")]),
    # h_rs(6) = s + r s + r^2 with one more in the slot of r s of the
    # integer range entry; n = 6 is compared as BiPoly, the entry decoded
    "hrs-coefficient": ("hrs", 8, 25, lambda mp: _plant_range(mp, hb, "h_rs_range", 6, _slot((1, 1), 1)),
                        [("6", "s + r s + r^2", "s + 2r s + r^2")]),
    # D(5) = {101, 021} listed as 257 copies of 101: 257 q^2 sums to
    # 256^2 + 256^3, the packed h_q(5) = q^2 + q^3 at one-byte slots, so
    # a listing of 256 strings or more is compared as polynomials
    "hrs-count": ("hrs", 8, 25, lambda mp: _plant_stream(mp, 5, lambda ds: (b"\1\0\1",) * 257),
                  [("5", "257q^2", "q^2 + q^3"), ("5", "257s", "s + r"), ("5", "257q^2", "q^2 + q^3")]),
    # h_q(5) = q^2 + q^3 with one less in the slot of q^0, which is empty:
    # the entry borrows through the slots below q^2 and decodes to
    # 255 + 255q + q^3
    "hrs-negative-q": ("hrs", 8, 25, lambda mp: _plant_range(mp, hb, "h_q_range", 5, _slot(0, -1)),
                       [("5", "q^2 + q^3", "255 + 255q + q^3")]),
    # claim side: the (ones, twos) tally of D(6); oracle side: the
    # recurrence, whose specialization to h_q moves with it, and h_q(6)
    # itself, which the specialization is compared with
    "hbar-claim": ("hbar", 8, 9, lambda mp: _plant_sums(mp, hb._HBAR_WEIGHTS, 6, _count_plus({1: 1})),
                   [("6", "(s + s^2 + t s + t^2, q^2 + q^3 + q^4)",
                     "(s^2 + t s + t^2, q^2 + q^3 + q^4)")]),
    "hbar-oracle": ("hbar", 8, 9, lambda mp: _plant_range(mp, hb, "hbar_st_range", 6, _poly(_bi_plus({(1, 0): 1}))),
                    [("6", "(s^2 + t s + t^2, q^2 + q^3 + q^4)",
                      "(s^2 + t + t s + t^2, 2q^2 + q^3 + q^4)")]),
    "hbar-oracle-q": ("hbar", 8, 9, lambda mp: _plant_range(mp, hb, "h_q_range", 6, _poly(_one_more)),
                      [("6", "(s^2 + t s + t^2, 2q^2 + q^3 + q^4)",
                        "(s^2 + t s + t^2, q^2 + q^3 + q^4)")]),
    # hbar_st(6) = s^2 + t s + t^2 with one more in the slot of t s: its
    # specialization moves with it, so n = 6 fails on both counts
    "hbar-coefficient": ("hbar", 8, 9,
                         lambda mp: _plant_range(mp, hb, "hbar_st_range", 6, _slot((1, 1), 1)),
                         [("6", "(s^2 + t s + t^2, q^2 + q^3 + q^4)",
                           "(s^2 + 2t s + t^2, q^2 + 2q^3 + q^4)")]),
    # claim side of the packed matrix sweeps: one more in the lowest slot
    # of a of M~(6) = q M(6), which is q^-1 once shifted back, and of d
    # of M'(6), the constant term
    "mnthm-claim": ("mnthm", 8, 8, lambda mp: _plant_packed(mp, "_m_packed", 6, 0),
                    [("6", "(1 + q, q^-1 + 1 + q)", "(q^-1 + 1 + q, q^-1 + 1 + q)")]),
    "mprime-claim": ("mprime", 8, 8, lambda mp: _plant_packed(mp, "_m_prime_packed", 6, 3),
                     [("6", "(s + r, s + r s + r^2)", "(s + r, 1 + s + r s + r^2)")]),
    # oracle side of the packed matrix sweeps: h_q(6) and h_rs(6), which
    # n = 6 reads as its bottom row sum and n = 7 as its top one
    "mnthm-oracle": ("mnthm", 8, 8, lambda mp: _plant_range(mp, mx, "h_q_range", 6, _poly(_one_more)),
                     [("6", "(1 + q, 2q^-1 + 1 + q)", "(1 + q, q^-1 + 1 + q)"),
                      ("7", "(2 + q + q^2, 1)", "(1 + q + q^2, 1)")]),
    "mprime-oracle": ("mprime", 8, 8,
                      lambda mp: _plant_range(mp, mx, "h_rs_range", 6, _poly(_bi_plus({(0, 1): 1}))),
                      [("6", "(s + r, 2s + r s + r^2)", "(s + r, s + r s + r^2)"),
                       ("7", "(2s + r s + r^2, 1)", "(s + r s + r^2, 1)")]),
    # one slot of the integer entry h_rs(6) = s + r s + r^2 of M'(n)'s
    # packing up to 8 (s = X = 256, r = X^5) changed by one, as its name
    # says: one more in the top s-degree, s^4, or in r s; one less in the
    # empty constant slot, which borrows from s, in s, in r s, and in the
    # empty slot of r, which borrows from r s.  n = 6 and 7 read it, and
    # each is compared as BiPoly, the entry decoded
    "mprime-s-degree": ("mprime", 8, 8, lambda mp: _plant_range(mp, mx, "h_rs_range", 6, _slot((0, 4), 1)),
                        [("6", "(s + r, s + s^4 + r s + r^2)", "(s + r, s + r s + r^2)"),
                         ("7", "(s + s^4 + r s + r^2, 1)", "(s + r s + r^2, 1)")]),
    "mprime-coefficient": ("mprime", 8, 8,
                           lambda mp: _plant_range(mp, mx, "h_rs_range", 6, _slot((1, 1), 1)),
                           [("6", "(s + r, s + 2r s + r^2)", "(s + r, s + r s + r^2)"),
                            ("7", "(s + 2r s + r^2, 1)", "(s + r s + r^2, 1)")]),
    "mprime-negative": ("mprime", 8, 8, lambda mp: _plant_range(mp, mx, "h_rs_range", 6, _slot((0, 0), -1)),
                        [("6", "(s + r, 255 + r s + r^2)", "(s + r, s + r s + r^2)"),
                         ("7", "(255 + r s + r^2, 1)", "(s + r s + r^2, 1)")]),
    "mprime-negative-s": ("mprime", 8, 8,
                          lambda mp: _plant_range(mp, mx, "h_rs_range", 6, _slot((0, 1), -1)),
                          [("6", "(s + r, r s + r^2)", "(s + r, s + r s + r^2)"),
                           ("7", "(r s + r^2, 1)", "(s + r s + r^2, 1)")]),
    "mprime-negative-r": ("mprime", 8, 8,
                          lambda mp: _plant_range(mp, mx, "h_rs_range", 6, _slot((1, 0), -1)),
                          [("6", "(s + r, s + 255r + r^2)", "(s + r, s + r s + r^2)"),
                           ("7", "(s + 255r + r^2, 1)", "(s + r s + r^2, 1)")]),
    # h_q(6) = q^2 + q^3 + q^4 with one slot of its integer entry changed
    # by one: one more in q^3; one less in q^2; and one more in q^0,
    # which every n that reads h_q(6) shifts below q^0 (by q^-1 or
    # q^-2), so a check that dropped the slots below q^0 would match.
    # Each n that reads it is compared as LaurentPoly
    "mnthm-coefficient": ("mnthm", 8, 8, lambda mp: _plant_range(mp, mx, "h_q_range", 6, _slot(3, 1)),
                          [("6", "(1 + q, q^-1 + 2 + q)", "(1 + q, q^-1 + 1 + q)"),
                           ("7", "(1 + 2q + q^2, 1)", "(1 + q + q^2, 1)")]),
    "mnthm-negative": ("mnthm", 8, 8, lambda mp: _plant_range(mp, mx, "h_q_range", 6, _slot(2, -1)),
                       [("6", "(1 + q, 1 + q)", "(1 + q, q^-1 + 1 + q)"),
                        ("7", "(q + q^2, 1)", "(1 + q + q^2, 1)")]),
    "mnthm-negative-q": ("mnthm", 8, 8, lambda mp: _plant_range(mp, mx, "h_q_range", 6, _slot(0, 1)),
                         [("6", "(1 + q, q^-3 + q^-1 + 1 + q)", "(1 + q, q^-1 + 1 + q)"),
                          ("7", "(q^-2 + 1 + q + q^2, 1)", "(1 + q + q^2, 1)")]),
    "mnent-coefficient": ("mnent", 16, 15, lambda mp: _plant_range(mp, mx, "h_q_range", 6, _slot(3, 1)),
                          _mnent_h6("q^-1 + 2 + q", "1 + 2q + q^2")),
    "mnent-negative": ("mnent", 16, 15, lambda mp: _plant_range(mp, mx, "h_q_range", 6, _slot(2, -1)),
                       _mnent_h6("1 + q", "q + q^2")),
    "mnent-negative-q": ("mnent", 16, 15, lambda mp: _plant_range(mp, mx, "h_q_range", 6, _slot(0, 1)),
                         _mnent_h6("q^-3 + q^-1 + 1 + q", "q^-2 + 1 + q + q^2")),
}


@pytest.mark.parametrize("plant", PLANTS)
def test_planted_defect_fails_where_planted(monkeypatch, plant):
    """A small error on either side of one check fails that check alone,
    rendered as the two sides' polynomials."""
    name, bound, checks, install, failures = PLANTS[plant]
    install(monkeypatch)
    (rep,) = run_verify(name, bound)
    assert rep.checked == checks
    assert rep.failures == failures
    where, expected, actual = failures[0]
    assert rep.lines()[1] == f"  at {where}: expected {expected}, got {actual}"


def test_weightbij_report_matches_the_per_n_route(monkeypatch):
    """The report of ``weight_checks`` equals that of ``weight_check``
    run per n, also where a planted h_q(6) fails n = 6, once with one
    more in the slot of q^3 and once shifted by q: a failure renders the
    packed claim decoded as ``h_q_fence(n)`` renders, and the integer
    range entry decoded as ``h_q(n)`` renders."""
    def per_n(limit):
        memo = {}
        return (fe.weight_check(n, memo) for n in range(1, limit + 1))

    def snap(reports):
        return [{k: v for k, v in r.to_dict().items() if k != "elapsed_s"} for r in reports]

    for change in (None, _q_plus({3: 1}), _up):
        monkeypatch.undo()
        if change is not None:
            _plant(monkeypatch, fe, "h_q", (6,), change)
            _plant_range(monkeypatch, fe, "h_q_range", 6, _poly(change))
        ranged = run_verify("weightbij", 4096)
        monkeypatch.setattr(verify_module, "weight_checks", per_n)
        assert snap(ranged) == snap(run_verify("weightbij", 4096))
        assert ranged[0].passed == (change is None)


def test_weightbij_takes_the_packed_path_at_its_default_bound():
    """Every check of ``verify weightbij`` to 16,384 compares integers:
    both sides are the one packed claim."""
    limit = REGISTRY["weightbij"][1]
    sides = list(fe.weight_checks(limit))
    assert len(sides) == limit == 16_384
    assert all(type(e) is int and e is a for e, a in sides)


@pytest.mark.parametrize("name,checks,count", [
    ("mnthm", mx.row_sum_checks, 16_384),
    ("mnent", mx.entries_checks, 16_383),
    ("mprime", mx.m_prime_checks, 16_384),
])
def test_matrix_sweeps_take_the_packed_path_at_their_default_bound(name, checks, count):
    """Every check of ``verify mnthm``, ``mnent`` and ``mprime`` to
    16,384 compares integers: both sides are the one tuple of packed
    integers from the claim."""
    sides = list(checks(REGISTRY[name][1]))
    assert len(sides) == count
    assert all(e is a and all(type(v) is int for v in e) for e, a in sides)


@pytest.mark.parametrize("bound,width", [(4096, 1), (4690, 2)])
@pytest.mark.parametrize("name", ["hrs", "hbar"])
def test_tally_sweeps_take_the_packed_path(name, bound, width):
    """Every check of ``verify hrs`` and ``hbar`` from n = 1 compares
    integers: both sides are the one packed tally.  At the default 4096
    each slot is one byte; at 4690 two, since |D(4690)| = fusc(4691) =
    257.  D(0) is the empty string alone, which the window sums leave to
    the general passes, so n = 0 compares equal polynomials."""
    assert stern.range_width(bound) == width
    assert stern.range_width(4689) == 1
    checks = list(getattr(verify_module, f"verify_{name}").__wrapped__(bound))
    assert len({where for where, _, _ in checks}) == bound + 1
    assert all(type(e) is not int and e == a for where, e, a in checks if where == "0")
    assert all(type(e) is int and e is a for where, e, a in checks if where != "0")


@pytest.mark.parametrize("name", ["hrs", "hbar"])
def test_tally_sweeps_match_on_the_general_path(monkeypatch, name):
    """With ``_window_sums`` refusing every listing, as it refuses each
    D(n) for n >= 2^15, hrs and hbar compare the polynomials of the
    general tally passes, and report what the packed path reports, also
    for a planted recurrence value, one more in the slot of r s (t s)
    of its integer entry."""
    def snap():
        (rep,) = run_verify(name, 300)
        return {k: v for k, v in rep.to_dict().items() if k != "elapsed_s"}

    packed = snap()
    rng = "h_rs_range" if name == "hrs" else "hbar_st_range"
    _plant_range(monkeypatch, hb, rng, 6, _slot((1, 1), 1))
    planted = snap()
    monkeypatch.setattr(hb, "_window_sums", lambda *_: None)
    assert snap() == planted and [where for where, _, _ in planted["failures"]] == ["6"]
    monkeypatch.undo()
    monkeypatch.setattr(hb, "_window_sums", lambda *_: None)
    assert snap() == packed and packed["passed"]


def test_mprime_packs_a_planted_entry_on_its_own(monkeypatch):
    """In a true range h_rs(13) equals h_rs(6); an entry h_rs(6)
    planted in the range fails n = 6 and 7, which read it, and not
    n = 13 and 14, which read h_rs(13) and stay on the packed path."""
    hs = hb.h_rs_range(16, 1, 5)
    assert hs[14] == hs[7]
    _plant_range(monkeypatch, mx, "h_rs_range", 6, _poly(_bi_plus({(0, 1): 1})))
    (rep,) = run_verify("mprime", 16)
    assert rep.checked == 16
    assert [where for where, _, _ in rep.failures] == ["6", "7"]
    sides = list(mx.m_prime_checks(16))
    assert [n for n, (e, a) in enumerate(sides, 1) if e is not a] == [6, 7]


#: the sweeps that read an integer range as their oracle
INTEGER_ORACLE_SWEEPS = ["weightbij", "mnthm", "mnent", "mprime", "hrs", "hbar"]


@pytest.mark.parametrize("limit, w", [(4689, 1), (4690, 2)])
def test_integer_ranges_decode_at_the_width_boundary(limit, w):
    """The slot width of a range goes from one byte to two between 4689
    and 4690, where fusc(4691) = 257: each integer range decodes, entry
    for entry, to the polynomials of the per-n recurrences, and the six
    sweeps that read one pass there."""
    assert stern.range_width(limit) == w
    _, k, _, _ = hb._tally_slots(limit)
    hq, hrs, hbar = hb.h_q_range(limit, w), hb.h_rs_range(limit, w, k), hb.hbar_st_range(limit, w, k)
    fq, rs, st = {}, {}, {}
    for n in range(-1, limit + 1):
        assert unpack(hq[n + 1], w) == hb.h_q(n, fq), n
        assert unpack_bi(hrs[n + 1], w, k) == hb.h_rs(n, rs), n
        assert unpack_bi(hbar[n + 1], w, k) == hb.hbar_st(n, st), n
    if limit == 4690:
        for name in INTEGER_ORACLE_SWEEPS:
            (rep,) = run_verify(name, limit)
            assert rep.passed and rep.checked >= limit - 1, name


def test_tally_slots_keep_every_s_degree_apart():
    """h_rs(2^16) has s^16 (sixteen nonleading zeros) and hbar_st(2^16 - 1)
    has s^16 (sixteen ones), so K of the tallies and ranges to 2^16 + 1
    must exceed 16, the window sums' base: at K = 16 either s^16 would
    take the slot of r (t).  Each entry decodes to its recurrence, and
    each tally of D(n), as an integer on the window sums' path and as a
    polynomial off it, is that entry.  M'(2^16), packed with the K of
    the same rule, has the row sums (h_rs(2^16 - 1), h_rs(2^16)).  At
    an all-ones limit 2^b - 1 the rule is tight: hbar_st(2^b - 1) = s^b
    needs K = b + 1."""
    limit = 2**16 + 1
    w, k, _, bi_shifts = hb._tally_slots(limit)
    hrs, hbar = hb.h_rs_range(limit, w, k), hb.hbar_st_range(limit, w, k)
    tables = (hb._RS_WEIGHTS, hb._RS_LEAD, bi_shifts), (hb._HBAR_WEIGHTS, None, bi_shifts)
    for n in (5, 4690, 2**15 - 1, 2**15, 2**16 - 1, 2**16):
        rs, st = unpack_bi(hrs[n + 1], w, k), unpack_bi(hbar[n + 1], w, k)
        assert (rs, st) == (hb.h_rs(n), hb.hbar_st(n)), n
        elems = hb.expansions(n)
        tallies = hb._packed_tallies(elems, 8 * w, *tables)
        assert (tallies == [None, None]) == (n >= 2**15), n
        if n < 2**15:
            assert tallies == [hrs[n + 1], hbar[n + 1]], n
        assert (hb.h_rs_enum(n, elems), hb.hbar_st_enum(n, elems)) == (rs, st), n
    assert hb.h_rs(2**16).terms()[0] == ((0, 16), 1)
    assert hb.hbar_st(2**16 - 1).terms() == [((0, 16), 1)]
    mw, mk, ms = mx._m_prime_packed(limit)
    assert (mw, mk) == (w, k)
    a, b, c, d = ms[2**16]
    assert (unpack_bi(a + b, w, k), unpack_bi(c + d, w, k)) == (hb.h_rs(2**16 - 1), hb.h_rs(2**16))
    w, k, _, _ = hb._tally_slots(255)
    assert unpack_bi(hb.hbar_st_range(255, w, k)[256], w, k) == BiPoly({(0, 8): 1}) == hb.hbar_st(255)


def _refuse(*_):
    raise AssertionError("a polynomial was built on a passing check")


@pytest.mark.parametrize("name", INTEGER_ORACLE_SWEEPS)
def test_integer_oracle_sweeps_build_no_polynomial_to_pass(monkeypatch, name):
    """With the sums and products of both polynomial types, and
    ``BiPoly.specialize``, made to raise, the sweeps that read an integer
    range still pass: each check compares integers, or at n = 0 builds
    its tallies without arithmetic.  hbar's notes run the memoized
    ``hbar_st`` recurrence, so for hbar only ``specialize`` raises."""
    monkeypatch.setattr(BiPoly, "specialize", _refuse)
    if name != "hbar":
        for cls in (LaurentPoly, BiPoly):
            monkeypatch.setattr(cls, "__add__", _refuse)
            monkeypatch.setattr(cls, "__mul__", _refuse)
    (rep,) = run_verify(name, 300)
    assert rep.passed and rep.checked >= 299


def _scaled(num, den):
    """A RatFunc with num and den multiplied by these polynomials."""
    return lambda v: RatFunc(v.num * num, v.den * den)


@pytest.mark.parametrize("name,bound,checks,at,failure", [
    ("qrat", 16, 16, (3, 2),
     ("5", "(1 + q + q^2) / (1 + q)", "(1 + 2q + 2q^2 + q^3) / (1 + q + q^2 + q^3)")),
    ("gg", 6, 11, (5, 3),
     ("5/3", "(1 + 2q + 3q^2 + 3q^3 + q^4) / (1 + q + 2q^2 + q^3 + q^4)",
      "(1 + q + 2q^2 + q^3) / (1 + q + q^2)")),
])
def test_rational_sweeps_compare_values_not_shapes(monkeypatch, name, bound, checks, at, failure):
    """qrat and gg compare values: ``qr.qdeform`` at one r/s with num and
    den both multiplied by 1 + q has another shape and the same value,
    and passes; with den multiplied by 1 + q^2 instead it fails there
    alone."""
    _plant(monkeypatch, qr, "qdeform", at, _scaled(qint(2), qint(2)))
    (rep,) = run_verify(name, bound)
    assert rep.checked == checks and rep.passed and rep.failures == []

    monkeypatch.undo()
    _plant(monkeypatch, qr, "qdeform", at, _scaled(qint(2), ONE + qpow(2)))
    (rep,) = run_verify(name, bound)
    assert rep.checked == checks
    assert rep.failures == [failure]
    where, expected, actual = failure
    assert rep.lines()[1] == f"  at {where}: expected {expected}, got {actual}"
