"""Acceptance gate: the eleven headline checks, one test each.

Every test prints a single PASS/FAIL line (visible with ``pytest -s``)
and then asserts, so the suite stays red if any check regresses.  Where
a criterion carries a runtime budget the elapsed time is part of the
check.  All comparisons are exact; nothing here is approximate.
"""

import time
from fractions import Fraction
from math import gcd

import hyperq.hyperbinary as hb
from hyperq.matrices import entries_formula, m_of
from hyperq.poly import LaurentPoly, RatFunc, qpow
from hyperq.qrational import closure_poly, cw_index, qdeform
from hyperq.stern import cw, cw_q, fusc, fusc_q
from hyperq.verify import (
    verify_gg,
    verify_hbar,
    verify_hrs,
    verify_mainbij,
    verify_mnent,
    verify_mnthm,
    verify_mprime,
    verify_qrat,
    verify_weightbij,
)


def _finish(num: int, label: str, ok: bool, t0: float,
            budget_s: float | None = None) -> None:
    elapsed = time.perf_counter() - t0
    if budget_s is not None:
        ok = ok and elapsed < budget_s
        budget = f" budget={budget_s:.0f}s"
    else:
        budget = ""
    status = "PASS" if ok else "FAIL"
    print(f"{status}: criterion {num} ({label}) elapsed={elapsed:.2f}s{budget}")
    assert ok, f"criterion {num} ({label})"


# the twelve tabulated rows n = 0..11: fusc, the enumerated rational,
# fusc_q terms as (exponent, coefficient), and the canonical q-ratio text
TABLE = [
    (0, 0, Fraction(0, 1), (), "(0) / (1)"),
    (1, 1, Fraction(1, 1), ((0, 1),), "(1) / (q)"),
    (2, 1, Fraction(1, 2), ((1, 1),), "(1) / (1 + q)"),
    (3, 2, Fraction(2, 1), ((1, 1), (2, 1)), "(1 + q) / (q)"),
    (4, 1, Fraction(1, 3), ((2, 1),), "(q) / (1 + q + q^2)"),
    (5, 3, Fraction(3, 2), ((1, 1), (2, 1), (3, 1)), "(1 + q + q^2) / (q + q^2)"),
    (6, 2, Fraction(2, 3), ((2, 1), (3, 1)), "(1 + q) / (1 + q + q^2)"),
    (7, 3, Fraction(3, 1), ((2, 1), (3, 1), (4, 1)), "(1 + q + q^2) / (q)"),
    (8, 1, Fraction(1, 4), ((3, 1),), "(q^2) / (1 + q + q^2 + q^3)"),
    (9, 4, Fraction(4, 3), ((1, 1), (2, 1), (3, 1), (4, 1)),
     "(1 + q + q^2 + q^3) / (q + q^2 + q^3)"),
    (10, 3, Fraction(3, 5), ((2, 1), (3, 1), (4, 1)),
     "(1 + q + q^2) / (1 + 2q + q^2 + q^3)"),
    (11, 5, Fraction(5, 2), ((2, 1), (3, 2), (4, 1), (5, 1)),
     "(1 + 2q + q^2 + q^3) / (q + q^2)"),
]


def test_01_sequence_table_rows_0_to_11():
    t0 = time.perf_counter()
    ok = True
    memo = {}
    for n, f, c, terms, ratio_text in TABLE:
        ok = ok and fusc(n) == f and cw(n) == c
        ok = ok and fusc_q(n, memo) == LaurentPoly(dict(terms))
        v = cw_q(n)
        # rational-function equality is cross-multiplied equality
        ok = ok and v == RatFunc(fusc_q(n, memo), fusc_q(n + 1, memo))
        ok = ok and v.text() == ratio_text
    _finish(1, "first twelve rows of the sequence table", ok, t0, budget_s=1.0)


def test_02_the_five_expansions_of_ten():
    t0 = time.perf_counter()
    ok = hb.h_count(10) == 5
    ok = ok and hb.h_q(10) == LaurentPoly({2: 1, 3: 2, 4: 1, 5: 1})
    ok = ok and hb.expansions(10) == (
        (1, 0, 1, 0), (1, 0, 0, 2), (0, 2, 1, 0), (0, 2, 0, 2), (0, 1, 2, 2),
    )
    _finish(2, "count, polynomial and expansion list for 10", ok, t0)


def test_03_enumeration_index_round_trip():
    t0 = time.perf_counter()
    ok = cw_index(7, 3) == 19 and cw(19) == Fraction(7, 3)
    for s in range(1, 101):
        for r in range(1, 101):
            if gcd(r, s) != 1:
                continue
            n = cw_index(r, s)
            if cw(n) != Fraction(r, s):
                ok = False
    _finish(3, "index round-trip for reduced r/s <= 100", ok, t0, budget_s=1.0)


def test_04_deformed_ratio_identity_to_ten_thousand():
    t0 = time.perf_counter()
    rep = verify_qrat(10_000)
    _finish(4, "q-deformed term ratio identity, n <= 10^4", rep.passed, t0,
            budget_s=60.0)


def test_05_order_isomorphism_to_4096():
    t0 = time.perf_counter()
    rep = verify_mainbij(2**12)
    _finish(5, "expansion/ideal order isomorphism, n <= 2^12", rep.passed, t0,
            budget_s=120.0)


def test_06_weight_bijection_to_16384():
    t0 = time.perf_counter()
    rep = verify_weightbij(2**14)
    _finish(6, "rank-polynomial weight identity, n <= 2^14", rep.passed, t0,
            budget_s=60.0)


def test_07_deformation_routes_agree():
    t0 = time.perf_counter()
    five_halves = qdeform(5, 2)
    ok = five_halves.text() == "(1 + 2q + q^2 + q^3) / (1 + q)"
    ok = ok and closure_poly([2, 2]) == LaurentPoly(
        {0: 1, 1: 2, 2: 1, 3: 1}
    )
    rep = verify_gg(50)
    ok = ok and rep.passed
    _finish(7, "continued-fraction and closure-set routes, r,s <= 50", ok, t0)


def test_08_matrix_entries_and_row_sums():
    t0 = time.perf_counter()
    m19 = m_of(19)
    ok = m19.entries() == (
        LaurentPoly({-1: 1, 0: 2, 1: 1, 2: 1}),
        LaurentPoly({-2: 1, -1: 1}),
        LaurentPoly({-1: 1, 0: 1}),
        LaurentPoly({-2: 1}),
    )
    for k in range(1, 14):
        for n in (2**(k + 1) - 1, 2**(k + 1) - 2):
            if entries_formula(n) != m_of(n):
                ok = False
    ok = ok and verify_mnent(2**14).passed
    ok = ok and verify_mnthm(2**14).passed
    ok = ok and verify_mprime(2**14).passed
    _finish(8, "matrix entry formula and row sums, n <= 2^14", ok, t0,
            budget_s=120.0)


def _dominates(lo, hi) -> bool:
    return all(a <= b for a, b in zip(lo, hi))


def test_09_lattice_laws_by_brute_force():
    t0 = time.perf_counter()
    ok = set(hb.join_irreducibles(10)) == {(1, 0, 0, 2), (0, 2, 0, 2), (0, 2, 1, 0)}
    memo = {}

    # meet/join really are glb/lub under prefix-sum domination
    for n in range(1, 2**8 + 1):
        elems = hb.expansions(n, memo)
        svec = {d: hb.s_vector(d) for d in elems}
        pool = set(elems)
        for c in elems:
            for d in elems:
                m, j = hb.meet(c, d), hb.join(c, d)
                if m not in pool or j not in pool:
                    ok = False
                    continue
                if svec[m] != tuple(map(min, svec[c], svec[d])):
                    ok = False
                if svec[j] != tuple(map(max, svec[c], svec[d])):
                    ok = False
                for e in elems:  # nothing strictly between a bound and its witness
                    se = svec[e]
                    if _dominates(se, svec[c]) and _dominates(se, svec[d]) \
                            and not _dominates(se, svec[m]):
                        ok = False
                    if _dominates(svec[c], se) and _dominates(svec[d], se) \
                            and not _dominates(svec[j], se):
                        ok = False

    # both distributive laws on every triple
    for n in range(1, 2**6 + 1):
        elems = hb.expansions(n, memo)
        for a in elems:
            for b in elems:
                for c in elems:
                    if hb.meet(a, hb.join(b, c)) != hb.join(hb.meet(a, b),
                                                            hb.meet(a, c)):
                        ok = False
                    if hb.join(a, hb.meet(b, c)) != hb.meet(hb.join(a, b),
                                                            hb.join(a, c)):
                        ok = False

    # join irreducibles == elements with a unique maximal strict lower
    for n in range(1, 2**10 + 1):
        elems = hb.expansions(n, memo)
        svec = {d: hb.s_vector(d) for d in elems}
        by_rank = sorted(elems, key=lambda d: sum(svec[d]), reverse=True)
        brute = set()
        for x in elems:
            sx = svec[x]
            maxima = []
            for y in by_rank:
                sy = svec[y]
                if y == x or not _dominates(sy, sx):
                    continue
                if not any(_dominates(sy, svec[z]) for z in maxima):
                    maxima.append(y)
            if len(maxima) == 1:
                brute.add(x)
        if set(hb.join_irreducibles(n)) != brute:
            ok = False
    _finish(9, "lattice, distributivity and irreducibles by brute force", ok, t0)


def test_10_two_variable_specialization_and_report():
    t0 = time.perf_counter()
    rep = verify_hbar(2**12)
    ok = rep.passed and len(rep.notes) == 2
    for note in rep.notes:
        print(f"  informational: {note}")
    _finish(10, "ones/twos polynomial specializes to h_q, n <= 2^12", ok, t0)


def test_11_enumeration_matches_recurrences_and_closed_forms():
    t0 = time.perf_counter()
    rep = verify_hrs(2**12)
    ok = rep.passed
    memo = {}
    for n in range(1, 2**14 + 1):
        if not hb.h_q_closed_form_applies(n):
            continue
        enum = LaurentPoly({})
        for d in hb.expansions(n, memo):
            enum = enum + qpow(hb.stats(d)["ell"])
        if hb.h_q_closed_form(n) != enum:
            ok = False
    _finish(11, "enumeration vs recurrences and closed forms", ok, t0)
