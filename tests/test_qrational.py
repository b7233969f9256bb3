"""Continued fractions, the rational-enumeration index, q-deformed rationals,
and the closure-set model on the oriented path of a continued fraction."""

import hashlib
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperq.qrational as qr
from hyperq.poly import ONE, Q, ZERO, LaurentPoly, RatFunc, qint, qpow
from hyperq.qrational import (
    UnsupportedDomain,
    cf_expand,
    cf_odd,
    closure_poly,
    cw_index,
    qdeform,
    qdeform_cf,
    qdeform_via_graph,
)
from hyperq.stern import cw, cw_q


def qdeform_shift_check(r: int, s: int) -> bool:
    """[r/s + 1]_q = q [r/s]_q + 1, checked as rational functions."""
    v = qdeform(r, s)
    return qdeform(r + s, s) == RatFunc(v.num.shift(1) + v.den, v.den)


def closure_poly_brute(cf: list[int]) -> LaurentPoly:
    """``closure_poly`` by testing all 2^V subsets.

    The path of [a1, ..., am] has vertices v_0, ..., v_N, N = sum(cf),
    and edges e_j = v_{j-1} v_j, the first a1 pointing left, the next
    a2 right, alternating.  Deleting v_0 and v_N keeps V = N - 1
    vertices (bit i - 1 of the mask is v_i) and the edges e_2..e_{N-1};
    a closure set has no arc leaving it."""
    right = [i % 2 == 1 for i, a in enumerate(cf) for _ in range(a)]
    vertices = max(len(right) - 1, 0)
    if vertices > 20:
        raise ValueError("brute force capped at 20 vertices")
    coeffs: dict[int, int] = {}
    for mask in range(1 << vertices):
        ok = True
        for i in range(vertices - 1):  # e_{i+2} joins bits i and i + 1
            a, b = (mask >> i) & 1, (mask >> (i + 1)) & 1
            src, dst = (a, b) if right[i + 1] else (b, a)
            if src and not dst:
                ok = False
                break
        if ok:
            size = bin(mask).count("1")
            coeffs[size] = coeffs.get(size, 0) + 1
    return LaurentPoly(coeffs)


def _cf_of_inner_arcs(arcs: tuple[bool, ...]) -> list[int]:
    """A continued fraction whose path has the inner arcs ``arcs``
    (True: pointing right): the two end edges repeat their neighbours,
    and the run lengths start with the left-pointing run, so a1 = 0
    when the first arc points right."""
    edges = (arcs[:1] + arcs + arcs[-1:]) if arcs else (False, False)
    cf, pointing_right = [0], False
    for e in edges:
        if e != pointing_right:
            cf.append(0)
            pointing_right = e
        cf[-1] += 1
    return cf


def _cf_value(cf: list[int]) -> Fraction:
    val = Fraction(cf[-1])
    for a in reversed(cf[:-1]):
        val = a + 1 / val
    return val


# ---------------------------------------------------------- continued fractions

def test_cf_expand_examples():
    assert cf_expand(7, 3) == [2, 3]
    assert cf_expand(5, 1) == [5]
    assert cf_expand(5, 2) == [2, 2]
    assert cf_expand(1, 2) == [0, 2]
    assert cf_expand(2, 3) == [0, 1, 2]
    with pytest.raises(ValueError):
        cf_expand(3, 0)


def test_cf_expand_canonical_shape():
    for s in range(1, 60):
        for r in range(0, 60):
            cf = cf_expand(r, s)
            assert cf[0] >= 0
            assert all(a >= 1 for a in cf[1:])
            if len(cf) >= 2:
                assert cf[-1] >= 2
            assert _cf_value(cf) == Fraction(r, s)


def test_cf_odd_examples_and_value():
    assert cf_odd(7, 3) == [2, 2, 1]
    assert cf_odd(5, 2) == [2, 1, 1]
    assert cf_odd(3, 1) == [3]
    for s in range(1, 40):
        for r in range(1, 40):
            cf = cf_odd(r, s)
            assert len(cf) % 2 == 1
            assert _cf_value(cf) == Fraction(r, s)


# ------------------------------------------------------------ enumeration index

def test_cw_index_examples():
    assert cw_index(7, 3) == 19
    assert cw_index(1, 1) == 1
    assert cw_index(5, 2) == 11
    assert cw_index(14, 6) == 19  # reduced first


def test_cw_index_round_trip_all_small_rationals():
    for s in range(1, 101):
        for r in range(1, 101):
            if gcd(r, s) != 1:
                continue
            n = cw_index(r, s)
            assert cw(n) == Fraction(r, s)


def test_cw_index_is_injective_on_reduced_pairs():
    seen = {}
    for s in range(1, 80):
        for r in range(1, 80):
            if gcd(r, s) != 1:
                continue
            n = cw_index(r, s)
            assert n not in seen
            seen[n] = (r, s)


# --------------------------------------------------------------- q-deformation

def test_qdeform_examples():
    assert qdeform(5, 2).text() == "(1 + 2q + q^2 + q^3) / (1 + q)"
    assert qdeform(1, 1) == RatFunc(ONE, ONE)
    assert qdeform(2, 1) == RatFunc(ONE + Q, ONE)
    assert qdeform(0, 7) == RatFunc.zero()
    with pytest.raises(ValueError):
        qdeform(1, 0)
    # [0/s]_q is the stored pair 0/1, as the CLI prints it
    zero = RatFunc.zero()
    for s in range(1, 51):
        v = qdeform(0, s)
        assert repr(v) == repr(zero) and v.canonical().text() == zero.canonical().text(), s


def test_qdeform_keeps_its_unreduced_representation():
    """``==`` is cross multiplication and cannot see the stored pair, but
    the CLI prints it (after ``canonical``): pin the pair as computed."""
    h = hashlib.sha256()
    for r in range(80):
        for s in range(1, 80):
            v = qdeform(r, s)
            h.update((v.num.text() + "/" + v.den.text() + "\n").encode())
    assert h.hexdigest() == "ea3dad3d8a8fbd7b5c7a5a535a2448f49d871ef09b3086cf014f3e044d40d4e6"


def test_qdeform_whole_numbers_are_q_integers():
    for a in range(1, 12):
        assert qdeform(a, 1) == RatFunc(qint(a), ONE)


def test_qdeform_representation_independent():
    for s in range(1, 51):
        for r in range(1, 51):
            assert qdeform_cf(cf_expand(r, s)) == qdeform_cf(cf_odd(r, s)), (r, s)


def test_qdeform_reduction_independent():
    rng = random.Random(13)
    for _ in range(120):
        r, s = rng.randint(1, 30), rng.randint(1, 30)
        k = rng.randint(2, 5)
        assert qdeform(r, s) == qdeform(k * r, k * s)


def test_qdeform_specializes_to_the_rational_at_one():
    for s in range(1, 41):
        for r in range(0, 41):
            v = qdeform(r, s).canonical()
            assert v.num.eval_at_one * s == r * v.den.eval_at_one


def test_qdeform_shift_rule():
    assert qdeform_shift_check(1, 1)
    assert qdeform_shift_check(5, 2)
    assert qdeform_shift_check(7, 3)
    for s in range(1, 30):
        for r in range(1, 30):
            assert qdeform_shift_check(r, s), (r, s)


def test_qdeform_matches_q_enumeration_terms():
    """The deformation of the n-th enumerated rational is q times the
    q-enumeration term (independent recurrence)."""
    fr_memo = {}
    for n in range(1, 600):
        c = cw(n)
        v = cw_q(n, fr_memo)
        assert qdeform(c.numerator, c.denominator) == RatFunc(v.num.shift(1), v.den)


def qdeform_cf_reference(cf: list[int]) -> RatFunc:
    """``qdeform_cf`` as ``LaurentPoly`` arithmetic: (P, Q) <- (B P + N Q, P)
    with B = [a]_q, N = q^a at odd depth and B = [a]_{1/q}, N = q^-a at
    even depth, deepest term first."""
    p, q = ONE, ZERO
    for i in range(len(cf), 0, -1):
        a = cf[i - 1]
        if i % 2 == 1:
            bracket, numer = qint(a), qpow(a)
        else:
            bracket, numer = qint(a).reverse_var(), qpow(-a)
        p, q = bracket * p + numer * q, p
    return RatFunc(p, q)


def _same_pair(got: RatFunc, want: RatFunc) -> bool:
    """The same stored numerator and denominator, which the CLI prints,
    not merely an equal quotient."""
    return ((got.num._lo, got.num._c, got.den._lo, got.den._c)
            == (want.num._lo, want.num._c, want.den._lo, want.den._c))


def test_packed_qdeform_cf_edge_shapes():
    cfs = [[0], [1], [2], [255], [256], [1000],
           [0, 1], [0, 2], [0, 1, 3], [0, 7, 1, 4],   # a_1 = 0
           [1, 1], [2, 3, 1], [0, 5, 1], [4, 1, 1],   # a trailing 1
           [2, 0, 3], [0, 0, 2], [3, 2, 0, 1, 5]]     # zero terms inside
    cfs += [[a] for a in range(12)] + [[1, a] for a in range(1, 12)]
    for cf in cfs:
        assert _same_pair(qdeform_cf(cf), qdeform_cf_reference(cf)), cf


def test_packed_qdeform_cf_zero_denominator():
    """[1, 0] is 1 + 1/0: both routes refuse it alike."""
    for f in (qdeform_cf, qdeform_cf_reference):
        with pytest.raises(ZeroDivisionError):
            f([1, 0])


def test_packed_qdeform_cf_with_large_partial_quotients():
    rng = random.Random(31)
    for _ in range(20):
        cf = [rng.randint(0, 1000)] + [rng.randint(1, 1000) for _ in range(rng.randint(0, 3))]
        assert _same_pair(qdeform_cf(cf), qdeform_cf_reference(cf)), cf


def test_packed_qdeform_cf_on_400_term_expansions():
    rng = random.Random(47)
    for top in (1, 2, 3, 6):
        cf = [rng.randint(0, top)] + [rng.randint(1, top) for _ in range(399)]
        assert _same_pair(qdeform_cf(cf), qdeform_cf_reference(cf)), top


def test_qdeform_cf_rejects_a_negative_partial_quotient():
    for cf, term in (([-1], "a1 = -1"), ([2, -1], "a2 = -1"), ([1, -3, 2], "a2 = -3")):
        with pytest.raises(ValueError, match=term):
            qdeform_cf(cf)


@pytest.mark.parametrize("a, w", [
    (255, 1), (256, 2), (65535, 2), (65536, 3),
    ([0, 256], 2), ([0, 0, 255], 1), ([1, 0, 65535], 3), ([3, 0, 0, 0, 255], 2),
], ids=lambda v: ",".join(map(str, v)) if isinstance(v, list) else None)
def test_qdeform_cf_slot_width_follows_the_largest_continuant(monkeypatch, a, w):
    """[a] has the continuants 1 and a: 256^w - 1 stays in w bytes and
    256^w takes w + 1.  With zero terms the largest continuant can end
    up in Q rather than P: [0, 256] ends at (P, Q) = (1, 256)."""
    cf = a if isinstance(a, list) else [a]
    x = _cf_value(cf)
    seen = []
    width = qr.slot_width

    def spy(bound):
        seen.append((bound, width(bound)))
        return seen[-1][1]

    monkeypatch.setattr(qr, "slot_width", spy)
    v = qdeform_cf(cf)
    assert seen == [(max(x.numerator, x.denominator), w)]
    assert _same_pair(v, qdeform_cf_reference(cf))


# ---------------------------------------------------------------- closure model

def test_closure_graph_of_22():
    # [2, 2]: edges left, left, right, right; inner arcs left, right
    assert closure_poly([2, 2]) == LaurentPoly({0: 1, 1: 2, 2: 1, 3: 1})
    # [0, 2]: the first two vertices deleted leave one vertex
    assert closure_poly([0, 2]) == ONE + Q


def test_closure_poly_small_graphs():
    assert closure_poly([1]) == closure_poly([0]) == ONE  # empty graph
    assert closure_poly([2]) == closure_poly([0, 2]) == ONE + Q
    # two vertices, one arc: the closed sets exclude {source} alone
    assert closure_poly([3]) == LaurentPoly({0: 1, 1: 1, 2: 1})
    assert closure_poly([0, 3]) == LaurentPoly({0: 1, 1: 1, 2: 1})


def test_closure_poly_counts_all_subsets_at_q_one_bound():
    # f(1) counts closure sets; it is at most 2^V with equality iff no arcs
    for v in range(0, 10):
        no_arcs_possible = v <= 1
        cnt = closure_poly([0, v + 1]).eval_at_one  # v vertices, right arcs
        assert cnt <= 2**v
        if no_arcs_possible:
            assert cnt == 2**v


def test_closure_poly_dp_equals_brute_force():
    # exhaustive over every orientation of up to 9 inner arcs
    for length in range(0, 10):
        for pattern in range(2**length):
            arcs = tuple(bool((pattern >> i) & 1) for i in range(length))
            cf = _cf_of_inner_arcs(arcs)
            assert closure_poly(cf) == closure_poly_brute(cf), cf
    # seeded random orientations for longer paths
    rng = random.Random(20260815)
    for length in range(10, 15):
        for _ in range(12):
            arcs = tuple(rng.random() < 0.5 for _ in range(length))
            cf = _cf_of_inner_arcs(arcs)
            assert closure_poly(cf) == closure_poly_brute(cf), cf


def test_closure_poly_brute_refuses_large_graphs():
    with pytest.raises(ValueError):
        closure_poly_brute([22])  # 21 vertices


def test_qdeform_via_graph_keeps_its_unreduced_representation():
    """R(a1, ..., am) over R(0, a2, ..., am), stored as computed."""
    cases = {
        (5, 2): ((0, (1, 2, 1, 1)), (0, (1, 1))),
        (7, 3): ((0, (1, 2, 2, 1, 1)), (0, (1, 1, 1))),
        (355, 113): (
            (0, (1, 2, 4, 6, 9, 12, 15, 18, 20, 21, 22, 22, 22, 22, 22, 22, 22,
                 21, 19, 16, 13, 10, 7, 4, 2, 1)),
            (0, (1, 1, 2, 3, 4, 5, 6, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7,
                 6, 5, 4, 3, 2, 1)),
        ),
    }
    for (r, s), (num, den) in cases.items():
        v = qdeform_via_graph(r, s)
        assert ((v.num._lo, v.num._c), (v.den._lo, v.den._c)) == (num, den), (r, s)


def test_qdeform_via_graph_examples():
    assert qdeform_via_graph(5, 2).text() == "(1 + 2q + q^2 + q^3) / (1 + q)"
    assert qdeform_via_graph(2, 1) == qdeform(2, 1)
    assert qdeform_via_graph(7, 3) == qdeform(7, 3)


def test_qdeform_via_graph_agrees_with_cf_on_reduced_pairs():
    for s in range(1, 26):
        for r in range(s + 1, 26):
            if gcd(r, s) != 1:
                continue
            assert qdeform_via_graph(r, s) == qdeform(r, s), (r, s)


def test_qdeform_via_graph_domain():
    for r, s in [(1, 1), (1, 2), (3, 3), (2, 6), (0, 1)]:
        with pytest.raises(UnsupportedDomain):
            qdeform_via_graph(r, s)


#: n of 100 to 600 bits, drawn bit length first, every bit below the
#: leading 1 from a seeded generator
BIG = st.builds(lambda b, seed: 1 << (b - 1) | random.Random(seed).getrandbits(b - 1),
                st.integers(100, 600), st.integers(0, 2**32))


@settings(derandomize=True, deadline=None, max_examples=50, database=None)
@given(BIG)
def test_cw_index_inverts_cw_on_large_n(n):
    c = cw(n)
    assert cw_index(c.numerator, c.denominator) == n


#: canonical continued fractions of 20 to 60 terms with partial
#: quotients 1 to 12, the last at least 2, so r/s > 1
LONG_CF = st.builds(
    lambda body, last: body + [last],
    st.lists(st.integers(1, 12), min_size=19, max_size=59),
    st.integers(2, 12),
)


def _canonical_pair(cf: list[int]) -> tuple[int, int]:
    """(r, s) with r/s = [a_1; a_2, ..., a_m], checked to be canonical."""
    x = _cf_value(cf)
    assert cf_expand(x.numerator, x.denominator) == cf
    return x.numerator, x.denominator


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(LONG_CF)
def test_shift_identity_on_long_continued_fractions(cf):
    assert qdeform_shift_check(*_canonical_pair(cf))


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(LONG_CF)
def test_qdeform_via_graph_agrees_with_cf_on_long_continued_fractions(cf):
    r, s = _canonical_pair(cf)
    assert qdeform_via_graph(r, s) == qdeform(r, s)
