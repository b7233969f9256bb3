"""Exact-arithmetic polynomial layer: algebra and the pinned text format."""

import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hyperq import poly
from hyperq.poly import (ONE, Q, ZERO, BiPoly, LaurentPoly, RatFunc, qint, qpow, slot_width, unpack,
                         unpack_bi)


# ---------------------------------------------------------------- LaurentPoly

def test_zero_polynomial_is_empty_map():
    assert LaurentPoly({3: 0}).is_zero
    assert LaurentPoly().is_zero
    assert LaurentPoly({3: 0}) == ZERO
    assert not ZERO
    assert ONE


def test_terms_sorted_and_clean():
    p = LaurentPoly({2: 1, -1: 3, 0: 0, 5: -2})
    assert p.terms() == [(-1, 3), (2, 1), (5, -2)]
    assert p.coeff(0) == 0
    assert p.coeff(-1) == 3
    assert p.min_exp == -1
    assert p.max_exp == 5


def test_min_exp_of_zero_raises():
    with pytest.raises(ValueError):
        _ = ZERO.min_exp
    with pytest.raises(ValueError):
        _ = ZERO.max_exp


def test_qint_and_qpow():
    assert qint(0) == ZERO
    assert qint(1) == ONE
    assert qint(3) == LaurentPoly({0: 1, 1: 1, 2: 1})
    assert qpow(0) == ONE
    assert qpow(-2) == LaurentPoly({-2: 1})
    with pytest.raises(ValueError):
        qint(-1)


def test_shift_and_reverse():
    p = LaurentPoly({0: 1, 2: 3})
    assert p.shift(-1) == LaurentPoly({-1: 1, 1: 3})
    assert p.reverse_var() == LaurentPoly({0: 1, -2: 3})
    assert p.reverse_var().reverse_var() == p


def test_eval_at_one():
    assert LaurentPoly({-2: 3, 5: 4}).eval_at_one == 7
    assert ZERO.eval_at_one == 0


def _random_poly(rng: random.Random) -> LaurentPoly:
    return LaurentPoly(
        {rng.randint(-6, 6): rng.randint(-5, 5) for _ in range(rng.randint(0, 6))}
    )


def test_ring_axioms_random():
    rng = random.Random(20260815)
    for _ in range(300):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == ZERO + a == a
        assert a * ONE == a
        assert a - a == ZERO
        assert (-a) + a == ZERO
        # evaluation at q=1 is a ring homomorphism
        assert (a * b).eval_at_one == a.eval_at_one * b.eval_at_one
        assert (a + b).eval_at_one == a.eval_at_one + b.eval_at_one


def test_shift_is_multiplication_by_qpow():
    rng = random.Random(98)
    for _ in range(50):
        a = _random_poly(rng)
        k = rng.randint(-4, 4)
        assert a.shift(k) == a * qpow(k)


def test_foreign_operands_rejected():
    with pytest.raises(TypeError):
        _ = Q + "q"
    with pytest.raises(TypeError):
        _ = Q * 2.5


# ------------------------------------------------------------- text rendering

def test_text_examples_pinned():
    assert ZERO.text() == "0"
    assert ONE.text() == "1"
    assert Q.text() == "q"
    assert qpow(-1).text() == "q^-1"
    assert qpow(2).text() == "q^2"
    assert LaurentPoly({0: 2}).text() == "2"
    assert LaurentPoly({3: 2}).text() == "2q^3"
    assert LaurentPoly({-1: 1, 0: 2, 1: 1, 2: 1}).text() == "q^-1 + 2 + q + q^2"
    assert LaurentPoly({0: 1, 1: -1}).text() == "1 - q"
    assert LaurentPoly({0: -1, 1: -3}).text() == "-1 - 3q"
    assert LaurentPoly({-2: -1}).text() == "-q^-2"


def test_text_increasing_exponents_no_star():
    rng = random.Random(7)
    for _ in range(100):
        p = _random_poly(rng)
        t = p.text()
        assert "*" not in t
        assert "q^1 " not in t and not t.endswith("q^1")
        assert "q^0" not in t


# -------------------------------------------------------------------- BiPoly

def test_bipoly_algebra_and_specialize():
    r = BiPoly.monomial(1, 1, 0)
    s = BiPoly.monomial(1, 0, 1)
    p = (r + s) * (r + s)
    assert p == BiPoly({(2, 0): 1, (1, 1): 2, (0, 2): 1})
    # specialize slot1 -> q^2, slot2 -> q
    q_version = p.specialize(2, 1)
    assert q_version == LaurentPoly({4: 1, 3: 2, 2: 1})
    assert p.eval_at_one == 4
    assert BiPoly.zero().is_zero
    assert BiPoly.one().specialize(5, 7) == ONE


def test_bipoly_text_lexicographic():
    r = BiPoly.monomial(1, 1, 0)
    s = BiPoly.monomial(1, 0, 1)
    assert (r + s).text() == "s + r"
    assert (r * r + s * s * r).text() == "r s^2 + r^2"
    assert BiPoly({(0, 0): 3}).text() == "3"
    assert BiPoly({(2, 1): -1, (0, 0): 1}).text(("t", "s")) == "1 - t^2 s"
    assert BiPoly.zero().text() == "0"


def test_bipoly_random_ring_axioms():
    rng = random.Random(41)

    def rand_bi():
        return BiPoly(
            {(rng.randint(0, 4), rng.randint(0, 4)): rng.randint(-3, 3)
             for _ in range(rng.randint(0, 5))}
        )

    for _ in range(150):
        a, b, c = rand_bi(), rand_bi(), rand_bi()
        assert a + BiPoly.zero() == BiPoly.zero() + a == a
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a * b).specialize(2, 1) == a.specialize(2, 1) * b.specialize(2, 1)
        assert (a + b).specialize(3, 1) == a.specialize(3, 1) + b.specialize(3, 1)


# ------------------------------------------------------------------- RatFunc

def test_ratfunc_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc(ONE, ZERO)


def test_ratfunc_equality_by_cross_multiplication():
    half = RatFunc(ONE, qint(2))  # 1 / (1+q)
    scaled = RatFunc(Q, Q * qint(2))  # q / (q + q^2)
    assert half == scaled
    assert half != RatFunc(ONE, qint(3))
    assert RatFunc.zero() == RatFunc(ZERO, qint(3))


@pytest.mark.parametrize("native", [True, False], ids=["cast", "slices"])
@pytest.mark.parametrize("w", range(1, 10))
def test_ratfunc_packed_equality_at_the_slot_boundary(w, native, monkeypatch):
    """Coefficients at the edge of a w-byte slot, with and without the
    native casts: equality is decided by the shape or by the
    convolution, never by packed integers, so the answer is the same
    either way; 256^w - 1 and 256^w - 2 differ, and 1 + 256^w q differs
    from 1 + q^2, which it equals at q = 256^w."""
    if not native:
        monkeypatch.setattr(poly, "_NATIVE_SLOTS", {})
    top = 256**w - 1
    full = LaurentPoly({1: top})
    assert RatFunc(full, ONE) == RatFunc(full.shift(1), Q)
    assert RatFunc(full, ONE) != RatFunc(LaurentPoly({1: top - 1}), ONE)
    # 1 + 256^w q and 1 + q^2 agree at q = 256^w
    carry = LaurentPoly({0: 1, 1: top + 1})
    assert RatFunc(carry, ONE) != RatFunc(ONE + qpow(2), ONE)
    assert RatFunc(carry, qint(2)) == RatFunc(carry * qint(3), qint(2) * qint(3))


def test_ratfunc_equality_off_the_packed_path(monkeypatch):
    """Quotients equal at q = 1 need not be equal.  Nothing is packed:
    unequal shapes take the convolution, whether the parts are signed,
    zero, or nonnegative with coefficients that fill a w-byte slot."""
    assert RatFunc(qint(2), qint(3)) != RatFunc(ONE + qpow(2), qint(3))
    assert RatFunc(qint(2), qint(3)) != RatFunc(qint(4), qint(6))

    def unused(*args):
        raise AssertionError("packed")

    monkeypatch.setattr(poly, "unpack", unused)
    monkeypatch.setattr(poly, "slot_width", unused)
    for w in (1, 2, 9):
        top = 256**w - 1
        full, carry = LaurentPoly({1: top}), LaurentPoly({0: 1, 1: top + 1})
        assert RatFunc(full, ONE) != RatFunc(LaurentPoly({1: top - 1}), ONE)
        assert RatFunc(carry, ONE) != RatFunc(ONE + qpow(2), ONE)
        assert RatFunc(carry, qint(2)) == RatFunc(carry * qint(3), qint(2) * qint(3))
    minus = ONE - Q
    assert RatFunc(minus, ONE) == RatFunc(minus * qint(2), qint(2))
    assert RatFunc(minus, ONE) != RatFunc(ONE - qpow(2), ONE)
    assert RatFunc(ZERO, qint(2)) == RatFunc(ZERO, ONE)
    assert RatFunc(ZERO, ONE) != RatFunc(ONE, ONE) and RatFunc(ONE, ONE) != RatFunc.zero()
    assert RatFunc(Q, qint(2)) != RatFunc(ONE, qint(2))


def test_ratfunc_canonical_display():
    v = RatFunc(qpow(2), Q + Q * Q)  # q^2 / (q + q^2) -> q / (1 + q)
    c = v.canonical()
    assert c.num == Q
    assert c.den == ONE + Q
    assert v.text() == "(q) / (1 + q)"
    # canonical keeps at least one nonzero constant term
    assert min(c.num.min_exp, c.den.min_exp) == 0
    assert RatFunc.zero().text() == "(0) / (1)"


def test_ratfunc_random_field_axioms():
    rng = random.Random(777)

    def rand_nonzero():
        while True:
            p = _random_poly(rng)
            if not p.is_zero:
                return p

    for _ in range(120):
        a = RatFunc(_random_poly(rng), rand_nonzero())
        k = rand_nonzero()
        # cross multiplication: scaling num and den together keeps the value
        assert RatFunc(a.num * k, a.den * k) == a
        assert RatFunc(a.num + a.den, a.den) != a
        # canonical preserves value
        assert a.canonical() == a


# ------------------------------------------- dense core vs. a dict reference
# The reference is the sparse {exponent: coeff} arithmetic the dense core
# replaced: schoolbook products and the renderer written out in full.

PROPERTY = settings(derandomize=True, deadline=None, max_examples=300, database=None)


def _ref_clean(d):
    return {e: c for e, c in d.items() if c}


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _ref_clean(out)


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return _ref_clean(out)


def _ref_text(d, var):
    if not d:
        return "0"
    parts = []
    for key, c in sorted(d.items()):
        a = abs(c)
        v = var(key)
        body = str(a) if not v else (v if a == 1 else f"{a}{v}")
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts)


def _ref_q(e):
    return "" if e == 0 else ("q" if e == 1 else f"q^{e}")


def _ref_rs(p):
    factors = []
    for name, e in zip(("r", "s"), p):
        if e == 1:
            factors.append(name)
        elif e:
            factors.append(f"{name}^{e}")
    return " ".join(factors)


def _same(p: LaurentPoly, d: dict) -> bool:
    """p holds exactly the nonzero terms of d, in every view of it."""
    d = _ref_clean(d)
    return (p.terms() == sorted(d.items()) and p.text() == _ref_text(d, _ref_q)
            and p == LaurentPoly(d) and p.is_zero == (not d))


_SMALL = st.integers(-3, 3)
_WIDE = st.integers(-(2**80), 2**80)  # coefficients past 64 bits


@st.composite
def _terms(draw):
    """A {exponent: coeff} dict: zero, one term, or up to 60 terms from a
    negative or positive offset, with gaps, signed or nonnegative."""
    coeff = st.one_of(_SMALL, _WIDE)
    if draw(st.booleans()):
        coeff = coeff.map(abs)
    lo = draw(st.integers(-40, 40))
    size = draw(st.sampled_from([0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 60]))
    return {lo + i: draw(coeff) for i in range(size)}


@PROPERTY
@given(_terms(), st.integers(-50, 50))
def test_dense_unary_ops_match_reference(d, k):
    p = LaurentPoly(d)
    assert _same(p, d)
    assert _same(-p, {e: -c for e, c in d.items()})
    assert _same(p.shift(k), {e + k: c for e, c in d.items()})
    assert _same(p.reverse_var(), {-e: c for e, c in d.items()})
    assert p.eval_at_one == sum(d.values())
    assert all(p.coeff(e) == c for e, c in d.items())
    if d and _ref_clean(d):
        assert (p.min_exp, p.max_exp) == (min(_ref_clean(d)), max(_ref_clean(d)))


@PROPERTY
@given(_terms(), _terms())
def test_dense_binary_ops_match_reference(da, db):
    a, b = LaurentPoly(da), LaurentPoly(db)
    assert _same(a + b, _ref_add(da, db))
    assert _same(a - b, _ref_add(da, {e: -c for e, c in db.items()}))
    assert _same(a * b, _ref_mul(da, db))
    assert (a == b) == (_ref_clean(da) == _ref_clean(db))


@PROPERTY
@given(_terms(), _terms(), st.integers(-20, 20), st.integers(-20, 20), st.integers(-2, 2))
@example({}, {0: 1}, 0, 3, 1)  # zero numerators, a near miss
@example({0: -1, 2: 5}, {-1: 2, 0: -3}, -4, 7, -1)  # signed, a near miss
def test_ratfunc_equal_shapes_agree_with_cross_multiplication(dn, dd, x, y, miss):
    """Quotients that share their coefficient tuples, q^y num / den and
    q^(x + y) num / q^(x + miss) den: ``==`` agrees with cross
    multiplication, which holds when num and den move alike (miss = 0)
    or num is zero, and fails on every near miss."""
    num, den = LaurentPoly(dn), LaurentPoly(dd)
    assume(den)
    a, c = RatFunc(num.shift(y), den), RatFunc(num.shift(x + y), den.shift(x + miss))
    assert a.num._c == c.num._c and a.den._c == c.den._c
    assert (a == c) == (a.num * c.den == c.num * a.den) == (not miss or not num)
    assert (c == a) == (a == c)


@PROPERTY
@given(st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)), _SMALL, max_size=8),
       st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)), st.one_of(_SMALL, _WIDE),
                       max_size=2))
@example({(1, 2): 3, (0, 0): -1}, {(0, 0): 1})  # times one: the operand itself
def test_bipoly_zero_and_monomial_paths_match_reference(da, db):
    """The second operand has at most two terms, so zero and one-term
    operands come up often on both sides."""
    a, b = BiPoly(da), BiPoly(db)
    da, db = _ref_clean(da), _ref_clean(db)
    prod = {}
    for (a1, a2), c1 in da.items():
        for (b1, b2), c2 in db.items():
            prod[(a1 + b1, a2 + b2)] = prod.get((a1 + b1, a2 + b2), 0) + c1 * c2
    for got, want in ((a * b, prod), (b * a, prod), (a + b, _ref_add(da, db)),
                      (b + a, _ref_add(da, db))):
        assert got == BiPoly(want)
        assert got.terms() == sorted(_ref_clean(want).items())
        assert got.text() == _ref_text(_ref_clean(want), _ref_rs)


def _ref_bimul(a, b):
    out = {}
    for (a1, a2), c1 in a.items():
        for (b1, b2), c2 in b.items():
            out[(a1 + b1, a2 + b2)] = out.get((a1 + b1, a2 + b2), 0) + c1 * c2
    return _ref_clean(out)


def _ref_specialize(d, w1, w2):
    out = {}
    for (e1, e2), c in d.items():
        out[e1 * w1 + e2 * w2] = out.get(e1 * w1 + e2 * w2, 0) + c
    return _ref_clean(out)


_BI_SIGNED = st.dictionaries(st.tuples(st.integers(-3, 6), st.integers(-3, 6)),
                             st.one_of(_SMALL, _WIDE), max_size=24)


@PROPERTY
@given(_BI_SIGNED, _BI_SIGNED, st.integers(-3, 3), st.integers(-3, 3))
@example({(-1, 2): 1, (2, -3): -2, (0, 0): 5}, {(1, 1): 1, (-3, 6): 3, (6, -3): -1}, 2, 1)
@example({(0, 0): 1, (0, 1): 1}, {(0, 0): 1, (0, 1): -1}, 1, 0)  # a row's end cancels
@example({(0, 0): 1, (1, 1): 1, (2, 0): 1}, {(0, 0): -1, (2, 0): -1}, 3, 2)  # end rows cancel
def test_bipoly_matches_reference_with_signed_exponents(da, db, w1, w2):
    """Many-term operands with exponents of either sign on both
    variables, against the dict reference: every view of a, a + b,
    a * b and b * a, and ``==`` between the operands."""
    a, b = BiPoly(da), BiPoly(db)
    for got, want in ((a, _ref_clean(da)), (a + b, _ref_add(da, db)), (b + a, _ref_add(db, da)),
                      (a * b, _ref_bimul(da, db)), (b * a, _ref_bimul(db, da))):
        assert got.terms() == sorted(want.items())
        assert got.text() == _ref_text(want, _ref_rs)
        assert got.text(("t", "s")) == _ref_text(want, _ref_rs).replace("r", "t")
        assert got == BiPoly(want) and got.is_zero == (not want) and bool(got) == bool(want)
        assert got.eval_at_one == sum(want.values())
        assert got.specialize(w1, w2) == LaurentPoly(_ref_specialize(want, w1, w2))
    assert (a == b) == (_ref_clean(da) == _ref_clean(db))
    # a product by one is the operand itself: the halving walk's even
    # step for h_rs shares its value this way
    assert not a or BiPoly.one() * a is a


# ------------------------------------------------------------ packed slots

def _pack(coeffs: list[int], w: int) -> int:
    """sum c_i 256^(w i): the polynomial evaluated at q = 256^w, the
    reference packing that ``unpack`` inverts."""
    return sum(c << 8 * w * i for i, c in enumerate(coeffs))


@pytest.mark.parametrize("w", range(1, 18))
def test_slot_width_boundary(w):
    """256^w - 1 still fits w bytes; 256^w needs one more."""
    assert slot_width(256**w - 1) == w
    assert slot_width(256**w) == w + 1
    assert slot_width(256**w + 1) == w + 1


def test_slot_width_of_small_values_is_one_byte():
    assert [slot_width(v) for v in (0, 1, 2, 255)] == [1, 1, 1, 1]


@pytest.mark.parametrize("native", [True, False], ids=["cast", "slices"])
@pytest.mark.parametrize("w", range(1, 18))
def test_unpack_keeps_full_slots(w, native, monkeypatch):
    """A coefficient of exactly 256^w - 1 stays in its slot, next to
    zero, one and full neighbours, at every slot width, and 0 decodes
    to zero.  Without the native casts every width takes the byte
    slices, as on a big-endian host."""
    if not native:
        monkeypatch.setattr(poly, "_NATIVE_SLOTS", {})
    top = 256**w - 1
    coeffs = [top, 0, 1, top, top, 0, 0, 2, top]
    p = unpack(_pack(coeffs, w), w, -3)
    want = LaurentPoly({e: c for e, c in enumerate(coeffs, -3)})
    assert (p._lo, p._c) == (want._lo, want._c)
    assert unpack(top, w, 5) == LaurentPoly({5: top})
    assert unpack(_pack([], w), w) == ZERO


@pytest.mark.parametrize("w", [1, 2, 3])
def test_pack_bi_round_trips_and_refuses_what_has_no_slot(w):
    """r^i s^j is read from slot i k + j at s = 256^w, r = 256^(w k):
    full slots, an s-degree of k - 1 and empty rows decode, and 0 is
    the zero polynomial.  Nothing refuses a value: its packer keeps
    every coefficient and s-degree inside the slots."""
    top, k = 256**w - 1, 5
    p = BiPoly({(0, 0): top, (0, 4): 1, (1, 1): top, (3, 0): 2})
    v = _pack([top, 0, 0, 0, 1, 0, top, 0, 0, 0, 0, 0, 0, 0, 0, 2], w)
    assert unpack_bi(v, w, k) == p
    assert unpack_bi(0, w, k) == BiPoly()


@PROPERTY
@given(st.integers(1, 3), st.integers(1, 9), st.data())
def test_pack_bi_round_trips_random_values(w, k, data):
    """Random nonnegative values, with zero, one and full slots: with
    r^i s^j packed in slot i k + j, ``unpack_bi`` gives the same value
    back."""
    top = 256**w - 1
    coeff = st.one_of(st.sampled_from([0, 1, top]), st.integers(0, top))
    d = data.draw(st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, k - 1)), coeff,
                                  max_size=16))
    p = BiPoly(d)
    back = unpack_bi(sum(c << 8 * w * (i * k + j) for (i, j), c in d.items()), w, k)
    assert back == p and back.terms() == p.terms()


@PROPERTY
@given(st.integers(1, 12), st.integers(-30, 30),
       st.lists(st.integers(0, 3), max_size=40), st.data())
def test_unpack_matches_reference(w, lo, kinds, data):
    """Zero, one, full and random slots, with zero runs at either end,
    which ``unpack`` trims."""
    top = 256**w - 1
    coeffs = [(0, 1, top, data.draw(st.integers(0, top)))[k] for k in kinds]
    p = unpack(_pack(coeffs, w), w, lo)
    want = LaurentPoly({e: c for e, c in enumerate(coeffs, lo)})
    assert (p._lo, p._c) == (want._lo, want._c)
    assert unpack(_pack(list(p._c), w), w, p._lo) == p


@PROPERTY
@given(st.lists(st.integers(0, 300), min_size=1, max_size=12),
       st.lists(st.integers(0, 300), min_size=1, max_size=12),
       st.lists(st.integers(0, 300), min_size=1, max_size=6),
       st.integers(-3, 3), st.integers(0, 20), st.integers(-1, 1))
def test_ratfunc_equality_matches_cross_multiplication(na, da, ka, lo, at, bump):
    """On nonnegative quotients and scaled or perturbed copies, ``==``
    agrees with the convolution, which decides every unequal shape."""
    num, den, k = (LaurentPoly(dict(enumerate(c, lo))) for c in (na, da, ka))
    assume(num and den and k)
    other_num = num * k + LaurentPoly({at + lo: bump})
    if other_num.is_zero or min(other_num._c) < 0:
        other_num = num * k
    a, b = RatFunc(num, den), RatFunc(other_num, den * k)
    assert (a == b) == (num * den * k == other_num * den)
