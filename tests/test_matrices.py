"""2x2 matrix products over Laurent polynomials and their entry formulas."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperq.matrices as mx
from hyperq.hyperbinary import h_q, h_rs
from hyperq.matrices import (
    BiMat2,
    L,
    L_PRIME,
    Mat2,
    R,
    R_PRIME,
    entries_checks,
    entries_formula,
    m_of,
    m_prime_check,
    m_prime_checks,
    m_prime_of,
    m_prime_range,
    m_range,
    row_sum_check,
    row_sum_checks,
    row_sums_formula,
    word_of,
)
from hyperq.poly import ONE, ZERO, BiPoly, LaurentPoly, qpow, unpack, unpack_bi
from hyperq.stern import cw_q, fusc, fusc_q


def det(m: Mat2) -> LaurentPoly:
    return m.a * m.d - m.b * m.c


def det_check(n: int, m: Mat2) -> bool:
    """det M(n) = q^(#R - #L) over the word of n."""
    word = word_of(n)
    return det(m) == qpow(word.count("R") - word.count("L"))


def test_generators_pinned():
    assert L.entries() == (ONE, ZERO, ONE, qpow(-1))
    assert R.entries() == (qpow(1), ONE, ZERO, ONE)
    assert det(L) == qpow(-1)
    assert det(R) == qpow(1)


def test_word_of_examples():
    assert word_of(19) == "RRLL"
    assert word_of(1) == ""
    assert word_of(2) == "L"
    assert word_of(3) == "R"
    with pytest.raises(ValueError):
        word_of(0)


def test_m_of_examples():
    assert m_of(1) == Mat2.identity()
    assert m_of(2) == L
    assert m_of(3) == R
    m19 = m_of(19)
    assert m19.a == LaurentPoly({-1: 1, 0: 2, 1: 1, 2: 1})
    assert m19.b == LaurentPoly({-1: 1, -2: 1})
    assert m19.c == LaurentPoly({-1: 1, 0: 1})
    assert m19.d == LaurentPoly({-2: 1})


def test_matrices_are_values():
    """Entrywise equality within one type; a Mat2 never equals a BiMat2
    or its entry tuple, and a matrix, like its entries, is unhashable."""
    assert m_of(19) == m_of(19) and m_of(19) != m_of(18)
    assert m_prime_of(19) == m_prime_of(19) and m_prime_of(19) != m_prime_of(18)
    assert BiMat2.identity() != Mat2.identity()
    assert Mat2.identity() != Mat2.identity().entries()
    assert repr(R) == ("Mat2(a=LaurentPoly({1: 1}), b=LaurentPoly({0: 1}), "
                       "c=LaurentPoly({}), d=LaurentPoly({0: 1}))")
    with pytest.raises(TypeError):
        hash(L)


def _fold(n: int, left, right):
    """The word of n folded left to right with ``@``: the definition of
    M(n) or M'(n), sharing no code with the packed walks."""
    m = type(left).identity()
    for ch in word_of(n):
        m = m @ (right if ch == "R" else left)
    return m


def test_m_range_agrees_with_word_products():
    ms = m_range(1024)
    for n in range(1, 1025):
        assert ms[n] == m_of(n), n
        assert ms[n] == _fold(n, L, R), n


def test_packed_words_match_word_folds():
    for n in range(1, 2048):
        assert m_of(n) == _fold(n, L, R), n
        assert m_prime_of(n) == _fold(n, L_PRIME, R_PRIME), n


def _bits(lo: int, hi: int):
    """n of lo to hi bits, drawn bit length first, every bit below the
    leading 1 from a seeded generator (a plain integer draw in so wide a
    range sets few of them)."""
    return st.builds(lambda b, seed: 1 << (b - 1) | random.Random(seed).getrandbits(b - 1),
                     st.integers(lo, hi), st.integers(0, 2**32))


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(_bits(12, 224))
def test_m_of_matches_word_fold_on_large_n(n):
    assert m_of(n) == _fold(n, L, R)


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(_bits(12, 68))
def test_m_prime_of_matches_word_fold_on_large_n(n):
    assert m_prime_of(n) == _fold(n, L_PRIME, R_PRIME)


def test_single_n_walks_keep_their_errors():
    for f in (m_of, m_prime_of):
        with pytest.raises(ValueError, match=r"^n must be >= 1$"):
            f(0)
    with pytest.raises(ValueError, match=r"^fusc_q is defined for n >= 0$"):
        fusc_q(-1)
    with pytest.raises(ValueError, match=r"^cw_q is defined for n >= 0$"):
        cw_q(-1)


#: limits where the packing changes: max fusc(n + 1) crosses 255 from
#: 4689 to 4690 (fusc(4691) = 257), so w goes from 1 to 2, and K, one
#: more than the limit's bit length, changes at each power of two
PACKING_LIMITS = [4689, 4690, 4691, 1023, 1024, 1025, 2047, 2048, 2049]


def _dense(p: LaurentPoly) -> tuple:
    return p._lo, p._c


def test_entries_checks_build_h_q_as_far_as_they_read(monkeypatch):
    """``entries_checks(limit)`` asks ``h_q_range`` for the largest m
    that ``_entries_index(n)`` reads for some n <= limit, no further."""
    asked, real = [], mx.h_q_range
    monkeypatch.setattr(mx, "h_q_range", lambda limit, w: asked.append(limit) or real(limit, w))
    reach = 0
    for limit in range(2, 400):
        reach = max(reach, *(m for m, _ in mx._entries_index(limit)))
        assert len(list(entries_checks(limit))) == limit - 1
        assert asked.pop() == reach, limit


@pytest.mark.parametrize("limit", PACKING_LIMITS)
def test_packed_ranges_match_word_products_where_the_packing_changes(limit):
    """Each range decodes its packed products with the slot width and K
    of its limit; the last n of the range have the largest values.  The
    row sums and the entry formula's checks are read from the same packed
    products, and match as packed integers."""
    ms, mps = m_range(limit), m_prime_range(limit)
    sums = list(row_sum_checks(limit))
    entries = list(entries_checks(limit))
    primes = list(m_prime_checks(limit))
    w, k, _ = mx._m_prime_packed(limit)
    assert len(sums) == len(primes) == len(entries) + 1 == limit
    for n in range(limit - 3, limit + 1):
        m, mp = m_of(n), m_prime_of(n)
        assert [_dense(e) for e in ms[n].entries()] == [_dense(e) for e in m.entries()], n
        assert [e.terms() for e in mps[n].entries()] == [e.terms() for e in mp.entries()], n
        assert m == _fold(n, L, R) and mp == _fold(n, L_PRIME, R_PRIME), n
        lo = -mx._zeros(n)
        expected, actual = sums[n - 1]
        assert expected == actual, n
        actual = tuple(unpack(v, w, lo) for v in actual)
        assert [_dense(e) for e in actual] == [_dense(e) for e in m.column_sums_vector()], n
        assert actual == row_sums_formula(n) and row_sum_check(n) == (actual, actual)
        expected, actual = entries[n - 2]
        assert expected == actual, n
        assert [_dense(unpack(v, w, lo)) for v in actual] == [_dense(e) for e in m.entries()], n
        assert entries_formula(n) == m, n
        expected, actual = primes[n - 1]
        assert expected == actual, n
        assert tuple(unpack_bi(v, w, k) for v in actual) == mp.column_sums_vector(), n
    assert all(expected == actual for expected, actual in sums)
    assert all(expected == actual for expected, actual in entries)
    assert all(expected == actual for expected, actual in primes)


def test_packed_slots_hold_coefficients_past_one_byte():
    """M(75092) has the first row sum with a coefficient above 255: 278,
    in c + d.  The slot width of the range keeps it from carrying."""
    n = 75092
    w, ms = mx._m_packed(n)
    a, b, c, d = ms[n]
    lo = -mx._zeros(n)
    assert max(unpack(c + d, w)._c) == 278
    assert [unpack(v, w, lo) for v in ms[n]] == list(m_of(n).entries())
    assert m_of(n) == _fold(n, L, R)
    assert unpack(c + d, w, lo) == row_sums_formula(n)[1]


def test_halving_identities():
    # m_of walks the bits of n from the top, and L @ and R @ are the
    # plain products; m_range itself is built bottom up from these
    # identities, so checking it here would be circular
    for n in range(1, 257):
        mn = m_of(n)
        assert m_of(2 * n) == L @ mn
        assert m_of(2 * n + 1) == R @ mn


def test_entries_formula_examples():
    f19 = entries_formula(19)
    assert f19 == m_of(19)
    # top-left is q^-3 h_q(10); bottom-right is q^-4 h_q(3)
    assert f19.a == h_q(10).shift(-3)
    assert f19.d == h_q(3).shift(-4)
    # all-ones boundary: first column degenerates
    f7 = entries_formula(7)
    assert f7.a == qpow(2) and f7.c == ZERO
    assert f7 == m_of(7)


def test_entries_formula_sweep_with_boundaries():
    ms = m_range(4096)
    memo = {}
    for n in range(2, 4097):
        assert entries_formula(n, memo) == ms[n], n
    # both branch boundaries for every block size in range
    for k in range(1, 13):
        for n in (2**(k + 1) - 1, 2**(k + 1) - 2, 2**k):
            assert entries_formula(n) == m_of(n), n


def test_row_sum_identity():
    expected, actual = row_sum_check(1)
    assert expected == actual
    top, bottom = m_of(19).column_sums_vector()
    assert top == h_q(18).shift(-4)
    assert bottom == h_q(19).shift(-5)
    assert ((top, bottom), (top, bottom)) == row_sum_check(19)


def test_row_sum_identity_large_sweep():
    """Vector form of the halving identity: v(2n) = L v(n), v(2n+1) = R v(n),
    with v(n) = M(n) (1,1)^T.  Checks the row-sum theorem to 2^16 without
    building matrices."""
    limit = 2**16
    memo = {}
    tops: list[LaurentPoly | None] = [None] * (limit + 1)
    bots: list[LaurentPoly | None] = [None] * (limit + 1)
    tops[1], bots[1] = ONE, ONE
    for n in range(2, limit + 1):
        t, b = tops[n // 2], bots[n // 2]
        if n % 2:
            tops[n] = t.shift(1) + b  # R @ (t, b)
            bots[n] = b
        else:
            tops[n] = t                # L @ (t, b)
            bots[n] = t + b.shift(-1)
    for n in range(1, limit + 1):
        k = n.bit_length() - 1
        assert tops[n] == h_q(n - 1, memo).shift(-k), n
        assert bots[n] == h_q(n, memo).shift(-k - 1), n


def test_q_one_shadow_is_diatomic():
    ms = m_range(2048)
    for n in range(1, 2049):
        top, bottom = ms[n].column_sums_vector()
        assert top.eval_at_one == fusc(n)
        assert bottom.eval_at_one == fusc(n + 1)


def test_determinant_tracks_word_signature():
    ms = m_range(4096)
    for n in range(1, 4097):
        assert det_check(n, ms[n]), n
    word = word_of(19)
    assert det(m_of(19)) == qpow(word.count("R") - word.count("L"))


# ------------------------------------------------------------ two-variable side

def test_prime_generators_pinned():
    r = BiPoly.monomial(1, 1, 0)
    s = BiPoly.monomial(1, 0, 1)
    one = BiPoly.one()
    zero = BiPoly.zero()
    assert L_PRIME.entries() == (one, zero, r, s)
    assert R_PRIME.entries() == (r, s, zero, one)


def test_m_prime_examples():
    assert m_prime_of(1) == BiMat2.identity()
    assert m_prime_of(2) == L_PRIME
    assert ((BiPoly.one(), BiPoly.one()),) * 2 == m_prime_check(1)
    top, bottom = m_prime_of(2).column_sums_vector()
    assert top == BiPoly.one()
    assert bottom == BiPoly({(1, 0): 1, (0, 1): 1})  # r + s
    expected, actual = m_prime_check(2)
    assert expected == actual == (top, bottom)


def test_m_prime_sweep():
    mps = m_prime_range(2048)
    memo = {}
    for n in range(1, 2049):
        assert mps[n].column_sums_vector() == (h_rs(n - 1, memo), h_rs(n, memo)), n


BIG = _bits(100, 600)


@settings(derandomize=True, deadline=None, max_examples=50, database=None)
@given(BIG)
def test_row_sums_of_large_n(n):
    """The L/R product against the halving recurrence, far past the
    sweep ranges."""
    assert m_of(n).column_sums_vector() == row_sums_formula(n)


@settings(derandomize=True, deadline=None, max_examples=10, database=None)
@given(_bits(64, 200))
def test_m_prime_check_on_large_n(n):
    """M'(n) (1,1)^T = (h_rs(n-1), h_rs(n))^T far past the sweep range:
    the packed walk's column sums against the halving recurrence on the
    row form of ``BiPoly``."""
    expected, actual = m_prime_check(n)
    assert expected == actual
    assert actual[1].eval_at_one == fusc(n + 1)

