"""The paper's identities on n of 100 to 1100 bits, far past the sweep
ranges, each through its single-n, memo-less functions."""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperq.fence import weight_check
from hyperq.matrices import entries_formula, m_of
from hyperq.poly import RatFunc
from hyperq.qrational import qdeform, qdeform_via_graph
from hyperq.stern import cw, cw_q

#: n of 100 to 1100 bits, drawn bit length first, every bit below the
#: leading 1 from a seeded generator (a plain integer draw in so wide a
#: range sets few of them)
HUGE = st.builds(lambda b, seed: 1 << (b - 1) | random.Random(seed).getrandbits(b - 1),
                 st.integers(100, 1100), st.integers(0, 2**32))

#: an 1100-bit n, which the draws of the single-argument tests miss
N1100 = 1 << 1099 | random.Random(7).getrandbits(1099)


@settings(derandomize=True, deadline=None, max_examples=6, database=None)
@given(HUGE, st.integers(1, 10**6))
def test_qdeform_of_cw(n, k):
    """[cw(n)]_q = q cw_q(n), with cw(n) = r/s given reduced and as
    kr/ks; where r/s > 1, the closure-set route agrees."""
    c, v = cw(n), cw_q(n)
    r, s = c.numerator, c.denominator
    want = RatFunc(v.num.shift(1), v.den)
    assert qdeform(r, s) == want
    assert qdeform(k * r, k * s) == want
    if r > s:
        assert qdeform_via_graph(k * r, k * s) == want


@settings(derandomize=True, deadline=None, max_examples=8, database=None)
@given(HUGE)
@example(N1100)
def test_entries_formula_is_the_word_product(n):
    assert entries_formula(n) == m_of(n)


@settings(derandomize=True, deadline=None, max_examples=15, database=None)
@given(HUGE)
@example(N1100)
def test_weight_check(n):
    """h_q(n) = q^(r+s) rgf(1/q), r the fence size and s the ones of n."""
    expected, actual = weight_check(n)
    assert expected == actual
