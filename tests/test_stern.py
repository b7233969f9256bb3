"""Diatomic sequence, its q-analogue, and the rational enumeration."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperq import hyperbinary as hb
from hyperq.hyperbinary import h_count, h_q, h_q_enum
from hyperq.poly import ONE, ZERO, LaurentPoly, RatFunc
from hyperq.stern import (_FUSC_Q_RULE, _FUSC_RULE, cw, cw_q, digit_rule, fusc, fusc_q, fusc_range,
                          halving, halving_range)


def _poly(*exps_coeffs: tuple[int, int]) -> LaurentPoly:
    return LaurentPoly(dict(exps_coeffs))


# Frozen oracle: the twelve tabulated rows n = 0..11.
TABLE = [
    # n, fusc(n), cw(n), fusc_q(n) terms
    (0, 0, Fraction(0, 1), ()),
    (1, 1, Fraction(1, 1), ((0, 1),)),
    (2, 1, Fraction(1, 2), ((1, 1),)),
    (3, 2, Fraction(2, 1), ((1, 1), (2, 1))),
    (4, 1, Fraction(1, 3), ((2, 1),)),
    (5, 3, Fraction(3, 2), ((1, 1), (2, 1), (3, 1))),
    (6, 2, Fraction(2, 3), ((2, 1), (3, 1))),
    (7, 3, Fraction(3, 1), ((2, 1), (3, 1), (4, 1))),
    (8, 1, Fraction(1, 4), ((3, 1),)),
    (9, 4, Fraction(4, 3), ((1, 1), (2, 1), (3, 1), (4, 1))),
    (10, 3, Fraction(3, 5), ((2, 1), (3, 1), (4, 1))),
    (11, 5, Fraction(5, 2), ((2, 1), (3, 2), (4, 1), (5, 1))),
]

# Frozen canonical renderings of the q-deformed ratios for the same rows.
CWQ_TEXT = [
    "(0) / (1)",
    "(1) / (q)",
    "(1) / (1 + q)",
    "(1 + q) / (q)",
    "(q) / (1 + q + q^2)",
    "(1 + q + q^2) / (q + q^2)",
    "(1 + q) / (1 + q + q^2)",
    "(1 + q + q^2) / (q)",
    "(q^2) / (1 + q + q^2 + q^3)",
    "(1 + q + q^2 + q^3) / (q + q^2 + q^3)",
    "(1 + q + q^2) / (1 + 2q + q^2 + q^3)",
    "(1 + 2q + q^2 + q^3) / (q + q^2)",
]


def test_table_fusc_and_cw():
    for n, f, c, _ in TABLE:
        assert fusc(n) == f
        assert cw(n) == c


def test_table_fusc_q():
    memo = {}
    for n, _, _, terms in TABLE:
        assert fusc_q(n, memo) == _poly(*terms), f"fusc_q({n})"


def test_table_cw_q_text():
    for n, _, _, _ in TABLE:
        assert cw_q(n).text() == CWQ_TEXT[n], f"cw_q({n})"


def test_fusc_errors_and_edges():
    with pytest.raises(ValueError):
        fusc(-1)
    with pytest.raises(ValueError):
        fusc_q(-1)
    assert fusc(0) == 0 and fusc(1) == 1
    assert fusc_range(0) == [0]  # inclusive upper index
    assert fusc_range(5) == [0, 1, 1, 2, 1, 3]


def test_fusc_recurrence_sweep():
    fr = fusc_range(4096)
    for n in range(1, 2048):
        assert fr[2 * n] == fr[n]
        assert fr[2 * n + 1] == fr[n] + fr[n + 1]
    for n in range(4097):
        assert fusc(n) == fr[n]


def test_fusc_q_recurrence_and_specialization():
    memo = {}
    for n in range(1, 1024):
        assert fusc_q(2 * n, memo) == fusc_q(n, memo).shift(1)
        assert fusc_q(2 * n + 1, memo) == (
            fusc_q(n + 1, memo) + fusc_q(n, memo).shift(2)
        )
        assert fusc_q(n, memo).eval_at_one == fusc(n)


def test_fusc_q_equals_expansion_generating_function():
    """fusc_q(n) = h_q(n-1): the q-diatomic value counts expansions of n-1
    by weight, independently computed from a different recurrence."""
    fq_memo, hq_memo = {}, {}
    for n in range(1, 2049):
        assert fusc_q(n, fq_memo) == h_q(n - 1, hq_memo)
        # the packed walk against the enumeration of the expansions
        assert fusc_q(n) == h_q_enum(n - 1), n


def _same_values(n: int) -> None:
    """Memo-less fusc_q, cw_q and h_q (the packed pair walk) against the
    same calls with a memo (``halving`` on ``LaurentPoly``)."""
    fq, cq, hq = {}, {}, {}
    assert fusc_q(n) == fusc_q(n, fq), n
    walked, halved = cw_q(n), cw_q(n, cq)
    assert (walked.num, walked.den) == (halved.num, halved.den), n
    assert h_q(n - 1) == h_q(n - 1, hq), n


def test_packed_walk_matches_halving():
    """Through n = 4800: max(fusc(n), fusc(n + 1)) first passes 255 at
    n = 4690 (fusc(4691) = 257), where the slots widen to two bytes.
    fusc_q(75093) has the first coefficient past one byte, 278."""
    for n in [*range(4801), 75091, 75092, 75093]:
        _same_values(n)
    assert max(fusc_q(75093)._c) == 278


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(st.builds(lambda b, seed: 1 << (b - 1) | random.Random(seed).getrandbits(b - 1),
                 st.integers(8, 1101), st.integers(0, 2**32)))
def test_packed_walk_matches_halving_on_large_n(n):
    """n of 8 to 1101 bits, every bit below the leading 1 from a
    seeded generator."""
    _same_values(n)


def test_consecutive_fusc_coprime_and_cw_hits_each_rational_once():
    from math import gcd

    fr = fusc_range(2048)
    for n in range(2047):
        assert gcd(fr[n], fr[n + 1]) == 1
    seen = {cw(n) for n in range(2048)}
    assert len(seen) == 2048  # injective on the range


def test_cw_counts_expansions():
    """cw(n) = h(n-1)/h(n): numerator and denominator count hyperbinary
    expansions of n-1 and n."""
    for n in range(1, 512):
        c = cw(n)
        assert c == Fraction(h_count(n - 1), h_count(n))


def test_large_index_is_fast():
    # the bit-walk is logarithmic; a billion-scale index must be instant
    assert fusc(10**9) == 7623  # cross-checked against the plain recursion
    assert fusc(2**64) == 1
    assert cw(2**64 - 1) == Fraction(64, 1)


def test_cw_q_is_ratio_of_fusc_q():
    memo = {}
    for n in range(0, 256):
        v = cw_q(n, memo)
        assert v == RatFunc(fusc_q(n, memo), fusc_q(n + 1, memo))


def test_cw_q_specializes_to_cw_at_one():
    for n in range(1, 256):
        v = cw_q(n).canonical()
        assert Fraction(v.num.eval_at_one, v.den.eval_at_one) == cw(n)


def test_halving_builds_each_value_once_below_and_never_at_zero_or_one():
    """fusc itself through the evaluator: the rule is called once per
    value it needs, only at x >= 2, and a memo answers later calls."""
    seen = []

    def rule(x, f):
        seen.append(x)
        return f[x // 2] + f[x // 2 + 1] if x % 2 else f[x // 2]

    memo = {}
    for n in range(0, 600):
        assert halving(n, rule, 0, 1, memo) == fusc(n)
    assert sorted(seen) == list(range(2, 600))
    seen.clear()
    assert halving(599, rule, 0, 1, memo) == fusc(599) and seen == []
    n = 2**1500 + 2**700 + 12345
    assert halving(n, rule, 0, 1) == fusc(n)
    assert min(seen) >= 2 and len(seen) == len(set(seen)) <= 2 * n.bit_length()


def test_halving_without_a_memo_keeps_only_the_last_pair():
    """The walk holds the pair of the prefix it stands on and the value
    it is building, never the levels above; with a memo it stores each
    value once."""
    held = []

    def rule(x, f):
        held.append(len(f))
        return f[x // 2] + f[x // 2 + 1] if x % 2 else f[x // 2]

    n = 2**1500 + 2**700 + 12345
    assert halving(n, rule, 0, 1) == fusc(n)
    assert len(held) > n.bit_length() and max(held) <= 4

    class Stores(dict):
        def __setitem__(self, x, v):
            stored.append(x)
            super().__setitem__(x, v)

    stored, memo = [], Stores()
    assert halving(n, rule, 0, 1, memo) == fusc(n)
    assert len(stored) == len(set(stored)) == len(memo)


def test_digit_rule_with_unit_weights_is_fusc():
    """Weighing every appended digit by 1 counts hyperbinary expansions:
    ``digit_rule(1, 1, 1)`` on plain ints is fusc, with a memo and
    without one."""
    rule, memo = digit_rule(1, 1, 1), {}
    for n in range(4097):
        assert halving(n, rule, 0, 1, memo) == halving(n, rule, 0, 1) == fusc(n)
    n = 2**1100 + 2**551 + 3
    assert halving(n, rule, 0, 1) == fusc(n)


#: every halving rule of the package, with its F(0) and F(1)
RULES = {
    "fusc": (_FUSC_RULE, 0, 1),
    "fusc_q": (_FUSC_Q_RULE, ZERO, ONE),
    "h_rs": (hb._H_RS_RULE, hb._BI_ZERO, hb._BI_ONE),
    "hbar_st": (hb._HBAR_ST_RULE, hb._BI_ZERO, hb._BI_ONE),
    "expansions": (hb._expansions_rule, (), (b"",)),
}


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 4097])
@pytest.mark.parametrize("name", RULES)
def test_halving_range_matches_halving(name, limit):
    """``halving_range`` lists what ``halving`` returns at each x up to
    the limit, calling the rule once per x >= 2, in increasing order."""
    rule, zero, one = RULES[name]
    calls = []

    def counted(x, f):
        calls.append(x)
        return rule(x, f)

    memo = {}
    assert halving_range(limit, counted, zero, one) == [
        halving(x, rule, zero, one, memo) for x in range(limit + 1)]
    assert calls == list(range(2, limit + 1))


def test_halving_range_refuses_a_negative_limit():
    with pytest.raises(ValueError) as info:
        halving_range(-1, _FUSC_Q_RULE, ZERO, ONE)
    assert str(info.value) == "limit must be >= 0"


def test_fusc_q_past_the_recursion_limit():
    n = 2**1100 + 2**551 + 3
    assert fusc_q(n).eval_at_one == fusc(n)
    v = cw_q(n)
    assert Fraction(v.num.eval_at_one, v.den.eval_at_one) == cw(n)
