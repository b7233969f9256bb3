"""Fence posets, order ideals, rank generating functions, and the bridges
back to expansion lattices and the q-enumeration."""

import inspect
import random
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hyperq
import hyperq.fence as fe
from hyperq.fence import (
    cover_pairs,
    fence,
    fence_dot,
    ideal_label,
    ideal_members,
    ideals,
    ideals_dot,
    iso_check,
    qcw_fence,
    rgf,
    stilde,
    weight_check,
)
from hyperq.hyperbinary import (
    binary_expansion,
    covers,
    dot_source,
    expansions,
    h_count,
    h_q,
    leq,
    min_element,
)
from hyperq.poly import ONE, Q, LaurentPoly, unpack
from hyperq.stern import cw_q, range_width


# ------------------------------------------------------------------ structure

def test_fence_examples():
    assert fence(10) == "101"
    assert cover_pairs(fence(10)) == ((2, 1), (2, 3))
    assert fence(75) == "1001"
    assert cover_pairs(fence(75)) == ((2, 1), (3, 2), (3, 4))
    assert fence(7) == fence(0) == ""
    assert cover_pairs(fence(7)) == ()


def _prefix_oracle(n: int) -> str:
    """The digits of ``binary_expansion(n)`` strictly before its
    rightmost 0, read one digit at a time."""
    b = binary_expansion(n)
    zeros = [j for j, dig in enumerate(b) if dig == 0]
    return "".join(map(str, b[:zeros[-1]])) if zeros else ""


def test_fence_size_is_principal_prefix_length():
    """The fence is the principal prefix as a word, so its size is the
    prefix's length: every n below 5000 and 200 seeded n of up to 2000
    bits."""
    rng = random.Random(15)
    big = [rng.getrandbits(rng.randint(1, 2000)) for _ in range(200)]
    for n in list(range(5000)) + big:
        assert fence(n) == _prefix_oracle(n), n
    with pytest.raises(ValueError, match="n must be >= 0"):
        fence(-1)


def _cover_pairs_oracle(f: str) -> set[tuple[int, int]]:
    """Every (lower, upper) pair of adjacent elements, by the fence's
    definition: letter i of f is "1" exactly when x_i > x_{i-1}."""
    pairs = set()
    for lo in range(1, len(f) + 1):
        for hi in range(1, len(f) + 1):
            if abs(lo - hi) == 1 and f[max(lo, hi) - 1] == ("1" if hi > lo else "0"):
                pairs.add((lo, hi))
    return pairs


def test_cover_pairs_on_every_word_up_to_ten_letters():
    for r in range(11):
        for letters in product("01", repeat=r):
            f = "".join(letters)
            pairs = cover_pairs(f)
            assert set(pairs) == _cover_pairs_oracle(f), f
            # one pair per step, in step order
            assert [max(p) for p in pairs] == list(range(2, r + 1)), f


# -------------------------------------------------------------------- ideals

def test_ideals_of_fence_10():
    f = fence(10)
    masks = ideals(f)
    assert masks == (0, 0b010, 0b011, 0b110, 0b111)
    assert [ideal_members(m, len(f)) for m in masks] == [
        [], [2], [1, 2], [2, 3], [1, 2, 3]
    ]
    assert ideal_label(0b110, 3) == "{x2,x3}"


def test_ideals_edge_cases():
    assert ideals(fence(7)) == (0,)   # empty poset: only the empty ideal
    assert len(ideals(fence(75))) == 7


def is_ideal(f: str, mask: int) -> bool:
    """Is the bitset (bit i-1 for x_i) downward closed?"""
    for lo, hi in cover_pairs(f):
        if (mask >> (hi - 1)) & 1 and not (mask >> (lo - 1)) & 1:
            return False
    return True


def _brute_ideals(f: str) -> set[int]:
    return {mask for mask in range(1 << len(f)) if is_ideal(f, mask)}


def test_ideals_dp_equals_brute_force():
    # every n below 513 (fences up to 8 elements), plus handpicked wide
    # fences with 14 to 16 elements
    for n in list(range(1, 513)) + [
        2**16 - 3,            # prefix 1^14
        2**17 - 3,            # prefix 1^15
        2**18 - 3,            # prefix 1^16
        0b101010101010101001, # alternating prefix, 16 elements
        0b100110011001100101, # mixed prefix, 16 elements
    ]:
        f = fence(n)
        got = ideals(f)
        assert set(got) == _brute_ideals(f), n
        assert len(set(got)) == len(got)
        # sorted by (size, value)
        key = [(bin(m).count("1"), m) for m in got]
        assert key == sorted(key)
        for m in got:
            assert is_ideal(f, m)


def test_ideal_count_matches_expansion_count():
    for n in range(1, 1025):
        assert rgf(fence(n)).eval_at_one == h_count(n)


# ----------------------------------------------------------------------- rgf

def test_rgf_examples():
    assert rgf(fence(10)) == LaurentPoly({0: 1, 1: 1, 2: 2, 3: 1})
    assert rgf(fence(10)).text() == "1 + q + 2q^2 + q^3"
    assert rgf(fence(11)) == ONE + Q
    for k in range(1, 10):
        assert rgf(fence(2**k - 1)) == ONE
    assert rgf(fence(0)) == ONE


def test_rgf_shape_properties():
    for n in range(1, 1025):
        p = rgf(fence(n))
        r = len(fence(n))
        assert p.coeff(0) == 1
        assert all(c > 0 for _, c in p.terms())
        assert p.min_exp == 0
        assert p.max_exp == r  # the full fence is always an ideal
        assert p.eval_at_one == h_count(n)


def rgf_reference(f: str) -> LaurentPoly:
    """``rgf`` by the fence scan on ``LaurentPoly`` values: ``out`` and
    ``inn`` are the rank polynomials of the partial ideals of x_1..x_i
    without and with x_i."""
    if not f:
        return ONE
    out, inn = ONE, Q
    for b in f[1:]:
        if b == "1":  # x_i > x_{i-1}
            out, inn = out + inn, inn.shift(1)
        else:  # x_i < x_{i-1}
            inn = (out + inn).shift(1)
    return out + inn


def _same_poly(p: LaurentPoly, want: LaurentPoly) -> bool:
    """The same stored form, not merely an equal value."""
    return (p._lo, p._c) == (want._lo, want._c)


def test_rgf_reference_counts_the_brute_force_ideals():
    for letters in product("01", repeat=7):
        f = "1" + "".join(letters)
        sizes = [bin(m).count("1") for m in _brute_ideals(f)]
        assert rgf_reference(f) == LaurentPoly({k: sizes.count(k) for k in set(sizes)})


def test_packed_rgf_on_every_fence_up_to_ten_elements():
    for r in range(11):
        for letters in product("01", repeat=r):
            f = "".join(letters)
            assert _same_poly(rgf(f), rgf_reference(f)), f


def test_packed_rgf_on_random_fences_up_to_300_elements():
    rng = random.Random(2024)
    for _ in range(60):
        r = rng.randint(11, 300)
        bias = rng.random()  # long runs (chains) as well as zigzags
        f = "".join("1" if rng.random() < bias else "0" for _ in range(r))
        assert _same_poly(rgf(f), rgf_reference(f)), f


@pytest.mark.parametrize("size, count, w", [(254, 255, 1), (255, 256, 2)])
def test_rgf_slot_width_follows_the_ideal_count(monkeypatch, size, count, w):
    """A chain of r elements has r + 1 ideals, one of each size: the
    width comes from that count, 255 in one byte and 256 in two."""
    seen = []
    width = fe.slot_width

    def spy(bound):
        seen.append((bound, width(bound)))
        return seen[-1][1]

    monkeypatch.setattr(fe, "slot_width", spy)
    p = rgf("1" * size)
    assert seen == [(count, w)]
    assert (p._lo, p._c) == (0, (1,) * count)


# -------------------------------------------------------------------- stilde

def test_stilde_examples():
    assert stilde((0, 2, 1, 0)) == (0, 1, 1)
    assert stilde((1, 0, 1, 0)) == (1, 1, 1)
    for n in (10, 75, 22):
        assert stilde(min_element(n)) == (0,) * len(fence(n))


def test_stilde_entries_are_binary_and_identify_ideals():
    memo = {}
    for n in range(1, 513):
        f = fence(n)
        ideal_set = set(ideals(f))
        images = set()
        for d in expansions(n, memo):
            v = stilde(d)
            assert all(x in (0, 1) for x in v)
            mask = sum(1 << i for i, x in enumerate(v) if x)
            assert mask in ideal_set
            images.add(mask)
        assert images == ideal_set


def test_stilde_cover_removes_one_coordinate():
    memo = {}
    for n in range(1, 513):
        for d in expansions(n, memo):
            vd = stilde(d)
            for c in covers(d):
                vc = stilde(c)
                diffs = [i for i in range(len(vd)) if vc[i] != vd[i]]
                assert len(diffs) == 1
                assert vd[diffs[0]] == 1 and vc[diffs[0]] == 0


# ------------------------------------------------------------ the isomorphism

ISO = "order isomorphism"


def _actual(n, elems=None):
    """The actual side of ``iso_check``, after checking its expected side."""
    expected, actual = iso_check(n, elems)
    assert expected == ISO
    return actual


def test_iso_check_examples():
    assert _actual(10) == ISO
    for k in range(1, 9):
        assert _actual(2**k - 1) == ISO
    for n in range(1, 600):
        assert _actual(n) == ISO, n


def test_iso_check_agrees_with_all_pairs_order():
    """The all-pairs oracle behind iso_check's single pass: prefix-sum
    domination equals containment of the matched ideals on every pair."""
    memo = {}
    for n in range(1, 513):
        elems = expansions(n, memo)
        masks = [sum(1 << i for i, v in enumerate(stilde(d)) if v) for d in elems]
        for c, mc in zip(elems, masks):
            for d, md in zip(elems, masks):
                assert leq(c, d) == (mc & ~md == 0), (n, c, d)
        assert _actual(n) == ISO, n


def test_iso_check_fails_when_a_tail_differs(monkeypatch):
    top = binary_expansion(10)
    monkeypatch.setattr(fe, "expansions", lambda n: tuple(
        (1, 0, 1, 1) if d == top else d for d in expansions(n)))
    assert _actual(10) == "prefix sums of (1, 0, 1, 1) leave the bottom's beyond position 3"


def test_iso_check_fails_on_colliding_vectors(monkeypatch):
    monkeypatch.setattr(fe, "expansions", lambda n: expansions(n) + expansions(n)[:1])
    assert _actual(10) == "reduced prefix vectors collide"


def test_iso_check_fails_when_an_ideal_is_missed(monkeypatch):
    monkeypatch.setattr(fe, "expansions", lambda n: expansions(n)[:-1])
    assert _actual(10) == "image is not the set of ideals"


def test_iso_check_reads_a_given_listing():
    elems = expansions(10)
    assert _actual(10, elems[:-1]) == "image is not the set of ideals"
    assert _actual(10, elems + elems[:1]) == "reduced prefix vectors collide"
    assert _actual(10, elems) == _actual(10) == ISO


def test_iso_check_rejects_non_binary_offsets(monkeypatch):
    monkeypatch.setattr(fe, "min_element", binary_expansion)
    assert _actual(10) == "(1, 0, 0, 2): reduced prefix sums not 0/1"
    with pytest.raises(ArithmeticError, match="not 0/1"):
        stilde((0, 2, 1, 0))


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(st.integers(2**12, 2**22 - 1))
def test_iso_check_passes_beyond_the_sweep(n):
    """The packed set comparison on 13- to 22-bit n, past verify's bound."""
    assume(h_count(n) <= 20000)
    assert _actual(n) == ISO


@pytest.mark.parametrize("n", [10, 75, 22, 1000, 2**11 - 3])
def test_iso_check_fails_on_every_wrong_bottom(monkeypatch, n):
    for d in expansions(n):
        if d == min_element(n):
            continue
        monkeypatch.setattr(fe, "min_element", lambda m, d=d: d)
        detail = _actual(n)
        assert (detail.endswith(": reduced prefix sums not 0/1")
                or detail.startswith("prefix sums of ")), (d, detail)


def test_iso_check_fails_on_a_string_with_a_negative_digit(monkeypatch):
    # (-1, 3, 2, 2) still sums to 10, but its base-256 value is negative
    monkeypatch.setattr(fe, "expansions", lambda n: expansions(n) + ((-1, 3, 2, 2),))
    assert _actual(10) == "(-1, 3, 2, 2): reduced prefix sums not 0/1"


@pytest.mark.parametrize("shift", [(0, 0, 1, 0), (0, 0, 0, 254)])
def test_iso_check_fails_on_digits_beyond_two(monkeypatch, shift):
    """Adding one string to every element and to the bottom leaves all
    prefix-sum offsets as they were, but the digits are no longer 0, 1, 2
    (digit 3, or a digit that does not fit a byte)."""
    def moved(d):
        return tuple(a + b for a, b in zip(d, shift))

    monkeypatch.setattr(fe, "expansions", lambda n: tuple(map(moved, expansions(n))))
    monkeypatch.setattr(fe, "min_element", lambda n: moved(min_element(n)))
    assert _actual(10) == "expansions are not strings over 0, 1, 2 longer than the fence"


def test_package_keeps_the_fence_module():
    assert inspect.ismodule(fe) and fe is hyperq.fence
    assert hyperq.fence.fence(10) == "101"


# ------------------------------------------------------------- weight bridge

def test_weight_check_worked_example():
    # r = 3 elements, s = 2 ones in the binary digits of 10
    assert len(fence(10)) == 3 and (10).bit_count() == 2
    lhs = rgf(fence(10)).reverse_var().shift(5)
    assert lhs == h_q(10)
    assert (lhs, h_q(10)) == weight_check(10)


def test_weight_check_sweep_and_all_ones():
    memo = {}
    for n in range(1, 2049):
        expected, actual = weight_check(n, memo)
        assert expected == actual, n
    for k in range(1, 12):
        n = 2**k - 1
        assert h_q(n) == LaurentPoly({k: 1})  # q^k: the degenerate case


@pytest.mark.parametrize("limit, w", [(4096, 1), (4689, 1), (4690, 2)])
def test_weight_checks_decode_to_the_fence_formula(limit, w):
    """Every packed claim of ``weight_checks`` decodes, with q^s put
    back, to ``h_q_fence(n)``; every check's claim is that packed claim
    times q^s and equals its oracle, and its decode gives the sides of
    ``weight_check(n)``.  The slot width is one byte to 4689 and two
    from 4690, where fusc(4691) = 256 is the first fusc to need them."""
    assert range_width(limit) == w
    _, claims = fe._packed_weights(limit)
    assert len(claims) == limit + 1 and claims[0] == 1  # h_q_fence(0) = 1
    memo = {}
    for n, (claim, oracle, decode) in enumerate(fe.weight_checks(limit), 1):
        s = n.bit_count()
        assert type(claim) is int and claim == oracle == claims[n] << 8 * w * s
        decoded = unpack(claims[n], w, s)
        assert decoded == fe.h_q_fence(n), n
        assert (decoded, decoded) == weight_check(n, memo) == decode(), n
    assert n == limit


# ---------------------------------------------------------- q-enumeration tie

def test_qcw_fence_examples():
    assert qcw_fence(11).text() == "(1 + 2q + q^2 + q^3) / (q + q^2)"
    assert qcw_fence(1).text() == "(1) / (q)"
    assert qcw_fence(11) == cw_q(11)


def test_qcw_fence_sweep():
    memo = {}
    for n in range(1, 1025):
        assert qcw_fence(n) == cw_q(n, memo), n


# ----------------------------------------------------------------- DOT export

def test_fence_dot_golden():
    src = fence_dot(10)
    assert src.startswith("digraph fence_10 {")
    assert '"x1";' in src and '"x2";' in src and '"x3";' in src
    assert '"x2" -> "x1";' in src
    assert '"x2" -> "x3";' in src
    assert src.count("->") == 2
    assert fence_dot(10) == src  # stable


def test_ideals_dot_golden():
    src = ideals_dot(10)
    assert src.startswith("digraph ideals_10 {")
    for label in ('"{}"', '"{x2}"', '"{x1,x2}"', '"{x2,x3}"', '"{x1,x2,x3}"'):
        assert label in src
    assert '"{}" -> "{x2}"' in src
    assert '"{x2}" -> "{x1,x2}"' in src
    assert '"{x2}" -> "{x2,x3}"' in src
    assert '"{x1,x2}" -> "{x1,x2,x3}"' in src
    assert '"{x2,x3}" -> "{x1,x2,x3}"' in src
    assert src.count("->") == 5


def _ideals_dot_all_pairs(n):
    """ideals_dot by testing every pair of ideals for a cover."""
    f = fence(n)
    masks = ideals(f)
    labels = {m: ideal_label(m, len(f)) for m in masks}
    edges = ((labels[m], labels[other]) for m in masks for other in masks
             if m & ~other == 0 and (other ^ m).bit_count() == 1)
    return dot_source(f"ideals_{n}", labels.values(), edges)


def test_ideals_dot_equals_the_all_pairs_oracle():
    for n in range(1025):
        assert ideals_dot(n) == _ideals_dot_all_pairs(n), n


def test_ideals_dot_edges_are_covers():
    """In the ideal lattice a cover adds exactly one element."""
    for n in (10, 75, 22, 21):
        src = ideals_dot(n)
        f = fence(n)
        n_ideals = len(ideals(f))
        # count cover pairs brute force
        masks = ideals(f)
        covers_cnt = 0
        for a, b in combinations(masks, 2):
            lo, hi = (a, b) if bin(a).count("1") < bin(b).count("1") else (b, a)
            if lo & ~hi == 0 and bin(hi ^ lo).count("1") == 1:
                covers_cnt += 1
        assert src.count("->") == covers_cnt
        assert src.count(";") >= n_ideals + covers_cnt
