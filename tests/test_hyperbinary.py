"""Hyperbinary expansions, statistics, generating polynomials, lattice order."""

import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperq.hyperbinary as hb
from hyperq.fence import fence, iso_check
from hyperq.hyperbinary import (
    HBAR_NAMES,
    binary_expansion,
    covers,
    digits_text,
    digits_value,
    enum_polys,
    expansions,
    expansions_upto,
    h_count,
    h_q,
    h_q_closed_form,
    h_q_closed_form_applies,
    h_q_enum,
    h_rs,
    h_rs_enum,
    hbar_st,
    hbar_st_enum,
    join,
    join_irreducibles,
    lattice_dot,
    leq,
    meet,
    min_element,
    s_vector,
    stats,
    stats_rows,
)
from hyperq.poly import BiPoly, LaurentPoly, unpack, unpack_bi
from hyperq.stern import fusc, range_width

ISO = "order isomorphism"


# ------------------------------------------------------------ digit plumbing

def test_binary_expansion_examples():
    assert binary_expansion(75) == (1, 0, 0, 1, 0, 1, 1)
    assert binary_expansion(1) == (1,)
    assert binary_expansion(10) == (1, 0, 1, 0)
    assert binary_expansion(0) == ()


def test_digits_value_round_trip():
    for n in range(0, 600):
        assert digits_value(binary_expansion(n)) == n
    assert digits_value((0, 2, 1, 0)) == 10
    assert digits_text((0, 2, 1, 0)) == "0210"


# ---------------------------------------------------------------- enumeration

def test_expansions_of_10_exact_and_ordered():
    assert expansions(10) == (
        (1, 0, 1, 0),
        (1, 0, 0, 2),
        (0, 2, 1, 0),
        (0, 2, 0, 2),
        (0, 1, 2, 2),
    )


def test_expansions_edge_cases():
    assert expansions(0) == ((),)
    assert expansions(1) == ((1,),)
    assert expansions(3) == ((1, 1),)
    assert h_count(10) == 5
    assert h_count(0) == 1
    for k in range(1, 11):
        assert h_count(2**k - 1) == 1


def test_every_expansion_is_valid():
    memo = {}
    for n in range(0, 300):
        k = len(binary_expansion(n))
        seen = set()
        for d in expansions(n, memo):
            assert len(d) == k
            assert all(x in (0, 1, 2) for x in d)
            assert digits_value(d) == n
            seen.add(d)
        assert len(seen) == h_count(n)  # no duplicates
        # enumeration order is lexicographic descending
        ds = expansions(n, memo)
        assert list(ds) == sorted(ds, reverse=True)


def test_count_matches_diatomic_sequence():
    memo = {}
    for n in range(0, 1025):
        assert len(expansions(n, memo)) == fusc(n + 1)


def test_set_recursion_exact():
    """enumerate(2n-1) appends 1 to each expansion of n-1; enumerate(2n)
    appends 0 to each expansion of n and 2 to each expansion of n-1
    (padded when the length grows), as set equality."""
    memo = {}
    for n in range(1, 1025):
        k_odd = len(binary_expansion(2 * n - 1))
        odd = {
            (0,) * (k_odd - len(psi) - 1) + psi + (1,)
            for psi in expansions(n - 1, memo)
        }
        assert set(expansions(2 * n - 1, memo)) == odd
        k_even = len(binary_expansion(2 * n))
        even = {
            (0,) * (k_even - len(psi) - 1) + psi + (0,)
            for psi in expansions(n, memo)
        } | {
            (0,) * (k_even - len(chi) - 1) + chi + (2,)
            for chi in expansions(n - 1, memo)
        }
        assert set(expansions(2 * n, memo)) == even


@pytest.mark.parametrize("limit", [0, 1, 2, 2048])
def test_expansions_upto_lists_every_n_in_order(limit):
    """The stream's strings are those of ``expansions(n)``, in its order,
    as bytes whose byte values are the digits."""
    def listed(n):
        return tuple(map(bytes, expansions(n)))

    assert list(expansions_upto(limit)) == [listed(n) for n in range(limit + 1)]
    assert list(expansions_upto(limit, 1)) == [listed(n) for n in range(1, limit + 1)]


def _chain(x):
    """The pairs x, x + 1 for x and each of its prefixes."""
    out = set()
    while x:
        out.update((x, x + 1))
        x >>= 1
    return out


@pytest.mark.parametrize("start", [0, 1, 511, 512, 513, 1023, 1024, 4095])
def test_expansions_upto_from_any_start(start):
    """From any start, across the powers of two where D(n) gains a
    digit, the stream lists ``expansions(n)``, and the memo it updates
    in place holds the keys of a model that, after each n, keeps only
    those in the chain of n + 2."""
    stream, model = expansions_upto(start + 70, start), {}
    for n, elems in enumerate(stream, start):
        assert elems == hb._listing(n, model) == tuple(map(bytes, expansions(n)))
        assert stream.gi_frame.f_locals["memo"].keys() == model.keys(), n
        keep = _chain(n + 2)
        model = {x: d for x, d in model.items() if x in keep}


def test_negative_arguments_raise():
    # the stream used to yield (b"",) as D(-2), and to spin below that
    for start in (-1, -2, -3):
        with pytest.raises(ValueError):
            next(expansions_upto(2, start))
    for tally in (h_q_enum, h_rs_enum, hbar_st_enum, enum_polys, hb._listing):
        with pytest.raises(ValueError):
            tally(-2)
    assert hb._listing(-1) == ()
    assert enum_polys(-1) == (LaurentPoly(), BiPoly.zero(), BiPoly.zero())
    # a given listing is read as it is, whatever n
    assert enum_polys(-5, expansions(10)) == enum_polys(10)


def test_expansions_upto_builds_about_two_lists_per_n(monkeypatch):
    calls = 0
    rule = hb._expansions_rule

    def counted(x, f):
        nonlocal calls
        calls += 1
        return rule(x, f)

    monkeypatch.setattr(hb, "_expansions_rule", counted)
    limit = 4096
    for _ in expansions_upto(limit):
        pass
    # 8,158 here; listing each n on its own makes 75,840
    assert calls <= 2 * (limit + 2)


def test_expansions_upto_keeps_only_the_next_chain():
    # about 0.03 MB; one memo kept for the whole range peaks near 37 MB
    tracemalloc.start()
    try:
        for _ in expansions_upto(4096):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_enum_polys_reads_a_given_listing():
    memo = {}
    for n in range(0, 301):
        assert enum_polys(n, expansions(n, memo)) == enum_polys(n)
    assert hbar_st_enum(10, expansions(10)[:-1]) != hbar_st_enum(10)


def test_listing_checks_read_every_form_alike():
    """A listing of int tuples, of bytes, or of both (every other string
    converted) gives the same tallies and the same ``iso_check``."""
    memo = {}
    for n in range(0, 301):
        ints = expansions(n, memo)
        strings = tuple(map(bytes, ints))
        mixed = tuple(d if i % 2 else bytes(d) for i, d in enumerate(ints))
        assert enum_polys(n, ints) == enum_polys(n, strings) == enum_polys(n, mixed), n
        assert iso_check(n, ints) == iso_check(n, strings) == iso_check(n, mixed) == (ISO, ISO), n
    broken = expansions(10)[:-1]
    for elems in (broken, tuple(map(bytes, broken)), broken[:2] + tuple(map(bytes, broken[2:]))):
        assert iso_check(10, elems) == (ISO, "image is not the set of ideals")


def _stats_fold(elems):
    """(h_q, h_rs, hbar_st) of a listing, one ``stats`` call per string."""
    hq, hrs, hbar = LaurentPoly(), BiPoly.zero(), BiPoly.zero()
    for d in elems:
        st = stats(d)
        hq = hq + LaurentPoly({st["ell"]: 1})
        hrs = hrs + BiPoly.monomial(1, st["t"], st["z"])
        hbar = hbar + BiPoly.monomial(1, st["p2"], st["p1"])
    return hq, hrs, hbar


def test_tallies_equal_a_fold_of_stats():
    memo = {}
    for n in range(0, 601):
        elems = expansions(n, memo)
        assert enum_polys(n, elems) == _stats_fold(elems), n


@pytest.mark.parametrize("elems", [
    ((),),
    ((0, 0, 1, 0),),
    ((0, 0),),
    ((0, 2, 0, 0, 1, 0), (0, 1, 2, 2), (0, 1)),
    ((1, 0, 1, 0), (0, 0, 0), (0, 2, 1, 0, 0), (), (2,)),
])
def test_tallies_equal_a_fold_of_stats_on_any_listing(elems):
    """Leading zeros are free however many there are, as in ``stats``;
    the tallies read the strings, not the n they are handed."""
    assert enum_polys(0, elems) == _stats_fold(elems)


def _string(k):
    """A digit string of length k that starts with no, one or several
    zeros, or with a 2."""
    return st.tuples(st.sampled_from(((), (0,), (0, 0), (0, 0, 0), (2,))),
                     st.lists(st.sampled_from((0, 1, 2)), min_size=k, max_size=k),
                     ).map(lambda p: (p[0] + tuple(p[1]))[:k])


_UNIFORM = st.one_of(st.integers(1, 20), st.integers(1, 300)).flatmap(
    lambda k: st.lists(_string(k), min_size=1, max_size=6))
_MIXED = st.lists(st.integers(0, 20).flatmap(_string), min_size=0, max_size=6)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(st.one_of(_UNIFORM, _MIXED))
def test_both_tally_paths_equal_a_fold_of_stats(elems):
    """Window sums where every string has one length k < 16, the general
    passes elsewhere; both agree with ``stats`` string by string."""
    strings, joined = hb._as_bytes(elems)
    uniform = len(set(map(len, elems))) == 1 and 0 < len(elems[0]) < 16
    assert (hb._window_sums(strings, joined, hb._HQ_WEIGHTS) is None) != uniform
    double_zero = any(d[:2] == (0, 0) for d in elems)
    assert (hb._window_sums(strings, joined, hb._RS_WEIGHTS, hb._RS_LEAD) is None) != (
        uniform and not double_zero)
    assert enum_polys(0, elems) == enum_polys(0, strings) == _stats_fold(elems)


def test_the_stream_takes_the_window_sums(monkeypatch):
    """Every D(n) of the stream, n <= 300, is tallied by window sums:
    the general passes, patched to raise, never run."""
    def general(*_):
        raise AssertionError("general path")

    monkeypatch.setattr(hb, "repeat", general)  # the count and strip passes
    monkeypatch.setattr(hb, "sum", general, raising=False)  # h_q's digit sums
    memo = {}
    for n, elems in enumerate(expansions_upto(300, 1), 1):
        assert enum_polys(n, elems) == _stats_fold(expansions(n, memo)), n


def test_every_tally_reads_every_string():
    full = expansions(10)
    whole = enum_polys(10, full)
    for i in range(len(full)):
        short = enum_polys(10, full[:i] + full[i + 1:])
        assert all(a != b for a, b in zip(short, whole)), full[i]


def test_expansions_past_the_recursion_limit():
    n = 2**1100
    ds = expansions(n)
    assert len(ds) == fusc(n + 1) == 1101
    assert ds[0] == binary_expansion(n)
    assert ds[-1] == min_element(n)
    assert all(digits_value(d) == n for d in ds)


def test_recurrences_past_the_recursion_limit():
    one_zero = 2**1101 - 1 - 2**500  # binary 1^600 0 1^500: a closed form
    assert h_q(one_zero) == h_q_closed_form(one_zero)
    n = 2**1100 + 2**300
    hbar = hbar_st(n)
    assert h_rs(n).eval_at_one == hbar.eval_at_one == fusc(n + 1)
    assert hbar.specialize(2, 1) == h_q(n)


# ------------------------------------------------------------------ statistics

def test_stats_examples():
    st = stats((0, 2, 0, 0, 1, 0))  # an expansion of 34
    assert digits_value((0, 2, 0, 0, 1, 0)) == 34
    assert st["p2"] == st["t"] == 1 and st["z"] == 3

    assert stats((1, 0, 1, 0)) == {"ell": 2, "p1": 2, "p2": 0, "t": 0, "z": 2}
    assert stats(()) == {"ell": 0, "p1": 0, "p2": 0, "t": 0, "z": 0}
    assert stats((0, 1, 2, 2)) == {"ell": 5, "p1": 1, "p2": 2, "t": 2, "z": 0}
    # leading zeros are free, however many there are
    assert stats((0, 0, 1, 0)) == {"ell": 1, "p1": 1, "p2": 0, "t": 0, "z": 1}
    assert stats((0, 0)) == {"ell": 0, "p1": 0, "p2": 0, "t": 0, "z": 0}
    # the keys come in ``hyper --stats`` column order
    assert list(stats((1, 0))) == ["ell", "p1", "p2", "t", "z"]


def test_stats_identities_everywhere():
    memo = {}
    for n in range(0, 400):
        for d in expansions(n, memo):
            st = stats(d)
            assert st["ell"] == st["p1"] + 2 * st["p2"]
            assert st["ell"] == sum(d)
            assert st["p1"] == sum(1 for x in d if x == 1)
            assert st["t"] == st["p2"]


def test_stats_rows_export():
    rows = stats_rows(10)
    assert [r["digits"] for r in rows] == ["1010", "1002", "0210", "0202", "0122"]
    top = rows[0]
    assert top == {
        "digits": "1010", "ell": 2, "p1": 2, "p2": 0, "t": 0, "z": 2,
        "s_vector": [1, 2, 5, 10],
    }


# ------------------------------------------------- generating polynomials

def test_h_q_examples():
    assert h_q(10) == LaurentPoly({2: 1, 3: 2, 4: 1, 5: 1})
    assert h_q(10).text() == "q^2 + 2q^3 + q^4 + q^5"
    assert h_q(0) == LaurentPoly({0: 1})
    assert h_q(-1) == LaurentPoly()
    assert h_q(6).text() == "q^2 + q^3 + q^4"
    with pytest.raises(ValueError):
        h_q(-2)


def test_h_q_enum_equals_recurrence():
    memo = {}
    for n in range(0, 1025):
        assert enum_polys(n)[0] == h_q(n, memo)
        assert h_q(n, memo).eval_at_one == h_count(n)


def test_h_rs_examples_and_recurrence():
    assert h_rs(0) == BiPoly.one()
    assert h_rs(2).text() == "s + r"
    # brute force over the five expansions of 10
    assert enum_polys(10)[1] == BiPoly({(0, 2): 1, (1, 2): 1, (1, 1): 1, (2, 1): 1, (2, 0): 1})
    memo = {}
    for n in range(0, 1025):
        assert enum_polys(n)[1] == h_rs(n, memo)
    # q-shadow: r -> q^2, s -> q gives nothing meaningful; but r=s=1 counts
    for n in range(0, 200):
        assert h_rs(n).eval_at_one == h_count(n)


@pytest.mark.parametrize("limit", [-1, 0, 4096])
def test_h_q_and_h_rs_ranges_match_the_per_n_values(limit):
    """``h_q_range``, ``h_rs_range`` and ``hbar_st_range`` hold h(n) at
    index n + 1 for every n from -1 to the limit, as integers at the
    slot width of the range and K one more than the limit's bit length:
    decoded, h_q against its packed walk, h_rs and hbar_st against
    ``halving`` with no memo."""
    w, k = range_width(max(limit, 0)), limit.bit_length() + 1
    hq, hrs, hbar = hb.h_q_range(limit, w), hb.h_rs_range(limit, w, k), hb.hbar_st_range(limit, w, k)
    assert len(hq) == len(hrs) == len(hbar) == limit + 2
    for n in range(-1, limit + 1):
        assert unpack(hq[n + 1], w) == h_q(n)
        assert unpack_bi(hrs[n + 1], w, k) == h_rs(n)
        assert unpack_bi(hbar[n + 1], w, k) == hbar_st(n)


def test_hbar_examples_recurrence_and_specialization():
    assert hbar_st(0) == BiPoly.one()
    assert hbar_st(2).text(HBAR_NAMES) == "s + t"
    memo = {}
    hq_memo = {}
    for n in range(0, 1025):
        rec = hbar_st(n, memo)
        assert hbar_st_enum(n) == rec
        assert rec.specialize(2, 1) == h_q(n, hq_memo)


def test_h_q_closed_forms():
    # all-ones shape: a single expansion of weight k
    for k in range(1, 12):
        n = 2**k - 1
        assert h_q_closed_form_applies(n)
        assert h_q_closed_form(n) == enum_polys(n)[0]
        assert h_q_closed_form(n) == LaurentPoly({k: 1})
    # one-zero shape 1^a 0 1^b: consecutive run of coefficients 1
    checked = 0
    for n in range(1, 2**14 + 1):
        bits = binary_expansion(n)
        zeros = [i for i, b in enumerate(bits) if b == 0]
        applies = h_q_closed_form_applies(n)
        assert applies == (len(zeros) <= 1)
        if len(zeros) == 1:
            a = zeros[0]
            b = len(bits) - a - 1
            expected = LaurentPoly({e: 1 for e in range(a + b, 2 * a + b + 1)})
            assert h_q_closed_form(n) == expected
            if n <= 1024:
                assert h_q_closed_form(n) == enum_polys(n)[0]
            checked += 1
    assert checked > 0
    with pytest.raises(ValueError):
        h_q_closed_form(10)  # two zeros: no closed form


# ------------------------------------------------------------- order structure

def test_s_prefix_examples():
    # s_i is the value of the prefix d_1 ... d_i
    d = (1, 0, 2, 1, 0)
    assert s_vector(d)[3 - 1] == 6
    assert s_vector(d)[len(d) - 1] == digits_value(d)
    assert s_vector((0, 1, 2, 2))[1 - 1] == 0


def test_s_vector_recursion():
    rng = random.Random(5)
    for _ in range(200):
        d = tuple(rng.choice((0, 1, 2)) for _ in range(rng.randint(1, 10)))
        sv = s_vector(d)
        prev = 0
        for i, x in enumerate(d):
            assert sv[i] == 2 * prev + x
            prev = sv[i]


def test_leq_examples():
    assert leq((0, 1, 2, 2), (1, 0, 1, 0))
    assert leq((1, 0, 0, 2), (1, 0, 0, 2))
    # s(d) - s(c) runs -1, 0, 1, 0: negative, then back to 0, no error
    assert not leq((1, 0, 0, 2), (0, 2, 1, 0))
    assert not leq((0, 2, 1, 0), (1, 0, 0, 2))
    # different n; the first two differences go negative at once, one
    # ending below 0 (n = 3 against 2) and one above (5 against 6)
    for c, d in [((1, 1), (0, 2)), ((1, 0, 1), (0, 2, 2)), ((1, 0), (1, 1))]:
        with pytest.raises(ValueError, match="do not expand the same n"):
            leq(c, d)


def test_covers_examples():
    assert set(covers((1, 0, 1, 0))) == {(0, 2, 1, 0), (1, 0, 0, 2)}
    assert covers((0, 1, 2, 2)) == ()
    assert covers((1, 1)) == ()


def test_cover_changes_one_prefix_sum_by_one():
    memo = {}
    for n in range(1, 513):
        for d in expansions(n, memo):
            sd = s_vector(d)
            for c in covers(d):
                sc = s_vector(c)
                diffs = [i for i in range(len(sd)) if sc[i] != sd[i]]
                assert len(diffs) == 1
                assert sd[diffs[0]] - sc[diffs[0]] == 1
                assert leq(c, d) and not leq(d, c)


def test_leq_agrees_with_transitive_closure_of_covers():
    memo = {}
    for n in range(1, 513):
        elems = expansions(n, memo)
        index = {d: i for i, d in enumerate(elems)}
        below = {d: {d} for d in elems}
        # elems is sorted descending, so covered elements come later;
        # accumulate reachability bottom-up
        for d in reversed(elems):
            for c in covers(d):
                below[d] |= below[c]
        for c in elems:
            for d in elems:
                assert leq(c, d) == (c in below[d]), (n, c, d)


def test_extremes_examples():
    assert binary_expansion(10) == (1, 0, 1, 0)
    assert min_element(10) == (0, 1, 2, 2)
    assert min_element(7) == (1, 1, 1)
    # closed form 0 (b2+1)(b3+1)(b4+1) 2 1^2 applied to 1001011
    assert min_element(75) == (0, 1, 1, 2, 2, 1, 1)


def test_extreme_elements_unique_bottom_and_top():
    memo = {}
    for n in range(1, 1025):
        elems = expansions(n, memo)
        lo, hi = min_element(n), binary_expansion(n)
        assert lo in elems and hi in elems
        for d in elems:
            assert leq(lo, d) and leq(d, hi)
        # uniqueness
        assert sum(1 for d in elems if covers(d) == ()) == 1
        assert sum(1 for d in elems if all(not leq(d, e) or d == e for e in elems)) == 1


def test_principal_prefix_examples():
    """The principal prefix, the digits before the rightmost 0, is the
    fence's word."""
    assert fence(75) == "1001"
    assert fence(7) == ""
    assert fence(10) == "101"


def test_meet_join_examples():
    assert join((1, 0, 0, 2), (0, 2, 1, 0)) == (1, 0, 1, 0)
    assert meet((1, 0, 0, 2), (0, 2, 1, 0)) == (0, 2, 0, 2)
    d = (0, 2, 1, 0)
    assert meet(d, d) == d and join(d, d) == d


def test_lattice_laws_brute_force():
    """meet/join computed through s-vectors are the actual glb/lub, and the
    lattice is distributive (triples checked at the smaller bound)."""
    memo = {}
    for n in range(1, 257):
        elems = expansions(n, memo)
        for c, d in combinations(elems, 2):
            m, j = meet(c, d), join(c, d)
            assert m in elems and j in elems
            assert leq(m, c) and leq(m, d)
            assert leq(c, j) and leq(d, j)
            for e in elems:
                if leq(e, c) and leq(e, d):
                    assert leq(e, m)
                if leq(c, e) and leq(d, e):
                    assert leq(j, e)
    for n in range(1, 65):
        elems = expansions(n, memo)
        for a in elems:
            for b in elems:
                for c in elems:
                    assert meet(a, join(b, c)) == join(meet(a, b), meet(a, c))
                    assert join(a, meet(b, c)) == meet(join(a, b), join(a, c))


def test_join_irreducibles_examples_and_brute_force():
    assert set(join_irreducibles(10)) == {(1, 0, 0, 2), (0, 2, 0, 2), (0, 2, 1, 0)}
    for k in range(1, 8):
        assert join_irreducibles(2**k - 1) == ()
    memo = {}
    for n in range(1, 1025):
        brute = {d for d in expansions(n, memo) if len(covers(d)) == 1}
        ji = join_irreducibles(n)
        assert set(ji) == brute
        assert len(ji) == len(fence(n))


# ------------------------------------------------------------------ DOT export

def test_lattice_dot_golden():
    src = lattice_dot(10)
    assert src.startswith("digraph hyperbinary_10 {")
    assert '"0122" -> "0202"' in src
    assert '"1002" -> "1010"' in src
    assert '"0210" -> "1010"' in src
    assert '"0202" -> "0210"' in src
    assert '"0202" -> "1002"' in src
    assert src.count("->") == 5
    assert src.rstrip().endswith("}")
    # stability: repeated calls render identically
    assert lattice_dot(10) == src
