"""Two-tier chain algebra: closed forms against a lexicographic model.

The oracle represents elements as pairs (tier, offset) in the lexicographic
plane: fin(k) = (0, k) and cofin(k) = (1, -k), with unit (1, 0).  Addition
truncates at the unit in the lexicographic order.  This route shares no code
with the closed forms under test.
"""

from __future__ import annotations

import pytest

import functools
import io
from dataclasses import dataclass

from mvspectra import chang
from mvspectra.chang import (
    COFIN,
    COFINITE,
    FIN,
    FULL,
    RADICAL,
    TRUNC,
    ChangAlgebra,
    ChangElement,
    ChangIdeal,
    ChangSpace,
    cofin,
    fin,
    ideal_oplus_bar,
)
from mvspectra.cli import main
from mvspectra.errors import AlgebraError


# ---------------------------------------------------------------- lex oracle

UNIT = (1, 0)


def to_pair(u):
    return (0, u.k) if u.tag == FIN else (1, -u.k)


def from_pair(p):
    tier, off = p
    return fin(off) if tier == 0 else cofin(-off)


def lex_add(p, q):
    s = (p[0] + q[0], p[1] + q[1])
    return UNIT if s >= UNIT else s


def lex_neg(p):
    return (1 - p[0], -p[1])


ALG = ChangAlgebra()
SPACE = ChangSpace()


def window(n):
    return ALG.elements(n)


@pytest.mark.parametrize("n", [6, 11])
def test_ops_match_lex_oracle(n):
    elems = window(n)
    for u in elems:
        assert from_pair(lex_neg(to_pair(u))) == ALG.neg(u)
        for v in elems:
            assert from_pair(lex_add(to_pair(u), to_pair(v))) == ALG.oplus(u, v)
            assert (to_pair(u) <= to_pair(v)) == ALG.leq(u, v)
            assert from_pair(max(to_pair(u), to_pair(v))) == ALG.join(u, v)
            assert from_pair(min(to_pair(u), to_pair(v))) == ALG.meet(u, v)
            # difference from the characteristic-law expansion
            diff = lex_add(lex_neg(lex_add(lex_neg(to_pair(u)), to_pair(v))), (0, 0))
            assert from_pair(diff) == ALG.ominus(u, v)


def test_frozen_arithmetic():
    assert ALG.oplus(fin(2), fin(3)) == fin(5)
    assert ALG.oplus(fin(3), cofin(5)) == cofin(2)
    assert ALG.oplus(fin(7), cofin(5)) == cofin(0)
    assert ALG.oplus(cofin(1), cofin(9)) == cofin(0)
    assert ALG.neg(fin(4)) == cofin(4)
    assert ALG.ominus(cofin(2), fin(3)) == cofin(5)
    assert ALG.ominus(fin(3), fin(1)) == fin(2)
    assert ALG.ominus(fin(1), cofin(2)) == fin(0)
    assert ALG.zero == fin(0)
    assert ALG.one == cofin(0)


def test_element_validation():
    with pytest.raises(AlgebraError):
        ChangElement(FIN, -1)
    with pytest.raises(AlgebraError):
        ChangElement(2, 0)
    assert repr(fin(3)) == "fin(3)"
    assert repr(cofin(0)) == "cofin(0)"


def encode(u, top):
    return int(chang.encode_pairs(u.tag, u.k, top))


def decode(v, top):
    return fin(v) if v <= top // 2 else cofin(top - v)


def test_encode_decode_roundtrip():
    top = 100
    for u in window(10):
        assert decode(encode(u, top), top) == u


def test_bounded_axiom_check_passes():
    assert ALG.first_violation(8) is None


def test_bounded_scan_refuses_bounds_past_the_window_dtype():
    # top = 8 * 2047 + 8; 2 * top would wrap in int16
    with pytest.raises(AlgebraError, match="overflows"):
        ALG.first_violation(2047)


def _break_neg(t, k):  # neg fin(2) = cofin(3), neg cofin(2) = fin(3)
    nt, nk = CLOSED_FORMS["neg"](t, k)
    return nt, nk + (k == 2)


def _break_oplus(t, k, u, j):  # fin(1) + fin(1) = fin(3)
    st, sk = CLOSED_FORMS["oplus"](t, k, u, j)
    return st, sk + ((t == FIN) & (u == FIN) & (k == 1) & (j == 1))


def _break_leq(t, k, u, j):  # fin(3) no longer below fin(4)
    spot = (t == FIN) & (u == FIN) & (k == 3) & (j == 4)
    return CLOSED_FORMS["leq"](t, k, u, j) ^ spot


CLOSED_FORMS = {op: getattr(chang, f"{op}_pairs") for op in ("neg", "oplus", "leq")}
BREAKS = {
    "neg": (_break_neg, (fin(2),)),
    "oplus": (_break_oplus, (fin(1), fin(1))),
    "leq": (_break_leq, (fin(3), fin(4))),
}


@pytest.mark.parametrize("op", sorted(BREAKS))
def test_bounded_scan_names_the_broken_closed_form(op, monkeypatch):
    broken, witness = BREAKS[op]
    monkeypatch.setattr(chang, f"{op}_pairs", broken)
    bad = ALG.first_violation(6)
    assert bad.law == f"{op}-closed-form"
    assert bad.witness == witness
    # the broken operation disagrees with the encoding at the witness
    top = 8 * 6 + 8
    enc = [encode(u, top) for u in witness]
    if op == "neg":
        assert encode(ALG.neg(*witness), top) != top - enc[0]
    elif op == "oplus":
        assert encode(ALG.oplus(*witness), top) != min(sum(enc), top)
    else:
        assert ALG.leq(*witness) != (enc[0] <= enc[1])
    out = io.StringIO()
    assert main(["check", "--input", '{"kind":"chang"}'], out=out) == 1
    assert out.getvalue().startswith(f"violation: {op}-closed-form at ")


def test_direct_triple_scan():
    # belt and braces: associativity and the characteristic law by brute force
    elems = window(4)
    for a in elems:
        for b in elems:
            lhs = ALG.oplus(ALG.ominus(a, b), b)
            assert lhs == ALG.oplus(ALG.ominus(b, a), a) == ALG.join(a, b)
            for c in elems:
                assert ALG.oplus(ALG.oplus(a, b), c) == ALG.oplus(a, ALG.oplus(b, c))


# ---------------------------------------------------------------- ideals
#
# The MV flag, the complementary filters and the filter difference are
# closed forms the package does not use; they live here as oracles over
# the ideal families, each checked against bounded traces below.

UPFIN, ALLCOFIN, UPCOFIN = "upfin", "allcofin", "upcofin"


@dataclass(frozen=True)
class ChangFilter:
    """Filter families: upfin(n) is everything from fin(n) up, upcofin(t)
    is cofin(0..t), and allcofin sits strictly between the two shapes."""

    family: str
    param: int = 0

    def __post_init__(self):
        if self.family not in (UPFIN, ALLCOFIN, UPCOFIN):
            raise AlgebraError(f"bad filter family {self.family}")
        if self.param < 0:
            raise AlgebraError("filter param must be >= 0")

    def __contains__(self, u):
        if self.family == UPFIN:
            return u.tag == COFIN or u.k >= self.param
        if self.family == ALLCOFIN:
            return u.tag == COFIN
        return u.tag == COFIN and u.k <= self.param


def is_mv(ideal):
    # addition-closure fails for trunc(n), n >= 1, and for cofinite
    return ideal.family == RADICAL or (ideal.family == TRUNC and ideal.param == 0)


def ideal_complement(ideal):
    """The complementary filter of a proper ideal of the chain."""
    if ideal.family == TRUNC:
        return ChangFilter(UPFIN, ideal.param + 1)
    if ideal.family == RADICAL:
        return ChangFilter(ALLCOFIN)
    if ideal.family == COFINITE:
        return ChangFilter(UPCOFIN, ideal.param - 1)
    raise AlgebraError("the full ideal has no complementary filter")


def filter_complement(filt):
    if filt.family == UPFIN:
        if filt.param == 0:
            raise AlgebraError("the full filter has no complementary ideal")
        return ChangIdeal(TRUNC, filt.param - 1)
    if filt.family == ALLCOFIN:
        return ChangIdeal(RADICAL)
    return ChangIdeal(COFINITE, filt.param + 1)


def filter_ominus_bar(f, i):
    """Closed form for the upset {c : c >= a - b, a in f, b in i}."""
    if i.family == FULL:
        return ChangFilter(UPFIN, 0)
    if f.family == UPFIN:
        if i.family == TRUNC:
            return ChangFilter(UPFIN, max(f.param - i.param, 0))
        return ChangFilter(UPFIN, 0)
    if f.family == ALLCOFIN:
        if i.family in (TRUNC, RADICAL):
            return ChangFilter(ALLCOFIN)
        return ChangFilter(UPFIN, 0)
    if i.family == TRUNC:
        return ChangFilter(UPCOFIN, f.param + i.param)
    if i.family == RADICAL:
        return ChangFilter(ALLCOFIN)
    return ChangFilter(UPFIN, max(i.param - f.param, 0))


IDEAL_GRID = (
    [ChangIdeal(TRUNC, n) for n in range(5)]
    + [ChangIdeal(RADICAL)]
    + [ChangIdeal(COFINITE, m) for m in range(1, 5)]
    + [ChangIdeal(FULL)]
)
FILTER_GRID = (
    [ChangFilter(UPFIN, n) for n in range(5)]
    + [ChangFilter(ALLCOFIN)]
    + [ChangFilter(UPCOFIN, t) for t in range(5)]
)


def test_ideal_membership_spots():
    i3 = ChangIdeal(TRUNC, 3)
    assert fin(3) in i3 and fin(4) not in i3 and cofin(9) not in i3
    rad = ChangIdeal(RADICAL)
    assert fin(100) in rad and cofin(100) not in rad
    j2 = ChangIdeal(COFINITE, 2)
    assert cofin(2) in j2 and cofin(1) not in j2 and fin(50) in j2
    assert cofin(0) in ChangIdeal(FULL)


def test_ideal_traces_are_downsets():
    elems = window(9)
    for ideal in IDEAL_GRID:
        inside = [u for u in elems if u in ideal]
        for u in inside:
            for v in elems:
                if ALG.leq(v, u):
                    assert v in ideal, (ideal.label(), v)


def test_mv_ideal_flags():
    assert is_mv(ChangIdeal(TRUNC, 0))
    assert is_mv(ChangIdeal(RADICAL))
    assert not is_mv(ChangIdeal(TRUNC, 1))
    assert not is_mv(ChangIdeal(COFINITE, 1))
    # flag matches bounded addition-closure
    elems = window(9)
    for ideal in IDEAL_GRID:
        if ideal.family == FULL:
            continue
        inside = [u for u in elems if u in ideal]
        closed = all(ALG.oplus(a, b) in ideal for a in inside for b in inside)
        if not is_mv(ideal):
            assert not closed, ideal.label()
        else:
            assert closed, ideal.label()


def test_ideal_families_pairwise_distinct():
    elems = window(12)
    for a in IDEAL_GRID:
        for b in IDEAL_GRID:
            if a == b:
                continue
            assert any((u in a) != (u in b) for u in elems), (a.label(), b.label())


def test_complement_bijection():
    elems = window(9)
    for ideal in IDEAL_GRID:
        if ideal.family == FULL:
            with pytest.raises(AlgebraError):
                ideal_complement(ideal)
            continue
        filt = ideal_complement(ideal)
        for u in elems:
            assert (u in filt) == (u not in ideal), ideal.label()
        assert filter_complement(filt) == ideal
    for filt in FILTER_GRID:
        if filt.family == UPFIN and filt.param == 0:
            with pytest.raises(AlgebraError):
                filter_complement(filt)
            continue
        assert ideal_complement(filter_complement(filt)) == filt


@functools.lru_cache(maxsize=None)
def op_table(op, outer):
    """op over every pair of the wide window that the trace oracles scan."""
    big = window(3 * outer + 6)
    return big, {(a, b): getattr(ALG, op)(a, b) for a in big for b in big}


def oplus_bar_trace_oracle(i, j, outer):
    big, table = op_table("oplus", outer)
    right = [b for b in big if b in j]
    sums = {table[a, b] for a in big if a in i for b in right}
    return {c for c in window(outer) if any(to_pair(c) <= to_pair(s) for s in sums)}


def test_ideal_oplus_bar_matches_trace_oracle():
    outer = 8
    for i in IDEAL_GRID:
        for j in IDEAL_GRID:
            got = ideal_oplus_bar(i, j)
            trace = {c for c in window(outer) if c in got}
            assert trace == oplus_bar_trace_oracle(i, j, outer), (
                i.label(),
                j.label(),
                got.label(),
            )


def ominus_bar_trace_oracle(f, i, outer):
    big, table = op_table("ominus", outer)
    right = [b for b in big if b in i]
    diffs = {table[a, b] for a in big if a in f for b in right}
    return {c for c in window(outer) if any(to_pair(d) <= to_pair(c) for d in diffs)}


def test_filter_ominus_bar_matches_trace_oracle():
    outer = 8
    for f in FILTER_GRID:
        for i in IDEAL_GRID:
            got = filter_ominus_bar(f, i)
            trace = {c for c in window(outer) if c in got}
            assert trace == ominus_bar_trace_oracle(f, i, outer), (f, i.label())


# ---------------------------------------------------------------- the space

def test_point_window_is_a_chain_in_order():
    pts = SPACE.points_bounded(3)
    assert [p.label() for p in pts] == [
        "I0", "I1", "I2", "I3", "I_omega", "J3", "J2", "J1",
    ]
    for a, p in enumerate(pts):
        for b, q in enumerate(pts):
            assert SPACE.point_leq(p, q) == (a <= b)


def test_point_order_is_inclusion():
    pts = SPACE.points_bounded(4)
    elems = window(10)
    for p in pts:
        for q in pts:
            subset = all(u in q for u in elems if u in p)
            assert SPACE.point_leq(p, q) == subset


def test_involution_frozen_and_order_reversing():
    assert SPACE.involute(ChangIdeal(TRUNC, 0)) == ChangIdeal(COFINITE, 1)
    assert SPACE.involute(ChangIdeal(TRUNC, 4)) == ChangIdeal(COFINITE, 5)
    assert SPACE.involute(ChangIdeal(RADICAL)) == ChangIdeal(RADICAL)
    assert SPACE.involute(ChangIdeal(COFINITE, 3)) == ChangIdeal(TRUNC, 2)
    pts = SPACE.points_bounded(4)
    for p in pts:
        assert SPACE.involute(SPACE.involute(p)) == p
        for q in pts:
            assert SPACE.point_leq(p, q) == SPACE.point_leq(
                SPACE.involute(q), SPACE.involute(p)
            )


def test_involution_is_negated_complement_filter():
    # membership route: u lies in i(x) exactly when neg(u) is outside x
    for p in SPACE.points_bounded(4):
        q = SPACE.involute(p)
        for u in window(10):
            assert (u in q) == (ALG.neg(u) not in p), p.label()


def test_plus_defined_iff_sum_ideal_proper():
    pts = SPACE.points_bounded(4)
    for p in pts:
        for q in pts:
            assert SPACE.plus_defined(p, q) == (ideal_oplus_bar(p, q).family != FULL)
            assert SPACE.plus_defined(p, q) == SPACE.plus_defined(q, p)


def test_plus_matches_ideal_sum_and_raises_off_domain():
    pts = SPACE.points_bounded(4)
    for p in pts:
        for q in pts:
            if SPACE.plus_defined(p, q):
                assert SPACE.plus(p, q) == ideal_oplus_bar(p, q)
                assert SPACE.plus(p, q) == SPACE.plus(q, p)
            else:
                with pytest.raises(AlgebraError):
                    SPACE.plus(p, q)


def test_plus_associativity_on_domain():
    pts = SPACE.points_bounded(3)
    for p in pts:
        for q in pts:
            if not SPACE.plus_defined(p, q):
                continue
            s = SPACE.plus(p, q)
            for r in pts:
                if not SPACE.plus_defined(s, r):
                    continue
                assert SPACE.plus_defined(q, r)
                assert SPACE.plus_defined(p, SPACE.plus(q, r))
                assert SPACE.plus(SPACE.plus(p, q), r) == SPACE.plus(
                    p, SPACE.plus(q, r)
                )


def test_plus_translation_invariance():
    pts = SPACE.points_bounded(3)
    for p in pts:
        for q1 in pts:
            for q2 in pts:
                if SPACE.point_leq(q1, q2) and SPACE.plus_defined(p, q2):
                    assert SPACE.plus_defined(p, q1)
                    assert SPACE.point_leq(SPACE.plus(p, q1), SPACE.plus(p, q2))


def test_involution_is_largest_addable():
    outer = SPACE.points_bounded(5)
    for p in SPACE.points_bounded(4):
        addable = [q for q in outer if SPACE.plus_defined(p, q)]
        best = max(
            addable,
            key=lambda q: sum(SPACE.point_leq(r, q) for r in outer),
        )
        assert best == SPACE.involute(p), p.label()


def test_self_addable_idempotents_are_the_mv_points():
    for p in SPACE.points_bounded(5):
        selfsum_below = SPACE.plus_defined(p, p) and SPACE.point_leq(
            SPACE.plus(p, p), p
        )
        selfsum_equal = SPACE.plus_defined(p, p) and SPACE.plus(p, p) == p
        assert selfsum_below == selfsum_equal == (p in SPACE.y_points)
        assert (p in SPACE.y_points) == is_mv(p)


def test_k_map_frozen_and_formula_oracle():
    assert SPACE.k_map(ChangIdeal(TRUNC, 3)) == ChangIdeal(TRUNC, 0)
    assert SPACE.k_map(ChangIdeal(RADICAL)) == ChangIdeal(RADICAL)
    assert SPACE.k_map(ChangIdeal(COFINITE, 2)) == ChangIdeal(TRUNC, 0)
    wide = window(20)
    for p in SPACE.points_bounded(4):
        kp = SPACE.k_map(p)
        for a in window(8):
            member = all(c in p for c in wide if ALG.ominus(c, a) in p)
            assert member == (a in kp), (p.label(), a)


def test_k_is_a_retraction_fixing_only_mv_points():
    for p in SPACE.points_bounded(5):
        kp = SPACE.k_map(p)
        assert kp in SPACE.y_points
        assert SPACE.k_map(kp) == kp
        assert (kp == p) == (p in SPACE.y_points)


def test_fibers():
    n = 3
    assert SPACE.fiber(ChangIdeal(RADICAL), n) == [ChangIdeal(RADICAL)]
    assert SPACE.fiber(ChangIdeal(TRUNC, 0), n) == SPACE.points_bounded(n)
    with pytest.raises(AlgebraError):
        SPACE.fiber(ChangIdeal(TRUNC, 1), n)
    # fiber membership agrees with k pointwise
    for y in SPACE.y_points:
        fib = SPACE.fiber(y, n)
        for p in SPACE.points_bounded(n):
            assert (p in fib) == SPACE.point_leq(y, SPACE.k_map(p))


def test_m_map_and_germinal_ideal():
    for y in SPACE.y_points:
        assert SPACE.m_map(y) == ChangIdeal(RADICAL)
    with pytest.raises(AlgebraError):
        SPACE.m_map(ChangIdeal(TRUNC, 2))
    germ = SPACE.germinal_ideal(ChangIdeal(RADICAL))
    assert germ == ChangIdeal(TRUNC, 0)
    # germ is the meet of the ideals below the maximal point
    below = [y for y in SPACE.y_points if SPACE.point_leq(y, ChangIdeal(RADICAL))]
    for u in window(9):
        assert (u in germ) == all(u in y for y in below)
    with pytest.raises(AlgebraError):
        SPACE.germinal_ideal(ChangIdeal(TRUNC, 0))
