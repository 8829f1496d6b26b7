"""Suite-runner behavior: statuses, determinism, and honest failures."""

import copy
import functools
from types import SimpleNamespace

import numpy as np
import pytest

from mvspectra import chang, verify
from mvspectra.chang import ChangAlgebra
from mvspectra.errors import Error
from mvspectra.lattice import FinitePoset
from mvspectra.mv import MvAlgebra, lukasiewicz_chain, product
from mvspectra.verify import SUITE_NAMES, run_suite

from conftest import (
    interpolation_reference,
    involution_laws_reference,
    k_fibers_reference,
    mk_constant_reference,
    plus_associative_reference,
    plus_domain_reference,
    plus_translation_reference,
)


def test_all_suite_passes_and_lines_format():
    rows = run_suite(lukasiewicz_chain(3), "all")
    assert all(r.status == "pass" for r in rows)
    names = [r.name for r in rows]
    assert len(names) == len(set(names))
    assert rows[0].line() == "[PASS] axioms"


def test_suite_names_cover_registry():
    # the CLI offers mv.SUITE_NAMES; each carrier's table holds exactly those
    for table in verify.SUITES.values():
        assert set(table) == set(SUITE_NAMES)
    for suite in SUITE_NAMES:
        assert run_suite(lukasiewicz_chain(2), suite)


def test_unknown_suite_rejected():
    with pytest.raises(Error):
        run_suite(lukasiewicz_chain(2), "nope")


def test_chang_statuses():
    rows = {r.name: r for r in run_suite(ChangAlgebra(), "all", chang_bound=8)}
    assert rows["axioms-bounded"].status == "pass"
    assert rows["plus-symbolic-window"].status == "pass"
    assert rows["k-closed-forms-window"].status == "pass"
    assert rows["spectrum-doubleton"].status == "pass"
    skips = [r for r in rows.values() if r.status == "skip"]
    assert len(skips) == 3
    assert all("symbolic" in r.detail for r in skips)


SYMBOLIC = {name: getattr(chang, name) for name in
            ("involute_pairs", "ideal_oplus_bar_pairs", "k_pairs", "contains_pairs")}


def _shift_involute(f, n):  # param 3 moves up one: I3 -> J5, J3 -> I3
    g, m = SYMBOLIC["involute_pairs"](f, n)
    return g, m + (n == 3)


def _narrow_sums(f, n, g, m):  # sums that land on J1 become full
    fam, par = SYMBOLIC["ideal_oplus_bar_pairs"](f, n, g, m)
    return np.where((fam == chang.COFINITE) & (par == 1), chang.FULL, fam), par


def _lift_k(f, n):  # k(J2) = I1, not an MV point
    kf, kn = SYMBOLIC["k_pairs"](f, n)
    return kf, kn + ((f == chang.COFINITE) & (n == 2))


def _shrink_radical(f, n, t, k):  # the radical loses fin(5)
    spot = (f == chang.RADICAL) & (t == chang.FIN) & (k == 5)
    return SYMBOLIC["contains_pairs"](f, n, t, k) & ~spot


@pytest.mark.parametrize(
    "name, broken, row, detail",
    [
        ("involute_pairs", _shift_involute, "plus-symbolic-window",
         "involution not involutive at I2"),
        ("ideal_oplus_bar_pairs", _narrow_sums, "plus-symbolic-window",
         "domain differs from ideal-sum properness at I0"),
        ("k_pairs", _lift_k, "k-closed-forms-window", "k window retraction fails at J2"),
        ("contains_pairs", _shrink_radical, "k-closed-forms-window",
         "k formula window mismatch at (I_omega, fin(1))"),
    ],
)
def test_broken_symbolic_closed_form_fails_its_row(monkeypatch, name, broken, row, detail):
    monkeypatch.setattr(chang, name, broken)
    rows = {r.name: r for r in run_suite(ChangAlgebra(), "all", chang_bound=8)}
    assert (rows[row].status, rows[row].detail) == ("fail", detail)


def test_broken_algebra_fails_not_raises():
    good = lukasiewicz_chain(2)
    oplus = good.oplus.copy()
    oplus[1, 1] = 1
    broken = MvAlgebra(good.neg.copy(), oplus, validate=False)
    rows = run_suite(broken, "all")
    assert any(r.status == "fail" for r in rows)
    assert rows[0].name == "axioms" and rows[0].status == "fail"
    assert rows[0].detail


def test_deterministic_across_runs():
    one = run_suite(lukasiewicz_chain(4), "crt", seed=5)
    two = run_suite(lukasiewicz_chain(4), "crt", seed=5)
    assert one == two


# -- each law is owned by its row: a corrupted space fails exactly there --------

REAL_SPACE = verify.build_dual_space
L2xL3 = product(lukasiewicz_chain(2), lukasiewicz_chain(3))
# its points: 0 < 1 over the MV point 0, and 4 < 3 < 2 over the MV point 4


def _swap_involution(s):
    s.involution[[0, 4]] = s.involution[[4, 0]]


def _drop_plus_entry(s):
    s.plus[0, 1] = -1


def _k_fixes_non_mv_point(s):
    s.k[1] = 1


def _y_misses_a_point(s):
    s.y_points = (0,)
    s.in_y[4] = False


def _fiber_across_components(s):
    # both fiber descriptions move 1 from over 0 to over 4, beside the
    # incomparable point 4
    s.k[1] = 4
    s.plus[1, 4] = 1
    s.plus[1, 0] = -1


def _germ_carves_less_than_fiber(s):
    s.mk = np.array([0, 0, 4, 4, 0])


def _undefine_a_sum(s):
    # 0 + 1 is defined; both entries go, so + stays commutative
    s.plus[0, 1] = s.plus[1, 0] = -1


def _redirect_a_sum(s):
    # 3 + 4 is 3; 2 is another point over 4, and the entry stays defined
    s.plus[3, 4] = s.plus[4, 3] = 2


def _split_a_chain(s):
    # 0 < 1 = i(0) no longer holds, and the involution still reverses the order
    leq = s.order.leq.copy()
    leq[0, 1] = False
    s.order = FinitePoset(leq)


def _add_a_point_to_itself(s):
    # 1 + 1 becomes defined, though 1 is not below its involute 0
    s.plus[1, 1] = 1


def _undefine_zero_plus_zero(s):
    # k(0) = 0, so the interpolant of 0 <= 0 is 0 + 0
    s.plus[0, 0] = -1


def _lower_one_plus_zero(s):
    # the interpolant of 1 <= 1, 1 + k(1) = 1 + 0, falls below 1
    s.plus[1, 0] = 0


def _mk_splits_a_chain(s):
    s.mk = np.array([0, 4, 4, 4, 4])


def _undefine_one_plus_zero(s):
    # 1 lies in the fiber over 0, but 1 + 0 is no longer defined
    s.plus[1, 0] = -1


def _branch_above_an_mv_point(s):
    # 0 lies below the whole chain 4 < 3 < 2, and 1 becomes an MV point
    # too, so that 1 and 4 are incomparable MV points above 0
    leq = s.order.leq.copy()
    leq[0, 2:] = True
    s.order = FinitePoset(leq)
    s.y_points = (0, 1, 4)


def _k_leaves_y(s):
    # k(1) = 1 is no MV point, so m.k(1) is the -1 of m off Y
    s.k[1] = 1
    s.mk = s.m[s.k]


CORRUPTIONS = [
    ("plus", "involution-laws", _swap_involution, "involution is not an involution"),
    ("plus", "plus-commutative", _drop_plus_entry, "+ not commutative at (0, 1)"),
    ("k", "k-fixes-exactly-mv-points", _k_fixes_non_mv_point, "k fixed-point mismatch at 1"),
    ("plus", "plus-idempotents-are-mv-points", _y_misses_a_point,
     "idempotent characterizations of the MV points disagree"),
    ("k", "k-fibers-cover-and-chain", _fiber_across_components, "fiber over 4 is not a chain"),
    ("sheaf-maximal", "germinal-ideals-carve-fibers", _germ_carves_less_than_fiber,
     "germinal subspace at 0 differs from its m.k fiber"),
    ("plus", "plus-matches-ideal-sums", _redirect_a_sum,
     "table sum at (3, 4) differs from the ideal sum"),
    ("plus", "plus-matches-ideal-sums", _undefine_a_sum,
     "(0, 1) undefined but the ideal sum is proper"),
    ("plus", "involution-laws", _split_a_chain, "point 0 incomparable with its involute"),
    ("plus", "involution-laws", _add_a_point_to_itself,
     "involute of 1 is not the largest addable point"),
    ("k", "interpolation-witness", _undefine_zero_plus_zero,
     "interpolation witness sum is undefined"),
    ("k", "interpolation-witness", _lower_one_plus_zero,
     "interpolation witness violates its bounds"),
    ("k", "mk-constant-on-comparables", _mk_splits_a_chain, "m.k differs along 0 <= 1"),
    ("k", "k-fibers-cover-and-chain", _undefine_one_plus_zero,
     "fiber over 0 differs from its description by sums"),
    ("k", "root-system", _branch_above_an_mv_point, "MV points above 0 are not a chain"),
    ("sheaf-maximal", "maximal-fibers-are-components", _k_leaves_y,
     "m.k(1) is not a maximal point"),
    ("kaplansky", "zigzag-quotient-lawful", _k_leaves_y, "m.k(1) is not a maximal point"),
]


@pytest.mark.parametrize(
    "suite,row,edit,detail", CORRUPTIONS, ids=[c[2].__name__ for c in CORRUPTIONS]
)
def test_corrupted_space_fails_the_owning_row(monkeypatch, suite, row, edit, detail):
    def corrupted(alg):
        space = REAL_SPACE(alg)
        edit(space)
        return space

    assert {r.status for r in run_suite(L2xL3, suite)} == {"pass"}
    monkeypatch.setattr(verify, "build_dual_space", corrupted)
    rows = {r.name: r for r in run_suite(L2xL3, suite)}
    assert (rows[row].status, rows[row].detail) == ("fail", detail)


def test_continuity_row_names_a_join_irreducible(monkeypatch):
    # the row scans zero and the join-irreducibles of the reduct only;
    # element 2 of L2xL3 is (0,2), one of them
    def corrupted(alg):
        space = REAL_SPACE(alg)
        _redirect_a_sum(space)
        return space

    assert 2 in L2xL3.lattice_reduct().join_irreducibles
    monkeypatch.setattr(verify, "build_dual_space", corrupted)
    rows = {r.name: r for r in run_suite(L2xL3, "plus")}
    assert rows["plus-continuity-identity"].detail == (
        "+ continuity identity fails for element 2 at (3, 4)"
    )


def test_zigzag_classes_row_reads_the_relation(monkeypatch):
    # the five points of L5 reordered as the fence 0 < 1 > 2 < 3 > 4: one
    # order component, as m.k has one fiber, but 0 and 4 are not zig-zag
    # related in one step
    fence = np.eye(5, dtype=bool)
    fence[[0, 2, 2, 4], [1, 1, 3, 3]] = True

    def corrupted(alg):
        space = REAL_SPACE(alg)
        space.order = FinitePoset(fence)
        return space

    monkeypatch.setattr(verify, "build_dual_space", corrupted)
    rows = {r.name: r for r in run_suite(lukasiewicz_chain(5), "kaplansky")}
    assert rows["zigzag-classes-are-components"].detail == (
        "zig-zag classes differ from the order components"
    )


# Lawful shapes inside the carrier cap at the extremes: more join-irreducibles
# (the chain lengths summed) than Python's default recursion limit, and the
# most chain factors.
EXTREME_SHAPES = {"L1023": (1023,), "L1000xL1": (1000, 1), "L1^12": (1,) * 12}


@pytest.mark.parametrize("name", sorted(EXTREME_SHAPES))
def test_kaplansky_suite_passes_on_extreme_shapes(name):
    alg = functools.reduce(product, map(lukasiewicz_chain, EXTREME_SHAPES[name]))
    rows = run_suite(alg, "kaplansky")
    assert rows and [r.line() for r in rows if r.status != "pass"] == []


# -- the vectorised rows name the witness a scalar scan names --------------------

PARITY_ALGEBRAS = [
    L2xL3,
    product(product(lukasiewicz_chain(1), lukasiewicz_chain(1)), lukasiewicz_chain(2)),
    product(lukasiewicz_chain(3), lukasiewicz_chain(4)),
    product(product(lukasiewicz_chain(2), lukasiewicz_chain(2)), lukasiewicz_chain(2)),
    product(lukasiewicz_chain(5), lukasiewicz_chain(6)),
]


def _row_message(check, space):
    try:
        check(SimpleNamespace(space=space))
    except Error as exc:
        return str(exc)
    return None


def _mutated(space, rng, trial):
    """A copy of space broken in one of six ways: a few entries of plus
    knocked out or redirected; one whole row of plus redrawn at random, so
    that many triples fail and the scan order decides which is named; the
    involution permuted with the domain of + set to its involution
    description, so that downward closure is what breaks; two values of k
    redirected, m.k following; one value of m.k redirected; or one strict
    comparison x < y dropped from the order, half the time with its mirror
    i(y) < i(x), so that the involution may still reverse the order."""
    s = copy.copy(space)
    npts = len(space.member)
    plus = space.plus.copy()
    if trial % 6 == 0:
        for _ in range(3):
            x, y = rng.integers(npts, size=2)
            plus[x, y] = -1 if rng.random() < 0.5 else rng.integers(npts)
    elif trial % 6 == 1:
        plus[rng.integers(npts)] = rng.integers(-1, npts, size=npts)
    elif trial % 6 == 2:
        s.involution = rng.permutation(npts)
        by_inv = space.order.leq[np.arange(npts)[None, :], s.involution[:, None]]
        plus = np.where(by_inv, np.maximum(plus, 0), -1)
    elif trial % 6 == 3:
        s.k = space.k.copy()
        s.k[rng.integers(npts, size=2)] = rng.integers(npts, size=2)
        s.mk = space.m[s.k]
    elif trial % 6 == 4:
        s.mk = space.mk.copy()
        s.mk[rng.integers(npts)] = rng.integers(npts)
    else:
        leq = space.order.leq.copy()
        xs, ys = np.nonzero(leq & ~np.eye(npts, dtype=bool))
        i = rng.integers(len(xs))
        leq[xs[i], ys[i]] = False
        if rng.random() < 0.5:
            leq[space.involution[ys[i]], space.involution[xs[i]]] = False
        s.order = FinitePoset(leq)
    s.plus = plus
    return s


def _message_kind(message):
    """A failure message without the points or elements it names."""
    return " ".join(w for w in message.split() if not any(c.isdigit() for c in w))


def test_plus_rows_name_the_reference_witness():
    # the plus rows and every row rewritten from a scalar scan
    rows = [
        (verify._check_plus_associative,
         lambda s: plus_associative_reference(s.plus)),
        (verify._check_plus_translation,
         lambda s: plus_translation_reference(s.plus, s.order.leq)),
        (verify._check_plus_domain,
         lambda s: plus_domain_reference(s.plus, s.order.leq, s.involution)),
        (verify._check_involution_laws, involution_laws_reference),
        (verify._check_k_fibers, k_fibers_reference),
        (verify._check_interpolation, interpolation_reference),
        (verify._check_mk_on_comparables, mk_constant_reference),
    ]
    kinds = set()
    for alg in PARITY_ALGEBRAS:
        space = REAL_SPACE(alg)
        for check, reference in rows:
            assert _row_message(check, space) is None is reference(space)
        rng = np.random.default_rng(len(space.member))
        for trial in range(180):
            s = _mutated(space, rng, trial)
            for check, reference in rows:
                got = _row_message(check, s)
                assert got == reference(s)
                if got is not None:
                    kinds.add(_message_kind(got))
    # every failure message of the rows was exercised, but for "fibers of k
    # miss a point": every point lies above an MV point, and no mutant here
    # moves a value of k off the points above one
    assert kinds == {
        "associativity domain gap at",
        "associativity fails at",
        "translation domain gap at <=",
        "translation monotonicity fails at",
        "domain of + differs from the involution description",
        "domain of + is not downward closed under",
        "involution is not an involution",
        "involution does not reverse the order",
        "point incomparable with its involute",
        "involute of is not the largest addable point",
        "fiber over differs from its description by sums",
        "fiber over is not a chain",
        "interpolation witness sum is undefined",
        "interpolation witness violates its bounds",
        "m.k differs along <=",
    }
