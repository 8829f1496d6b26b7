"""Dual-space tests.

Small spaces are pinned value by value (points located by their ideals, so
the tests do not depend on enumeration order); the structural laws run over
the shared family through the named check suites; the comparison verdicts
and error paths are exercised directly.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvspectra import spectrum as sp
from mvspectra.chang import COFINITE, RADICAL, TRUNC, ChangAlgebra, ChangIdeal, ChangSpace
from mvspectra.errors import Error
from mvspectra.mv import MvAlgebra, check_axioms, lukasiewicz_chain, product
from mvspectra.verify import run_suite

from conftest import is_maximal_mv_ideal, oplus_bar_oracle, relabelled, subset


def point_of(space, *members):
    """The one point whose ideal holds exactly the given elements."""
    hits = np.flatnonzero((space.member == subset(space.algebra.n, *members)).all(axis=1))
    assert len(hits) == 1
    return int(hits[0])


def all_pass(alg, suite, **kw):
    rows = run_suite(alg, suite, **kw)
    bad = [r.line() for r in rows if r.status == "fail"]
    assert not bad, "\n".join(bad)
    return rows


# -- pinned small spaces -------------------------------------------------------


def test_three_chain_space_pinned():
    space = sp.build_dual_space(lukasiewicz_chain(2))
    assert len(space.member) == 2
    x1 = point_of(space, 0)
    x2 = point_of(space, 0, 1)
    leq = space.order.leq
    assert leq[x1, x2] and not leq[x2, x1]
    assert space.y_points == (x1,) and space.z_points == (x1,)
    assert space.involute(x1) == x2 and space.involute(x2) == x1
    assert space.partial_plus(x1, x1) == x1
    assert space.partial_plus(x1, x2) == x2
    assert space.partial_plus(x2, x1) == x2
    assert space.partial_plus(x2, x2) is None
    assert set(map(tuple, np.argwhere(space.plus >= 0).tolist())) == {
        (x1, x1), (x1, x2), (x2, x1)
    }
    assert space.k_map(x1) == x1 and space.k_map(x2) == x1
    assert space.fiber(x1).all()  # both points
    assert sp.interpolate(space, x1, x2) == x1
    assert space.m_map(x1) == x1
    quot = sp.w_quotient(space)
    assert quot.classes.tolist() == [[True, True]]
    assert quot.z_of_class == (x1,)


def test_boolean_spaces_are_discrete():
    for alg in (lukasiewicz_chain(1), product(lukasiewicz_chain(1), lukasiewicz_chain(1))):
        space = sp.build_dual_space(alg)
        n = len(space.member)
        assert (space.involution == np.arange(n)).all()
        assert (sp.w_relation(space) == np.eye(n, dtype=bool)).all()
        quot = sp.w_quotient(space)
        assert len(quot.classes) == n
        assert set(space.z_points) == set(range(n))
        assert all(space.m_map(y) == y for y in space.y_points)


def test_product_space_two_components():
    a, b = lukasiewicz_chain(2), lukasiewicz_chain(3)
    space = sp.build_dual_space(product(a, b))
    assert len(space.member) == 5
    kern_first = subset(a.n * b.n, *range(b.n))  # {0} x second factor
    kern_second = subset(a.n * b.n, *range(0, a.n * b.n, b.n))  # first factor x {0}
    y_ideals = sorted(space.member[y].tolist() for y in space.y_points)
    assert y_ideals == sorted([kern_first.tolist(), kern_second.tolist()])
    assert set(space.y_points) == set(space.z_points)
    assert all(space.m_map(y) == y for y in space.y_points)
    quot = sp.w_quotient(space)
    assert sorted(quot.classes.sum(axis=1).tolist()) == [2, 3]
    assert sp.lattice_only_component_count(space.lattice) == 2


def test_chang_dispatch_and_maximal_retraction():
    space = sp.build_dual_space(ChangAlgebra())
    assert isinstance(space, ChangSpace)
    bottom, radical = ChangIdeal(TRUNC, 0), ChangIdeal(RADICAL)
    assert space.m_map(bottom) == radical
    assert space.m_map(radical) == radical
    # adding any tail of the radical to a cofinite point reaches the top,
    # so the retraction sends cofinite points all the way down
    assert space.k_map(ChangIdeal(COFINITE, 2)) == bottom
    assert space.k_map(radical) == radical
    assert radical in space.fiber(radical, chang_bound=6)
    assert bottom not in space.fiber(radical, chang_bound=6)


# -- structural law batteries on the family ------------------------------------


def test_addition_laws_across_family(family):
    for label, alg in family.items():
        all_pass(alg, "plus")


def test_retraction_laws_across_family(family):
    for label, alg in family.items():
        all_pass(alg, "k")


def test_quotient_laws_across_family(family):
    for label, alg in family.items():
        all_pass(alg, "kaplansky")


def test_z_points_match_the_maximality_oracle(family):
    for label, alg in family.items():
        space = sp.build_dual_space(alg)
        assert space.z_points == tuple(
            y
            for y in space.y_points
            if is_maximal_mv_ideal(alg, space.member[y])
        ), label


def test_plus_table_matches_fixpoint_sums(small_family):
    for label, alg in small_family.items():
        space = sp.build_dual_space(alg)
        ideals = space.member
        for x, px in enumerate(ideals):
            for y, py in enumerate(ideals):
                direct = oplus_bar_oracle(alg, px, py)
                got = space.partial_plus(x, y)
                if got is None:
                    assert direct[alg.one]
                else:
                    assert (ideals[got] == direct).all()


def test_k_routes_and_fixed_points(small_family):
    for label, alg in small_family.items():
        space = sp.build_dual_space(alg)
        for x in range(len(space.member)):
            kx = space.k_map(x)
            assert kx == sp.k_via_ideal_scan(space, x)
            assert kx == sp.k_via_filter_difference(space, x)
            assert (kx == x) == space.in_y[x]


def test_interpolation_bounds(small_family):
    for label, alg in small_family.items():
        space = sp.build_dual_space(alg)
        leq = space.order.leq
        for x, xp in np.argwhere(leq).tolist():
            w = sp.interpolate(space, x, xp)
            assert leq[x, w] and leq[w, xp]
            assert leq[space.k_map(x), space.k_map(w)]
            assert leq[space.k_map(xp), space.k_map(w)]


def test_hat_map_is_a_downset_bijection(small_family):
    for label, alg in small_family.items():
        space = sp.build_dual_space(alg)
        leq = space.order.leq
        hats = np.array([space.hat(a) for a in range(alg.n)])
        assert space.hat_elements(hats).tolist() == list(range(alg.n))
        assert len(np.unique(hats, axis=0)) == alg.n
        for h in hats:
            for x in np.flatnonzero(h):
                assert h[leq[:, x]].all()  # everything below x is in h
        assert not space.hat(alg.zero).any()
        assert space.hat(alg.one).all()
        # a row that is no downset is no hat: the lookup reports the miss
        lt = leq & ~np.eye(len(leq), dtype=bool)
        if lt.any():  # the upper point of a strict pair, alone
            upper = np.arange(len(leq)) == np.argwhere(lt)[0][1]
            assert space.hat_elements(upper) == -1


# -- comparison verdicts ---------------------------------------------------------


def test_kaplansky_verdicts():
    l2, l3 = lukasiewicz_chain(2), lukasiewicz_chain(3)
    p = product(l2, l3)
    assert sp.kaplansky_check(p, p) == sp.VERDICT_HOMEOMORPHIC
    assert sp.kaplansky_check(p, product(l3, l2)) == sp.VERDICT_HOMEOMORPHIC
    assert sp.kaplansky_check(l2, l3) == sp.VERDICT_NOT_ISOMORPHIC
    assert sp.kaplansky_check(ChangAlgebra(), lukasiewicz_chain(5)) == sp.VERDICT_INCOMPARABLE
    assert sp.kaplansky_check(lukasiewicz_chain(5), ChangAlgebra()) == sp.VERDICT_INCOMPARABLE
    assert sp.kaplansky_check(ChangAlgebra(), ChangAlgebra()) == sp.VERDICT_HOMEOMORPHIC


def test_foreign_objects_are_refused():
    # only a finite MvAlgebra or the symbolic chain has a dual space
    reduct = lukasiewicz_chain(2).lattice_reduct()
    for call in (
        lambda: sp.kaplansky_check(reduct, reduct),
        lambda: sp.kaplansky_check(ChangAlgebra(), reduct),
        lambda: sp.build_dual_space(reduct),
        lambda: sp.MvDualSpace(reduct),
    ):
        with pytest.raises(Error) as exc:
            call()
        assert str(exc.value) == "not an MV-algebra: FiniteDistLattice"


@pytest.mark.parametrize(
    "alg, finite",
    [
        (lukasiewicz_chain(3), True),
        (product(lukasiewicz_chain(2), lukasiewicz_chain(3)), True),
        (ChangAlgebra(), False),
    ],
    ids=["L3", "L2xL3", "chang"],
)
def test_carriers_answer_one_protocol(alg, finite):
    assert alg.finite is finite
    assert alg.dual_space().to_json() == sp.build_dual_space(alg).to_json()
    assert alg.dual_space() is not alg.dual_space()  # a fresh space per call
    assert alg.first_violation(8) is None


def test_first_violation_is_the_axiom_scan_and_foreign_objects_have_none():
    alg = lukasiewicz_chain(3)
    oplus = alg.oplus.copy()
    oplus[1, 2] = 1  # 1 + 2 no longer equals 2 + 1
    broken = MvAlgebra(alg.neg, oplus, validate=False)
    assert broken.first_violation(8) == check_axioms(broken)
    assert broken.first_violation(8).law == "commutativity"
    with pytest.raises(Error) as exc:
        run_suite(alg.lattice_reduct())
    assert str(exc.value) == "not an MV-algebra: FiniteDistLattice"


# -- chain products against their closed forms ---------------------------------


def assert_closed_forms(lengths):
    """L_{n1} x ... x L_{nk}: X is k disjoint chains of n_i points, one
    fiber of k each; with t_x the number of points strictly below x, the
    involution sends t to n_i - 1 - t and x + y sits at t_x + t_y when that
    is at most n_i - 1 in a shared fiber, and is undefined otherwise."""
    alg = lukasiewicz_chain(lengths[0])
    for n in lengths[1:]:
        alg = product(alg, lukasiewicz_chain(n))
    space = sp.MvDualSpace(alg)
    assert len(space.member) == sum(lengths)
    assert len(space.y_points) == len(space.z_points) == len(lengths)
    assert len(alg.idempotents) == 2 ** len(lengths)
    t = space.order.leq.sum(axis=0) - 1
    fiber_size = np.bincount(space.k)
    assert sorted(fiber_size[list(space.y_points)]) == sorted(lengths)
    sizes = fiber_size[space.k]
    assert (space.k[space.involution] == space.k).all()
    assert (t[space.involution] == sizes - 1 - t).all()
    defined = (space.k[:, None] == space.k[None, :]) & (
        t[:, None] + t[None, :] <= sizes[:, None] - 1
    )
    assert ((space.plus >= 0) == defined).all()
    x, y = np.nonzero(defined)
    assert (space.k[space.plus[x, y]] == space.k[x]).all()
    assert (t[space.plus[x, y]] == t[x] + t[y]).all()


@st.composite
def chain_lengths(draw, carrier=300):
    # each factor leaves room for the ones after it to be at least L_1
    lengths, size = [], 1
    for later in reversed(range(draw(st.integers(1, 6)))):
        lengths.append(draw(st.integers(1, carrier // (size << later) - 1)))
        size *= lengths[-1] + 1
    return lengths


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(chain_lengths())
def test_chain_products_match_closed_forms(lengths):
    assert_closed_forms(lengths)


def test_l31_squared_matches_closed_forms():
    assert_closed_forms([31, 31])


# -- error paths and serialization ------------------------------------------------


def test_error_paths():
    space = sp.build_dual_space(lukasiewicz_chain(2))
    x2 = point_of(space, 0, 1)
    with pytest.raises(Error):
        space.fiber(x2)
    with pytest.raises(Error):
        space.m_map(x2)
    with pytest.raises(Error):
        sp.interpolate(space, x2, point_of(space, 0))
    with pytest.raises(Error):
        sp.MvDualSpace(ChangAlgebra())


def test_space_rejects_broken_tables():
    good = lukasiewicz_chain(2)
    oplus = good.oplus.copy()
    oplus[1, 1] = 1  # 1 (+) 1 should reach the top of the chain
    broken = MvAlgebra(good.neg.copy(), oplus, validate=False)
    with pytest.raises(Error):
        sp.build_dual_space(broken)


def test_json_deterministic_and_complete():
    alg = product(lukasiewicz_chain(2), lukasiewicz_chain(3))
    one = json.dumps(sp.build_dual_space(alg).to_json(), sort_keys=True)
    two = json.dumps(sp.build_dual_space(alg).to_json(), sort_keys=True)
    assert one == two
    data = json.loads(one)
    assert data["schema"] == "mv-spectra/1"
    for key in ("points", "order", "involution", "plus", "Y", "Z", "k", "m"):
        assert key in data
    chang = sp.build_dual_space(ChangAlgebra()).to_json(chang_bound=5)
    assert chang["schema"] == "mv-spectra/1"
    assert "I_omega" in json.dumps(chang)


def test_dot_output_marks_point_classes():
    space = sp.build_dual_space(product(lukasiewicz_chain(2), lukasiewicz_chain(3)))
    dot = space.to_dot()
    assert dot.startswith("digraph")
    assert "peripheries=2" in dot and "style=filled" in dot
    chang_dot = sp.build_dual_space(ChangAlgebra()).to_dot(chang_bound=4)
    assert "I_omega" in chang_dot


# -- invariance under relabelling the carrier ------------------------------------


@st.composite
def chain_product_and_permutation(draw):
    first = draw(st.integers(1, 8))
    second = draw(st.integers(0, 36 // (first + 1) - 1))
    alg = lukasiewicz_chain(first)
    if second:
        alg = product(alg, lukasiewicz_chain(second))
    return alg, draw(st.permutations(range(alg.n)))


@settings(derandomize=True, deadline=None, max_examples=15, database=None)
@given(chain_product_and_permutation())
def test_relabelling_invariance(case):
    alg, perm = case
    pair = (alg, relabelled(alg, perm))
    sizes = [
        (len(s.member), len(s.y_points), len(s.z_points), int((s.plus >= 0).sum()))
        for s in map(sp.build_dual_space, pair)
    ]
    assert sizes[0] == sizes[1]
    for suite in ("plus", "k"):
        statuses = [[(r.name, r.status) for r in run_suite(a, suite)] for a in pair]
        assert statuses[0] == statuses[1]
