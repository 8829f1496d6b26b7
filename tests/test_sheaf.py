"""Bundle, patching, section, and remainder tests.

The product of the 3- and 4-chains is the main concrete instance: its two
stalks are the factors, its sections are the full product, and the two
projection kernels give the remainder instances pinned below.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from mvspectra import sheaf as sh
from mvspectra import spectrum as sp
from mvspectra.errors import CapExceeded, Error
from mvspectra.mv import (
    MvAlgebra,
    ideal_congruent,
    is_mv_ideal,
    lukasiewicz_chain,
    product,
)
from mvspectra.verify import run_suite

from conftest import difference_tower, quotient, relabelled, subset


@pytest.fixture(scope="module")
def prod_space():
    return sp.build_dual_space(product(lukasiewicz_chain(2), lukasiewicz_chain(3)))


def y_by_ideal(space, ideal):
    hits = [y for y in space.y_points if (space.member[y] == ideal).all()]
    assert len(hits) == 1
    return hits[0]


KERN_FIRST = subset(12, 0, 1, 2, 3)  # {0} x 4-chain, quotient is the 3-chain
KERN_SECOND = subset(12, 0, 4, 8)    # 3-chain x {0}, quotient is the 4-chain
KERNELS = np.array([KERN_FIRST, KERN_SECOND])
KERN_FIRST_AND_ZERO = np.array([KERN_FIRST, subset(12, 0)])


# -- bundles and stalks ---------------------------------------------------------


def test_prime_bundle_stalks_are_the_factors(prod_space):
    inst = sh.build_etale(prod_space, sh.BASE_PRIME)
    sizes = sorted(st.size for st in inst.stalks)
    assert sizes == [3, 4]
    for st in inst.stalks:
        leq = quotient(prod_space.algebra, st.ideal).algebra.leq
        assert (leq | leq.T).all()
    assert set(inst.q.tolist()) == set(range(len(inst.base_points)))


def test_stalks_are_the_mv_quotients(family):
    # the lattice congruence of each fiber is the MV congruence of the
    # stalk's ideal, whose zero class is the point or germinal ideal
    shapes = dict(family)
    shapes["L5xL2xL1"] = product(
        product(lukasiewicz_chain(5), lukasiewicz_chain(2)), lukasiewicz_chain(1)
    )
    for label, alg in shapes.items():
        space = sp.MvDualSpace(alg)
        for base in (sh.BASE_PRIME, sh.BASE_MAXIMAL):
            for st in sh.build_etale(space, base).stalks:
                want = (
                    space.member[st.point]
                    if base == sh.BASE_PRIME
                    else sh.germinal_ideal(space, st.point)
                )
                assert (st.ideal == want).all(), (label, base, st.point)
                proj = quotient(alg, st.ideal).projection
                assert tuple(st.projection.tolist()) == proj, (label, base)


def test_maximal_bundle_matches_prime_here(prod_space):
    # finite algebras have Y = Z, so the two bundles share base and fibers
    prime = sh.build_etale(prod_space, sh.BASE_PRIME)
    maximal = sh.build_etale(prod_space, sh.BASE_MAXIMAL)
    assert set(prime.base_points) == set(maximal.base_points)
    assert sorted(st.ideal.tolist() for st in prime.stalks) == sorted(
        st.ideal.tolist() for st in maximal.stalks
    )


def test_germinal_ideals(prod_space):
    for z in prod_space.z_points:
        assert (sh.germinal_ideal(prod_space, z) == prod_space.member[z]).all()
    non_max = int(np.argmin(prod_space.in_z))
    with pytest.raises(Error):
        sh.germinal_ideal(prod_space, non_max)


def test_base_neighborhoods(prod_space):
    prime = sh.build_etale(prod_space, sh.BASE_PRIME)
    # Y is an antichain here, so each least neighborhood is a singleton
    assert (prime.base_leq == np.eye(len(prime.base_points), dtype=bool)).all()


@pytest.mark.parametrize("factors", [(2, 3), (3,), (1, 2)])
def test_identity_decomposition_has_one_section_per_element(factors):
    # q = identity over X with its own order: a base that is no antichain
    alg = lukasiewicz_chain(factors[0])
    for n in factors[1:]:
        alg = product(alg, lukasiewicz_chain(n))
    space = sp.build_dual_space(alg)
    npts = len(space.member)
    leq = space.order.leq
    inst = sh.decomposition_sheaf(space, np.arange(npts), range(npts), leq)
    assert not (leq == np.eye(npts, dtype=bool)).all()
    # each stalk splits the carrier into one point's ideal and filter, and
    # a neighborhood is the point's upset, so the local condition prunes
    assert [st.size for st in inst.stalks] == [2] * npts
    assert 2 ** npts > alg.n
    assert len(sh.global_sections(inst)) == alg.n
    # the reduct is recovered, but a point ideal off Y is no MV ideal, so
    # negation does not descend to its stalk and the hom test says so
    rep = sh.eta_check(inst)
    assert rep["sections"] == alg.n and not rep["isomorphism"]
    assert "neg-breaks-at" in rep["witness"]


# -- property (P) -----------------------------------------------------------------


def points(space, *pts):
    """The boolean row over the points of space holding the given ones."""
    return subset(len(space.member), *pts)


def test_patch_single_cover_returns_element(prod_space):
    alg = prod_space.algebra
    everything = prod_space.in_y[None]
    for b in range(alg.n):
        res = sh.check_property_p(
            prod_space, sh.BASE_PRIME, everything, prod_space.hat(b)[None]
        )
        assert res.ok and res.element == b and (res.patched == prod_space.hat(b)).all()


def test_patch_two_disjoint_patches(prod_space):
    y1 = y_by_ideal(prod_space, KERN_FIRST)
    y2 = y_by_ideal(prod_space, KERN_SECOND)
    # local representatives of (2,3): (2,0) on the first patch, (0,3) on the second
    res = sh.check_property_p(
        prod_space,
        sh.BASE_PRIME,
        np.array([points(prod_space, y1), points(prod_space, y2)]),
        np.array([prod_space.hat(8), prod_space.hat(3)]),
    )
    assert res.ok and res.element == 11


def test_patch_detects_incompatible_sets(prod_space):
    alg = prod_space.algebra
    everything = prod_space.in_y
    res = sh.check_property_p(
        prod_space,
        sh.BASE_PRIME,
        np.array([everything, everything]),
        np.array([prod_space.hat(alg.zero), prod_space.hat(alg.one)]),
    )
    assert not res.ok
    l, m, witness = res.violation
    assert {l, m} == {0, 1}
    assert 0 <= witness < len(prod_space.member)


def test_patch_input_validation(prod_space):
    y1 = y_by_ideal(prod_space, KERN_FIRST)
    non_base = int(np.argmin(prod_space.in_y))
    hat0 = prod_space.hat(0)[None]
    with pytest.raises(Error):  # does not cover the base
        sh.check_property_p(prod_space, sh.BASE_PRIME, points(prod_space, y1)[None], hat0)
    with pytest.raises(Error, match="not of the form a-hat"):
        sh.check_property_p(
            prod_space, sh.BASE_PRIME, prod_space.in_y[None], points(prod_space, non_base)[None]
        )
    with pytest.raises(Error):  # misaligned lists
        sh.check_property_p(prod_space, sh.BASE_PRIME, points(prod_space, y1)[None], hat0[:0])
    with pytest.raises(Error, match=f"cover names {non_base}, not a base point"):
        sh.check_property_p(prod_space, sh.BASE_PRIME, points(prod_space, non_base)[None], hat0)


# A family of point sets is a boolean matrix, one column per point of X;
# check_property_p refuses any other form for the cover and the patches.
MALFORMED_FAMILIES = {
    "frozenset": lambda rows: [frozenset(np.flatnonzero(row).tolist()) for row in rows],
    "index list": lambda rows: [np.flatnonzero(row).tolist() for row in rows],
    "wrong width": lambda rows: np.hstack([rows, rows[:, :1]]),
    "not boolean": lambda rows: rows.astype(np.int64),
}


@pytest.mark.parametrize("form", sorted(MALFORMED_FAMILIES))
@pytest.mark.parametrize("family_of", ["cover", "patches"])
def test_patching_refuses_anything_but_a_boolean_matrix(prod_space, family_of, form):
    # well formed, the call patches the hat of 5 over all of Y
    cover, patches = prod_space.in_y[None], prod_space.hat(5)[None]
    if family_of == "cover":
        cover = MALFORMED_FAMILIES[form](cover)
    else:
        patches = MALFORMED_FAMILIES[form](patches)
    npts = len(prod_space.member)
    with pytest.raises(Error, match=f"subsets of the points must be boolean rows of length {npts}"):
        sh.check_property_p(prod_space, sh.BASE_PRIME, cover, patches)


def test_patch_over_maximal_base(prod_space):
    z1 = y_by_ideal(prod_space, KERN_FIRST)
    z2 = y_by_ideal(prod_space, KERN_SECOND)
    res = sh.check_property_p(
        prod_space,
        sh.BASE_MAXIMAL,
        np.array([points(prod_space, z1), points(prod_space, z2)]),
        np.array([prod_space.hat(8), prod_space.hat(3)]),
    )
    assert res.ok and res.element == 11


# -- sections and eta --------------------------------------------------------------


def test_sections_are_the_full_product_here(prod_space):
    # the base is an antichain, so local representability never prunes
    inst = sh.build_etale(prod_space, sh.BASE_PRIME)
    secs = sh.global_sections(inst)
    assert len(secs) == 12
    assert len(set(secs)) == 12


def test_eta_reports(prod_space):
    for base in (sh.BASE_PRIME, sh.BASE_MAXIMAL):
        rep = sh.eta_check(sh.build_etale(prod_space, base))
        assert rep["base"] == base
        assert rep["isomorphism"] is True
        assert rep["sections"] == 12
        assert sorted(s["size"] for s in rep["stalks"]) == [3, 4]
        assert rep["witness"] == {"injective": True, "surjective": True, "hom": True}


def test_eta_detects_truncated_bundle(prod_space):
    # dropping one base point collapses elements that differ only there
    full = sh.build_etale(prod_space, sh.BASE_MAXIMAL)
    truncated = sh.decomposition_sheaf(
        prod_space, full.q, full.base_points[:1], full.base_leq[:1, :1]
    )
    rep = sh.eta_check(truncated)
    assert rep["isomorphism"] is False
    assert "collapsed" in rep["witness"]


def test_sections_cap(prod_space):
    inst = sh.build_etale(prod_space, sh.BASE_PRIME)
    with pytest.raises(CapExceeded):
        sh.global_sections(inst, cap=2)
    with pytest.raises(CapExceeded):
        sh.eta_check(inst, cap=2)


def test_eta_across_family(family):
    for label, alg in family.items():
        for suite in ("sheaf-prime", "sheaf-maximal"):
            rows = run_suite(alg, suite)
            bad = [r.line() for r in rows if r.status == "fail"]
            assert not bad, f"{label}: " + "; ".join(bad)


# -- remainder solving ---------------------------------------------------------------


def test_crt_pinned_product_instance():
    alg = product(lukasiewicz_chain(2), lukasiewicz_chain(3))
    # targets (2,0) and (0,3) against the projection kernels meet at (2,3)
    assert sh.crt_solve(alg, KERNELS, [8, 3]) == 11
    assert sh.crt_solve(alg, KERNELS, [0, 0]) == 0
    assert sh.crt_solve(alg, KERNELS, [11, 11]) == 11


def test_crt_single_ideal_chain():
    alg = lukasiewicz_chain(3)
    for a in range(alg.n):
        assert sh.crt_solve(alg, subset(4, 0)[None], [a]) == a


def test_crt_rejections():
    alg = product(lukasiewicz_chain(2), lukasiewicz_chain(3))
    with pytest.raises(Error):  # incompatible modulo the join
        sh.crt_solve(alg, KERN_FIRST_AND_ZERO, [8, 0])
    with pytest.raises(Error):  # intersection is not zero
        sh.crt_solve(alg, KERN_FIRST[None], [8])
    with pytest.raises(Error):  # not an MV ideal
        sh.crt_solve(lukasiewicz_chain(2), subset(3, 0, 1)[None], [0])
    with pytest.raises(Error):  # misaligned lists
        sh.crt_solve(alg, KERN_FIRST[None], [1, 2])


def test_crt_refuses_every_non_ideal():
    # every subset of a relabelled L2 x L3, next to the zero ideal: an MV
    # ideal solves to zero, anything else is refused
    alg = relabelled(
        product(lukasiewicz_chain(2), lukasiewicz_chain(3)),
        np.random.default_rng(3).permutation(12),
    )
    zero = subset(alg.n, alg.zero)
    ideals = 0
    for mask in range(1 << alg.n):
        s = np.array([mask >> a & 1 for a in range(alg.n)], dtype=bool)
        if is_mv_ideal(alg, s):
            ideals += 1
            assert sh.crt_solve(alg, np.array([zero, s]), [alg.zero, alg.zero]) == alg.zero
        else:
            with pytest.raises(Error) as exc:
                sh.crt_solve(alg, np.array([zero, s]), [alg.zero, alg.zero])
            assert str(exc.value) == "remainder solving needs MV ideals"
    assert ideals == 4  # the downsets of the four idempotents


def test_crt_refuses_unclosed_downset_of_idempotent():
    # L1 x L2 with (0,1) + (0,2) sent to (1,1): the order is unchanged and
    # (0,2) + (0,2) = (0,2) still, but the downset {0, (0,1), (0,2)} of that
    # idempotent is no longer closed under addition, so it is no MV ideal
    good = product(lukasiewicz_chain(1), lukasiewicz_chain(2))
    oplus = good.oplus.copy()
    oplus[1, 2] = oplus[2, 1] = 4
    alg = MvAlgebra(good.neg.copy(), oplus, validate=False)
    assert (alg.leq == good.leq).all() and alg.oplus[2, 2] == 2
    with pytest.raises(Error) as exc:
        sh.crt_solve(alg, np.array([subset(6, 0, 1, 2), subset(6, 0, 3)]), [0, 0])
    assert str(exc.value) == "remainder solving needs MV ideals"


def test_crt_messages_when_not_unique():
    alg = product(lukasiewicz_chain(2), lukasiewicz_chain(3))
    with pytest.raises(Error) as exc:
        sh.crt_solve(alg, KERN_FIRST_AND_ZERO, [8, 0])
    assert str(exc.value) == "targets 0 and 1 are incompatible modulo the join"
    # L1 x L2 with two oplus entries broken: (0,0) + (0,2) and (1,1) + (1,1);
    # both ideals stay MV ideals meeting in zero, and (0,1) and (0,2) both
    # solve the system, which a lawful algebra never allows
    base = product(lukasiewicz_chain(1), lukasiewicz_chain(2))
    oplus = base.oplus.copy()
    oplus[0, 2] = oplus[2, 0] = 1
    oplus[4, 4] = 4
    broken = MvAlgebra(base.neg.copy(), oplus, validate=False)
    with pytest.raises(Error) as exc:
        sh.crt_solve(broken, np.array([subset(6, 0, 1, 2), subset(6, 0, 3, 4)]), [0, 5])
    assert str(exc.value) == "expected a unique solution, found 2"


def test_crt_join_is_the_ideal_sum():
    # the join of down(1,0,0) and down(0,1,0) is down(1,1,0), larger than
    # their union; (0,0,0) and (0,0,1) differ modulo it
    alg = product(product(lukasiewicz_chain(1), lukasiewicz_chain(1)), lukasiewicz_chain(1))
    at = {label: a for a, label in enumerate(alg.labels)}
    zero, top = at["((0,0),0)"], at["((0,0),1)"]
    first = subset(alg.n, zero, at["((1,0),0)"])
    second = subset(alg.n, zero, at["((0,1),0)"])
    with pytest.raises(Error, match="incompatible modulo the join"):
        sh.crt_solve(alg, np.array([first, second]), [zero, top])


def test_crt_batched_matches_scalar_calls(small_family):
    # every (planted, targets) row at once equals one scalar call per row
    for label, alg in small_family.items():
        space = sp.build_dual_space(alg)
        ideals = space.member[list(space.z_points)]
        classes = [
            [[b for b in range(alg.n) if ideal_congruent(alg, b, a, i)] for a in range(alg.n)]
            for i in ideals
        ]
        rows = np.array(
            [[cls[a][(a * 7 + k) % len(cls[a])] for k, cls in enumerate(classes)]
             for a in range(alg.n)]
        )
        got = sh.crt_solve(alg, ideals, rows)
        assert got.tolist() == [sh.crt_solve(alg, ideals, r) for r in rows.tolist()]
        assert got.tolist() == list(range(alg.n)), label


def test_crt_batched_names_the_first_bad_row():
    alg = product(lukasiewicz_chain(2), lukasiewicz_chain(3))
    with pytest.raises(Error) as exc:
        sh.crt_solve(alg, KERN_FIRST_AND_ZERO, [[0, 0], [8, 0]])
    assert str(exc.value) == "row 1: targets 0 and 1 are incompatible modulo the join"
    # the broken L1 x L2 of test_crt_messages_when_not_unique: [0, 5] has two
    # solutions, [0, 0] and [0, 3] one each
    base = product(lukasiewicz_chain(1), lukasiewicz_chain(2))
    oplus = base.oplus.copy()
    oplus[0, 2] = oplus[2, 0] = 1
    oplus[4, 4] = 4
    broken = MvAlgebra(base.neg.copy(), oplus, validate=False)
    ideals = np.array([subset(6, 0, 1, 2), subset(6, 0, 3, 4)])
    with pytest.raises(Error) as scalar:
        sh.crt_solve(broken, ideals, [0, 5])
    with pytest.raises(Error) as batched:
        sh.crt_solve(broken, ideals, [[0, 0], [0, 3], [0, 5], [0, 5]])
    assert str(batched.value) == f"row 2: {scalar.value}"
    assert str(scalar.value) == "expected a unique solution, found 2"
    with pytest.raises(Error, match="matching nonempty"):
        sh.crt_solve(alg, KERNELS, [[8, 3, 0]])
    assert sh.crt_solve(alg, KERNELS, np.zeros((0, 2), dtype=int)).shape == (0,)


def test_crt_term_pinned(prod_space):
    alg = prod_space.algebra
    # units are the kernel generators; patches are disjoint singletons
    assert sh.crt_term(alg, [3, 8], [8, 3], space=prod_space) == (0, 11)
    # second instance needs one subtraction before the join lands right
    assert sh.crt_term(alg, [3, 8], [11, 0], space=prod_space) == (1, 8)


def test_crt_term_least(prod_space):
    alg = prod_space.algebra
    units, targets = [3, 8], [11, 0]
    t, b = sh.crt_term(alg, units, targets, space=prod_space)
    y_ideals = {y: prod_space.member[y] for y in prod_space.y_points}
    patches = [
        [y for y in prod_space.y_points if y_ideals[y][u]] for u in units
    ]
    for tt in range(t):
        join = alg.zero
        for i, u in enumerate(units):
            v = targets[i]
            for _ in range(tt):
                v = int(alg.ominus[v, u])
            join = int(alg.join[join, v])
        assert not all(
            ideal_congruent(alg, join, targets[i], y_ideals[y])
            for i in range(len(units))
            for y in patches[i]
        )


def test_crt_term_zero_unit():
    alg = lukasiewicz_chain(4)
    for a in range(alg.n):
        assert sh.crt_term(alg, [0], [a]) == (0, a)


def test_crt_term_validation(prod_space):
    alg = prod_space.algebra
    with pytest.raises(Error):  # patches do not cover Y
        sh.crt_term(alg, [3], [8], space=prod_space)
    with pytest.raises(Error):  # shared patch with clashing targets
        sh.crt_term(alg, [0, 0], [0, 11], space=prod_space)


def test_crt_term_agrees_with_scan(small_family):
    rng = np.random.default_rng(7)
    for label, alg in small_family.items():
        space = sp.build_dual_space(alg)
        units = [int(space.generators[z]) for z in space.z_points]
        ideals = space.member[list(space.z_points)]
        for _ in range(20):
            planted = int(rng.integers(alg.n))
            targets = [
                int(
                    rng.choice(
                        [
                            a
                            for a in range(alg.n)
                            if ideal_congruent(alg, a, planted, ideal)
                        ]
                    )
                )
                for ideal in ideals
            ]
            _, b = sh.crt_term(alg, units, targets, space=space)
            assert b == sh.crt_solve(alg, ideals, targets) == planted


# -- towers ----------------------------------------------------------------------


def test_difference_tower_shape(small_family):
    for label, alg in small_family.items():
        for a in range(alg.n):
            for u in range(alg.n):
                seq = difference_tower(alg, a, u)
                assert len(seq) <= alg.n
                assert seq[0] == a
                assert int(alg.ominus[seq[-1], u]) == seq[-1]
                for prev, nxt in zip(seq, seq[1:]):
                    assert int(alg.ominus[prev, u]) == nxt and nxt != prev


def _tower_sets_by_comprehension(space, a, u):
    """The three sandwich sets as boolean rows, one point at a time."""
    points = range(len(space.member))
    leq = space.order.leq
    seq = difference_tower(space.algebra, a, u)
    hat_a = space.hat(a)
    useen = [bool(space.member[space.k[x], u]) for x in points]
    lhs = [hat_a[x] and useen[x] for x in points]
    mid = [all(space.hat(v)[x] for v in seq) for x in points]
    rhs = [hat_a[x] and any(leq[x, xp] and useen[xp] for xp in points) for x in points]
    return [lhs, mid, rhs]


def test_tower_sandwich_all_pairs(small_family):
    # one batched call over every pair, row by row against the scalar sets
    for label, alg in small_family.items():
        space = sp.build_dual_space(alg)
        a, u = np.divmod(np.arange(alg.n * alg.n), alg.n)
        lhs, mid, rhs = sh.tower_sandwich(space, a, u)
        assert lhs.shape == mid.shape == rhs.shape == (len(a), len(space.member))
        assert (lhs <= mid).all() and (mid <= rhs).all(), label
        for p in range(len(a)):
            want = _tower_sets_by_comprehension(space, int(a[p]), int(u[p]))
            assert [v[p].tolist() for v in (lhs, mid, rhs)] == want, label


def test_towers_that_cycle_are_refused():
    # broken tables where 0 minus 1 is 2 and 2 minus 1 is 0 again: the
    # scalar tower and the batched sandwich both refuse the cycle
    alg = MvAlgebra(np.array([2, 1, 0]), np.array([[0, 2, 2], [2, 2, 2], [2, 0, 2]]),
                    validate=False)
    assert alg.ominus[0, 1] == 2 and alg.ominus[2, 1] == 0
    space = SimpleNamespace(
        algebra=alg, member=np.zeros((1, 3), dtype=bool), k=np.array([0]),
        order=SimpleNamespace(leq=np.ones((1, 1), dtype=bool)),
    )
    with pytest.raises(Error, match="failed to stabilize"):
        difference_tower(alg, 0, 1)
    with pytest.raises(Error, match="failed to stabilize"):
        sh.tower_sandwich(space, [1, 0], [0, 1])


def test_tower_sandwich_collapses_here(prod_space):
    # the u-seeing set is a union of order components, hence already
    # down-closed, so at finite scale the two bounds pinch the middle
    n = prod_space.algebra.n
    lhs, mid, rhs = sh.tower_sandwich(prod_space, *np.divmod(np.arange(n * n), n))
    assert (lhs == mid).all() and (mid == rhs).all()
