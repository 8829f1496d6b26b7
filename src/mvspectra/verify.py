"""Named verification suites over a single algebra.

Each check re-derives one structural law on the concrete input and raises
Error with a witness on failure; run_suite wraps the registered
checks into pass/fail/skip results.  The spaces, bundles and solvers only
compute, and the CLI and the test suite both drive this module, so every
law is checked by exactly one piece of code.

Suites: all, plus, k, kaplansky, sheaf-prime, sheaf-maximal, crt, keyed
in SUITES by alg.finite.  The symbolic chain runs its own axiom scan and
bounded or symbolic variants, and skips the section-enumeration suites,
which need a finite carrier.

Routes of a finite space: quantity | build route | oracle rows,
which recompute it | rows of the paper's laws that also constrain it.
  involution | negated complement filters | involution-laws | plus-domain-description
  + | g_x oplus g_y, undefined at one | plus-matches-ideal-sums | the other plus-* rows
  Y | idempotent generators | plus-idempotents-are-mv-points | k-fixes-*, root-system
  Z | mv.maximal_mv_ideals | lattice-only-reconstruction (its size) | zigzag-quotient-lawful
  k | largest idempotent g_x absorbs | k-matches-ideal-scan | other k-* rows, interpolation-witness
  m | the Z point above each Y point | germinal-ideals-carve-fibers (m.k) | mk-*, maximal-fibers-*
  W | w_relation; classes as m.k fibers | zigzag-classes-* | zigzag-quotient-lawful
  stalks | sheaf.build_etale | none here; the tests' quotients | prime-stalks-*, eta-*
  sections | sheaf.global_sections | patch-roundtrip | eta-*, patch-rejects-incompatible
  CRT solutions | sheaf.crt_solve | crt-random-*, crt-term-* | crt-rejects-*, tower-sandwich
k has no second oracle in the complement of F_x ominus_bar I_x, F_x the
complement of I_x: it is the right side of k-continuity-identity.  If c
is not in I_x but c ominus a is, f = c and i = c ominus a give
f ominus i = c ^ a <= a.  Conversely a >= f ominus i (a meet of such
differences lies above one) puts f ominus a <= f ^ i in I_x, f outside.
+ has one oracle row, plus-matches-ideal-sums, for the law that makes X a
partial commutative ordered semigroup: I_{x+y} = I_x oplus_bar I_y, with
x + y undefined exactly where that sum is improper.  Read at each basic
set a-hat, the same equality is the continuity identity of +, so that
identity has no row of its own.  The row reads the law in residuated form:
a <= b oplus c iff a ominus b <= c, an MV law that the axioms row
certifies, ominus being derived from neg and oplus.  I_y is a downset, so
a lies in I_x oplus_bar I_y iff a ominus b lies in I_y for some b in I_x.
a ominus (b1 v b2) = (a ominus b1) ^ (a ominus b2) and I_y is prime, so b
may range over J0, zero and the join-irreducibles of the reduct.  Both
sides are lattice ideals in a, so on defined pairs a may range over J0
too; on undefined pairs one more column, a = one, finds the sum improper.
Each a is one |X| x |J0| by |J0| x |X| boolean product over all pairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import chang
from .errors import CapExceeded, Error
from .idealarith import oplus_bar
from .lattice import (
    _bool_mm,
    _distinct_rows,
    _level_sets,
    duality_roundtrip,
    transitive_closure,
)
from .mv import (
    SUITE_NAMES,
    congruence_class,
    enumerate_mv_ideals,
    ideal_generated,
    maximal_mv_ideals,
    require_algebra,
)
from .sheaf import (
    BASE_MAXIMAL,
    BASE_PRIME,
    build_etale,
    check_property_p,
    crt_solve,
    crt_term,
    eta_check,
    germinal_ideal,
    tower_sandwich,
)
from .spectrum import (
    VERDICT_HOMEOMORPHIC,
    build_dual_space,
    interpolate,
    k_via_ideal_scan,
    kaplansky_check,
    lattice_only_component_count,
    w_quotient,
    w_relation,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # pass | fail | skip
    detail: str = ""

    def line(self):
        tail = f"  ({self.detail})" if self.detail else ""
        return f"[{self.status.upper():4}] {self.name}{tail}"


@dataclass
class _Ctx:
    """One run's settings, with the dual space that its rows share, built
    on first use."""

    alg: object
    chang_bound: int
    section_cap: int
    seed: int
    crt_count: int

    @cached_property
    def space(self):
        return build_dual_space(self.alg)


def _fail(message):
    raise Error(message)


def _fail_at(message, *args):
    """Fail at the first True entry of a mask, in the order of a scan over
    its axes in turn: _fail_at(message, bad, *axes).  The message is
    formatted with one name per axis, read off that axis's list, or the
    raw index when no lists are given; a name may be a row of values,
    whose fields the message reads as {0[1]}.  When one scan can fail in
    more than one way, _fail_at(cases, *axes) takes a list of (mask,
    message) pairs in priority order: the scan stops at the first entry
    where any mask holds, and the first mask holding there gives the
    message."""
    cases = message if isinstance(message, list) else [(args[0], message)]
    axes = args if isinstance(message, list) else args[1:]
    bad = np.logical_or.reduce([mask for mask, _ in cases])
    if bad.any():
        at = tuple(np.argwhere(bad)[0])
        text = next(text for mask, text in cases if mask[at])
        _fail(text.format(*(names[i] for names, i in zip(axes, at)) if axes else at))


# -- finite checks: the partial addition --------------------------------------


def _check_involution_laws(ctx):
    s = ctx.space
    inv, leq = s.involution, s.order.leq
    points = np.arange(len(s.member))
    if not (inv[inv] == points).all():
        _fail("involution is not an involution")
    if not (leq == leq[np.ix_(inv, inv)].T).all():
        _fail("involution does not reverse the order")
    # i(x) is addable to x, and every point addable to x lies below i(x)
    largest = (s.plus[points, inv] >= 0) & ~((s.plus >= 0) & ~leq[:, inv].T).any(axis=1)
    _fail_at([(~(leq[points, inv] | leq[inv, points]), "point {} incomparable with its involute"),
              (~largest, "involute of {} is not the largest addable point")])


def _check_plus_commutative(ctx):
    s = ctx.space
    _fail_at("+ not commutative at ({}, {})", s.plus != s.plus.T)


def _check_plus_associative(ctx):
    s = ctx.space
    plus = s.plus
    dom = plus >= 0
    safe = np.where(dom, plus, 0)
    # one x at a time over the whole (y, z) table; the first failure in
    # (y, z) order is the one a scan of x, y, z in turn would report
    for x in range(len(s.member)):
        xy = safe[x]
        left = plus[xy]  # (x + y) + z, read where x + y is defined
        right = plus[x, safe]  # x + (y + z), read where y + z is defined
        live = dom[x][:, None] & (left >= 0)
        _fail_at([(live & ~(dom & (right >= 0)), f"associativity domain gap at ({x}, {{}}, {{}})"),
                  (live & (left != right), f"associativity fails at ({x}, {{}}, {{}})")])


def _check_plus_translation(ctx):
    s = ctx.space
    plus, leq = s.plus, s.order.leq
    dom = plus >= 0
    safe = np.where(dom, plus, 0)
    # rows y2, columns y1 <= y2, one x at a time; the first failure in
    # (y2, y1) order is the one a scan of x, y2, y1 in turn would report
    for x in range(len(s.member)):
        below = dom[x][:, None] & leq.T
        _fail_at([(below & ~dom[x][None, :], f"translation domain gap at ({x}, {{1}} <= {{0}})"),
                  (below & ~leq[safe[x][None, :], safe[x][:, None]],
                   f"translation monotonicity fails at ({x}, {{1}}, {{0}})")])


def _check_plus_idempotents(ctx):
    s = ctx.space
    diag = s.plus.diagonal()
    points = np.arange(len(s.member))
    below = (diag >= 0) & s.order.leq[diag, points]
    equal = diag == points
    # I_x is an MV ideal when it holds zero, is a downset and is closed
    # under oplus.  Each row is a lattice ideal, since the build refuses a
    # row that is not the downset of its generator, and a oplus b <=
    # (a v b) oplus (a v b); so closure under a oplus a, one column gather,
    # gives closure under every a oplus b of members
    alg, member = s.algebra, s.member
    downset = ~(_bool_mm(member, alg.leq.T) & ~member).any(axis=1)
    closed = ~(member & ~member[:, alg.oplus.diagonal()]).any(axis=1)
    mv = member[:, alg.zero] & downset & closed
    if not ((below == equal) & (equal == mv) & (mv == s.in_y)).all():
        _fail("idempotent characterizations of the MV points disagree")


def _check_plus_domain(ctx):
    s = ctx.space
    n = len(s.member)
    leq = s.order.leq
    dom = s.plus >= 0
    by_inv = leq[np.arange(n)[None, :], s.involution[:, None]]
    if not (dom == by_inv).all():
        _fail("domain of + differs from the involution description")
    # (x2, y2) in the domain with some x1 <= x2, y1 <= y2 outside it
    _fail_at("domain of + is not downward closed under ({}, {})",
             dom & _bool_mm(_bool_mm(leq.T, ~dom), leq))


def _check_plus_matches_ideal_sums(ctx):
    s = ctx.space
    alg = s.algebra
    member, plus = s.member, s.plus
    npts = len(member)
    j0 = np.array(sorted({alg.zero, *s.lattice.join_irreducibles}), dtype=np.intp)

    def ideal_sum_holds(a):
        # whether a lies in I_x oplus_bar I_y, for all (x, y) at once.
        # a <= b oplus c iff a ominus b <= c (an MV law), and I_y is a
        # downset, so the test is whether a ominus b lies in I_y for some b
        # in I_x.  a ominus (b1 v b2) is (a ominus b1) ^ (a ominus b2) and
        # I_y is prime, so b ranges over zero and the join-irreducibles.  A b
        # above a leaves zero, in every I_y: those b ask only for I_x to hold
        # one, and the product runs over the rest
        up = alg.leq[a, j0]
        low = j0[~up]
        return (_bool_mm(member[:, low], member[:, alg.ominus[a, low]].T)
                | member[:, j0[up]].any(axis=1)[:, None])

    undefined = plus < 0
    safe = np.where(undefined, 0, plus)
    # I_{x+y} and I_x oplus_bar I_y are lattice ideals in a, so on defined
    # pairs they agree once they agree at zero and the join-irreducibles
    differs = np.zeros((npts, npts), dtype=bool)
    for a in j0.tolist():
        differs |= member[safe, a] != ideal_sum_holds(a)
    differs &= ~undefined
    # x + y is undefined exactly where the ideal sum is improper, holding one
    improper = undefined & ~ideal_sum_holds(alg.one)
    # named in the order of a scan over unordered pairs: (x, y) for each
    # index y >= x, each followed by (y, x)
    xs, ys = np.triu_indices(npts)
    at = np.stack([xs, ys, ys, xs], axis=1).reshape(-1, 2)
    p, q = at.T
    _fail_at([(improper[p, q], "({0[0]}, {0[1]}) undefined but the ideal sum is proper"),
              (differs[p, q], "table sum at ({0[0]}, {0[1]}) differs from the ideal sum")], at)


# -- finite checks: k, fibers, interpolation ----------------------------------


def _check_k_matches_ideal_scan(ctx):
    s = ctx.space
    scanned = k_via_ideal_scan(s)
    _fail_at("k({0[0]}) is {0[1]} but the ideal scan gives {0[2]}", s.k != scanned,
             np.stack([np.arange(len(s.k)), s.k, scanned], axis=1))


def _check_k_fixes_y(ctx):
    s = ctx.space
    _fail_at([((s.k == np.arange(len(s.member))) != s.in_y, "k fixed-point mismatch at {}"),
              (~s.in_y[s.k], "k({}) is not an MV point")])


def _check_k_fibers(ctx):
    s = ctx.space
    leq = s.order.leq
    ys = np.array(s.y_points, dtype=np.intp)
    fibers = leq[ys][:, s.k]  # row i: the fiber of k over y_i, as s.fiber gives it
    # second description: the points x with x + y defined and below x
    sums = s.plus[:, ys].T
    by_sums = (sums >= 0) & leq[sums, np.arange(len(s.member))]
    # a fiber is a chain when no two of its points are incomparable
    apart = _bool_mm(fibers, ~(leq | leq.T)) & fibers
    _fail_at([((fibers != by_sums).any(axis=1),
               "fiber over {} differs from its description by sums"),
              (apart.any(axis=1), "fiber over {} is not a chain")], ys)
    if not fibers.any(axis=0).all():
        _fail("fibers of k miss a point")


def _check_k_continuity(ctx):
    s = ctx.space
    alg, member = s.algebra, s.member
    # Both sides are lattice ideals in a: the left is I_k(x), and the right,
    # the a with c ominus a in I_x forcing c in I_x, is a downset as ominus is
    # antitone in a, and closed under joins as c ominus (a v b) is
    # (c ominus a) ^ (c ominus b) and I_x is prime.  Every a is the join of
    # the join-irreducibles below it, so the identity at zero and at the
    # join-irreducibles of the reduct gives it for all a.
    for a in sorted({alg.zero, *s.lattice.join_irreducibles}):
        rhs = ~(member[:, alg.ominus[:, a]] & ~member).any(axis=1)
        _fail_at(f"k continuity identity fails for element {a} at point {{}}",
                 member[s.k, a] != rhs)


def _check_interpolation(ctx):
    s = ctx.space
    interpolate(s, *np.nonzero(s.order.leq))


def _check_mk_on_comparables(ctx):
    s = ctx.space
    _fail_at("m.k differs along {} <= {}", s.order.leq & (s.mk[:, None] != s.mk[None, :]))


def _check_root_system(ctx):
    s = ctx.space
    ys = s.y_points
    up = s.order.leq[np.ix_(ys, ys)]  # row i: the MV points above y_i
    clash = (up[:, :, None] & up[:, None, :] & ~(up | up.T)).any(axis=(1, 2))
    _fail_at("MV points above {} are not a chain", clash, ys)


# -- finite checks: the quotient theorem --------------------------------------


def _require_mk_on_z(s):
    """Fail at the first point whose m.k is not a Z point, before a row
    reads the fibers of m.k (a negative index would wrap in in_z)."""
    mk = s.mk
    off = (mk < 0) | (mk >= len(s.in_z))
    _fail_at("m.k({}) is not a maximal point", off | ~s.in_z[np.where(off, 0, mk)])


def _check_w_lawful(ctx):
    s = ctx.space
    _require_mk_on_z(s)
    w = w_relation(s)
    if not w.diagonal().all() or not (w == w.T).all():
        _fail("zig-zag relation is not reflexive-symmetric")
    if not (transitive_closure(w) == w).all():
        _fail("one-step zig-zag relation is not transitive")
    if not ((s.mk[:, None] == s.mk[None, :]) == w).all():
        _fail("zig-zag relation differs from the kernel of m.k")
    leq = s.order.leq
    for inside in w_quotient(s).classes:
        # finite homeomorphism certificate: the class preimage of each basic
        # open of Z is simultaneously a downset and an upset of X
        if leq[np.ix_(inside, ~inside)].any() or leq[np.ix_(~inside, inside)].any():
            _fail("a zig-zag class is not order-isolated")
    z = list(s.z_points)
    if (leq[np.ix_(z, z)] != np.eye(len(z), dtype=bool)).any():
        _fail("maximal points are not an antichain")


def _check_w_components(ctx):
    s = ctx.space
    # the classes of the zig-zag relation itself, one per distinct row of W
    classes = _distinct_rows(w_relation(s))
    if not np.array_equal(classes, s.order.order_components):
        _fail("zig-zag classes differ from the order components")


def _check_lattice_only(ctx):
    s = ctx.space
    if lattice_only_component_count(s.lattice) != len(s.z_points):
        _fail("lattice-only maximal spectrum has the wrong size")


def _check_self_kaplansky(ctx):
    verdict = kaplansky_check(ctx.alg, ctx.alg)
    if verdict != VERDICT_HOMEOMORPHIC:
        _fail(f"self comparison returned {verdict!r}")


# -- finite checks: sheaves ----------------------------------------------------


def _check_stalks_prime(ctx):
    meet = ctx.space.algebra.meet
    for st in build_etale(ctx.space, BASE_PRIME).stalks:
        # a quotient lattice is a chain when every meet lands in the class
        # of one of its two arguments
        cls = st.projection
        met = cls[meet]
        if st.size < 2 or not ((met == cls[:, None]) | (met == cls[None, :])).all():
            _fail(f"stalk over point {st.point} is not a nontrivial chain")


def _check_eta_prime(ctx):
    rep = eta_check(build_etale(ctx.space, BASE_PRIME), cap=ctx.section_cap)
    if not rep["isomorphism"]:
        _fail(f"prime-base sections differ from the algebra: {rep['witness']}")


def _check_patch_roundtrip(ctx):
    s = ctx.space
    alg = s.algebra
    ys = s.y_points
    hoods = s.order.leq[np.ix_(ys, ys)]  # row i: the MV points above y_i
    cover = np.zeros((len(ys), len(s.member)), dtype=bool)
    cover[:, ys] = hoods
    ideals = s.member[s.in_y]
    for b in range(alg.n):
        classes = np.array([congruence_class(alg, b, ideal) for ideal in ideals])
        # the first element congruent to b modulo every ideal over the hood
        firsts = [int(np.argmax(classes[hood].all(axis=0))) for hood in hoods]
        res = check_property_p(s, BASE_PRIME, cover, s.hat(firsts).T)
        if not res.ok or res.element != b:
            _fail(f"section round-trip failed for element {b}")


def _check_patch_negative(ctx):
    s = ctx.space
    alg = s.algebra
    res = check_property_p(
        s, BASE_PRIME, np.array([s.in_y, s.in_y]), s.hat([alg.zero, alg.one]).T
    )
    if res.ok or res.violation is None:
        _fail("incompatible patches were accepted")


def _check_germinal(ctx):
    s = ctx.space
    for z in s.z_points:
        germ = germinal_ideal(s, z)
        if (germ != s.member[z]).any():
            _fail(
                "finite algebras have no non-maximal MV points, so the "
                f"germinal ideal at {z} must be its own ideal"
            )
        carved = s.member[s.k][:, germ].all(axis=1)  # germ inside I_k(x)
        if (carved != (s.mk == z)).any():
            _fail(f"germinal subspace at {z} differs from its m.k fiber")


def _check_eta_maximal(ctx):
    rep = eta_check(build_etale(ctx.space, BASE_MAXIMAL), cap=ctx.section_cap)
    if not rep["isomorphism"]:
        _fail(f"maximal-base sections differ from the algebra: {rep['witness']}")


def _check_maximal_fibers(ctx):
    s = ctx.space
    _require_mk_on_z(s)
    fibers = _level_sets(s.mk)
    if not np.array_equal(fibers, s.order.order_components):
        _fail("m.k fibers differ from the order components")


# -- finite checks: remainder solving ------------------------------------------


def _planted_instances(alg, rng, ideals, count):
    """count random elements, and for each a random member of its class
    modulo every ideal: the plantings and a trials x ideals target table.
    Each class is drawn from in ascending order, so a seed always picks
    the same instances."""
    planted = np.array([rng.randrange(alg.n) for _ in range(count)], dtype=np.intp)
    targets = np.empty((count, len(ideals)), dtype=np.intp)
    for i, ideal in enumerate(ideals):
        cls = congruence_class(alg, planted, ideal)
        draw = np.array([rng.randrange(size) for size in cls.sum(axis=1).tolist()])
        targets[:, i] = (cls.cumsum(axis=1) > draw[:, None]).argmax(axis=1)
    return planted, targets


def _check_crt_random(ctx):
    alg = ctx.alg
    maximal = maximal_mv_ideals(alg)
    if maximal.all(axis=0).nonzero()[0].tolist() != [alg.zero]:
        _fail("maximal ideals do not intersect to zero")
    rng = random.Random(ctx.seed)
    planted, targets = _planted_instances(alg, rng, maximal, ctx.crt_count)
    got = crt_solve(alg, maximal, targets)
    _fail_at("trial {0[0]}: solved {0[1]}, planted {0[2]}", got != planted,
             np.stack([np.arange(len(got)), got, planted], axis=1))


def _check_crt_negative(ctx):
    # distinct maximal ideals have improper joins, so they cannot clash;
    # adjoining the zero ideal pins the solution and forces a real conflict
    alg = ctx.alg
    maximal = maximal_mv_ideals(alg)
    ideals = np.vstack([maximal, np.arange(alg.n) == alg.zero])
    targets = [alg.zero] * len(maximal) + [alg.one]
    try:
        crt_solve(alg, ideals, targets)
    except Error:
        return None
    _fail("incompatible targets were accepted")


def _check_crt_term(ctx):
    alg = ctx.alg
    s = ctx.space
    units = [int(s.generators[z]) for z in s.z_points]
    ideals = s.member[s.in_z]
    rng = random.Random(ctx.seed + 1)
    _, targets = _planted_instances(alg, rng, ideals, min(ctx.crt_count, 50))
    scanned = crt_solve(alg, ideals, targets).tolist()
    for trial, row in enumerate(targets.tolist()):
        t, b = crt_term(alg, units, row, space=s)
        if b != scanned[trial]:
            _fail(f"trial {trial}: term route disagrees with the scan route")
        folded = alg.zero
        for i, u in enumerate(units):
            v = row[i]
            for _ in range(t):
                v = int(alg.ominus[v, u])
            folded = int(alg.join[folded, v])
        if folded != b:
            _fail(f"trial {trial}: returned join does not match its formula")


def _check_tower_sandwich(ctx):
    n = ctx.alg.n
    if n <= 24:
        a, u = np.divmod(np.arange(n * n), n)
    else:
        rng = random.Random(ctx.seed + 2)
        a, u = np.array([[rng.randrange(n), rng.randrange(n)] for _ in range(400)]).T
    tower_sandwich(ctx.space, a, u)


def _check_ideal_join_coincidence(ctx):
    alg = ctx.alg
    ideals = enumerate_mv_ideals(alg)
    # both sides are symmetric in (i, j) because oplus is commutative, which
    # the axioms row certifies, so each unordered pair is checked once
    for l, i in enumerate(ideals):
        for j in ideals[l:]:
            if (ideal_generated(alg, i | j) != oplus_bar(alg, i, j)).any():
                _fail("generated join and ideal sum differ on MV ideals")


# -- foundation checks (suite "all" extras) ------------------------------------


def _check_axioms(ctx):
    bad = ctx.alg.first_violation(ctx.chang_bound)
    if bad is not None:
        _fail(str(bad))


def _check_duality(ctx):
    duality_roundtrip(ctx.alg.lattice_reduct())


# -- symbolic variants ----------------------------------------------------------


def _in_y(space, f, n):
    """Whether each window point (f, n) is one of the space's MV points."""
    return np.any([(f == y.family) & (n == y.param) for y in space.y_points], axis=0)


def _chang_plus(ctx):
    space = ctx.space
    bound = min(ctx.chang_bound, 8)
    f, n = space.window(bound)
    names = [p.label() for p in space.points_bounded(bound)]
    back = chang.involute_pairs(*chang.involute_pairs(f, n))
    _fail_at("involution not involutive at {}", (back[0] != f) | (back[1] != n), names)
    col, row = (f[:, None], n[:, None]), (f[None, :], n[None, :])
    dom = chang.leq_pairs(*row, *chang.involute_pairs(*col))  # p + q defined
    fam, par = chang.ideal_oplus_bar_pairs(*col, *row)
    _fail_at("domain asymmetry at ({}, {})", dom != dom.T, names, names)
    proper = (dom != (fam != chang.FULL)).any(axis=1)
    _fail_at("domain differs from ideal-sum properness at {}", proper, names)
    twisted = dom & ((fam != fam.T) | (par != par.T))
    _fail_at("+ not commutative at ({}, {})", twisted, names, names)
    # q <= p with some r addable to p but not to q
    below = chang.leq_pairs(*row, *col)
    if (below[:, :, None] & dom.T[:, None, :] & ~dom.T[None, :, :]).any():
        _fail("translation domain gap in the window")
    idem = dom.diagonal() & (fam.diagonal() == f) & (par.diagonal() == n)
    _fail_at("idempotent window mismatch at {}", idem != _in_y(space, f, n), names)


def _chang_k(ctx):
    space = ctx.space
    alg = space.algebra
    bound = min(ctx.chang_bound, 8)
    f, n = space.window(bound)
    names = [p.label() for p in space.points_bounded(bound)]
    kf, kn = chang.k_pairs(f, n)
    back = chang.k_pairs(kf, kn)
    bad = ~_in_y(space, kf, kn) | (back[0] != kf) | (back[1] != kn)
    _fail_at("k window retraction fails at {}", bad, names)
    t, k = alg.window(bound)
    wt, wk = alg.window(3 * bound + 4)
    # a lies in I_k(p) exactly when c ominus a in p forces c in p, every c
    dt, dk = chang.neg_pairs(*chang.oplus_pairs(*chang.neg_pairs(wt[:, None], wk[:, None]), t, k))
    inside = chang.contains_pairs(f[:, None, None], n[:, None, None], dt, dk)
    holds = chang.contains_pairs(f[:, None], n[:, None], wt, wk)  # [p, c]
    member = ~(inside & ~holds[:, :, None]).any(axis=1)
    bad = member != chang.contains_pairs(kf[:, None], kn[:, None], t, k)
    elems = [repr(a) for a in alg.elements(bound)]
    _fail_at("k formula window mismatch at ({}, {})", bad, names, elems)


def _chang_kaplansky(ctx):
    space = ctx.space
    if len(space.y_points) != 2 or len(space.z_points) != 1:
        _fail("symbolic spectrum is not the expected doubleton over a point")
    if space.z_points[0] != chang.ChangIdeal(chang.RADICAL):
        _fail("the maximal point is not the radical")
    if space.germinal_ideal(space.z_points[0]) != chang.ChangIdeal(chang.TRUNC, 0):
        _fail("germinal ideal at the radical is not zero")


def _skip_symbolic(_ctx):
    return "skip", "symbolic carrier: section enumeration needs a finite base"


# each suite's rows, keyed by alg.finite; "all" adds its head rows
SUITES = {
    True: {
        "all": [("axioms", _check_axioms), ("duality-roundtrip", _check_duality)],
        "plus": [
            ("involution-laws", _check_involution_laws),
            ("plus-commutative", _check_plus_commutative),
            ("plus-associative", _check_plus_associative),
            ("plus-translation", _check_plus_translation),
            ("plus-idempotents-are-mv-points", _check_plus_idempotents),
            ("plus-domain-description", _check_plus_domain),
            ("plus-matches-ideal-sums", _check_plus_matches_ideal_sums),
        ],
        "k": [
            ("k-matches-ideal-scan", _check_k_matches_ideal_scan),
            ("k-fixes-exactly-mv-points", _check_k_fixes_y),
            ("k-fibers-cover-and-chain", _check_k_fibers),
            ("k-continuity-identity", _check_k_continuity),
            ("interpolation-witness", _check_interpolation),
            ("mk-constant-on-comparables", _check_mk_on_comparables),
            ("root-system", _check_root_system),
        ],
        "kaplansky": [
            ("zigzag-quotient-lawful", _check_w_lawful),
            ("zigzag-classes-are-components", _check_w_components),
            ("lattice-only-reconstruction", _check_lattice_only),
            ("self-comparison-homeomorphic", _check_self_kaplansky),
        ],
        "sheaf-prime": [
            ("prime-stalks-nontrivial-chains", _check_stalks_prime),
            ("eta-prime-isomorphism", _check_eta_prime),
            ("patch-roundtrip", _check_patch_roundtrip),
            ("patch-rejects-incompatible", _check_patch_negative),
        ],
        "sheaf-maximal": [
            ("germinal-ideals-carve-fibers", _check_germinal),
            ("eta-maximal-isomorphism", _check_eta_maximal),
            ("maximal-fibers-are-components", _check_maximal_fibers),
        ],
        "crt": [
            ("crt-random-instances", _check_crt_random),
            ("crt-rejects-incompatible", _check_crt_negative),
            ("crt-term-agreement", _check_crt_term),
            ("tower-sandwich", _check_tower_sandwich),
            ("ideal-join-coincidence", _check_ideal_join_coincidence),
        ],
    },
    False: {
        "all": [("axioms-bounded", _check_axioms)],
        "plus": [("plus-symbolic-window", _chang_plus)],
        "k": [("k-closed-forms-window", _chang_k)],
        "kaplansky": [("spectrum-doubleton", _chang_kaplansky)],
        "sheaf-prime": [("sheaf-prime-symbolic", _skip_symbolic)],
        "sheaf-maximal": [("sheaf-maximal-symbolic", _skip_symbolic)],
        "crt": [("crt-symbolic", _skip_symbolic)],
    },
}


def _suite_checks(alg, suite):
    if suite not in SUITE_NAMES:
        raise Error(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    table = SUITES[require_algebra(alg).finite]
    return [row for name in SUITE_NAMES if suite in ("all", name) for row in table[name]]


def run_suite(
    alg,
    suite="all",
    chang_bound=32,
    section_cap=10**6,
    seed=0,
    crt_count=200,
):
    """Run one named suite; returns CheckResult rows in registry order."""
    ctx = _Ctx(alg, chang_bound, section_cap, seed, crt_count)
    results = []
    for name, fn in _suite_checks(alg, suite):
        try:
            out = fn(ctx) or ("pass",)  # a row returns None or (status, detail)
        except CapExceeded as exc:
            out = ("skip", str(exc))
        except Error as exc:
            out = ("fail", str(exc))
        except Exception as exc:  # garbage inputs can crash checks mid-scan
            out = ("fail", f"{type(exc).__name__}: {exc}")
        results.append(CheckResult(name, *out))
    return results
