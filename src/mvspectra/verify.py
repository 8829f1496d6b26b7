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
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import chang
from .errors import CapExceeded, Error
from .idealarith import oplus_bar, sum_table
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
    k_via_filter_difference,
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


class _Ctx:
    """Lazy per-run cache so suites share one dual space build."""

    def __init__(self, alg, chang_bound, section_cap, seed, crt_count):
        self.alg = alg
        self.chang_bound = chang_bound
        self.section_cap = section_cap
        self.seed = seed
        self.crt_count = crt_count
        self._space = None

    @property
    def space(self):
        if self._space is None:
            self._space = build_dual_space(self.alg)
        return self._space


def _fail(message):
    raise Error(message)


# -- finite checks: the partial addition --------------------------------------


def _check_involution_laws(ctx):
    s = ctx.space
    inv, leq = s.involution, s.order.leq
    n = len(s.member)
    if not (inv[inv] == np.arange(n)).all():
        _fail("involution is not an involution")
    if not (leq == leq[np.ix_(inv, inv)].T).all():
        _fail("involution does not reverse the order")
    for x in range(n):
        if not (leq[x, inv[x]] or leq[inv[x], x]):
            _fail(f"point {x} incomparable with its involute")
        addable = np.flatnonzero(s.plus[x] >= 0)
        if not leq[addable, inv[x]].all() or s.plus[x, inv[x]] < 0:
            _fail(f"involute of {x} is not the largest addable point")


def _check_plus_commutative(ctx):
    s = ctx.space
    if not (s.plus == s.plus.T).all():
        x, y = np.argwhere(s.plus != s.plus.T)[0]
        _fail(f"+ not commutative at ({x}, {y})")


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
        gap = live & ~(dom & (right >= 0))
        bad = gap | (live & (left != right))
        if bad.any():
            y, z = np.argwhere(bad)[0]
            if gap[y, z]:
                _fail(f"associativity domain gap at ({x}, {y}, {z})")
            _fail(f"associativity fails at ({x}, {y}, {z})")


def _check_plus_translation(ctx):
    s = ctx.space
    plus, leq = s.plus, s.order.leq
    dom = plus >= 0
    safe = np.where(dom, plus, 0)
    # rows y2, columns y1 <= y2, one x at a time; the first failure in
    # (y2, y1) order is the one a scan of x, y2, y1 in turn would report
    for x in range(len(s.member)):
        below = dom[x][:, None] & leq.T
        gap = below & ~dom[x][None, :]
        bad = gap | (below & ~leq[safe[x][None, :], safe[x][:, None]])
        if bad.any():
            y2, y1 = np.argwhere(bad)[0]
            if gap[y2, y1]:
                _fail(f"translation domain gap at ({x}, {y1} <= {y2})")
            _fail(f"translation monotonicity fails at ({x}, {y1}, {y2})")


def _check_plus_idempotents(ctx):
    s = ctx.space
    diag = s.plus.diagonal()
    points = np.arange(len(s.member))
    below = (diag >= 0) & s.order.leq[diag, points]
    equal = diag == points
    # I_x is an MV ideal when it holds zero, is a downset and is closed
    # under oplus: the sums a oplus b of members, the hit row of I_x oplus
    # I_x, lie inside I_x (one |I_x|^2 gather, less than the |I_x| * n of
    # tabulating all sums with I_x)
    alg, member = s.algebra, s.member
    downset = ~(_bool_mm(member, alg.leq.T) & ~member).any(axis=1)
    oplus = alg.oplus.astype(np.intp)  # a gather by int16 indices is slower
    closed = np.array([row[oplus[np.ix_(row, row)]].all() for row in member])
    mv = member[:, alg.zero] & downset & closed
    if not ((below == equal) & (equal == mv) & (mv == s.in_y)).all():
        _fail("idempotent characterizations of the MV points disagree")


def _check_plus_continuity(ctx):
    s = ctx.space
    alg = s.algebra
    member = s.member
    dom = s.plus >= 0
    safe = np.where(dom, s.plus, 0)
    oplus = alg.oplus.astype(np.intp)  # a gather by int16 indices is slower
    # Both sides are lattice ideals in a: the left because I_{x+y} is one,
    # the right because ideals are closed under joins and oplus is monotone.
    # Every a is the join of the join-irreducibles below it, so the identity
    # at zero and at the join-irreducibles of the reduct gives it for all a.
    for a in sorted({alg.zero, *s.lattice.join_irreducibles}):
        lhs = dom & member[safe, a]
        # some b in I_x and c in I_y with a <= b oplus c
        cond = alg.leq[a][oplus]
        rhs = dom & _bool_mm(member, _bool_mm(cond, member.T))
        if not (lhs == rhs).all():
            x, y = np.argwhere(lhs != rhs)[0]
            _fail(f"+ continuity identity fails for element {a} at ({x}, {y})")


def _check_plus_domain(ctx):
    s = ctx.space
    n = len(s.member)
    leq = s.order.leq
    dom = s.plus >= 0
    by_inv = leq[np.arange(n)[None, :], s.involution[:, None]]
    if not (dom == by_inv).all():
        _fail("domain of + differs from the involution description")
    # (x2, y2) in the domain with some x1 <= x2, y1 <= y2 outside it
    bad = dom & _bool_mm(_bool_mm(leq.T, ~dom), leq)
    if bad.any():
        x2, y2 = np.argwhere(bad)[0]
        _fail(f"domain of + is not downward closed under ({x2}, {y2})")


def _generated_ideals(alg, hits):
    """The lattice ideal each boolean row generates, as a membership row:
    the downset of the join of the row's members.  The join is a fold of
    the join table over the columns, halving them at each step, across all
    rows at once (zero stands in for a non-member)."""
    top = np.where(hits, np.arange(alg.n), alg.zero)
    while top.shape[1] > 1:
        if top.shape[1] % 2:
            top = np.column_stack([top, np.full(len(top), alg.zero)])
        top = alg.join[top[:, 0::2], top[:, 1::2]]
    return alg.leq[:, top[:, 0]].T


def _check_plus_matches_ideal_sums(ctx):
    s = ctx.space
    alg = s.algebra
    member, plus = s.member, s.plus
    npts = len(member)
    # pairwise sums commute, so I_x oplus_bar I_y serves both table entries:
    # for each x, the hit rows of I_x oplus I_y for all y >= x are one
    # product with the sum table of I_x
    for x in range(npts):
        ys = np.arange(x, npts)
        direct = _generated_ideals(alg, _bool_mm(member[ys], sum_table(alg, member[x])))
        entries = np.stack([plus[x, ys], plus[ys, x]], axis=1)  # (x, y), (y, x)
        undefined = entries < 0
        improper = undefined & ~direct[:, None, alg.one]
        differs = ~undefined & (member[entries] != direct[:, None]).any(axis=2)
        if (improper | differs).any():
            i, d = np.argwhere(improper | differs)[0]
            a, b = (x, ys[i]) if d == 0 else (ys[i], x)
            if improper[i, d]:
                _fail(f"({a}, {b}) undefined but the ideal sum is proper")
            _fail(f"table sum at ({a}, {b}) differs from the ideal sum")


# -- finite checks: k, fibers, interpolation ----------------------------------


def _check_k_routes(ctx):
    s = ctx.space
    for x in range(len(s.member)):
        a = int(s.k[x])
        b = k_via_ideal_scan(s, x)
        c = k_via_filter_difference(s, x)
        if not a == b == c:
            _fail(f"k routes disagree at point {x}: {a}, {b}, {c}")


def _check_k_fixes_y(ctx):
    s = ctx.space
    mismatch = (s.k == np.arange(len(s.member))) != s.in_y
    bad = mismatch | ~s.in_y[s.k]
    if bad.any():
        x = int(np.argmax(bad))
        _fail(f"k fixed-point mismatch at {x}" if mismatch[x] else f"k({x}) is not an MV point")


def _check_k_fibers(ctx):
    s = ctx.space
    leq = s.order.leq
    comparable = leq | leq.T
    seen = np.zeros(len(s.member), dtype=bool)
    for y in s.y_points:
        fib = s.fiber(y)
        # second description: the points x with x + y defined and below x
        col = s.plus[:, y]
        if (fib != ((col >= 0) & leq[col, np.arange(len(col))])).any():
            _fail(f"fiber over {y} differs from its description by sums")
        if not comparable[np.ix_(fib, fib)].all():
            _fail(f"fiber over {y} is not a chain")
        seen |= fib
    if not seen.all():
        _fail("fibers of k miss a point")


def _check_k_continuity(ctx):
    s = ctx.space
    alg = s.algebra
    member = s.member
    for a in range(alg.n):
        lhs = member[s.k, a]
        bad = member[:, alg.ominus[:, a]] & ~member
        rhs = ~bad.any(axis=1)
        if not (lhs == rhs).all():
            x = int(np.flatnonzero(lhs != rhs)[0])
            _fail(f"k continuity identity fails for element {a} at point {x}")


def _check_interpolation(ctx):
    s = ctx.space
    leq = s.order.leq
    for x, xp in np.argwhere(leq).tolist():
        interpolate(s, x, xp)


def _check_mk_on_comparables(ctx):
    s = ctx.space
    leq = s.order.leq
    mk = s.mk
    for x, xp in np.argwhere(leq).tolist():
        if mk[x] != mk[xp]:
            _fail(f"m.k differs along {x} <= {xp}")


def _check_root_system(ctx):
    s = ctx.space
    ys = s.y_points
    up = s.order.leq[np.ix_(ys, ys)]  # row i: the MV points above y_i
    clash = (up[:, :, None] & up[:, None, :] & ~(up | up.T)).any(axis=(1, 2))
    if clash.any():
        _fail(f"MV points above {ys[int(np.argmax(clash))]} are not a chain")


# -- finite checks: the quotient theorem --------------------------------------


def _check_w_lawful(ctx):
    s = ctx.space
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
    if not np.array_equal(classes, s.order.order_components()):
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
    return None


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
    fibers = _level_sets(s.mk)
    if not np.array_equal(fibers, s.order.order_components()):
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
    wrong = np.flatnonzero(got != planted)
    if wrong.size:
        trial = int(wrong[0])
        _fail(f"trial {trial}: solved {got[trial]}, planted {planted[trial]}")
    return None


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
    return None


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


def _fail_at(message, bad, *axes):
    """Fail at the first True entry of bad, named through one list per axis."""
    if bad.any():
        _fail(message.format(*(names[i] for names, i in zip(axes, np.argwhere(bad)[0]))))


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
            ("plus-continuity-identity", _check_plus_continuity),
            ("plus-domain-description", _check_plus_domain),
            ("plus-matches-ideal-sums", _check_plus_matches_ideal_sums),
        ],
        "k": [
            ("k-three-routes-agree", _check_k_routes),
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
