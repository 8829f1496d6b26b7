"""Dual spaces of finite MV-algebras.

The space X of prime lattice ideals carries an order-reversing involution i,
a partial addition +, the subsets Y (prime MV points) and Z (maximal MV
points), the retraction k: X -> Y, the retraction m: Y -> Z, and the zig-zag
relation W whose quotient is carried by Z.  Topological language is read
through the finite-scale convention documented in lattice.py: opens of the
downset topology are downsets, and continuity claims become set identities
over the basic family {a-hat}.

Z comes from the maximal idempotents below one (mv.maximal_mv_ideals), so
the build runs no closure fixpoint.  mv.is_maximal_mv_ideal and
mv.ideal_generated are the slow oracles, called only by the tests and by
verify's ideal-join-coincidence check.

Construction checks the structural laws eagerly and raises AlgebraError if
any fails; on a valid algebra none can, so a failure always points at a
malformed input table (validate=False constructions).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chang import ChangAlgebra, ChangSpace
from .errors import AlgebraError, SearchBudgetExceeded
from .idealarith import ominus_bar, oplus_bar
from .lattice import (
    SCHEMA,
    _bool_mm,
    dual_order,
    enumerate_prime_ideals,
    lattice_isomorphic,
    transitive_closure,
)
from .mv import enumerate_mv_ideals, is_mv_ideal, maximal_mv_ideals


class MvDualSpace:
    """The dual space of a finite MV-algebra, fully tabulated.

    points are prime lattice ideals of the reduct in canonical order; order
    is ideal inclusion.  involution is a permutation array; plus is an
    integer table with -1 for undefined; k is a total array into y_points;
    m maps y-point indices to z-point indices.  member[p, a] says whether
    element a lies in the ideal of point p, so the basic set a-hat is the
    complement of column a.
    """

    def __init__(self, alg):
        if isinstance(alg, ChangAlgebra):
            raise AlgebraError("use ChangSpace for the symbolic carrier")
        self.algebra = alg
        self.lattice = alg.lattice_reduct()
        self.points = tuple(enumerate_prime_ideals(self.lattice))
        self.order = dual_order(self.points)
        npts = len(self.points)
        n = alg.n
        member = np.zeros((npts, n), dtype=bool)
        for idx, pt in enumerate(self.points):
            member[idx, sorted(pt.ideal)] = True
        self.member = member
        self._index = {pt.ideal: i for i, pt in enumerate(self.points)}

        # every lattice ideal of a finite lattice is principal; record the
        # generator of each point, which makes + a table lookup
        leq = self.lattice.leq
        gens = np.empty(npts, dtype=np.int64)
        for idx in range(npts):
            inside = np.flatnonzero(member[idx])
            tops = inside[leq[np.ix_(inside, inside)].all(axis=0)]
            if tops.shape[0] != 1:
                raise AlgebraError("prime ideal is not principal")
            gens[idx] = tops[0]
        self.generators = gens
        elem_point = np.full(n, -1, dtype=np.int64)
        elem_point[gens] = np.arange(npts)

        self.involution = self._build_involution()
        self.plus = self._build_plus(elem_point)
        self.y_points = tuple(
            i for i, pt in enumerate(self.points) if is_mv_ideal(alg, pt.ideal)
        )
        self.y_set = frozenset(self.y_points)
        self._check_y_is_idempotents()
        maximal = frozenset(maximal_mv_ideals(alg))
        self.z_points = tuple(
            i for i in self.y_points if self.points[i].ideal in maximal
        )
        self.z_set = frozenset(self.z_points)
        self.k = self._build_k()
        self.m = self._build_m()

    # -- builders, each ending in its structural checks ---------------------

    def _build_involution(self):
        alg, npts = self.algebra, len(self.points)
        inv = np.empty(npts, dtype=np.int64)
        for idx in range(npts):
            # b lies in the ideal of i(x) exactly when neg(b) escapes I_x
            ideal = frozenset(np.flatnonzero(~self.member[idx, alg.neg]).tolist())
            j = self._index.get(ideal)
            if j is None:
                raise AlgebraError("negated complement filter is not a point")
            inv[idx] = j
        if not (inv[inv] == np.arange(npts)).all():
            raise AlgebraError("involution squared is not the identity")
        leq = self.order.leq
        if not (leq == leq[np.ix_(inv, inv)].T).all():
            raise AlgebraError("involution is not order-reversing")
        if not (leq[np.arange(npts), inv] | leq[inv, np.arange(npts)]).all():
            raise AlgebraError("a point is incomparable with its involute")
        return inv

    def _build_plus(self, elem_point):
        alg = self.algebra
        npts = len(self.points)
        gen_sum = alg.oplus[self.generators[:, None], self.generators[None, :]]
        defined = gen_sum != alg.one
        # the two domain descriptions must agree: the sum ideal is proper
        # exactly when i(x) lies above y
        dom_by_inv = self.order.leq[np.arange(npts)[None, :], self.involution[:, None]]
        if not (defined == dom_by_inv).all():
            raise AlgebraError("domain of + differs from the involution bound")
        plus = np.where(defined, elem_point[gen_sum], -1)
        if (plus[defined] < 0).any():
            raise AlgebraError("a defined sum of points is not prime")
        if not (plus == plus.T).all():
            raise AlgebraError("+ is not commutative")
        return plus

    def _check_y_is_idempotents(self):
        npts = len(self.points)
        diag = self.plus.diagonal()
        idem = frozenset(
            int(x)
            for x in range(npts)
            if diag[x] >= 0 and self.order.leq[diag[x], x]
        )
        fixed = frozenset(int(x) for x in range(npts) if diag[x] == x)
        if not (idem == fixed == self.y_set):
            raise AlgebraError("self-addable idempotents differ from MV points")

    def _build_k(self):
        alg, npts = self.algebra, len(self.points)
        k = np.empty(npts, dtype=np.int64)
        for idx in range(npts):
            mem = self.member[idx]
            # a survives when no c escapes the ideal while c - a falls in it
            bad = mem[alg.ominus] & ~mem[:, None]
            ideal = frozenset(np.flatnonzero(~bad.any(axis=0)).tolist())
            j = self._index.get(ideal)
            if j is None or j not in self.y_set:
                raise AlgebraError("k formula left the MV points")
            k[idx] = j
        fixed = k == np.arange(npts)
        for x in range(npts):
            if fixed[x] != (x in self.y_set):
                raise AlgebraError("k does not fix exactly the MV points")
        return k

    def _build_m(self):
        leq = self.order.leq
        m = {}
        for y in self.y_points:
            above = [z for z in self.z_points if leq[y, z]]
            if len(above) != 1:
                raise AlgebraError(
                    f"point {y} lies under {len(above)} maximal MV points"
                )
            m[y] = above[0]
        for z in self.z_points:
            if m[z] != z:
                raise AlgebraError("m does not fix the maximal points")
        return m

    # -- derived views -------------------------------------------------------

    @cached_property
    def plus_domain(self):
        return frozenset(
            (int(x), int(y)) for x, y in np.argwhere(self.plus >= 0)
        )

    @cached_property
    def mk(self):
        return np.array([self.m[int(self.k[x])] for x in range(len(self.points))])

    def hat(self, a):
        """Indices of the points whose ideal omits a: the basic set of a."""
        return frozenset(np.flatnonzero(~self.member[:, a]).tolist())

    @cached_property
    def hat_to_element(self):
        # the Stone map is a bijection onto downsets here, so this inverts it
        return {self.hat(a): a for a in range(self.algebra.n)}

    def point_label(self, x):
        return str(self.algebra.labels[int(self.generators[x])])


def build_dual_space(alg):
    """The dual space; the symbolic chain carrier gets its taxonomy space."""
    if isinstance(alg, ChangAlgebra):
        return ChangSpace()
    return MvDualSpace(alg)


# -- point operations -----------------------------------------------------


def involution(space, x):
    if isinstance(space, ChangSpace):
        return space.involution(x)
    return int(space.involution[x])


def partial_plus(space, x, y):
    """x + y, or None when undefined; never an exception on the domain gap."""
    if isinstance(space, ChangSpace):
        return space.plus(x, y) if space.plus_defined(x, y) else None
    v = int(space.plus[x, y])
    return v if v >= 0 else None


def k_map(space, x):
    if isinstance(space, ChangSpace):
        return space.k_map(x)
    return int(space.k[x])


def m_map(space, y):
    if isinstance(space, ChangSpace):
        return space.m_map(y)
    if y not in space.y_set:
        raise AlgebraError("m is only defined on MV points")
    return int(space.m[y])


def fiber(space, y, chang_bound=32):
    """k^{-1}(up y): all points retracting onto at least y; always a chain."""
    if isinstance(space, ChangSpace):
        return space.fiber(y, chang_bound)
    if y not in space.y_set:
        raise AlgebraError("fibers are indexed by MV points")
    leq = space.order.leq
    fib = [x for x in range(len(space.points)) if leq[y, space.k[x]]]
    by_sum = [
        x
        for x in range(len(space.points))
        if space.plus[x, y] >= 0 and leq[space.plus[x, y], x]
    ]
    if fib != by_sum:
        raise AlgebraError("fiber characterizations disagree")
    for a in fib:
        for b in fib:
            if not (leq[a, b] or leq[b, a]):
                raise AlgebraError("a fiber of k is not totally ordered")
    return fib


def interpolate(space, x, xp):
    """For x <= x', the point x + k(x'), squeezed between them with a larger
    k value than both ends; all four conditions are asserted."""
    leq = space.order.leq
    if not leq[x, xp]:
        raise AlgebraError("interpolation needs comparable points x <= x'")
    w = int(space.plus[x, space.k[xp]])
    if w < 0:
        raise AlgebraError("interpolation witness sum is undefined")
    k = space.k
    if not (leq[x, w] and leq[w, xp] and leq[k[x], k[w]] and leq[k[xp], k[w]]):
        raise AlgebraError("interpolation witness violates its bounds")
    return w


# -- k cross-check routes ---------------------------------------------------


def k_via_ideal_scan(space, x):
    """Oracle route: the largest MV-ideal J with I_x +bar J inside I_x."""
    alg = space.algebra
    ix = space.points[x].ideal
    good = [
        j for j in enumerate_mv_ideals(alg) if oplus_bar(alg, ix, j) <= ix
    ]
    best = max(good, key=len)
    if any(not j <= best for j in good):
        raise AlgebraError("addable ideals have no largest member")
    out = space._index.get(best)
    if out is None or out not in space.y_set:
        raise AlgebraError("largest addable ideal is not an MV point")
    return out


def k_via_filter_difference(space, x):
    """Second route: the complement of F_x -bar I_x is the same point."""
    alg = space.algebra
    pt = space.points[x]
    upper = ominus_bar(alg, pt.filter, pt.ideal)
    ideal = frozenset(range(alg.n)) - upper
    out = space._index.get(ideal)
    if out is None:
        raise AlgebraError("filter-difference complement is not a point")
    return out


# -- the zig-zag quotient ----------------------------------------------------


@dataclass(frozen=True)
class WQuotient:
    """Partition of X by the zig-zag relation with its bijection onto Z."""

    classes: tuple
    z_of_class: tuple

    def class_of(self, x):
        for idx, block in enumerate(self.classes):
            if x in block:
                return idx
        raise AlgebraError("point outside every class")


def w_relation(space):
    """One-step zig-zag matrix: x1 W x2 when some x1' <= x1 and x2' <= x2
    share an upper bound."""
    leq = space.order.leq
    m = _bool_mm(leq.T, leq)
    return _bool_mm(m, m)


def w_quotient(space):
    w = w_relation(space)
    npts = len(space.points)
    if not w.diagonal().all() or not (w == w.T).all():
        raise AlgebraError("zig-zag relation is not reflexive-symmetric")
    if not (transitive_closure(w) == w).all():
        raise AlgebraError("one-step zig-zag relation is not transitive")
    mk = space.mk
    if not ((mk[:, None] == mk[None, :]) == w).all():
        raise AlgebraError("zig-zag relation differs from the kernel of m.k")

    blocks = {}
    for x in range(npts):
        blocks.setdefault(int(mk[x]), set()).add(x)
    classes = sorted((frozenset(b) for b in blocks.values()), key=min)
    z_of_class = []
    leq = space.order.leq
    for block in classes:
        inz = sorted(block & space.z_set)
        if len(inz) != 1:
            raise AlgebraError("a zig-zag class misses a unique maximal point")
        z_of_class.append(inz[0])
        # finite homeomorphism certificate: the class preimage of each basic
        # open of Z is simultaneously a downset and an upset of X
        rows = sorted(block)
        outside = [x for x in range(npts) if x not in block]
        if outside and (
            leq[np.ix_(rows, outside)].any() or leq[np.ix_(outside, rows)].any()
        ):
            raise AlgebraError("a zig-zag class is not order-isolated")
    for a in space.z_points:
        for b in space.z_points:
            if a != b and leq[a, b]:
                raise AlgebraError("maximal points are not an antichain")
    return WQuotient(classes=tuple(classes), z_of_class=tuple(z_of_class))


# -- the reconstruction theorem ---------------------------------------------


def lattice_only_component_count(lat):
    """|X/W| computed from the bare lattice: order components of its dual.

    No MV data enters: points and order come from the lattice alone.
    """
    return len(dual_order(enumerate_prime_ideals(lat)).order_components())


VERDICT_HOMEOMORPHIC = "homeomorphic"
VERDICT_NOT_ISOMORPHIC = "reducts not isomorphic"
VERDICT_INCOMPARABLE = "incomparable carriers"
VERDICT_BUDGET = "search budget exceeded"


def kaplansky_check(a, b, node_budget=200_000):
    """Isomorphic lattice reducts force homeomorphic maximal spectra.

    Returns one of the VERDICT_* strings.  For each finite input the maximal
    spectrum recovered from the lattice alone (via the zig-zag quotient) is
    checked against the maximal MV-ideal count; a mismatch raises, since it
    would falsify the reconstruction.  A search-budget overrun is reported
    as its own verdict, never conflated with a negative answer.
    """
    chang_a = isinstance(a, ChangAlgebra)
    chang_b = isinstance(b, ChangAlgebra)
    if chang_a != chang_b:
        return VERDICT_INCOMPARABLE
    if chang_a:
        return VERDICT_HOMEOMORPHIC  # both are the same chain: |Z| = 1
    counts = []
    for alg in (a, b):
        space = MvDualSpace(alg)
        quot = w_quotient(space)
        from_lattice = lattice_only_component_count(space.lattice)
        if from_lattice != len(space.z_points):
            raise AlgebraError(
                "lattice-only maximal spectrum differs from the MV one"
            )
        if len(quot.classes) != len(space.z_points):
            raise AlgebraError("zig-zag classes do not match maximal points")
        counts.append(len(space.z_points))
    try:
        same = lattice_isomorphic(
            a.lattice_reduct(), b.lattice_reduct(), node_budget=node_budget
        )
    except SearchBudgetExceeded:
        return VERDICT_BUDGET
    if not same:
        return VERDICT_NOT_ISOMORPHIC
    if counts[0] != counts[1]:
        raise AlgebraError("maximal spectra differ despite isomorphic reducts")
    return VERDICT_HOMEOMORPHIC


# -- serialization ------------------------------------------------------------


def space_to_json(space, chang_bound=32):
    if isinstance(space, ChangSpace):
        pts = space.points_bounded(chang_bound)
        return {
            "schema": SCHEMA,
            "kind": "dual-space-symbolic",
            "bound": chang_bound,
            "points_window": [p.label() for p in pts],
            "Y": [y.label() for y in space.y_points],
            "Z": [z.label() for z in space.z_points],
            "involution": {p.label(): space.involution(p).label() for p in pts},
            "k": {p.label(): space.k_map(p).label() for p in pts},
            "m": {y.label(): space.m_map(y).label() for y in space.y_points},
        }
    npts = len(space.points)
    return {
        "schema": SCHEMA,
        "kind": "dual-space",
        "points": [
            {
                "ideal": sorted(pt.ideal),
                "generator": space.point_label(x),
            }
            for x, pt in enumerate(space.points)
        ],
        "order": [
            [int(i), int(j)] for i, j in np.argwhere(space.order.leq)
        ],
        "involution": [int(v) for v in space.involution],
        "plus": [[int(v) for v in row] for row in space.plus],
        "Y": [int(y) for y in space.y_points],
        "Z": [int(z) for z in space.z_points],
        "k": [int(v) for v in space.k],
        "m": [[int(y), int(z)] for y, z in sorted(space.m.items())],
    }


def space_to_dot(space, plus_edges=False, chang_bound=8):
    if isinstance(space, ChangSpace):
        pts = space.points_bounded(chang_bound)
        lines = ["digraph space {", "  rankdir=BT;", "  node [shape=circle];"]
        for i, p in enumerate(pts):
            attrs = [f'label="{p.label()}"']
            if p in space.y_points:
                attrs.append("peripheries=2")
            if p in space.z_points:
                attrs.append("style=filled fillcolor=gray80")
            lines.append(f"  n{i} [{' '.join(attrs)}];")
        for i in range(len(pts) - 1):
            style = ""
            if pts[i].family != pts[i + 1].family:
                style = ' [style=dotted label="..."]'
            lines.append(f"  n{i} -> n{i + 1}{style};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    labels = [space.point_label(x) for x in range(len(space.points))]
    extra = []
    if plus_edges:
        for (x, y) in sorted(space.plus_domain):
            extra.append((x, int(space.plus[x, y]), f"+{labels[y]}"))
    return space.order.to_dot(
        labels=labels,
        doublecircle=space.y_points,
        filled=space.z_points,
        extra_edges=extra,
    )
