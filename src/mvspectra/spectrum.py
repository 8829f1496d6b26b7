"""Dual spaces of finite MV-algebras.

The space X of prime lattice ideals carries an order-reversing involution i,
a partial addition +, the subsets Y (prime MV points) and Z (maximal MV
points), the retraction k: X -> Y, the retraction m: Y -> Z, and the zig-zag
relation W whose quotient is carried by Z.  Topological language is read
through the finite-scale convention documented in lattice.py: opens of the
downset topology are downsets, and continuity claims become set identities
over the basic family {a-hat}.  A point is its boolean membership row, so
the points of a space are the rows of one matrix, member, and a-hat is the
complement of its column a.  A subset of the points (a-hat, a fiber of k,
Y and Z, a W class) is a boolean row over the points; y_points and
z_points list Y and Z by index for the JSON and DOT output.

Every prime ideal of the finite reduct is principal, I_x = down g_x, so the
build is table arithmetic on the generators: + and the involution are
lookups, Y is the diagonal of + (g_x idempotent), k(x) is the point of the
largest idempotent e with g_x + e = g_x, m is a slice of the order, and Z
comes from the maximal idempotents below one.  The MV-ideal test of mv,
mv.ideal_generated and k_via_ideal_scan are oracles for verify.

Construction computes and does not check: MvDualSpace raises AlgebraError
only where a table entry cannot be produced at all.  verify owns the laws,
one check each.  Each carrier builds its own space (alg.dual_space()),
and MvDualSpace and ChangSpace answer the same point methods (involute,
partial_plus, k_map, m_map, fiber, to_json, to_dot), so callers never
branch on the carrier, and read alg.finite where tables are needed.  A
finite fiber is a boolean row, a symbolic one a window of points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AlgebraError
from .lattice import (
    _bool_mm,
    _level_sets,
    _row_finder,
    chain_factors,
    dual_order,
    enumerate_prime_ideals,
    stone_map,
)
from .mv import (
    SCHEMA,
    TABLE_DTYPE,
    enumerate_mv_ideals,
    maximal_mv_ideals,
    require_algebra,
)


class MvDualSpace:
    """The dual space of a finite MV-algebra, fully tabulated.

    The points are the prime lattice ideals of the reduct in canonical
    order, one boolean row each: member[x, a] says whether element a lies
    in the ideal of point x, so the basic set a-hat is the complement of
    column a.  order is ideal inclusion.  involution is a permutation array;
    plus is an integer table with -1 for undefined; k is a total array into
    y_points; m is an array into z_points, -1 off Y.  These index arrays,
    the generators and the lookups behind them are TABLE_DTYPE, like the
    algebra's tables.  in_y and in_z are the boolean rows of Y and Z over
    the points, and y_points and z_points their indices in ascending order.
    """

    def __init__(self, alg):
        if not require_algebra(alg).finite:
            raise AlgebraError("use ChangSpace for the symbolic carrier")
        self.algebra = alg
        self.lattice = alg.lattice_reduct()
        self.member = member = enumerate_prime_ideals(self.lattice)
        self.order = dual_order(member)
        npts, n = member.shape

        # every lattice ideal of a finite lattice is principal: its generator
        # is the member with the most elements below it
        leq = alg.leq
        self._down_count = leq.sum(axis=0, dtype=TABLE_DTYPE)
        gens = self._top_members(member).astype(TABLE_DTYPE)
        if not (leq[:, gens].T == member).all():
            raise AlgebraError("prime ideal is not principal")
        self.generators = gens
        self._point_of = np.full(n, -1, dtype=TABLE_DTYPE)
        self._point_of[gens] = np.arange(npts)

        # b lies in the ideal of i(x) exactly when neg(b) escapes I_x
        self.involution = self._points_of(
            ~member[:, alg.neg], "negated complement filter"
        )
        # x + y is the point generated by the sum of the generators, and is
        # undefined where that sum reaches one
        gen_sum = alg.oplus[gens[:, None], gens[None, :]]
        self.plus = np.where(gen_sum != alg.one, self._point_of[gen_sum], -1)
        # I_x is an MV-ideal exactly when its generator is idempotent
        self.in_y = self.plus.diagonal() == np.arange(npts)
        self.y_points = tuple(np.flatnonzero(self.in_y).tolist())
        self.in_z = np.zeros(npts, dtype=bool)
        self.in_z[self._points_of(maximal_mv_ideals(alg), "maximal MV-ideal")] = True
        self.z_points = tuple(np.flatnonzero(self.in_z).tolist())
        # k(x) is the largest MV-ideal J with I_x +bar J inside I_x: the
        # downset of the largest idempotent e with g_x + e = g_x
        idem = alg.oplus.diagonal() == np.arange(n)
        e = self._top_members((alg.oplus[gens] == gens[:, None]) & idem)
        self.k = self._points_of(leq[:, e].T, "k formula ideal")
        above = self.order.leq[np.ix_(self.y_points, self.z_points)]
        counts = above.sum(axis=1)
        if (counts != 1).any():
            i = int(np.flatnonzero(counts != 1)[0])
            raise AlgebraError(
                f"point {self.y_points[i]} lies under {counts[i]} maximal MV points"
            )
        self.m = np.full(npts, -1, dtype=TABLE_DTYPE)
        self.m[self.in_y] = np.array(self.z_points, dtype=TABLE_DTYPE)[above.nonzero()[1]]

    def _top_members(self, rows):
        """Per boolean row, the member with the most elements below it."""
        return np.where(rows, self._down_count, -1).argmax(axis=-1)

    def _points_of(self, rows, what):
        """The point whose ideal is each boolean membership row: the one
        generated by the row's top member, if its ideal is that row."""
        out = self._point_of[self._top_members(rows)]
        if (out < 0).any() or (self.member[out] != rows).any():
            raise AlgebraError(f"{what} is not a point")
        return out

    # -- derived views -------------------------------------------------------

    @cached_property
    def mk(self):
        return self.m[self.k]

    def hat(self, a):
        """The boolean row of the points whose ideal omits a: the basic set
        of a.  An index array of elements gives one column per element."""
        return stone_map(self.lattice, a, self.member)

    @cached_property
    def hat_elements(self):
        """hat_elements(hats): the element whose hat is each boolean row
        over the points, -1 where there is none; the inverse of the Stone
        map, whose image of a is row a of ~member.T."""
        return _row_finder(~self.member.T)

    def point_label(self, x):
        return str(self.algebra.labels[int(self.generators[x])])

    # -- the point protocol shared with ChangSpace ----------------------------

    def involute(self, x):
        return int(self.involution[x])

    def partial_plus(self, x, y):
        """x + y, or None when undefined; never an exception on the domain gap."""
        v = int(self.plus[x, y])
        return v if v >= 0 else None

    def k_map(self, x):
        return int(self.k[x])

    def m_map(self, y):
        if not self.in_y[y]:
            raise AlgebraError("m is only defined on MV points")
        return int(self.m[y])

    def fiber(self, y, chang_bound=32):
        """k^{-1}(up y), the points retracting onto at least y, as a boolean
        row over the points."""
        if not self.in_y[y]:
            raise AlgebraError("fibers are indexed by MV points")
        return self.order.leq[y, self.k]

    def to_json(self, chang_bound=32):
        return {
            "schema": SCHEMA,
            "kind": "dual-space",
            "points": [
                {
                    "ideal": np.flatnonzero(row).tolist(),
                    "generator": self.point_label(x),
                }
                for x, row in enumerate(self.member)
            ],
            "order": [
                [int(i), int(j)] for i, j in np.argwhere(self.order.leq)
            ],
            "involution": [int(v) for v in self.involution],
            "plus": [[int(v) for v in row] for row in self.plus],
            "Y": [int(y) for y in self.y_points],
            "Z": [int(z) for z in self.z_points],
            "k": [int(v) for v in self.k],
            "m": [[int(y), int(self.m[y])] for y in self.y_points],
        }

    def to_dot(self, chang_bound=8):
        return self.order.to_dot(
            labels=[self.point_label(x) for x in range(len(self.member))],
            doublecircle=self.y_points,
            filled=self.z_points,
        )


def build_dual_space(alg):
    """The dual space the carrier builds: MvDualSpace or ChangSpace."""
    return require_algebra(alg).dual_space()


def interpolate(space, x, xp):
    """For x <= x', the point x + k(x'), squeezed between them with a larger
    k value than both ends; all four conditions are asserted.  Index arrays
    of pairs give an array of points, and the first pair that fails a
    condition names it."""
    leq, k = space.order.leq, space.k
    w = space.plus[x, k[xp]]
    ok = leq[x, xp] & (w >= 0) & leq[x, w] & leq[w, xp] & leq[k[x], k[w]] & leq[k[xp], k[w]]
    if not ok.all():
        first = np.ravel(~ok).argmax()
        if not np.ravel(leq[x, xp])[first]:
            raise AlgebraError("interpolation needs comparable points x <= x'")
        if np.ravel(w)[first] < 0:
            raise AlgebraError("interpolation witness sum is undefined")
        raise AlgebraError("interpolation witness violates its bounds")
    return int(w) if np.ndim(w) == 0 else w


def k_via_ideal_scan(space):
    """Oracle route: k of every point, the largest MV-ideal J with I_x +bar J
    inside I_x, computed from oplus, the order and the MV-ideals alone; Y is
    read only to check that each result is an MV point."""
    alg, member = space.algebra, space.member
    # J = down e for an idempotent e, J's member with the most elements below
    # it.  I_x +bar J lies in the lattice ideal I_x when each a oplus b does
    # (a in I_x, b in J); as oplus is monotone and I_x a downset, J is
    # addable exactly when a oplus e lies in I_x for every a in I_x.  One
    # ideal at a time, so that each gather is the size of member.
    ideals = enumerate_mv_ideals(alg)
    tops = np.where(ideals, alg.leq.sum(axis=0, dtype=TABLE_DTYPE), -1).argmax(axis=1)
    addable = np.stack([~(member & ~member[:, sums]).any(axis=1)
                        for sums in alg.oplus[:, tops].T], axis=1)
    # the largest is addable and lies above every addable e_j
    best = np.where(addable, ideals.sum(axis=1), -1).argmax(axis=1)
    largest = addable[np.arange(len(best)), best] & (
        ~addable | alg.leq[tops[None, :], tops[best, None]]).all(axis=1)
    out = np.empty(len(member), dtype=TABLE_DTYPE)
    for x, j in enumerate(best):
        if not largest[x]:
            raise AlgebraError("addable ideals have no largest member")
        out[x] = space._points_of(ideals[j], "largest addable ideal")
        if not space.in_y[out[x]]:
            raise AlgebraError("largest addable ideal is not an MV point")
    return out


# -- the zig-zag quotient ----------------------------------------------------


@dataclass(frozen=True)
class WQuotient:
    """Partition of X by the zig-zag relation with its bijection onto Z:
    one boolean row over the points per class, in canonical order, and
    the maximal point of each."""

    classes: np.ndarray
    z_of_class: tuple


def w_relation(space):
    """One-step zig-zag matrix: x1 W x2 when some x1' <= x1 and x2' <= x2
    share an upper bound."""
    leq = space.order.leq
    m = _bool_mm(leq.T, leq)
    return _bool_mm(m, m)


def w_quotient(space):
    """The W classes, read off as the fibers of m.k, each with its maximal
    point; verify's zigzag-quotient-lawful checks that W is that kernel."""
    classes = _level_sets(space.mk)
    inz = classes & space.in_z
    if (inz.sum(axis=1) != 1).any():
        raise AlgebraError("a zig-zag class misses a unique maximal point")
    return WQuotient(classes=classes, z_of_class=tuple(inz.argmax(axis=1).tolist()))


# -- the reconstruction theorem ---------------------------------------------


def lattice_only_component_count(lat):
    """|X/W| computed from the bare lattice: order components of its dual.

    No MV data enters: points and order come from the lattice alone.
    """
    return len(dual_order(enumerate_prime_ideals(lat)).order_components)


VERDICT_HOMEOMORPHIC = "homeomorphic"
VERDICT_NOT_ISOMORPHIC = "reducts not isomorphic"
VERDICT_INCOMPARABLE = "incomparable carriers"


def kaplansky_check(a, b):
    """Isomorphic lattice reducts force homeomorphic maximal spectra.

    Returns one of the VERDICT_* strings.  The reducts are compared by
    their chain factors (lattice.chain_factors): finite reducts are
    products of chains, isomorphic exactly when the sorted chain lengths
    agree, so the comparison is exact at every size with no search.  |Z|
    of each finite input is the number of its maximal MV-ideals; isomorphic
    reducts with different counts would falsify the theorem, so that case
    raises.
    """
    finite = require_algebra(a).finite
    if finite != require_algebra(b).finite:
        return VERDICT_INCOMPARABLE
    if not finite:
        return VERDICT_HOMEOMORPHIC  # both are the same chain: |Z| = 1
    if chain_factors(a.lattice_reduct()) != chain_factors(b.lattice_reduct()):
        return VERDICT_NOT_ISOMORPHIC
    if len(maximal_mv_ideals(a)) != len(maximal_mv_ideals(b)):
        raise AlgebraError("maximal spectra differ despite isomorphic reducts")
    return VERDICT_HOMEOMORPHIC
