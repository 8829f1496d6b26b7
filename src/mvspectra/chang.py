"""The standard infinite counterexample algebra: a two-tier chain.

Elements are fin(k), infinitesimals stacked above zero, and cofin(k),
co-infinitesimals stacked below one, with fin(k) < cofin(j) for all k, j.
The whole algebra embeds in the lexicographic plane (fin k = (0, k),
cofin k = (1, -k), truncated addition below (1, 0)), which is the model
the test oracles use.  Here the operations are closed forms on tags.

Everything about this algebra that the rest of the package consumes is
symbolic: ideals and filters come in four respectively three families, the
dual space is a chain of tagged points, and quantifiers over the carrier
are run over bounded windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlgebraError
from .mv import SCHEMA, AxiomViolation

FIN = "fin"
COFIN = "cofin"


@dataclass(frozen=True, order=False)
class ChangElement:
    kind: str
    k: int

    def __post_init__(self):
        if self.kind not in (FIN, COFIN) or self.k < 0:
            raise AlgebraError(f"bad element ({self.kind}, {self.k})")

    def __repr__(self):
        return f"{self.kind}({self.k})"


def fin(k):
    return ChangElement(FIN, k)


def cofin(k):
    return ChangElement(COFIN, k)


class ChangAlgebra:
    """Closed-form operations on tagged elements; no tables anywhere."""

    kind = "chang"

    def __init__(self):
        self.zero = fin(0)
        self.one = cofin(0)

    def neg(self, u):
        return ChangElement(COFIN if u.kind == FIN else FIN, u.k)

    def oplus(self, u, v):
        if u.kind == FIN and v.kind == FIN:
            return fin(u.k + v.k)
        if u.kind == COFIN and v.kind == COFIN:
            return cofin(0)
        f, c = (u, v) if u.kind == FIN else (v, u)
        return cofin(max(c.k - f.k, 0))

    def ominus(self, u, v):
        return self.neg(self.oplus(self.neg(u), v))

    def leq(self, u, v):
        if u.kind == v.kind:
            return u.k <= v.k if u.kind == FIN else u.k >= v.k
        return u.kind == FIN

    def join(self, u, v):
        return v if self.leq(u, v) else u

    def meet(self, u, v):
        return u if self.leq(u, v) else v

    def elements(self, bound):
        """The window fin(0..bound), cofin(bound..0), in chain order."""
        return [fin(k) for k in range(bound + 1)] + [
            cofin(k) for k in range(bound, -1, -1)
        ]

    def encode(self, u, top):
        """Order-embedding into 0..top on which oplus is plain truncated sum.

        Valid as long as every fin index in sight stays below top/2; the
        caller picks top accordingly.
        """
        return u.k if u.kind == FIN else top - u.k

    def decode(self, v, top):
        return fin(v) if v <= top // 2 else cofin(top - v)

    def check_axioms_bounded(self, bound):
        """Axiom scan with all quantifiers restricted to the window.

        Two steps that compose to a direct triple scan: (1) the closed
        forms agree pointwise with the integer encoding on a window wide
        enough to contain every intermediate value, and (2) the axioms
        hold for the encoded operations, vectorized.  Witnesses decode
        back to tagged elements.
        """
        top = 8 * bound + 8
        wide = self.elements(3 * bound + 3)
        for u in wide:
            if self.encode(self.neg(u), top) != top - self.encode(u, top):
                return AxiomViolation("involution", (u,), (u,))
            for v in wide:
                got = self.encode(self.oplus(u, v), top)
                want = min(self.encode(u, top) + self.encode(v, top), top)
                if got != want:
                    return AxiomViolation("commutativity", (u, v), (u, v))
                if self.leq(u, v) != (self.encode(u, top) <= self.encode(v, top)):
                    return AxiomViolation("reduct-bounds", (u, v), (u, v))
        window = self.elements(bound)
        enc = np.array([self.encode(u, top) for u in window], dtype=np.int64)
        osum = np.minimum(enc[:, None] + enc[None, :], top)
        neg = top - enc
        char = np.minimum(
            top - np.minimum(neg[:, None] + enc[None, :], top) + enc[None, :], top
        )
        checks = [
            ("involution", (top - neg) != enc),
            ("commutativity", osum != osum.T),
            (
                "associativity",
                np.minimum(osum[:, :, None] + enc[None, None, :], top)
                != np.minimum(enc[:, None, None] + osum[None, :, :], top),
            ),
            ("zero-identity", osum[0, :] != enc),
            ("one-absorption", osum[-1, :] != top),
            ("characteristic", char != char.T),
        ]
        for law, bad in checks:
            where = np.argwhere(bad)
            if len(where):
                witness = tuple(window[int(v)] for v in where[0])
                return AxiomViolation(law, witness, witness)
        return None


# -- ideals and filters -------------------------------------------------------

TRUNC = "trunc"
RADICAL = "radical"
COFINITE = "cofinite"
FULL = "full"


@dataclass(frozen=True)
class ChangIdeal:
    """One of the four ideal families of the chain.

    trunc(n): fin(0..n).  radical: all fin.  cofinite(m), m >= 1: all fin
    plus cofin(j) for j >= m.  full: everything.
    """

    family: str
    param: int = 0

    def __post_init__(self):
        if self.family not in (TRUNC, RADICAL, COFINITE, FULL):
            raise AlgebraError(f"bad ideal family {self.family}")
        if self.family == TRUNC and self.param < 0:
            raise AlgebraError("trunc needs param >= 0")
        if self.family == COFINITE and self.param < 1:
            raise AlgebraError("cofinite needs param >= 1")

    def __contains__(self, u):
        if self.family == TRUNC:
            return u.kind == FIN and u.k <= self.param
        if self.family == RADICAL:
            return u.kind == FIN
        if self.family == COFINITE:
            return u.kind == FIN or u.k >= self.param
        return True

    def proper(self):
        return self.family != FULL

    def is_mv(self):
        # addition-closure fails for trunc(n), n >= 1, and for cofinite
        return self.family == RADICAL or (self.family == TRUNC and self.param == 0)

    def label(self):
        if self.family == TRUNC:
            return f"I{self.param}"
        if self.family == RADICAL:
            return "I_omega"
        if self.family == COFINITE:
            return f"J{self.param}"
        return "full"


UPFIN = "upfin"
ALLCOFIN = "allcofin"
UPCOFIN = "upcofin"


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
            return u.kind == COFIN or u.k >= self.param
        if self.family == ALLCOFIN:
            return u.kind == COFIN
        return u.kind == COFIN and u.k <= self.param


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


def ideal_oplus_bar(i, j):
    """Closed form for {c : c <= a + b, a in i, b in j}."""
    if i.family == FULL or j.family == FULL:
        return ChangIdeal(FULL)
    if i.family == TRUNC and j.family == TRUNC:
        return ChangIdeal(TRUNC, i.param + j.param)
    if RADICAL in (i.family, j.family) and COFINITE not in (i.family, j.family):
        return ChangIdeal(RADICAL)
    if i.family == COFINITE or j.family == COFINITE:
        if i.family == TRUNC or j.family == TRUNC:
            t, c = (i, j) if i.family == TRUNC else (j, i)
            m = c.param - t.param
            return ChangIdeal(COFINITE, m) if m >= 1 else ChangIdeal(FULL)
        return ChangIdeal(FULL)
    raise AssertionError("unreachable")


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


# -- the dual space, symbolically ---------------------------------------------


class ChangSpace:
    """The dual chain of prime ideals, with the retraction maps in closed form.

    Points are ChangIdeal values from the three proper families; the order
    is inclusion: trunc(0) < trunc(1) < ... < radical < ... < J2 < J1.
    It answers the point methods of spectrum.MvDualSpace; fiber, to_json
    and to_dot list a window of chang_bound indices.
    """

    def __init__(self):
        self.algebra = ChangAlgebra()
        self.radical = ChangIdeal(RADICAL)
        self.y_points = (ChangIdeal(TRUNC, 0), self.radical)
        self.z_points = (self.radical,)

    def point_leq(self, p, q):
        rank = {TRUNC: 0, RADICAL: 1, COFINITE: 2}
        rp, rq = rank[p.family], rank[q.family]
        if rp != rq:
            return rp < rq
        if p.family == TRUNC:
            return p.param <= q.param
        if p.family == COFINITE:
            return p.param >= q.param
        return True

    def points_bounded(self, bound):
        """A window of the chain: trunc(0..bound), radical, cofinite(bound..1)."""
        return (
            [ChangIdeal(TRUNC, n) for n in range(bound + 1)]
            + [self.radical]
            + [ChangIdeal(COFINITE, m) for m in range(bound, 0, -1)]
        )

    def involute(self, p):
        if p.family == TRUNC:
            return ChangIdeal(COFINITE, p.param + 1)
        if p.family == RADICAL:
            return self.radical
        return ChangIdeal(TRUNC, p.param - 1)

    def plus_defined(self, p, q):
        return self.point_leq(q, self.involute(p))

    def plus(self, p, q):
        if not self.plus_defined(p, q):
            raise AlgebraError(f"{p.label()} + {q.label()} undefined")
        out = ideal_oplus_bar(p, q)
        if out.family == FULL:
            raise AssertionError("sum of points left the space")
        return out

    def partial_plus(self, p, q):
        return self.plus(p, q) if self.plus_defined(p, q) else None

    def k_map(self, p):
        return self.radical if p.family == RADICAL else ChangIdeal(TRUNC, 0)

    def m_map(self, y):
        if y not in self.y_points:
            raise AlgebraError("m is only defined on prime-MV points")
        return self.radical

    def fiber(self, y, chang_bound=32):
        """Window of k^{-1}(up y): all points for the zero ideal, just the
        radical for the radical."""
        if y == self.radical:
            return [self.radical]
        if y == ChangIdeal(TRUNC, 0):
            return self.points_bounded(chang_bound)
        raise AlgebraError("fibers are indexed by prime-MV points")

    def germinal_ideal(self, z):
        if z != self.radical:
            raise AlgebraError("the radical is the only maximal point")
        return ChangIdeal(TRUNC, 0)

    def to_json(self, chang_bound=32):
        pts = self.points_bounded(chang_bound)
        return {
            "schema": SCHEMA,
            "kind": "dual-space-symbolic",
            "bound": chang_bound,
            "points_window": [p.label() for p in pts],
            "Y": [y.label() for y in self.y_points],
            "Z": [z.label() for z in self.z_points],
            "involution": {p.label(): self.involute(p).label() for p in pts},
            "k": {p.label(): self.k_map(p).label() for p in pts},
            "m": {y.label(): self.m_map(y).label() for y in self.y_points},
        }

    def to_dot(self, chang_bound=8):
        """The window as a chain; dotted edges mark the gaps between families."""
        pts = self.points_bounded(chang_bound)
        lines = ["digraph space {", "  rankdir=BT;", "  node [shape=circle];"]
        for i, p in enumerate(pts):
            attrs = [f'label="{p.label()}"']
            if p in self.y_points:
                attrs.append("peripheries=2")
            if p in self.z_points:
                attrs.append("style=filled fillcolor=gray80")
            lines.append(f"  n{i} [{' '.join(attrs)}];")
        for i in range(len(pts) - 1):
            style = ""
            if pts[i].family != pts[i + 1].family:
                style = ' [style=dotted label="..."]'
            lines.append(f"  n{i} -> n{i + 1}{style};")
        lines.append("}")
        return "\n".join(lines) + "\n"
