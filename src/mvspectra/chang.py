"""The standard infinite counterexample algebra: a two-tier chain.

Elements are fin(k), infinitesimals stacked above zero, and cofin(k),
co-infinitesimals stacked below one, with fin(k) < cofin(j) for all k, j.
The whole algebra embeds in the lexicographic plane (fin k = (0, k),
cofin k = (1, -k), truncated addition below (1, 0)), which is the model
the test oracles use.

Here an element is the integer pair (tag, k), fin k = (0, k) and
cofin k = (1, k), and an ideal the pair (family, param) of one of four
families.  Each operation has one closed form, numpy code on integer arrays
(the *_pairs functions): the scalar methods call it on one pair, and the
bounded checks, which run the quantifiers over the infinite carrier on
bounded windows, call it on whole windows.

ChangAlgebra has the carrier protocol of mv.MvAlgebra: finite is False,
dual_space() is ChangSpace, and first_violation(bound) scans the window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlgebraError
from .mv import SCHEMA, AxiomViolation

FIN, COFIN = 0, 1
TRUNC, RADICAL, COFINITE, FULL = 0, 1, 2, 3
# window arrays hold indices up to top = 8 * bound + 8 and sums up to 2 * top:
# 2,064 at the CLI's bound cap of 128
WINDOW_DTYPE = np.int16


# -- the closed forms, on integer arrays -----------------------------------------


def neg_pairs(t, k):
    """Negation swaps the tiers: neg fin(k) = cofin(k)."""
    return 1 - t, k


def oplus_pairs(t, k, u, j):
    """fin(k) + fin(j) = fin(k + j); fin(k) + cofin(j) = cofin(max(j - k, 0));
    cofin + cofin = cofin(0), the unit."""
    tiers = t + u
    mixed = np.maximum(np.where(t == COFIN, k - j, j - k), 0)
    return np.minimum(tiers, 1), np.where(tiers == 0, k + j, np.where(tiers == 1, mixed, 0))


def leq_pairs(t, k, u, j):
    """The chain order: lower tiers first, indices ascending in tier 0 and
    descending above it.  The ideals, ordered by inclusion, are the same
    kind of chain (trunc, radical, cofinite, full), so this is their order
    too."""
    return np.where(t == u, np.where(t == 0, k <= j, k >= j), t < u)


def encode_pairs(t, k, top):
    """Order-embedding into 0..top on which oplus is plain truncated sum,
    valid while every fin index in sight stays below top / 2."""
    return np.where(t == FIN, k, top - k)


def contains_pairs(f, n, t, k):
    """Whether ideal (f, n) holds element (t, k).  Every ideal but the
    radical is the downset of one element: fin(n), cofin(n) or the unit."""
    return np.where(f == RADICAL, t == FIN, leq_pairs(t, k, f >= COFINITE, n))


def ideal_oplus_bar_pairs(f, n, g, m):
    """Closed form for {c : c <= a + b, a in i, b in j}: truncs add, the
    radical absorbs truncs, cofinite(c) + trunc(t) is cofinite(c - t) while
    c - t >= 1, and every other sum is full."""
    lo, hi = np.minimum(f, g), np.maximum(f, g)
    gap = np.where(f == COFINITE, n - m, m - n)
    cofinite = (hi == COFINITE) & (lo == TRUNC) & (gap >= 1)
    family = np.where(hi <= RADICAL, hi, np.where(cofinite, COFINITE, FULL))
    return family, np.where(hi == TRUNC, n + m, np.where(cofinite, gap, 0))


def involute_pairs(f, n):
    """trunc(n) <-> cofinite(n + 1); the radical is fixed."""
    return 2 - f, n + 1 - f


def k_pairs(f, n):
    """k fixes the radical and sends every other point to trunc(0)."""
    return np.where(f == RADICAL, RADICAL, TRUNC), np.zeros_like(n)


def _ints(pair):
    return tuple(int(v) for v in pair)


# -- elements --------------------------------------------------------------------


@dataclass(frozen=True, order=False)
class ChangElement:
    """The pair (tag, k): fin(k) = (FIN, k), cofin(k) = (COFIN, k)."""

    tag: int
    k: int

    def __post_init__(self):
        if self.tag not in (FIN, COFIN) or self.k < 0:
            raise AlgebraError(f"bad element ({self.tag}, {self.k})")

    def __repr__(self):
        return f"{'cofin' if self.tag == COFIN else 'fin'}({self.k})"


def fin(k):
    return ChangElement(FIN, k)


def cofin(k):
    return ChangElement(COFIN, k)


class ChangAlgebra:
    """The chain's operations, each one call of its closed form; no tables."""

    finite = False

    def __init__(self):
        self.zero = fin(0)
        self.one = cofin(0)

    def neg(self, u):
        return ChangElement(*_ints(neg_pairs(u.tag, u.k)))

    def oplus(self, u, v):
        return ChangElement(*_ints(oplus_pairs(u.tag, u.k, v.tag, v.k)))

    def ominus(self, u, v):
        return self.neg(self.oplus(self.neg(u), v))

    def leq(self, u, v):
        return bool(leq_pairs(u.tag, u.k, v.tag, v.k))

    def join(self, u, v):
        return v if self.leq(u, v) else u

    def meet(self, u, v):
        return u if self.leq(u, v) else v

    def window(self, bound):
        """The window fin(0..bound), cofin(bound..0) as tag and index arrays,
        in chain order."""
        idx = np.arange(bound + 1, dtype=WINDOW_DTYPE)
        tags = np.repeat(np.array([FIN, COFIN], dtype=WINDOW_DTYPE), bound + 1)
        return tags, np.concatenate([idx, idx[::-1]])

    def elements(self, bound):
        """The window as elements, in chain order."""
        return [ChangElement(t, k) for t, k in zip(*(a.tolist() for a in self.window(bound)))]

    def dual_space(self):
        return ChangSpace()

    def first_violation(self, bound):
        """Axiom scan with all quantifiers restricted to the window.

        Two steps that compose to a direct triple scan: (1) the closed forms
        of neg, oplus and leq agree with the integer encoding on a window
        wide enough to contain every intermediate value, one array
        comparison each, a failure named for its operation; and (2) the
        axioms hold for the encoded operations.  Witnesses are the window
        elements at the first failing position.
        """
        top = 8 * bound + 8
        if 2 * top > np.iinfo(WINDOW_DTYPE).max:
            raise AlgebraError(f"bound {bound} overflows the window dtype")
        t, k = self.window(3 * bound + 3)
        col, row = (t[:, None], k[:, None]), (t[None, :], k[None, :])
        enc = encode_pairs(t, k, top)
        total = np.minimum(enc[:, None] + enc, top)
        agree = [
            ("neg-closed-form", encode_pairs(*neg_pairs(t, k), top) != top - enc),
            ("oplus-closed-form", encode_pairs(*oplus_pairs(*col, *row), top) != total),
            ("leq-closed-form", leq_pairs(*col, *row) != (enc[:, None] <= enc)),
        ]
        bad = _first_violation(agree, t, k)
        if bad is not None:
            return bad
        t, k = self.window(bound)
        enc = encode_pairs(t, k, top)
        osum = np.minimum(enc[:, None] + enc, top)
        neg = top - enc
        char = np.minimum(
            top - np.minimum(neg[:, None] + enc[None, :], top) + enc[None, :], top
        )
        laws = [
            ("involution", (top - neg) != enc),
            ("commutativity", osum != osum.T),
            ("associativity", _assoc_failures(enc, osum, top)),
            ("zero-identity", osum[0, :] != enc),
            ("one-absorption", osum[-1, :] != top),
            ("characteristic", char != char.T),
        ]
        return _first_violation(laws, t, k)


def _assoc_failures(enc, osum, top):
    """(a + b) + c != a + (b + c) over the window cube, truncated sums
    taken in place so the cube is allocated twice, not four times."""
    lhs = osum[:, :, None] + enc
    np.minimum(lhs, top, out=lhs)
    rhs = enc[:, None, None] + osum
    np.minimum(rhs, top, out=rhs)
    return lhs != rhs


def _first_violation(laws, t, k):
    for law, bad in laws:
        where = np.argwhere(bad)
        if len(where):
            witness = tuple(ChangElement(int(t[i]), int(k[i])) for i in where[0])
            return AxiomViolation(law, witness, witness)
    return None


# -- ideals ----------------------------------------------------------------------


@dataclass(frozen=True)
class ChangIdeal:
    """One of the four ideal families of the chain, the pair (family, param).

    trunc(n): fin(0..n).  radical: all fin.  cofinite(m), m >= 1: all fin
    plus cofin(j) for j >= m.  full: everything.  By inclusion they form
    the chain trunc(0) < trunc(1) < ... < radical < ... < J2 < J1 < full.
    """

    family: int
    param: int = 0

    def __post_init__(self):
        if self.family not in (TRUNC, RADICAL, COFINITE, FULL):
            raise AlgebraError(f"bad ideal family {self.family}")
        if self.family == TRUNC and self.param < 0:
            raise AlgebraError("trunc needs param >= 0")
        if self.family == COFINITE and self.param < 1:
            raise AlgebraError("cofinite needs param >= 1")
        if self.family in (RADICAL, FULL) and self.param != 0:
            raise AlgebraError("radical and full take no param")

    def __contains__(self, u):
        return bool(contains_pairs(self.family, self.param, u.tag, u.k))

    def label(self):
        if self.family == TRUNC:
            return f"I{self.param}"
        if self.family == RADICAL:
            return "I_omega"
        if self.family == COFINITE:
            return f"J{self.param}"
        return "full"


def ideal_oplus_bar(i, j):
    """Closed form for {c : c <= a + b, a in i, b in j}."""
    return ChangIdeal(*_ints(ideal_oplus_bar_pairs(i.family, i.param, j.family, j.param)))


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
        return bool(leq_pairs(p.family, p.param, q.family, q.param))

    def window(self, bound):
        """trunc(0..bound), radical, cofinite(bound..1) as family and param
        arrays, in chain order."""
        idx = np.arange(bound + 1, dtype=WINDOW_DTYPE)
        family = np.repeat(np.array([TRUNC, RADICAL, COFINITE], dtype=WINDOW_DTYPE),
                           [bound + 1, 1, bound])
        return family, np.concatenate([idx, np.zeros(1, WINDOW_DTYPE), idx[:0:-1]])

    def points_bounded(self, bound):
        """The window as points, in chain order."""
        return [ChangIdeal(f, n) for f, n in zip(*(a.tolist() for a in self.window(bound)))]

    def involute(self, p):
        return ChangIdeal(*_ints(involute_pairs(p.family, p.param)))

    def plus_defined(self, p, q):
        return self.point_leq(q, self.involute(p))

    def plus(self, p, q):
        if not self.plus_defined(p, q):
            raise AlgebraError(f"{p.label()} + {q.label()} undefined")
        return ideal_oplus_bar(p, q)

    def partial_plus(self, p, q):
        return self.plus(p, q) if self.plus_defined(p, q) else None

    def k_map(self, p):
        return ChangIdeal(*_ints(k_pairs(p.family, p.param)))

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
