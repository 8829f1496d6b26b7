"""Etale decompositions over the prime and maximal MV points.

Both sheaf representations live here: the base is either Y (prime MV
points, upset topology) or Z (maximal MV points, discrete), the bundle map
q is k or m.k, and the stalk over a base point is the quotient of the
algebra by that point's ideal (prime base) or by its germinal ideal
(maximal base).  The patching checker, global-section enumeration, the
section comparison map eta, congruence-style remainder solving, and the
term-definable variant all operate on these instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import AlgebraError, CapExceeded
from .lattice import SCHEMA
from .idealarith import oplus_bar
from .mv import congruence_class, ideal_congruent, is_mv_ideal, quotient
from .spectrum import MvDualSpace

BASE_PRIME = "prime"
BASE_MAXIMAL = "maximal"


@dataclass(frozen=True)
class Stalk:
    point: int
    ideal: frozenset
    quotient: object  # mv.Quotient


class EtaleInstance:
    """A bundle over the chosen base with its stalks tabulated.

    base_points index into space.points; q maps every point of X to a
    position in base_points; stalks align with base_points.
    """

    def __init__(self, space, base, base_points, q, stalks):
        self.space = space
        self.base = base
        self.base_points = base_points
        self.q = q
        self.stalks = stalks

    def base_upset(self, pos):
        """Positions of base points above the given one: its least
        neighborhood in the upset topology (discrete for the maximal base)."""
        if self.base == BASE_MAXIMAL:
            return [pos]
        leq = self.space.order.leq
        y = self.base_points[pos]
        return [
            p for p, other in enumerate(self.base_points) if leq[y, other]
        ]


def germinal_ideal(space, z):
    """Intersection of the prime MV ideals below a maximal point.

    The subspace it carves out, {x : germ inside I_k(x)}, is the m.k fiber
    of z; verify's germinal-ideals-carve-fibers checks that identity.
    """
    if z not in space.z_set:
        raise AlgebraError("germinal ideals are indexed by maximal points")
    leq = space.order.leq
    below = [y for y in space.y_points if leq[y, z]]
    return frozenset.intersection(*(space.points[y].ideal for y in below))


def _bundle_map(space, base):
    """Base points, their ideals and q: every point of X to its base position."""
    if not isinstance(space, MvDualSpace):
        raise AlgebraError("etale instances need a finite dual space")
    if base == BASE_PRIME:
        base_points = space.y_points
        raw = space.k
        ideals = [space.points[y].ideal for y in base_points]
    elif base == BASE_MAXIMAL:
        base_points = space.z_points
        raw = space.mk
        ideals = [germinal_ideal(space, z) for z in base_points]
    else:
        raise AlgebraError(f"unknown base {base!r}")
    position = {pt: pos for pos, pt in enumerate(base_points)}
    q = np.array([position[int(v)] for v in raw])
    return tuple(base_points), ideals, q


def build_etale(space, base):
    """The bundle over Y via k, or over Z via m.k, with tabulated stalks."""
    base_points, ideals, q = _bundle_map(space, base)
    alg = space.algebra
    stalks = tuple(
        Stalk(point=pt, ideal=ideals[pos], quotient=quotient(alg, ideals[pos]))
        for pos, pt in enumerate(base_points)
    )
    return EtaleInstance(space, base, base_points, q, stalks)


# -- patching ---------------------------------------------------------------


@dataclass(frozen=True)
class PatchResult:
    ok: bool
    patched: frozenset | None = None
    element: int | None = None
    violation: tuple | None = None  # (l, m, witness point)


def check_property_p(space, base, cover, downsets):
    """Patch clopen downsets K_l along a base cover.

    cover lists subsets of the base point set (upsets of Y for the prime
    base, arbitrary subsets of Z for the maximal one) whose union is the
    base; downsets lists subsets of X, each required to be some a-hat.  If
    the compatibility K_l = K_m over q^{-1}(U_l & U_m) holds, the union of
    the K_l & q^{-1}(U_l) is returned with the element realizing it as a
    hat; otherwise the first violating pair and a witness point.
    """
    base_points, _, q = _bundle_map(space, base)
    base_set = set(range(len(base_points)))
    point_pos = {pt: pos for pos, pt in enumerate(base_points)}
    if len(cover) != len(downsets):
        raise AlgebraError("cover and downset lists must align")
    cover_pos = []
    for u in cover:
        pos = set()
        for pt in u:
            if pt not in point_pos:
                raise AlgebraError(f"cover names {pt}, not a base point")
            pos.add(point_pos[pt])
        cover_pos.append(pos)
    union_pos = set().union(*cover_pos) if cover_pos else set()
    if union_pos != base_set:
        raise AlgebraError("the given family does not cover the base")
    if base == BASE_PRIME:
        leq = space.order.leq
        for u in cover_pos:
            pts = [base_points[p] for p in u]
            for y in pts:
                for yp in base_points:
                    if leq[y, yp] and point_pos[yp] not in u:
                        raise AlgebraError("a cover set is not an upset")
    hats = space.hat_to_element
    k_sets = []
    for kl in downsets:
        fs = frozenset(int(v) for v in kl)
        if fs not in hats:
            raise AlgebraError("a patch set is not of the form a-hat")
        k_sets.append(fs)
    npts = len(space.points)
    pre = [frozenset(x for x in range(npts) if int(q[x]) in u) for u in cover_pos]
    for l in range(len(cover_pos)):
        for m in range(len(cover_pos)):
            overlap = pre[l] & pre[m]
            bad = (k_sets[l] ^ k_sets[m]) & overlap
            if bad:
                return PatchResult(
                    ok=False, violation=(l, m, min(bad))
                )
    union = frozenset().union(
        *(k_sets[l] & pre[l] for l in range(len(cover_pos)))
    )
    if not space.order.is_downset(union):
        raise AlgebraError("patched set is not a downset")
    elem = hats.get(union)
    if elem is None:
        raise AlgebraError("patched downset is not a hat set")
    return PatchResult(ok=True, patched=union, element=int(elem))


# -- sections ----------------------------------------------------------------


def section_of_element(inst, a):
    """The tuple of stalk classes of a, one per base point."""
    return tuple(int(st.quotient.projection[a]) for st in inst.stalks)


def global_sections(inst, cap=10**6):
    """All locally representable assignments, in lexicographic stalk order.

    An assignment qualifies if every base point has an algebra element
    whose stalk classes match on the point's least neighborhood.
    """
    sizes = [st.quotient.algebra.n for st in inst.stalks]
    total = 1
    for s in sizes:
        total *= s
        if total > cap:
            raise CapExceeded(f"stalk product exceeds {cap}")
    alg = inst.space.algebra
    images = [section_of_element(inst, a) for a in range(alg.n)]
    hoods = [inst.base_upset(pos) for pos in range(len(inst.base_points))]
    out = []
    for cand in itertools.product(*(range(s) for s in sizes)):
        good = True
        for pos in range(len(inst.base_points)):
            hood = hoods[pos]
            if not any(
                all(cand[p] == img[p] for p in hood) for img in images
            ):
                good = False
                break
        if good:
            out.append(cand)
    return out


def eta_check(inst, cap=10**6):
    """Compare a |-> (classes of a) against the global sections.

    Returns the JSON-ready report; isomorphism means injective, surjective
    onto the sections, and operation-preserving.
    """
    alg = inst.space.algebra
    images = [section_of_element(inst, a) for a in range(alg.n)]
    report = {
        "schema": SCHEMA,
        "base": inst.base,
        "stalks": [
            {
                "point": int(st.point),
                "ideal": sorted(st.ideal),
                "size": st.quotient.algebra.n,
            }
            for st in inst.stalks
        ],
        "sections": None,
        "isomorphism": False,
        "witness": None,
    }
    seen = {}
    for a, img in enumerate(images):
        if img in seen:
            report["witness"] = {"collapsed": [seen[img], a]}
            return report
        seen[img] = a
    sections = global_sections(inst, cap=cap)
    report["sections"] = len(sections)
    orphans = [s for s in sections if s not in seen]
    if orphans:
        report["witness"] = {"orphan": list(orphans[0])}
        return report
    if len(sections) != alg.n:
        report["witness"] = {"missing": alg.n - len(sections)}
        return report
    for a in range(alg.n):
        if images[alg.neg[a]] != tuple(
            int(st.quotient.algebra.neg[images[a][p]])
            for p, st in enumerate(inst.stalks)
        ):
            report["witness"] = {"neg-breaks-at": a}
            return report
        for b in range(alg.n):
            want = tuple(
                int(st.quotient.algebra.oplus[images[a][p], images[b][p]])
                for p, st in enumerate(inst.stalks)
            )
            if images[alg.oplus[a, b]] != want:
                report["witness"] = {"oplus-breaks-at": [a, b]}
                return report
    report["isomorphism"] = True
    report["witness"] = {"injective": True, "surjective": True, "hom": True}
    return report


# -- remainder solving --------------------------------------------------------


def crt_solve(alg, ideals, targets):
    """The unique element congruent to each target modulo its ideal.

    Needs MV ideals with zero intersection and pairwise-compatible targets;
    compatibility is modulo the join of the two ideals.  A solution is
    congruent to every target, so compatibility is only scanned, for the
    message, when there is none or more than one.
    """
    if len(ideals) != len(targets) or not ideals:
        raise AlgebraError("need matching nonempty ideal and target lists")
    for i in ideals:
        if not is_mv_ideal(alg, i):
            raise AlgebraError("remainder solving needs MV ideals")
    if frozenset.intersection(*(frozenset(i) for i in ideals)) != {alg.zero}:
        raise AlgebraError("the ideals do not intersect to zero")
    solved = np.logical_and.reduce(
        [congruence_class(alg, t, i) for i, t in zip(ideals, targets)]
    )
    found = np.flatnonzero(solved)
    if len(found) == 1:
        return int(found[0])
    for l in range(len(ideals)):
        for m in range(l + 1, len(ideals)):
            join = oplus_bar(alg, ideals[l], ideals[m])
            if not ideal_congruent(alg, targets[l], targets[m], join):
                raise AlgebraError(
                    f"targets {l} and {m} are incompatible modulo the join"
                )
    raise AlgebraError(f"expected a unique solution, found {len(found)}")


def crt_term(alg, units, targets, space=None):
    """Term-definable remainder solving over the prime MV points.

    units give the patches: the points whose ideal contains u_i.  Returns
    the least t for which the join of the (a_i minus t copies of u_i)
    agrees with a_i on patch i, together with that join.
    """
    if len(units) != len(targets) or not units:
        raise AlgebraError("need matching nonempty unit and target lists")
    if space is None:
        space = MvDualSpace(alg)
    y_ideals = [space.points[y].ideal for y in space.y_points]
    patches = [
        [iy for iy, ideal in enumerate(y_ideals) if u in ideal] for u in units
    ]
    covered = set().union(*(set(p) for p in patches))
    if covered != set(range(len(y_ideals))):
        raise AlgebraError("the unit patches do not cover the MV points")
    for i in range(len(units)):
        for j in range(i + 1, len(units)):
            for iy in set(patches[i]) & set(patches[j]):
                if not ideal_congruent(
                    alg, targets[i], targets[j], y_ideals[iy]
                ):
                    raise AlgebraError(
                        f"targets {i} and {j} disagree on a shared patch"
                    )

    def drop(a, u, t):
        v = a
        for _ in range(t):
            v = int(alg.ominus[v, u])
        return v

    def towers_stable(t):
        return all(
            drop(targets[i], units[i], t) == drop(targets[i], units[i], t + 1)
            for i in range(len(units))
        )

    t = 0
    while True:
        b = alg.zero
        for i in range(len(units)):
            b = int(alg.join[b, drop(targets[i], units[i], t)])
        if all(
            ideal_congruent(alg, b, targets[i], y_ideals[iy])
            for i in range(len(units))
            for iy in patches[i]
        ):
            return t, b
        if towers_stable(t):
            raise AlgebraError("stabilized join misses a patch class")
        t += 1


def difference_tower(alg, a, u, limit=None):
    """The chain a, a-u, a-2u, ... up to stabilization (at most |A| steps)."""
    limit = alg.n if limit is None else limit
    seq = [a]
    for _ in range(limit):
        nxt = int(alg.ominus[seq[-1], u])
        if nxt == seq[-1]:
            break
        seq.append(nxt)
    if int(alg.ominus[seq[-1], u]) != seq[-1]:
        raise AlgebraError("difference tower failed to stabilize")
    return seq


def tower_sandwich(space, a, u):
    """Bounds for the stabilized tower intersection.

    hat(a) & k^{-1}(hat(u) complement) sits inside the intersection of the
    tower hats, which sits inside the down-closure of the left side; both
    inclusions are asserted and the three sets returned.
    """
    alg = space.algebra
    npts = len(space.points)
    useen = frozenset(
        x for x in range(npts) if u in space.points[int(space.k[x])].ideal
    )
    lhs = space.hat(a) & useen
    seq = difference_tower(alg, a, u)
    mid = frozenset.intersection(*(space.hat(v) for v in seq))
    leq = space.order.leq
    down = frozenset(
        x for x in range(npts) if any(leq[x, xp] for xp in useen)
    )
    rhs = space.hat(a) & down
    if not (lhs <= mid and mid <= rhs):
        raise AlgebraError("tower bounds fail")
    return lhs, mid, rhs
