"""Etale decompositions of the dual space and their sheaves of stalks.

One engine serves both sheaf representations.  A decomposition q: X -> B
of the dual space, with B ordered by base_leq, gives a sheaf of lattice
quotients: the stalk over b is the reduct modulo the congruence of the
subspace q^{-1}(b) (lattice.congruence_of_subspace), its zero class is the
stalk's ideal, and the least neighborhood of b is its upset in B.  The
prime base is (Y, k, the order on Y) and the maximal base (Z, m.k,
discrete); _decomposition is the one place that names them.  eta_check
confirms that negation and truncated addition descend to the stalks, and
the tests hold each stalk against the quotient by its ideal.  The patching
checker, global-section enumeration, congruence-style remainder solving
and the term-definable variant complete the module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import AlgebraError, CapExceeded
from .lattice import _bool_mm, congruence_of_subspace
from .idealarith import decided, oplus_bar
from .mv import SCHEMA, ideal_congruent, is_mv_ideal, require_rows
from .spectrum import MvDualSpace

BASE_PRIME = "prime"
BASE_MAXIMAL = "maximal"


@dataclass(frozen=True)
class Stalk:
    point: int
    ideal: np.ndarray  # boolean row: the class of zero
    projection: np.ndarray  # class of each element, by first occurrence

    @property
    def size(self):
        return int(self.projection.max()) + 1


@dataclass(frozen=True)
class EtaleInstance:
    """A decomposition of the dual space with its stalks tabulated.

    base_points index the points of space, the rows of space.member; q
    maps every point of X to a position in base_points; base_leq orders
    the positions; stalks align with base_points.  base names the
    representation, if any.
    """

    space: MvDualSpace
    base: str | None
    base_points: tuple
    q: np.ndarray
    base_leq: np.ndarray
    stalks: tuple


def germinal_ideal(space, z):
    """Intersection of the prime MV ideals below a maximal point, as a
    boolean row.

    The subspace it carves out, {x : germ inside I_k(x)}, is the m.k fiber
    of z; verify's germinal-ideals-carve-fibers checks that identity.
    """
    if not space.in_z[z]:
        raise AlgebraError("germinal ideals are indexed by maximal points")
    return space.member[space.in_y & space.order.leq[:, z]].all(axis=0)


def decomposition_sheaf(space, q, base_points, base_leq, base=None):
    """The sheaf of lattice quotients over a decomposition q: X -> B.

    q maps every point of X to a position in base_points and base_leq
    orders the positions.  The stalk over position b is the reduct modulo
    the congruence of the points with q == b; a point over no position
    belongs to no stalk.
    """
    q, base_leq = np.asarray(q), np.asarray(base_leq, dtype=bool)
    zero = space.algebra.zero
    stalks = []
    for pos, pt in enumerate(base_points):
        proj = congruence_of_subspace(space.member[q == pos])
        stalks.append(Stalk(point=pt, ideal=proj == proj[zero], projection=proj))
    return EtaleInstance(
        space, base, tuple(base_points), q, base_leq, tuple(stalks)
    )


def _decomposition(space, base):
    """q, the base points and their order for a named base: (Y, k, the
    order on Y) or (Z, m.k, the discrete order).  This is the one place
    that names a base."""
    if not space.algebra.finite:
        raise AlgebraError("etale instances need a finite dual space")
    if base == BASE_PRIME:
        base_points, raw = space.y_points, space.k
        base_leq = space.order.leq[np.ix_(base_points, base_points)]
    elif base == BASE_MAXIMAL:
        base_points, raw = space.z_points, space.mk
        base_leq = np.eye(len(base_points), dtype=bool)
    else:
        raise AlgebraError(f"unknown base {base!r}")
    return np.searchsorted(base_points, raw), base_points, base_leq


def build_etale(space, base):
    """The bundle over Y via k, or over Z via m.k, with tabulated stalks."""
    return decomposition_sheaf(space, *_decomposition(space, base), base=base)


# -- patching ---------------------------------------------------------------


@dataclass(frozen=True)
class PatchResult:
    ok: bool
    patched: np.ndarray | None = None  # boolean row over the points
    element: int | None = None
    violation: tuple | None = None  # (l, m, witness point)


def check_property_p(space, base, cover, downsets):
    """Patch clopen downsets K_l along a base cover.

    cover and downsets are boolean matrices with one row per patch and one
    column per point of X.  Cover rows mark upsets of the base order (any
    subsets of the discrete Z) whose union is the base; each downset row
    must be some a-hat.  If the compatibility K_l = K_m over
    q^{-1}(U_l & U_m) holds, the union of the K_l & q^{-1}(U_l) is returned
    with the element realizing it as a hat; otherwise the first violating
    pair and a witness point.
    """
    q, base_points, base_leq = _decomposition(space, base)
    npts = len(space.member)
    require_rows(cover, npts, ndim=2, of="the points")
    require_rows(downsets, npts, ndim=2, of="the points")
    if len(cover) != len(downsets):
        raise AlgebraError("cover and downset lists must align")
    stray = cover.copy()
    stray[:, base_points] = False
    if stray.any():
        raise AlgebraError(f"cover names {np.argwhere(stray)[0][1]}, not a base point")
    inside = cover[:, base_points]  # patch l holds base position b
    if not inside.any(axis=0).all():
        raise AlgebraError("the given family does not cover the base")
    if (inside[:, :, None] & ~inside[:, None, :] & base_leq).any():
        raise AlgebraError("a cover set is not an upset")
    if (space.hat_elements(downsets) < 0).any():
        raise AlgebraError("a patch set is not of the form a-hat")
    pre = inside[:, q]  # the points of X over each cover set
    bad = (downsets[:, None] ^ downsets[None, :]) & pre[:, None] & pre[None, :]
    if bad.any():
        l, m, x = np.argwhere(bad)[0].tolist()
        return PatchResult(ok=False, violation=(l, m, x))
    union = (downsets & pre).any(axis=0)
    if not space.order.is_downset(union):
        raise AlgebraError("patched set is not a downset")
    elem = int(space.hat_elements(union))
    if elem < 0:
        raise AlgebraError("patched downset is not a hat set")
    return PatchResult(ok=True, patched=union, element=elem)


# -- sections ----------------------------------------------------------------


def _images(inst):
    """Each element's tuple of stalk classes, one entry per base point."""
    proj = np.array([st.projection for st in inst.stalks])
    return [tuple(img) for img in proj.T.tolist()]


def global_sections(inst, cap=10**6):
    """All locally representable assignments, in lexicographic stalk order.

    An assignment qualifies if every base point has an algebra element
    whose stalk classes match on the point's least neighborhood.
    """
    sizes = [st.size for st in inst.stalks]
    total = 1
    for s in sizes:
        total *= s
        if total > cap:
            raise CapExceeded(f"stalk product exceeds {cap}")
    images = _images(inst)
    # the positions above each base position: its least neighborhood
    hoods = [np.flatnonzero(row).tolist() for row in inst.base_leq]
    local = [{tuple(img[p] for p in hood) for img in images} for hood in hoods]
    return [
        cand
        for cand in itertools.product(*(range(s) for s in sizes))
        if all(
            tuple(cand[p] for p in hood) in seen
            for hood, seen in zip(hoods, local)
        )
    ]


def eta_check(inst, cap=10**6):
    """Compare a |-> (classes of a) against the global sections.

    Returns the JSON-ready report; isomorphism means injective, surjective
    onto the sections, and operation-preserving.  The last test reads each
    stalk's negation and addition off its class representatives (the first
    element of each class), which is where the MV operations descend to the
    lattice stalks.
    """
    alg = inst.space.algebra
    images = _images(inst)
    report = {
        "schema": SCHEMA,
        "base": inst.base,
        "stalks": [
            {
                "point": int(st.point),
                "ideal": np.flatnonzero(st.ideal).tolist(),
                "size": st.size,
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
    neg_bad = np.zeros(alg.n, dtype=bool)
    oplus_bad = np.zeros((alg.n, alg.n), dtype=bool)
    for st in inst.stalks:
        proj = st.projection
        rep = np.unique(proj, return_index=True)[1][proj]
        neg_bad |= proj[alg.neg] != proj[alg.neg[rep]]
        oplus_bad |= proj[alg.oplus] != proj[alg.oplus[np.ix_(rep, rep)]]
    bad = neg_bad | oplus_bad.any(axis=1)
    if bad.any():
        a = int(np.argmax(bad))
        if neg_bad[a]:
            report["witness"] = {"neg-breaks-at": a}
        else:
            b = int(np.argmax(oplus_bad[a]))
            report["witness"] = {"oplus-breaks-at": [a, b]}
        return report
    report["isomorphism"] = True
    report["witness"] = {"injective": True, "surjective": True, "hom": True}
    return report


# -- remainder solving --------------------------------------------------------


def crt_solve(alg, ideals, targets):
    """The unique element congruent to each target modulo its ideal.

    ideals is a boolean matrix, one MV ideal per row, with zero
    intersection; targets must be pairwise compatible, modulo the join of
    the two ideals.  targets is one target per ideal, or a 2-D array of
    such rows: then every row is solved at once against ideals validated
    once, and an array of solutions comes back.  A solution is congruent
    to every target, so compatibility is only scanned, for the message,
    when there is none or more than one; a 2-D call names the first such
    row.
    """
    require_rows(ideals, alg.n, ndim=2)
    t = np.asarray(targets, dtype=np.intp)
    if not len(ideals) or t.ndim not in (1, 2) or t.shape[-1] != len(ideals):
        raise AlgebraError("need matching nonempty ideal and target lists")
    for row in ideals:
        if not decided(alg, is_mv_ideal, row):
            raise AlgebraError("remainder solving needs MV ideals")
    if ideals.all(axis=0).nonzero()[0].tolist() != [alg.zero]:
        raise AlgebraError("the ideals do not intersect to zero")
    # b is congruent to t modulo I when both b ominus t and t ominus b lie
    # in I: one gather per direction gives every row's class under every
    # ideal at once, shaped rows x ideals x carrier
    rows = t.reshape(-1, len(ideals))
    which = np.arange(len(ideals))[:, None]
    solved = (
        ideals[which, alg.ominus[:, rows].transpose(1, 2, 0)]
        & ideals[which, alg.ominus[rows, :]]
    ).all(axis=1)
    found = solved.sum(axis=1)
    if (found != 1).any():
        r = int(np.flatnonzero(found != 1)[0])
        message = _crt_failure(alg, ideals, rows[r].tolist(), int(found[r]))
        raise AlgebraError(message if t.ndim == 1 else f"row {r}: {message}")
    out = solved.argmax(axis=1)
    return int(out[0]) if t.ndim == 1 else out


def _crt_failure(alg, ideals, targets, found):
    """Why one row of targets has no unique solution."""
    for l in range(len(ideals)):
        for m in range(l + 1, len(ideals)):
            join = oplus_bar(alg, ideals[l], ideals[m])
            if not ideal_congruent(alg, targets[l], targets[m], join):
                return f"targets {l} and {m} are incompatible modulo the join"
    return f"expected a unique solution, found {found}"


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
    # patch i is the MV points whose ideal holds u_i: column u_i of their rows
    y_rows = space.member[space.in_y]
    patches = y_rows[:, units].T
    if not patches.any(axis=0).all():
        raise AlgebraError("the unit patches do not cover the MV points")

    def congruent(a, b, rows):  # modulo the ideal of every row
        return bool((rows[:, alg.ominus[a, b]] & rows[:, alg.ominus[b, a]]).all())

    for i in range(len(units)):
        for j in range(i + 1, len(units)):
            shared = y_rows[patches[i] & patches[j]]
            if not congruent(targets[i], targets[j], shared):
                raise AlgebraError(f"targets {i} and {j} disagree on a shared patch")

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
            congruent(b, targets[i], y_rows[patches[i]]) for i in range(len(units))
        ):
            return t, b
        if towers_stable(t):
            raise AlgebraError("stabilized join misses a patch class")
        t += 1


def tower_sandwich(space, a, u):
    """Bounds for the stabilized tower intersections of the pairs (a, u).

    a and u are equal-length index arrays.  For each pair, hat(a) &
    k^{-1}(hat(u) complement) sits inside the intersection of the tower
    hats, which sits inside the down-closure of the left side.  Every tower
    advances together, at most |A| steps; both inclusions are asserted once
    and the three sets come back as boolean arrays, pairs x points.
    """
    alg, member = space.algebra, space.member
    a, u = np.atleast_1d(a), np.atleast_1d(u)
    hat_a = ~member[:, a].T
    useen = member[space.k[:, None], u].T  # u lies in the ideal of k(x)
    lhs = hat_a & useen
    mid = hat_a.copy()
    cur = a
    for _ in range(alg.n):
        nxt = alg.ominus[cur, u]
        if (nxt == cur).all():
            break
        cur = nxt
        mid &= ~member[:, cur].T
    if (alg.ominus[cur, u] != cur).any():
        raise AlgebraError("difference tower failed to stabilize")
    rhs = hat_a & _bool_mm(useen, space.order.leq.T)
    if (lhs & ~mid).any() or (mid & ~rhs).any():
        raise AlgebraError("tower bounds fail")
    return lhs, mid, rhs
