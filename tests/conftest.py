"""Shared test support: the finite algebra family, relabelling, lattices
built from order data, and the validators of orders and lattices that the
package builds without checking."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from mvspectra.errors import AlgebraError, CapExceeded, LatticeError, PosetError
from mvspectra.idealarith import ominus_bar, oplus_bar
from mvspectra.lattice import (
    FiniteDistLattice,
    FinitePoset,
    _bool_mm,
    _closure,
    is_lattice_ideal,
    transitive_closure,
)
from mvspectra.mv import (
    SCHEMA,
    MvAlgebra,
    congruence_class,
    enumerate_mv_ideals,
    ideal_generated,
    is_mv_ideal,
    lukasiewicz_chain,
    product,
)


def build_family(max_carrier):
    fam = {}
    for n in range(1, 9):
        if n + 1 <= max_carrier:
            fam[f"L{n}"] = lukasiewicz_chain(n)
    for a in range(1, 9):
        for b in range(a, 9):
            if (a + 1) * (b + 1) <= max_carrier:
                fam[f"L{a}xL{b}"] = product(
                    lukasiewicz_chain(a), lukasiewicz_chain(b)
                )
    return fam


@pytest.fixture(scope="session")
def family():
    """Full acceptance-scale family: carrier up to 64."""
    return build_family(64)


@pytest.fixture(scope="session")
def small_family():
    """For the pricier per-proposition scans: carrier up to 24."""
    return build_family(24)


def relabelled(alg, perm, validate=True):
    """The same algebra with element a renamed perm[a]."""
    perm = np.asarray(perm)
    inv = np.argsort(perm)
    return MvAlgebra(
        perm[alg.neg[inv]],
        perm[alg.oplus[inv[:, None], inv[None, :]]],
        zero=int(perm[alg.zero]),
        labels=[alg.labels[a] for a in inv],
        validate=validate,
    )


def subset(n, *members):
    """The boolean row over 0..n-1 holding the given elements."""
    return np.isin(np.arange(n), members)


def poset_from_pairs(n, pairs):
    """Poset from generating pairs (i, j) meaning i <= j; closure is taken."""
    rel = np.zeros((n, n), dtype=bool)
    for i, j in pairs:
        rel[i, j] = True
    return FinitePoset(transitive_closure(rel))


def algebra_to_json(alg):
    """The explicit-tables JSON form of an algebra, as algebra_from_json reads it."""
    return {
        "schema": SCHEMA,
        "kind": "tables",
        "zero": alg.zero,
        "neg": [int(v) for v in alg.neg],
        "oplus": [[int(v) for v in row] for row in alg.oplus],
        "labels": list(alg.labels),
    }


def difference_tower(alg, a, u):
    """The chain a, a-u, a-2u, ... up to stabilization (at most |A| steps):
    the scalar form of the towers sheaf.tower_sandwich advances together."""
    seq = [a]
    for _ in range(alg.n):
        nxt = int(alg.ominus[seq[-1], u])
        if nxt == seq[-1]:
            break
        seq.append(nxt)
    if int(alg.ominus[seq[-1], u]) != seq[-1]:
        raise AlgebraError("difference tower failed to stabilize")
    return seq


# -- validators of the orders and lattices the package builds unchecked ---------


def validate_poset(poset):
    """Raise PosetError unless poset.leq is reflexive, antisymmetric and
    transitive, naming the first failure."""
    leq, n = poset.leq, poset.n
    if not leq.diagonal().all():
        i = int(np.flatnonzero(~leq.diagonal())[0])
        raise PosetError(f"not reflexive at element {i}")
    bad = leq & leq.T & ~np.eye(n, dtype=bool)
    if bad.any():
        i, j = (int(v) for v in np.argwhere(bad)[0])
        raise PosetError(f"not antisymmetric: {i} <= {j} and {j} <= {i}")
    gap = _bool_mm(leq, leq) & ~leq
    if gap.any():
        i, j = (int(v) for v in np.argwhere(gap)[0])
        raise PosetError(f"not transitive: {i} and {j}")


def _lub(leq, a, b):
    ub = np.flatnonzero(leq[a, :] & leq[b, :])
    for u in ub:
        if leq[u, ub].all():
            return int(u)
    raise LatticeError(f"elements {a} and {b} have no least upper bound")


def _glb(leq, a, b):
    lb = np.flatnonzero(leq[:, a] & leq[:, b])
    for u in lb[::-1]:
        if leq[lb, u].all():
            return int(u)
    raise LatticeError(f"elements {a} and {b} have no greatest lower bound")


def validate_lattice(lat):
    """Raise unless lat is a bounded distributive lattice: its order is a
    poset, its join and meet tables hold the least upper and greatest lower
    bounds read off the order one pair at a time, and it is distributive."""
    validate_poset(FinitePoset(lat.leq))
    for a in range(lat.n):
        for b in range(lat.n):
            if int(lat.join[a, b]) != _lub(lat.leq, a, b):
                raise LatticeError(f"join table wrong at ({a}, {b})")
            if int(lat.meet[a, b]) != _glb(lat.leq, a, b):
                raise LatticeError(f"meet table wrong at ({a}, {b})")
    lat.validate_distributive()


def lattice_from_leq(leq):
    """Lattice tables read off an order matrix; PosetError if leq is no
    order, LatticeError if some lub or glb is missing, NotDistributiveError
    if the lattice is not distributive."""
    poset = FinitePoset(leq)
    validate_poset(poset)
    n = poset.n
    join = np.zeros((n, n), dtype=np.int64)
    meet = np.zeros((n, n), dtype=np.int64)
    for a in range(n):
        for b in range(a, n):
            join[a, b] = join[b, a] = _lub(poset.leq, a, b)
            meet[a, b] = meet[b, a] = _glb(poset.leq, a, b)
    lat = FiniteDistLattice(poset.leq, join, meet)
    lat.validate_distributive()
    return lat


def chain_lattice(n):
    """The n-element chain 0 < 1 < ... < n-1 as a lattice."""
    idx = np.arange(n)
    return FiniteDistLattice(
        idx[:, None] <= idx[None, :], np.maximum.outer(idx, idx), np.minimum.outer(idx, idx)
    )


def canonical_reference(rows):
    """The rows ascending by their member tuples, by a sort of Python
    tuples: the reference for the byte-key sort of lattice._canonical."""
    keys = [tuple(np.flatnonzero(row).tolist()) for row in rows]
    return rows[sorted(range(len(keys)), key=keys.__getitem__)]


# -- int-bitmask references for the boolean-row order routines of lattice -------


def downsets_reference(poset, limit=None):
    """All downsets as int bitmasks (bit k for point k) in the generation
    order of FinitePoset.downsets: along a linear extension, a downset
    absorbs e when it already holds everything strictly below e."""
    order = sorted(range(poset.n), key=lambda e: (int(poset.leq[:, e].sum()), e))
    strict_down = [
        int(sum(1 << int(i) for i in np.flatnonzero(poset.leq[:, e]))) & ~(1 << e)
        for e in range(poset.n)
    ]
    result = [0]
    for e in order:
        need = strict_down[e]
        result.extend([d | 1 << e for d in result if d & need == need])
        if limit is not None and len(result) > limit:
            raise CapExceeded(f"more than {limit} downsets")
    return result


def mask_rows(masks, n):
    """The int bitmasks as boolean rows over 0..n-1."""
    return np.array([[m >> k & 1 for k in range(n)] for m in masks], dtype=bool).reshape(-1, n)


def order_components_reference(poset):
    """Components of the comparability graph by breadth-first search, as
    frozensets in order of their least points."""
    comp = poset.leq | poset.leq.T
    seen = [False] * poset.n
    out = []
    for start in range(poset.n):
        if seen[start]:
            continue
        block, stack = set(), [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            block.add(v)
            for w in np.flatnonzero(comp[v]).tolist():
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        out.append(frozenset(block))
    return sorted(out, key=min)


def lattice_from_downsets_reference(poset):
    """The downset lattice by a double loop over all pairs of bitmasks: the
    reference for the packed-key search of lattice.lattice_from_downsets."""
    masks = sorted(downsets_reference(poset), key=lambda m: (bin(m).count("1"), m))
    labels = mask_rows(masks, poset.n)
    index = {m: i for i, m in enumerate(masks)}
    n = len(masks)
    leq = np.zeros((n, n), dtype=bool)
    join = np.zeros((n, n), dtype=np.int64)
    meet = np.zeros((n, n), dtype=np.int64)
    for i, mi in enumerate(masks):
        for j, mj in enumerate(masks):
            leq[i, j] = mi & ~mj == 0
            join[i, j] = index[mi | mj]
            meet[i, j] = index[mi & mj]
    return FiniteDistLattice(leq, join, meet, labels=labels)


def posets_isomorphic_reference(p, q):
    """Whether some bijection f has p.leq[a, b] == q.leq[f[a], f[b]] for
    all a, b: a brute force over every permutation, for posets of at most
    about 7 points; the oracle of lattice.chain_factors."""
    if p.n != q.n:
        return False
    return any(
        (p.leq == q.leq[np.ix_(f, f)]).all() for f in itertools.permutations(range(p.n))
    )


# -- oracles of the prime ideals, the maximal MV-ideals and the stalks -----------


def odot(alg):
    """The table of a odot b = neg(neg a oplus neg b)."""
    idx = np.arange(alg.n)
    return alg.neg[alg.oplus[alg.neg[idx][:, None], alg.neg[idx][None, :]]]


def is_prime_ideal(lat, row):
    """Proper lattice ideal holding a or b whenever it holds a meet b."""
    if not is_lattice_ideal(lat, row) or row.all():
        return False
    return not (row[lat.meet] & ~row[:, None] & ~row[None, :]).any()


def prime_ideals_bruteforce(lat, limit=2_000_000):
    """Oracle path: scan every downset of the carrier order."""
    rows = FinitePoset(lat.leq).downsets(limit=limit)
    return canonical_reference(rows[[is_prime_ideal(lat, row) for row in rows]])


def is_maximal_mv_ideal(alg, row):
    """Proper MV-ideal whose every one-element extension generates the whole
    carrier; the slow oracle for maximal_mv_ideals."""
    if not is_mv_ideal(alg, row) or row.all():
        return False
    one_more = np.arange(alg.n) == np.flatnonzero(~row)[:, None]
    return all(ideal_generated(alg, row | extra).all() for extra in one_more)


@dataclass(frozen=True)
class Quotient:
    algebra: MvAlgebra
    projection: tuple


def quotient(alg, ideal):
    """Quotient by the congruence of an MV-ideal row, each class named by
    its least element, classes in carrier order; the oracle the tests hold
    the sheaf stalks against."""
    if not is_mv_ideal(alg, ideal):
        raise AlgebraError("quotient requires an MV-ideal")
    least = congruence_class(alg, np.arange(alg.n), ideal).argmax(axis=1)
    reps = np.flatnonzero(least == np.arange(alg.n))
    proj = np.searchsorted(reps, least)
    return Quotient(
        algebra=MvAlgebra(
            proj[alg.neg[reps]],
            proj[alg.oplus[np.ix_(reps, reps)]],
            zero=int(proj[alg.zero]),
            labels=tuple(alg.labels[r] for r in reps),
            validate=False,
        ),
        projection=tuple(proj.tolist()),
    )


# -- closure-fixpoint oracles for the ideal arithmetic -----------------------------


def _pairwise(alg, table, left, right):
    """Boolean "hit" row over the carrier: the table entries of all pairs
    from the rows left x right."""
    hit = np.zeros(alg.n, dtype=bool)
    hit[table[np.ix_(left, right)]] = True
    return hit


def oplus_bar_oracle(alg, i, j):
    """Lattice-ideal closure of the set of pairwise sums."""
    return _closure(alg.leq, alg.join, _pairwise(alg, alg.oplus, i, j))


def ominus_bar_oracle(alg, f, i):
    """Lattice-filter closure of the set of pairwise differences."""
    return _closure(alg.leq.T, alg.meet, _pairwise(alg, alg.ominus, f, i))


def adjunction_holds(alg, f, i, j):
    """f ominus_bar i misses j exactly when f misses j oplus_bar i."""
    left = not (ominus_bar(alg, f, i) & j).any()
    right = not (f & oplus_bar(alg, j, i)).any()
    return left == right


def is_prime_mv_ideal(alg, row):
    """Proper MV-ideal containing a ominus b or b ominus a for every pair;
    the slow oracle the tests hold the dual space's Y points against."""
    if not is_mv_ideal(alg, row) or row.all():
        return False
    return bool((row[alg.ominus] | row[alg.ominus.T]).all())


def sum_table(alg, row):
    """R[b, c]: c = a oplus b for some member a of the boolean membership
    row.  The sums of the row's members with those of any set J, the hit
    row of their ideal sum, are then J's membership row times R (one
    lattice._bool_mm for many sets at once)."""
    sums = alg.oplus[row]  # one row of sums per member, indexed by b
    table = np.zeros((alg.n, alg.n), dtype=bool)
    # flat [b, sum] keys reach n * n, past TABLE_DTYPE: np.intp offsets
    # make the whole key np.intp
    table.reshape(-1)[sums + alg.n * np.arange(alg.n, dtype=np.intp)] = True
    return table


def generated_ideals(alg, hits):
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


def k_ideal_scan_reference(space):
    """k point by point: the largest MV-ideal J with I_x oplus_bar J inside
    I_x, read off the hit rows of I_x oplus J for every J through the sum
    table of I_x, as a list of points."""
    alg = space.algebra
    ideals = enumerate_mv_ideals(alg)
    out = []
    for row in space.member:
        good = ideals[~(_bool_mm(ideals, sum_table(alg, row)) & ~row).any(axis=1)]
        best = good[good.sum(axis=1).argmax()]
        assert not (good & ~best).any(), "addable ideals have no largest member"
        (point,) = np.flatnonzero((space.member == best).all(axis=1))
        out.append(int(point))
    return out


# -- scalar references for the vectorised rows of verify -----------------------
# Each returns the row's failure message, or None, by scanning the points one
# at a time in the order the row reports its first failure.


def plus_associative_reference(plus):
    n = plus.shape[0]
    for x in range(n):
        for y in range(n):
            if plus[x, y] < 0:
                continue
            for z in range(n):
                if plus[plus[x, y], z] < 0:
                    continue
                if plus[y, z] < 0 or plus[x, plus[y, z]] < 0:
                    return f"associativity domain gap at ({x}, {y}, {z})"
                if plus[plus[x, y], z] != plus[x, plus[y, z]]:
                    return f"associativity fails at ({x}, {y}, {z})"
    return None


def plus_translation_reference(plus, leq):
    n = plus.shape[0]
    for x in range(n):
        for y2 in range(n):
            if plus[x, y2] < 0:
                continue
            for y1 in np.flatnonzero(leq[:, y2]).tolist():
                if plus[x, y1] < 0:
                    return f"translation domain gap at ({x}, {y1} <= {y2})"
                if not leq[plus[x, y1], plus[x, y2]]:
                    return f"translation monotonicity fails at ({x}, {y1}, {y2})"
    return None


def plus_domain_reference(plus, leq, involution):
    n = plus.shape[0]
    dom = plus >= 0
    by_inv = leq[np.arange(n)[None, :], involution[:, None]]
    if not (dom == by_inv).all():
        return "domain of + differs from the involution description"
    for x2 in range(n):
        for y2 in range(n):
            if not dom[x2, y2]:
                continue
            if not dom[np.ix_(leq[:, x2], leq[:, y2])].all():
                return f"domain of + is not downward closed under ({x2}, {y2})"
    return None


def involution_laws_reference(space):
    inv, leq = space.involution, space.order.leq
    n = len(space.member)
    if not (inv[inv] == np.arange(n)).all():
        return "involution is not an involution"
    if not (leq == leq[np.ix_(inv, inv)].T).all():
        return "involution does not reverse the order"
    for x in range(n):
        if not (leq[x, inv[x]] or leq[inv[x], x]):
            return f"point {x} incomparable with its involute"
        addable = np.flatnonzero(space.plus[x] >= 0)
        if not leq[addable, inv[x]].all() or space.plus[x, inv[x]] < 0:
            return f"involute of {x} is not the largest addable point"
    return None


def k_fibers_reference(space):
    leq = space.order.leq
    comparable = leq | leq.T
    seen = np.zeros(len(space.member), dtype=bool)
    for y in space.y_points:
        fib = space.fiber(y)
        col = space.plus[:, y]
        if (fib != ((col >= 0) & leq[col, np.arange(len(col))])).any():
            return f"fiber over {y} differs from its description by sums"
        if not comparable[np.ix_(fib, fib)].all():
            return f"fiber over {y} is not a chain"
        seen |= fib
    if not seen.all():
        return "fibers of k miss a point"
    return None


def interpolation_reference(space):
    """The scalar form of spectrum.interpolate on every comparable pair."""
    leq, k = space.order.leq, space.k
    for x, xp in np.argwhere(leq).tolist():
        w = int(space.plus[x, k[xp]])
        if w < 0:
            return "interpolation witness sum is undefined"
        if not (leq[x, w] and leq[w, xp] and leq[k[x], k[w]] and leq[k[xp], k[w]]):
            return "interpolation witness violates its bounds"
    return None


def mk_constant_reference(space):
    for x, xp in np.argwhere(space.order.leq).tolist():
        if space.mk[x] != space.mk[xp]:
            return f"m.k differs along {x} <= {xp}"
    return None


def k_continuity_reference(space):
    """The continuity identity of k over every element: a lies in I_k(x)
    exactly when no c outside I_x has c ominus a in I_x."""
    alg, member = space.algebra, space.member
    for a in range(alg.n):
        for x in range(len(member)):
            rhs = not (member[x, alg.ominus[:, a]] & ~member[x]).any()
            if member[space.k[x], a] != rhs:
                return f"k continuity identity fails for element {a} at point {x}"
    return None


# -- the ideal-sum law of + read two ways, as two rows of verify once checked it:
# at each basic set a-hat, and as the ideal that the sums generate


def plus_continuity_reference(space):
    """The continuity identity of + over every element: on each defined
    pair (x, y), a lies in I_{x+y} exactly when a <= b oplus c for some b in
    I_x and c in I_y."""
    alg, member = space.algebra, space.member
    dom = space.plus >= 0
    safe = np.where(dom, space.plus, 0)
    oplus = alg.oplus.astype(np.intp)
    for a in range(alg.n):
        lhs = dom & member[safe, a]
        rhs = dom & _bool_mm(member, _bool_mm(alg.leq[a][oplus], member.T))
        if (lhs != rhs).any():
            x, y = np.argwhere(lhs != rhs)[0].tolist()
            return f"+ continuity identity fails for element {a} at ({x}, {y})"
    return None


def plus_ideal_sums_reference(space):
    """x + y against the ideal that the sums b oplus c of members b of I_x
    and c of I_y generate, read off the sum table of I_x: improper where
    x + y is undefined, and I_{x+y} where it is defined.  The pairs are
    scanned as (x, y) for each y >= x, each followed by (y, x)."""
    alg, member, plus = space.algebra, space.member, space.plus
    for x in range(len(member)):
        direct = generated_ideals(alg, _bool_mm(member[x:], sum_table(alg, member[x])))
        for y in range(x, len(member)):
            for p, q in ((x, y), (y, x)):
                if plus[p, q] < 0 and not direct[y - x, alg.one]:
                    return f"({p}, {q}) undefined but the ideal sum is proper"
                if plus[p, q] >= 0 and (member[plus[p, q]] != direct[y - x]).any():
                    return f"table sum at ({p}, {q}) differs from the ideal sum"
    return None
