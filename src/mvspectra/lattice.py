"""Finite posets, bounded distributive lattices, and the prime-ideal duality.

Order data lives in dense numpy boolean matrices: ``leq[i, j]`` holds when
element ``i`` lies below element ``j``.  At the scales this package targets
(a few thousand elements) dense tables beat anything clever, and every
topological notion collapses to order: open downsets are just downsets,
closed sets are upsets, and continuity of a map is checkable by finite
preimage identities.  That translation is used throughout without further
comment.

A point of the dual space is its boolean membership row, member[x, a]
saying that a lies in the prime ideal of x; the dual order (row
inclusion) and the Stone map (a column) are read off that matrix.  A
subset of the points of a finite poset (a downset, an order component, a
Stone image) is in turn a boolean row over the points, and a family of
them a boolean matrix.  _row_finder finds rows among rows by their
np.packbits keys, sorted once and searched with np.searchsorted; the join
and meet tables of the downset lattice, duality_roundtrip and the inverse
of the Stone map in spectrum.py all look rows up through it.

congruence_of_subspace turns a subspace of the dual into the lattice
congruence it induces; sheaf.py builds the stalks of both sheaf
representations with it.  The tests hold it against a definitional
congruence closure.

chain_factors names the isomorphism type of a product of chains by the
sorted chain lengths of its join-irreducible poset; the Kaplansky
comparison in spectrum.py compares reducts by it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapExceeded, LatticeError, NotDistributiveError, PosetError
from .mv import PRODUCT_CAP, TABLE_DTYPE


def _bool_mm(a, b):
    # boolean matrix product through float32 BLAS: each entry counts the
    # witnesses, exactly while the inner dimension stays below 2**24
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0.5


def transitive_closure(rel):
    """Reflexive-transitive closure of a square boolean relation."""
    rel = np.asarray(rel, dtype=bool).copy()
    np.fill_diagonal(rel, True)
    while True:
        nxt = rel | _bool_mm(rel, rel)
        if (nxt == rel).all():
            return rel
        rel = nxt


class FinitePoset:
    """A partial order on elements 0..n-1, given by its full leq matrix.

    The matrix is taken as an order and never checked: the dual order is
    one by construction, and verify's duality-roundtrip certifies it."""

    def __init__(self, leq):
        leq = np.array(leq, dtype=bool)
        if leq.ndim != 2 or leq.shape[0] != leq.shape[1]:
            raise PosetError("leq must be a square boolean matrix")
        self.leq = leq
        self.n = int(leq.shape[0])

    @cached_property
    def covers(self):
        """covers[i, j] holds when j covers i (i < j with nothing between)."""
        lt = self.leq & ~np.eye(self.n, dtype=bool)
        return lt & ~_bool_mm(lt, lt)

    def is_downset(self, row):
        """Whether the boolean row holds every point below one of its members."""
        return bool(row[self.leq[:, row].any(axis=1)].all())

    def downsets(self, limit=None):
        """All downsets, one boolean row each, in a deterministic generation
        order.

        Processing elements along a linear extension keeps the scan simple:
        a downset may absorb element e exactly when it already contains
        everything strictly below e.
        """
        strict_below = self.leq & ~np.eye(self.n, dtype=bool)
        rows = np.zeros((1, self.n), dtype=bool)
        for e in np.argsort(self.leq.sum(axis=0), kind="stable").tolist():
            grown = rows[rows[:, strict_below[:, e]].all(axis=1)]
            grown[:, e] = True
            rows = np.vstack([rows, grown])
            if limit is not None and len(rows) > limit:
                raise CapExceeded(f"more than {limit} downsets")
        return rows

    @cached_property
    def order_components(self):
        """Connected components of the comparability graph, one boolean row
        each, in canonical order."""
        return _distinct_rows(transitive_closure(self.leq | self.leq.T))

    def to_dot(self, labels=None, doublecircle=(), filled=()):
        """Hasse diagram in DOT, bottom-up; decorations mark point classes."""
        labels = labels if labels is not None else [str(i) for i in range(self.n)]
        lines = ["digraph poset {", "  rankdir=BT;", '  node [shape=circle];']
        for i in range(self.n):
            attrs = [f'label="{labels[i]}"']
            if i in doublecircle:
                attrs.append("peripheries=2")
            if i in filled:
                attrs.append('style=filled fillcolor=gray80')
            lines.append(f"  n{i} [{' '.join(attrs)}];")
        for i, j in np.argwhere(self.covers).tolist():
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"


class FiniteDistLattice:
    """A finite bounded distributive lattice with explicit operation tables.

    labels, when given, name the elements (lattice_from_downsets labels
    each by its downset); they play no role in the algebra.  The tables are
    taken as given: a reduct is a lattice by Chang's laws, which verify's
    axioms row checks, and a downset lattice is one by construction.
    """

    def __init__(self, leq, join, meet, labels=None):
        # asarray: a reduct shares its algebra's tables instead of copying
        self.leq = np.asarray(leq, dtype=bool)
        self.join = np.asarray(join)
        self.meet = np.asarray(meet)
        self.n = int(self.leq.shape[0])
        self.labels = tuple(labels) if labels is not None else tuple(range(self.n))
        if self.join.shape != (self.n, self.n) or self.meet.shape != (self.n, self.n):
            raise LatticeError("join/meet tables must be n x n")
        bots = np.flatnonzero(self.leq.all(axis=1))
        tops = np.flatnonzero(self.leq.all(axis=0))
        if len(bots) != 1 or len(tops) != 1:
            raise LatticeError("lattice must have a unique bottom and top")
        self.bot = int(bots[0])
        self.top = int(tops[0])

    def validate_distributive(self):
        """Raise NotDistributiveError (with a witness triple) when it fails.

        The test is structural: a is determined by the join-irreducibles
        below it and those element sets exhaust the downsets of the
        join-irreducible subposet exactly in the distributive case.  The
        cubic scan runs only on failure, to name the witness.
        """
        ji = self.join_irreducibles
        below = self.leq[ji].T  # below[a, i]: join-irreducible i lies below a
        try:
            downs = FinitePoset(self.leq[np.ix_(ji, ji)]).downsets(limit=self.n)
            found = _row_finder(downs)(below)  # each element's downset, or -1
            # n downsets, each hit once (bincount: np.unique loads numpy.ma)
            ok = len(downs) == self.n and found.min() >= 0 and (np.bincount(found) == 1).all()
        except CapExceeded:
            ok = False
        if not ok:
            raise NotDistributiveError(self._distributivity_witness())

    def _distributivity_witness(self):
        n = self.n
        for a in range(n):
            lhs = self.meet[a, self.join]
            rhs = self.join[self.meet[a, :][:, None], self.meet[a, :][None, :]]
            bad = np.argwhere(lhs != rhs)
            if len(bad):
                b, c = (int(v) for v in bad[0])
                return (a, b, c)
        return None

    # -- structure ---------------------------------------------------------

    @cached_property
    def join_irreducibles(self):
        """Non-bottom elements with exactly one lower cover, ascending: the
        j whose strict downset joins to something other than j, one O(n^2)
        fold of the join table (the bottom's empty join is itself)."""
        below = self.leq & ~np.eye(self.n, dtype=bool)
        acc = np.full(self.n, self.bot)
        for i in range(self.n):  # join commutes, so read row i: contiguous
            acc = np.where(below[i], self.join[i, acc], acc)
        return [int(j) for j in np.flatnonzero(acc != np.arange(self.n))]


# -- dual space ------------------------------------------------------------


def _closed_set(order, op, inside):
    """The boolean row inside is nonempty, order[a, b] never leads from
    outside to inside, and op keeps every pair of members inside: the one
    test behind lattice ideals and filters here and MV-ideals in mv.py."""
    idx = inside.nonzero()[0]
    return bool(
        idx.size
        and inside[order[:, idx].any(axis=1)].all()
        and inside[op[idx[:, None], idx]].all()
    )


def _closure(order, op, inside):
    """Least superset of the boolean row inside with no order[a, b] from
    outside to inside and with op keeping every pair of members inside,
    as a row: the slow fixpoint behind the closure oracles.  Rounds are
    semi-naive: only the members added last round have their order images
    taken and are paired by op with all members, since every older pair
    was handled when its younger end was added.  A round whose order
    images cover the carrier (a member above everything has entered)
    returns the whole carrier, which is then the fixpoint."""
    inside = inside.copy()
    new = inside.nonzero()[0]
    while new.size:
        hit = order[:, new].any(axis=1)
        if hit.all():
            return hit
        idx = inside.nonzero()[0]
        hit[op[new[:, None], idx]] = True
        if idx.size > new.size:  # else new is idx and this is the same set
            hit[op[idx[:, None], new]] = True
        new = (hit & ~inside).nonzero()[0]
        inside |= hit
    return inside


def is_lattice_ideal(lat, row):
    """Nonempty downset closed under pairwise joins, given as a boolean row;
    lat is anything with leq and join tables (a lattice or an MV-algebra)."""
    return _closed_set(lat.leq, lat.join, row)


def is_lattice_filter(lat, row):
    """Nonempty upset closed under pairwise meets."""
    return _closed_set(lat.leq.T, lat.meet, row)


def _canonical(rows):
    """The rows in canonical order: ascending by their member tuples.

    A row's key is its members ascending, counted from 1 and padded at the
    end with 0, so that a prefix sorts first, in big-endian uint16 bytes
    (the carrier cap keeps every count below 2**16): byte order is then
    tuple order, and one stable sort of the np.void keys orders the rows."""
    pad = np.iinfo(np.uint16).max
    key = np.where(rows, np.arange(1, rows.shape[-1] + 1, dtype=np.uint16), pad)
    key.sort(axis=-1)
    key[key == pad] = 0
    return rows[np.argsort(_keys(key.astype(">u2").view(np.uint8)), kind="stable")]


def enumerate_prime_ideals(lat):
    """The dual-space points as boolean membership rows in canonical order:
    member[x, a] says that a lies in the prime ideal of point x.

    Fast path: the prime ideals of a finite distributive lattice are exactly
    the sets {a : j not<= a} for j join-irreducible, so each row is the
    complement of a row of leq.  The tests hold it against a brute-force
    scan over all downsets.
    """
    return _canonical(~lat.leq[np.array(lat.join_irreducibles, dtype=np.intp)])


def stone_map(lat, a, member=None):
    """The clopen downset of points whose ideal omits a, as a boolean row
    over the points: the complement of column a of the membership rows."""
    if member is None:
        member = enumerate_prime_ideals(lat)
    return ~member[:, a]


def dual_order(member):
    """Specialization order on points: inclusion of ideals, x <= y when no
    member of I_x lies outside I_y."""
    return FinitePoset(~_bool_mm(member, ~member.T))


def _keys(packed):
    """Rows of np.packbits bytes (the last axis) as one np.void key each."""
    packed = np.ascontiguousarray(packed)
    return packed.view(np.dtype((np.void, packed.shape[-1])))[..., 0]


def _distinct_rows(rows):
    """The distinct boolean rows of a matrix, in canonical order."""
    first = np.unique(_keys(np.packbits(rows, axis=-1)), return_index=True)[1]
    return _canonical(rows[first])


def _level_sets(values):
    """The level sets of an array of indices over the points, one boolean
    row per value it takes, in canonical order.  np.bincount finds the
    values: np.unique would load numpy.ma into the process."""
    taken = np.flatnonzero(np.bincount(values))
    return _canonical(values == taken[:, None])


def _row_finder(rows):
    """find(queries): the position among the boolean rows of each query
    row, -1 where none is equal.  Queries are boolean rows or their
    np.packbits bytes.  The rows' packed keys are sorted once and searched
    with np.searchsorted, and each hit is checked for equality."""
    keys = _keys(np.packbits(rows, axis=-1))
    by_key = np.argsort(keys)
    ordered = keys[by_key]

    def find(queries):
        wanted = _keys(np.packbits(queries, axis=-1) if queries.dtype == bool else queries)
        at = np.searchsorted(ordered, wanted).clip(max=len(ordered) - 1)
        return np.where(ordered[at] == wanted, by_key[at], -1)

    return find


def lattice_from_downsets(poset):
    """The lattice of all downsets of a poset, labelled by those downsets
    (boolean rows), ordered by size and then by the rows read as binary
    numbers with point k worth 2**k.

    The union and intersection of every pair are formed on the packed
    rows and found among the downsets by _row_finder, a block of rows at a
    time.  Both operations commute, so each block starts at its own first
    row and the lower triangle is mirrored in at the end."""
    rows = poset.downsets(limit=PRODUCT_CAP)
    rows = rows[np.lexsort(np.vstack([rows.T, rows.sum(axis=1)]))]
    find = _row_finder(rows)
    packed = np.packbits(rows, axis=-1)
    n, width = packed.shape
    join = np.empty((n, n), dtype=TABLE_DTYPE)
    meet = np.empty((n, n), dtype=TABLE_DTYPE)
    block = max(1, (1 << 20) // (n * width))
    for lo in range(0, n, block):
        left = packed[lo:lo + block, None]
        join[lo:lo + block, lo:] = find(left | packed[None, lo:])
        meet[lo:lo + block, lo:] = find(left & packed[None, lo:])
    lower = np.tri(n, k=-1, dtype=bool)
    join[lower] = join.T[lower]
    meet[lower] = meet.T[lower]
    leq = meet == np.arange(n)[:, None]
    return FiniteDistLattice(leq, join, meet, labels=rows)


@dataclass(frozen=True)
class DualityWitness:
    """Everything the round trip produced, for inspection and replay;
    points holds the membership rows of the dual space."""

    points: np.ndarray
    poset: FinitePoset
    downset_lattice: FiniteDistLattice
    iso: tuple


def duality_roundtrip(lat):
    """Rebuild the lattice from its dual poset and certify the isomorphism.

    Raises NotDistributiveError (with witness) on nondistributive input.
    """
    lat.validate_distributive()
    member = enumerate_prime_ideals(lat)
    poset = dual_order(member)
    dl = lattice_from_downsets(poset)
    # row a of ~member.T is the Stone image of a
    iso = _row_finder(np.array(dl.labels))(~member.T)
    if (iso < 0).any():
        a = int(np.argmax(iso < 0))
        raise LatticeError(f"stone image of {a} is not a downset of the dual")
    if dl.n != lat.n or (np.bincount(iso) != 1).any():
        raise LatticeError("stone map is not a bijection onto downsets")
    if (iso[lat.join] != dl.join[iso[:, None], iso[None, :]]).any():
        raise LatticeError("stone map does not preserve joins")
    if (iso[lat.meet] != dl.meet[iso[:, None], iso[None, :]]).any():
        raise LatticeError("stone map does not preserve meets")
    if int(iso[lat.bot]) != dl.bot or int(iso[lat.top]) != dl.top:
        raise LatticeError("stone map does not preserve bounds")
    return DualityWitness(
        points=member, poset=poset, downset_lattice=dl, iso=tuple(int(i) for i in iso)
    )


# -- the closed-subspace correspondence -------------------------------------


def congruence_of_subspace(member):
    """Each element's class under the congruence no point of a subspace
    separates, numbered by first occurrence.

    member holds one boolean row per point of the subspace, member[x, a]
    saying that a lies in the ideal of x, so two elements are related when
    their columns agree.  This is the congruence half of the correspondence
    between closed subspaces of the dual and lattice congruences; the sheaf
    engine reads every stalk off it.
    """
    _, first, inverse = np.unique(
        member.T, axis=0, return_index=True, return_inverse=True
    )
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse.reshape(-1)]


# -- the isomorphism type of a product of chains -------------------------------


def chain_factors(lat):
    """The sorted lengths of the chains whose disjoint union is the
    join-irreducible poset of lat, read off leq and join alone.

    Two finite distributive lattices are isomorphic exactly when their
    join-irreducible posets are (Birkhoff), and two disjoint unions of
    chains exactly when their sorted chain lengths agree; the reduct of a
    finite MV-algebra, a product of chains, has such a poset.  It is one
    exactly when comparability is an equivalence, i.e. when its distinct
    rows are pairwise disjoint; each such row is then one chain.
    """
    ji = lat.join_irreducibles
    leq = lat.leq[np.ix_(ji, ji)]
    chains = _distinct_rows(leq | leq.T)
    if (chains.sum(axis=0) != 1).any():
        raise LatticeError("join-irreducibles are not a disjoint union of chains")
    return sorted(chains.sum(axis=1).tolist())
