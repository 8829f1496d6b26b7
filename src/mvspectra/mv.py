"""Finite MV-algebras as dense operation tables.

An algebra is (carrier 0..n-1, neg, oplus, zero); everything else is
derived: a ominus b = neg(neg a oplus b), a join b = (a ominus b) oplus b,
a meet b = neg(neg a join neg b).  The derived join/meet make the carrier a
bounded distributive lattice, and that reduct is where the duality lives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AlgebraError, CapExceeded

# the JSON schema tag of every document the package reads or writes
SCHEMA = "mv-spectra/1"
# the largest carrier algebra_from_json builds, checked before allocation
PRODUCT_CAP = 4096
# the dtype of every carrier and dual-space index table: an element or point
# index below PRODUCT_CAP, or the sum of two, fits it at a quarter of int64's
# size.  numpy 2 keeps int16 arithmetic in int16 (NEP 50), so a key that can
# outgrow the dtype, such as a * n + b, is computed in np.intp.
TABLE_DTYPE = np.int16
# the suites of verify.run_suite, here so that the CLI can offer them as
# --suite choices without loading verify
SUITE_NAMES = ("all", "plus", "k", "kaplansky", "sheaf-prime", "sheaf-maximal", "crt")


@dataclass(frozen=True)
class AxiomViolation:
    """First failed law, with the lexicographically least witness tuple."""

    law: str
    witness: tuple
    witness_labels: tuple

    def __str__(self):
        pretty = ", ".join(str(w) for w in self.witness_labels)
        return f"axiom {self.law} fails at ({pretty})"


class MvAlgebra:
    """Carrier 0..n-1 with negation and truncated-addition tables.

    labels name elements for display and JSON; they carry no structure.
    The tables are stored as TABLE_DTYPE; an array already in that dtype
    is taken as it is, shared, not copied.  Construction always rejects
    malformed tables, the empty or trivial carrier and one over PRODUCT_CAP;
    validate=False skips only the axiom checks, so negative tests can build
    deliberately broken tables.  finite, dual_space() and
    first_violation(bound) are the carrier protocol of chang.ChangAlgebra
    too; here the scan is exact, so the bound of its window plays no role.
    """

    finite = True

    def __init__(self, neg, oplus, zero=0, labels=None, validate=True):
        # before any conversion: past the dtype, entries of a carrier over
        # the cap would read as out of range
        try:
            size = len(neg)
        except TypeError:
            size = 0  # not a sequence; refused below as malformed
        if size > PRODUCT_CAP:
            raise CapExceeded(f"carrier {size} exceeds cap {PRODUCT_CAP}")
        try:
            self.neg = _table(neg)
            self.oplus = _table(oplus)
        except OverflowError:
            raise AlgebraError("table entries out of carrier range") from None
        except (TypeError, ValueError):
            raise AlgebraError("tables must be rectangular integer arrays") from None
        self.zero = int(zero)
        self.verdicts = {}  # idealarith.decided's cache of ideal tests
        n = self.neg.shape[0] if self.neg.ndim == 1 else 0
        if n == 0:
            raise AlgebraError("empty carrier rejected")
        if self.neg.shape != (n,) or self.oplus.shape != (n, n):
            raise AlgebraError("neg must be n and oplus must be n x n")
        for table in (self.neg, self.oplus):
            if table.min() < 0 or table.max() >= n:
                raise AlgebraError("table entries out of carrier range")
        if not 0 <= self.zero < n:
            raise AlgebraError("zero out of carrier range")
        self.n = n
        self.one = int(self.neg[self.zero])
        if n == 1:
            raise AlgebraError("trivial algebra (zero = one) rejected")
        self.labels = (
            tuple(str(w) for w in labels)
            if labels is not None
            else tuple(str(i) for i in range(n))
        )
        if len(self.labels) != n:
            raise AlgebraError("labels must match carrier size")
        if validate:
            bad = check_axioms(self)
            if bad is not None:
                raise AlgebraError(bad)

    # -- derived tables ----------------------------------------------------

    @cached_property
    def ominus(self):
        idx = np.arange(self.n)
        return self.neg[self.oplus[self.neg[idx][:, None], idx[None, :]]]

    @cached_property
    def join(self):
        idx = np.arange(self.n)
        return self.oplus[self.ominus, idx[None, :]]

    @cached_property
    def meet(self):
        return self.neg[self.join[self.neg[:, None], self.neg[None, :]]]

    @cached_property
    def leq(self):
        return self.join == np.arange(self.n)[None, :]

    def lattice_reduct(self):
        """The lattice reduct, built once; it shares leq, join and meet."""
        return self._reduct

    @cached_property
    def _reduct(self):
        from .lattice import FiniteDistLattice

        return FiniteDistLattice(self.leq, self.join, self.meet, labels=self.labels)

    @cached_property
    def idempotents(self):
        return [int(e) for e in np.flatnonzero(self.oplus.diagonal() == np.arange(self.n))]

    def dual_space(self):
        from .spectrum import MvDualSpace

        return MvDualSpace(self)

    def first_violation(self, bound):
        return check_axioms(self)


def _table(values):
    """values as a TABLE_DTYPE array, converted once.  An entry the dtype
    cannot hold raises OverflowError: a Python int does so by itself, a
    numpy array of a wider dtype would wrap silently, so it is range-checked
    first."""
    if isinstance(values, np.ndarray) and not np.can_cast(values.dtype, TABLE_DTYPE):
        info = np.iinfo(TABLE_DTYPE)
        if values.size and (values.min() < info.min or values.max() > info.max):
            raise OverflowError
    return np.asarray(values, dtype=TABLE_DTYPE)


def check_axioms(alg):
    """First violated law of Chang's six, in the fixed order, or None.

    Witnesses are lexicographically least.  On a lawful input the cost is
    O(n^2 k), k the number of chain factors: every finite MV-algebra is a
    product of Lukasiewicz chains (Cignoli-D'Ottaviano-Mundici, Algebraic
    Foundations of Many-valued Reasoning, ch. 3), and _chain_certificate
    accepts exactly the tables isomorphic to one.  The cubic scan
    (associativity) runs only when the certificate fails, to name the first
    failure.  Once the six laws hold, the derived join and meet form a
    bounded distributive lattice with bottom zero and top one (CDM ch. 1),
    so the reduct is not scanned here.  The lattice validator pins that
    theorem in tests/test_mv.py, over the family in
    test_axioms_pass_on_family and over perturbed tables in
    test_perturbed_tables_fail_a_law_or_have_a_lawful_reduct.
    """
    if _chain_certificate(alg):
        return None
    return _first_violation(alg)


def _chain_certificate(alg):
    """True when phi: a -> (a's rank in the chain [0, e_i])_i is an
    isomorphism onto L_{n_1} x ... x L_{n_k}; Chang's laws then hold by
    transport of structure.

    The e_i are the atoms of the idempotents, ordered by e <= f iff
    e oplus f = f; a odot e_i is a meet e_i for an idempotent e_i; and a
    rank counts the chain elements y <= x, i.e. with neg y oplus x = one.
    All of these are read off unvalidated tables and trusted nowhere: the
    answer rests on the final test alone, that phi is injective with
    prod(n_i + 1) = n and preserves zero, neg and oplus on all n^2 pairs
    against the chains' closed forms.  Never raises; O(n^2 k) with
    2^k <= n.
    """
    n, neg, oplus = alg.n, alg.neg, alg.oplus
    idem = np.array([e for e in alg.idempotents if e != alg.zero], dtype=np.intp)
    below = oplus[np.ix_(idem, idem)] == idem[None, :]
    atoms = idem[below.sum(axis=0) == 1]
    if 2 ** len(atoms) > n:
        return False
    coords = [neg[oplus[neg, neg[e]]] for e in atoms]
    # sorted distinct values; np.unique would load numpy.ma into every check
    chains = [np.flatnonzero(np.bincount(c, minlength=n)) for c in coords]
    if math.prod(len(c) for c in chains) != n:
        return False
    digits, tops, weights = [], [], []
    weight = n
    for coord, chain in zip(coords, chains):
        rank = np.zeros(n, dtype=TABLE_DTYPE)
        rank[chain] = (oplus[np.ix_(neg[chain], chain)] == alg.one).sum(axis=0) - 1
        weight //= len(chain)
        digits.append(rank[coord])
        tops.append(len(chain) - 1)
        weights.append(weight)
    code = sum(d * w for d, w in zip(digits, weights))
    if not (
        all((d >= 0).all() for d in digits)
        and (np.bincount(code, minlength=n) == 1).all()
        and code[alg.zero] == 0
        and all((d[neg] == top - d).all() for d, top in zip(digits, tops))
    ):
        return False
    # digits lie in 0..top now, so min(a, top - b) + b, which is
    # min(a + b, top), keeps every intermediate below n in TABLE_DTYPE
    rows = max(1, (1 << 20) // n)
    for lo in range(0, n, rows):
        block = slice(lo, lo + rows)
        want = sum(
            (np.minimum(d[block, None], top - d[None, :]) + d[None, :]) * w
            for d, top, w in zip(digits, tops, weights)
        )
        if not (code[oplus[block]] == want).all():
            return False
    return True


def _first_violation(alg):
    """check_axioms' cubic scan, which names the first failed law."""
    idx = np.arange(alg.n)
    oplus, neg = alg.oplus, alg.neg

    def first(bad, law):
        where = np.argwhere(bad)
        if len(where) == 0:
            return None
        witness = tuple(int(v) for v in where[0])
        return AxiomViolation(
            law=law,
            witness=witness,
            witness_labels=tuple(alg.labels[v] for v in witness),
        )

    v = first(neg[neg] != idx, "involution")
    if v:
        return v
    v = first(oplus != oplus.T, "commutativity")
    if v:
        return v
    v = _assoc_violation(alg, oplus, "associativity")
    if v:
        return v
    v = first(oplus[alg.zero, :] != idx, "zero-identity")
    if v:
        return v
    v = first(oplus[alg.one, :] != alg.one, "one-absorption")
    if v:
        return v
    lhs = oplus[neg[oplus[neg[:, None], idx[None, :]]], idx[None, :]]
    return first(lhs != lhs.T, "characteristic")


def _assoc_violation(alg, table, law):
    n = alg.n
    for a in range(n):
        lhs = table[table[a, :], :]
        rhs = table[a, table]
        where = np.argwhere(lhs != rhs)
        if len(where):
            b, c = (int(v) for v in where[0])
            return AxiomViolation(
                law=law,
                witness=(a, b, c),
                witness_labels=(alg.labels[a], alg.labels[b], alg.labels[c]),
            )
    return None


# -- constructions -----------------------------------------------------------


def lukasiewicz_chain(n):
    """The chain 0, 1/n, ..., 1 with truncated addition; n >= 1."""
    if n < 1:
        raise AlgebraError("chain parameter must be at least 1")
    if n + 1 > PRODUCT_CAP:
        raise CapExceeded(f"chain carrier {n + 1} exceeds cap {PRODUCT_CAP}")
    idx = np.arange(n + 1, dtype=TABLE_DTYPE)
    # min(a, n - b) + b is min(a + b, n) with no intermediate above n
    oplus = np.minimum(idx[:, None], n - idx[None, :]) + idx[None, :]
    labels = tuple(str(i) for i in range(n + 1))
    return MvAlgebra(n - idx, oplus, zero=0, labels=labels, validate=False)


def product(a, b, cap=PRODUCT_CAP):
    """Componentwise product; element (i, j) is i * b.n + j, labelled by
    the pair of factor labels.  Every such index is below n, so the tables
    are built in TABLE_DTYPE."""
    n = a.n * b.n
    if n > cap:
        raise CapExceeded(f"product carrier {n} exceeds cap {cap}")
    i, j = np.divmod(np.arange(n), b.n)
    # oplus[(i, j), (k, l)] = a.oplus[i, k] * b.n + b.oplus[j, l], in one table
    oplus = np.empty((a.n, b.n, a.n, b.n), dtype=TABLE_DTYPE)
    np.add((a.oplus * b.n)[:, None, :, None], b.oplus[None, :, None, :], out=oplus)
    labels = tuple(f"({x},{y})" for x in a.labels for y in b.labels)
    return MvAlgebra(
        a.neg[i] * b.n + b.neg[j], oplus.reshape(n, n), zero=a.zero * b.n + b.zero,
        labels=labels, validate=False,
    )


# -- MV-ideals ---------------------------------------------------------------
# A subset of the carrier (an ideal, a seed, a congruence kernel) is a
# boolean row of length n, and a family of them a boolean matrix.


def require_rows(rows, width, ndim=1, of="the carrier"):
    """Refuse anything but a boolean array of ndim axes whose last has the
    given width, one entry per element of the carrier or per point of a
    space: a set or an index list would otherwise be misread."""
    if not (
        isinstance(rows, np.ndarray)
        and rows.dtype == bool
        and rows.ndim == ndim
        and rows.shape[-1] == width
    ):
        raise AlgebraError(f"subsets of {of} must be boolean rows of length {width}")


def require_algebra(alg):
    """alg, if it has the carrier protocol of MvAlgebra; else AlgebraError."""
    if not all(hasattr(alg, m) for m in ("finite", "dual_space", "first_violation")):
        raise AlgebraError(f"not an MV-algebra: {type(alg).__name__}")
    return alg


def is_mv_ideal(alg, row):
    """Downset containing zero, closed under truncated addition."""
    from .lattice import _closed_set

    require_rows(row, alg.n)
    return bool(row[alg.zero]) and _closed_set(alg.leq, alg.oplus, row)


def ideal_generated(alg, seed):
    """Fixpoint closure of the seed row and zero under downward passage and
    addition.

    Slow oracle: verify's ideal-join-coincidence check holds it against
    idealarith.oplus_bar, the route the program computes joins with.
    """
    from .lattice import _closure

    require_rows(seed, alg.n)
    return _closure(alg.leq, alg.oplus, seed | (np.arange(alg.n) == alg.zero))


def _idempotent_downsets(alg, idem):
    """The downsets of the given idempotents in canonical order, one row each."""
    from .lattice import _canonical

    return _canonical(alg.leq[:, idem].T)


def enumerate_mv_ideals(alg):
    """All MV-ideals: downsets of idempotents, one row each in ascending
    order of their member tuples.

    A finite MV-ideal is a downset with a maximum m, and addition-closure
    forces m oplus m = m; conversely the downset of any idempotent is an
    MV-ideal.  The brute-force scan over downsets lives in the tests.
    """
    return _idempotent_downsets(alg, alg.idempotents)


def maximal_mv_ideals(alg):
    """Downsets of the maximal idempotents below one, in enumeration order.

    MV-ideals are downsets of idempotents ordered as their idempotents, so
    the maximal proper ones sit under the proper idempotents (downset short
    of the carrier, i.e. e != one) with no other proper idempotent above
    them.  The tests hold it against a slow oracle built on ideal_generated.
    """
    proper = [e for e in alg.idempotents if not alg.leq[:, e].all()]
    above = alg.leq[np.ix_(proper, proper)]
    only_self = (above == np.eye(len(proper), dtype=bool)).all(axis=1)
    return _idempotent_downsets(alg, np.array(proper, dtype=np.intp)[only_self])


def ideal_congruent(alg, a, b, ideal):
    require_rows(ideal, alg.n)
    return bool(ideal[alg.ominus[a, b]] and ideal[alg.ominus[b, a]])


def congruence_class(alg, a, ideal):
    """Boolean vector over the carrier: b is congruent to a modulo the
    ideal row.  For an index array a, one such row per entry."""
    require_rows(ideal, alg.n)
    return ideal[alg.ominus[:, a]].T & ideal[alg.ominus[a, :]]


# -- JSON ---------------------------------------------------------------------


def algebra_from_json(data, validate=True):
    """Builds from {"kind": "lukasiewicz" | "product" | "tables" | "chang"}.

    validate only affects explicit tables; the named constructions are
    correct by construction.  PRODUCT_CAP bounds the carrier of every chain,
    product and table, checked before its tables are allocated.
    """
    if not isinstance(data, dict):
        raise AlgebraError("algebra JSON must be an object")
    if "schema" in data and data["schema"] != SCHEMA:
        raise AlgebraError(f"unsupported schema {data['schema']!r}")
    kind = data.get("kind")
    if kind == "lukasiewicz":
        n = data.get("n")
        if type(n) is not int:  # exact type, as for table entries
            raise AlgebraError('lukasiewicz needs an integer "n"')
        return lukasiewicz_chain(n)
    if kind == "product":
        factors = data.get("factors")
        if not isinstance(factors, list) or len(factors) < 2:
            raise AlgebraError('product needs a list "factors" of length >= 2')
        algs = [algebra_from_json(f, validate=validate) for f in factors]
        if not all(a.finite for a in algs):
            raise AlgebraError("product factors must be finite; chang is symbolic")
        out = algs[0]
        for nxt in algs[1:]:
            out = product(out, nxt)
        return out
    if kind == "tables":
        if "neg" not in data or "oplus" not in data:
            raise AlgebraError('tables needs "neg" and "oplus"')
        neg, oplus = data["neg"], data["oplus"]
        zero, labels = data.get("zero", 0), data.get("labels")
        if isinstance(neg, list) and len(neg) > PRODUCT_CAP:
            raise CapExceeded(f"tables carrier {len(neg)} exceeds cap {PRODUCT_CAP}")
        if not _json_ints(neg):
            raise AlgebraError('tables "neg" must be a list of integers')
        if not isinstance(oplus, list) or not all(_json_ints(row) for row in oplus):
            raise AlgebraError('tables "oplus" must be a list of integer lists')
        if type(zero) is not int:
            raise AlgebraError('tables "zero" must be an integer')
        if labels is not None and not isinstance(labels, list):
            raise AlgebraError('tables "labels" must be a list')
        return MvAlgebra(neg, oplus, zero=zero, labels=labels, validate=validate)
    if kind == "chang":
        from .chang import ChangAlgebra

        return ChangAlgebra()
    raise AlgebraError(f"unknown algebra kind {kind!r}")


def _json_ints(values):
    # exact type: JSON true/false parse to bool, a subclass of int
    return isinstance(values, list) and set(map(type, values)) <= {int}
