"""Arithmetic on lattice ideals and filters of a finite MV-algebra.

The pointwise sum of two ideals collects everything below a sum of
members; the difference of a filter and an ideal collects everything above
a difference.  Both are again an ideal respectively a filter, and they are
adjoint to each other.  The comprehension route here is cross-checked in
the tests against closure-fixpoint oracles that iterate on boolean
membership rows; ideals and filters are boolean rows over the carrier
throughout.

sum_table tabulates the sums with one fixed ideal, so that the pairwise
sums with any number of other ideals are one boolean matrix product; the
oracle rows of verify read the ideal sums of the dual space's points and
the k scan off it.
"""

from __future__ import annotations

import numpy as np

from .errors import AlgebraError
from .lattice import is_lattice_filter, is_lattice_ideal
from .mv import require_rows


def decided(alg, test, row):
    """test(alg, row), run once per algebra and boolean row: the fast
    routes (oplus_bar, ominus_bar, sheaf.crt_solve) validate the same few
    ideals over and over.  The tests themselves and the oracles stay uncached."""
    require_rows(row, alg.n)
    key = (test.__name__, np.packbits(row).tobytes())
    if key not in alg.verdicts:
        alg.verdicts[key] = test(alg, row)
    return alg.verdicts[key]


def oplus_bar(alg, i, j):
    """The row of {c : c <= a oplus b for some a in i, b in j}."""
    if not (decided(alg, is_lattice_ideal, i) and decided(alg, is_lattice_ideal, j)):
        raise AlgebraError("oplus_bar needs lattice ideals")
    sums = np.zeros(alg.n, dtype=bool)
    sums[alg.oplus[np.ix_(i, j)]] = True
    return alg.leq[:, sums].any(axis=1)


def ominus_bar(alg, f, i):
    """The row of {c : c >= a ominus b for some a in f, b in i}."""
    if not decided(alg, is_lattice_filter, f):
        raise AlgebraError("ominus_bar needs a lattice filter on the left")
    if not decided(alg, is_lattice_ideal, i):
        raise AlgebraError("ominus_bar needs a lattice ideal on the right")
    diffs = np.zeros(alg.n, dtype=bool)
    diffs[alg.ominus[np.ix_(f, i)]] = True
    return alg.leq[diffs, :].any(axis=0)


def sum_table(alg, row):
    """R[b, c]: c = a oplus b for some member a of the boolean membership
    row.  The sums of the row's members with those of any set J, the hit
    row of their ideal sum, are then J's membership row times R (one
    lattice._bool_mm for many sets at once)."""
    sums = alg.oplus[row]  # one row of sums per member, indexed by b
    table = np.zeros((alg.n, alg.n), dtype=bool)
    table.reshape(-1)[sums + alg.n * np.arange(alg.n)] = True  # flat [b, sum]
    return table
