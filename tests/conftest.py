"""Shared test support: the finite algebra family, relabelling, and
lattices built from order data."""

from __future__ import annotations

import numpy as np
import pytest

from mvspectra.lattice import (
    FiniteDistLattice,
    FinitePoset,
    _glb,
    _lub,
    transitive_closure,
)
from mvspectra.mv import MvAlgebra, lukasiewicz_chain, product


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


def poset_from_pairs(n, pairs):
    """Poset from generating pairs (i, j) meaning i <= j; closure is taken."""
    rel = np.zeros((n, n), dtype=bool)
    for i, j in pairs:
        rel[i, j] = True
    return FinitePoset(transitive_closure(rel))


def lattice_from_leq(leq, validate=True):
    """Lattice tables read off an order matrix; LatticeError if some lub or
    glb is missing."""
    poset = FinitePoset(leq)
    n = poset.n
    join = np.zeros((n, n), dtype=np.int64)
    meet = np.zeros((n, n), dtype=np.int64)
    for a in range(n):
        for b in range(a, n):
            join[a, b] = join[b, a] = _lub(poset.leq, a, b)
            meet[a, b] = meet[b, a] = _glb(poset.leq, a, b)
    return FiniteDistLattice(poset.leq, join, meet, validate=validate)
