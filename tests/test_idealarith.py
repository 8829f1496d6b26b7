"""Ideal and filter arithmetic: closed route against fixpoint oracles."""

from __future__ import annotations

import numpy as np
import pytest

from mvspectra.errors import AlgebraError
from mvspectra.idealarith import (
    is_lattice_filter,
    is_lattice_ideal,
    ominus_bar,
    oplus_bar,
    sum_table,
)
from mvspectra.lattice import _bool_mm, _closure
from mvspectra.mv import is_mv_ideal, lukasiewicz_chain, product
from mvspectra.spectrum import MvDualSpace
from mvspectra.verify import _generated_ideals

from conftest import (
    adjunction_holds,
    ominus_bar_oracle,
    oplus_bar_oracle,
    relabelled,
    subset,
)


def principal_ideals(alg):
    """Row a is the downset of a."""
    return alg.leq.T


def principal_filters(alg):
    """Row a is the upset of a."""
    return alg.leq


def test_ideal_and_filter_predicates():
    alg = product(lukasiewicz_chain(1), lukasiewicz_chain(2))
    for i in principal_ideals(alg):
        assert is_lattice_ideal(alg, i)
    assert not is_lattice_ideal(alg, np.zeros(alg.n, dtype=bool))
    assert is_lattice_filter(alg, np.ones(alg.n, dtype=bool))
    # a downset missing join closure
    down_two = np.isin(alg.labels, ["(0,0)", "(0,1)", "(1,0)"])
    assert not is_lattice_ideal(alg, down_two)
    assert not is_lattice_filter(alg, down_two)


def test_inputs_validated():
    alg = lukasiewicz_chain(3)
    with pytest.raises(AlgebraError):
        oplus_bar(alg, subset(4, 0, 2), subset(4, 0))
    with pytest.raises(AlgebraError):
        ominus_bar(alg, subset(4, 0), subset(4, 0))  # {0} is not a filter


def test_oplus_bar_matches_fixpoint_oracle(small_family):
    for name, alg in small_family.items():
        for i in principal_ideals(alg):
            for j in principal_ideals(alg):
                got = oplus_bar(alg, i, j)
                assert (got == oplus_bar_oracle(alg, i, j)).all(), name
                assert is_lattice_ideal(alg, got)


def test_ominus_bar_matches_fixpoint_oracle(small_family):
    for name, alg in small_family.items():
        for f in principal_filters(alg):
            for i in principal_ideals(alg):
                got = ominus_bar(alg, f, i)
                assert (got == ominus_bar_oracle(alg, f, i)).all(), name
                assert is_lattice_filter(alg, got)


def test_sum_table_fold_matches_fixpoint_oracle(family):
    # verify's ideal sums of points: hit rows off the sum table of I_x, each
    # folded to the downset of its join, against the closure fixpoint
    pair = product(lukasiewicz_chain(2), lukasiewicz_chain(4))
    shuffled = relabelled(pair, np.random.default_rng(9).permutation(pair.n))
    for name, alg in [*family.items(), ("relabelled L2xL4", shuffled)]:
        member = MvDualSpace(alg).member
        for x, row in enumerate(member):
            table = sum_table(alg, row)
            assert table.shape == (alg.n, alg.n)
            direct = _generated_ideals(alg, _bool_mm(member, table))
            for y in range(len(member)):
                assert (direct[y] == oplus_bar_oracle(alg, row, member[y])).all(), name
        # sums of principal ideals are already ideals here, so the fold is
        # also held against the closure on rows that are not
        rows = np.random.default_rng(alg.n).random((20, alg.n)) < 0.1
        rows[:, alg.n - 1] |= ~rows.any(axis=1)
        got = _generated_ideals(alg, rows)
        assert (got == [_closure(alg.leq, alg.join, row) for row in rows]).all(), name


def test_sum_table_at_the_cap_matches_an_int64_reference():
    # the flat keys b * n + sum reach n * n = 2**24 on L4095, far past the
    # table dtype; the reference scatters each member's sums in int64
    alg = lukasiewicz_chain(4095)
    n = alg.n
    b = np.arange(n, dtype=np.int64)
    for members in ([0], [1, 2047], [n - 1], range(0, n, 97)):
        row = np.zeros(n, dtype=bool)
        row[list(members)] = True
        want = np.zeros((n, n), dtype=bool)
        for a in members:
            want[b, np.minimum(a + b, n - 1)] = True
        assert np.array_equal(sum_table(alg, row), want), members


def test_chain_sums_are_principal_at_truncated_sum():
    alg = lukasiewicz_chain(6)
    ideals = principal_ideals(alg)
    for a in range(7):
        for b in range(7):
            expect = ideals[min(a + b, 6)]
            assert (oplus_bar(alg, ideals[a], ideals[b]) == expect).all()


def test_element_adjunction(small_family):
    # a - b <= c  iff  a <= b + c
    for name, alg in small_family.items():
        om, op, leq = alg.ominus, alg.oplus, alg.leq
        n = alg.n
        lhs = leq[om[:, :, None].reshape(n, n, 1), np.arange(n)[None, None, :]]
        rhs = leq[np.arange(n)[:, None, None], op[None, :, :]]
        assert (lhs == rhs).all(), name


def test_lifted_adjunction_exhaustive_small(small_family):
    for name, alg in small_family.items():
        if alg.n > 12:
            continue
        ideals = principal_ideals(alg)
        filters = principal_filters(alg)
        for f in filters:
            for i in ideals:
                for j in ideals:
                    assert adjunction_holds(alg, f, i, j), name


def test_lifted_adjunction_sampled_larger(small_family):
    rng = np.random.default_rng(11)
    for name, alg in small_family.items():
        if alg.n <= 12:
            continue
        ideals = principal_ideals(alg)
        filters = principal_filters(alg)
        for _ in range(40):
            f = filters[int(rng.integers(alg.n))]
            i = ideals[int(rng.integers(alg.n))]
            j = ideals[int(rng.integers(alg.n))]
            assert adjunction_holds(alg, f, i, j), name


def test_sum_closure_characterizes_mv_ideals(small_family):
    for name, alg in small_family.items():
        for i in principal_ideals(alg):
            closed = not (oplus_bar(alg, i, i) & ~i).any()
            assert closed == is_mv_ideal(alg, i), name


def test_ideal_sum_monoid_laws():
    alg = product(lukasiewicz_chain(2), lukasiewicz_chain(2))
    ideals = principal_ideals(alg)
    zero = subset(alg.n, alg.zero)
    for i in ideals:
        assert (oplus_bar(alg, zero, i) == i).all()
        for j in ideals:
            assert (oplus_bar(alg, i, j) == oplus_bar(alg, j, i)).all()
            for k in ideals:
                assert (
                    oplus_bar(alg, oplus_bar(alg, i, j), k)
                    == oplus_bar(alg, i, oplus_bar(alg, j, k))
                ).all()


def test_ominus_bar_against_membership_definition():
    alg = product(lukasiewicz_chain(1), lukasiewicz_chain(3))
    for f in principal_filters(alg):
        for i in principal_ideals(alg):
            got = ominus_bar(alg, f, i)
            expect = [
                any(alg.leq[alg.ominus[a, b], c] for a in np.flatnonzero(f) for b in np.flatnonzero(i))
                for c in range(alg.n)
            ]
            assert got.tolist() == expect
