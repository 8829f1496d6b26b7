"""Order-theory core: duality, the subspace-congruence correspondence.

Oracles here are definitional: prime ideals by scanning every downset,
congruences by growing a pair set until the closure conditions hold.
"""

from __future__ import annotations

import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvspectra.errors import LatticeError, NotDistributiveError, PosetError
from mvspectra.lattice import (
    FiniteDistLattice,
    FinitePoset,
    _bool_mm,
    _canonical,
    chain_factors,
    congruence_of_subspace,
    dual_order,
    duality_roundtrip,
    enumerate_prime_ideals,
    is_lattice_filter,
    lattice_from_downsets,
    stone_map,
    transitive_closure,
)
from mvspectra.mv import lukasiewicz_chain, product
from mvspectra.spectrum import build_dual_space

from conftest import (
    canonical_reference,
    chain_lattice,
    downsets_reference,
    is_prime_ideal,
    lattice_from_downsets_reference,
    lattice_from_leq,
    mask_rows,
    order_components_reference,
    poset_from_pairs,
    posets_isomorphic_reference,
    prime_ideals_bruteforce,
    relabelled,
    subset,
    validate_lattice,
    validate_poset,
)


def boolean_2x2():
    # 0 < a=1, b=2 < top=3
    return lattice_from_leq(
        poset_from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).leq
    )


def m3():
    # diamond with three incomparable midpoints; not distributive
    leq = np.eye(5, dtype=bool)
    leq[0, :] = True
    leq[:, 4] = True
    join = np.array(
        [
            [0, 1, 2, 3, 4],
            [1, 1, 4, 4, 4],
            [2, 4, 2, 4, 4],
            [3, 4, 4, 3, 4],
            [4, 4, 4, 4, 4],
        ]
    )
    meet = np.array(
        [
            [0, 0, 0, 0, 0],
            [0, 1, 0, 0, 1],
            [0, 0, 2, 0, 2],
            [0, 0, 0, 3, 3],
            [0, 1, 2, 3, 4],
        ]
    )
    return FiniteDistLattice(leq, join, meet)


def random_poset(rng, n):
    rel = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                rel[i, j] = True
    return FinitePoset(transitive_closure(rel))


# -- posets -----------------------------------------------------------------


def test_poset_rejects_non_orders():
    # the validator rejects each failed law; the constructor checks nothing
    with pytest.raises(PosetError, match="not reflexive at element 0"):
        validate_poset(FinitePoset(np.zeros((2, 2), dtype=bool)))
    with pytest.raises(PosetError, match="not antisymmetric: 0 <= 1 and 1 <= 0"):
        validate_poset(FinitePoset(np.ones((2, 2), dtype=bool)))
    gap = np.eye(3, dtype=bool)
    gap[0, 1] = gap[1, 2] = True  # 0 <= 1 <= 2 without 0 <= 2
    with pytest.raises(PosetError, match="not transitive: 0 and 2"):
        validate_poset(FinitePoset(gap))
    with pytest.raises(PosetError, match="square"):
        FinitePoset(np.ones((2, 3), dtype=bool))


def test_downsets_of_chain_and_antichain():
    chain = poset_from_pairs(3, [(0, 1), (1, 2)])
    assert chain.downsets().tolist() == mask_rows([0b000, 0b001, 0b011, 0b111], 3).tolist()
    anti = FinitePoset(np.eye(3, dtype=bool))
    assert anti.downsets().shape == (8, 3)


def test_downsets_are_downclosed_and_distinct():
    rng = random.Random(7)
    for _ in range(20):
        p = random_poset(rng, 6)
        ds = p.downsets()
        assert len(np.unique(ds, axis=0)) == len(ds)
        assert all(p.is_downset(row) for row in ds)
        # oracle: count by direct powerset scan
        every = mask_rows(range(1 << p.n), p.n)
        assert len(ds) == sum(p.is_downset(row) for row in every)


def test_order_components():
    p = poset_from_pairs(5, [(0, 1), (2, 3)])
    assert p.order_components is p.order_components  # computed once per poset
    assert p.order_components.tolist() == [
        subset(5, 0, 1).tolist(),
        subset(5, 2, 3).tolist(),
        subset(5, 4).tolist(),
    ]


def _disjoint_chains(*lengths):
    pairs, start = [], 0
    for length in lengths:
        pairs += [(i, i + 1) for i in range(start, start + length - 1)]
        start += length
    return poset_from_pairs(start, pairs)


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(st.builds(lambda seed, size: random_poset(random.Random(seed), size),
                 st.integers(0, 2**32), st.integers(1, 10)))
@example(_disjoint_chains(50, 20))  # rows past one machine word, two components
def test_downsets_and_components_match_the_int_references(poset):
    assert np.array_equal(poset.downsets(), mask_rows(downsets_reference(poset), poset.n))
    comps = [subset(poset.n, *block) for block in order_components_reference(poset)]
    assert np.array_equal(poset.order_components, np.array(comps))


# -- lattices ---------------------------------------------------------------


def test_chain_tables():
    c = chain_lattice(4)
    assert c.bot == 0 and c.top == 3
    assert c.join[1, 2] == 2 and c.meet[1, 2] == 1
    assert c.join_irreducibles == [1, 2, 3]


def covers_join_irreducibles(lat):
    """Reference: the non-bottom elements with exactly one lower cover."""
    counts = FinitePoset(lat.leq).covers.sum(axis=0)
    return np.flatnonzero(counts == 1).tolist()


def test_join_irreducible_fold_matches_covers(family):
    square = product(lukasiewicz_chain(31), lukasiewicz_chain(31))
    for alg in [*family.values(), square]:
        lat = alg.lattice_reduct()
        assert lat.join_irreducibles == covers_join_irreducibles(lat)


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(st.integers(0, 2**32), st.integers(1, 7))
def test_join_irreducible_fold_matches_covers_on_downset_lattices(seed, size):
    poset = random_poset(random.Random(seed), size)
    lat = lattice_from_downsets(poset)
    assert lat.join_irreducibles == covers_join_irreducibles(lat)
    assert len(lat.join_irreducibles) == size  # the principal downsets


def assert_same_lattice(got, want):
    assert np.array_equal(np.array(got.labels), np.array(want.labels))
    for table in ("leq", "join", "meet"):
        assert np.array_equal(getattr(got, table), getattr(want, table)), table


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(st.integers(0, 2**32), st.integers(1, 10))
def test_downset_lattice_matches_the_reference_loop(seed, size):
    # sizes 7 to 10 cross the first byte boundary of the packed keys
    poset = random_poset(random.Random(seed), size)
    assert_same_lattice(lattice_from_downsets(poset), lattice_from_downsets_reference(poset))


@pytest.mark.parametrize("lengths", [(70,), (50, 13)])
def test_downset_lattice_matches_the_reference_loop_past_63_points(lengths):
    # disjoint chains of 63 points and more: masks past one machine word
    poset = _disjoint_chains(*lengths)
    got = lattice_from_downsets(poset)
    assert got.n == np.prod([length + 1 for length in lengths])
    assert_same_lattice(got, lattice_from_downsets_reference(poset))


def test_from_leq_detects_missing_bounds():
    # two incomparable maximal elements: no top, no lub
    p = poset_from_pairs(3, [(0, 1), (0, 2)])
    with pytest.raises(LatticeError):
        lattice_from_leq(p.leq)
    # a bowtie under a top: 1 and 2 have the two minimal upper bounds 3
    # and 4, so a lattice built on it unchecked fails the validator
    bowtie = poset_from_pairs(6, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4),
                                  (3, 5), (4, 5)])
    idx = np.arange(6)
    unchecked = FiniteDistLattice(
        bowtie.leq, np.maximum.outer(idx, idx), np.minimum.outer(idx, idx)
    )
    with pytest.raises(LatticeError, match="1 and 2 have no least upper bound"):
        validate_lattice(unchecked)
    # a lawful chain with one wrong entry in its join table
    chain = chain_lattice(3)
    join = chain.join.copy()
    join[0, 1] = 2
    with pytest.raises(LatticeError, match=r"join table wrong at \(0, 1\)"):
        validate_lattice(FiniteDistLattice(chain.leq, join, chain.meet))
    with pytest.raises(NotDistributiveError):
        validate_lattice(m3())


def test_m3_not_distributive_with_witness():
    with pytest.raises(NotDistributiveError) as err:
        m3().validate_distributive()
    a, b, c = err.value.witness
    lat = m3()
    assert lat.meet[a, lat.join[b, c]] != lat.join[lat.meet[a, b], lat.meet[a, c]]


def test_structural_distributivity_check_matches_scan():
    # downset lattices, large and small, pass the structural test and the
    # cubic scan alike
    rng = random.Random(3)
    for size in (8, 4):
        lat = lattice_from_downsets(random_poset(rng, size))
        lat.validate_distributive()  # must not raise
        assert lat._distributivity_witness() is None


def test_built_orders_and_lattices_pass_the_validators(family):
    # the build checks no order and no lattice; these are the laws it relies on
    for alg in family.values():
        validate_lattice(alg.lattice_reduct())
        validate_poset(build_dual_space(alg).order)
    rng = random.Random(5)
    for _ in range(20):
        lat = lattice_from_downsets(random_poset(rng, rng.randint(1, 7)))
        validate_lattice(lat)
        validate_poset(dual_order(enumerate_prime_ideals(lat)))


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(st.integers(0, 2**32), st.integers(0, 12), st.integers(1, 40),
       st.sampled_from([0, 250]))
def test_canonical_order_matches_the_tuple_sort(seed, count, width, lead):
    # random rows after lead empty columns (so that members cross 255, the
    # byte boundary of the keys), a prefix of each (its first few members)
    # and a copy of each, shuffled: prefixes sort first, equal rows together
    rng = np.random.default_rng(seed)
    rows = np.hstack([np.zeros((count, lead), dtype=bool), rng.random((count, width)) < 0.5])
    cut = rng.integers(0, width + 1, size=(count, 1))
    prefixes = rows & (np.cumsum(rows, axis=1) <= cut)
    mixed = np.vstack([rows, prefixes, rows])[rng.permutation(3 * count)]
    assert np.array_equal(_canonical(mixed), canonical_reference(mixed))


def test_bool_mm_counts_past_the_byte_range():
    # 256 witnesses per entry: a uint8 product would wrap them to zero
    ones = np.ones((2, 256), dtype=bool)
    assert _bool_mm(ones, ones.T).all()


# -- prime ideals, two routes ------------------------------------------------


def test_two_element_lattice_single_point():
    member = enumerate_prime_ideals(chain_lattice(2))
    assert len(member) == 1
    assert member.tolist() == [[True, False]]  # {0}; the filter ~member is {1}


def test_three_chain_two_points():
    member = enumerate_prime_ideals(chain_lattice(3))
    assert member.tolist() == [[True, False, False], [True, True, False]]


def test_boolean_2x2_dual_is_antichain():
    lat = boolean_2x2()
    member = enumerate_prime_ideals(lat)
    assert len(member) == 2
    p = dual_order(member)
    assert not p.leq[0, 1] and not p.leq[1, 0]


@pytest.mark.parametrize("seed", range(12))
def test_prime_ideal_routes_agree(seed):
    rng = random.Random(seed)
    lat = lattice_from_downsets(random_poset(rng, 5))
    fast = enumerate_prime_ideals(lat)
    slow = prime_ideals_bruteforce(lat)
    assert fast.shape == slow.shape and (fast == slow).all()
    for row in fast:
        assert is_prime_ideal(lat, row)
        assert is_lattice_filter(lat, ~row)


def test_stone_map_is_embedding():
    lat = boolean_2x2()
    member = enumerate_prime_ideals(lat)
    images = np.array([stone_map(lat, a, member) for a in range(lat.n)])
    assert np.array_equal(images, [stone_map(lat, a) for a in range(lat.n)])
    assert len(np.unique(images, axis=0)) == lat.n
    for a in range(lat.n):
        for b in range(lat.n):
            assert (images[int(lat.join[a, b])] == images[a] | images[b]).all()
            assert (images[int(lat.meet[a, b])] == images[a] & images[b]).all()


# -- round trip ---------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_roundtrip_chains(n):
    w = duality_roundtrip(chain_lattice(n))
    assert len(w.points) == n - 1
    assert w.downset_lattice.n == n


def test_roundtrip_rejects_m3():
    with pytest.raises(NotDistributiveError):
        duality_roundtrip(m3())


def test_roundtrip_random_lattices():
    rng = random.Random(11)
    for _ in range(10):
        lat = lattice_from_downsets(random_poset(rng, rng.randint(2, 7)))
        w = duality_roundtrip(lat)
        assert w.downset_lattice.n == lat.n
        # order isomorphism, element by element
        iso = list(w.iso)
        for a in range(lat.n):
            for b in range(lat.n):
                assert bool(lat.leq[a, b]) == bool(
                    w.downset_lattice.leq[iso[a], iso[b]]
                )


# -- congruences and Galois maps ----------------------------------------------


def congruence_oracle(lat, pairs):
    """Definitional closure: grow a pair set until it is a congruence."""
    theta = {(a, a) for a in range(lat.n)} | set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(theta):
            for extra in [(b, a)]:
                if extra not in theta:
                    theta.add(extra)
                    changed = True
            for b2, c in list(theta):
                if b2 == b and (a, c) not in theta:
                    theta.add((a, c))
                    changed = True
            for c in range(lat.n):
                for pair in [
                    (int(lat.join[a, c]), int(lat.join[b, c])),
                    (int(lat.meet[a, c]), int(lat.meet[b, c])),
                ]:
                    if pair not in theta:
                        theta.add(pair)
                        changed = True
    return frozenset(theta)


def subspace_congruence(member, sub):
    """The pair set of congruence_of_subspace on the points in sub."""
    cls = congruence_of_subspace(member[sorted(sub)])
    n = len(cls)
    return frozenset(
        (a, b) for a in range(n) for b in range(n) if cls[a] == cls[b]
    )


def closed_subspace(member, theta):
    """Points whose ideal cannot tell theta-related elements apart."""
    return frozenset(
        x for x, row in enumerate(member) if all(row[a] == row[b] for a, b in theta)
    )


@pytest.mark.parametrize("seed", range(6))
def test_congruence_closure_matches_oracle(seed):
    # the Galois route: the congruence generated by some pairs is the one
    # induced by the points that separate none of them
    rng = random.Random(seed)
    lat = lattice_from_downsets(random_poset(rng, 4))
    member = enumerate_prime_ideals(lat)
    pairs = [
        (rng.randrange(lat.n), rng.randrange(lat.n))
        for _ in range(rng.randint(1, 3))
    ]
    theta = subspace_congruence(member, closed_subspace(member, pairs))
    assert theta == congruence_oracle(lat, pairs)


def test_galois_connection_laws():
    rng = random.Random(23)
    for _ in range(8):
        lat = lattice_from_downsets(random_poset(rng, 4))
        member = enumerate_prime_ideals(lat)
        # congruences are exactly the Galois-closed relations
        theta = congruence_oracle(
            lat, [(rng.randrange(lat.n), rng.randrange(lat.n)) for _ in range(2)]
        )
        assert subspace_congruence(member, closed_subspace(member, theta)) == theta
        # arbitrary reflexive-symmetric relations need not be closed,
        # but subspaces always are
        for _ in range(4):
            sub = frozenset(
                x for x in range(len(member)) if rng.random() < 0.5
            )
            theta_s = subspace_congruence(member, sub)
            assert congruence_oracle(lat, theta_s) == theta_s
            s2 = closed_subspace(member, theta_s)
            assert sub <= s2
            assert subspace_congruence(member, s2) == theta_s


def test_subspace_classes_are_numbered_by_first_occurrence():
    lat = chain_lattice(4)
    member = enumerate_prime_ideals(lat)  # ideals {0}, {0, 1}, {0, 1, 2}
    assert congruence_of_subspace(member[[1]]).tolist() == [0, 0, 1, 1]
    assert congruence_of_subspace(member).tolist() == [0, 1, 2, 3]
    assert congruence_of_subspace(member[[]]).tolist() == [0, 0, 0, 0]


def test_non_congruence_is_not_galois_closed():
    lat = chain_lattice(4)
    member = enumerate_prime_ideals(lat)
    # relating the ends of a chain without the middle is not a congruence
    theta = frozenset({(a, a) for a in range(4)} | {(0, 3), (3, 0)})
    assert congruence_oracle(lat, theta) != theta
    s = closed_subspace(member, theta)
    assert subspace_congruence(member, s) != theta


# -- chain factors -----------------------------------------------------------------


def _join_irreducible_poset(lat):
    ji = lat.join_irreducibles
    return FinitePoset(lat.leq[np.ix_(ji, ji)])


def test_chain_factors_decide_isomorphism_of_chain_products():
    # every chain product, in every factor order, with at most 6
    # join-irreducibles (the sum of its chain lengths)
    shapes = [
        shape
        for k in range(1, 7)
        for shape in itertools.product(range(1, 7), repeat=k)
        if sum(shape) <= 6
    ]
    algs = {shape: functools.reduce(product, map(lukasiewicz_chain, shape)) for shape in shapes}
    rng = random.Random(3)
    by_size = {}
    for shape, alg in algs.items():
        by_size.setdefault(alg.n, []).append(shape)
        factors = chain_factors(alg.lattice_reduct())
        assert factors == sorted(shape), shape
        perm = list(range(alg.n))
        rng.shuffle(perm)
        assert chain_factors(relabelled(alg, perm).lattice_reduct()) == factors, shape
    pairs = [
        pair for group in by_size.values()
        for pair in itertools.combinations_with_replacement(group, 2)
    ]
    assert any(sorted(a) != sorted(b) for a, b in pairs)
    for a, b in pairs:
        lat_a, lat_b = algs[a].lattice_reduct(), algs[b].lattice_reduct()
        same = chain_factors(lat_a) == chain_factors(lat_b)
        oracle = posets_isomorphic_reference(
            _join_irreducible_poset(lat_a), _join_irreducible_poset(lat_b)
        )
        assert same == oracle, (a, b)
    # a distributive lattice whose join-irreducibles form a V is no product
    # of chains
    vee = lattice_from_downsets(poset_from_pairs(3, [(0, 2), (1, 2)]))
    vee.validate_distributive()
    with pytest.raises(LatticeError, match="not a disjoint union of chains"):
        chain_factors(vee)
