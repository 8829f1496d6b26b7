"""MV-algebra core: tables, axiom checking, ideals, quotients."""

from __future__ import annotations

import json
import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvspectra import mv
from mvspectra.errors import AlgebraError, CapExceeded
from mvspectra.lattice import FiniteDistLattice, lattice_from_downsets
from mvspectra.mv import (
    MvAlgebra,
    _first_violation,
    algebra_from_json,
    algebra_to_json,
    check_axioms,
    congruence_class,
    enumerate_mv_ideals,
    ideal_congruent,
    ideal_generated,
    is_mv_ideal,
    lukasiewicz_chain,
    maximal_mv_ideals,
    product,
)
from mvspectra.chang import ChangAlgebra
from mvspectra.idealarith import decided, is_lattice_ideal, ominus_bar, oplus_bar
from mvspectra.sheaf import crt_solve
from mvspectra.spectrum import MvDualSpace

from conftest import (
    is_maximal_mv_ideal,
    is_prime_mv_ideal,
    odot,
    quotient,
    relabelled,
    subset,
)


# ---------------------------------------------------------------- oracles

def chain_oracle_tables(n):
    """Independent arithmetic model of the (n+1)-element chain."""
    idx = np.arange(n + 1)
    oplus = np.minimum(idx[:, None] + idx[None, :], n)
    neg = n - idx
    ominus = np.maximum(idx[:, None] - idx[None, :], 0)
    odot = np.maximum(idx[:, None] + idx[None, :] - n, 0)
    return oplus, neg, ominus, odot


def mv_ideals_bruteforce(alg):
    """All subsets that contain 0, are downward closed, and sum-closed, as
    rows in ascending order of their member lists."""
    n = alg.n
    assert n <= 20
    out = []
    for mask in range(1 << n):
        members = [a for a in range(n) if mask >> a & 1]
        if 0 not in members:
            continue
        sset = set(members)
        if any(
            b not in sset
            for a in members
            for b in range(n)
            if alg.leq[b, a]
        ):
            continue
        if any(alg.oplus[a, b] not in sset for a in members for b in members):
            continue
        out.append(members)
    return np.array([subset(n, *members) for members in sorted(out)])


def violates(alg_like, law, witness):
    """Re-evaluate the named law definitionally at the witness."""
    neg, oplus = alg_like
    n = len(neg)

    def j(a, b):
        return oplus[neg[oplus[neg[a], b]], b]

    def mt(a, b):
        return neg[j(neg[a], neg[b])]

    if law == "involution":
        (a,) = witness
        return neg[neg[a]] != a
    if law == "commutativity":
        a, b = witness
        return oplus[a, b] != oplus[b, a]
    if law == "associativity":
        a, b, c = witness
        return oplus[oplus[a, b], c] != oplus[a, oplus[b, c]]
    if law == "zero-identity":
        (a,) = witness
        return oplus[a, 0] != a
    if law == "one-absorption":
        (a,) = witness
        return oplus[a, neg[0]] != neg[0]
    if law == "characteristic":
        a, b = witness
        return j(a, b) != j(b, a)
    raise AssertionError(f"unhandled law {law}")


# ---------------------------------------------------------------- chains

@pytest.mark.parametrize("n", range(1, 9))
def test_chain_tables_match_arithmetic_oracle(n):
    alg = lukasiewicz_chain(n)
    oplus, neg, ominus, odot_table = chain_oracle_tables(n)
    assert np.array_equal(alg.oplus, oplus)
    assert np.array_equal(alg.neg, neg)
    assert np.array_equal(alg.ominus, ominus)
    assert np.array_equal(odot(alg), odot_table)
    idx = np.arange(n + 1)
    assert np.array_equal(alg.join, np.maximum(idx[:, None], idx[None, :]))
    assert np.array_equal(alg.meet, np.minimum(idx[:, None], idx[None, :]))
    assert np.array_equal(alg.leq, idx[:, None] <= idx[None, :])


def test_chain_labels_and_one():
    alg = lukasiewicz_chain(4)
    assert alg.labels == ("0", "1", "2", "3", "4")
    assert alg.one == 4
    assert alg.zero == 0


def test_trivial_and_empty_rejected():
    with pytest.raises(AlgebraError):
        MvAlgebra(neg=np.zeros(1, dtype=np.int64), oplus=np.zeros((1, 1), dtype=np.int64))
    with pytest.raises(AlgebraError):
        MvAlgebra(neg=np.zeros(0, dtype=np.int64), oplus=np.zeros((0, 0), dtype=np.int64))


# ---------------------------------------------------------------- axioms

SIX_LAWS = {
    "involution",
    "commutativity",
    "associativity",
    "zero-identity",
    "one-absorption",
    "characteristic",
}


def assert_reduct_is_bounded_distributive(alg):
    """Chang's laws make join/meet a bounded distributive lattice (CDM ch. 1);
    check_axioms relies on it, the lattice validator confirms it."""
    lat = FiniteDistLattice(alg.leq, alg.join, alg.meet, validate=True)
    assert (lat.bot, lat.top) == (alg.zero, alg.one)


def test_axioms_pass_on_family(family):
    for name, alg in family.items():
        assert check_axioms(alg) is None, name
        assert_reduct_is_bounded_distributive(alg)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(st.data())
def test_perturbed_tables_fail_a_law_or_have_a_lawful_reduct(small_family, data):
    alg = small_family[data.draw(st.sampled_from(sorted(small_family)))]
    neg, oplus = alg.neg.copy(), alg.oplus.copy()
    cell = st.integers(0, alg.n - 1)
    for _ in range(data.draw(st.integers(1, 3))):
        a, b = data.draw(cell), data.draw(cell)
        kind = data.draw(st.sampled_from(["neg", "oplus", "oplus-symmetric"]))
        if kind == "neg":  # symmetric: a and b become each other's negation
            neg[a], neg[b] = b, a
            continue
        oplus[a, b] = value = data.draw(cell)
        if kind == "oplus-symmetric":
            oplus[b, a] = value
    edited = MvAlgebra(neg, oplus, zero=alg.zero, validate=False)
    v = check_axioms(edited)
    assert v == _first_violation(edited)  # the scan is the certificate's oracle
    if v is None:
        assert_reduct_is_bounded_distributive(edited)
    else:
        assert v.law in SIX_LAWS
        assert violates((neg, oplus), v.law, v.witness)


def test_lawful_tables_take_the_chain_certificate(family, monkeypatch):
    """A certificate that always failed would pass every other test and
    save nothing, so the scan raises here; relabelled copies give the
    invariance of check under renaming the carrier."""

    def scan(alg):
        raise AssertionError("the cubic scan ran on a lawful table")

    monkeypatch.setattr(mv, "_first_violation", scan)
    chains = {n: lukasiewicz_chain(n) for n in (1, 2, 3)}
    cases = dict(family)
    for name, factors in {
        "L1xL2xL3": (1, 2, 3),
        "L1^5": (1,) * 5,
        "L2^4": (2,) * 4,
        "L2^3xL3": (2, 2, 2, 3),
    }.items():
        cases[name] = reduce(product, [chains[n] for n in factors])
    rng = np.random.default_rng(3)
    for name, alg in cases.items():
        assert check_axioms(alg) is None, name
        for _ in range(3):
            copy = relabelled(alg, rng.permutation(alg.n), validate=False)
            assert check_axioms(copy) is None, name


def test_broken_involution_detected():
    n = 3
    oplus, neg, _, _ = chain_oracle_tables(n)
    neg = neg.copy()
    neg[3] = 1
    v = check_axioms(MvAlgebra(neg=neg, oplus=oplus, validate=False))
    assert v is not None
    assert v.law == "involution"
    assert violates((neg, oplus), v.law, v.witness)


def test_broken_commutativity_detected():
    oplus, neg, _, _ = chain_oracle_tables(3)
    oplus = oplus.copy()
    oplus[0, 1] = 2
    v = check_axioms(MvAlgebra(neg=neg, oplus=oplus, validate=False))
    assert v is not None
    assert v.law == "commutativity"
    assert v.witness == (0, 1)
    assert violates((neg, oplus), v.law, v.witness)


def test_broken_table_entry_detected_with_valid_witness():
    # perturb one interior entry; whatever law trips first must really fail
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        oplus, neg, _, _ = chain_oracle_tables(n)
        oplus = oplus.copy()
        a = int(rng.integers(1, n))
        b = int(rng.integers(1, n))
        old = oplus[a, b]
        new = int(rng.integers(0, n + 1))
        if new == old:
            continue
        oplus[a, b] = new
        v = check_axioms(MvAlgebra(neg=neg, oplus=oplus, validate=False))
        assert v is not None
        assert v.law in SIX_LAWS
        assert violates((neg, oplus), v.law, v.witness)


def test_validation_raises_with_violation_attached():
    oplus, neg, _, _ = chain_oracle_tables(2)
    oplus = oplus.copy()
    oplus[1, 0] = 2
    with pytest.raises(AlgebraError) as exc:
        MvAlgebra(neg=neg, oplus=oplus)
    assert exc.value.violation is not None


def test_shape_and_range_validation():
    oplus, neg, _, _ = chain_oracle_tables(2)
    bad = oplus.copy()
    bad[0, 0] = 9
    with pytest.raises(AlgebraError):
        MvAlgebra(neg=neg, oplus=bad, validate=False)
    with pytest.raises(AlgebraError):
        MvAlgebra(neg=neg[:2], oplus=oplus, validate=False)


# ---------------------------------------------------------------- products

def test_product_is_componentwise():
    a = lukasiewicz_chain(2)
    c = lukasiewicz_chain(3)
    # c renamed by e -> 3 - e, so its zero is the element 3
    rev = np.arange(c.n)[::-1]
    b = MvAlgebra(rev[c.neg[rev]], rev[c.oplus[np.ix_(rev, rev)]], zero=3, labels="wxyz")
    for left, right in ((a, c), (a, b), (b, a)):
        p = product(left, right)
        assert p.n == left.n * right.n
        assert check_axioms(p) is None
        assert p.zero == left.zero * right.n + right.zero
        for i in range(left.n):
            for j in range(right.n):
                x = i * right.n + j
                for k in range(left.n):
                    for l in range(right.n):
                        y = k * right.n + l
                        want = left.oplus[i, k] * right.n + right.oplus[j, l]
                        assert p.oplus[x, y] == want
                assert p.neg[x] == left.neg[i] * right.n + right.neg[j]
                assert p.labels[x] == f"({left.labels[i]},{right.labels[j]})"


def test_product_cap():
    a = lukasiewicz_chain(7)
    with pytest.raises(CapExceeded):
        product(a, a, cap=50)


def test_product_order_is_componentwise():
    p = product(lukasiewicz_chain(1), lukasiewicz_chain(2))
    for x in range(p.n):
        for y in range(p.n):
            i, j = divmod(x, 3)
            k, l = divmod(y, 3)
            assert p.leq[x, y] == (i <= k and j <= l)


# ---------------------------------------------------------------- ideals

def test_ideal_enumeration_matches_bruteforce(small_family):
    for name, alg in small_family.items():
        if alg.n > 16:
            continue
        assert np.array_equal(enumerate_mv_ideals(alg), mv_ideals_bruteforce(alg)), name


def test_chain_has_two_mv_ideals():
    alg = lukasiewicz_chain(5)
    ideals = enumerate_mv_ideals(alg)
    assert [np.flatnonzero(i).tolist() for i in ideals] == [[0], [0, 1, 2, 3, 4, 5]]


def test_product_has_four_mv_ideals():
    p = product(lukasiewicz_chain(2), lukasiewicz_chain(3))
    ideals = enumerate_mv_ideals(p)
    assert len(ideals) == 4
    for i in ideals:
        assert is_mv_ideal(p, i)


def test_ideal_generated_two_routes_agree(small_family):
    rng = np.random.default_rng(3)
    for name, alg in small_family.items():
        for _ in range(6):
            k = int(rng.integers(1, 3))
            seed = subset(alg.n, *rng.integers(0, alg.n, size=k))
            a = ideal_generated(alg, seed)
            # the least MV ideal containing the seed
            ideals = enumerate_mv_ideals(alg)
            b = ideals[~(seed & ~ideals).any(axis=1)].all(axis=0)
            assert (a == b).all(), (name, seed)
            assert is_mv_ideal(alg, a)


def test_ideal_generated_by_one_is_whole():
    alg = lukasiewicz_chain(4)
    assert ideal_generated(alg, subset(5, 3)).all()
    assert ideal_generated(alg, subset(5, 0)).tolist() == subset(5, 0).tolist()


def y_ideals(alg):
    """The ideals of the prime MV points of the dual space, in point order."""
    space = MvDualSpace(alg)
    return space.member[list(space.y_points)]


def test_y_points_are_the_prime_mv_ideals(family):
    for name, alg in family.items():
        ideals = enumerate_mv_ideals(alg)
        want = ideals[[is_prime_mv_ideal(alg, i) for i in ideals]]
        assert np.array_equal(y_ideals(alg), want), name


def test_prime_mv_ideals_of_product():
    p = product(lukasiewicz_chain(1), lukasiewicz_chain(2))
    primes = y_ideals(p)
    assert len(primes) == 2
    for i in primes:
        assert is_prime_mv_ideal(p, i)
        assert is_maximal_mv_ideal(p, i)


def test_finite_primes_are_maximal(small_family):
    # finite MV-algebras have no strict prime chains
    for name, alg in small_family.items():
        for i in y_ideals(alg):
            assert is_maximal_mv_ideal(alg, i), name


def test_maximal_ideal_enumeration(small_family):
    for name, alg in small_family.items():
        ideals = enumerate_mv_ideals(alg)
        want = ideals[[is_maximal_mv_ideal(alg, i) for i in ideals]]
        assert np.array_equal(maximal_mv_ideals(alg), want), name


def test_is_prime_rejects_non_prime():
    p = product(lukasiewicz_chain(1), lukasiewicz_chain(1))
    assert not is_prime_mv_ideal(p, subset(p.n, 0))


# ---------------------------------------------------------------- quotients

def test_quotient_by_zero_is_identity_shape():
    alg = lukasiewicz_chain(3)
    q = quotient(alg, subset(4, 0))
    assert q.algebra.n == 4
    assert list(q.projection) == [0, 1, 2, 3]


def test_quotient_of_product_by_factor_kernel():
    a = lukasiewicz_chain(2)
    b = lukasiewicz_chain(3)
    p = product(a, b)
    kernel = np.array([label.endswith(",0)") for label in p.labels])
    assert is_mv_ideal(p, kernel)
    q = quotient(p, kernel)
    assert q.algebra.n == b.n
    assert check_axioms(q.algebra) is None
    # projection is a homomorphism
    pr = q.projection
    for x in range(p.n):
        for y in range(p.n):
            assert q.algebra.oplus[pr[x], pr[y]] == pr[p.oplus[x, y]]
        assert q.algebra.neg[pr[x]] == pr[p.neg[x]]


def test_quotient_by_prime_is_chain(small_family):
    for name, alg in small_family.items():
        for i in y_ideals(alg):
            q = quotient(alg, i)
            assert check_axioms(q.algebra) is None
            leq = q.algebra.leq
            assert (leq | leq.T).all(), name


def test_quotient_rejects_non_ideal():
    alg = lukasiewicz_chain(3)
    with pytest.raises(AlgebraError):
        quotient(alg, subset(4, 0, 2))


def test_ideal_congruence_definition():
    alg = lukasiewicz_chain(4)
    whole = np.ones(5, dtype=bool)
    assert ideal_congruent(alg, 1, 3, whole)
    assert not ideal_congruent(alg, 1, 3, subset(5, 0))
    assert ideal_congruent(alg, 2, 2, subset(5, 0))


def test_congruence_class_matches_pairwise_test():
    alg = product(lukasiewicz_chain(2), lukasiewicz_chain(3))
    for ideal in enumerate_mv_ideals(alg):
        for a in range(alg.n):
            want = [b for b in range(alg.n) if ideal_congruent(alg, b, a, ideal)]
            assert np.flatnonzero(congruence_class(alg, a, ideal)).tolist() == want
        # an index array gives one class row per entry
        rows = congruence_class(alg, np.arange(alg.n)[::-1], ideal)
        for a, row in zip(range(alg.n - 1, -1, -1), rows):
            assert (row == congruence_class(alg, a, ideal)).all()


# A subset of the carrier is a boolean row of length n; each public entry
# point refuses anything else rather than misread it.  Every malformed form
# below names the whole carrier, a lawful ideal.
MALFORMED = {
    "frozenset": lambda n: frozenset(range(n)),
    "index list": lambda n: list(range(n)),
    "wrong length": lambda n: np.ones(n + 1, dtype=bool),
    "not boolean": lambda n: np.ones(n, dtype=np.int64),
}
ROW_TAKERS = {
    "decided": lambda alg, bad: decided(alg, is_lattice_ideal, bad),
    "oplus_bar": lambda alg, bad: oplus_bar(alg, subset(alg.n, alg.zero), bad),
    "ominus_bar filter": lambda alg, bad: ominus_bar(alg, bad, subset(alg.n, alg.zero)),
    "ominus_bar ideal": lambda alg, bad: ominus_bar(alg, np.ones(alg.n, dtype=bool), bad),
    "crt_solve": lambda alg, bad: crt_solve(
        alg, np.array([bad]) if isinstance(bad, np.ndarray) else [bad], [alg.zero]
    ),
    "is_mv_ideal": is_mv_ideal,
    "ideal_generated": ideal_generated,
    "quotient": quotient,
    "congruence_class": lambda alg, bad: congruence_class(alg, alg.zero, bad),
    "ideal_congruent": lambda alg, bad: ideal_congruent(alg, alg.zero, alg.zero, bad),
}


@pytest.mark.parametrize("form", sorted(MALFORMED))
@pytest.mark.parametrize("entry", sorted(ROW_TAKERS))
def test_entry_points_refuse_anything_but_a_boolean_row(entry, form):
    alg = product(lukasiewicz_chain(2), lukasiewicz_chain(3))
    with pytest.raises(AlgebraError, match="boolean rows of length 12"):
        ROW_TAKERS[entry](alg, MALFORMED[form](alg.n))


def test_crt_solve_refuses_a_single_row_for_the_ideal_matrix():
    alg = lukasiewicz_chain(3)
    with pytest.raises(AlgebraError, match="boolean rows of length 4"):
        crt_solve(alg, subset(4, 0), [0])


# ---------------------------------------------------------------- json

def test_json_roundtrip_tables(family):
    pair = product(lukasiewicz_chain(1), lukasiewicz_chain(2))
    perm = np.random.default_rng(5).permutation(pair.n)
    for alg in [*family.values(), relabelled(pair, perm)]:
        back = algebra_from_json(algebra_to_json(alg))
        assert np.array_equal(back.oplus, alg.oplus)
        assert np.array_equal(back.neg, alg.neg)
        assert back.zero == alg.zero
        assert back.labels == alg.labels


def test_json_lukasiewicz_and_product_kinds():
    alg = algebra_from_json({"schema": "mv-spectra/1", "kind": "lukasiewicz", "n": 4})
    assert alg.n == 5
    pr = algebra_from_json(
        {
            "schema": "mv-spectra/1",
            "kind": "product",
            "factors": [
                {"kind": "lukasiewicz", "n": 1},
                {"kind": "lukasiewicz", "n": 2},
            ],
        }
    )
    assert pr.n == 6


def test_json_chang_kind():
    alg = algebra_from_json({"schema": "mv-spectra/1", "kind": "chang"})
    assert isinstance(alg, ChangAlgebra)


def test_json_rejects_garbage():
    with pytest.raises(AlgebraError):
        algebra_from_json({"kind": "nope"})
    with pytest.raises(AlgebraError):
        algebra_from_json({"kind": "lukasiewicz", "n": 0})
    with pytest.raises(AlgebraError):
        algebra_from_json({"kind": "product", "factors": [{"kind": "lukasiewicz", "n": 1}]})


# JSON as parsed: null, bools, ints of any size, floats (NaN and infinities
# included, as json.loads accepts them), strings, lists and objects
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-2, 5) | st.integers()
    | st.floats() | st.text(max_size=3)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
ENTRIES = st.integers(0, 4) | JSON_SCALARS


@st.composite
def table_descriptions(draw):
    """Either loose tables of random shape or a lawful chain's tables with one
    field or entry replaced by an arbitrary JSON value."""
    if draw(st.booleans()):
        data = {
            "kind": "tables",
            "neg": draw(st.lists(ENTRIES, max_size=5) | JSON_VALUES),
            "oplus": draw(
                st.lists(st.lists(ENTRIES, max_size=5), max_size=5) | JSON_VALUES
            ),
        }
        for key in ("zero", "labels"):
            if draw(st.booleans()):
                data[key] = draw(JSON_VALUES)
        return data
    data = algebra_to_json(lukasiewicz_chain(draw(st.integers(1, 3))))
    n = len(data["neg"])
    spot = draw(st.sampled_from(["neg", "oplus", "oplus-row", "zero", "labels", "label"]))
    value = draw(JSON_VALUES)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if spot == "neg":
        data["neg"][i] = value
    elif spot == "oplus":
        data["oplus"][i][j] = value
    elif spot == "oplus-row":
        data["oplus"][i] = value
    elif spot == "label":
        data["labels"][i] = value
    else:
        data[spot] = value
    return data


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(table_descriptions(), st.booleans())
def test_fuzzed_tables_json_builds_or_raises_algebra_error(data, validate):
    data = json.loads(json.dumps(data))  # exactly what a JSON file parses to
    try:
        alg = algebra_from_json(data, validate=validate)
    except AlgebraError:
        return
    assert isinstance(alg, MvAlgebra)


def test_reduct_is_built_once_and_shares_the_tables():
    alg = product(lukasiewicz_chain(2), lukasiewicz_chain(3))
    lat = alg.lattice_reduct()
    assert alg.lattice_reduct() is lat
    for name in ("leq", "join", "meet"):
        assert np.shares_memory(getattr(lat, name), getattr(alg, name)), name


# ---------------------------------------------------------------- table dtype


def test_every_table_is_table_dtype():
    # the reduct shares these tables: test_reduct_is_built_once_and_shares_the_tables
    assert mv.PRODUCT_CAP <= np.iinfo(mv.TABLE_DTYPE).max
    alg = product(lukasiewicz_chain(2), lukasiewicz_chain(3))
    for name in ("neg", "oplus", "ominus", "join", "meet"):
        assert getattr(alg, name).dtype == mv.TABLE_DTYPE, name
    space = MvDualSpace(alg)
    for name in ("plus", "involution", "k", "m", "generators", "_point_of", "_down_count"):
        assert getattr(space, name).dtype == mv.TABLE_DTYPE, name
    downsets = lattice_from_downsets(space.order)
    assert downsets.join.dtype == downsets.meet.dtype == mv.TABLE_DTYPE
    tables = MvAlgebra(np.array([1, 0], dtype=np.uint64), [[0, 1], [1, 1]])
    assert tables.neg.dtype == tables.oplus.dtype == mv.TABLE_DTYPE


@pytest.mark.parametrize("entry", [2, -1, 40000, -40000, 2**70], ids=str)
def test_an_out_of_range_entry_is_named_whatever_its_size(entry):
    oplus = [[0, 1], [1, entry]]
    with pytest.raises(AlgebraError, match="^table entries out of carrier range$"):
        MvAlgebra([1, 0], oplus)
    with pytest.raises(AlgebraError, match="^table entries out of carrier range$"):
        algebra_from_json({"kind": "tables", "neg": [1, 0], "oplus": oplus})


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint32, np.uint64, np.float64])
def test_an_out_of_range_array_entry_is_not_wrapped(dtype):
    # 65536 would wrap to 0 in int16, inside the carrier
    oplus = np.array([[0, 1], [1, 65536]], dtype=dtype)
    with pytest.raises(AlgebraError, match="^table entries out of carrier range$"):
        MvAlgebra(np.array([1, 0], dtype=dtype), oplus)


def test_ragged_tables_are_named_without_a_dtype():
    with pytest.raises(AlgebraError, match="^tables must be rectangular integer arrays$"):
        MvAlgebra([1, 0], [[0, 1], [1]])


def test_carriers_over_the_cap_are_refused():
    for n in (mv.PRODUCT_CAP + 1, 40000):  # 40000 is past TABLE_DTYPE too
        with pytest.raises(CapExceeded, match=f"^carrier {n} exceeds cap 4096$"):
            MvAlgebra(list(range(n))[::-1], [[0]])
    with pytest.raises(CapExceeded, match="chain carrier 4097 exceeds cap 4096"):
        lukasiewicz_chain(mv.PRODUCT_CAP)


def int64_chain_product(shape, rows):
    """neg and the oplus rows of L_{n1} x ... x L_{nk} in int64, from the
    mixed-radix digits of each element; independent of mv's constructions."""
    sizes = [m + 1 for m in shape]
    digits = np.unravel_index(np.arange(math.prod(sizes), dtype=np.int64), sizes)
    neg = np.ravel_multi_index([m - d for m, d in zip(shape, digits)], sizes)
    oplus = np.ravel_multi_index(
        [np.minimum(d[rows, None] + d[None, :], m) for m, d in zip(shape, digits)], sizes
    )
    return neg, oplus


@pytest.mark.parametrize("shape", [(63, 63), (4095,)], ids=["L63xL63", "L4095"])
def test_tables_at_the_cap_match_int64_and_pass_the_certificate(shape):
    # every index of a carrier at the cap, in TABLE_DTYPE, against an int64
    # reference a block of rows at a time; a wrap near 4096 would show here
    alg = reduce(product, map(lukasiewicz_chain, shape))
    n = alg.n
    assert n == mv.PRODUCT_CAP
    assert np.array_equal(alg.neg, int64_chain_product(shape, slice(0, 0))[0])
    for lo in range(0, n, 512):
        rows = slice(lo, lo + 512)
        assert np.array_equal(alg.oplus[rows], int64_chain_product(shape, rows)[1])
    assert mv._chain_certificate(alg)
    # a symmetric edit of one sum, high in every coordinate, is refused
    e = np.ravel_multi_index([m // 3 for m in shape], [m + 1 for m in shape])
    oplus = alg.oplus.copy()
    oplus[e, e] -= 1
    assert not mv._chain_certificate(MvAlgebra(alg.neg, oplus, validate=False))
    neg = alg.neg.copy()
    neg[[e, n - 1 - e]] = neg[[n - 1 - e, e]]
    assert not mv._chain_certificate(MvAlgebra(neg, alg.oplus, validate=False))
