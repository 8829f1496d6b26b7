"""Acceptance gate: one test per criterion, timed where a target is stated.

Each test covers the whole family (chains to n = 8, all pairwise products
with carrier <= 64, the symbolic chain at bound 32) and prints a single
summary line; run with -v for one line per criterion.
"""

import time

import numpy as np
import pytest

from mvspectra import sheaf as sh
from mvspectra import spectrum as sp
from mvspectra.chang import ChangAlgebra, ChangSpace
from mvspectra.errors import Error
from mvspectra.lattice import duality_roundtrip, lattice_from_downsets
from mvspectra.mv import MvAlgebra, check_axioms, lukasiewicz_chain, product
from mvspectra.verify import run_suite

from conftest import poset_from_pairs

CRT_INSTANCES = 200
SECTION_CAP = 10**6


def _suite_over(family, suite, **kw):
    failures = []
    for label, alg in family.items():
        for row in run_suite(alg, suite, **kw):
            if row.status == "fail":
                failures.append(f"{label}: {row.line()}")
    return failures


def _rows_over(family, suite, wanted, **kw):
    failures = []
    for label, alg in family.items():
        rows = {r.name: r for r in run_suite(alg, suite, **kw)}
        for name in wanted:
            if rows[name].status != "pass":
                failures.append(f"{label}: {rows[name].line()}")
    return failures


def test_criterion_1_axiom_suite(family):
    t0 = time.monotonic()
    for label, alg in family.items():
        assert check_axioms(alg) is None, label
    assert ChangAlgebra().first_violation(32) is None
    dt = time.monotonic() - t0
    assert dt < 5.0, f"axiom suite took {dt:.2f}s"
    print(f"criterion 1 (axioms, {len(family)} algebras + symbolic): PASS in {dt:.2f}s")


def test_criterion_2_duality_roundtrip(family):
    t0 = time.monotonic()
    for label, alg in family.items():
        duality_roundtrip(alg.lattice_reduct())
    rng = np.random.default_rng(2026)
    for trial in range(100):
        k = int(rng.integers(1, 11))
        pairs = [
            (i, j)
            for i in range(k)
            for j in range(i + 1, k)
            if rng.random() < 0.3
        ]
        lat = lattice_from_downsets(poset_from_pairs(k, pairs))
        duality_roundtrip(lat)
    dt = time.monotonic() - t0
    assert dt < 10.0, f"duality round-trips took {dt:.2f}s"
    print(f"criterion 2 (duality round-trip, family + 100 random): PASS in {dt:.2f}s")


def test_criterion_3_dual_structure_suite(family):
    t0 = time.monotonic()
    failures = _suite_over(family, "plus")
    assert not failures, "\n".join(failures)
    dt = time.monotonic() - t0
    assert dt < 30.0, f"dual-structure suite took {dt:.2f}s"
    print(f"criterion 3 (partial addition suite): PASS in {dt:.2f}s")


def test_criterion_4_k_map_equivalence(family):
    failures = _rows_over(
        family,
        "k",
        (
            "k-three-routes-agree",
            "k-fixes-exactly-mv-points",
            "k-fibers-cover-and-chain",
            "k-continuity-identity",
        ),
    )
    assert not failures, "\n".join(failures)
    print("criterion 4 (k-map equivalence and fibers): PASS")


def test_criterion_5_interpolation(family):
    failures = _rows_over(family, "k", ("interpolation-witness",))
    assert not failures, "\n".join(failures)
    print("criterion 5 (interpolation): PASS")


def test_criterion_6_kaplansky(family):
    failures = _suite_over(family, "kaplansky")
    assert not failures, "\n".join(failures)
    space = ChangSpace()
    assert len(space.y_points) == 2 and len(space.z_points) == 1
    chang_rows = run_suite(ChangAlgebra(), "kaplansky")
    assert all(r.status == "pass" for r in chang_rows)
    print("criterion 6 (maximal-spectrum reconstruction): PASS")


def test_criterion_7_sheaf_reconstruction(family):
    t0 = time.monotonic()
    failures = _suite_over(family, "sheaf-prime", section_cap=SECTION_CAP)
    failures += _suite_over(family, "sheaf-maximal", section_cap=SECTION_CAP)
    assert not failures, "\n".join(failures)
    dt = time.monotonic() - t0
    assert dt < 60.0, f"sheaf reconstruction took {dt:.2f}s"
    print(f"criterion 7 (section isomorphism, both bases): PASS in {dt:.2f}s")


def test_criterion_8_crt(family):
    failures = _suite_over(family, "crt", crt_count=CRT_INSTANCES, seed=2026)
    assert not failures, "\n".join(failures)
    print(f"criterion 8 (remainder solving, {CRT_INSTANCES} instances each): PASS")


def test_criterion_9_negative_controls():
    # axiom scan rejects a perturbed table and names the law and witness
    good = lukasiewicz_chain(2)
    neg = good.neg.copy()
    neg[1] = 2
    bad = check_axioms(MvAlgebra(neg, good.oplus.copy(), validate=False))
    assert bad is not None and bad.law == "involution" and bad.witness

    # the patcher rejects incompatible basic sets with a located violation
    alg = product(lukasiewicz_chain(2), lukasiewicz_chain(3))
    space = sp.build_dual_space(alg)
    res = sh.check_property_p(
        space,
        sh.BASE_PRIME,
        np.array([space.in_y, space.in_y]),
        np.array([space.hat(alg.zero), space.hat(alg.one)]),
    )
    assert not res.ok and res.violation is not None

    # remainder solving rejects clashing targets, naming the pair
    kern_first_and_zero = np.array([np.arange(12) < 4, np.arange(12) == 0])
    with pytest.raises(Error, match="incompatible"):
        sh.crt_solve(alg, kern_first_and_zero, [8, 0])

    print("criterion 9 (negative controls): PASS")
