"""Suite-runner behavior: statuses, determinism, and honest failures."""

import numpy as np
import pytest

from mvspectra import verify
from mvspectra.chang import ChangAlgebra
from mvspectra.errors import Error
from mvspectra.mv import MvAlgebra, lukasiewicz_chain, product
from mvspectra.verify import SUITE_NAMES, run_suite


def test_all_suite_passes_and_lines_format():
    rows = run_suite(lukasiewicz_chain(3), "all")
    assert all(r.status == "pass" for r in rows)
    names = [r.name for r in rows]
    assert len(names) == len(set(names))
    assert rows[0].line() == "[PASS] axioms"


def test_suite_names_cover_registry():
    for suite in SUITE_NAMES:
        assert run_suite(lukasiewicz_chain(2), suite)


def test_unknown_suite_rejected():
    with pytest.raises(Error):
        run_suite(lukasiewicz_chain(2), "nope")


def test_chang_statuses():
    rows = {r.name: r for r in run_suite(ChangAlgebra(), "all", chang_bound=8)}
    assert rows["axioms-bounded"].status == "pass"
    assert rows["plus-symbolic-window"].status == "pass"
    assert rows["k-closed-forms-window"].status == "pass"
    assert rows["spectrum-doubleton"].status == "pass"
    skips = [r for r in rows.values() if r.status == "skip"]
    assert len(skips) == 3
    assert all("symbolic" in r.detail for r in skips)


def test_broken_algebra_fails_not_raises():
    good = lukasiewicz_chain(2)
    oplus = good.oplus.copy()
    oplus[1, 1] = 1
    broken = MvAlgebra(good.neg.copy(), oplus, validate=False)
    rows = run_suite(broken, "all")
    assert any(r.status == "fail" for r in rows)
    assert rows[0].name == "axioms" and rows[0].status == "fail"
    assert rows[0].detail


def test_deterministic_across_runs():
    one = run_suite(lukasiewicz_chain(4), "crt", seed=5)
    two = run_suite(lukasiewicz_chain(4), "crt", seed=5)
    assert one == two


# -- each law is owned by its row: a corrupted space fails exactly there --------

REAL_SPACE = verify.MvDualSpace
L2xL3 = product(lukasiewicz_chain(2), lukasiewicz_chain(3))
# its points: 0 < 1 over the MV point 0, and 4 < 3 < 2 over the MV point 4


def _swap_involution(s):
    s.involution[[0, 4]] = s.involution[[4, 0]]


def _drop_plus_entry(s):
    s.plus[0, 1] = -1


def _k_fixes_non_mv_point(s):
    s.k[1] = 1


def _y_misses_a_point(s):
    s.y_points = (0,)
    s.y_set = frozenset(s.y_points)


def _fiber_across_components(s):
    # both fiber descriptions move 1 from over 0 to over 4, beside the
    # incomparable point 4
    s.k[1] = 4
    s.plus[1, 4] = 1
    s.plus[1, 0] = -1


def _germ_carves_less_than_fiber(s):
    s.mk = np.array([0, 0, 4, 4, 0])


def _redirect_a_sum(s):
    # 3 + 4 is 3; 2 is another point over 4, and the entry stays defined
    s.plus[3, 4] = s.plus[4, 3] = 2


CORRUPTIONS = [
    ("plus", "involution-laws", _swap_involution, ""),
    ("plus", "plus-commutative", _drop_plus_entry, ""),
    ("k", "k-fixes-exactly-mv-points", _k_fixes_non_mv_point, ""),
    ("plus", "plus-idempotents-are-mv-points", _y_misses_a_point, ""),
    ("k", "k-fibers-cover-and-chain", _fiber_across_components, "not a chain"),
    ("sheaf-maximal", "germinal-ideals-carve-fibers", _germ_carves_less_than_fiber,
     "m.k fiber"),
    ("plus", "plus-matches-ideal-sums", _redirect_a_sum, "differs from the ideal sum"),
]


@pytest.mark.parametrize(
    "suite,row,edit,detail", CORRUPTIONS, ids=[c[2].__name__ for c in CORRUPTIONS]
)
def test_corrupted_space_fails_the_owning_row(monkeypatch, suite, row, edit, detail):
    def corrupted(alg):
        space = REAL_SPACE(alg)
        edit(space)
        return space

    assert {r.status for r in run_suite(L2xL3, suite)} == {"pass"}
    monkeypatch.setattr(verify, "MvDualSpace", corrupted)
    rows = {r.name: r for r in run_suite(L2xL3, suite)}
    assert rows[row].status == "fail"
    assert detail in rows[row].detail
