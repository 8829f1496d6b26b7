"""End-to-end command tests through main(), no subprocesses."""

import hashlib
import io
import json
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvspectra.cli import main
from mvspectra.mv import (
    SCHEMA,
    MvAlgebra,
    _first_violation,
    lukasiewicz_chain,
    product,
)

from conftest import algebra_to_json, relabelled

L4 = '{"kind":"lukasiewicz","n":4}'
PROD = '{"kind":"product","factors":[{"kind":"lukasiewicz","n":2},{"kind":"lukasiewicz","n":3}]}'
CHANG = '{"kind":"chang"}'
BROKEN = json.dumps(
    {
        "kind": "tables",
        "neg": [2, 2, 0],
        "oplus": [[0, 1, 2], [1, 2, 2], [2, 2, 2]],
    }
)


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def test_check_ok():
    code, text = run(["check", "--input", L4])
    assert code == 0
    assert text == "ok\n"


def test_check_violation_witness():
    code, text = run(["check", "--input", BROKEN])
    assert code == 1
    assert "violation" in text and "involution" in text
    code, text = run(["check", "--input", BROKEN, "--format", "json"])
    assert code == 1
    data = json.loads(text)
    assert data["ok"] is False
    assert data["violation"]["law"] == "involution"
    assert data["violation"]["witness"]


def test_check_json_reports_the_scans_result():
    perm = np.random.default_rng(7).permutation(12)
    lawful = relabelled(product(lukasiewicz_chain(2), lukasiewicz_chain(3)), perm)
    oplus = lawful.oplus.copy()
    oplus[1, 2] = oplus[2, 1] = 5
    broken = MvAlgebra(
        lawful.neg, oplus, zero=lawful.zero, labels=lawful.labels, validate=False
    )
    for alg, law in ((lawful, None), (broken, "associativity")):
        bad = _first_violation(alg)
        assert (bad and bad.law) == law
        report = {"schema": SCHEMA, "ok": bad is None, "violation": None}
        if bad is not None:
            report["violation"] = {
                "law": bad.law,
                "witness": list(bad.witness),
                "witness_labels": list(bad.witness_labels),
            }
        code, text = run(
            ["check", "--input", json.dumps(algebra_to_json(alg)), "--format", "json"]
        )
        assert code == (0 if bad is None else 1)
        assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"


@st.composite
def relabelled_products(draw):
    """A product of chains with carrier up to 64, and the same algebra on a
    permuted carrier."""
    factors = draw(
        st.lists(st.integers(1, 63), min_size=1, max_size=6).filter(
            lambda fs: np.prod([f + 1 for f in fs]) <= 64
        )
    )
    alg = lukasiewicz_chain(factors[0])
    for f in factors[1:]:
        alg = product(alg, lukasiewicz_chain(f))
    perm = draw(st.permutations(range(alg.n)))
    return alg, relabelled(alg, perm)


@settings(derandomize=True, deadline=None, max_examples=10, database=None)
@given(relabelled_products())
def test_check_and_verify_print_the_same_bytes_after_relabelling(pair):
    outputs = []
    for alg in pair:
        raw = json.dumps(algebra_to_json(alg))
        outputs.append(
            [
                run(["check", "--input", raw, "--format", "json"]),
                run(["verify", "--input", raw, "--suite", "all", "--format", "json"]),
            ]
        )
    assert outputs[0] == outputs[1]
    assert [code for code, _ in outputs[0]] == [0, 0]


@settings(derandomize=True, deadline=None, max_examples=10, database=None)
@given(relabelled_products())
def test_spectrum_json_after_relabelling_matches_through_the_permutation(pair):
    alg, moved = pair
    # element a of alg is element perm[a] of moved; product labels are unique
    perm = np.array([moved.labels.index(label) for label in alg.labels])
    docs = []
    for a in pair:
        code, text = run(["spectrum", "--input", json.dumps(algebra_to_json(a)), "--format", "json"])
        assert code == 0
        docs.append(json.loads(text))
    orig, rel = docs
    assert orig.keys() == rel.keys()
    assert (orig["schema"], orig["kind"]) == (rel["schema"], rel["kind"])
    # each point is matched by its ideal mapped through the permutation
    point_of = {tuple(p["ideal"]): x for x, p in enumerate(rel["points"])}
    match = np.array(
        [point_of[tuple(sorted(perm[p["ideal"]].tolist()))] for p in orig["points"]]
    )
    assert sorted(match.tolist()) == list(range(len(rel["points"])))
    assert [p["generator"] for p in orig["points"]] == [
        rel["points"][x]["generator"] for x in match
    ]
    assert sorted(match[orig["order"]].tolist()) == sorted(rel["order"])
    assert match[orig["involution"]].tolist() == [rel["involution"][x] for x in match]
    plus = np.array(orig["plus"])
    mapped = np.where(plus >= 0, match[plus], -1)
    assert (np.array(rel["plus"])[np.ix_(match, match)] == mapped).all()
    for key in ("Y", "Z"):
        assert sorted(match[orig[key]].tolist()) == rel[key]
    assert match[orig["k"]].tolist() == [rel["k"][x] for x in match]
    assert sorted(match[orig["m"]].tolist()) == rel["m"]


def test_check_chang_bounded():
    code, text = run(["check", "--input", CHANG, "--chang-bound", "6"])
    assert code == 0 and text == "ok\n"


def test_parse_error_with_position(capsys):
    code, _ = run(["check", "--input", '{"kind": lukas}'])
    assert code == 2
    err = capsys.readouterr().err
    assert "parse error at line 1 column" in err


def test_missing_input_and_missing_file(capsys):
    assert run(["check"])[0] == 2
    assert run(["check", "--input", "/nonexistent/algebra.json"])[0] == 2


def test_input_from_file(tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(PROD, encoding="utf-8")
    code, text = run(["spectrum", "--input", str(path), "--format", "json"])
    assert code == 0
    data = json.loads(text)
    assert data["schema"] == "mv-spectra/1"
    assert len(data["points"]) == 5


def test_spectrum_formats():
    code, text = run(["spectrum", "--input", L4])
    assert code == 0 and text.startswith("points: ")
    code, dot = run(["spectrum", "--input", L4, "--format", "dot"])
    assert code == 0 and dot.startswith("digraph")
    code, text = run(["spectrum", "--input", CHANG])
    assert code == 0 and "symbolic chain space" in text


def _relabelled_l2xl3_tables():
    # relabelling moves the canonical point order: here the generators come
    # out as (1,3), (2,2), (0,3), (2,1), (2,0) instead of (0,3), (1,3), ...
    perm = [5, 11, 0, 7, 2, 9, 4, 1, 10, 3, 8, 6]
    alg = relabelled(product(lukasiewicz_chain(2), lukasiewicz_chain(3)), perm)
    return json.dumps(algebra_to_json(alg))


# the sha256 of spectrum --format json stdout, which holds every point
# index, ideal, order pair and table entry
PINNED_SPECTRA = {
    "L1xL2": (
        '{"kind":"product","factors":[{"kind":"lukasiewicz","n":1},'
        '{"kind":"lukasiewicz","n":2}]}',
        "92d904d7e416c5dd214f7ff8db53ffd0c3b4e92f6c86ea40e3d32d6634d419a0",
    ),
    "relabelled-L2xL3-tables": (
        _relabelled_l2xl3_tables(),
        "d39f809f5d2c8f909b380d06eb205b612390a1e70934121a99b8d1751791a878",
    ),
    # long lists: 101 points with up to 100 members each
    "L100": (
        '{"kind":"lukasiewicz","n":100}',
        "a50017e67e5ded8fb98ba9a43a0adf2fcb1a3ef1d88a4c40b9d2a23045ce2b27",
    ),
    # the carrier at the cap, where a wrap of an index near 4096 would show
    "L63xL63": (
        '{"kind":"product","factors":[{"kind":"lukasiewicz","n":63},'
        '{"kind":"lukasiewicz","n":63}]}',
        "13fd0a7a6ff38ab065dd1aeb6f852f2e62821dfad3745b1672e7ab12d636875d",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SPECTRA))
def test_spectrum_json_bytes_are_pinned(name):
    raw, sha256 = PINNED_SPECTRA[name]
    code, text = run(["spectrum", "--input", raw, "--format", "json"])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


def _chains(*ns):
    chains = [{"kind": "lukasiewicz", "n": n} for n in ns]
    return json.dumps(chains[0] if len(chains) == 1 else {"kind": "product", "factors": chains})


# the sha256 of verify --suite all stdout on the finite verify-mix shapes:
# every row passes, so a renamed, reordered or newly skipping row moves it
PINNED_VERIFY = {"json": "95071c4adc23d2f46ec0be1577ad6a8fc0a820fadc777b876010225fa920bd33",
                 "text": "dba27f96dbc8b9497f5102b09711815533c4d671a6971aaf8b0dcf312edd4d74"}


@pytest.mark.parametrize("fmt", sorted(PINNED_VERIFY))
@pytest.mark.parametrize("shape", [(47,), (7, 7), (2, 2, 2), (1,) * 5])
def test_finite_verify_bytes_are_pinned(shape, fmt):
    code, text = run(["verify", "--input", _chains(*shape), "--suite", "all", "--format", fmt])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_VERIFY[fmt]


# the sha256 of Chang's chain outputs, pinned when its closed forms moved
# onto integer arrays
PINNED_CHANG = {
    "verify-0": (["verify", "--suite", "all", "--format", "json", "--chang-bound", "0"],
                 "407a8c4d53d1bbf23c531063f4a4cd83dcc3d0307881305fb07eb23fbb6a91d4"),
    "verify-6": (["verify", "--suite", "all", "--format", "json", "--chang-bound", "6"],
                 "407a8c4d53d1bbf23c531063f4a4cd83dcc3d0307881305fb07eb23fbb6a91d4"),
    "verify-32": (["verify", "--suite", "all", "--format", "json", "--chang-bound", "32"],
                  "407a8c4d53d1bbf23c531063f4a4cd83dcc3d0307881305fb07eb23fbb6a91d4"),
    "spectrum-32": (["spectrum", "--format", "json", "--chang-bound", "32"],
                    "3bb7b0fdddb78e5146ba7d9eb2340838bb58870514dce9c6e1f5354333ffb40a"),
    "check-128": (["check", "--chang-bound", "128"],
                  "dc51b8c96c2d745df3bd5590d990230a482fd247123599548e0632fdbf97fc22"),
}


@pytest.mark.parametrize("name", sorted(PINNED_CHANG))
def test_chang_bytes_are_pinned(name):
    argv, sha256 = PINNED_CHANG[name]
    code, text = run([argv[0], "--input", CHANG, *argv[1:]])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


def test_spectrum_carrier_cap(capsys):
    code, _ = run(["spectrum", "--input", PROD, "--cap", "5"])
    assert code == 1
    assert "exceeds the cap" in capsys.readouterr().err


def test_product_with_chang_factor_is_usage_error(capsys):
    mixed = '{"kind":"product","factors":[{"kind":"chang"},{"kind":"lukasiewicz","n":1}]}'
    for command in ("check", "spectrum", "verify"):
        code, text = run([command, "--input", mixed])
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err.startswith("mvspectra: ") and "Traceback" not in err


def test_verify_pass_lines():
    code, text = run(["verify", "--input", '{"kind":"lukasiewicz","n":3}'])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines and all(line.startswith("[PASS]") for line in lines)


def test_verify_suite_flags():
    code, text = run(["verify", "--input", PROD, "--suite", "sheaf-prime"])
    assert code == 0 and "eta-prime-isomorphism" in text
    code, _ = run(["verify", "--input", L4, "--suite", "kaplansky"])
    assert code == 0


def test_verify_kaplansky_on_a_chain_past_a_thousand_join_irreducibles():
    code, text = run(["verify", "--input", '{"kind":"lukasiewicz","n":1023}', "--suite", "kaplansky"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines and all(line.startswith("[PASS]") for line in lines)


def test_verify_requires_valid_algebra():
    # verify's precondition is a lawful algebra, so bad tables are usage
    code, _ = run(["verify", "--input", BROKEN])
    assert code == 2


def test_verify_failure_exit_code(monkeypatch):
    from mvspectra import verify
    from mvspectra.verify import CheckResult

    # the verify command imports run_suite from its home when it runs
    monkeypatch.setattr(
        verify, "run_suite", lambda *a, **k: [CheckResult("law", "fail", "broken")]
    )
    code, text = run(["verify", "--input", L4])
    assert code == 1
    assert "[FAIL] law" in text


def test_verify_chang_skips_are_not_failures():
    code, text = run(["verify", "--input", CHANG, "--chang-bound", "6"])
    assert code == 0
    assert "[SKIP]" in text and "[FAIL]" not in text


def test_verify_whole_suite_skip_on_cap():
    code, text = run(["verify", "--input", PROD, "--cap", "5"])
    assert code == 0
    assert text.startswith("[SKIP] whole suite")


def test_verify_json_deterministic():
    argv = ["verify", "--input", PROD, "--suite", "k", "--format", "json", "--seed", "3"]
    assert run(argv) == run(argv)
    code, text = run(argv)
    data = json.loads(text)
    assert data["suite"] == "k"
    assert all(r["status"] == "pass" for r in data["results"])


def test_dot_rejected_where_meaningless(capsys):
    assert run(["check", "--input", L4, "--format", "dot"])[0] == 2
    assert run(["verify", "--input", L4, "--format", "dot"])[0] == 2


def test_huge_chain_rejected_before_tables(capsys):
    # (n + 1)^2 int16 tables of L100000 would take about 19 GiB
    huge = '{"kind":"lukasiewicz","n":100000}'
    for command in ("spectrum", "check"):
        start = time.perf_counter()
        code, text = run([command, "--input", huge])
        assert time.perf_counter() - start < 1.0
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert "exceeds cap 4096" in err and "Traceback" not in err


def test_huge_tables_rejected_before_rows(capsys):
    # a 4,097-entry neg is over the cap; the oplus value is never walked (a
    # string would otherwise be a malformed-rows error) and no n x n table,
    # 34 MB as int16, is built
    huge = json.dumps({"kind": "tables", "neg": list(range(4097))[::-1],
                       "oplus": "never read"})
    for command in ("spectrum", "check", "verify"):
        tracemalloc.start()
        try:
            code, text = run([command, "--input", huge])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err == "mvspectra: tables carrier 4097 exceeds cap 4096\n"


def _l2_tables(**edit):
    data = {"kind": "tables", "neg": [2, 1, 0],
            "oplus": [[0, 1, 2], [1, 2, 2], [2, 2, 2]]}
    data.update(edit)
    return json.dumps(data)


MALFORMED = [
    _l2_tables(zero="a"),
    _l2_tables(oplus=[[0, None, 2], [1, 2, 2], [2, 2, 2]]),
    _l2_tables(oplus=[[0, "x", 2], [1, 2, 2], [2, 2, 2]]),
    _l2_tables(labels=5),
    _l2_tables(oplus=[[0, 1.5, 2], [1, 2, 2], [2, 2, 2]]),
    _l2_tables(oplus=[[0, True, 2], [1, 2, 2], [2, 2, 2]]),
    '{"kind":"lukasiewicz","n":Infinity}',
    '{"kind":"lukasiewicz","n":true}',
    '{"kind":"lukasiewicz","n":1.5}',
    '{"kind":"lukasiewicz","n":"4"}',
]


@pytest.mark.parametrize(
    "raw", MALFORMED,
    ids=["zero-string", "oplus-null", "oplus-string", "labels-int", "oplus-float",
         "oplus-bool", "n-infinity", "n-bool", "n-float", "n-string"],
)
def test_malformed_json_is_usage_error(capsys, raw):
    assert run(["check", "--input", _l2_tables()]) == (0, "ok\n")
    for command in ("check", "spectrum"):
        code, text = run([command, "--input", raw])
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err.startswith("mvspectra: ") and "Traceback" not in err


@pytest.mark.parametrize("entry", [3, 40000, 2**70], ids=str)
def test_out_of_range_table_entry_is_named_whatever_its_size(capsys, entry):
    raw = _l2_tables(oplus=[[0, 1, 2], [1, 2, 2], [2, 2, entry]])
    for command in ("check", "spectrum", "verify"):
        assert run([command, "--input", raw]) == (2, "")
        assert capsys.readouterr().err == "mvspectra: table entries out of carrier range\n"


def test_inline_array_is_parsed_not_opened(capsys):
    for raw in ("[]", "  [1, 2]"):
        code, text = run(["check", "--input", raw])
        assert code == 2 and text == ""
        assert capsys.readouterr().err == "mvspectra: algebra JSON must be an object\n"


def test_usage_errors_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--input", L4, "--suite", "bogus"], out=io.StringIO())
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"], out=io.StringIO())
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flags", [["--chang-bound", "-5"], ["--chang-bound", "-1"],
              ["--chang-bound", "129"], ["--cap", "-1"], ["--seed", "-1"]],
    ids=["bound-minus-5", "bound-minus-1", "bound-above-ceiling", "cap-negative",
         "seed-negative"],
)
def test_bound_and_cap_rejected_before_any_scan(capsys, flags):
    for command in ("check", "spectrum", "verify"):
        buf = io.StringIO()
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", CHANG, *flags], out=buf)
        assert exc.value.code == 2 and buf.getvalue() == ""
        err = capsys.readouterr().err
        assert "is not" in err and "Traceback" not in err
