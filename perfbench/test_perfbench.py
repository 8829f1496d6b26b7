"""Tests of the benchmark itself: generator, checker, one tiny pass of each mode.

    python3 -m pytest -q perfbench

Run from the repository root; the smoke tests start mvspectra as a child
process with src on the path.
"""

import copy
import json
import os
import subprocess
import sys

import pytest

import checker
import reference
import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TINY = [
    ("spectrum", (2, 1), None),
    ("spectrum", workloads.CHANG, None),
    ("verify", (2,), None),
    ("verify", workloads.CHANG, None),
    ("check", (3, 2), None),
    ("check", (3, 2), "oplus-symmetric"),
    ("check", (3, 2), "neg-swap"),
]


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", TINY)
    return workloads.generate("tiny", 7, str(tmp_path / "inputs"))


def _files(directory):
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    first = workloads.generate(workload, 3, str(tmp_path / "a"))
    second = workloads.generate(workload, 3, str(tmp_path / "b"))
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert [j["args"][:1] + j["args"][3:] for j in first] == \
        [j["args"][:1] + j["args"][3:] for j in second]


def test_seed_moves_order_relabelling_and_perturbations(tmp_path):
    a = workloads.generate("check-tables", 1, str(tmp_path / "a"))
    b = workloads.generate("check-tables", 2, str(tmp_path / "b"))
    assert _files(tmp_path / "a") != _files(tmp_path / "b")
    assert sorted(j["name"] for j in a) == sorted(j["name"] for j in b)


def test_relabelled_tables_are_the_same_chain_product():
    neg, oplus, zero, labels = workloads.chain_product_tables([2, 1])
    perm = [4, 2, 0, 5, 1, 3]
    rneg, roplus, rzero, rlabels = workloads.relabel(neg, oplus, zero, labels, perm)
    assert rzero == perm[zero]
    for a in range(6):
        assert rneg[perm[a]] == perm[neg[a]]
        assert rlabels[perm[a]] == labels[a]
        for b in range(6):
            assert roplus[perm[a]][perm[b]] == perm[oplus[a][b]]


def test_checker_does_not_import_mvspectra():
    probe = "import sys, checker; print(any(m.startswith('mvspectra') for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         cwd=os.path.dirname(os.path.abspath(__file__)), check=True)
    assert out.stdout.strip() == "False"


def _run_all(jobs, tmp_path):
    with run.Launcher() as launcher:
        return [launcher.run(job, str(tmp_path / "job")) for job in jobs]


def _find(jobs, records, command, symbolic=False, perturbation=None):
    for job, rec in zip(jobs, records):
        expect = job["expect"]
        kind = expect["perturbation"] and expect["perturbation"]["kind"]
        if (job["command"] == command and kind == perturbation
                and (expect["factors"] is None) == symbolic):
            return job, rec
    raise LookupError(command)


def test_tiny_pass_passes_the_checker(tiny, tmp_path):
    records = _run_all(tiny, tmp_path)
    assert [run.judge(job, rec) for job, rec in zip(tiny, records)] == [None] * len(tiny)
    assert all(rec["maxrss_kb"] > 0 for rec in records)


def test_peak_rss_leaves_out_the_benchmark_process(tiny, tmp_path):
    ballast = bytearray(os.urandom(1 << 20)) * 96  # 96 MB, resident in this process
    records = _run_all(tiny[:1], tmp_path)
    assert len(ballast) == 96 << 20
    assert 0 < records[0]["maxrss_kb"] < 90 * 1024


def test_reference_speed_cancels_a_uniform_slowdown():
    assert reference.at_reference_speed(1.0, reference.REF_S) == 1.0
    assert reference.at_reference_speed(3.0, 2 * reference.REF_S) == \
        pytest.approx(reference.at_reference_speed(1.5, reference.REF_S))
    assert reference.reference() > 0


def test_lower_quartile():
    assert run.lower_quartile([2.0]) == 2.0
    assert run.lower_quartile([1.0, 5.0]) == 2.0
    assert run.lower_quartile([4.0, 1.0, 3.0, 2.0, 9.0]) == 2.0


def test_checker_rejects_mutated_outputs(tiny, tmp_path):
    records = _run_all(tiny, tmp_path)

    job, rec = _find(tiny, records, "spectrum")
    data = json.loads(rec["stdout"])
    dropped = copy.deepcopy(data)
    dropped["Y"].pop()
    assert checker.check_job(job, 0, json.dumps(dropped)) is not None
    merged = copy.deepcopy(data)
    merged["order"].append([merged["Y"][0], merged["Y"][1]])
    assert checker.check_job(job, 0, json.dumps(merged)) is not None
    assert checker.check_job(job, 1, rec["stdout"]) is not None

    job, rec = _find(tiny, records, "check", perturbation="oplus-symmetric")
    data = json.loads(rec["stdout"])
    assert data["violation"]["law"] == "associativity"
    wrong = copy.deepcopy(data)
    wrong["violation"]["witness"] = [0, 0, 0]  # (a+a)+a = a+(a+a) in any commutative table
    assert "does not break" in checker.check_job(job, 1, json.dumps(wrong))
    renamed = copy.deepcopy(data)
    renamed["violation"]["law"] = "commutativity"
    assert checker.check_job(job, 1, json.dumps(renamed)) is not None
    assert checker.check_job(job, 0, rec["stdout"]) is not None

    job, rec = _find(tiny, records, "verify", symbolic=True)
    data = json.loads(rec["stdout"])
    data["results"][0]["status"] = "skip"
    assert checker.check_job(job, 0, json.dumps(data)) is not None


def test_valid_tables_must_be_accepted(tiny, tmp_path):
    job = next(j for j in tiny if j["command"] == "check" and j["expect"]["perturbation"] is None)
    rejected = {"schema": "mv-spectra/1", "ok": False,
                "violation": {"law": "associativity", "witness": [0, 1, 2],
                              "witness_labels": ["a", "b", "c"]}}
    assert checker.check_job(job, 1, json.dumps(rejected)) is not None


def test_traced_pass_reports_layers(tiny, tmp_path):
    values, attempted, failed, detail = run.traced_run(tiny, str(tmp_path))
    assert (attempted, failed) == (len(tiny), 0), detail["jobs"]
    finite_spectra = sum(1 for j in tiny if j["command"] == "spectrum"
                         and j["expect"]["factors"] is not None)
    finite_verifies = sum(1 for j in tiny if j["command"] == "verify"
                          and j["expect"]["factors"] is not None)
    assert values["spectrum.MvDualSpace.calls"] == finite_spectra + 3 * finite_verifies
    assert values["mv.check_axioms.calls"] == 4  # three check jobs, one finite verify
    assert values["verify.axioms.calls"] == 1
    assert values["verify.axioms-bounded.calls"] == 1
    assert values["sheaf.section_candidates"] >= values["sheaf.sections"] > 0
    assert abs(detail["unattributed_frac"]) < 0.01
    spans = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert len(spans) == detail["spans"] > 0


def test_timed_pass_reports_end_to_end(tiny, tmp_path):
    values, attempted, failed, detail = run.timed_run(tiny, 0.1, str(tmp_path))
    assert (attempted, failed) == (len(tiny), 0)
    assert values["wall_s"] > 0 and values["setup_s"] > 0 and values["peak_rss_mb"] > 0
    assert all(len(j["stdout_sha256"]) == 64 for j in detail["jobs"])
    assert all(len(j["scaled_s"]) == len(j["seconds"]) == 1 for j in detail["jobs"])


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "check-tables", "--seed", "1", "--seconds", "1"])
    assert code != 0
