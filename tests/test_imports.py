"""The lazy package surface, and the modules each CLI command loads.

`import mvspectra` loads no submodule; each command imports only the layers
it runs.  The module sets are read off sys.modules in fresh interpreters,
so an eager import added later fails here instead of costing every call.
"""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import mvspectra
from mvspectra.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
L4 = '{"kind":"lukasiewicz","n":4}'
PROD = '{"kind":"product","factors":[{"kind":"lukasiewicz","n":2},{"kind":"lukasiewicz","n":3}]}'
BROKEN = '{"kind":"tables","neg":[2,2,0],"oplus":[[0,1,2],[1,2,2],[2,2,2]]}'

CHECK = {"mvspectra", "mvspectra.cli", "mvspectra.errors", "mvspectra.mv"}
SPECTRUM = CHECK | {"mvspectra.lattice", "mvspectra.idealarith", "mvspectra.spectrum"}
EVERY = {"mvspectra"} | {
    f"mvspectra.{name}"
    for name in ("chang", "cli", "errors", "idealarith", "lattice", "mv", "sheaf",
                 "spectrum", "verify")
}


def loaded_modules(body):
    """The mvspectra modules in sys.modules after running body afresh."""
    code = (
        "import json, sys\n" + body + "\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'mvspectra' or m.startswith('mvspectra.'))))\n"
    )
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


@pytest.mark.parametrize(
    "argv, code, expected",
    [
        (["check", "--input", PROD, "--format", "json"], 0, CHECK),
        (["check", "--input", BROKEN, "--format", "json"], 1, CHECK),
        (["spectrum", "--input", PROD, "--format", "json"], 0, SPECTRUM),
        (["verify", "--input", L4], 0, EVERY),
        (["verify", "--input", '{"kind":"chang"}', "--chang-bound", "4"], 0, EVERY),
    ],
    ids=["check", "check-rejects", "spectrum", "verify", "verify-chang"],
)
def test_each_command_loads_only_its_layers(argv, code, expected):
    # numpy.random is a lazy import that costs a process tens of
    # milliseconds; verify draws its instances from the stdlib random.
    # numpy.ma costs about 10 ms; a plain np.unique loads it, so the
    # distinct values of an index array come from np.bincount
    body = (
        "import io\nfrom mvspectra.cli import main\n"
        f"assert main({argv!r}, out=io.StringIO()) == {code}\n"
        "assert 'numpy.random' not in sys.modules, 'loaded numpy.random'\n"
        "assert 'numpy.ma' not in sys.modules, 'loaded numpy.ma'"
    )
    assert loaded_modules(body) == expected


def test_importing_verify_loads_every_layer():
    # the benchmark's traced pass imports verify, then indexes sys.modules
    # for each layer and wraps these names
    body = (
        "import mvspectra.verify\n"
        "assert sys.modules['mvspectra.spectrum'].MvDualSpace\n"
        "assert sys.modules['mvspectra.chang'].ChangSpace\n"
        "assert sys.modules['mvspectra.verify']._suite_checks"
    )
    assert loaded_modules(body) == EVERY - {"mvspectra.cli"}


@pytest.mark.parametrize(
    "raw, code", [(PROD, 0), (BROKEN, 1)], ids=["accepts", "rejects"]
)
def test_check_does_not_load_numpy_ma(raw, code):
    # numpy.ma costs every check process an import; np.unique pulls it in
    body = (
        "import io\nfrom mvspectra.cli import main\n"
        f"assert main(['check', '--input', {raw!r}, '--format', 'json'],"
        f" out=io.StringIO()) == {code}\n"
        "assert 'numpy.ma' not in sys.modules, 'check loaded numpy.ma'"
    )
    assert loaded_modules(body) == CHECK


def test_carrier_layers_test_no_types():
    # the carriers answer finite, dual_space() and first_violation(bound),
    # so the modules above them never ask which class they hold; verify
    # alone imports chang, for the closed forms of its symbolic rows
    carriers = {"MvAlgebra", "ChangAlgebra", "MvDualSpace", "ChangSpace"}
    for name in ("cli", "spectrum", "sheaf", "verify"):
        with open(os.path.join(SRC, "mvspectra", f"{name}.py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                named = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}
                assert not named & carriers, f"{name}.py line {node.lineno}"
            if name != "verify" and isinstance(node, ast.ImportFrom):
                imported = {node.module} | {alias.name for alias in node.names}
                assert "chang" not in imported, f"{name}.py line {node.lineno}"


def test_verify_looks_up_first_failures_in_one_helper():
    # every row of verify names its first failure through _fail_at, the
    # one place that turns a failure mask into the index it names
    with open(os.path.join(SRC, "mvspectra", "verify.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    helper = [n for n in tree.body if getattr(n, "name", None) == "_fail_at"]
    assert len(helper) == 1
    inside = {id(n) for n in ast.walk(helper[0])}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "argwhere":
            assert id(node) in inside, f"verify.py line {node.lineno}"


def test_table_layers_name_no_int64():
    # every carrier and dual-space index table is mv.TABLE_DTYPE; a key
    # that outgrows it is computed in np.intp, never spelled np.int64
    for name in ("mv", "lattice", "spectrum"):
        with open(os.path.join(SRC, "mvspectra", f"{name}.py"), encoding="utf-8") as fh:
            assert "np.int64" not in fh.read(), name


def test_lattices_are_built_unchecked_and_test_helpers_stay_out():
    # posets and lattices are built, never validated as they are built (the
    # validators are test code), and the test-only JSON writer and scalar
    # difference tower are no public names
    with open(os.path.join(SRC, "mvspectra", "lattice.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            assert "validate" not in {a.arg for a in params}, f"lattice.py line {node.lineno}"
    assert not {"algebra_to_json", "difference_tower"} & set(mvspectra.__all__)


def test_reading_an_algebra_loads_only_the_algebra_layer():
    body = (
        "from mvspectra import algebra_from_json\n"
        f"algebra_from_json(json.loads({PROD!r}), validate=False)"
    )
    assert loaded_modules(body) == {"mvspectra", "mvspectra.errors", "mvspectra.mv"}


def test_every_public_name_resolves_to_its_home():
    assert len(mvspectra.__all__) == len(set(mvspectra.__all__))
    for name in mvspectra.__all__:
        home = importlib.import_module(f"mvspectra.{mvspectra._HOME[name]}")
        assert getattr(mvspectra, name) is getattr(home, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from mvspectra import *", namespace)
    for name in mvspectra.__all__:
        assert namespace[name] is getattr(mvspectra, name), name


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        mvspectra.no_such_name


def test_verify_help_lists_the_suites_and_refuses_others(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "{all,plus,k,kaplansky,sheaf-prime,sheaf-maximal,crt}" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--input", L4, "--suite", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
