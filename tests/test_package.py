"""The package loads each layer on first use.

`lamadic/__init__.py` maps each public name to its home module and imports
that module when the name is first read (PEP 562), and each CLI handler
imports the layers it calls.  Which modules a fresh interpreter loads is
pinned here, as are the package namespace's names.
"""

import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import lamadic

ROOT = Path(__file__).resolve().parent.parent


def _setup_snippet(workload):
    """The benchmark's set-up operation for `workload`, read from
    bench/workloads.py without importing it."""
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["SETUP_SNIPPETS"])
    return ast.literal_eval(table)[workload]


def _loaded_after(code):
    """The lamadic modules in sys.modules after a fresh interpreter runs code."""
    code += "\nimport sys\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == 'lamadic'))\n"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def _quiet_cli(*argvs):
    calls = "\n".join(f"    codes.append(run({argv!r}))" for argv in argvs)
    return ("import contextlib, io\n"
            "from lamadic.cli import run\n"
            "codes = []\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"{calls}\n"
            "assert codes == [0] * len(codes), codes\n")


def test_bare_import_loads_no_layer():
    assert _loaded_after("import lamadic") == {"lamadic"}


def test_unitary_setup_loads_ring_linalg_and_matrices_only():
    assert _loaded_after(_setup_snippet("unitary")) == {
        "lamadic", "lamadic.ring", "lamadic.linalg", "lamadic.matrices"}


def test_curve_commands_load_neither_lattices_nor_commutators():
    tail = ["--ell", "3", "--poly", "x^5 - x - 1", "--json"]
    loaded = _loaded_after(_quiet_cli(["check-curve", *tail], ["division-degree", *tail]))
    assert "lamadic.curves" in loaded
    assert not loaded & {"lamadic.lattices", "lamadic.commutators"}, loaded


def test_h_minus_loads_classnum_only():
    loaded = _loaded_after(_quiet_cli(["h-minus", "--ell", "7"]))
    assert "lamadic.classnum" in loaded
    assert not loaded & {"lamadic.matrices", "lamadic.curves", "lamadic.lattices",
                         "lamadic.commutators"}, loaded


def test_every_exported_name_is_its_home_modules():
    assert lamadic._HOME
    for name, home in lamadic._HOME.items():
        assert getattr(lamadic, name) is getattr(import_module(f"lamadic.{home}"), name), name


def test_dir_and_all_list_every_exported_name():
    assert set(lamadic._HOME) <= set(dir(lamadic))
    assert sorted(lamadic.__all__) == sorted(lamadic._HOME)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from lamadic import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(lamadic.__all__)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        lamadic.no_such_name


def test_submodule_is_an_attribute_after_a_bare_import():
    code = "import lamadic, sys\nassert lamadic.curves is sys.modules['lamadic.curves']"
    assert "lamadic.curves" in _loaded_after(code)


def test_every_module_of_the_package_is_a_submodule_name():
    modules = {path.stem for path in (ROOT / "src" / "lamadic").glob("*.py")} - {"__init__"}
    assert set(lamadic._SUBMODULES) == modules


def test_moved_errors_keep_their_old_paths():
    from lamadic import curves, ring

    assert lamadic.HypothesisError is curves.HypothesisError is ring.HypothesisError
    assert lamadic.PolySyntaxError is curves.PolySyntaxError is ring.PolySyntaxError
