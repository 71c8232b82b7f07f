import ast
import csv
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
import tomllib
import types
import warnings
from pathlib import Path

import pytest

import projrates

ROOT = Path(__file__).resolve().parents[1]


def test_all_lists_every_public_name():
    public = {
        name
        for name, value in vars(projrates).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(projrates.__all__) == public


@pytest.mark.parametrize("name", [
    "friedrichs", "intersection", "complement", "power_limit", "subdominant_modulus",
    "empirical_rate", "perp_intersection_projector", "NotConvergentError",
    "report_from_dict", "geometry_from_dict", "_cluster_from_json", "_check_zero_tol",
    "_check_pair", "stats",
])
def test_folded_helpers_are_gone(name):
    """Each answer has one name: these re-derived a field of ``pair_geometry``,
    ``classify_convergence`` or ``BenchmarkTable.bin_stats``, had a single
    caller, or read back JSON that nothing in the package reads."""
    modules = [projrates] + [importlib.import_module(f"projrates.{m.name}")
                             for m in pkgutil.iter_modules(projrates.__path__)]
    assert {"projrates.methods", "projrates.spectral", "projrates.subspaces"} <= {m.__name__ for m in modules}
    assert not [m.__name__ for m in [*modules, projrates.BenchmarkTable] if hasattr(m, name)]


def test_sources_compile_without_warnings():
    paths = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("scripts/*.py")])
    assert paths
    for path in paths:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(encoding="utf-8"), str(path), "exec")
    for k in range(projrates.methods._FLOAT_LOOP_MAX_K + 1):  # BT's generated kernels
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            projrates.methods._bt_kernel.__wrapped__(k)


def test_import_compiles_no_bt_kernel():
    """BT's kernels are compiled on first use, none at import."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    code = "import projrates; print(projrates.methods._bt_kernel.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n"


def test_rate_sweep_script_writes_csv(tmp_path):
    spec = importlib.util.spec_from_file_location("rate_sweep", ROOT / "scripts" / "rate_sweep.py")
    rate_sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(rate_sweep)
    out = tmp_path / "sweep.csv"
    assert rate_sweep.main(["--points", "2", "--n", "8", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["theta_F", "theta_p", "method", "mu", "predicted", "fitted", "rel_error"]
    assert len(rows) - 1 == 16  # 2 geometries x 8 default methods


def test_console_script_entry_point(monkeypatch, capsys):
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["version"] == projrates.__version__
    module, _, attr = project["scripts"]["projrates"].partition(":")
    entry = getattr(importlib.import_module(module), attr)
    monkeypatch.setattr(sys, "argv", ["projrates", "--version"])
    with pytest.raises(SystemExit) as err:
        entry()
    assert err.value.code == 0
    assert capsys.readouterr().out == f"projrates {projrates.__version__}\n"


def unused_imports(source: str) -> list:
    """(line, name) of each name a module imports and never reads.  A name
    in the module's ``__all__`` counts as read; ``from __future__`` imports
    and star imports are skipped.  ``import a.b`` binds ``a``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_finds_each_kind():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "import numpy.linalg\n"
        "from math import pi, tau as turn\n"
        "from json import *\n"
        "__all__ = ['pi']\n"
        "def f():\n"
        "    from re import compile\n"
        "    return os.sep, numpy.linalg.norm\n"
    )
    assert unused_imports(source) == [(2, "system"), (4, "turn"), (8, "compile")]


def test_no_module_imports_a_name_it_never_reads():
    paths = sorted(path for part in ("src", "scripts", "tests") for path in (ROOT / part).rglob("*.py"))
    assert len(paths) > 10
    unused = {str(path.relative_to(ROOT)): found for path in paths
              if (found := unused_imports(path.read_text(encoding="utf-8")))}
    assert unused == {}
