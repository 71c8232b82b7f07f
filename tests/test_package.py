import csv
import importlib
import importlib.util
import os
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
