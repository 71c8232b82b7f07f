import csv
import importlib
import importlib.util
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


def test_run_benchmark_script_writes_every_profile(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("run_benchmark", ROOT / "scripts" / "run_benchmark.py")
    run_benchmark = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_benchmark)

    def tiny_grid(**kwargs):  # both protocols shrunk to 2 x 2 cells at n = 10
        return projrates.CategoryGrid(
            primary_bins=((0.1, 0.5), (0.5, 1.0)), secondary_bins=2, ambient_dim=10,
            pairs_per_cell=1, starts_per_pair=1, max_iter=5000,
        )

    monkeypatch.setattr(run_benchmark, "CategoryGrid", tiny_grid)
    desk = {"BT": "BT", "S:best": "S_best", "T:best": "T_best", "MAP": "MAP", "DR": "DR"}
    full = {**desk, "S[1/tp]": "S[1_tp]", "S[0.5+1/tp]": "S[0.5+1_tp]", "T:1.5": "T_1.5"}
    for extra, methods in (([], desk), (["--full"], full)):
        out = tmp_path / ("full" if extra else "desk")
        assert run_benchmark.main([*extra, "--out", str(out)]) == 0
        profiles = {f"profile_{name}.csv" for name in methods.values()}
        assert {p.name for p in out.glob("profile_*.csv")} == profiles
        with open(out / "records.csv", newline="") as fh:
            assert {row["method"] for row in csv.DictReader(fh)} == set(methods)
    capsys.readouterr()


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
