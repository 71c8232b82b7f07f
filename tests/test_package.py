import csv
import importlib.util
import types
import warnings
from pathlib import Path

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
