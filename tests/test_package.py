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
