import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import projrates.cli
from projrates.bench import CategoryGrid
from projrates.cli import _json_dumps, main
from projrates.matio import read_matrix, write_matrix
from projrates.spectral import classify_convergence, report_from_dict, report_to_dict
from projrates.subspaces import (
    canonical_pair,
    geometry_from_dict,
    geometry_to_dict,
    pair_geometry,
    subspace_from_spanning,
)

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def files(tmp_path):
    """A convergent matrix, a defective one, and a two-lines pair at 0.7."""
    conv = tmp_path / "conv.mat"
    write_matrix(conv, np.diag([1.0, 0.5, -0.25]))
    defective = tmp_path / "defective.mat"
    write_matrix(defective, np.array([[1.0, 1.0], [0.0, 1.0]]))
    u, v = canonical_pair(2, [0.7], seed=0)
    u_file, v_file = tmp_path / "u.mat", tmp_path / "v.mat"
    write_matrix(u_file, u.basis)
    write_matrix(v_file, v.basis)
    return tmp_path, conv, defective, u_file, v_file


# ---------------------------------------------------------------------------
# analyze


def test_analyze_convergent(files, capsys):
    _, conv, *_ = files
    assert main(["analyze", str(conv)]) == 0
    out = capsys.readouterr().out
    assert "status: convergent" in out
    assert "0.5" in out


def test_analyze_defective_exits_2(files, capsys):
    _, _, defective, *_ = files
    assert main(["analyze", str(defective)]) == 2
    assert "not_convergent" in capsys.readouterr().out


def test_analyze_json_round_trips(files, capsys):
    _, conv, *_ = files
    assert main(["analyze", str(conv), "--json"]) == 0
    report = report_from_dict(json.loads(capsys.readouterr().out))
    assert report.status == "convergent"
    assert math.isclose(report.gamma, 0.5, rel_tol=1e-12)


@pytest.mark.parametrize(
    "a",
    [
        np.array([[1.0]]),  # 1 x 1 limit
        np.array([[0.5]]),  # 1 x 1 zero limit
        np.diag([1.0, 0.5, -0.25]),
        np.array([[1.0, 1.0], [0.0, 0.0]]),  # oblique limit
        np.array([[1.0, 1.0], [0.0, 1.0]]),  # null limit and a warning
        np.array([[0.0, -1.0], [1.0, 0.0]]),  # null limit, rotation
    ],
)
def test_analyze_json_is_json_dumps_indent_2(tmp_path, capsys, a):
    path = tmp_path / "a.mat"
    write_matrix(path, a)
    main(["analyze", str(path), "--json"])
    report = classify_convergence(read_matrix(path))
    assert capsys.readouterr().out == json.dumps(report_to_dict(report), indent=2) + "\n"


@pytest.mark.parametrize(
    "limit, warnings",
    [
        (np.array([[-0.0]]), ()),
        (np.array([[-0.0, 1e-300], [-5e-324, 0.1]]), ("limit: null", '"limit": null,')),
        (np.array([[np.nan, np.inf], [-np.inf, -0.0]]), ("borderline",)),
        (None, ("two\nlines",)),
        (np.random.default_rng(3).standard_normal((7, 5)), ()),
    ],
)
def test_report_json_matches_generic_encoder(limit, warnings):
    report = dataclasses.replace(
        classify_convergence(np.diag([1.0, 0.5])), limit=limit, warnings=warnings
    )
    assert _json_dumps(report_to_dict(report)) == json.dumps(report_to_dict(report), indent=2)


def test_analyze_names_complex_subdominant_eigenvalues(tmp_path, capsys):
    c, s = math.cos(math.pi / 3), math.sin(math.pi / 3)
    a = np.zeros((3, 3))
    a[0, 0] = 1.0
    a[1:, 1:] = 0.5 * np.array([[c, -s], [s, c]])
    path = tmp_path / "rot.mat"
    write_matrix(path, a)
    assert main(["analyze", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    for sign in "+-":
        line = f"  subdominant eigenvalue 0.25{sign}0.433012701892j: multiplicity 1, index 1, semisimple"
        assert line in lines


def test_analyze_missing_file(files, capsys):
    assert main(["analyze", "nope.mat"]) == 1
    assert "error:" in capsys.readouterr().err


def test_analyze_parse_error_cites_position(tmp_path, capsys):
    bad = tmp_path / "bad.mat"
    bad.write_text("2 2\n1 2\n3 oops\n")
    assert main(["analyze", str(bad)]) == 1
    assert "row 2, col 2" in capsys.readouterr().err


def test_analyze_overflowing_norm_exits_1(tmp_path, capsys):
    big = tmp_path / "big.mat"
    write_matrix(big, np.full((2, 2), 1e308))
    assert main(["analyze", str(big)]) == 1
    assert "matrix norm overflows" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# angles


def test_analyze_value_clustered_at_one_names_its_distance(tmp_path, capsys):
    # 1 - 5e-8 clusters with 1 (cluster_tol 1e-7) but A - I has no kernel
    path = tmp_path / "near.mat"
    write_matrix(path, np.diag([1.0 - 5e-8, 0.5]))
    assert main(["analyze", str(path)]) == 2
    out = capsys.readouterr().out
    assert "status: not_convergent" in out
    assert ("warning: borderline: (0.99999995+0j) lies within cluster_tol=1e-07 of 1 "
            "but the value is not 1\n") in out
    assert "kernel dimension" not in out


def test_angles_output(files, capsys):
    _, _, _, u_file, v_file = files
    assert main(["angles", str(u_file), str(v_file)]) == 0
    out = capsys.readouterr().out
    assert "theta_F = 0.7" in out
    assert "dim(U intersect V) = 0" in out


def test_angles_json_round_trips(files, capsys):
    _, _, _, u_file, v_file = files
    assert main(["angles", str(u_file), str(v_file), "--json"]) == 0
    geom = geometry_from_dict(json.loads(capsys.readouterr().out))
    assert math.isclose(geom.theta_F, 0.7, abs_tol=1e-12)


def test_angles_json_keeps_its_zero_tol(tmp_path, capsys):
    u, v = canonical_pair(9, [0.0, 0.4, 1.1], q=5, seed=4)
    u_file, v_file = tmp_path / "u.mat", tmp_path / "v.mat"
    write_matrix(u_file, u.basis)
    write_matrix(v_file, v.basis)
    geom = pair_geometry(subspace_from_spanning(read_matrix(u_file)),
                         subspace_from_spanning(read_matrix(v_file)))
    assert main(["angles", str(u_file), str(v_file), "--json", "--zero-tol", "0.7"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert (d["zero_tol"], d["s"]) == (0.7, 2)
    back = geometry_from_dict(d)
    assert (back.s, back.zero_tol, back.theta_F) == (2, 0.7, d["angles"][2])
    np.testing.assert_array_equal(back.angles, geom.angles)


@pytest.mark.parametrize("n, angles, q", [
    (2, [0.7], 1),  # p = 1: every row of U holds one entry
    (9, [0.0, 0.4, 1.1], 5),  # an intersection and V wider than U
])
def test_angles_json_is_json_dumps_indent_2(tmp_path, capsys, n, angles, q):
    u, v = canonical_pair(n, angles, q=q, seed=4)
    u_file, v_file = tmp_path / "u.mat", tmp_path / "v.mat"
    write_matrix(u_file, u.basis)
    write_matrix(v_file, v.basis)
    assert main(["angles", str(u_file), str(v_file), "--json"]) == 0
    geom = pair_geometry(subspace_from_spanning(read_matrix(u_file)),
                         subspace_from_spanning(read_matrix(v_file)))
    d = geometry_to_dict(geom)
    assert list(d)[-1] == "V"  # the matrix is the last key
    assert capsys.readouterr().out == json.dumps(d, indent=2) + "\n"


@pytest.mark.parametrize("zero_tol", ["nan", "-1", "inf"])
def test_angles_bad_zero_tol_exits_1(files, capsys, zero_tol):
    _, _, _, u_file, v_file = files
    assert main(["angles", str(u_file), str(v_file), "--zero-tol", zero_tol]) == 1
    assert "zero_tol" in capsys.readouterr().err


def test_zero_tol_above_right_angle_exits_1(tmp_path, capsys):
    # every principal angle is at most pi/2, so zero_tol = 2 would call the pair nested
    u, v = canonical_pair(9, [0.0, 0.5, 1.0], q=4, seed=1)
    u_file, v_file = tmp_path / "u.mat", tmp_path / "v.mat"
    write_matrix(u_file, u.basis)
    write_matrix(v_file, v.basis)
    assert main(["angles", str(u_file), str(v_file), "--zero-tol", "0.7"]) == 0
    assert "dim(U intersect V) = 2" in capsys.readouterr().out
    for argv in (["angles"], ["solve", "--method", "MAP"]):
        assert main([argv[0], str(u_file), str(v_file), *argv[1:], "--zero-tol", "2"]) == 1
        captured = capsys.readouterr()
        assert "zero_tol must be >= 0 and below pi/2, got 2.0" in captured.err
        assert captured.out == ""


def test_angles_dimension_mismatch(files, tmp_path, capsys):
    _, _, _, u_file, _ = files
    other = tmp_path / "u3.mat"
    write_matrix(other, np.eye(3)[:, :1])
    assert main(["angles", str(u_file), str(other)]) == 1
    assert "ambient dimensions differ" in capsys.readouterr().err


def test_angles_inf_entry_names_position(files, tmp_path, capsys):
    _, _, _, u_file, _ = files
    bad = tmp_path / "v_inf.mat"
    bad.write_text("2 1\n0.5\ninf\n")
    assert main(["angles", str(u_file), str(bad)]) == 1
    err = capsys.readouterr().err
    assert "row 2, col 1" in err and "non-finite entry 'inf'" in err


def test_angles_nested_pair_reported(tmp_path, capsys):
    small = tmp_path / "small.mat"
    write_matrix(small, np.eye(4)[:, :1])
    big = tmp_path / "big.mat"
    write_matrix(big, np.eye(4)[:, :2])
    assert main(["angles", str(small), str(big)]) == 0
    assert "undefined (U contained in V)" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# solve


def test_solve_map_on_lines(files, capsys):
    _, _, _, u_file, v_file = files
    assert main(["solve", str(u_file), str(v_file), "--method", "MAP",
                 "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "solved in" in out
    assert f"{math.cos(0.7) ** 2:.6f}"[:6] in out  # predicted gamma


def test_solve_json_fields(files, capsys):
    _, _, _, u_file, v_file = files
    assert main(["solve", str(u_file), str(v_file), "--method", "S:best",
                 "--seed", "1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["solved"] is True
    assert data["method"] == "S:best"
    assert data["predicted_gamma"] == pytest.approx(0.0)  # equal angles on lines
    assert data["iterations"] <= 2


def test_solve_trace_file(files, tmp_path, capsys):
    _, _, _, u_file, v_file = files
    trace = tmp_path / "trace.csv"
    assert main(["solve", str(u_file), str(v_file), "--method", "MAP",
                 "--seed", "3", "--trace", str(trace)]) == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "n,distance,mu"
    assert len(lines) >= 3


def test_solve_with_x0_file(files, tmp_path, capsys):
    _, _, _, u_file, v_file = files
    x0 = tmp_path / "x0.mat"
    write_matrix(x0, np.array([[3.0], [4.0]]))
    assert main(["solve", str(u_file), str(v_file), "--method", "MAP",
                 "--x0", str(x0), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["solved"]


def test_solve_nan_x0_names_position(files, tmp_path, capsys):
    _, _, _, u_file, v_file = files
    x0 = tmp_path / "x0.mat"
    x0.write_text("2 1\nnan\n4.0\n")
    assert main(["solve", str(u_file), str(v_file), "--method", "MAP",
                 "--x0", str(x0)]) == 1
    captured = capsys.readouterr()
    assert "row 1, col 1" in captured.err and "non-finite entry 'nan'" in captured.err
    assert "final distance" not in captured.out


@pytest.mark.parametrize(
    "flag, value, name",
    [("--zero-tol", "nan", "zero_tol"), ("--zero-tol", "-1", "zero_tol"),
     ("--eps", "nan", "eps"), ("--eps", "-0.5", "eps"), ("--eps", "inf", "eps"),
     ("--max-iter", "-5", "max_iter")],
)
def test_solve_bad_tolerance_exits_1(files, capsys, flag, value, name):
    _, _, _, u_file, v_file = files
    assert main(["solve", str(u_file), str(v_file), "--method", "MAP", flag, value]) == 1
    captured = capsys.readouterr()
    assert name in captured.err
    assert "predicted gamma" not in captured.out


def test_solve_boundary_mu_warns_and_exits_3(files, capsys):
    _, _, _, u_file, v_file = files
    code = main(["solve", str(u_file), str(v_file), "--method", "T:2.0",
                 "--seed", "3", "--max-iter", "200"])
    captured = capsys.readouterr()
    assert code == 3
    assert "outside the convergent range" in captured.err
    assert "running anyway" in captured.err


def test_solve_divergent_mu_exits_3(files, capsys):
    _, _, _, u_file, v_file = files
    code = main(["solve", str(u_file), str(v_file), "--method", "T:2.5",
                 "--seed", "3", "--json"])
    assert code == 3
    data = json.loads(capsys.readouterr().out)
    assert data["diverged_at"] is not None
    assert data["solved"] is False


def test_solve_divergent_run_text_names_the_step(files, capsys):
    _, _, _, u_file, v_file = files
    assert main(["solve", str(u_file), str(v_file), "--method", "T:2.5", "--seed", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines()[2:] == ["diverged at iteration 69", "fitted rate: n/a"]
    assert "at iteration 69; the scheme does not converge here" in captured.err


@pytest.mark.parametrize("mu", ["1e160", "-1e160", "1e300", "-1e300", "1e308", "-1e308"])
@pytest.mark.parametrize("kind", ["T", "S", "R"])
def test_solve_at_a_huge_mu_diverges_at_step_1(files, capsys, kind, mu):
    """|mu| past the float range of (1 - mu)^2: a finite predicted gamma,
    strict JSON, and the run diverges at its first step (exit 3), also at
    1e308, where R's first step overflows to a NaN distance."""
    _, _, _, u_file, v_file = files
    method = f"{kind}:{mu}"
    assert main(["solve", str(u_file), str(v_file), "--method", method, "--json"]) == 3
    data = _strict_json(capsys.readouterr().out)
    assert data["diverged_at"] == 1 and data["solved"] is False
    assert 1e150 < data["predicted_gamma"] < math.inf
    assert main(["solve", str(u_file), str(v_file), "--method", method]) == 3
    assert "diverged at iteration 1" in capsys.readouterr().out


def test_solve_r_at_a_huge_mu_exits_3_without_a_traceback(files):
    _, _, _, u_file, v_file = files
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "projrates.cli", "solve", str(u_file), str(v_file),
                           "--method", "R:1e160"], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 3
    assert "Traceback" not in done.stderr
    assert "diverged at iteration 1" in done.stdout


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("method", ["BT", "S:best", "MAP"])
def test_solve_start_below_the_bound_counts_as_at_norm_1(files, capsys, method):
    _, _, _, u_file, v_file = files
    runs = []
    for norm, eps in (("1", "0.01"), ("1e149", "1e147")):
        assert main(["solve", str(u_file), str(v_file), "--method", method, "--json",
                     "--x0-norm", norm, "--eps", eps]) == 0
        runs.append(_strict_json(capsys.readouterr().out))
    assert runs[1]["iterations"] == runs[0]["iterations"]
    assert math.isfinite(runs[1]["final_distance"])


def test_solve_nested_pair_is_input_error(tmp_path, capsys):
    a = tmp_path / "a.mat"
    write_matrix(a, np.eye(4)[:, :1])
    b = tmp_path / "b.mat"
    write_matrix(b, np.eye(4)[:, :2])
    assert main(["solve", str(a), str(b), "--method", "MAP"]) == 1
    assert "contained in the other" in capsys.readouterr().err


@pytest.mark.parametrize("method, mu", [("T:nan", "nan"), ("S:inf", "inf")])
def test_solve_non_finite_mu_exits_1(files, capsys, method, mu):
    _, _, _, u_file, v_file = files
    assert main(["solve", str(u_file), str(v_file), "--method", method]) == 1
    captured = capsys.readouterr()
    assert f"mu={mu}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("method", ["X", "T", "MAP:2", "BT:abc", "T:abc"])
def test_solve_bad_method_exits_1(files, capsys, method):
    _, _, _, u_file, v_file = files
    assert main(["solve", str(u_file), str(v_file), "--method", method]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert method.partition(":")[0] in captured.err


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "1e150", "1e151"])
def test_solve_bad_x0_norm_exits_1(files, capsys, value):
    _, _, _, u_file, v_file = files
    assert main(["solve", str(u_file), str(v_file), "--method", "MAP",
                 "--x0-norm", value]) == 1
    captured = capsys.readouterr()
    assert "--x0-norm" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_negative_seed_names_flag(files, tmp_path, capsys, command):
    _, _, _, u_file, v_file = files
    argv = {"solve": ["solve", str(u_file), str(v_file), "--method", "MAP"],
            "bench": ["bench", "--out", str(tmp_path / "x")]}[command]
    assert main(argv + ["--seed", "-1"]) == 1
    assert "--seed must be a non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_solve_builds_no_dense_matrix(tmp_path, capsys, monkeypatch):
    u, v = canonical_pair(120, [0.0, 0.1, 0.5, 1.2], q=8, seed=6)
    u_file, v_file = tmp_path / "u.mat", tmp_path / "v.mat"
    write_matrix(u_file, u.basis)
    write_matrix(v_file, v.basis)
    geoms = []

    def measured(*args, **kwargs):
        geoms.append(pair_geometry(*args, **kwargs))
        return geoms[-1]

    monkeypatch.setattr(projrates.cli, "pair_geometry", measured)
    for method in ("MAP", "T:best", "S:best", "R:best", "DR", "BT", "AT"):
        assert main(["solve", str(u_file), str(v_file), "--method", method,
                     "--eps", "1e-8"]) == 0, method
    capsys.readouterr()
    assert len(geoms) == 7
    for geom in geoms:
        assert not {"P_U", "P_V", "P_M", "M"} & set(geom.__dict__)


# ---------------------------------------------------------------------------
# bench and report


@pytest.fixture()
def tiny_config(tmp_path):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({
        "primary_bins": [[0.1, 0.5], [0.5, 1.0]],
        "secondary_bins": 2,
        "ambient_dim": 10,
        "pairs_per_cell": 2,
        "starts_per_pair": 2,
        "start_norm": 10.0,
        "eps": 0.01,
        "max_iter": 5000,
    }))
    return cfg


def test_bench_writes_tables(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["bench", "--config", str(tiny_config), "--seed", "7",
                 "--out", str(out), "--methods", "BT,MAP"]) == 0
    printed = capsys.readouterr().out
    assert "W1" in printed and "median" in printed
    assert (out / "summary.csv").exists()
    assert (out / "records.csv").exists()
    assert (out / "profile_BT.csv").exists()
    header = (out / "summary.csv").read_text().splitlines()[0]
    assert header == "method,statistic,W1,W2"


def test_bench_deterministic_bytes(tiny_config, tmp_path, capsys):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        assert main(["bench", "--config", str(tiny_config), "--seed", "7",
                     "--out", str(out), "--methods", "BT,MAP"]) == 0
    capsys.readouterr()
    for name in ("summary.csv", "records.csv", "profile_MAP.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_bench_infeasible_grid_names_cell(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"ambient_dim": 4, "primary_bins": [[0.1, 0.5]],
                               "secondary_bins": 1}))
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "W1Z1" in capsys.readouterr().err


def test_bench_bin_below_min_angle_names_bin(tmp_path, capsys):
    cfg = tmp_path / "low.json"
    cfg.write_text(json.dumps({"primary_bins": [[0.0, 5e-9]]}))
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "primary bin [0.0, 5e-09)" in err
    assert "high - low" not in err


def test_bench_pair_leaving_its_cell_exits_1(tmp_path, capsys):
    # a bin 1e-11 wide below pi/2: the normalized gap divides by
    # pi/2 - theta_F, so the re-measured pair misses its secondary bin
    cfg = tmp_path / "edge.json"
    cfg.write_text(json.dumps({
        "primary_bins": [[math.pi / 2 - 1e-11, math.pi / 2]], "secondary_bins": 5,
        "ambient_dim": 8, "pairs_per_cell": 1, "starts_per_pair": 1,
    }))
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "fell outside its cell" in capsys.readouterr().err


def test_bench_grid_too_large_for_memory_names_ambient_dim(tmp_path, capsys):
    # 10,000,000^2 doubles are 728 TiB: numpy refuses the first n x n array at once
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"ambient_dim": 10000000}))
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err == "error: the grid does not fit in memory at ambient_dim=10000000\n"


def test_bench_into_a_used_out_keeps_only_its_own_profiles(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    for methods in ("BT,MAP", "DR"):
        assert main(["bench", "--config", str(tiny_config), "--methods", methods, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("profile_*.csv")) == ["profile_DR.csv"]
    with open(out / "records.csv", newline="") as fh:
        assert {row["method"] for row in csv.DictReader(fh)} == {"DR"}


def test_bench_mistyped_config_names_field(tmp_path, capsys):
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({"pairs_per_cell": "3"}))
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "pairs_per_cell" in capsys.readouterr().err


@pytest.mark.parametrize("data", [b"", b"{pairs_per_cell: 3}", b'{"eps": 0.01,}', b"\xff"])
def test_bench_config_that_is_not_json_names_its_file(tmp_path, capsys, data):
    cfg = tmp_path / "broken.json"
    cfg.write_bytes(data)
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: not valid JSON: ")
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("field", ["eps", "start_norm"])
def test_bench_non_finite_config_names_field_before_out(tmp_path, capsys, field):
    cfg = tmp_path / "inf.json"
    cfg.write_text(json.dumps({field: math.inf}))
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert f"{field} must be finite and > 0, got inf" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_bench_start_norm_at_the_bound_exits_1_before_out(tmp_path, capsys):
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({"start_norm": 1e151}))
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "start_norm must be below 1e+150, got 1e+151" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_bench_start_norm_below_the_bound_keeps_the_counts(tiny_config, tmp_path, capsys):
    outs = []
    for norm, eps in ((1.0, 0.01), (1e149, 1e147)):
        cfg = tmp_path / f"grid{norm:g}.json"
        cfg.write_text(json.dumps({**json.loads(tiny_config.read_text()), "start_norm": norm, "eps": eps}))
        outs.append(tmp_path / f"out{norm:g}")
        assert main(["bench", "--config", str(cfg), "--seed", "7", "--out", str(outs[-1]),
                     "--methods", "T:best,S:best,R:best,MAP,DR,BT,AT"]) == 0
    capsys.readouterr()
    assert (outs[0] / "records.csv").read_bytes() == (outs[1] / "records.csv").read_bytes()


def test_bench_json_carries_the_report_stats(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["bench", "--config", str(tiny_config), "--seed", "7",
                 "--out", str(out), "--methods", "BT,MAP", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["master_seed"] == 7 and data["out"] == str(out)
    assert main(["report", str(out / "records.csv"), "--json"]) == 0
    assert data["stats"] == json.loads(capsys.readouterr().out)["stats"]
    assert list(data["stats"]) == ["BT", "MAP"]


@pytest.mark.parametrize("methods, message", [
    ("X", "unknown method 'X'"),
    (" , ", "need at least one method"),
    ("T:0.5,T:0.5000001", "method label 'T:0.5' is repeated"),
    ("MAP,BT,MAP", "method label 'MAP' is repeated"),
])
def test_bench_bad_methods_exit_1_before_out(tmp_path, capsys, methods, message):
    out = tmp_path / "d" / "out"
    assert main(["bench", "--methods", methods, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("full", [True, False], ids=["full", "desk"])
def test_bench_protocols_write_every_profile(tmp_path, monkeypatch, capsys, full):
    # both protocols shrunk to 2 x 2 cells at n = 10: the full grid patched, the desk one a
    # --config, under which the desk methods are the default
    tiny = CategoryGrid(primary_bins=((0.1, 0.5), (0.5, 1.0)), secondary_bins=2, ambient_dim=10,
                        pairs_per_cell=1, starts_per_pair=1, max_iter=5000)
    monkeypatch.setattr(projrates.cli, "FULL_GRID", tiny)
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(tiny.to_dict()))
    desk = {"BT": "BT", "S:best": "S_best", "T:best": "T_best", "MAP": "MAP", "DR": "DR"}
    full_methods = {"BT": "BT", "S:best": "S_best", "S[1/tp]": "S[1_tp]", "S[0.5+1/tp]": "S[0.5+1_tp]",
                    "T:best": "T_best", "T:1.5": "T_1.5", "MAP": "MAP", "DR": "DR"}
    methods = full_methods if full else desk
    out = tmp_path / "out"
    assert main(["bench", *(["--full"] if full else ["--config", str(cfg)]), "--out", str(out)]) == 0
    assert capsys.readouterr().out.endswith(f"\nwrote {out}/summary.csv, records.csv, and per-method profiles\n")
    assert {p.name for p in out.glob("profile_*.csv")} == {f"profile_{name}.csv" for name in methods.values()}
    with open(out / "records.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["method"] for row in rows[:len(methods)]] == list(methods)
    assert len(rows) == 2 * 2 * len(methods)


@pytest.mark.parametrize("full", [True, False], ids=["full", "desk"])
def test_report_json_equals_bench_json_stats(tmp_path, monkeypatch, capsys, full):
    # both protocols on 2 x 2 cells at n = 10, as in test_bench_protocols_write_every_profile
    tiny = CategoryGrid(primary_bins=((0.1, 0.5), (0.5, 1.0)), secondary_bins=2, ambient_dim=10,
                        pairs_per_cell=1, starts_per_pair=2, max_iter=5000)
    monkeypatch.setattr(projrates.cli, "FULL_GRID", tiny)
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(tiny.to_dict()))
    out = tmp_path / "out"
    assert main(["bench", *(["--full"] if full else ["--config", str(cfg)]), "--out", str(out), "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert len(stats) == (8 if full else 5)
    assert main(["report", str(out / "records.csv"), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["stats"] == stats


@pytest.mark.parametrize("flag", ["--methods", "--config"])
def test_bench_full_excludes_config_and_methods(tmp_path, capsys, flag):
    cfg = tmp_path / "g.json"
    cfg.write_text("{}")
    out = tmp_path / "out"
    value = {"--methods": "MAP", "--config": str(cfg)}[flag]
    assert main(["bench", "--full", flag, value, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --full fixes the grid and the methods; it cannot be combined with {flag}\n"
    assert captured.out == ""
    assert not out.exists()


def test_report_matches_bench_summary(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    main(["bench", "--config", str(tiny_config), "--seed", "7",
          "--out", str(out), "--methods", "BT,MAP"])
    capsys.readouterr()
    resummary = tmp_path / "re.csv"
    assert main(["report", str(out / "records.csv"), "--out", str(resummary)]) == 0
    assert resummary.read_text() == (out / "summary.csv").read_text()


def test_report_json(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    main(["bench", "--config", str(tiny_config), "--seed", "7",
          "--out", str(out), "--methods", "BT,MAP"])
    capsys.readouterr()
    assert main(["report", str(out / "records.csv"), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data["stats"].keys()) == {"BT", "MAP"}
    assert data["stats"]["MAP"]["W1"]["instances"] == 8


def test_report_missing_file(capsys):
    assert main(["report", "missing.csv"]) == 1


def test_report_names_missing_columns(tmp_path, capsys):
    records = tmp_path / "records.csv"
    records.write_text("a,b\n1,2\n")
    assert main(["report", str(records)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {records}: not a records.csv: missing column(s) cell, pair_index,")
    assert "Traceback" not in err


def test_report_header_only_exits_1(tmp_path, capsys):
    records = tmp_path / "records.csv"
    records.write_text(
        "cell,pair_index,start_index,pair_seed,start_seed,theta_F,theta_p,method,iterations,solved\n"
    )
    assert main(["report", str(records)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {records}: no records found\n"
    assert captured.out == ""


@pytest.mark.parametrize("row", [
    "W1Z1,0,0,1,2,0.3,0.4,MAP,many,true",  # a field that does not parse
    "W1Z1,0,0,1",  # a short row
    "W1Z1,0,0,1,2,0.3,0.4,MAP,12,yes",  # solved neither true nor false
    "W1Z1,0,0,1,2,nan,0.4,MAP,12,true",  # a theta that is not finite
    "W1Z1,0,0,1,2,0.3,inf,MAP,12,true",
    "W1Z1,0,0,1,2,-0.1,0.4,MAP,12,true",  # a theta outside [0, pi/2]
    "W1Z1,0,0,1,2,0.3,1.6,MAP,12,true",
    "W1Z1,0,0,1,2,0.5,0.4,MAP,12,true",  # theta_F above theta_p
    "W1Z1,0,0,1,2,0.3,0.4,MAP,-5,true",  # a negative count, index or seed
    "W1Z1,-1,0,1,2,0.3,0.4,MAP,12,true",
    "W1Z1,0,-1,1,2,0.3,0.4,MAP,12,true",
    "W1Z1,0,0,-1,2,0.3,0.4,MAP,12,true",
    "W1Z1,0,0,1,-2,0.3,0.4,MAP,12,true",
    "W1Z1,0,0,1,2,0.3,0.4,MAP,40,true",  # the instance of line 2 again
])
def test_report_bad_row_names_its_line(tmp_path, capsys, row):
    records = tmp_path / "records.csv"
    records.write_text(
        "cell,pair_index,start_index,pair_seed,start_seed,theta_F,theta_p,method,"
        "iterations,solved\nW1Z1,0,0,1,2,0.3,0.4,MAP,12,true\n" + row + "\n"
    )
    assert main(["report", str(records)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {records}: line 3: ")
    assert "Traceback" not in err


def test_report_repeated_instance_names_both_lines(tmp_path, capsys):
    # one measured instance, written twice and then once more with 40 steps
    records = tmp_path / "records.csv"
    records.write_text(
        "cell,pair_index,start_index,pair_seed,start_seed,theta_F,theta_p,method,iterations,solved\n"
        + "W1Z1,0,0,1,2,0.3,0.4,MAP,12,true\n" * 2 + "W1Z1,0,0,1,2,0.3,0.4,MAP,40,true\n"
    )
    assert main(["report", str(records)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {records}: line 3: repeats the instance of line 2 "
        "(cell W1Z1, pair_index 0, start_index 0, method MAP)\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize("command", ["analyze", "report"])
def test_a_file_that_is_not_utf8_is_named(tmp_path, capsys, command):
    data = tmp_path / "bin.txt"
    data.write_bytes(b"\xff\xfe2 2\n")
    assert main([command, str(data)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {data}: not UTF-8 text: ")
    assert "0xff" in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["report", "bench"])
def test_a_closed_stdout_exits_quietly(tiny_config, tmp_path, command):
    out = tmp_path / "out"
    main(["bench", "--config", str(tiny_config), "--out", str(out)])
    argv = {"report": ["report", str(out / "records.csv")],
            "bench": ["bench", "--config", str(tiny_config), "--out", str(tmp_path / "again")]}[command]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write, as after ``| head``
    try:
        done = subprocess.run([sys.executable, "-m", "projrates.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == projrates.cli.EXIT_BROKEN_PIPE
    assert done.stderr == b""


@pytest.mark.parametrize("cell", ["W0Z1", "W1", "W1Zx", "Z1"])
def test_report_malformed_cell_names_its_line(tmp_path, capsys, cell):
    records = tmp_path / "records.csv"
    records.write_text(
        "cell,pair_index,start_index,pair_seed,start_seed,theta_F,theta_p,method,"
        f"iterations,solved\n{cell},0,0,1,2,0.3,0.4,MAP,12,true\n"
    )
    assert main(["report", str(records)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {records}: line 2: cell must be W<i>Z<j>")
    assert repr(cell) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("sub", ["", "sub"])
def test_bench_out_under_a_file_exits_1_before_the_grid(tmp_path, capsys, monkeypatch, sub):
    target = tmp_path / "taken"
    target.write_text("a file\n")

    def refuse(*args, **kwargs):
        raise AssertionError("the grid ran")

    monkeypatch.setattr(projrates.cli, "run_grid", refuse)
    assert main(["bench", "--out", str(target / sub)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(target) in captured.err
    assert captured.out == ""
    assert target.read_text() == "a file\n"


# ---------------------------------------------------------------------------
# parser behavior


def test_unknown_flag_exits_nonzero():
    with pytest.raises(SystemExit) as err:
        main(["bench", "--bogus"])
    assert err.value.code != 0


def test_missing_subcommand_exits_nonzero():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code != 0


def test_version(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert "projrates" in capsys.readouterr().out


def test_one_parser_per_process():
    assert projrates.cli.build_parser() is projrates.cli.build_parser()


def test_a_usage_error_leaves_the_parser_as_fresh(files, capsys):
    _, conv, *_ = files
    fresh = _json_dumps(report_to_dict(classify_convergence(read_matrix(conv)))) + "\n"
    with pytest.raises(SystemExit) as err:
        main(["bench", "--bogus"])
    assert err.value.code == 2
    capsys.readouterr()
    assert main(["analyze", str(conv), "--json"]) == 0
    assert capsys.readouterr().out == fresh


def test_no_default_leaks_between_calls(files, capsys):
    _, _, _, u_file, v_file = files
    solve = ["solve", str(u_file), str(v_file), "--method", "MAP", "--json"]
    outs = []
    for extra in (["--seed", "3"], [], ["--seed", "0"]):
        assert main(solve + extra) == 0
        outs.append(capsys.readouterr().out)
    seeded, omitted, default = outs
    assert omitted == default != seeded


def test_version_after_a_subcommand(files, capsys):
    _, conv, *_ = files
    assert main(["analyze", str(conv)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("projrates ")
