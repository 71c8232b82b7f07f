import dataclasses
import io
import math

import numpy as np
import pytest

import projrates.bench

from oracles import (
    distance_to_span,
    textbook_mean,
    textbook_median,
    textbook_sample_std,
)
from projrates.bench import (
    CategoryGrid,
    InstanceRecord,
    read_records_csv,
    run_grid,
    sample_pair,
    start_vector,
    table_from_records,
    table_pairs,
)
from projrates.methods import DivergenceError, MethodSpec, iterate
from projrates.subspaces import pair_geometry

TINY = CategoryGrid(
    primary_bins=((0.1, 0.5), (0.5, 1.0)),
    secondary_bins=2,
    ambient_dim=10,
    pairs_per_cell=2,
    starts_per_pair=2,
    max_iter=5000,
)


# ---------------------------------------------------------------------------
# grid config


def test_grid_defaults_match_protocol():
    grid = CategoryGrid()
    assert grid.primary_bins == ((0.0, 0.05), (0.05, 0.1), (0.1, 0.5), (0.5, 1.0))
    assert grid.secondary_bins == 5
    assert grid.ambient_dim == 30
    assert grid.pairs_per_cell == 3
    assert grid.starts_per_pair == 5
    assert grid.start_norm == 10.0
    assert grid.eps == 0.01
    assert grid.max_iter == 100000


def test_grid_labels():
    assert TINY.primary_label(0) == "W1"
    assert TINY.cell_label(1, 0) == "W2Z1"


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(primary_bins=((0.5, 0.1),)),          # descending
        dict(primary_bins=((0.0, 0.3), (0.2, 0.5))),  # overlapping
        dict(primary_bins=((0.0, 2.0),)),           # beyond pi/2
        dict(secondary_bins=0),
        dict(pairs_per_cell=0),
        dict(ambient_dim=0),
        dict(pairs_per_cell="3"),
        dict(max_iter=True),
        dict(ambient_dim=30.0),
        dict(eps="0.01"),
        dict(start_norm=None),
        dict(primary_bins=3),
        dict(primary_bins=((0.1, "x"),)),
        dict(primary_bins=((0.1, 0.2, 0.3),)),
        dict(eps=math.inf),
        dict(start_norm=math.inf),
        dict(eps=math.nan),
        dict(start_norm=1e150),  # squared norms of such starts could overflow
    ],
)
def test_grid_rejects_bad_config(kwargs):
    with pytest.raises(ValueError):
        CategoryGrid(**kwargs)


def test_grid_rejects_bin_below_min_angle():
    with pytest.raises(ValueError, match=r"primary bin \[0.0, 5e-09\)"):
        CategoryGrid(primary_bins=((0.0, 5e-9),))


def test_grid_dict_round_trip():
    back = CategoryGrid.from_dict(TINY.to_dict())
    assert back == TINY
    with pytest.raises(ValueError):
        CategoryGrid.from_dict({"ambient_dim": 10, "bogus": 1})
    with pytest.raises(ValueError, match="JSON object"):
        CategoryGrid.from_dict(3)


# ---------------------------------------------------------------------------
# sampling


def test_sample_pair_lands_in_cell():
    for i, (lo, hi) in enumerate(TINY.primary_bins):
        for j in range(TINY.secondary_bins):
            for seed in (1, 2, 3):
                geom = sample_pair(TINY, (i, j), seed)
                assert lo <= geom.theta_F < hi
                gap = (geom.theta_p - geom.theta_F) / (math.pi / 2 - geom.theta_F)
                assert j / 2 <= gap < (j + 1) / 2
                assert geom.s >= 1
                assert 3 <= geom.p <= geom.q


def test_sample_pair_deterministic():
    a = sample_pair(TINY, (0, 1), 99)
    b = sample_pair(TINY, (0, 1), 99)
    np.testing.assert_array_equal(a.P_U, b.P_U)
    np.testing.assert_array_equal(a.P_V, b.P_V)


def test_sample_pair_infeasible_dimension_names_cell():
    bad = CategoryGrid(ambient_dim=4, primary_bins=((0.1, 0.5),), secondary_bins=1)
    with pytest.raises(ValueError, match="W1Z1"):
        sample_pair(bad, (0, 0), 0)


def test_start_vector_seeded_and_scaled():
    x = start_vector(10, 1234, norm=10.0)
    assert math.isclose(np.linalg.norm(x), 10.0, rel_tol=1e-12)
    np.testing.assert_array_equal(x, start_vector(10, 1234, norm=10.0))


@pytest.mark.parametrize("norm", [0.0, -1.0, math.nan, math.inf])
def test_start_vector_rejects_bad_norm(norm):
    with pytest.raises(ValueError, match="norm"):
        start_vector(5, 0, norm)


# ---------------------------------------------------------------------------
# running


@pytest.fixture(scope="module")
def tiny_table():
    return run_grid(TINY, ["BT", "S:best", "MAP"], master_seed=5)


def test_run_grid_record_count(tiny_table):
    # 2 primary bins x 2 secondary x 2 pairs x 2 starts x 3 methods
    assert len(tiny_table.records) == 2 * 2 * 2 * 2 * 3
    assert tiny_table.methods == ("BT", "S:best", "MAP")


def test_table_pairs_walks_the_records_order(tiny_table):
    walked = [(TINY.cell_label(i, j), k, pair_seed, geom.theta_F, m, start_seed, x0.tobytes())
              for (i, j), k, pair_seed, geom, starts in table_pairs(TINY, 5) for m, start_seed, x0 in starts]
    recorded = [(r.cell, r.pair_index, r.pair_seed, r.theta_F, r.start_index, r.start_seed,
                 start_vector(TINY.ambient_dim, r.start_seed, norm=TINY.start_norm).tobytes())
                for r in tiny_table.records if r.method == "BT"]
    assert walked == recorded


def test_run_grid_deterministic(tiny_table):
    again = run_grid(TINY, ["BT", "S:best", "MAP"], master_seed=5)
    assert again.records == tiny_table.records
    out1, out2 = io.StringIO(), io.StringIO()
    tiny_table.write_summary_csv(out1)
    again.write_summary_csv(out2)
    assert out1.getvalue() == out2.getvalue()


def test_run_grid_map_count_matches_independent_simulation(tiny_table):
    # replay a recorded instance from its stored seeds and simulate the
    # alternating-projection orbit without the package's iterate()
    rec = next(r for r in tiny_table.records if r.method == "MAP" and r.solved)
    i = rec.primary_index
    j = int(rec.cell.split("Z")[1]) - 1
    geom = sample_pair(TINY, (i, j), rec.pair_seed)
    x = start_vector(TINY.ambient_dim, rec.start_seed, norm=TINY.start_norm)
    basis = pair_geometry(geom.U, geom.V).M.basis
    n = 0
    while distance_to_span(x, basis) > TINY.eps and n < TINY.max_iter:
        x = geom.P_U @ (geom.P_V @ x)
        n += 1
    assert abs(n - rec.iterations) <= 1
    assert math.isclose(rec.theta_F, geom.theta_F, rel_tol=1e-12)


def test_stats_match_textbook_formulas(tiny_table):
    for i in (0, 1):
        for method in tiny_table.methods:
            counts = [
                r.iterations
                for r in tiny_table.records
                if r.method == method and r.primary_index == i
            ]
            got = tiny_table.bin_stats[method][tiny_table.bin_labels[i]]
            assert got["instances"] == len(counts) == 8
            assert got["median"] == textbook_median(counts)
            assert math.isclose(got["mean"], textbook_mean(counts), rel_tol=1e-12)
            assert math.isclose(got["std"], textbook_sample_std(counts), rel_tol=1e-12)
            assert got["unsolved"] == sum(
                1
                for r in tiny_table.records
                if r.method == method and r.primary_index == i and not r.solved
            )


def test_run_grid_per_pair_rule_matches_independent_iterate(tmp_path):
    # a (label, rule) entry resolves its spec from each sampled pair; every
    # record must equal a stand-alone iterate() on the replayed instance
    def rule(geom):
        return MethodSpec("S", mu=1.0 / math.sin(geom.theta_p) ** 2)

    table = run_grid(TINY, ["MAP", ("S[1/tp]", rule)], master_seed=5)
    assert table.methods == ("MAP", "S[1/tp]")
    variant = [r for r in table.records if r.method == "S[1/tp]"]
    assert len(variant) == 2 * 2 * 2 * 2
    for rec in variant:
        j = int(rec.cell.split("Z")[1]) - 1
        geom = sample_pair(TINY, (rec.primary_index, j), rec.pair_seed)
        x0 = start_vector(TINY.ambient_dim, rec.start_seed, norm=TINY.start_norm)
        mu = 1.0 / math.sin(geom.theta_p) ** 2
        trace = iterate(MethodSpec("S", mu=mu), geom, x0, eps=TINY.eps, max_iter=TINY.max_iter)
        assert rec.solved == trace.solved
        assert rec.iterations == (trace.iterations if trace.solved else TINY.max_iter)
    table.export(tmp_path)  # a "/" in a label must not end up in a file path
    assert (tmp_path / "profile_S[1_tp].csv").exists()


def test_unsolved_instances_counted_at_max_iter():
    grid = CategoryGrid(
        primary_bins=((0.5, 1.0),),
        secondary_bins=1,
        ambient_dim=8,
        pairs_per_cell=1,
        starts_per_pair=2,
        max_iter=2,  # nothing solves in 2 steps from norm-10 starts
    )
    table = run_grid(grid, ["MAP"], master_seed=1)
    stats = table.bin_stats["MAP"]["W1"]
    assert stats["unsolved"] == 2
    assert stats["median"] == 2.0
    assert all(r.iterations == 2 and not r.solved for r in table.records)


def test_diverging_instances_counted_unsolved_at_max_iter():
    # T at mu = 2.5 leaves the convergent range (0, 2): every run raises
    # DivergenceError long before max_iter, and run_grid records it there
    table = run_grid(TINY, ["T:2.5", "MAP"], master_seed=3)
    diverged = [r for r in table.records if r.method == "T:2.5"]
    assert len(diverged) == 16
    assert all(r.iterations == TINY.max_iter and not r.solved for r in diverged)
    assert table.bin_stats["T:2.5"]["W1"]["unsolved"] == 8
    rec = diverged[0]
    geom = sample_pair(TINY, (rec.primary_index, int(rec.cell.split("Z")[1]) - 1), rec.pair_seed)
    x0 = start_vector(TINY.ambient_dim, rec.start_seed, norm=TINY.start_norm)
    with pytest.raises(DivergenceError) as exc:
        iterate(MethodSpec("T", mu=2.5), geom, x0, eps=TINY.eps, max_iter=TINY.max_iter)
    assert exc.value.step < TINY.max_iter


def test_fast_cell_ordering():
    # single cell with large Friedrichs angles: the adaptive map should not
    # lose to the best partial relaxation, which should not lose to MAP
    grid = CategoryGrid(
        primary_bins=((0.5, 1.0),),
        secondary_bins=2,
        ambient_dim=12,
        pairs_per_cell=3,
        starts_per_pair=3,
    )
    table = run_grid(grid, ["BT", "S:best", "MAP"], master_seed=3)
    medians = {m: table.bin_stats[m]["W1"]["median"] for m in table.methods}
    assert medians["BT"] <= medians["S:best"] <= medians["MAP"]


# ---------------------------------------------------------------------------
# exports


def test_summary_csv_layout(tiny_table):
    out = io.StringIO()
    tiny_table.write_summary_csv(out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "method,statistic,W1,W2"
    assert lines[1].startswith(",instances,8,8")
    assert lines[2].split(",")[:2] == ["BT", "median"]
    # methods appear in run order, each with four statistic rows
    methods_seen = [line.split(",")[0] for line in lines[2::4]]
    assert methods_seen == ["BT", "S:best", "MAP"]


def test_records_csv_round_trip(tiny_table):
    out = io.StringIO()
    tiny_table.write_records_csv(out)
    back = read_records_csv(io.StringIO(out.getvalue()))
    assert back == list(tiny_table.records)


def test_table_from_records_reaggregates(tiny_table):
    out = io.StringIO()
    tiny_table.write_records_csv(out)
    rebuilt = table_from_records(read_records_csv(io.StringIO(out.getvalue())))
    assert rebuilt.methods == tiny_table.methods
    assert rebuilt.bin_stats == tiny_table.bin_stats


def test_rebuilt_table_has_no_grid_and_the_same_summary_bytes(tiny_table):
    rebuilt = table_from_records(tiny_table.records)
    assert rebuilt.grid is None
    assert rebuilt.bin_labels == tiny_table.bin_labels == ("W1", "W2")
    assert rebuilt.bin_stats == tiny_table.bin_stats
    assert rebuilt.format_summary() == tiny_table.format_summary()
    original, again = io.StringIO(), io.StringIO()
    tiny_table.write_summary_csv(original)
    rebuilt.write_summary_csv(again)
    assert again.getvalue() == original.getvalue()


def test_rebuilt_table_shows_a_skipped_bin_empty(tiny_table):
    # the records of W1 moved to W3: W1 holds none and still shows, empty
    moved = [r if r.primary_index else dataclasses.replace(r, primary_index=2, cell="W3Z1")
             for r in tiny_table.records]
    rebuilt = table_from_records(moved)
    assert rebuilt.bin_labels == ("W1", "W2", "W3")
    for method in rebuilt.methods:
        got = rebuilt.bin_stats[method]
        assert got["W3"] == tiny_table.bin_stats[method]["W1"]
        assert got["W2"] == tiny_table.bin_stats[method]["W2"]
        assert (got["W1"]["instances"], got["W1"]["unsolved"], got["W1"]["std"]) == (0, 0, 0.0)
        assert math.isnan(got["W1"]["median"]) and math.isnan(got["W1"]["mean"])
    header, instances, median = rebuilt.format_summary().splitlines()[:3]
    assert header.split() == ["method", "statistic", "W1", "W2", "W3"]
    assert instances.split() == ["instances", "0", "8", "8"]
    assert median.split()[:3] == ["BT", "median", "nan"]


def test_profile_csvs(tmp_path, tiny_table):
    tiny_table.write_profile_csvs(tmp_path)
    files = sorted(p.name for p in tmp_path.glob("profile_*.csv"))
    assert files == ["profile_BT.csv", "profile_MAP.csv", "profile_S_best.csv"]
    lines = (tmp_path / "profile_MAP.csv").read_text().splitlines()
    assert lines[0] == "theta_F,median_iterations"
    angles = [float(line.split(",")[0]) for line in lines[1:]]
    assert angles == sorted(angles)
    assert len(angles) == 8  # one row per sampled pair


def test_benchmark_table_validates_methods():
    with pytest.raises(ValueError):
        run_grid(TINY, [], master_seed=0)


@pytest.mark.parametrize("methods", [
    ["T:0.5", "MAP", "T:0.5000001"],
    ["MAP", "MAP"],
    [("MAP", lambda geom: MethodSpec("MAP")), MethodSpec("MAP")],
])
def test_run_grid_rejects_repeated_labels_before_sampling(monkeypatch, methods):
    def refuse(*args):
        raise AssertionError("a pair was sampled")

    monkeypatch.setattr(projrates.bench, "sample_pair", refuse)
    label = "T:0.5" if "T:0.5" in methods else "MAP"
    with pytest.raises(ValueError, match=f"^method label '{label}' is repeated$"):
        run_grid(TINY, methods, master_seed=0)


def test_instance_record_fields(tiny_table):
    rec = tiny_table.records[0]
    assert isinstance(rec, InstanceRecord)
    assert rec.cell == "W1Z1"
    assert rec.method == "BT"
    assert rec.iterations >= 0
    assert isinstance(rec.pair_seed, int) and isinstance(rec.start_seed, int)
