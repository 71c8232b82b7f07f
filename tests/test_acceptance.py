"""Acceptance suite: one test per shipped guarantee.

Every test enforces its stated tolerance and, where one applies, a wall-clock
budget, and prints a single verdict line (streamed with ``pytest -s``; under
plain ``pytest -v`` the per-test PASSED/FAILED line carries the verdict).
"""

import hashlib
import io
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import oracles
from projrates.bench import CategoryGrid, run_grid
from projrates.methods import (
    MethodSpec,
    best_parameter,
    build_operator,
    convergence_interval,
    iterate,
    limit_projector,
    predict_rate,
    verify_at_bound,
    verify_bt_bound,
)
from projrates.spectral import classify_convergence, spectral_projectors
from projrates.subspaces import canonical_pair, pair_geometry


@contextmanager
def criterion(number: int, label: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None and elapsed >= budget_s:
        print(f"[criterion {number}] {label}: FAIL ({elapsed:.2f}s over budget)")
        raise AssertionError(
            f"criterion {number} took {elapsed:.1f}s, budget is {budget_s:.0f}s"
        )
    print(f"[criterion {number}] {label}: PASS ({elapsed:.2f}s)")


def _sampled_geometry(rng, n_lo, n_hi, zeros=0, lo=0.1, hi=1.45):
    """Random pair with `zeros` shared directions and angles in (lo, hi)."""
    n = int(rng.integers(n_lo, n_hi + 1))
    p = int(rng.integers(zeros + 2, min(4, n // 2) + 1))
    q = int(rng.integers(p, min(n - p, p + 3) + 1))
    nonzero = np.sort(rng.uniform(lo, hi, size=p - zeros))
    angles = np.concatenate([np.zeros(zeros), nonzero])
    return pair_geometry(*canonical_pair(n, angles, q=q, seed=rng))


def test_criterion_01_nonnormal_limit_and_growing_ratio():
    with criterion(1, "non-normal example: limit, rate, growing ratio", 1.0):
        a, a_inf = oracles.nonnormal_upper_example()
        report = classify_convergence(a)
        assert report.status == "convergent"
        assert abs(report.gamma - 0.5) <= 1e-10
        assert report.optimal_rate_attained is False
        np.testing.assert_allclose(report.limit, np.diag([1.0, 0.0, 0.0]), atol=1e-10)
        np.testing.assert_allclose(report.limit, a_inf, atol=1e-10)
        power = np.linalg.matrix_power(a, 10)
        ratios = []
        for k in range(10, 61):
            ratios.append(np.linalg.norm(power - a_inf, 2) / 0.5**k)
            power = power @ a
        assert all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))


def test_criterion_02_optimal_rate_dichotomy():
    with criterion(2, "optimal rate iff no defective subdominant eigenvalue, 50 matrices", 30.0):
        rng = np.random.default_rng(20250814)
        for i in range(50):
            g = float(rng.uniform(0.9, 0.97))
            defective = i % 2 == 0
            blocks = [np.eye(int(rng.integers(1, 3)))]
            if defective:
                blocks.append(oracles.jordan_block(g, 2))
            if rng.random() < 0.5:
                blocks.append(np.diag([g] * int(rng.integers(1, 3))))
            else:
                blocks.append(oracles.rotation_scaling_block(g, float(rng.uniform(0.3, 2.8))))
            blocks.append(np.diag(rng.uniform(-0.25, 0.25, size=2)))
            a = oracles.assemble(blocks, rng=rng)
            report = classify_convergence(a)
            assert report.status == "convergent", (i, report.warnings)
            assert abs(report.gamma - g) <= 1e-10
            assert report.optimal_rate_attained == (not defective), i
            if not defective:
                power = np.eye(a.shape[0])
                for k in range(1, 201):
                    power = power @ a
                    ratio = np.linalg.norm(power - report.limit, 2) / g**k
                    assert ratio <= 4.0, (i, k, ratio)


def test_criterion_03_pair_construction_round_trip():
    with criterion(3, "100 pairs: angles, norm identities, complement invariance", 30.0):
        rng = np.random.default_rng(33)
        for _ in range(100):
            n = int(rng.integers(6, 41))
            p = int(rng.integers(2, min(8, n // 2) + 1))
            q = int(rng.integers(p, n - p + 1))
            s = int(rng.integers(0, p))
            nonzero = np.sort(rng.uniform(0.02, np.pi / 2 - 0.02, size=p - s))
            angles = np.concatenate([np.zeros(s), nonzero])
            u, v = canonical_pair(n, angles, q=q, seed=rng)
            geom = pair_geometry(u, v)
            np.testing.assert_allclose(geom.angles, angles, atol=1e-10)
            pu, pv, pm = geom.P_U, geom.P_V, geom.P_M
            assert abs(np.linalg.norm(pu @ pv - pm, 2) - math.cos(geom.theta_F)) <= 1e-9
            assert abs(np.linalg.norm(pu - pu @ pv, 2) - math.sin(geom.theta_p)) <= 1e-9
            assert (
                abs(np.linalg.norm(pu - pu @ pv @ pu, 2) - math.sin(geom.theta_p) ** 2)
                <= 1e-9
            )
            theta_c = pair_geometry(oracles.complement(u), oracles.complement(v)).theta_F
            assert abs(geom.theta_F - theta_c) <= 1e-9


def test_criterion_04_rate_formulas_match_measured_decay():
    with criterion(4, "closed-form rates match measured decay across parameter domains", 120.0):
        rng = np.random.default_rng(44)
        for i in range(30):
            geom = _sampled_geometry(rng, 8, 14, zeros=int(rng.integers(0, 2)))
            for kind in ("T", "S", "R"):
                lo, hi = convergence_interval(kind, geom)
                mus = [0.2 * hi, 0.55 * hi, 0.9 * hi]
                best_mu, _ = best_parameter(kind, geom)
                if lo < best_mu < hi:
                    mus.append(best_mu)
                for mu in mus:
                    spec = MethodSpec(kind, mu=mu)
                    pred = predict_rate(spec, geom)
                    assert pred.convergent
                    fitted = oracles.squaring_rate(
                        build_operator(spec, geom), limit_projector(spec, geom), doublings=16
                    )
                    if pred.gamma < 0.1:
                        assert abs(fitted - pred.gamma) <= 0.01, (i, kind, mu)
                    else:
                        assert abs(fitted - pred.gamma) <= 0.02 * pred.gamma, (i, kind, mu)
            boundaries = (
                ("T", 2.0),
                ("R", 2.0),
                ("S", 2.0 / math.sin(geom.theta_p) ** 2),
            )
            for kind, mu_b in boundaries:
                rep = classify_convergence(build_operator(MethodSpec(kind, mu=mu_b), geom))
                assert rep.status == "not_convergent", (i, kind)


def test_criterion_05_averaged_reflection_exactness():
    with criterion(5, "averaged reflections: normal operator, exact gamma^k decay"):
        rng = np.random.default_rng(55)
        for i in range(20):
            geom = _sampled_geometry(rng, 6, 12, lo=0.15, hi=1.2)
            mu = float(rng.uniform(0.3, 1.7))
            spec = MethodSpec("R", mu=mu)
            a = build_operator(spec, geom)
            assert np.linalg.norm(a @ a.T - a.T @ a, 2) <= 1e-10
            pred = predict_rate(spec, geom)
            d = a - limit_projector(spec, geom)
            dk = np.eye(a.shape[0])
            for k in range(1, 41):
                dk = dk @ d
                expected = pred.gamma**k
                assert abs(np.linalg.norm(dk, 2) - expected) <= 1e-8 * expected, (i, k)


def test_criterion_06_finite_termination_two_steps():
    with criterion(6, "partial relaxation meets two lines / line vs plane in <= 2 steps"):
        rng = np.random.default_rng(66)
        cases = [
            canonical_pair(2, [float(rng.uniform(0.05, 1.5))], seed=rng),
            canonical_pair(3, [float(rng.uniform(0.05, 1.5))], q=2, seed=rng),
        ]
        for u, v in cases:
            geom = pair_geometry(u, v)
            mu = 1.0 / math.sin(geom.theta_F) ** 2
            x0 = rng.standard_normal(geom.ambient_dim) * 5.0
            trace = iterate(MethodSpec("S", mu=mu), geom, x0, eps=1e-12, max_iter=5)
            assert trace.solved
            assert trace.iterations <= 2
            assert trace.distances[-1] <= 1e-12


def test_criterion_07_adaptive_step_guarantees():
    with criterion(7, "adaptive-step distance envelopes hold on 100 instances"):
        rng = np.random.default_rng(77)
        for i in range(100):
            zeros = int(rng.integers(0, 2))
            geom = _sampled_geometry(rng, 6, 12, zeros=zeros, lo=0.2, hi=1.5)
            x0 = rng.standard_normal(geom.ambient_dim) * float(rng.uniform(0.5, 20.0))
            flavor = i % 3
            if flavor == 0:
                ok, worst = verify_bt_bound(geom, x0)
            elif flavor == 1:
                ok, worst = verify_bt_bound(geom, geom.P_U @ x0)
            else:
                ok, worst = verify_at_bound(geom, x0)
            assert ok, (i, flavor, worst)


#: records.csv fingerprint of run_grid(CategoryGrid(), [BT, S:best, T:best, MAP, DR], 2025)
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def test_criterion_08_benchmark_method_orderings():
    with criterion(8, "desk-scale benchmark reproduces the method orderings", 600.0):
        grid = CategoryGrid()
        methods = ["BT", "S:best", "T:best", "MAP", "DR"]
        table = run_grid(grid, methods, master_seed=2025)
        n_bins = len(grid.primary_bins)
        medians = {m: [b["median"] for b in table.bin_stats[m].values()] for m in methods}
        for i in (n_bins - 2, n_bins - 1):
            ranked = [medians[m][i] for m in ("BT", "S:best", "T:best", "MAP")]
            assert ranked == sorted(ranked), (i, ranked)
        last = n_bins - 1
        assert all(medians["DR"][last] >= medians[m][last] for m in methods)
        assert medians["DR"][0] < medians["MAP"][0]
        # the iteration counts of seed 2025 are pinned byte for byte
        buf = io.StringIO()
        table.write_records_csv(buf)
        reference = json.loads(REFERENCE.read_text())
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == reference["records_sha256"]


def test_criterion_09_spectral_projector_properties():
    with criterion(9, "spectral projectors: partition, annihilation, nilpotency index", 10.0):
        rng = np.random.default_rng(99)
        base = np.array([-1.6, -0.5, 0.7, 1.8])
        for i in range(30):
            m = int(rng.integers(2, 5))
            values = rng.choice(base, size=m, replace=False) + rng.uniform(-0.1, 0.1, size=m)
            blocks = []
            expected = {}
            for val in values:
                sizes = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 3)))]
                blocks.extend(oracles.jordan_block(float(val), sz) for sz in sizes)
                expected[float(val)] = (sum(sizes), max(sizes))
            a = oracles.assemble(blocks, rng=rng)
            n = a.shape[0]
            # index-3 blocks scatter their computed eigenvalues by ~eps^(1/3),
            # far past the default merge scale; the true values sit >= 0.8 apart
            pairs = spectral_projectors(a, cluster_tol=1e-4)
            assert len(pairs) == m
            total = sum(proj for _, proj in pairs)
            assert np.linalg.norm(total - np.eye(n), 2) <= 1e-8
            for j, (cj, pj) in enumerate(pairs):
                val = min(expected, key=lambda v: abs(cj.value - v))
                mult, index = expected[val]
                assert cj.algebraic_multiplicity == mult
                assert cj.index == index
                nil = (a - val * np.eye(n)) @ pj
                assert np.linalg.norm(np.linalg.matrix_power(nil, index), 2) <= 1e-8
                if index > 1:
                    assert np.linalg.norm(np.linalg.matrix_power(nil, index - 1), 2) > 1e-6
                for k, (_, pk) in enumerate(pairs):
                    if k != j:
                        assert np.linalg.norm(pj @ pk, 2) <= 1e-8
