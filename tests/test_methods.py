import math
import re

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oracles import adaptive_step, map_two_lines_count, squaring_rate
from projrates.methods import (
    DivergenceError,
    MethodSpec,
    best_parameter,
    build_operator,
    convergence_interval,
    fit_rate,
    iterate,
    limit_projector,
    parse_method,
    predict_rate,
    resolve_mu,
    verify_at_bound,
    verify_bt_bound,
)
from projrates.spectral import classify_convergence
from projrates.subspaces import canonical_pair, pair_geometry, projector, subspace_from_spanning


def geometry(n, angles, q=None, seed=0):
    u, v = canonical_pair(n, angles, q=q, seed=seed)
    return pair_geometry(u, v)


@pytest.fixture(scope="module")
def geom_937():
    # p=3, q=4, s=1, theta_F=0.5, theta_p=1.0 in R^9
    return geometry(9, [0.0, 0.5, 1.0], q=4)


def expected_spectrum(kind, mu, geom):
    """Closed-form eigenvalue multiset of the iteration matrix."""
    n, p, q, s = geom.ambient_dim, geom.p, geom.q, geom.s
    nonzero = [a for a in geom.angles if a > 1e-8]
    values = []
    if kind == "T":
        values += [1.0] * s
        values += [1.0 - mu * math.sin(a) ** 2 for a in nonzero]
        values += [1.0 - mu] * (n - p)
    elif kind == "S":
        values += [1.0] * s
        values += [1.0 - mu * math.sin(a) ** 2 for a in nonzero]
        values += [0.0] * (n - p)
    elif kind == "R":
        values += [1.0] * (s + (n - p - q + s))
        for a in nonzero:
            re = 1.0 - mu * math.sin(a) ** 2
            im = mu * math.sin(a) * math.cos(a)
            values += [complex(re, im), complex(re, -im)]
        values += [1.0 - mu] * (q - p)
    return np.sort_complex(np.asarray(values, dtype=complex))


# ---------------------------------------------------------------------------
# specs and parsing


def test_parse_and_labels():
    assert parse_method("map").label == "MAP"
    assert parse_method("T:0.8") == MethodSpec("T", mu=0.8)
    assert parse_method("s:best") == MethodSpec("S", best=True)
    assert MethodSpec("T", mu=1.25).label == "T:1.25"
    assert MethodSpec("R", best=True).label == "R:best"


@pytest.mark.parametrize("text", ["X", "T", "S", "MAP:2", "BT:best", "T:abc"])
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_method(text)


def test_spec_requires_exactly_one_parameter_source():
    with pytest.raises(ValueError):
        MethodSpec("T")
    with pytest.raises(ValueError):
        MethodSpec("T", mu=1.0, best=True)
    with pytest.raises(ValueError):
        MethodSpec("MAP", mu=1.0)


# ---------------------------------------------------------------------------
# parameters and rates


def test_best_parameters_match_formulas(geom_937):
    t_f = math.sin(0.5) ** 2
    t_p = math.sin(1.0) ** 2
    mu, rate = best_parameter("T", geom_937)
    assert math.isclose(mu, 2 / (1 + t_f), rel_tol=1e-12)
    assert math.isclose(rate, (1 - t_f) / (1 + t_f), rel_tol=1e-12)
    mu, rate = best_parameter("S", geom_937)
    assert math.isclose(mu, 2 / (t_f + t_p), rel_tol=1e-12)
    assert math.isclose(rate, (t_p - t_f) / (t_p + t_f), rel_tol=1e-12)
    mu, rate = best_parameter("R", geom_937)
    assert mu == 1.0
    assert math.isclose(rate, math.cos(0.5), rel_tol=1e-12)
    assert best_parameter("MAP", geom_937) == (None, pytest.approx(math.cos(0.5) ** 2))
    assert best_parameter("DR", geom_937) == (None, pytest.approx(math.cos(0.5)))
    _, bt_rate = best_parameter("BT", geom_937)
    assert math.isclose(bt_rate, (t_p - t_f) / (t_p + t_f), rel_tol=1e-12)


def test_convergence_intervals(geom_937):
    t_p = math.sin(1.0) ** 2
    assert convergence_interval("T", geom_937) == (0.0, 2.0)
    assert convergence_interval("R", geom_937) == (0.0, 2.0)
    lo, hi = convergence_interval("S", geom_937)
    assert lo == 0.0 and math.isclose(hi, 2 / t_p, rel_tol=1e-12)
    assert convergence_interval("BT", geom_937) == (0.0, math.inf)


def test_resolve_mu(geom_937):
    assert resolve_mu(MethodSpec("MAP"), geom_937) == 1.0
    assert resolve_mu(MethodSpec("DR"), geom_937) == 1.0
    assert resolve_mu(MethodSpec("BT"), geom_937) is None
    assert resolve_mu(MethodSpec("T", mu=0.7), geom_937) == 0.7
    best, _ = best_parameter("S", geom_937)
    assert resolve_mu(MethodSpec("S", best=True), geom_937) == best


# ---------------------------------------------------------------------------
# operators: spectra, limits, normality


@pytest.mark.parametrize("kind", ["T", "S", "R"])
@pytest.mark.parametrize("mu", [0.4, 0.8, 1.0, 1.3])
def test_operator_spectrum_closed_form(geom_937, kind, mu):
    a = build_operator(MethodSpec(kind, mu=mu), geom_937)
    mine = np.sort_complex(np.linalg.eigvals(a))
    np.testing.assert_allclose(mine, expected_spectrum(kind, mu, geom_937), atol=1e-9)


def test_map_and_dr_equal_unit_relaxation(geom_937):
    np.testing.assert_allclose(
        build_operator(MethodSpec("MAP"), geom_937),
        build_operator(MethodSpec("T", mu=1.0), geom_937),
        atol=1e-14,
    )
    np.testing.assert_allclose(
        build_operator(MethodSpec("DR"), geom_937),
        build_operator(MethodSpec("R", mu=1.0), geom_937),
        atol=1e-14,
    )


def test_averaged_reflections_identity(geom_937):
    # P_U P_V + P_Uc P_Vc = (R_U R_V + I) / 2 for reflections R = 2P - I
    r_u = 2 * geom_937.P_U - np.eye(9)
    r_v = 2 * geom_937.P_V - np.eye(9)
    np.testing.assert_allclose(
        build_operator(MethodSpec("DR"), geom_937),
        (r_u @ r_v + np.eye(9)) / 2,
        atol=1e-12,
    )


def test_r_operator_is_normal(geom_937):
    for mu in (0.5, 1.0, 1.7):
        a = build_operator(MethodSpec("R", mu=mu), geom_937)
        np.testing.assert_allclose(a @ a.T, a.T @ a, atol=1e-12)


def test_r_powers_decay_exactly_at_gamma(geom_937):
    # normality makes ||R^k - R_inf|| = gamma^k exactly
    for mu in (0.6, 1.0, 1.4):
        spec = MethodSpec("R", mu=mu)
        a = build_operator(spec, geom_937)
        pred = predict_rate(spec, geom_937)
        a_inf = limit_projector(spec, geom_937)
        diff = a - a_inf
        power = np.eye(9)
        for k in range(1, 25):
            power = power @ diff
            assert math.isclose(
                np.linalg.norm(power, 2), pred.gamma ** k, rel_tol=1e-10
            )


def test_limit_projectors(geom_937):
    p_m = geom_937.P_M
    np.testing.assert_allclose(limit_projector(MethodSpec("MAP"), geom_937), p_m)
    np.testing.assert_allclose(limit_projector(MethodSpec("BT"), geom_937), p_m)
    # (U + V)-perp, from the span of both bases together
    both = subspace_from_spanning(np.hstack([geom_937.U.basis, geom_937.V.basis]))
    perp = np.eye(9) - projector(both)
    np.testing.assert_allclose(
        limit_projector(MethodSpec("DR"), geom_937), p_m + perp, atol=1e-12
    )
    # U-perp /\ V-perp has dimension n - p - q + s = 3
    assert np.linalg.matrix_rank(perp) == 3


@pytest.mark.parametrize("t", [0.0, 1e-15, 1e-12, 5e-9])
def test_dr_limit_agrees_with_the_frames_intersection(t):
    # a tiny angle next to a zero one: the frame decides s = 1, so U + V has
    # p + q - s = 6 directions, and the limit fixes s + (n - 6) of them
    geom = geometry(10, [t, 0.5, 1.0], q=4, seed=3)
    assert geom.s == 1
    limit = limit_projector(MethodSpec("DR"), geom)
    np.testing.assert_allclose(limit, limit.T, atol=1e-12)
    np.testing.assert_allclose(limit @ limit, limit, atol=1e-12)
    assert math.isclose(np.trace(limit), geom.s + 10 - (geom.p + geom.q - geom.s), abs_tol=1e-9)


# ---------------------------------------------------------------------------
# predictions against the spectral classifier


@pytest.mark.parametrize("kind", ["T", "S", "R"])
def test_prediction_agrees_with_classifier_across_domain(geom_937, kind):
    lo, hi = convergence_interval(kind, geom_937)
    grid = [0.0, 0.25 * hi, 0.5 * hi, best_parameter(kind, geom_937)[0],
            0.95 * hi, hi, 1.1 * hi]
    for mu in grid:
        spec = MethodSpec(kind, mu=mu)
        pred = predict_rate(spec, geom_937)
        report = classify_convergence(build_operator(spec, geom_937))
        assert pred.convergent == (report.status == "convergent"), mu
        if pred.convergent:
            assert math.isclose(pred.gamma, report.gamma, abs_tol=1e-9), mu
            np.testing.assert_allclose(limit_projector(spec, geom_937), report.limit, atol=1e-8)
        if pred.solves:
            assert lo < mu < hi


def test_prediction_at_zero_relaxation(geom_937):
    for kind, expected in (("T", np.eye(9)), ("R", np.eye(9)), ("S", geom_937.P_U)):
        spec = MethodSpec(kind, mu=0.0)
        pred = predict_rate(spec, geom_937)
        assert pred.convergent and not pred.solves
        assert pred.gamma == 0.0
        np.testing.assert_allclose(limit_projector(spec, geom_937), expected, atol=1e-12)


def test_prediction_outside_domain_has_no_limit(geom_937):
    spec = MethodSpec("T", mu=2.5)
    pred = predict_rate(spec, geom_937)
    assert not pred.convergent and not pred.solves
    assert limit_projector(spec, geom_937) is None
    assert pred.gamma > 1


@pytest.mark.parametrize("q", [3, 4])  # R's |1 - mu| candidate only where q > p
@pytest.mark.parametrize("mu", [1e160, -1e160, 1e300, -1e300])
@pytest.mark.parametrize("kind", ["T", "S", "R"])
def test_prediction_at_a_huge_mu_is_finite_and_divergent(kind, mu, q):
    """(1 - mu)^2 overflows a float above |mu| ~ 1.34e154; the modulus does
    not: R's is sqrt(1 - t + t (1 - mu)^2) at t = sin^2 of an end angle,
    about sin(theta_p) |mu|.  The run diverges at step 1."""
    geom = geometry(9, [0.0, 0.5, 1.0], q=q)
    pred = predict_rate(MethodSpec(kind, mu=mu), geom)
    assert not pred.convergent and not pred.solves
    assert math.isfinite(pred.gamma)
    t_p = math.sin(1.0) ** 2
    expected = {"T": abs(1.0 - mu), "S": abs(1.0 - mu * t_p),
                "R": abs(1.0 - mu) if q > 3 else math.sqrt(t_p) * abs(mu)}[kind]
    assert math.isclose(pred.gamma, expected, rel_tol=1e-9)
    x0 = np.random.default_rng(6).standard_normal(9)
    with pytest.raises(DivergenceError) as err:
        iterate(MethodSpec(kind, mu=mu), geom, x0)
    assert err.value.step == 1


def test_r_prediction_keeps_its_bits_below_the_overflow():
    """Where (1 - mu)^2 is finite, R's modulus is the one formula, bit for bit."""
    geom = geometry(9, [0.0, 0.5, 1.0], q=3)
    t_f, t_p = math.sin(geom.theta_F) ** 2, math.sin(geom.theta_p) ** 2
    for mu in (0.7, 1.9, -3.0, 1e100, 1.3e154, -1.3e154):
        expected = max(math.sqrt(max(mu * (2.0 - mu) * (1.0 - t) + (1.0 - mu) ** 2, 0.0))
                       for t in (t_f, t_p))
        assert predict_rate(MethodSpec("R", mu=mu), geom).gamma == expected


def test_adaptive_prediction(geom_937):
    pred = predict_rate(MethodSpec("BT"), geom_937)
    _, best_rate = best_parameter("S", geom_937)
    assert pred.convergent and pred.solves
    assert math.isclose(pred.gamma, best_rate, rel_tol=1e-12)
    np.testing.assert_allclose(limit_projector(MethodSpec("BT"), geom_937), geom_937.P_M)


def test_rate_ordering(geom_937):
    rates = {k: best_parameter(k, geom_937)[1] for k in ("S", "T", "MAP", "DR", "BT")}
    assert rates["BT"] == rates["S"] <= rates["T"] <= rates["MAP"]
    assert math.isclose(rates["DR"], math.cos(0.5), rel_tol=1e-12)


def test_gamma_formula_matches_powers_for_all_kinds(geom_937):
    # squaring_rate carries a C^(1/2^doublings) bias from the non-normal
    # transient, hence the tolerance
    for kind in ("T", "S", "R"):
        for mu in (0.3, 0.9, 1.0, 1.6):
            spec = MethodSpec(kind, mu=mu)
            pred = predict_rate(spec, geom_937)
            if not pred.convergent:
                continue
            a = build_operator(spec, geom_937)
            fitted = squaring_rate(a, limit_projector(spec, geom_937), doublings=16)
            assert math.isclose(fitted, pred.gamma, rel_tol=1e-5, abs_tol=1e-9), (kind, mu)


# ---------------------------------------------------------------------------
# iteration driver


def lines_geometry(theta, seed=0):
    u, v = canonical_pair(2, [theta], seed=seed)
    return pair_geometry(u, v)


def test_map_on_lines_matches_scalar_recurrence():
    theta = 0.7
    geom = lines_geometry(theta)
    rng = np.random.default_rng(1)
    for _ in range(5):
        x0 = rng.standard_normal(2) * 10
        trace = iterate(MethodSpec("MAP"), geom, x0, eps=0.01)
        expected = map_two_lines_count(
            theta, x0, geom.U.basis[:, 0], geom.V.basis[:, 0], 0.01, 100000
        )
        assert trace.solved
        assert abs(trace.iterations - expected) <= 1


def test_iterate_stops_immediately_inside_intersection():
    geom = geometry(6, [0.0, 0.8], q=3, seed=2)
    x0 = geom.P_M @ np.random.default_rng(3).standard_normal(6) * 5
    trace = iterate(MethodSpec("MAP"), geom, x0, eps=0.01)
    assert trace.solved and trace.iterations == 0
    assert len(trace.distances) == 1


def test_iterate_rejects_wrong_dimension(geom_937):
    with pytest.raises(ValueError, match="dimension"):
        iterate(MethodSpec("MAP"), geom_937, np.ones(5))


@pytest.mark.parametrize(
    "kwargs, name",
    [({"eps": math.nan}, "eps"), ({"eps": -1e-3}, "eps"), ({"max_iter": -5}, "max_iter"),
     ({"eps": math.inf}, "eps")],
)
def test_iterate_rejects_bad_stopping_rule(geom_937, kwargs, name):
    with pytest.raises(ValueError, match=name):
        iterate(MethodSpec("MAP"), geom_937, np.ones(9), **kwargs)


@pytest.mark.parametrize("label", ["MAP", "BT"])
@pytest.mark.parametrize("max_iter", [10.5, 1e3, True, False, "10", None, np.float64(10.0), np.True_])
def test_iterate_rejects_a_max_iter_that_is_not_an_integer(geom_937, label, max_iter):
    with pytest.raises(ValueError, match=re.escape(f"max_iter must be an integer, got {max_iter!r}")):
        iterate(parse_method(label), geom_937, np.ones(9), max_iter=max_iter)


@pytest.mark.parametrize("label", ["MAP", "BT"])
def test_iterate_takes_a_numpy_integer_max_iter(geom_937, label):
    x0 = np.random.default_rng(1).standard_normal(9)
    got = iterate(parse_method(label), geom_937, x0, eps=0.0, max_iter=np.int64(7))
    assert len(got.distances) == 8
    assert got.distances.tobytes() == iterate(parse_method(label), geom_937, x0, eps=0.0, max_iter=7).distances.tobytes()


@pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
def test_non_finite_mu_rejected(mu):
    with pytest.raises(ValueError, match="finite mu"):
        MethodSpec("T", mu=mu)
    with pytest.raises(ValueError, match="finite mu"):
        parse_method(f"S:{mu}")


def test_iterate_builds_no_dense_projector():
    geom = geometry(30, [0.0, 1e-3, 0.5, 1.2], q=6, seed=4)
    x0 = np.random.default_rng(4).standard_normal(30)
    for method in ("T:best", "S:best", "R:best", "MAP", "DR", "BT", "AT"):
        iterate(parse_method(method), geom, x0, eps=1e-8)
    assert not {"P_U", "P_V", "P_M"} & set(geom.__dict__)


def test_linear_methods_reach_predicted_limit(geom_937):
    rng = np.random.default_rng(4)
    x0 = rng.standard_normal(9) * 10
    for text in ("T:best", "S:best", "R:best", "MAP", "T:1.5", "S:1.2"):
        spec = parse_method(text)
        trace = iterate(spec, geom_937, x0, eps=1e-8, max_iter=20000)
        assert trace.solved, text
        target = geom_937.P_M @ x0
        monitored = trace.x_final
        if spec.kind == "R":
            monitored = geom_937.P_V @ monitored
        np.testing.assert_allclose(monitored, target, atol=2e-7)


def test_dr_shadow_converges_to_projection(geom_937):
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal(9) * 10
    trace = iterate(MethodSpec("DR"), geom_937, x0, eps=1e-9, max_iter=50000)
    assert trace.solved
    shadow = geom_937.P_V @ trace.x_final
    np.testing.assert_allclose(shadow, geom_937.P_M @ x0, atol=1e-7)


def test_divergence_raises_with_step(geom_937):
    x0 = np.random.default_rng(6).standard_normal(9) * 10
    with pytest.raises(DivergenceError) as err:
        iterate(MethodSpec("T", mu=2.5), geom_937, x0, max_iter=10000)
    assert err.value.step > 0


def test_boundary_mu_bounded_but_unsolved(geom_937):
    x0 = np.random.default_rng(7).standard_normal(9) * 10
    trace = iterate(MethodSpec("T", mu=2.0), geom_937, x0, eps=0.01, max_iter=3000)
    assert not trace.solved
    assert np.max(trace.distances) < 1e3


def test_finite_termination_at_angle_killing_mu():
    # equal angles: mu = 1/sin^2(theta) zeroes every contraction factor
    geom = lines_geometry(0.7, seed=8)
    mu = 1.0 / math.sin(0.7) ** 2
    x0 = np.random.default_rng(9).standard_normal(2) * 10
    trace = iterate(MethodSpec("S", mu=mu), geom, x0, eps=1e-12)
    assert trace.solved and trace.iterations <= 2


def test_trace_csv_has_columns(tmp_path, geom_937):
    x0 = np.random.default_rng(10).standard_normal(9) * 10
    trace = iterate(MethodSpec("BT"), geom_937, x0, eps=0.01)
    path = tmp_path / "trace.csv"
    with open(path, "w") as fh:
        trace.write_csv(fh)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,distance,mu"
    assert lines[1].startswith("0,") and lines[1].endswith(",")
    first = lines[2].split(",")
    assert len(first) == 3 and float(first[1]) > 0 and float(first[2]) != 0


def test_fit_rate_recovers_geometric_decay():
    d = 7.0 * 0.65 ** np.arange(30)
    assert math.isclose(fit_rate(d), 0.65, rel_tol=1e-12)
    assert fit_rate(np.array([1e-15, 1e-16])) is None


# ---------------------------------------------------------------------------
# adaptive maps


def test_adaptive_step_matches_partial_relaxation_formula(geom_937):
    rng = np.random.default_rng(11)
    x = rng.standard_normal(9)
    pu, pv = geom_937.P_U, geom_937.P_V
    x_next, mu = adaptive_step(MethodSpec("BT"), geom_937, x)
    w = pu @ x - pu @ (pv @ x)
    expected_mu = float(w @ x) / float(w @ w)
    assert math.isclose(mu, expected_mu, rel_tol=1e-12)
    np.testing.assert_allclose(x_next, (1 - mu) * (pu @ x) + mu * pu @ (pv @ x))


def test_adaptive_step_degenerate_direction(geom_937):
    x = geom_937.P_M @ np.ones(9)  # inside the intersection: w = 0
    x_next, mu = adaptive_step(MethodSpec("BT"), geom_937, x)
    assert mu == 1.0
    np.testing.assert_allclose(x_next, x, atol=1e-12)


def test_bt_equals_at_on_u(geom_937):
    rng = np.random.default_rng(12)
    x = geom_937.P_U @ rng.standard_normal(9)
    bt_next, bt_mu = adaptive_step(MethodSpec("BT"), geom_937, x)
    at_next, at_mu = adaptive_step(MethodSpec("AT"), geom_937, x)
    assert math.isclose(bt_mu, at_mu, rel_tol=1e-12)
    np.testing.assert_allclose(bt_next, at_next, atol=1e-12)


def test_bt_step_is_pointwise_optimal(geom_937):
    rng = np.random.default_rng(13)
    x = rng.standard_normal(9) * 3
    target = geom_937.P_M @ x
    x_next, _ = adaptive_step(MethodSpec("BT"), geom_937, x)
    best = np.linalg.norm(x_next - target)
    pu, puv = geom_937.P_U @ x, geom_937.P_U @ (geom_937.P_V @ x)
    for mu in np.linspace(-1.0, 3.0, 81):
        candidate = (1 - mu) * pu + mu * puv
        assert best <= np.linalg.norm(candidate - target) + 1e-12


def test_bt_one_step_when_angles_equal():
    geom = lines_geometry(0.9, seed=14)
    x0 = np.random.default_rng(15).standard_normal(2) * 10
    trace = iterate(MethodSpec("BT"), geom, x0, eps=1e-12)
    assert trace.solved and trace.iterations <= 2


def test_bt_contraction_bound_holds(geom_937):
    rng = np.random.default_rng(16)
    ok, worst = verify_bt_bound(geom_937, rng.standard_normal(9) * 10)
    assert ok, worst
    # started inside U the envelope drops its first-step factor
    ok_u, worst_u = verify_bt_bound(geom_937, geom_937.P_U @ rng.standard_normal(9) * 10)
    assert ok_u, worst_u


def test_at_contraction_bound_holds(geom_937):
    rng = np.random.default_rng(17)
    ok, worst = verify_at_bound(geom_937, rng.standard_normal(9) * 10)
    assert ok, worst


def test_first_step_factor_is_sharp():
    # start on the V-side principal direction at theta_F: one BT step
    # contracts by exactly cos(theta_F)
    geom = geometry(8, [0.0, 0.6, 1.2], q=3, seed=18)
    qu = geom.U.basis
    # V-side vector paired with the theta_F direction
    left, _, right = np.linalg.svd(geom.U.basis.T @ geom.V.basis)
    v_cols = geom.V.basis @ right.T
    x0 = v_cols[:, 1]  # second principal pair: angle theta_F
    d0 = np.linalg.norm(x0 - geom.P_M @ x0)
    x1, mu = adaptive_step(MethodSpec("BT"), geom, x0)
    d1 = np.linalg.norm(x1 - geom.P_M @ x0)
    assert math.isclose(mu, 1.0, rel_tol=1e-9)
    assert math.isclose(d1 / d0, math.cos(0.6), rel_tol=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.5, 1.5))
def test_interior_relaxation_always_solves(seed, mu):
    rng = np.random.default_rng(seed)
    theta_f = float(rng.uniform(0.3, 1.2))
    theta_p = float(rng.uniform(theta_f, math.pi / 2 - 1e-3))
    geom = geometry(7, [0.0, theta_f, theta_p], q=3, seed=rng)
    x0 = rng.standard_normal(7) * 10
    for kind in ("T", "S", "R"):
        trace = iterate(MethodSpec(kind, mu=mu), geom, x0, eps=0.01, max_iter=5000)
        assert trace.solved, (kind, mu, theta_f)


# ---------------------------------------------------------------------------
# near-nested pairs


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(0, 1),
    st.integers(0, 2),
    st.lists(st.one_of(st.just(0.0), st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e)),
             min_size=5, max_size=5),
    st.integers(0, 2 ** 32 - 1),
)
def test_near_nested_pairs_stay_finite(p, extra_q, extra_n, draws, seed):
    """Angles down to 1e-12 and theta_F -> 0 give no NaN or inf; where every
    angle falls under zero_tol the pair is nested and the rate needs an
    angle, which predict_rate and the ':best' parameters refuse by name."""
    q = p + extra_q
    angles = sorted(draws[:p])
    geom = geometry(p + q + extra_n, angles, q=q, seed=seed)
    assert np.all(np.isfinite(geom.angles))
    for proj in (geom.P_U, geom.P_V, geom.P_M):
        assert np.all(np.isfinite(proj))
    event("nested" if geom.theta_F is None else f"theta_F ~ 1e{math.floor(math.log10(geom.theta_F))}")
    x0 = np.random.default_rng(seed).standard_normal(geom.ambient_dim)
    for text in ("MAP", "DR", "T:best", "S:best", "R:best", "BT", "AT"):
        spec = parse_method(text)
        if geom.theta_F is None:
            with pytest.raises(ValueError, match="contained in the other"):
                predict_rate(spec, geom)
            if spec.best:
                with pytest.raises(ValueError, match="contained in the other"):
                    iterate(spec, geom, x0, eps=1e-6, max_iter=200)
                continue
        else:
            pred = predict_rate(spec, geom)
            assert math.isfinite(pred.gamma) and math.isfinite(pred.best_rate)
            assert pred.mu is None or math.isfinite(pred.mu)
        try:
            trace = iterate(spec, geom, x0, eps=1e-6, max_iter=200)
        except DivergenceError:
            event(f"{spec.kind} diverged")
            continue  # the documented outcome of a growing orbit
        assert np.all(np.isfinite(trace.distances))
        assert np.all(np.isfinite(trace.x_final))
        assert np.all(np.isfinite(trace.mu_history))
