"""The principal-coordinate engine behind ``iterate`` against the dense
projector loop ``oracles.dense_iterate``."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracles
import projrates.methods
from projrates.methods import DivergenceError, MethodSpec, iterate
from projrates.subspaces import EPS, canonical_pair, haar_orthogonal, pair_geometry

KINDS = ("T", "S", "R", "MAP", "DR", "BT", "AT")

angle = st.one_of(
    st.just(0.0),
    st.just(math.pi / 2),
    st.floats(-6.0, -3.0).map(lambda e: 10.0**e),
    st.floats(0.01, 1.5),
)


@st.composite
def runs(draw):
    """One run: method, pair, start, eps and max_iter.

    Angle lists mix zeros, pi/2, tiny and ordinary angles, with repeats;
    q > p and p + q < n occur.  T/S/R take mu = 0, mu inside the
    convergence interval, at its upper edge (2, or 2/sin^2 theta_p for S),
    beyond it, or the best mu.
    """
    p = draw(st.integers(1, 4))
    pool = draw(st.lists(angle, min_size=1, max_size=p))
    angles = sorted(draw(st.lists(st.sampled_from(pool), min_size=p, max_size=p)))
    assume(angles[-1] > 0.0)
    q = p + draw(st.integers(0, 2))
    n = p + q + draw(st.integers(0, 2))
    geom = pair_geometry(*canonical_pair(n, angles, q, seed=draw(st.integers(0, 2**32 - 1))))
    assume(geom.theta_F is not None)
    kind = draw(st.sampled_from(KINDS))
    if kind in ("T", "S", "R"):
        edge = 2.0 / math.sin(geom.theta_p) ** 2 if kind == "S" else 2.0
        where = draw(st.sampled_from(("zero", "inside", "edge", "beyond", "best")))
        if where == "best":
            spec = MethodSpec(kind, best=True)
        else:
            factor = {"zero": 0.0, "edge": 1.0,
                      "inside": draw(st.floats(0.01, 0.99)),
                      "beyond": draw(st.floats(1.01, 1.5))}[where]
            spec = MethodSpec(kind, mu=edge * factor)
    else:
        spec = MethodSpec(kind)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x0 = rng.standard_normal(n) * draw(st.floats(0.5, 10.0))
    eps = 10.0 ** draw(st.floats(-12.0, 0.0))
    return spec, geom, x0, eps, draw(st.integers(1, 300))


def _outcome(run, spec, geom, x0, eps, max_iter):
    try:
        return run(spec, geom, x0, eps=eps, max_iter=max_iter)
    except DivergenceError as exc:
        return exc.step


EPS_LONG = float(np.finfo(np.longdouble).eps)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(runs())
def test_engine_matches_dense_oracle(case):
    """Equal outcomes, step counts and lengths; distances, x_final and
    mu_history within a relative 1e-9 of the dense loop's, run in long
    double, plus the round-off that neither side can avoid.

    In float64 the dense loop is itself off by more than 1e-9 in much of
    this range: its steps round at about EPS * |mu| of the point, a tiny
    angle makes mu ~ 1/sin^2 for S:best, BT and AT, and the line search of
    BT/AT subtracts nearly equal vectors, losing sin^2(theta_F) of the
    precision.  In long double that round-off is about 2000 times smaller.

    The unit of round-off on both sides is EPS, plus the leak of P_M's range
    out of V, which the engine takes as invariant.  For T/S/R add long
    double's EPS times max(1, |mu| sin(theta_p)): the oracle's operator
    rounds at |mu| and its next step couples w_k into u_k with weight
    mu c s.  For BT/AT add that the line search sees the measured angles,
    exact to about EPS / sin(theta_F) relative, and that the oracle's loses
    sin^2(theta_F) of long double's precision.  A step magnifies the unit
    by max(1, |mu|); a line-search step that moves the point by h sets its
    mu only to |mu| (|x| / h)^2 units, and h is at least the change of
    distance.

    Left out are runs whose count is not defined to that precision: a
    distance within tolerance of eps, or a divergence whose growth is not
    known to 1e-6.  Pairs with a tiny angle next to the intersection are
    kept: the frame, which both sides read P_M from, re-pairs U ∩ V with
    that angle's plane.
    """
    spec, geom, x0, eps, max_iter = case
    leak = np.linalg.norm(geom.P_V @ geom.P_M - geom.P_M)
    mu = projrates.methods.resolve_mu(spec, geom)
    unit = 100 * (EPS + leak)
    if mu is None:  # BT, AT
        sin_f = math.sin(geom.theta_F)
        unit += 100 * (EPS / sin_f + EPS_LONG / sin_f**2)
    else:
        unit += 100 * EPS_LONG * max(1.0, abs(mu) * math.sin(geom.theta_p))
    ref = _outcome(oracles.dense_iterate, spec, oracles.extended_geometry(geom), x0, eps, max_iter)
    got = _outcome(iterate, spec, geom, x0, eps, max_iter)
    if isinstance(ref, int):  # the first step past 1e12 times the start's distance
        assume(unit * max(1.0, abs(mu or 0.0)) * ref <= 1e-6)
        assert got == ref
        return

    size = np.linalg.norm(x0)
    d = ref.distances
    if ref.mu_history:
        moved = np.maximum(np.abs(np.diff(d)), 1e-150 * size)
        gain = np.maximum(1.0, np.abs(ref.mu_history)) * np.maximum(1.0, (size / moved) ** 2)
    else:
        gain = np.full(len(d) - 1, max(1.0, abs(mu or 0.0)))
    gain = np.maximum.accumulate(np.append(1.0, gain))
    tol = (1e-9 + unit * gain) * d + unit * np.cumsum(gain * np.maximum(size, d))
    assume(np.all(np.abs(d - eps) > tol))

    assert not isinstance(got, int), f"engine diverged at step {got}"
    assert got.solved == ref.solved
    assert got.iterations == ref.iterations
    assert len(got.distances) == len(ref.distances)
    assert len(got.mu_history) == len(ref.mu_history)
    assert np.all(np.abs(got.distances - d) <= tol)
    assert np.linalg.norm(got.x_final - ref.x_final) <= (
        (1e-9 + unit * gain[-1]) * np.linalg.norm(ref.x_final) + tol[-1])
    if ref.mu_history:
        assert np.all(np.abs(np.subtract(got.mu_history, ref.mu_history))
                      <= (1e-9 + unit * gain[1:]) * np.abs(ref.mu_history))


FLOAT_LOOP_MAX_K = projrates.methods._FLOAT_LOOP_MAX_K


@st.composite
def float_loop_runs(draw):
    """A BT run on a pair with 1 to ``_FLOAT_LOOP_MAX_K`` nonzero angles.

    Angles as ``runs`` draws them, plus angles below 1e-8, whose sin^4 is
    under the 1e-28 of the small-direction rule; a start in U skips the
    first step's projection; a large U ∩ V part raises the rule's floor so
    that the rule fires once BT has shrunk the rest.  max_iter 0 and 1
    stop before and at the first step; eps 0 runs to max_iter.
    """
    k = draw(st.integers(1, FLOAT_LOOP_MAX_K))
    s = draw(st.integers(0, 2))
    nonzero = st.one_of(angle.filter(lambda t: t > 0.0), st.floats(-12.0, -8.0).map(lambda e: 10.0**e))
    pool = draw(st.lists(nonzero, min_size=1, max_size=k))
    angles = [0.0] * s + sorted(draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k)))
    p = s + k
    q = p + draw(st.integers(0, 2))
    n = p + q + draw(st.integers(0, 2))
    geom = pair_geometry(*canonical_pair(n, angles, q, seed=draw(st.integers(0, 2**32 - 1))))
    assume(geom.theta_F is not None)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x0 = rng.standard_normal(n) * draw(st.floats(0.5, 10.0))
    if draw(st.booleans()):
        x0 = geom.P_U @ x0
    f = geom.frame
    if f.s and draw(st.booleans()):
        x0 = x0 + f.u[:, : f.s] @ rng.standard_normal(f.s) * 10.0 ** draw(st.floats(3.0, 9.0))
    eps = 10.0 ** draw(st.floats(-12.0, 0.0)) if draw(st.integers(0, 3)) else 0.0
    return geom, x0, eps, draw(st.integers(0, 400))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(float_loop_runs())
def test_bt_float_loop_matches_array_oracle_bit_for_bit(case):
    """Distances, mus, the final point and the count equal those of
    ``oracles.bt_moment_loop``, whose moments are numpy sums in the same
    index order."""
    geom, x0, eps, max_iter = case
    got = iterate(MethodSpec("BT"), geom, x0, eps=eps, max_iter=max_iter)
    ref = oracles.bt_moment_loop(geom, x0, eps=eps, max_iter=max_iter)
    assert got.solved == ref.solved
    assert got.iterations == ref.iterations
    assert got.distances.tobytes() == ref.distances.tobytes()
    assert got.mu_history == ref.mu_history
    assert got.x_final.tobytes() == ref.x_final.tobytes()


@pytest.mark.parametrize("k", [FLOAT_LOOP_MAX_K, FLOAT_LOOP_MAX_K + 1])
def test_bt_counts_match_dense_oracle_at_the_float_loop_cutoff(k, monkeypatch):
    """On either side of the cutoff, BT takes the dense loop's steps: the
    float loop at K = cutoff, the array loop one plane above."""
    loops = []
    for name in ("_bt_float_loop", "_bt_array_loop"):
        loop = getattr(projrates.methods, name)
        monkeypatch.setattr(projrates.methods, name,
                            lambda *args, name=name, loop=loop: loops.append(name) or loop(*args))
    geom = pair_geometry(*canonical_pair(60, np.linspace(0.05, 1.4, k), k + 2, seed=k))
    x0 = np.random.default_rng(k).standard_normal(60) * 10.0
    got = iterate(MethodSpec("BT"), geom, x0, eps=1e-6)
    ref = oracles.dense_iterate(MethodSpec("BT"), oracles.extended_geometry(geom), x0, eps=1e-6)
    assert loops == ["_bt_float_loop" if k <= FLOAT_LOOP_MAX_K else "_bt_array_loop"]
    assert got.solved and ref.solved
    assert got.iterations == ref.iterations


@pytest.mark.parametrize("kind", KINDS)
def test_engine_builds_no_operator(kind, monkeypatch):
    def refuse(*args):
        raise AssertionError("iterate built a dense iteration matrix")

    monkeypatch.setattr(projrates.methods, "build_operator", refuse)
    geom = pair_geometry(*canonical_pair(12, [0.0, 0.4, 0.9], q=4, seed=5))
    spec = MethodSpec(kind, best=True) if kind in ("T", "S", "R") else MethodSpec(kind)
    trace = iterate(spec, geom, np.random.default_rng(1).standard_normal(12), eps=1e-6)
    assert trace.solved


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_start_rejected(bad):
    geom = pair_geometry(*canonical_pair(6, [0.0, 0.5], seed=1))
    x0 = np.ones(6)
    x0[4] = bad
    with pytest.raises(ValueError, match=f"non-finite entry {bad} at index 4"):
        iterate(MethodSpec("MAP"), geom, x0)


def test_distance_is_to_the_constructed_intersection_next_to_tiny_angle():
    """The engine measures distances to range(P_M), and that is the
    constructed U ∩ V to the pair's own conditioning, EPS / theta_F; the
    SVD of Q_U^T Q_V alone tilted it by 3.5e-3 toward the plane of 1.07e-6."""
    geom = pair_geometry(*canonical_pair(12, [0.0, 0.0, 0.0, 0.0, 1.07e-6], q=5, seed=3))
    f_s = haar_orthogonal(12, np.random.default_rng(3))[:, :4]
    x0 = np.random.default_rng(8).standard_normal(12)
    expected = np.linalg.norm(x0 - f_s @ (f_s.T @ x0))
    for kind in ("MAP", "BT", "AT"):
        d0 = iterate(MethodSpec(kind), geom, x0, eps=0.0, max_iter=1).distances[0]
        assert math.isclose(d0, np.linalg.norm(x0 - geom.P_M @ x0), rel_tol=1e-14), kind
        assert abs(d0 - expected) <= 100 * EPS / geom.theta_F * np.linalg.norm(x0), kind


@pytest.mark.parametrize("angles", [
    [2e-6, 2e-6, 5e-6, 0.3, math.pi / 2],  # repeated tiny angles and pi/2
    [0.0, 0.0, 0.3, 0.3, 1.2],  # an intersection and a repeated angle
    [0.0, 2e-6, 0.3, 1.2],  # re-paired planes next to formula-built ones
])
def test_frame_is_orthonormal_and_block_diagonal(angles):
    geom = pair_geometry(*canonical_pair(16, angles, q=7, seed=3))
    f = geom.frame
    assert f.w.shape[1] == f.cos.size == geom.p - geom.s
    basis = np.hstack([f.u, f.w, f.e])
    assert np.abs(basis.T @ basis - np.eye(basis.shape[1])).max() <= 1e-14
    assert np.abs(f.u @ f.u.T - geom.P_U).max() <= 1e-14
    v = f.u[:, f.s:] * f.cos + f.w * f.sin
    p_v = f.u[:, : f.s] @ f.u[:, : f.s].T + v @ v.T + f.e @ f.e.T
    assert np.abs(p_v - geom.P_V).max() <= 1e-14
    x = np.random.default_rng(0).standard_normal(16)
    np.testing.assert_allclose(f.join(*f.split(x)), x, rtol=0, atol=1e-14)


@pytest.mark.parametrize("eps", [1e-3, 1e3])
@pytest.mark.parametrize("kind", KINDS)
def test_zero_steps_record_only_the_start(kind, eps):
    geom = pair_geometry(*canonical_pair(12, [0.0, 0.4, 0.9], q=4, seed=5))
    spec = MethodSpec(kind, best=True) if kind in ("T", "S", "R") else MethodSpec(kind)
    trace = iterate(spec, geom, np.random.default_rng(2).standard_normal(12), eps=eps, max_iter=0)
    assert len(trace.distances) == 1
    assert trace.solved == (trace.distances[0] <= eps)
    assert trace.iterations == (0 if trace.solved else None)


@pytest.mark.parametrize("stop", [projrates.methods._FIRST_CHUNK, projrates.methods._FIRST_CHUNK + 1])
def test_linear_run_stopping_at_a_chunk_edge_matches_dense_oracle(stop):
    """A MAP run that stops on the last step of the first chunk, or on the
    first step of the second, takes the dense loop's steps."""
    geom = pair_geometry(*canonical_pair(12, [0.0, 0.2, 0.9], q=4, seed=5))
    x0 = np.random.default_rng(3).standard_normal(12)
    d = iterate(MethodSpec("MAP"), geom, x0, eps=0.0, max_iter=stop + 1).distances
    eps = math.sqrt(d[stop - 1] * d[stop])  # strictly between the two distances
    got = iterate(MethodSpec("MAP"), geom, x0, eps=eps)
    ref = oracles.dense_iterate(MethodSpec("MAP"), oracles.extended_geometry(geom), x0, eps=eps)
    assert got.iterations == ref.iterations == stop
    np.testing.assert_allclose(got.distances, ref.distances, rtol=1e-12)
    np.testing.assert_allclose(got.x_final, ref.x_final, rtol=0, atol=1e-12 * np.linalg.norm(x0))
