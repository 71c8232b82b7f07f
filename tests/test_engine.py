"""The principal-coordinate engine behind ``iterate`` against the dense
projector loop ``oracles.dense_iterate``."""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracles
import projrates.methods
from projrates.bench import DESK_METHODS, CategoryGrid, _derive_seed, sample_pair, start_vector
from projrates.methods import SHADOW_KINDS, DivergenceError, MethodSpec, iterate, parse_method, predict_rate
from projrates.subspaces import EPS, canonical_pair, haar_orthogonal, pair_geometry

KINDS = ("T", "S", "R", "MAP", "DR", "BT", "AT")

NONZERO_ANGLES = (
    st.just(math.pi / 2),
    st.floats(-6.0, -3.0).map(lambda e: 10.0**e),
    st.floats(0.01, 1.5),
)
angle = st.one_of(st.just(0.0), *NONZERO_ANGLES)


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
    """A BT run on a pair with 1 to ``_FLOAT_LOOP_MAX_K`` nonzero angles:
    K is drawn from 1-16 in three examples of four and from 17 up in the
    fourth, so that both bands are covered and the larger pairs, which
    cost about twice as much to build and run, keep the test's time.

    Angles as ``runs`` draws them, plus angles below 1e-8, whose sin^4 is
    under the 1e-28 of the small-direction rule; a start in U skips the
    first step's projection; a large U ∩ V part raises the rule's floor so
    that the rule fires once BT has shrunk the rest.  max_iter 0 and 1
    stop before and at the first step; eps 0 runs to max_iter.
    """
    k = draw(st.integers(1, 16) if draw(st.integers(0, 3)) else st.integers(17, FLOAT_LOOP_MAX_K))
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
    """On either side of the cutoff, BT takes the dense loop's steps: in
    the float loop at K = cutoff, in the line-search loop one plane above."""
    loops = []
    loop = projrates.methods._bt_float_loop
    monkeypatch.setattr(projrates.methods, "_bt_float_loop", lambda *args: loops.append(k) or loop(*args))
    n = 2 * k + 4
    geom = pair_geometry(*canonical_pair(n, np.linspace(0.05, 1.4, k), k + 2, seed=k))
    x0 = np.random.default_rng(k).standard_normal(n) * 10.0
    got = iterate(MethodSpec("BT"), geom, x0, eps=1e-6)
    ref = oracles.dense_iterate(MethodSpec("BT"), oracles.extended_geometry(geom), x0, eps=1e-6)
    assert loops == ([k] if k <= FLOAT_LOOP_MAX_K else [])
    assert got.solved and ref.solved
    assert got.iterations == ref.iterations


@pytest.mark.parametrize("angles, q, n", [([0.0], 1, 3), ([0.0, 0.0], 4, 9), ([0.0, 0.0, 0.0], 3, 6)])
def test_bt_on_a_nested_pair_matches_dense_oracle(angles, q, n, monkeypatch):
    """U inside V: no nonzero angle, so BT's first step lands in U ∩ V and
    the moment loop gets K = 0 planes."""
    planes = []
    kernel = projrates.methods._bt_kernel
    monkeypatch.setattr(projrates.methods, "_bt_kernel", lambda k: planes.append(k) or kernel(k))
    geom = pair_geometry(*canonical_pair(n, angles, q, seed=4))
    assert geom.theta_F is None
    x0 = np.random.default_rng(n).standard_normal(n) * 3.0
    got = iterate(MethodSpec("BT"), geom, x0, eps=1e-6)
    ref = oracles.dense_iterate(MethodSpec("BT"), oracles.extended_geometry(geom), x0, eps=1e-6)
    assert planes == [0]
    assert got.solved and ref.solved
    assert got.iterations == ref.iterations == 1
    assert got.mu_history == ref.mu_history
    np.testing.assert_allclose(got.distances, ref.distances, rtol=1e-14, atol=1e-14 * np.linalg.norm(x0))


SEGMENT = projrates.methods._SEGMENT


@pytest.mark.parametrize("cell", [(0, 3), (0, 4)])
def test_bt_float_loop_drops_zero_planes_bit_for_bit(cell, monkeypatch):
    """Desk pairs W1Z4/0 (K = 5) and W1Z5/0 (K = 6) of seed 2025 from their
    first start: interior planes underflow to 0.0 within three segments and
    leave the kernel.  The trace equals the oracle's, and the float loop
    returns the same coordinates, signed zeros included, as one kernel call
    over every plane with no drop."""
    grid = CategoryGrid()
    i, j = cell
    geom = sample_pair(grid, cell, _derive_seed(2025, i, j, 0))
    x0 = start_vector(grid.ambient_dim, _derive_seed(2025, i, j, 0, 1000), norm=grid.start_norm)
    planes, loops = [], []
    kernel, loop = projrates.methods._bt_kernel, projrates.methods._bt_float_loop

    def spy(a, sn, c, fixed, orbit, mus):
        loops.append((a.copy(), sn, c, fixed, orbit.left(), orbit.eps, orbit.blowup))
        loops.append(loop(a, sn, c, fixed, orbit, mus))
        return loops[-1]

    monkeypatch.setattr(projrates.methods, "_bt_kernel", lambda k: planes.append(k) or kernel(k))
    monkeypatch.setattr(projrates.methods, "_bt_float_loop", spy)
    got = iterate(MethodSpec("BT"), geom, x0, eps=0.0, max_iter=3 * SEGMENT)
    ref = oracles.bt_moment_loop(geom, x0, eps=0.0, max_iter=3 * SEGMENT)
    assert min(planes) < planes[0]  # a plane dropped
    assert got.iterations is ref.iterations is None
    assert got.distances.tobytes() == ref.distances.tobytes()
    assert got.mu_history == ref.mu_history
    assert got.x_final.tobytes() == ref.x_final.tobytes()

    (a0, sn, c, fixed, steps, eps, blowup), a_end = loops
    t = sn * sn
    whole = np.array(kernel(a0.size)(a0.tolist(), t.tolist(), (t * t).tolist(), (c * c).tolist(), fixed,
                                     steps, projrates.methods._square_bound(eps),
                                     projrates.methods._square_bound(blowup))[0])
    assert np.any(whole == 0.0)
    assert whole.tobytes() == a_end.tobytes()
    assert np.array_equal(np.signbit(whole), np.signbit(a_end))


def _float_loop_against_one_kernel_call(a, t, fixed, eps, max_iter, segment):
    """Run ``_bt_float_loop`` from a with segments of ``segment`` steps, and
    the same steps as one kernel call over every plane; assert that both
    record the same mus and distances and end at the same bytes.  Returns
    the plane counts the float loop asked of the kernel."""
    sn, c = np.sqrt(t), np.sqrt(1.0 - t)
    orbit = projrates.methods._Orbit("BT", math.sqrt(float(a @ a)), eps, max_iter)
    mus, planes = [], []
    kernel = projrates.methods._bt_kernel
    first = min(segment, projrates.methods._FIRST_SEGMENT)
    with mock.patch.object(projrates.methods, "_SEGMENT", segment), \
            mock.patch.object(projrates.methods, "_FIRST_SEGMENT", first), \
            mock.patch.object(projrates.methods, "_bt_kernel", lambda k: planes.append(k) or kernel(k)):
        end = projrates.methods._bt_float_loop(a.copy(), sn, c, fixed, orbit, mus)
    square_bound = projrates.methods._square_bound
    t, cc = sn * sn, c * c
    whole, whole_mus, m0s, _ = kernel(a.size)(a.tolist(), t.tolist(), (t * t).tolist(), cc.tolist(), fixed,
                                              orbit.max_iter, square_bound(eps), square_bound(orbit.blowup))
    assert mus == whole_mus
    assert orbit.distances[1:].tobytes() == np.sqrt(m0s).tobytes()
    assert end.tobytes() == np.array(whole).tobytes()
    assert np.array_equal(np.signbit(end), np.signbit(whole))
    return planes


def _rolled_back(planes):
    """A plane re-enters the kernel only when a segment is run again."""
    return any(b > a for a, b in zip(planes, planes[1:]))


#: plane coordinates: ordinary, ±0.0, subnormal, and normal with a square of 0.0
plane_values = st.one_of(st.floats(-10.0, 10.0),
                         st.sampled_from([0.0, -0.0, 5e-324, -2.5e-323, 1e-310, 1e-170, -1e-170, 1e-300]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(plane_values, st.floats(1e-3, 1.0)), min_size=1, max_size=8),
       st.sampled_from([0.0, 1.0, 1e24]), st.sampled_from([0.0, 1e-6]), st.integers(0, 80),
       st.sampled_from([1, 2, 3, 1024]))
def test_bt_float_loop_replays_inert_planes_bit_for_bit(planes, fixed, eps, max_iter, segment):
    """Planes whose square is 0.0 leave the kernel between segments, are
    replayed over each segment and come back if they grow: the result is
    one kernel call over every plane, bit for bit.  A large U ∩ V part
    (fixed) makes the steps take the small-direction branch."""
    a, t = (np.array(column) for column in zip(*planes))
    assume(float(a @ a) > eps * eps)
    _float_loop_against_one_kernel_call(a, t, fixed, eps, max_iter, segment)


@pytest.mark.parametrize("segment", [1, 2, 3, 1024])
@pytest.mark.parametrize("a, t, steps, regrows", [
    # 1e-170 between t = 0.001 and 0.99 grows by hundreds per step once BT zigzags
    ((1.0, 1e-170, 1.0), (0.001, 0.5, 0.99), 60, True),
    # the one step has mu = 2.25 / 1.125 = 2 and scales the least subnormal by
    # 0.5 exactly: a tie, which rounds it to 0.0
    ((1.0, 1.0, 4.0, 5e-324), (1.0, 0.25, 0.0625, 0.25), 1, False),
])
def test_bt_float_loop_reruns_a_segment_where_a_plane_grows(a, t, steps, regrows, segment):
    """A segment that replayed a plane as inert is run again with it live
    once its square turns nonzero; a replayed factor that rounds a
    subnormal at a tie rounds it as the kernel does."""
    a = np.array(a)
    planes = _float_loop_against_one_kernel_call(a, np.array(t), 0.0, 0.0, steps, segment)
    assert planes[0] == np.count_nonzero(a * a)
    assert _rolled_back(planes) == regrows


def test_bt_float_loop_drops_subnormal_planes(monkeypatch):
    """Desk pair W1Z4/0 of seed 2025 from start 2 (K = 5): planes 1-3 reach
    subnormals whose square is 0.0 and leave the kernel, though not all of
    them reach 0.0.  The trace equals the oracle's."""
    grid = CategoryGrid()
    geom = sample_pair(grid, (0, 3), _derive_seed(2025, 0, 3, 0))
    x0 = start_vector(grid.ambient_dim, _derive_seed(2025, 0, 3, 0, 1002), norm=grid.start_norm)
    planes, ends = [], []
    kernel, loop = projrates.methods._bt_kernel, projrates.methods._bt_float_loop
    monkeypatch.setattr(projrates.methods, "_bt_kernel", lambda k: planes.append(k) or kernel(k))
    monkeypatch.setattr(projrates.methods, "_bt_float_loop", lambda *args: ends.append(loop(*args)) or ends[-1])
    got = iterate(MethodSpec("BT"), geom, x0, eps=grid.eps, max_iter=9 * SEGMENT)
    ref = oracles.bt_moment_loop(geom, x0, eps=grid.eps, max_iter=9 * SEGMENT)
    assert planes[0] == 5 and planes[-1] == 2
    assert not _rolled_back(planes)
    inert = ends[0][1:4]
    assert np.all(inert * inert == 0.0) and np.any(inert != 0.0)
    assert got.iterations is ref.iterations is None
    assert got.distances.tobytes() == ref.distances.tobytes()
    assert got.mu_history == ref.mu_history
    assert got.x_final.tobytes() == ref.x_final.tobytes()


#: m0 over the whole double range: subnormals, normals, the extremes, inf and NaN
moments = st.one_of(
    st.floats(0.0, 2.3e-308),
    st.floats(min_value=0.0, allow_nan=False),
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, math.inf, math.nan]),
)
#: eps: 0, tiny, 0.01 and at least 1.35e154, whose square overflows; blowup
#: (1e12 max(1, d0)) finite or inf
radii = st.one_of(st.just(0.0), st.floats(5e-324, 1e-150), st.just(0.01), st.floats(1e-3, 1e13),
                  st.floats(1.35e154, 1.7976931348623157e308), st.just(math.inf))


@settings(max_examples=500, deadline=None)
@given(radii, moments, st.booleans(), st.integers(-4, 4))
def test_stop_bounds_on_m0_are_exact(r, m0, near, ulps):
    """BT's kernel stops on m0 <= lo or m0 > hi, lo and hi the
    ``_square_bound`` of eps and blowup: that is the rule d <= eps or
    d > blowup on d = sqrt(m0), for every m0.  m0 is drawn anywhere or
    within a few ulps of r^2."""
    if near:
        m0 = r * r
        for _ in range(abs(ulps)):
            m0 = math.nextafter(m0, math.copysign(math.inf, ulps))
        m0 = abs(m0)
    bound = projrates.methods._square_bound(r)
    assert (m0 <= bound) == (math.sqrt(m0) <= r)
    assert (m0 > bound) == (math.sqrt(m0) > r)


SMALL = projrates.methods._SMALL
#: m0 + fixed over the whole double range: subnormals, normals, the extremes
#: and the values the sum can take when it overflows or meets a NaN
moment_sums = st.one_of(
    st.floats(0.0, 2.3e-308),
    st.floats(min_value=0.0, allow_nan=False),
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, math.inf, math.nan]),
)


@settings(max_examples=500, deadline=None)
@given(moment_sums, st.sampled_from(["bound", "guard", "scaled"]), st.floats(0.5, 2.0),
       st.integers(-4, 4))
def test_small_direction_guard_never_rejects_a_small_direction(v, near, r, ulps):
    """BT's kernel takes the small-direction branch only if
    m2 <= ``_SMALL`` (m0 + fixed) before it tests
    m2 <= (1e-14 sqrt(m0 + fixed))^2; wherever the guard fails, so does the
    test.  m2 is drawn within a few ulps of either bound or near 1e-28 v."""
    bound = (1e-14 * math.sqrt(v)) ** 2
    m2 = {"bound": bound, "guard": SMALL * v, "scaled": 1e-28 * v * r}[near]
    for _ in range(abs(ulps)):
        m2 = math.nextafter(m2, math.copysign(math.inf, ulps))
    if not m2 <= SMALL * v:
        assert not m2 <= bound


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


@pytest.mark.parametrize("label", ["T:best", "S:best", "R:best", "S:1.5", "MAP", "DR", "BT", "AT"])
def test_start_below_the_bound_counts_as_at_norm_1(label):
    """A start just below X0_BOUND keeps its orbit finite: with eps scaled
    alike, every method takes the steps it takes from the unit start."""
    geom = pair_geometry(*canonical_pair(20, [0.0, 0.05, 0.3, 0.9], q=6, seed=1))
    x0 = start_vector(20, 1, norm=1.0)
    spec = parse_method(label)
    unit = iterate(spec, geom, x0, eps=0.01)
    big = iterate(spec, geom, 1e149 * x0, eps=1e147)
    assert unit.solved and big.iterations == unit.iterations
    assert np.isfinite(big.distances).all()


def test_start_at_or_above_the_bound_rejected():
    geom = pair_geometry(*canonical_pair(6, [0.0, 0.5], seed=1))
    for big in (1e150, -1e151):
        x0 = np.ones(6)
        x0[4] = big
        message = f"an entry {big} at index 4; entries must be finite and below 1e+150"
        with pytest.raises(ValueError, match=re.escape(message)):
            iterate(MethodSpec("BT"), geom, x0)


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


@st.composite
def shared_start_runs(draw):
    """A pair (nested, with s = 0, or with K up to 20 nonzero angles, tiny
    ones included), a start, eps and max_iter (0 and 1 among them), and the
    seven methods in a drawn order, T/S/R with a numeric mu."""
    s = draw(st.integers(0, 3))
    k = draw(st.integers(0 if s else 1, 20))
    angles = [0.0] * s + sorted(draw(st.lists(st.one_of(*NONZERO_ANGLES), min_size=k, max_size=k)))
    q = s + k + draw(st.integers(0, 2))
    n = s + k + q + draw(st.integers(0, 2))
    seed = draw(st.integers(0, 2**32 - 1))
    specs = [MethodSpec(kind, mu=draw(st.floats(0.0, 2.0))) if kind in ("T", "S", "R")
             else MethodSpec(kind) for kind in draw(st.permutations(KINDS))]
    x0 = np.random.default_rng(seed).standard_normal(n) * draw(st.floats(0.5, 10.0))
    eps = draw(st.sampled_from([0.0, 1e-6, 1e-2, 1.0]))
    max_iter = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 200)))
    return (n, angles, q, seed), specs, x0, eps, max_iter


def _run_bytes(spec, geom, x0, eps, max_iter):
    """What a run answers, as bytes: distances, mus, count, outcome and
    x_final, or the step at which it diverged."""
    try:
        trace = iterate(spec, geom, x0, eps=eps, max_iter=max_iter)
    except DivergenceError as exc:
        return exc.step
    return (trace.distances.tobytes(), np.array(trace.mu_history, dtype=float).tobytes(),
            trace.iterations, trace.solved, trace.x_final.tobytes())


@settings(max_examples=100, deadline=None)
@given(shared_start_runs(), st.data())
def test_a_shared_start_changes_no_byte(case, data):
    """Every method run from a start its frame has split before (a warm
    frame) answers byte for byte as on a fresh frame (a cold one), and so
    does a start the caller changed in place between two runs.  The split
    parts a frame keeps are read-only."""
    pair, specs, x0, eps, max_iter = case

    def cold(spec, x):
        return _run_bytes(spec, pair_geometry(*canonical_pair(*pair)), x.copy(), eps, max_iter)

    reference = [cold(spec, x0) for spec in specs]
    geom = pair_geometry(*canonical_pair(*pair))
    assert [_run_bytes(spec, geom, x0, eps, max_iter) for spec in specs] == reference
    # traces whose x_final is first read after the frame moved on to another start
    traces = {i: iterate(spec, geom, x0, eps=eps, max_iter=max_iter)
              for i, spec in enumerate(specs) if not isinstance(reference[i], int)}
    changed = x0  # the same array, changed in place: the frame's slot must miss
    changed[data.draw(st.integers(0, x0.size - 1))] += data.draw(st.sampled_from([-1.0, 1e-12, 3.0]))
    for spec in specs:
        assert _run_bytes(spec, geom, changed, eps, max_iter) == cold(spec, changed)
    assert {i: t.x_final.tobytes() for i, t in traces.items()} == {i: reference[i][-1] for i in traces}
    memo = geom.frame.start(changed)
    for part in (*memo["parts"], *(v for v in memo.values() if isinstance(v, np.ndarray))):
        with pytest.raises(ValueError, match="read-only"):
            part[...] = 0.0


FIRST_CHUNK = projrates.methods._FIRST_CHUNK
CHUNK_ELEMENTS = projrates.methods._CHUNK_ELEMENTS


@pytest.mark.parametrize("first_chunk", [40, 39])
def test_linear_run_stopping_at_a_chunk_edge_matches_dense_oracle(first_chunk):
    """A MAP run that stops at step 40, on the last step of its planned
    first chunk (40 steps), or on the first step of the second (39), takes
    the dense loop's steps.  The start lies in V, in the plane of theta_F:
    d_n = cos(theta_F)^(2n - 1) d_0, so that the plan at rate
    gamma = cos^2(theta_F) falls half a step short, and an eps in the lower
    half of (d_39, d_40) plans 39 steps, in the upper half 40."""
    stop = 40
    geom = pair_geometry(*canonical_pair(12, [0.0, 0.2, 0.9], q=4, seed=5))
    f = geom.frame
    along_u, along_w = np.zeros(f.u.shape[1]), np.zeros(f.w.shape[1])
    along_u[f.s], along_w[0] = f.cos[0], f.sin[0]
    x0 = f.join(along_u, along_w, np.zeros(f.e.shape[1]), 0.0)
    spec = MethodSpec("MAP")
    d = iterate(spec, geom, x0, eps=0.0, max_iter=stop + 1).distances
    gamma = predict_rate(spec, geom).gamma
    for t in np.linspace(0.0, 1.0, 21)[1:-1]:
        eps = d[stop - 1] ** (1.0 - t) * d[stop] ** t  # strictly between the two distances
        if projrates.methods._chunk_steps(gamma, d[0], eps, 0, CHUNK_ELEMENTS) == first_chunk:
            break
    else:
        pytest.fail(f"no eps in (d_{stop - 1}, d_{stop}) plans a first chunk of {first_chunk}")
    got = iterate(spec, geom, x0, eps=eps)
    ref = oracles.dense_iterate(spec, oracles.extended_geometry(geom), x0, eps=eps)
    assert got.iterations == ref.iterations == stop
    np.testing.assert_allclose(got.distances, ref.distances, rtol=1e-12)
    np.testing.assert_allclose(got.x_final, ref.x_final, rtol=0, atol=1e-12 * np.linalg.norm(x0))


def _sixteen_then_double(gamma, d, eps, previous, most):
    """The chunk sizes of a linear run without a plan."""
    return min(2 * previous, most) if previous else FIRST_CHUNK


@st.composite
def planned_runs(draw):
    """A linear run whose chunk plan may be missing, far too long or too
    short.

    Two runs in three have a plan, and most of those stop.  The others: a
    nested pair (every angle 0); mu = 0 (gamma 0), at the edge of the
    convergence interval (gamma 1) or beyond it (gamma above 1); eps = 0;
    max_iter below the first planned chunk.  On a pair with a small
    theta_F, a start in the plane of theta_p alone converges at that
    plane's rate, far faster than gamma: DR's plan then overshoots by 50
    times and more.  T:best's plan falls short where its non-normal 2x2
    blocks delay the decay, up to 1.34 times on the seed-7 desk table.
    """
    shape = draw(st.sampled_from(("random", "random", "spread", "spread", "nested")))
    s, k = draw(st.integers(0, 2)), draw(st.integers(1, 3) if shape == "random" else st.integers(2, 3))
    if shape == "nested":
        angles = [0.0] * (s + k)
    else:
        planes = draw(st.lists(st.floats(0.02, math.pi / 2), min_size=k, max_size=k))
        if shape == "spread":  # a small theta_F and a large theta_p
            planes[0], planes[-1] = draw(st.floats(1e-3, 0.1)), draw(st.floats(1.0, math.pi / 2))
        angles = [0.0] * s + sorted(planes)
    p = s + k
    q = p + draw(st.integers(0, 2))
    n = p + q + draw(st.integers(0, 2))
    geom = pair_geometry(*canonical_pair(n, angles, q, seed=draw(st.integers(0, 2**32 - 1))))
    nested = shape == "nested"
    kind = draw(st.sampled_from(("T", "S", "R", "MAP", "DR")))
    if kind in ("T", "S", "R"):
        edge = 2.0 / math.sin(geom.theta_p) ** 2 if kind == "S" and not nested else 2.0
        where = draw(st.sampled_from((() if nested else ("best", "best")) + ("inside", "inside", "edge", "beyond", "zero")))
        if where == "best":
            spec = MethodSpec(kind, best=True)
        else:
            factor = {"zero": 0.0, "edge": 1.0,
                      "inside": draw(st.floats(0.2, 0.99)),
                      "beyond": draw(st.floats(1.01, 1.5))}[where]
            spec = MethodSpec(kind, mu=edge * factor)
    else:
        spec = MethodSpec(kind)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = geom.frame
    if not nested and draw(st.booleans()):  # in the plane of theta_p alone
        along_u, along_w = np.zeros(p), np.zeros(k)
        along_u[-1], along_w[-1] = rng.standard_normal(2)
        x0 = f.join(along_u, along_w, np.zeros(q - p), 0.0)
    else:
        x0 = rng.standard_normal(n)
    x0 = x0 * draw(st.floats(0.5, 10.0))
    eps = draw(st.sampled_from((1.0, 1.0, 1.0, 0.0))) * 10.0 ** draw(st.floats(-12.0, 0.0))
    few = draw(st.sampled_from((False, False, False, True)))
    max_iter = draw(st.integers(0, 2 * FIRST_CHUNK) if few else st.just(20000))
    return spec, geom, x0, eps, max_iter


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(planned_runs(), st.one_of(st.none(), st.integers(64, 1024)))
def test_a_chunk_plan_never_changes_an_answer(case, cap):
    """The run with planned chunks and the run with chunks of 16 that double
    have the same outcome, count, divergence step and length, and
    distances within a relative 1e-12: the plan moves only where chunks
    begin, and so how the steps' products are grouped.  Half the runs take
    a chunk cap (``_CHUNK_ELEMENTS``) of 64-1024 block-steps, so that long
    runs cross many capped chunks.

    R and DR monitor a shadow, which can cancel to far below the norm of
    the state it is read from.  Their blocks are scaled rotations, so that
    norm is at most gamma^n |x0| at step n; on a pair with a nonzero angle
    their distances may also differ by 1e-12 of that."""
    spec, geom, x0, eps, max_iter = case
    with mock.patch.object(projrates.methods, "_CHUNK_ELEMENTS", cap or CHUNK_ELEMENTS):
        got = _outcome(iterate, spec, geom, x0, eps, max_iter)
        with mock.patch.object(projrates.methods, "_chunk_steps", _sixteen_then_double):
            ref = _outcome(iterate, spec, geom, x0, eps, max_iter)
    if isinstance(ref, int):
        assert got == ref
        return
    assert not isinstance(got, int), f"the planned run diverged at step {got}"
    assert got.solved == ref.solved
    assert got.iterations == ref.iterations
    assert len(got.distances) == len(ref.distances)
    tol = 1e-12 * ref.distances
    if spec.kind in SHADOW_KINDS and geom.theta_F is not None:
        gamma = predict_rate(spec, geom).gamma
        tol += 1e-12 * gamma ** np.arange(len(tol)) * np.linalg.norm(x0)
    assert np.all(np.abs(got.distances - ref.distances) <= tol)


@pytest.mark.parametrize("mu", [1e308, -1e308])
def test_r_at_the_float_limit_diverges_at_step_1(mu):
    """R's block entries at |mu| = 1e308 are finite, but their products with
    the start overflow and cancel to NaN at step 1: a NaN distance is a
    divergence, not a run to max_iter."""
    geom = pair_geometry(*canonical_pair(8, [0.0, 0.3, 0.9], q=4, seed=1))
    with pytest.raises(DivergenceError) as err:
        iterate(MethodSpec("R", mu=mu), geom, start_vector(8, 0))
    assert err.value.step == 1


@pytest.mark.parametrize("method", ["R:1e308", "R:-1e308", "T:1e308", "S:1e308"])
def test_the_dense_loop_stops_at_a_nan_distance_as_the_engine_does(method):
    """At |mu| = 1e308 the first step overflows and cancels to a NaN
    distance; the engine and the dense loop both diverge at that step."""
    geom = pair_geometry(*canonical_pair(8, [0.0, 0.3, 0.9], q=4, seed=1))
    spec, x0 = parse_method(method), start_vector(8, 0)
    with pytest.raises(DivergenceError) as err:
        iterate(spec, geom, x0, max_iter=2000)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as ref:
        oracles.dense_iterate(spec, geom, x0, max_iter=2000)
    assert err.value.step == ref.value.step == 1


def test_a_plane_turned_nan_by_an_overflowing_power_diverges():
    """S beyond its interval, from a start with exact zeros in the plane of
    theta_p, where r = 1 - mu sin^2(theta_p) is -4.  The (0, 1) entry of
    B^h, r^(h-1) mu c s with mu c s = 8.9, overflows a squaring before r^h
    does, and inf * 0.0 turns the plane NaN at step 1008 while the other
    planes are still far below the blow-up bound.  The run diverges there.
    ``frame.join`` leaves ~1e-17 in that plane, so the start is given to
    ``_linear_orbit`` in principal coordinates."""
    geom = pair_geometry(*canonical_pair(8, [1e-3, 0.01, 0.512], q=3, seed=96))
    along_u, along_w, in_extra, rest = (
        np.array(part) for part in geom.frame.split(np.random.default_rng(96).standard_normal(8)))
    along_u[-1] = along_w[-1] = 0.0
    spec = MethodSpec("S", mu=20.814643367591604)
    start = {"parts": (along_u, along_w, in_extra, rest)}
    with pytest.raises(DivergenceError) as err:
        projrates.methods._linear_orbit(
            spec, spec.mu, predict_rate(spec, geom).gamma, geom.frame, start, 0.0, 20000)
    assert err.value.step == 1008


# ---------------------------------------------------------------------------
# the whole-table check script, on one pair


def _check_one_pair(capsys) -> tuple:
    """``check_tables.check`` on one W1 pair at n = 10 and one start, whose
    linear runs span several chunks at the small cap; returns its count of
    runs that differ and what it printed."""
    import check_tables

    grid = CategoryGrid(primary_bins=((0.0, 0.05),), secondary_bins=1, ambient_dim=10,
                        pairs_per_cell=1, starts_per_pair=1, max_iter=5000)
    bad = check_tables.check(grid, DESK_METHODS, 2)
    return bad, capsys.readouterr().out


def test_check_tables_finds_no_mismatch_on_one_pair(capsys):
    bad, out = _check_one_pair(capsys)
    assert bad == 0
    assert "1 of 1 desk BT runs equal oracles.bt_moment_loop byte for byte" in out
    assert "3 of 3 desk S:best, T:best, MAP, DR runs of more than one chunk" in out
    assert "4 of 4 desk S:best, T:best, MAP, DR runs give oracles.dense_iterate's count" in out


def test_check_tables_reports_a_broken_bt_step(monkeypatch, capsys):
    loop = projrates.methods._bt_float_loop

    def broken(a, sn, c, fixed, orbit, mus):
        a = loop(a, sn, c, fixed, orbit, mus)
        mus[-1] = math.nextafter(mus[-1], math.inf)  # the last step's mu, one ulp off
        return a

    monkeypatch.setattr(projrates.methods, "_bt_float_loop", broken)
    bad, out = _check_one_pair(capsys)
    assert bad == 1
    assert "BT differs from the oracle" in out


def test_check_tables_reports_a_broken_linear_chunk(monkeypatch, capsys):
    extend = projrates.methods._Orbit.extend

    def early(self, d):
        """Read the state one column early after a chunk that ran whole."""
        taken = extend(self, d)
        return taken - 1 if taken == d.size else taken

    monkeypatch.setattr(projrates.methods._Orbit, "extend", early)
    bad, out = _check_one_pair(capsys)
    assert bad >= 1
    assert "differs between chunk caps" in out
