import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import complement, distance_to_span, projector_via_normal_equations, scipy_angles
from projrates.methods import iterate, parse_method
from projrates.subspaces import (
    EPS,
    Subspace,
    canonical_pair,
    geometry_from_dict,
    geometry_to_dict,
    haar_orthogonal,
    pair_geometry,
    projector,
    subspace_from_spanning,
)


def random_subspace(n, dim, rng):
    return subspace_from_spanning(rng.standard_normal((n, dim)))


def assert_angles_match_oracle(mine, u, v):
    """scipy floors exact-zero angles at ~sqrt(eps), hence the split tolerance."""
    ref = scipy_angles(u.basis, v.basis)
    np.testing.assert_allclose(mine, ref, atol=1e-7)
    clear = ref > 1e-4
    np.testing.assert_allclose(mine[clear], ref[clear], atol=1e-9)


# ---------------------------------------------------------------------------
# bases and projectors


def test_subspace_rejects_non_orthonormal():
    with pytest.raises(ValueError, match="not orthonormal"):
        Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_subspace_from_spanning_drops_dependent_columns():
    m = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
    s = subspace_from_spanning(m)
    assert s.dim == 1
    assert s.ambient_dim == 3


def test_zero_subspace_allowed():
    s = subspace_from_spanning(np.zeros((4, 2)))
    assert s.dim == 0
    np.testing.assert_array_equal(projector(s), np.zeros((4, 4)))


def test_projector_matches_normal_equations():
    rng = np.random.default_rng(1)
    for _ in range(10):
        m = rng.standard_normal((7, 3))
        p = projector(subspace_from_spanning(m))
        np.testing.assert_allclose(p, projector_via_normal_equations(m), atol=1e-12)


def test_complement_projectors_sum_to_identity():
    rng = np.random.default_rng(2)
    s = random_subspace(6, 2, rng)
    np.testing.assert_allclose(
        projector(s) + projector(complement(s)), np.eye(6), atol=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 9), st.data())
def test_projector_is_orthogonal_projection(seed, n, data):
    dim = data.draw(st.integers(1, n - 1))
    rng = np.random.default_rng(seed)
    s = random_subspace(n, dim, rng)
    p = projector(s)
    np.testing.assert_allclose(p @ p, p, atol=1e-12)
    np.testing.assert_allclose(p, p.T, atol=1e-12)
    assert np.linalg.matrix_rank(p) == s.dim


# ---------------------------------------------------------------------------
# principal angles


def test_angles_of_known_plane_pair():
    # span{e1, e2} against span{e1, cos(t) e2 + sin(t) e3}
    t = 0.3
    u = Subspace(np.eye(4)[:, :2])
    v = Subspace(np.column_stack([np.eye(4)[:, 0],
                                  [0, math.cos(t), math.sin(t), 0]]))
    angles = pair_geometry(u, v).angles
    np.testing.assert_allclose(angles, [0.0, t], atol=1e-12)


def test_angles_match_scipy_on_random_pairs():
    rng = np.random.default_rng(3)
    for _ in range(15):
        n = int(rng.integers(4, 12))
        u = random_subspace(n, int(rng.integers(1, n - 1)), rng)
        v = random_subspace(n, int(rng.integers(1, n - 1)), rng)
        assert_angles_match_oracle(pair_geometry(u, v).angles, u, v)


def test_angles_symmetric_in_arguments():
    rng = np.random.default_rng(4)
    u = random_subspace(8, 3, rng)
    v = random_subspace(8, 5, rng)
    np.testing.assert_allclose(
        pair_geometry(u, v).angles, pair_geometry(v, u).angles, atol=1e-12
    )


def test_tiny_angle_resolved_far_below_arccos_resolution():
    tiny = 3e-9
    u, v = canonical_pair(6, [tiny, 0.8], seed=0)
    angles = pair_geometry(u, v).angles
    assert math.isclose(angles[0], tiny, rel_tol=1e-4)


def test_angles_reject_degenerate_inputs():
    u = Subspace(np.eye(3)[:, :1])
    with pytest.raises(ValueError, match="zero subspace"):
        pair_geometry(u, subspace_from_spanning(np.zeros((3, 1))))
    with pytest.raises(ValueError, match="full space"):
        pair_geometry(u, Subspace(np.eye(3)))
    with pytest.raises(ValueError, match="ambient dimensions differ"):
        pair_geometry(u, Subspace(np.eye(4)[:, :1]))


# ---------------------------------------------------------------------------
# friedrichs angle and intersection


def test_friedrichs_counts_zero_angles():
    u, v = canonical_pair(8, [0.0, 0.0, 0.4, 1.1], seed=1)
    g = pair_geometry(u, v)
    s, theta_f = g.s, g.theta_F
    assert s == 2
    assert math.isclose(theta_f, 0.4, abs_tol=1e-10)


def test_friedrichs_none_when_nested():
    v = Subspace(np.eye(5)[:, :3])
    u = Subspace(np.eye(5)[:, :2])
    g = pair_geometry(u, v)
    s, theta_f = g.s, g.theta_F
    assert s == 2
    assert theta_f is None


def test_intersection_basis_lies_in_both():
    rng = np.random.default_rng(5)
    u, v = canonical_pair(10, [0.0, 0.0, 0.7, 1.2], q=5, seed=6)
    m = pair_geometry(u, v).M
    assert m.dim == 2
    pu, pv = projector(u), projector(v)
    np.testing.assert_allclose(pu @ m.basis, m.basis, atol=1e-10)
    np.testing.assert_allclose(pv @ m.basis, m.basis, atol=1e-10)


def test_trivial_intersection():
    u, v = canonical_pair(5, [0.5, 1.0], seed=7)
    assert pair_geometry(u, v).M.dim == 0


def test_intersection_stays_in_v_next_to_tiny_angle():
    # cos 0 and cos 1.07e-6 differ by 6e-13, which the SVD of Q_U^T Q_V
    # cannot resolve: read from that SVD alone, P_M left V by 3.8e-9
    u, v = canonical_pair(12, [0.0, 0.0, 0.0, 0.0, 1.07e-6], q=5, seed=3)
    geom = pair_geometry(u, v)
    assert np.linalg.norm(geom.P_V @ geom.P_M - geom.P_M, 2) <= 1e-14


@pytest.mark.parametrize("seed", range(40))
def test_intersection_next_to_tiny_angles_is_the_constructed_one(seed):
    """1-4 zero angles next to 1-3 angles in [1e-8, 0.12) and 0-2 large
    ones.  canonical_pair puts U ∩ V on the first s columns of its frame."""
    rng = np.random.default_rng(seed)
    s, k, large = (int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(0, 3)))
    angles = np.concatenate([
        np.zeros(s),
        np.sort(10.0 ** rng.uniform(-8.0, math.log10(0.12), k)),
        np.sort(rng.uniform(0.3, 1.5, large)),
    ])
    q = angles.size + int(rng.integers(0, 3))
    n = angles.size + q + int(rng.integers(0, 3))
    geom = pair_geometry(*canonical_pair(n, angles, q=q, seed=100 + seed))
    assert geom.s == s
    f_s = haar_orthogonal(n, np.random.default_rng(100 + seed))[:, :s]
    assert np.linalg.norm(geom.P_V @ geom.P_M - geom.P_M, 2) <= 1e-13
    assert np.linalg.norm(geom.P_M - f_s @ f_s.T, 2) <= 100 * EPS / geom.theta_F


# ---------------------------------------------------------------------------
# constructed pairs


def test_canonical_pair_reproduces_prescribed_angles():
    angles = [0.0, 1e-6, 0.03, 0.6, math.pi / 2]
    u, v = canonical_pair(14, angles, q=6, seed=8)
    assert u.dim == 5 and v.dim == 6
    np.testing.assert_allclose(pair_geometry(u, v).angles, angles, atol=1e-10)


def test_canonical_pair_validates_inputs():
    with pytest.raises(ValueError):
        canonical_pair(6, [0.5, 0.2], seed=0)  # not ascending
    with pytest.raises(ValueError):
        canonical_pair(6, [0.2, 2.0], seed=0)  # beyond pi/2
    with pytest.raises(ValueError):
        canonical_pair(4, [0.1, 0.2, 0.3], seed=0)  # p + q > n
    with pytest.raises(ValueError):
        canonical_pair(8, [0.1, 0.2], q=1, seed=0)  # q < p


def test_haar_orthogonal_is_orthogonal():
    q = haar_orthogonal(7, np.random.default_rng(9))
    np.testing.assert_allclose(q @ q.T, np.eye(7), atol=1e-12)


# ---------------------------------------------------------------------------
# measured geometry


def test_pair_geometry_swaps_to_smaller_first():
    rng = np.random.default_rng(10)
    u = random_subspace(9, 6, rng)
    v = random_subspace(9, 2, rng)
    geom = pair_geometry(u, v)
    assert geom.p == 2 and geom.q == 6
    assert len(geom.angles) == 2
    assert geom.theta_p == geom.angles[-1]


def test_pair_geometry_intersection_projector():
    u, v = canonical_pair(9, [0.0, 0.5, 1.0], q=4, seed=11)
    geom = pair_geometry(u, v)
    assert geom.s == 1
    m = pair_geometry(u, v).M
    np.testing.assert_allclose(geom.P_M, projector(m), atol=1e-10)
    # P_M x is the closest intersection point: check against least squares
    rng = np.random.default_rng(12)
    x = rng.standard_normal(9)
    d_mine = np.linalg.norm(x - geom.P_M @ x)
    assert math.isclose(d_mine, distance_to_span(x, m.basis), rel_tol=1e-10)


@pytest.mark.parametrize(
    "n, angles, q",
    [(9, [0.0, 0.5, 1.0], 4), (12, [0.0, 0.0, 0.3, 0.9], 6), (10, [0.4, 0.6], 2)],
)
def test_pair_geometry_three_svds_and_same_intersection_bits(monkeypatch, n, angles, q):
    u, v = canonical_pair(n, angles, q=q, seed=13)
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    geoms = [pair_geometry(u, v), pair_geometry(v, u)]
    assert len(calls) == 4  # cosines and sines per pair
    p_ms = [geom.P_M for geom in geoms]
    assert len(calls) == 6  # plus the principal directions, once per pair
    monkeypatch.undo()
    for p_m, (a, b) in zip(p_ms, [(u, v), (v, u)]):
        np.testing.assert_array_equal(p_m, projector(pair_geometry(a, b).M))


@pytest.mark.parametrize("zero_tol", [math.nan, -1.0, math.inf, math.pi / 2, 2.0])
def test_pair_geometry_rejects_bad_zero_tol(zero_tol):
    u, v = canonical_pair(6, [0.0, 0.5], seed=19)
    with pytest.raises(ValueError, match="zero_tol"):
        pair_geometry(u, v, zero_tol=zero_tol)


def test_norm_identities_of_measured_pair():
    # ||P_U P_V - P_M|| = cos(theta_F), ||P_U - P_U P_V|| = sin(theta_p),
    # ||P_U - P_U P_V P_U|| = sin^2(theta_p)
    for seed, angles in [(13, [0.0, 0.3, 0.9]), (14, [0.2, 0.7]), (15, [0.0, 0.0, 1.1, 1.4])]:
        u, v = canonical_pair(11, angles, q=len(angles) + 1, seed=seed)
        geom = pair_geometry(u, v)
        lhs = np.linalg.norm(geom.P_U @ geom.P_V - geom.P_M, 2)
        assert math.isclose(lhs, math.cos(geom.theta_F), abs_tol=1e-11)
        lhs2 = np.linalg.norm(geom.P_U - geom.P_U @ geom.P_V, 2)
        assert math.isclose(lhs2, math.sin(geom.theta_p), abs_tol=1e-11)
        lhs3 = np.linalg.norm(geom.P_U - geom.P_U @ geom.P_V @ geom.P_U, 2)
        assert math.isclose(lhs3, math.sin(geom.theta_p) ** 2, abs_tol=1e-11)


def test_friedrichs_angle_invariant_under_complements():
    for seed, angles in [(16, [0.0, 0.4, 1.0]), (17, [0.25, 0.8])]:
        u, v = canonical_pair(10, angles, q=len(angles) + 2, seed=seed)
        theta = pair_geometry(u, v).theta_F
        theta_c = pair_geometry(complement(u), complement(v)).theta_F
        assert math.isclose(theta, theta_c, abs_tol=1e-10)


def test_geometry_dict_round_trip():
    u, v = canonical_pair(7, [0.0, 0.6], q=3, seed=18)
    geom = pair_geometry(u, v)
    back = geometry_from_dict(json.loads(json.dumps(geometry_to_dict(geom))))
    assert back.s == geom.s
    assert back.theta_F == geom.theta_F
    assert back.theta_p == geom.theta_p
    np.testing.assert_array_equal(back.angles, geom.angles)
    np.testing.assert_array_equal(back.U.basis, geom.U.basis)
    np.testing.assert_array_equal(back.V.basis, geom.V.basis)
    np.testing.assert_array_equal(back.P_U, geom.P_U)
    np.testing.assert_array_equal(back.P_V, geom.P_V)
    np.testing.assert_array_equal(back.P_M, geom.P_M)
    x0 = np.random.default_rng(18).standard_normal(7)
    for method in ("MAP", "R:best", "BT"):
        spec = parse_method(method)
        np.testing.assert_array_equal(
            iterate(spec, back, x0, eps=1e-10).distances,
            iterate(spec, geom, x0, eps=1e-10).distances,
        )


def test_geometry_from_dict_rejects_bad_bases():
    u, v = canonical_pair(7, [0.0, 0.6], q=3, seed=18)
    d = geometry_to_dict(pair_geometry(u, v))
    with pytest.raises(ValueError, match="disagree with the stored dimensions"):
        geometry_from_dict({**d, "q": 2})
    with pytest.raises(ValueError, match="not orthonormal"):
        geometry_from_dict({**d, "U": (2.0 * u.basis).tolist()})
    with pytest.raises(ValueError, match="ambient dimensions differ"):
        geometry_from_dict({**d, "V": np.eye(6)[:, :3].tolist()})


@pytest.mark.parametrize("change, message", [
    (dict(angles=[0.0]), "need 2 ascending angles"),
    (dict(angles=[0.0, 0.6, 0.7]), "need 2 ascending angles"),
    (dict(angles=[0.0, math.nan]), "need 2 ascending angles"),
    (dict(angles=[0.6, 0.0]), "need 2 ascending angles"),
    (dict(angles=[0.0, 1.6]), "need 2 ascending angles"),
    (dict(angles=[-0.1, 0.6]), "need 2 ascending angles"),
    (dict(s=3), "s=3 disagrees with the angles: 1 of them"),
    (dict(s=-1), "s=-1 disagrees with the angles: 1 of them"),
    (dict(U=[[math.nan, 0.0]] + [[0.0, 0.0]] * 6), "not orthonormal"),
], ids=["one-angle", "three-angles", "nan-angle", "descending", "past-right-angle",
        "negative-angle", "s-above-p", "negative-s", "nan-basis"])
def test_geometry_from_dict_rejects_bad_measurements(change, message):
    d = geometry_to_dict(pair_geometry(*canonical_pair(7, [0.0, 0.6], q=3, seed=18)))
    with pytest.raises(ValueError, match=message):
        geometry_from_dict({**d, **change})


def test_geometry_from_dict_rejects_swapped_pair():
    d = geometry_to_dict(pair_geometry(*canonical_pair(7, [0.0, 0.6], q=3, seed=18)))
    with pytest.raises(ValueError, match="U must be the smaller subspace, got p=3 > q=2"):
        geometry_from_dict({**d, "U": d["V"], "V": d["U"], "p": 3, "q": 2})


def test_geometry_from_dict_reads_thetas_off_the_angles():
    geom = pair_geometry(*canonical_pair(7, [0.0, 0.6], q=3, seed=18))
    d = {**geometry_to_dict(geom), "theta_F": None, "theta_p": 5.0}
    back = geometry_from_dict(d)
    assert back.theta_F == geom.theta_F == geom.angles[1]
    assert back.theta_p == geom.theta_p == geom.angles[1]
    nested = geometry_from_dict({**d, "s": 2, "zero_tol": 0.7})
    assert nested.theta_F is None


@pytest.mark.parametrize("s", [2, 0])
def test_geometry_from_dict_rejects_an_s_the_angles_deny(s):
    # s = 2 would count the 0.6 plane as intersection (MAP and BT "solved" in
    # one step at distance 0.0), s = 0 the zero angle as not
    d = geometry_to_dict(pair_geometry(*canonical_pair(7, [0.0, 0.6], q=3, seed=18)))
    assert d["zero_tol"] == 1e-8
    message = f"s={s} disagrees with the angles: 1 of them are at most zero_tol=1e-08"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        geometry_from_dict({**d, "s": s})
    without = {key: value for key, value in d.items() if key != "zero_tol"}
    assert geometry_from_dict(without).s == 1  # pair_geometry's default tolerance
    with pytest.raises(ValueError, match=re.escape(message)):
        geometry_from_dict({**without, "s": s})


@pytest.mark.parametrize("zero_tol", [-1.0, 2.0, math.nan])
def test_geometry_from_dict_rejects_a_bad_zero_tol(zero_tol):
    d = geometry_to_dict(pair_geometry(*canonical_pair(7, [0.0, 0.6], q=3, seed=18)))
    with pytest.raises(ValueError, match="zero_tol must be >= 0 and below pi/2"):
        geometry_from_dict({**d, "zero_tol": zero_tol})


def test_nan_basis_and_nan_angle_rejected():
    with pytest.raises(ValueError, match=r"not orthonormal \(defect nan\)"):
        Subspace(np.full((3, 1), np.nan))
    with pytest.raises(ValueError, match=r"angles must lie in \[0, pi/2\]"):
        canonical_pair(6, [0.1, math.nan], 2)


def test_pair_geometry_names_the_bad_subspace_in_callers_order():
    line = Subspace(np.eye(3)[:, :1])
    with pytest.raises(ValueError, match="second subspace is the zero subspace"):
        pair_geometry(line, subspace_from_spanning(np.zeros((3, 1))))
    with pytest.raises(ValueError, match="first subspace is the full space"):
        pair_geometry(Subspace(np.eye(3)), line)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_random_pair_angles_agree_with_scipy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 14))
    u = random_subspace(n, int(rng.integers(1, n)), rng)
    v = random_subspace(n, int(rng.integers(1, n)), rng)
    if u.dim == n or v.dim == n:
        return
    assert_angles_match_oracle(pair_geometry(u, v).angles, u, v)
