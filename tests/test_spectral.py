import importlib.util
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oracles import (
    assemble,
    complex_cluster_index,
    full_classify,
    jordan_block,
    loop_min_gap,
    nonnormal_upper_example,
    nonnormal_upper_ratio,
    projector_onto_kernel_along_range,
    random_orthogonal,
    rotation_scaling_block,
    sorted_moduli,
    spectrum_via_charpoly,
    squaring_rate,
    union_find_groups,
)
from projrates import spectral
from projrates.matio import read_matrix
from projrates.methods import MethodSpec, build_operator, convergence_interval, fit_rate
from projrates.spectral import (
    SpectralError,
    classify_convergence,
    default_rank_tol,
    eigen_structure,
    operator_norm,
    report_to_dict,
    spectral_projectors,
)
from projrates.subspaces import canonical_pair, pair_geometry


def expanded_spectrum(struct):
    values = []
    for c in struct.clusters:
        values.extend([c.value] * c.algebraic_multiplicity)
    return values


# ---------------------------------------------------------------------------
# eigen structure


def test_structure_of_constructed_jordan_form():
    rng = np.random.default_rng(42)
    a = assemble(
        [jordan_block(1.0, 1), jordan_block(0.6, 2), np.diag([0.6, -0.3])], rng
    )
    struct = eigen_structure(a)
    facts = {
        (round(c.value.real, 8), c.algebraic_multiplicity, c.index, c.semisimple)
        for c in struct.clusters
    }
    assert (1.0, 1, 1, True) in facts
    assert (0.6, 3, 2, False) in facts
    assert (-0.3, 1, 1, True) in facts


def test_structure_matches_charpoly_roots():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.standard_normal((5, 5))
        struct = eigen_structure(a)
        mine = sorted_moduli(expanded_spectrum(struct))
        ref = sorted_moduli(spectrum_via_charpoly(a))
        np.testing.assert_allclose(mine, ref, atol=1e-6)


def test_complex_pair_clusters():
    rng = np.random.default_rng(7)
    a = assemble([rotation_scaling_block(0.8, 1.1), jordan_block(1.0, 1)], rng)
    struct = eigen_structure(a)
    complex_clusters = [c for c in struct.clusters if c.value.imag != 0]
    assert len(complex_clusters) == 2  # one cluster per conjugate
    assert {c.value for c in complex_clusters} == {
        np.conj(c.value) for c in complex_clusters
    }
    for c in complex_clusters:
        assert c.algebraic_multiplicity == 1
        assert c.semisimple
        assert math.isclose(c.modulus, 0.8, rel_tol=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.floats(1e-9, 1e-2))
def test_clustering_matches_union_find(seed, m, tol):
    # points on random walks with steps near tol, so that groups chain
    rng = np.random.default_rng(seed)
    starts = rng.standard_normal(m) + 1j * rng.standard_normal(m) * (rng.random(m) < 0.5)
    steps = tol * rng.uniform(0.2, 1.5, m) * np.exp(2j * np.pi * rng.random(m))
    walk = np.cumsum(steps)
    values = rng.permutation(np.where(rng.random(m) < 0.7, starts[0] + walk, starts))
    assert spectral._cluster_indices(values, tol) == union_find_groups(values, tol)
    reps = [complex(v) for v in values]
    assert spectral._min_cluster_gap(reps) == loop_min_gap(reps)


def test_clustering_rounds_distances_like_scalar_abs():
    # a pair at distance exactly tol as abs() of one complex scalar rounds
    # it, where the complex-array np.abs rounds one ulp above tol
    rng = np.random.default_rng(4)
    while True:
        x, y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        if np.abs(np.array([x - y]))[0] > abs(x - y):
            break
    values = np.array([x, y])
    tol = float(abs(x - y))
    assert spectral._cluster_indices(values, tol) == union_find_groups(values, tol)
    assert spectral._cluster_indices(values, tol) == [[0, 1]]


def test_clustering_merges_nearby_eigenvalues():
    a = np.diag([0.5, 0.5 + 1e-12, 0.9])
    struct = eigen_structure(a)
    mults = sorted(c.algebraic_multiplicity for c in struct.clusters)
    assert mults == [1, 2]


# ---------------------------------------------------------------------------
# classification


def test_classify_diagonalizable_convergent():
    rng = np.random.default_rng(3)
    q = random_orthogonal(4, rng)
    a = q @ np.diag([1.0, 0.7, -0.7, 0.2]) @ q.T
    report = classify_convergence(a)
    assert report.status == "convergent"
    assert math.isclose(report.gamma, 0.7, rel_tol=1e-9)
    assert report.optimal_rate_attained
    assert report.limit_is_orthogonal_projector
    np.testing.assert_allclose(report.limit, q @ np.diag([1.0, 0, 0, 0]) @ q.T, atol=1e-10)


def test_classify_limit_matches_high_power():
    rng = np.random.default_rng(11)
    a = assemble([jordan_block(1.0, 1), jordan_block(0.5, 2), np.diag([0.3])], rng)
    report = classify_convergence(a)
    assert report.status == "convergent"
    np.testing.assert_allclose(
        report.limit, np.linalg.matrix_power(a, 400), atol=1e-10
    )


def test_classify_defective_unit_eigenvalue():
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    report = classify_convergence(a)
    assert report.status == "not_convergent"
    assert report.limit is None
    assert any("defective" in w for w in report.warnings)


def test_classify_rotation_not_convergent():
    report = classify_convergence(rotation_scaling_block(1.0, 0.4))
    assert report.status == "not_convergent"


def test_classify_spectral_radius_above_one():
    assert classify_convergence(np.diag([1.5, 0.2])).status == "not_convergent"


def test_classify_strict_contraction_limit_zero():
    a = np.diag([0.9, -0.4])
    report = classify_convergence(a)
    assert report.status == "convergent"
    assert math.isclose(report.gamma, 0.9, rel_tol=1e-12)
    np.testing.assert_array_equal(report.limit, np.zeros((2, 2)))


def test_classify_borderline_modulus_flagged():
    report = classify_convergence(np.diag([1.0 - 1e-9, 0.5]))
    assert report.status == "not_convergent"
    assert any("borderline" in w for w in report.warnings)


def test_classify_nonorthogonal_limit_projector_flagged():
    # oblique projector: eigenvalues {1, 0} but not symmetric
    a = np.array([[1.0, 1.0], [0.0, 0.0]])
    report = classify_convergence(a)
    assert report.status == "convergent"
    np.testing.assert_allclose(report.limit, a, atol=1e-12)
    assert not report.limit_is_orthogonal_projector


def _near_projector(delta, seed=5):
    """An orthogonal projector of rank 6 in R^12 plus delta times a rotation
    generator K (K^T = -K, every singular value 1): ||P - P^T||_2 = 2 delta
    while ||P - P^T||_F = 2 delta sqrt(12)."""
    q = random_orthogonal(12, np.random.default_rng(seed))
    k = np.kron(np.eye(6), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    p0 = q @ np.diag([1.0] * 6 + [0.0] * 6) @ q.T
    return p0, p0 + delta * (q @ k @ q.T)


@pytest.mark.parametrize(
    "delta, orthogonal, exact_norms",
    [
        (1e-12, True, 0),  # Frobenius below the threshold: no SVD
        (0.4e-9, True, 3),  # Frobenius above, 2-norm below: the 2-norm accepts
        (0.6e-9, False, 2),  # both above: the 2-norm refuses at the first residual
    ],
)
def test_orthogonality_test_takes_two_norm_above_frobenius_threshold(
    monkeypatch, delta, orthogonal, exact_norms
):
    p0, p = _near_projector(delta)
    frob = np.linalg.norm(p - p.T)
    two = np.linalg.norm(p - p.T, 2)
    assert (frob > 1e-9) == (delta > 1e-10)
    assert (two <= 1e-9) == orthogonal
    scale = max(1.0, np.linalg.norm(p, 2))
    assert orthogonal == (
        two <= 1e-9 * scale and np.linalg.norm(p @ p - p, 2) <= 1e-9 * scale
    )

    calls = []
    norm = spectral.operator_norm
    limits = []

    def limit(*args, **kwargs):
        limits.append(p)
        return p

    def counted(x):
        if limits:
            calls.append(x)
        return norm(x)

    monkeypatch.setattr(spectral, "_cluster_projector", limit)
    monkeypatch.setattr(spectral, "operator_norm", counted)
    report = classify_convergence(p0)
    assert report.status == "convergent" and report.limit is p
    assert report.limit_is_orthogonal_projector == orthogonal
    assert len(calls) == exact_norms


def test_defective_subdominant_is_suboptimal():
    rng = np.random.default_rng(5)
    a = assemble([jordan_block(1.0, 1), jordan_block(0.5, 2)], rng)
    report = classify_convergence(a)
    assert report.status == "convergent"
    assert math.isclose(report.gamma, 0.5, rel_tol=1e-9)
    assert not report.optimal_rate_attained


@pytest.mark.parametrize("c, status", [
    (1.0, "convergent"), (0.5, "convergent"), (-0.5, "convergent"), (2.0, "not_convergent"),
])
def test_scalar_matrix_up_to_rounding(c, status):
    """c Q Q^T is c I only up to rounding, so A - cI is pure noise: one
    semisimple cluster, whose projector is I."""
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
    a = c * (q @ q.T)
    assert np.any(a != c * np.eye(3))
    report = classify_convergence(a)
    assert report.status == status
    if status == "convergent":
        expected = np.eye(3) if c == 1.0 else np.zeros((3, 3))
        np.testing.assert_allclose(report.limit, expected, rtol=0, atol=1e-15)
    (cluster,) = eigen_structure(a).clusters
    assert (cluster.algebraic_multiplicity, cluster.index) == (3, 1)
    ((_, projector),) = spectral_projectors(a)
    np.testing.assert_allclose(projector, np.eye(3), rtol=0, atol=1e-15)


def test_identity_converges_immediately():
    report = classify_convergence(np.eye(3))
    assert report.status == "convergent"
    assert report.gamma == 0.0
    assert report.optimal_rate_attained
    np.testing.assert_array_equal(report.limit, np.eye(3))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_random_contractions_converge_to_zero(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 4))
    a *= 0.95 / max(1e-12, max(abs(np.linalg.eigvals(a))))
    report = classify_convergence(a)
    assert report.status == "convergent"
    np.testing.assert_allclose(report.limit, np.zeros((4, 4)))
    assert report.gamma <= 0.95 + 1e-9


def test_overflowing_norm_is_named():
    a = np.full((2, 2), 1e308)
    for fn in (classify_convergence, eigen_structure):
        with pytest.raises(ValueError, match="matrix norm overflows"):
            fn(a)


@pytest.mark.parametrize("fn", [classify_convergence, eigen_structure, spectral_projectors])
def test_empty_matrix_is_named_by_its_shape(fn):
    with pytest.raises(ValueError, match=r"expected a nonempty matrix, got shape \(0, 0\)"):
        fn(np.zeros((0, 0)))


@pytest.mark.parametrize("fn", [classify_convergence, eigen_structure, spectral_projectors])
@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_cluster_tol_must_be_positive_and_finite(fn, tol):
    """A NaN tolerance merges no two eigenvalues, since d <= nan is false."""
    with pytest.raises(ValueError, match=f"cluster_tol must be positive and finite, got {tol!r}"):
        fn(np.diag([0.5, 0.5 + 1e-9, 0.2]), cluster_tol=tol)


@pytest.mark.parametrize("fn", [classify_convergence, eigen_structure, spectral_projectors])
@pytest.mark.parametrize("a, message", [
    (np.ones((2, 3)), r"expected a square matrix, got shape \(2, 3\)"),
    ([[math.nan]], "matrix entries must be finite"),
])
def test_non_square_and_non_finite_matrices_are_named(fn, a, message):
    """The command line never gets here: ``parse_matrix`` rejects both first."""
    with pytest.raises(ValueError, match=message):
        fn(a)


@pytest.mark.parametrize("fn", [classify_convergence, eigen_structure, spectral_projectors])
def test_cluster_means_within_cluster_tol_raise(fn):
    """Twelve eigenvalues on a circle of radius 0.15 about the eigenvalue
    0.5 chain to their neighbours (0.078 apart) but not to the centre, so
    at cluster_tol = 0.1 they form one cluster whose mean is the centre."""
    ring = [0.5 * np.eye(2) + rotation_scaling_block(0.15, (2 * k + 1) * math.pi / 12)
            for k in range(6)]
    a = assemble([np.diag([0.5]), *ring])
    with pytest.raises(SpectralError, match="cluster representatives are not separated by "
                       r"more than cluster_tol=1\.000e-01 \(min gap"):
        fn(a, cluster_tol=0.1)


def test_conjugate_means_that_project_onto_one_real_value_merge():
    """Below the default tolerance the J_2 block at 0.5 can split into a
    conjugate pair farther apart than cluster_tol, each mean within it of
    the real axis: both project onto one real value, which is one cluster of
    multiplicity 2, not two clusters at distance 0."""
    draws = [(1e-8, seed) for seed in (3, 16, 24, 26, 31, 32, 36, 37)]
    draws += [(2e-8, seed) for seed in (0, 1, 6, 14, 17)]
    for tol, seed in draws:
        a = assemble([[[1.0]], jordan_block(0.5, 2), [[0.2]]], np.random.default_rng(seed))
        eigvals = np.linalg.eigvals(a)
        split = eigvals[np.abs(eigvals - 0.5) < 1e-6]
        assert abs(split[0] - split[1]) > tol >= abs(split[0].imag)  # the collision
        report = classify_convergence(a, cluster_tol=tol)
        assert report.status == "convergent" and not report.optimal_rate_attained
        [c] = report.subdominant_clusters
        assert (c.algebraic_multiplicity, c.index) == (2, 2) and c.value.imag == 0.0
        assert [c.algebraic_multiplicity for c in eigen_structure(a, tol).clusters] == [1, 2, 1]
        assert len(spectral_projectors(a, tol)) == 3


def test_projector_kernel_mismatch_names_the_smallest_cluster_gap():
    """At cluster_tol = 1e-14 the eigenvalues 10 and 10 + 1e-13 (10 +
    9.948e-14 in float64) stay apart, and ||A - 10 I|| = 9.948e-14 is below
    100 n eps * 10 = 4.4e-13, so the rank test reads index 1 at once; the
    projector's cutoff then finds the whole space as the kernel of A - 10 I."""
    with pytest.raises(SpectralError, match=r"kernel dimension 2 does not match the algebraic "
                       r"multiplicity 1; .* \(smallest cluster gap: 9\.948e-14\)"):
        spectral_projectors(np.diag([10.0, 10.0 + 1e-13]), cluster_tol=1e-14)


# ---------------------------------------------------------------------------
# Jordan indices resolved on demand, against the fully resolved oracle


def planted_matrix(rng):
    """Jordan, rotation-scaling and diagonal blocks at values that repeat,
    under a random orthogonal similarity."""
    blocks = []
    for _ in range(int(rng.integers(1, 5))):
        value = float(rng.choice([1.0, 0.9, -0.9, 0.5, rng.uniform(-1.2, 1.2)]))
        shape = int(rng.integers(0, 3))
        if shape == 0:
            blocks.append(jordan_block(value, int(rng.integers(1, 5))))
        elif shape == 1:
            blocks.append(rotation_scaling_block(abs(value), float(rng.uniform(0.1, 3.0))))
        else:
            blocks.append(np.diag([value] * int(rng.integers(1, 3))))
    return assemble(blocks, rng)


def pair_operator(rng):
    """Iteration matrix of T/S/R/DR on a pair at n <= 40, with mu inside or
    outside the convergence interval."""
    n = int(rng.integers(4, 41))
    p = int(rng.integers(1, n // 2 + 1))
    q = int(rng.integers(p, n - p + 1))
    angles = np.sort(rng.uniform(0.05, np.pi / 2, p))
    angles[: int(rng.integers(0, p))] = 0.0
    geom = pair_geometry(*canonical_pair(n, angles, q, seed=rng))
    kind = str(rng.choice(["T", "S", "R", "DR"]))
    if kind == "DR":
        return build_operator(MethodSpec("DR"), geom)
    _, hi = convergence_interval(kind, geom)
    scale = rng.uniform(0.05, 0.95) if rng.random() < 0.6 else rng.uniform(1.02, 1.5)
    return build_operator(MethodSpec(kind, mu=hi * float(scale)), geom)


def random_contraction(rng):
    n = int(rng.integers(1, 41))
    a = rng.standard_normal((n, n))
    return a * rng.uniform(0.3, 0.99) / max(1e-12, max(abs(np.linalg.eigvals(a))))


MATRIX_FAMILIES = {
    "planted": planted_matrix,
    "pair operator": pair_operator,
    "contraction": random_contraction,
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(MATRIX_FAMILIES)), st.integers(0, 2 ** 32 - 1))
def test_classify_matches_fully_resolved_oracle(family, seed):
    a = MATRIX_FAMILIES[family](np.random.default_rng(seed))
    try:
        expected = full_classify(a)
    except SpectralError:
        # the oracle's rank test failed on some cluster; classify_convergence
        # resolves fewer clusters, so it may report where the oracle raises
        try:
            classify_convergence(a)
        except SpectralError:
            event("both raise SpectralError")
        else:
            event("oracle raises SpectralError, classify_convergence reports")
        return
    report = classify_convergence(a)
    assert json.dumps(report_to_dict(report)) == json.dumps(report_to_dict(expected))
    if expected.limit is not None:
        assert report.limit.tobytes() == expected.limit.tobytes()


def _index_or_error(rank_test, *args):
    try:
        return rank_test(*args)
    except SpectralError:
        return "SpectralError"


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(MATRIX_FAMILIES)), st.integers(0, 2 ** 32 - 1))
def test_real_rank_test_gives_the_complex_index(family, seed):
    """The Jordan index of every real cluster, from the rank test of
    A - value*I in real arithmetic, is the one the same test gives in
    complex arithmetic (``complex_cluster_index``), or both raise."""
    a = MATRIX_FAMILIES[family](np.random.default_rng(seed))
    try:
        spectrum = spectral._clustered_spectrum(a, None)
    except SpectralError:
        return
    real = [(v, m) for v, m in zip(spectrum.values, spectrum.mults) if v.imag == 0.0]
    event(f"{len(real)} real clusters")
    rank_tol = default_rank_tol(len(a))
    for value, mult in real:
        got = _index_or_error(spectral._cluster_index, a, value, mult)
        assert got == _index_or_error(complex_cluster_index, a, value, mult, rank_tol)


def test_defective_complex_pair_shares_its_index():
    rng = np.random.default_rng(8)
    r = rotation_scaling_block(0.8, 0.5)
    pair = np.block([[r, np.eye(2)], [np.zeros((2, 2)), r]])  # real Jordan form
    report = classify_convergence(assemble([jordan_block(1.0, 1), pair, np.diag([0.3])], rng))
    assert report.status == "convergent"
    assert [(c.algebraic_multiplicity, c.index) for c in report.subdominant_clusters] == [(2, 2)] * 2
    assert not report.optimal_rate_attained


def test_classify_resolves_only_the_reported_clusters(monkeypatch):
    rng = np.random.default_rng(30)
    q = random_orthogonal(30, rng)
    a = q @ np.diag(np.linspace(1.0, -0.9, 30)) @ q.T  # 30 simple eigenvalues
    resolved = []
    resolve = spectral._cluster_index

    def counting(*args):
        resolved.append(args[1])
        return resolve(*args)

    monkeypatch.setattr(spectral, "_cluster_index", counting)
    assert classify_convergence(a).status == "convergent"
    assert len(resolved) <= 2
    resolved.clear()
    eigen_structure(a)
    assert len(resolved) == 30


# ---------------------------------------------------------------------------
# limits, rates, projectors


def test_divergent_matrix_has_no_power_limit():
    report = classify_convergence(np.diag([2.0, 0.5]))
    assert report.limit is None
    assert report.status != "convergent"


def test_subdominant_modulus_of_construction():
    rng = np.random.default_rng(9)
    a = assemble([np.diag([1.0, 1.0]), rotation_scaling_block(0.65, 0.3), np.diag([0.1])], rng)
    assert math.isclose(classify_convergence(a).gamma, 0.65, rel_tol=1e-9)


def corpus_matrix(seed, index, tmp_path, monkeypatch):
    """Matrix ``index`` of the benchmark's analyze corpus of ``seed``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    return read_matrix(workloads.Analyze().generate(seed, tmp_path).cases[index].path)


def test_unit_cluster_verdict_takes_one_svd_of_a_minus_i(monkeypatch, tmp_path):
    a = corpus_matrix(7, 0, tmp_path, monkeypatch)  # the T operator at n = 300
    b = a - np.eye(len(a))
    norm, svd = spectral.operator_norm, np.linalg._linalg.svd
    normed, svds = [], []

    def counted_norm(x):
        normed.append(x)
        return norm(x)

    def counted_svd(*args, **kwargs):
        svds.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(spectral, "operator_norm", counted_norm)
    # np.linalg.norm calls the module-level svd of numpy.linalg._linalg
    monkeypatch.setattr(np.linalg._linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    report = classify_convergence(a)
    assert report.status == "convergent" and report.limit_is_orthogonal_projector
    assert not any(np.array_equal(x, b) for x in normed)
    # ||A||, the index of the unit cluster and of the one at gamma, and the
    # full SVD of A - I that sets its own cutoff
    assert len(svds) == 4


def test_empirical_rate_matches_gamma_when_semisimple():
    rng = np.random.default_rng(13)
    q = random_orthogonal(5, rng)
    a = q @ np.diag([1.0, 0.6, 0.6, -0.2, 0.0]) @ q.T
    limit = classify_convergence(a).limit
    # ||A^k - A_inf|| for k = 15..60 by powering A; 0.6^k underflows the
    # residual floor before k = 60: the fit must drop those terms rather
    # than flatten the slope
    power, residuals = np.eye(5), []
    for k in range(1, 61):
        power = power @ a
        if k >= 15:
            residuals.append(np.linalg.norm(power - limit, 2))
    assert min(residuals) <= 1e-13
    assert math.isclose(fit_rate(np.array(residuals)), 0.6, rel_tol=1e-6)
    assert math.isclose(squaring_rate(a, limit), 0.6, rel_tol=1e-9)


def test_spectral_projectors_reconstruct_matrix():
    rng = np.random.default_rng(21)
    a = assemble([jordan_block(0.9, 2), np.diag([0.2]), jordan_block(-0.5, 1)], rng)
    pairs = spectral_projectors(a)
    n = a.shape[0]
    total = sum(p for _, p in pairs)
    np.testing.assert_allclose(total, np.eye(n), atol=1e-9)
    recon = sum(c.value * p for c, p in pairs)
    nilpotent = a - np.real(recon)
    # remaining nilpotent part vanishes at the largest index
    k = max(c.index for c, _ in pairs)
    np.testing.assert_allclose(np.linalg.matrix_power(nilpotent, k), 0, atol=1e-8)
    for i, (_, p) in enumerate(pairs):
        for j, (_, q2) in enumerate(pairs):
            expected = p if i == j else np.zeros_like(p)
            np.testing.assert_allclose(p @ q2, expected, atol=1e-9)


#: the draws of ``planted_matrix`` among seeds 0-59 whose Jordan blocks
#: split, at the default cluster_tol, into clusters that pass the rank test
SPLIT_PLANTED_SEEDS = [1, 2, 4, 9, 14, 17, 19, 22, 28, 29, 39, 40, 52, 53]


def test_projectors_that_do_not_sum_to_identity_raise():
    """Their sums miss I by 2.7e3 to 1.4e15 in the 2-norm; every other draw
    either resolves, to within 1e-13, or fails its rank test first."""
    split = []
    for seed in range(60):
        a = planted_matrix(np.random.default_rng(seed))
        try:
            pairs = spectral_projectors(a)
        except SpectralError as exc:
            if "sum to I" in str(exc):
                assert re.search(r"within \S+ \(smallest cluster gap: \S+, cluster_tol=\S+\)",
                                 str(exc))
                split.append(seed)
            else:
                assert str(exc).startswith("rank of")
            continue
        assert operator_norm(sum(p for _, p in pairs) - np.eye(len(a))) <= 1e-13
    assert split == SPLIT_PLANTED_SEEDS
    # a larger cluster_tol merges the split block back, as the error suggests
    a = planted_matrix(np.random.default_rng(2))
    pairs = spectral_projectors(a, cluster_tol=1e-4)
    assert operator_norm(sum(p for _, p in pairs) - np.eye(len(a))) <= 1e-6


def test_real_clusters_get_real_projectors_from_one_svd_each(monkeypatch):
    """Each projector comes from one SVD of (A - value*I)^index, and an
    index-1 cluster takes no other besides its rank test.  A real
    cluster's projector is float64 and agrees with the one formed in complex
    arithmetic; a conjugate pair's are complex; the unit cluster's is the
    limit of ``classify_convergence``, byte for byte."""
    a = scipy.linalg.block_diag(
        1.0, rotation_scaling_block(0.8, 0.5), jordan_block(0.5, 2), -0.3
    )
    a[0, 1:] = 0.3  # an oblique limit, and exact eigenvalues: column 0 is e_0
    a[1:3, 3:] = 0.2
    n = len(a)
    svd = np.linalg._linalg.svd
    svds = []

    def counted_svd(*args, **kwargs):
        svds.append(kwargs.get("compute_uv", True))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg._linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    pairs = spectral_projectors(a)
    monkeypatch.undo()
    # ||A||; the rank tests, of B for each cluster but the second of the
    # pair and of B^2 too at index 2; ||B|| for the index-2 projector only;
    # and the 2-norm of the projectors' sum minus I
    assert svds.count(True) == len(pairs) == 5
    assert svds.count(False) == 1 + 5 + 1 + 1
    for c, p in pairs:
        b = a.astype(complex) - c.value * np.eye(n)
        cutoff = default_rank_tol(n) * max(operator_norm(b), abs(c.value)) ** c.index
        expected = projector_onto_kernel_along_range(
            np.linalg.matrix_power(b, c.index), c.algebraic_multiplicity, cutoff
        )
        assert p.dtype == (np.float64 if c.value.imag == 0.0 else np.complex128)
        np.testing.assert_allclose(p, expected, rtol=0, atol=1e-12)
    assert [c.index for c, _ in pairs] == [1, 1, 1, 2, 1]
    assert pairs[0][0].value == 1.0
    report = classify_convergence(a)
    assert report.status == "convergent" and not report.limit_is_orthogonal_projector
    assert pairs[0][1].tobytes() == report.limit.tobytes()


def test_report_round_trip():
    a, _ = nonnormal_upper_example()
    report = classify_convergence(a)
    d = json.loads(json.dumps(report_to_dict(report)))
    assert d["status"] == report.status
    assert d["gamma"] == report.gamma
    assert d["optimal_rate_attained"] == report.optimal_rate_attained
    np.testing.assert_array_equal(d["limit"], report.limit)
    assert [complex(c["value"]["re"], c["value"]["im"]) for c in d["subdominant_clusters"]] == [
        c.value for c in report.subdominant_clusters
    ]


def test_nonnormal_example_ratio_closed_form():
    a, a_inf = nonnormal_upper_example()
    for k in (1, 5, 20):
        lhs = np.linalg.norm(np.linalg.matrix_power(a, k) - a_inf, 2) / 0.5 ** k
        assert math.isclose(lhs, nonnormal_upper_ratio(k), rel_tol=1e-10)
