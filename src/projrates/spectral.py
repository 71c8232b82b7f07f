"""Convergence analysis for powers of real square matrices.

The central question: does ``A^k`` approach a limit as ``k`` grows, and if
so, how fast?  Powers converge exactly when the spectrum sits strictly
inside the unit circle, except possibly for a semisimple eigenvalue at 1.
The limit is then the (generally oblique) projector onto ``ker(A - I)``
along ``ran(A - I)``, and the linear rate is governed by the subdominant
modulus: the largest eigenvalue modulus once the eigenvalue 1 is removed.
That modulus is the best possible rate exactly when every eigenvalue
attaining it is semisimple; a Jordan block there forces an extra
polynomial factor ``k^(index-1)`` in front of the geometric decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .subspaces import EPS


class SpectralError(ValueError):
    """Raised when the spectral structure cannot be resolved reliably."""


# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class EigenCluster:
    """One numerically clustered eigenvalue of a real matrix.

    ``value`` is the cluster representative (the mean of the clustered
    eigenvalues, projected to the real axis when its imaginary part is
    below the clustering tolerance).  ``index`` is the size of the largest
    Jordan block: the smallest k with rank((A - value*I)^k) stationary.
    """

    value: complex
    modulus: float
    algebraic_multiplicity: int
    index: int
    semisimple: bool


@dataclass(frozen=True)
class EigenStructure:
    clusters: tuple[EigenCluster, ...]
    cluster_tol: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of the power-convergence classification.

    ``gamma`` is the subdominant modulus (0 when the spectrum is {1} or
    empty of non-unit values).  ``optimal_rate_attained`` records whether
    every cluster at modulus ``gamma`` is semisimple, i.e. whether
    ``gamma^k`` alone (no polynomial factor) bounds ``||A^k - limit||``.
    """

    status: str  # 'convergent' | 'not_convergent'
    limit: np.ndarray | None
    spectral_radius: float
    gamma: float
    subdominant_clusters: tuple[EigenCluster, ...]
    optimal_rate_attained: bool
    limit_is_orthogonal_projector: bool
    warnings: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# helpers


#: distance of a modulus from 1 below which a value other than 1 makes the
#: verdict borderline: no finite computation settles such a case
_TOL_CIRCLE = 1e-7


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(a, 2))


def default_rank_tol(n: int) -> float:
    return 100 * n * EPS


def _check_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not a.size:
        raise ValueError(f"expected a nonempty matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _shifted(a: np.ndarray, value: complex) -> np.ndarray:
    """``A - value*I``, in real arithmetic for a real value."""
    return a - np.diag(np.full(a.shape[0], value.real if value.imag == 0.0 else value))


def _distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``|x_i - y_j|`` for every i, j, rounded as ``abs`` rounds one complex
    scalar (``np.abs`` on a complex array may differ in the last bit)."""
    d = x[:, None] - y[None, :]
    return np.hypot(d.real, d.imag)


def _cluster_indices(values: np.ndarray, tol: float) -> list[list[int]]:
    """Single-linkage grouping of complex values at distance <= tol.

    Groups are the connected components of the graph ``|v_i - v_j| <= tol``,
    each listed in ascending order, ordered by their first member.
    """
    m = len(values)
    close = _distances(values, values) <= tol
    labels = np.arange(m)
    while True:
        # every value takes the smallest label within tol of it; at the fixed
        # point each component carries the label of its first member
        spread = np.minimum(labels, np.where(close, labels, m).min(axis=1))
        if np.array_equal(spread, labels):
            break
        labels = spread
    groups: dict[int, list[int]] = {}
    for i, label in enumerate(labels.tolist()):
        groups.setdefault(label, []).append(i)
    return list(groups.values())


def _cluster_index(a: np.ndarray, value: complex, mult: int) -> int:
    """Smallest k with rank((A - value*I)^k) = n - mult, in real arithmetic
    for a real value."""
    n = a.shape[0]
    rank_tol = default_rank_tol(n)
    b = _shifted(a, value)
    sv = np.linalg.svd(b, compute_uv=False)
    smax = float(np.amax(sv))  # operator_norm(b), from the call the k = 1 test reads
    if smax <= rank_tol * abs(value):
        return 1  # A is value*I up to rounding
    bk = b
    for k in range(1, mult + 1):
        if k > 1:
            bk = bk @ b
            sv = np.linalg.svd(bk, compute_uv=False)
        # threshold at the natural scale of the k-th power; rounding noise in
        # B^k sits near eps * ||B||^k, not near eps * sigma_max(B^k)
        r = int(np.count_nonzero(sv > rank_tol * smax**k))
        if r == n - mult:
            return k
        if r < n - mult:
            raise SpectralError(
                f"rank of (A - ({value})I)^{k} fell below n - multiplicity "
                f"({r} < {n - mult}); eigenvalue clusters too close for a "
                "reliable Jordan index"
            )
    raise SpectralError(
        f"rank of powers of A - ({value})I did not stabilize within the "
        f"algebraic multiplicity {mult}; eigenvalue clusters too close"
    )


def _min_cluster_gap(reps) -> float:
    r = np.asarray(reps, dtype=complex)
    gaps = _distances(r, r)
    np.fill_diagonal(gaps, np.inf)
    return float(gaps.min())


# ---------------------------------------------------------------------------
# eigen structure


@dataclass(frozen=True)
class _Spectrum:
    """The clustered spectrum of a matrix before any Jordan index is known.

    Clusters are in report order: by descending modulus, then real part,
    then imaginary part.  ``partners[i]`` is the position of the conjugate
    partner of a complex cluster (None for a real one); a pair shares one
    Jordan index.
    """

    values: tuple[complex, ...]
    mults: tuple[int, ...]
    partners: tuple[int | None, ...]
    cluster_tol: float


def _clustered_spectrum(a: np.ndarray, cluster_tol: float | None) -> _Spectrum:
    """Eigenvalues of a checked square matrix, clustered and paired with
    their conjugates; see ``eigen_structure`` for the tolerances."""
    norm = operator_norm(a)
    if not math.isfinite(norm):
        raise ValueError(
            "the matrix norm overflows float64: ||A||_2 is not finite; scale the matrix down"
        )
    if cluster_tol is None:
        cluster_tol = 1e-7 * max(1.0, norm)
    elif not 0.0 < cluster_tol < math.inf:
        raise ValueError(f"cluster_tol must be positive and finite, got {cluster_tol!r}")

    eigvals = np.linalg.eigvals(a)
    reps: list[complex] = []
    mults: list[int] = []
    for idx in _cluster_indices(eigvals, cluster_tol):
        rep = complex(np.mean(eigvals[idx]))
        if abs(rep.imag) <= cluster_tol:
            rep = complex(rep.real, 0.0)
        reps.append(rep)
        mults.append(len(idx))

    gap = _min_cluster_gap(reps)
    if gap <= cluster_tol:
        raise SpectralError(
            "cluster representatives are not separated by more than "
            f"cluster_tol={cluster_tol:.3e} (min gap {gap:.3e})"
        )

    order = sorted(range(len(reps)), key=lambda i: (-abs(reps[i]), -reps[i].real, -reps[i].imag))
    values = [reps[i] for i in order]
    mults = [mults[i] for i in order]
    # real input: complex clusters come in conjugate pairs
    r = np.asarray(values)
    near_conj = _distances(r.conj(), r) <= cluster_tol
    np.fill_diagonal(near_conj, False)
    partners: list[int | None] = [None] * len(values)
    for i, value in enumerate(values):
        if value.imag == 0.0 or partners[i] is not None:
            continue
        candidates = np.flatnonzero(near_conj[i])
        if len(candidates) != 1 or mults[candidates[0]] != mults[i]:
            raise SpectralError(f"complex cluster {value} lacks a matching conjugate partner")
        j = int(candidates[0])
        partners[i], partners[j] = j, i
    return _Spectrum(tuple(values), tuple(mults), tuple(partners), cluster_tol)


def _clusters(a: np.ndarray, spectrum: _Spectrum, positions) -> dict[int, EigenCluster]:
    """``EigenCluster`` of each cluster at ``positions`` and of its conjugate
    partner, with the Jordan index from the rank test of ``_cluster_index``.
    A pair shares the index found for whichever of the two comes first."""
    wanted = set(positions)
    wanted.update(spectrum.partners[i] for i in positions if spectrum.partners[i] is not None)
    out: dict[int, EigenCluster] = {}
    for i in sorted(wanted):
        value, mult, partner = spectrum.values[i], spectrum.mults[i], spectrum.partners[i]
        if partner in out:
            index = out[partner].index
        else:
            index = _cluster_index(a, value, mult)
        out[i] = EigenCluster(value, abs(value), mult, index, index == 1)
    return out


def eigen_structure(a: np.ndarray, cluster_tol: float | None = None) -> EigenStructure:
    """Cluster the spectrum of a real square matrix and resolve Jordan indices.

    Eigenvalues within ``cluster_tol`` of each other (single linkage) are
    treated as one eigenvalue, represented by their mean; means with
    ``|Im| <= cluster_tol`` are projected onto the real axis.  The index of
    each cluster comes from rank stabilization of powers of ``A - value*I``,
    with numerical ranks thresholded at ``rank_tol * ||A - value*I||^k``
    and ``rank_tol = 100 * n * eps``: enough headroom over eigensolver
    rounding in the cluster representative, still orders of magnitude
    below the cluster separation scale.  Every cluster is resolved, so a
    cluster whose index the rank test cannot settle raises
    ``SpectralError``.

    Parameters
    ----------
    a : (n, n) array
    cluster_tol : float, optional
        Defaults to ``1e-7 * max(1, ||A||)``.
    """
    a = _check_square(a)
    spectrum = _clustered_spectrum(a, cluster_tol)
    clusters = tuple(_clusters(a, spectrum, range(len(spectrum.values))).values())
    return EigenStructure(clusters=clusters, cluster_tol=spectrum.cluster_tol)


def _subdominant(values, cluster_tol: float) -> tuple[int | None, float, list[int]]:
    """Position of the unit cluster (None if there is none), the subdominant
    modulus and the positions of the clusters attaining it."""
    unit = next((i for i, v in enumerate(values) if abs(v - 1.0) <= cluster_tol), None)
    rest = [i for i in range(len(values)) if i != unit]
    if not rest:
        return unit, 0.0, []
    gamma = max(abs(values[i]) for i in rest)
    attaining = [i for i in rest if abs(abs(values[i]) - gamma) <= cluster_tol]
    return unit, gamma, attaining


# ---------------------------------------------------------------------------
# limits


def _cluster_projector(a: np.ndarray, value: complex, index: int, mult: int) -> np.ndarray:
    """Spectral projector of the cluster at ``value``: onto ker(B^index)
    along ran(B^index), with B = A - value*I in real arithmetic for a real
    value, as ``_cluster_index`` forms it.

    One SVD of B^index splits its range from its kernel, at the cutoff
    ``default_rank_tol(n) * max(||B||, |value|)^index``: the natural scale
    of the power, as in the index search, and at least |value|^index when B
    is pure rounding noise.  ||B|| is that SVD's largest singular value when
    index = 1.  The error carries the kernel dimension found as
    ``kernel_dim``.
    """
    n = a.shape[0]
    b = _shifted(a, value)
    u, s, vh = np.linalg.svd(np.linalg.matrix_power(b, index))
    norm = float(s[0]) if index == 1 else operator_norm(b)
    r = int(np.count_nonzero(s > default_rank_tol(n) * max(norm, abs(value)) ** index))
    if n - r != mult:
        err = SpectralError(
            f"kernel dimension {n - r} does not match the algebraic multiplicity "
            f"{mult}; spectrum too poorly separated for a reliable projector"
        )
        err.kernel_dim = n - r
        raise err
    kernel = vh[r:].conj().T  # columns span ker(B^index)
    ran = u[:, :r]  # columns span ran(B^index)
    basis = np.hstack([kernel, ran])
    target = np.hstack([kernel, np.zeros((n, r), dtype=basis.dtype)])
    # P maps the kernel part to itself and the range part to zero
    return np.linalg.solve(basis.T, target.T).T


#: bound on ||sum of the spectral projectors - I||_2: well-separated
#: clusters leave rounding noise (at most 2.4e-10 over the test families),
#: a split Jordan block leaves 1e3 or more
_SUM_TOL = 1e-6

#: ||X||_2 <= ||X||_F and the orthogonality threshold is 1e-9 * scale with
#: scale >= 1, so residuals this small in the Frobenius norm pass without an
#: SVD; the 1e-6 margin covers rounding in both norms
_FROBENIUS_PASS = 1e-9 * (1 - 1e-6)


def _is_orthogonal_projector(p: np.ndarray) -> bool:
    """Whether ||P - P^T||_2 and ||P^2 - P||_2 are both at most
    ``1e-9 * max(1, ||P||_2)``.  Unless both residuals pass the Frobenius
    shortcut they are measured in the 2-norm, so the answer is always the
    2-norm test's."""
    residuals = (p - p.T, p @ p - p)
    if all(np.linalg.norm(x) <= _FROBENIUS_PASS for x in residuals):
        return True
    scale = max(1.0, operator_norm(p))
    return all(operator_norm(x) <= 1e-9 * scale for x in residuals)


def classify_convergence(a: np.ndarray, cluster_tol: float | None = None) -> ConvergenceReport:
    """Decide whether A^k converges, and package limit, rate, and optimality.

    Convergent means: spectral radius < 1, or radius 1 attained only by a
    semisimple eigenvalue exactly equal to 1.  A modulus within
    1e-7 of 1 whose value differs from 1 is classified as not
    convergent and flagged as borderline, since no finite computation can
    settle that case.

    Only the unit cluster and the clusters at modulus ``gamma`` (with their
    conjugate partners) get a Jordan index, because the verdict reads no
    other; ``eigen_structure`` resolves every cluster.
    """
    a = _check_square(a)
    n = a.shape[0]
    spectrum = _clustered_spectrum(a, cluster_tol)
    values = spectrum.values
    moduli = [abs(v) for v in values]
    rho = max(moduli)
    unit, gamma, attaining = _subdominant(values, spectrum.cluster_tol)
    clusters = _clusters(a, spectrum, attaining if unit is None else [unit, *attaining])
    subdominant = tuple(clusters[i] for i in attaining)
    on_circle = [i for i, m in enumerate(moduli) if abs(m - 1.0) <= _TOL_CIRCLE]
    bad_circle = [i for i in on_circle if i != unit]

    notes: list[str] = []
    limit = None
    if bad_circle:
        notes.extend(
            f"borderline: |{values[i]}| = {moduli[i]:.12g} lies within "
            f"tol_circle={_TOL_CIRCLE:g} of 1 but the value is not 1"
            for i in bad_circle
        )
    elif rho > 1.0 + _TOL_CIRCLE:
        pass  # strictly expanding somewhere
    elif unit in on_circle:
        if not clusters[unit].semisimple:
            notes.append("eigenvalue 1 is defective (index > 1), powers do not converge")
        else:
            try:
                # the limit splits A - I itself, not A minus the cluster mean
                limit = _cluster_projector(a, 1.0, 1, spectrum.mults[unit])
            except SpectralError as exc:
                # an eigenvalue clustered at 1 whose kernel does not show up
                # at the rank tolerance: numerically indistinguishable from a
                # modulus just inside the circle, so refuse to classify it
                notes.append(
                    f"borderline: {values[unit]} lies within cluster_tol="
                    f"{spectrum.cluster_tol:g} of 1 but the value is not 1"
                    if exc.kernel_dim == 0 else f"borderline: {exc}"
                )
    elif rho < 1.0 - _TOL_CIRCLE:
        limit = np.zeros((n, n))
    convergent = limit is not None

    return ConvergenceReport(
        status="convergent" if convergent else "not_convergent",
        limit=limit,
        spectral_radius=rho,
        gamma=gamma,
        subdominant_clusters=subdominant,
        optimal_rate_attained=convergent and all(c.semisimple for c in subdominant),
        limit_is_orthogonal_projector=convergent and _is_orthogonal_projector(limit),
        warnings=tuple(notes),
    )


def spectral_projectors(
    a: np.ndarray, cluster_tol: float | None = None
) -> list[tuple[EigenCluster, np.ndarray]]:
    """Spectral projector of every cluster of ``eigen_structure``.

    For a cluster at value v with index k, the projector maps onto
    ``ker((A - vI)^k)`` along ``ran((A - vI)^k)``.  Projectors of real
    clusters are real and those of complex clusters complex; they sum to
    the identity, annihilate each other, and commute with A.  A sum
    farther than ``_SUM_TOL`` from I in the 2-norm raises
    ``SpectralError``: a Jordan block whose computed eigenvalues scatter
    beyond ``cluster_tol`` splits into simple clusters whose rank tests
    pass, and only the sum shows it.
    """
    structure = eigen_structure(a, cluster_tol)
    a = np.asarray(a, dtype=float)  # checked by eigen_structure
    gap = _min_cluster_gap([c.value for c in structure.clusters])
    out = []
    for c in structure.clusters:
        try:
            proj = _cluster_projector(a, c.value, c.index, c.algebraic_multiplicity)
        except SpectralError as exc:
            raise SpectralError(f"{exc} (smallest cluster gap: {gap:.3e})") from None
        out.append((c, proj))
    residual = operator_norm(sum(p for _, p in out) - np.eye(len(a)))
    if not residual <= _SUM_TOL:
        raise SpectralError(
            f"the projectors sum to I only within {residual:.3e} (smallest cluster gap: "
            f"{gap:.3e}, cluster_tol={structure.cluster_tol:.3e}); eigenvalues split "
            "beyond cluster_tol, a larger one may merge them"
        )
    return out


# ---------------------------------------------------------------------------
# serialization


def _complex_to_json(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _cluster_to_json(c: EigenCluster) -> dict:
    return {
        "value": _complex_to_json(c.value),
        "modulus": c.modulus,
        "algebraic_multiplicity": c.algebraic_multiplicity,
        "index": c.index,
        "semisimple": c.semisimple,
    }


def _cluster_from_json(d: dict) -> EigenCluster:
    return EigenCluster(
        value=complex(d["value"]["re"], d["value"]["im"]),
        modulus=float(d["modulus"]),
        algebraic_multiplicity=int(d["algebraic_multiplicity"]),
        index=int(d["index"]),
        semisimple=bool(d["semisimple"]),
    )


def report_to_dict(report: ConvergenceReport) -> dict:
    return {
        "status": report.status,
        "limit": None if report.limit is None else report.limit.tolist(),
        "spectral_radius": report.spectral_radius,
        "gamma": report.gamma,
        "subdominant_clusters": [_cluster_to_json(c) for c in report.subdominant_clusters],
        "optimal_rate_attained": report.optimal_rate_attained,
        "limit_is_orthogonal_projector": report.limit_is_orthogonal_projector,
        "warnings": list(report.warnings),
    }


def report_from_dict(d: dict) -> ConvergenceReport:
    return ConvergenceReport(
        status=str(d["status"]),
        limit=None if d["limit"] is None else np.asarray(d["limit"], dtype=float),
        spectral_radius=float(d["spectral_radius"]),
        gamma=float(d["gamma"]),
        subdominant_clusters=tuple(_cluster_from_json(c) for c in d["subdominant_clusters"]),
        optimal_rate_attained=bool(d["optimal_rate_attained"]),
        limit_is_orthogonal_projector=bool(d["limit_is_orthogonal_projector"]),
        warnings=tuple(d.get("warnings", ())),
    )
