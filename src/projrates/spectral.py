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
import warnings
from dataclasses import dataclass

import numpy as np

from .subspaces import EPS


class SpectralError(ValueError):
    """Raised when the spectral structure cannot be resolved reliably."""


class NotConvergentError(SpectralError):
    """Raised when an operation requires convergent powers but A has none."""


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
    rank_tol_policy: str


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


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(a, 2))


def default_rank_tol(n: int) -> float:
    return 100 * n * EPS


def _check_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


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


def _cluster_index(a: np.ndarray, value: complex, mult: int, rank_tol: float) -> int:
    """Smallest k with rank((A - value*I)^k) = n - mult."""
    n = a.shape[0]
    b = a.astype(complex) - value * np.eye(n)
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
    rank_tol: float


def _clustered_spectrum(
    a: np.ndarray, cluster_tol: float | None, rank_tol: float | None
) -> _Spectrum:
    """Eigenvalues of a checked square matrix, clustered and paired with
    their conjugates; see ``eigen_structure`` for the tolerances."""
    norm = operator_norm(a)
    if not math.isfinite(norm):
        raise ValueError(
            "the matrix norm overflows float64: ||A||_2 is not finite; scale the matrix down"
        )
    if cluster_tol is None:
        cluster_tol = 1e-7 * max(1.0, norm)
    if rank_tol is None:
        rank_tol = default_rank_tol(a.shape[0])
    if cluster_tol <= 0 or rank_tol <= 0:
        raise ValueError("tolerances must be positive")

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
    return _Spectrum(tuple(values), tuple(mults), tuple(partners), cluster_tol, rank_tol)


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
            index = _cluster_index(a, value, mult, spectrum.rank_tol)
        out[i] = EigenCluster(value, abs(value), mult, index, index == 1)
    return out


def eigen_structure(
    a: np.ndarray,
    cluster_tol: float | None = None,
    rank_tol: float | None = None,
) -> EigenStructure:
    """Cluster the spectrum of a real square matrix and resolve Jordan indices.

    Eigenvalues within ``cluster_tol`` of each other (single linkage) are
    treated as one eigenvalue, represented by their mean; means with
    ``|Im| <= cluster_tol`` are projected onto the real axis.  The index of
    each cluster comes from rank stabilization of powers of ``A - value*I``,
    with numerical ranks thresholded at ``rank_tol * ||A - value*I||^k``.
    Every cluster is resolved, so a cluster whose index the rank test
    cannot settle raises ``SpectralError``.

    Parameters
    ----------
    a : (n, n) array
    cluster_tol : float, optional
        Defaults to ``1e-7 * max(1, ||A||)``.
    rank_tol : float, optional
        Relative rank threshold, defaults to ``100 * n * eps``: enough
        headroom over eigensolver rounding in the cluster representative,
        still orders of magnitude below the cluster separation scale.
    """
    a = _check_square(a)
    spectrum = _clustered_spectrum(a, cluster_tol, rank_tol)
    clusters = tuple(_clusters(a, spectrum, range(len(spectrum.values))).values())
    policy = f"sigma > rank_tol * ||A - value*I||^k with rank_tol = {spectrum.rank_tol:.6e}"
    return EigenStructure(
        clusters=clusters, cluster_tol=spectrum.cluster_tol, rank_tol_policy=policy
    )


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


def subdominant_modulus(
    a: np.ndarray,
    cluster_tol: float | None = None,
    rank_tol: float | None = None,
) -> float:
    """Largest eigenvalue modulus after removing the eigenvalue 1 (0 if none);
    no Jordan index is resolved."""
    spectrum = _clustered_spectrum(_check_square(a), cluster_tol, rank_tol)
    return _subdominant(spectrum.values, spectrum.cluster_tol)[1]


# ---------------------------------------------------------------------------
# limits


def _projector_onto_kernel_along_range(
    b: np.ndarray, kdim: int, abs_tol: float | None = None, rank_tol: float = 0.0
) -> np.ndarray:
    """Projector onto ker(b) along ran(b); requires the two to be complementary.

    ``abs_tol`` is the absolute singular-value cutoff separating ran(b)
    from ker(b); callers scale it to the natural magnitude of b.  Without
    it the cutoff is ``rank_tol`` times the largest singular value of b,
    read from the SVD that splits it, but at least ``rank_tol``: b = A - I
    may be pure rounding noise.  The error carries the kernel dimension
    found as ``kernel_dim``.
    """
    n = b.shape[0]
    u, s, vh = np.linalg.svd(b)
    if abs_tol is None:
        abs_tol = rank_tol * max(float(s[0]), 1.0)
    r = int(np.count_nonzero(s > abs_tol))
    if n - r != kdim:
        err = SpectralError(
            f"kernel dimension {n - r} does not match the algebraic multiplicity "
            f"{kdim}; spectrum too poorly separated for a reliable projector"
        )
        err.kernel_dim = n - r
        raise err
    kernel = vh[r:].conj().T  # columns span ker(b)
    ran = u[:, :r]  # columns span ran(b)
    basis = np.hstack([kernel, ran])
    target = np.hstack([kernel, np.zeros((n, r), dtype=basis.dtype)])
    # P maps the kernel part to itself and the range part to zero
    return np.linalg.solve(basis.T, target.T).T


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


def classify_convergence(
    a: np.ndarray,
    cluster_tol: float | None = None,
    rank_tol: float | None = None,
    tol_circle: float = 1e-7,
) -> ConvergenceReport:
    """Decide whether A^k converges, and package limit, rate, and optimality.

    Convergent means: spectral radius < 1, or radius 1 attained only by a
    semisimple eigenvalue exactly equal to 1.  A modulus within
    ``tol_circle`` of 1 whose value differs from 1 is classified as not
    convergent and flagged as borderline, since no finite computation can
    settle that case.

    Only the unit cluster and the clusters at modulus ``gamma`` (with their
    conjugate partners) get a Jordan index, because the verdict reads no
    other; ``eigen_structure`` resolves every cluster.
    """
    a = _check_square(a)
    n = a.shape[0]
    spectrum = _clustered_spectrum(a, cluster_tol, rank_tol)
    values = spectrum.values
    moduli = [abs(v) for v in values]
    rho = max(moduli)
    unit, gamma, attaining = _subdominant(values, spectrum.cluster_tol)
    clusters = _clusters(a, spectrum, attaining if unit is None else [unit, *attaining])
    subdominant = tuple(clusters[i] for i in attaining)
    on_circle = [i for i, m in enumerate(moduli) if abs(m - 1.0) <= tol_circle]
    bad_circle = [i for i in on_circle if i != unit]

    notes: list[str] = []
    limit = None
    if bad_circle:
        notes.extend(
            f"borderline: |{values[i]}| = {moduli[i]:.12g} lies within "
            f"tol_circle={tol_circle:g} of 1 but the value is not 1"
            for i in bad_circle
        )
    elif rho > 1.0 + tol_circle:
        pass  # strictly expanding somewhere
    elif unit in on_circle:
        if not clusters[unit].semisimple:
            notes.append("eigenvalue 1 is defective (index > 1), powers do not converge")
        else:
            try:
                limit = _projector_onto_kernel_along_range(
                    a - np.eye(n), spectrum.mults[unit], rank_tol=spectrum.rank_tol
                )
            except SpectralError as exc:
                # an eigenvalue clustered at 1 whose kernel does not show up
                # at the rank tolerance: numerically indistinguishable from a
                # modulus just inside the circle, so refuse to classify it
                notes.append(
                    f"borderline: {values[unit]} lies within cluster_tol="
                    f"{spectrum.cluster_tol:g} of 1 but the value is not 1"
                    if exc.kernel_dim == 0 else f"borderline: {exc}"
                )
    elif rho < 1.0 - tol_circle:
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


def power_limit(
    a: np.ndarray,
    cluster_tol: float | None = None,
    rank_tol: float | None = None,
    tol_circle: float = 1e-7,
) -> np.ndarray:
    """Limit of A^k for a convergent matrix; raises NotConvergentError otherwise.

    Computed from the invariant-subspace bases of ``A - I`` (kernel and
    range), never by powering A.
    """
    report = classify_convergence(a, cluster_tol, rank_tol, tol_circle)
    if report.status != "convergent":
        raise NotConvergentError(
            "powers of A do not converge: " + "; ".join(report.warnings or ("spectrum outside the convergent region",))
        )
    return report.limit


def spectral_projectors(
    a: np.ndarray,
    cluster_tol: float | None = None,
    rank_tol: float | None = None,
) -> list[tuple[EigenCluster, np.ndarray]]:
    """Spectral projector of every eigen cluster.

    For a cluster at value v with index k, the projector maps onto
    ``ker((A - vI)^k)`` along ``ran((A - vI)^k)``.  Projectors of complex
    clusters are complex; they sum to the identity, annihilate each other,
    and commute with A.
    """
    a = _check_square(a)
    n = a.shape[0]
    spectrum = _clustered_spectrum(a, cluster_tol, rank_tol)
    out = []
    for c in _clusters(a, spectrum, range(len(spectrum.values))).values():
        b = a.astype(complex) - c.value * np.eye(n)
        bk = np.linalg.matrix_power(b, c.index)
        # cutoff at the power's natural scale ||B||^k, matching the index
        # search, and at least |value|^k when B is pure rounding noise
        abs_tol = spectrum.rank_tol * max(operator_norm(b), abs(c.value)) ** c.index
        try:
            proj = _projector_onto_kernel_along_range(bk, c.algebraic_multiplicity, abs_tol)
        except SpectralError as exc:
            gap = _min_cluster_gap(spectrum.values)
            raise SpectralError(f"{exc} (smallest cluster gap: {gap:.3e})") from None
        out.append((c, proj))
    return out


# ---------------------------------------------------------------------------
# empirical rate


def empirical_rate(
    a: np.ndarray,
    a_inf: np.ndarray,
    k_min: int | None = None,
    k_max: int = 60,
    floor: float = 1e-13,
) -> float:
    """Least-squares geometric rate fitted to ``||A^k - A_inf||`` over a window.

    Powers are formed by repeated multiplication and residual norms below
    ``floor`` are dropped (they sit in rounding noise and would flatten the
    fit).  The window defaults to ``k_min = max(5, k_max // 4)``.
    """
    a = _check_square(a)
    a_inf = np.asarray(a_inf, dtype=float)
    if a_inf.shape != a.shape:
        raise ValueError("limit shape does not match the matrix")
    if k_min is None:
        k_min = max(5, k_max // 4)
    if not (1 <= k_min < k_max):
        raise ValueError("need 1 <= k_min < k_max")

    ks, residuals = [], []
    power = np.eye(a.shape[0])
    dropped = 0
    for k in range(1, k_max + 1):
        power = power @ a
        if k < k_min:
            continue
        r = operator_norm(power - a_inf)
        if r <= floor:
            dropped += 1
            continue
        ks.append(k)
        residuals.append(r)
    if dropped:
        warnings.warn(
            f"empirical_rate: dropped {dropped} residuals at or below the "
            f"floor {floor:g}",
            stacklevel=2,
        )
    if len(ks) < 3:
        raise SpectralError(
            f"only {len(ks)} usable residuals in [{k_min}, {k_max}]; "
            "window too short or residuals underflow"
        )
    slope = np.polyfit(np.asarray(ks, dtype=float), np.log(residuals), 1)[0]
    return float(np.exp(slope))


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
