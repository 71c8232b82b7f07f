"""Independent reference implementations the test suite checks the package
against.

Everything here deliberately avoids the package's own code paths:
spectra come from characteristic-polynomial roots or from explicit
construction, projectors from normal equations, rates from renormalized
matrix squaring, statistics from first-principles formulas.  Five
exceptions keep a slow path of the package as the reference for its fast
one: ``dense_iterate``, the projection iteration as a dense loop over the
pair's projectors (``build_operator`` and the line-search step
``adaptive_step``), which checks the principal-coordinate engine behind
``iterate``, in the tests and over every linear run of the desk tables in
``check_tables.py``; ``bt_moment_loop``, BT in principal coordinates on
numpy arrays, which checks bit for bit the generated kernel BT runs on
pairs with at most ``_FLOAT_LOOP_MAX_K`` (64) nonzero angles, in the tests
and over whole benchmark runs in ``check_tables.py``; ``full_classify``, the
convergence verdict over the fully resolved ``eigen_structure``, which
checks the Jordan indices ``classify_convergence`` resolves on demand and,
through its own ``projector_onto_kernel_along_range``, the limit that
``_cluster_projector`` builds; ``complex_cluster_index``, the rank test of
a Jordan index in complex arithmetic, which checks the real-arithmetic test
``_cluster_index`` runs for a real eigenvalue; and ``loop_parse_matrix``,
the token-by-token matrix parser, which checks the per-row fast path of
``parse_matrix``.
"""

import dataclasses
import math

import numpy as np
import scipy.linalg

from projrates.matio import MatrixFormatError
from projrates.methods import (
    SHADOW_KINDS,
    DivergenceError,
    IterationTrace,
    MethodSpec,
    build_operator,
    resolve_mu,
)
from projrates.spectral import (
    ConvergenceReport,
    EigenStructure,
    SpectralError,
    default_rank_tol,
    eigen_structure,
    operator_norm,
)
from projrates.subspaces import PairGeometry, Subspace


def _orthonormal_columns(q: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt, twice, in the dtype of ``q``."""
    q = q.copy()
    for _ in range(2):
        for j in range(q.shape[1]):
            q[:, j] -= q[:, :j] @ (q[:, :j].T @ q[:, j])
            q[:, j] /= np.sqrt(q[:, j] @ q[:, j])
    return q


def extended_geometry(geom: PairGeometry) -> PairGeometry:
    """A copy of the pair whose P_U and P_V are in long double (64-bit
    significand on x86), from its bases re-orthonormalized in that
    precision, and whose P_M is the pair's own.  ``dense_iterate`` on it
    runs the dense loop with about 2000 times less round-off."""
    qu = _orthonormal_columns(geom.U.basis.astype(np.longdouble))
    qv = _orthonormal_columns(geom.V.basis.astype(np.longdouble))
    ext = dataclasses.replace(geom)
    # fill the cached projector properties of the copy
    ext.__dict__.update(P_U=qu @ qu.T, P_V=qv @ qv.T, P_M=geom.P_M.astype(np.longdouble))
    return ext


# ---------------------------------------------------------------------------
# spectra


def charpoly_coefficients(a: np.ndarray) -> np.ndarray:
    """Coefficients of det(tI - A), highest degree first (Faddeev-LeVerrier)."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    return coeffs


def spectrum_via_charpoly(a: np.ndarray) -> np.ndarray:
    """Eigenvalues as roots of the characteristic polynomial.

    Only trustworthy for small, well-conditioned matrices; use constructed
    spectra for anything larger.
    """
    return np.roots(charpoly_coefficients(a))


def sorted_moduli(values) -> np.ndarray:
    return np.sort(np.abs(np.asarray(values, dtype=complex)))


# ---------------------------------------------------------------------------
# constructed Jordan structures


def jordan_block(value: float, size: int) -> np.ndarray:
    return value * np.eye(size) + np.diag(np.ones(size - 1), 1)


def rotation_scaling_block(modulus: float, angle: float) -> np.ndarray:
    """Real 2x2 block with eigenvalues modulus*exp(+-i*angle)."""
    c, s = math.cos(angle), math.sin(angle)
    return modulus * np.array([[c, -s], [s, c]])


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def assemble(blocks, rng: np.random.Generator | None = None) -> np.ndarray:
    """Block-diagonal matrix, optionally conjugated by a random orthogonal."""
    a = scipy.linalg.block_diag(*blocks)
    if rng is None:
        return a
    q = random_orthogonal(a.shape[0], rng)
    return q @ a @ q.T


# ---------------------------------------------------------------------------
# rates from matrix powers


def squaring_rate(a: np.ndarray, a_inf: np.ndarray, doublings: int = 12) -> float:
    """lim ||A^k - A_inf||^(1/k), measured at k = 2^doublings.

    Uses (A - A_inf)^k = A^k - A_inf and renormalizes after each squaring,
    accumulating the log of the norm, so the dominant modulus is read off
    far beyond where direct powers underflow.
    """
    d = np.asarray(a, dtype=float) - np.asarray(a_inf, dtype=float)
    log_norm = 0.0
    for _ in range(doublings):
        nrm = np.linalg.norm(d, 2)
        if nrm == 0.0:
            return 0.0
        log_norm = 2.0 * (log_norm + math.log(nrm))
        d = (d / nrm) @ (d / nrm)
    nrm = np.linalg.norm(d, 2)
    if nrm == 0.0:
        return 0.0
    return math.exp((log_norm + math.log(nrm)) / 2 ** doublings)


# ---------------------------------------------------------------------------
# subspaces


def scipy_angles(u_basis: np.ndarray, v_basis: np.ndarray) -> np.ndarray:
    """Principal angles, ascending, via scipy.

    scipy floors angles near 0 at about sqrt(machine eps), so comparisons
    against exact-zero angles need atol ~1e-7.
    """
    return np.sort(scipy.linalg.subspace_angles(u_basis, v_basis))


def projector_via_normal_equations(spanning: np.ndarray) -> np.ndarray:
    """P = B (B^T B)^-1 B^T for a full-column-rank spanning matrix."""
    b = np.asarray(spanning, dtype=float)
    return b @ np.linalg.solve(b.T @ b, b.T)


def complement(space: Subspace) -> Subspace:
    """Orthogonal complement, from the full SVD of the basis."""
    n, p = space.basis.shape
    if p == 0:
        return Subspace(np.eye(n))
    u, _, _ = np.linalg.svd(space.basis, full_matrices=True)
    return Subspace(u[:, p:])


def distance_to_span(point: np.ndarray, spanning: np.ndarray) -> float:
    """Distance from a point to the column span, by least squares."""
    if spanning.size == 0:
        return float(np.linalg.norm(point))
    coef, *_ = np.linalg.lstsq(spanning, point, rcond=None)
    return float(np.linalg.norm(point - spanning @ coef))


# ---------------------------------------------------------------------------
# closed forms for small cases


def nonnormal_upper_example() -> tuple[np.ndarray, np.ndarray]:
    """3x3 convergent matrix whose subdominant eigenvalue 1/2 is defective.

    Powers converge to diag(1,0,0) but ||A^k - A_inf|| / 0.5^k grows without
    bound, so 0.5 is not itself a convergence rate.
    """
    a = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.5]])
    a_inf = np.diag([1.0, 0.0, 0.0])
    return a, a_inf


def nonnormal_upper_ratio(k: int) -> float:
    """Exact ||A^k - A_inf|| / 0.5^k for the matrix above.

    The scaled residual is [[1, 2k], [0, 1]] embedded in 3x3; its largest
    singular value is k + sqrt(k^2 + 1).
    """
    return k + math.sqrt(k * k + 1.0)


def map_two_lines_distances(theta: float, x0: np.ndarray, u: np.ndarray, v: np.ndarray):
    """Exact monitored-distance sequence for alternating projections onto
    two lines through the origin at angle theta.

    The intersection is {0}; after the first step the iterate lies on the
    U line and contracts by cos^2(theta) per step.
    """
    d = [float(np.linalg.norm(x0))]
    d.append(abs(math.cos(theta) * float(v @ x0)))
    return d, math.cos(theta) ** 2


def map_two_lines_count(theta: float, x0: np.ndarray, u: np.ndarray, v: np.ndarray,
                        eps: float, max_iter: int) -> int:
    """First n with the two-lines monitored distance at most eps."""
    d, factor = map_two_lines_distances(theta, x0, u, v)
    if d[0] <= eps:
        return 0
    n, current = 1, d[1]
    while current > eps and n < max_iter:
        current *= factor
        n += 1
    return n


# ---------------------------------------------------------------------------
# statistics from first principles


def textbook_median(values) -> float:
    xs = sorted(values)
    m = len(xs)
    if m % 2:
        return float(xs[m // 2])
    return (xs[m // 2 - 1] + xs[m // 2]) / 2.0


def textbook_mean(values) -> float:
    xs = list(values)
    return sum(xs) / len(xs)


def textbook_sample_std(values) -> float:
    xs = list(values)
    if len(xs) < 2:
        return 0.0
    m = sum(xs) / len(xs)
    return math.sqrt(sum((x - m) ** 2 for x in xs) / (len(xs) - 1))


# ---------------------------------------------------------------------------
# projection iterations


def adaptive_step(spec: MethodSpec, geom: PairGeometry, x: np.ndarray) -> tuple[np.ndarray, float]:
    """One BT or AT step: move along the scheme's line to the point nearest
    the intersection.

    The search direction w is orthogonal to U ∩ V, so the minimizing step
    is <w, x>/||w||^2 even though the intersection is unknown.  When w
    vanishes the iterate is already optimal on its line and the plain
    mu = 1 step is taken.

    w is formed densely, as the difference of nearly equal vectors, so the
    line search loses sin^2(theta_F) of the precision.  At theta_F = 1e-6
    (AT on ``canonical_pair(3, [1e-6], 1, seed)``, seeds 0-7) its second mu
    is off by about 1e-3 relative in float64 and 1e-7 in long double, against
    a 50-digit reference; the engine's is within 1e-10.  Hence the engine
    test runs ``dense_iterate`` on ``extended_geometry``.
    """
    puv = geom.P_U @ (geom.P_V @ x)
    if spec.kind == "BT":
        w = geom.P_U @ x - puv
    elif spec.kind == "AT":
        w = x - puv
    else:
        raise ValueError(f"{spec.kind} is not an adaptive method")
    ww = float(w @ w)
    if ww <= (1e-14 * float(np.linalg.norm(x))) ** 2 or ww == 0.0:
        return puv, 1.0
    mu = float(w @ x) / ww
    base = geom.P_U @ x if spec.kind == "BT" else x
    return base - mu * w, mu


def dense_iterate(
    spec: MethodSpec,
    geom: PairGeometry,
    x0: np.ndarray,
    eps: float = 0.01,
    max_iter: int = 100000,
) -> IterationTrace:
    """``iterate`` as a dense loop: two or three n x n matrix-vector products
    per step with the pair's projectors.

    Run a method until the monitored point is within eps of U ∩ V.

    R and DR monitor the P_V shadow of the orbit; all other schemes monitor
    the orbit itself.  The starting point counts as iteration 0.  Raises
    DivergenceError at the first monitored distance past 1e12 times
    max(1, its starting value) or NaN, as ``iterate`` does.
    """
    x = np.asarray(x0, dtype=float).ravel()
    if x.size != geom.ambient_dim:
        raise ValueError(f"x0 has dimension {x.size}, expected {geom.ambient_dim}")
    adaptive = spec.kind in ("BT", "AT")
    operator = None if adaptive else build_operator(spec, geom)
    mu = resolve_mu(spec, geom)
    shadow = spec.kind in SHADOW_KINDS
    p_m, p_v = geom.P_M, geom.P_V

    def distance(point: np.ndarray) -> float:
        z = p_v @ point if shadow else point
        return float(np.linalg.norm(z - p_m @ z))

    distances = [distance(x)]
    mu_history: list[float] = []
    blowup = 1e12 * max(1.0, distances[0])

    solved = distances[0] <= eps
    n = 0
    while not solved and n < max_iter:
        if adaptive:
            x, mu_n = adaptive_step(spec, geom, x)
            mu_history.append(mu_n)
        else:
            x = operator @ x
        n += 1
        d = distance(x)
        distances.append(d)
        if not d <= blowup:  # NaN too
            raise DivergenceError(
                f"{spec.label}: distance to the intersection reached {d:.3e} "
                f"at iteration {n}; the scheme does not converge here",
                step=n,
            )
        solved = d <= eps

    return IterationTrace(
        method=spec.label,
        mu=mu,
        distances=np.asarray(distances),
        mu_history=tuple(mu_history),
        solved=solved,
        iterations=n if solved else None,
        x_final=x,
    )


def bt_moment_loop(
    geom: PairGeometry, x0: np.ndarray, eps: float = 0.01, max_iter: int = 100000
) -> IterationTrace:
    """BT as ``iterate`` runs it in the pair's principal coordinates when
    K <= ``_FLOAT_LOOP_MAX_K``, with each moment sum(t^i a^2) taken as the
    last entry of an ``np.cumsum`` row, a sum in index order.

    The first step repeats the engine's expressions, so both enter the
    moment loop with the same bits.  After it a step scales the U-plane
    coordinates a by 1 - mu t, mu = m1 / m2 and t = sin^2 of the angles, or
    by cos^2 where m2 <= (1e-14 sqrt(m0 + |U ∩ V part|^2))^2 (mu = 1).
    """
    frame = geom.frame
    along_u, b, in_extra, rest = frame.split(np.asarray(x0, dtype=float).ravel())
    s, c, sn = frame.s, frame.cos, frame.sin
    a = along_u[s:].copy()
    fixed = float(along_u[:s] @ along_u[:s])
    other = float(in_extra @ in_extra + rest @ rest)
    distances = [math.sqrt(float(a @ a + b @ b) + other)]
    mus: list[float] = []
    scale = 1.0
    if max_iter > 0 and distances[0] > eps:
        wu = sn * (sn * a - c * b)
        ww, wx = float(wu @ wu), float(wu @ a)
        if ww <= (1e-14 * math.sqrt(float(a @ a) + float(b @ b) + other + fixed)) ** 2:
            mu, a = 1.0, c * (c * a + sn * b)
        else:
            mu = wx / ww
            a = a - mu * wu
        b, scale = np.zeros_like(b), 0.0
        mus.append(mu)
        distances.append(math.sqrt(float(a @ a)))
    t = sn * sn
    rows = np.stack([np.ones_like(t), t, t * t])
    m0, m1, m2 = np.cumsum(rows * (a * a), axis=1)[:, -1]
    while len(mus) < max_iter and distances[-1] > eps:
        if m2 <= (1e-14 * math.sqrt(m0 + fixed)) ** 2:
            mu, a = 1.0, a * (c * c)
        else:
            mu = float(m1 / m2)
            a = a * (1.0 - t * mu)
        m0, m1, m2 = np.cumsum(rows * (a * a), axis=1)[:, -1]
        mus.append(mu)
        distances.append(math.sqrt(m0))
    along_u = along_u.copy()
    along_u[s:] = a
    solved = distances[-1] <= eps
    return IterationTrace(
        method="BT",
        mu=None,
        distances=np.asarray(distances),
        mu_history=tuple(mus),
        solved=solved,
        iterations=len(mus) if solved else None,
        x_final=frame.join(along_u, b, in_extra * scale, rest * scale),
    )


# ---------------------------------------------------------------------------
# convergence verdicts


def union_find_groups(values, tol: float) -> list[list[int]]:
    """Single-linkage groups of complex values at distance <= tol, by
    union-find over every pair; groups ordered by first member."""
    m = len(values)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if abs(values[i] - values[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def loop_min_gap(values) -> float:
    gaps = [abs(x - y) for i, x in enumerate(values) for y in values[i + 1 :]]
    return min(gaps) if gaps else float("inf")


def _unit_cluster(struct: EigenStructure):
    for c in struct.clusters:
        if abs(c.value - 1.0) <= struct.cluster_tol:
            return c
    return None


def _gamma(struct: EigenStructure):
    """Subdominant modulus and the clusters attaining it."""
    unit = _unit_cluster(struct)
    rest = [c for c in struct.clusters if c is not unit]
    if not rest:
        return 0.0, ()
    gamma = max(c.modulus for c in rest)
    attaining = tuple(c for c in rest if abs(c.modulus - gamma) <= struct.cluster_tol)
    return gamma, attaining


def projector_onto_kernel_along_range(b: np.ndarray, kdim: int, abs_tol: float) -> np.ndarray:
    """Projector onto ker(b) along ran(b), with singular values of b above
    ``abs_tol`` spanning the range, from one SVD of b as the caller forms
    it.  Raises ``SpectralError`` carrying ``kernel_dim`` when the kernel
    found does not have dimension ``kdim``."""
    n = b.shape[0]
    u, s, vh = np.linalg.svd(b)
    r = int(np.count_nonzero(s > abs_tol))
    if n - r != kdim:
        err = SpectralError(
            f"kernel dimension {n - r} does not match the algebraic multiplicity "
            f"{kdim}; spectrum too poorly separated for a reliable projector"
        )
        err.kernel_dim = n - r
        raise err
    basis = np.hstack([vh[r:].conj().T, u[:, :r]])  # kernel, then range
    target = np.hstack([vh[r:].conj().T, np.zeros((n, r), dtype=basis.dtype)])
    return np.linalg.solve(basis.T, target.T).T


def full_classify(a: np.ndarray, cluster_tol: float | None = None) -> ConvergenceReport:
    """``classify_convergence`` over the full ``eigen_structure``: the Jordan
    index of every cluster is resolved, so a rank test that fails on any
    cluster raises ``SpectralError``, even one the report does not list."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    tol_circle = 1e-7
    struct = eigen_structure(a, cluster_tol)
    rho = max(c.modulus for c in struct.clusters)
    gamma, attaining = _gamma(struct)
    unit = _unit_cluster(struct)
    on_circle = [c for c in struct.clusters if abs(c.modulus - 1.0) <= tol_circle]
    bad_circle = [c for c in on_circle if c is not unit]

    notes: list[str] = []
    convergent = False
    if bad_circle:
        for c in bad_circle:
            notes.append(
                f"borderline: |{c.value}| = {c.modulus:.12g} lies within "
                f"tol_circle={tol_circle:g} of 1 but the value is not 1"
            )
    elif rho > 1.0 + tol_circle:
        pass  # strictly expanding somewhere
    elif unit is not None and on_circle:
        convergent = unit.semisimple
        if not unit.semisimple:
            notes.append("eigenvalue 1 is defective (index > 1), powers do not converge")
    else:
        # remaining case: every modulus < 1 - tol_circle
        convergent = rho < 1.0 - tol_circle

    limit = None
    is_orth = False
    if convergent:
        if unit is not None and on_circle:
            b = a - np.eye(n)
            try:
                # at least rank_tol: A - I may be pure rounding noise
                limit = projector_onto_kernel_along_range(
                    b, unit.algebraic_multiplicity,
                    default_rank_tol(n) * max(operator_norm(b), 1.0),
                )
            except SpectralError as exc:
                convergent = False
                if exc.kernel_dim == 0:
                    notes.append(
                        f"borderline: {unit.value} lies within cluster_tol="
                        f"{struct.cluster_tol:g} of 1 but the value is not 1"
                    )
                else:
                    notes.append(f"borderline: {exc}")
            else:
                limit = np.asarray(limit, dtype=float)
        else:
            limit = np.zeros((n, n))
    if not convergent:
        limit = None
    if limit is not None:
        scale = max(1.0, operator_norm(limit))
        is_orth = (
            operator_norm(limit - limit.T) <= 1e-9 * scale
            and operator_norm(limit @ limit - limit) <= 1e-9 * scale
        )

    optimal = bool(attaining) and all(c.semisimple for c in attaining)
    if not attaining:
        optimal = True  # spectrum is {1}: powers are eventually constant

    return ConvergenceReport(
        status="convergent" if convergent else "not_convergent",
        limit=limit,
        spectral_radius=rho,
        gamma=gamma,
        subdominant_clusters=attaining,
        optimal_rate_attained=optimal if convergent else False,
        limit_is_orthogonal_projector=is_orth,
        warnings=tuple(notes),
    )


def complex_cluster_index(a: np.ndarray, value: complex, mult: int, rank_tol: float) -> int:
    """``spectral._cluster_index`` with A - value*I always formed in complex
    arithmetic: the smallest k with rank((A - value*I)^k) = n - mult, ranks
    thresholded at rank_tol ||A - value*I||^k, SpectralError where the
    ranks fall short or do not settle within mult."""
    n = a.shape[0]
    b = a.astype(complex) - value * np.eye(n)
    sv = np.linalg.svd(b, compute_uv=False)
    smax = float(np.amax(sv))
    if smax <= rank_tol * abs(value):
        return 1
    bk = b
    for k in range(1, mult + 1):
        if k > 1:
            bk = bk @ b
            sv = np.linalg.svd(bk, compute_uv=False)
        r = int(np.count_nonzero(sv > rank_tol * smax**k))
        if r == n - mult:
            return k
        if r < n - mult:
            raise SpectralError(f"rank of (A - ({value})I)^{k} fell below n - multiplicity")
    raise SpectralError(f"rank of powers of A - ({value})I did not stabilize within {mult}")


def loop_parse_matrix(text: str, name: str = "<matrix>") -> np.ndarray:
    """The ``n m`` + rows format parsed one token at a time with ``float``,
    raising on the first problem with its line, row and column: the parser
    as it was before its per-row fast path."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            lines.append((lineno, stripped))
    if not lines:
        raise MatrixFormatError(f"{name}: empty file, expected an 'n m' header")

    header_lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise MatrixFormatError(
            f"{name}, line {header_lineno}: header must be 'n m', got {header!r}"
        )
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise MatrixFormatError(
            f"{name}, line {header_lineno}: header entries must be integers, got {header!r}"
        ) from None
    if n < 1 or m < 1:
        raise MatrixFormatError(f"{name}, line {header_lineno}: sizes must be positive")

    rows = lines[1:]
    if len(rows) != n:
        raise MatrixFormatError(
            f"{name}: expected {n} data rows after the header, found {len(rows)}"
        )

    out = np.empty((n, m), dtype=float)
    for i, (lineno, row) in enumerate(rows):
        entries = row.split()
        if len(entries) != m:
            raise MatrixFormatError(
                f"{name}, line {lineno} (row {i + 1}): expected {m} entries, found {len(entries)}"
            )
        for j, token in enumerate(entries):
            try:
                value = float(token)
            except ValueError:
                value = None
            if value is None or not math.isfinite(value):
                problem = "could not parse" if value is None else "non-finite entry"
                raise MatrixFormatError(
                    f"{name}, line {lineno} (row {i + 1}, col {j + 1}): "
                    f"{problem} {token!r}; expected a finite number"
                )
            out[i, j] = value
    return out
