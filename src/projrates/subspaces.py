"""Pairs of linear subspaces: principal angles, projectors, constructions.

Principal angles between subspaces U (dim p) and V (dim q), p <= q, are
the p stationary angles 0 <= theta_1 <= ... <= theta_p <= pi/2 between
unit vectors of U and V.  The count of zero angles is dim(U intersect V),
and the first nonzero angle (the Friedrichs angle) controls the linear
rate of every projection iteration built from the pair.

``canonical_pair`` inverts the analysis: given any admissible angle list
it constructs, inside a seeded random orthonormal frame, a pair realizing
exactly those angles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class Subspace:
    """A linear subspace of R^n held as an orthonormal column basis.

    The zero subspace is allowed (a basis with zero columns).
    """

    basis: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.basis, dtype=float)
        if q.ndim != 2:
            raise ValueError(f"basis must be a 2-d array, got ndim {q.ndim}")
        if q.shape[1] > q.shape[0]:
            raise ValueError(f"basis has more columns than rows: {q.shape}")
        defect = np.linalg.norm(q.T @ q - np.eye(q.shape[1]))
        if not defect <= 1e-12:  # a NaN entry makes the defect NaN
            raise ValueError(
                f"basis columns are not orthonormal (defect {defect:.2e}); "
                "use subspace_from_spanning to orthonormalize"
            )
        object.__setattr__(self, "basis", q)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def subspace_from_spanning(m: np.ndarray) -> Subspace:
    """Column span of an arbitrary matrix as a Subspace (SVD orthonormalization).

    Singular values at most ``max(m.shape) * eps * sigma_max`` count as zero,
    so a zero matrix yields the zero subspace.
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    rank_tol = max(m.shape) * EPS * (s[0] if s.size else 0.0)
    r = int(np.count_nonzero(s > rank_tol))
    return Subspace(u[:, :r])


def projector(space: Subspace) -> np.ndarray:
    """Orthogonal projector onto the subspace."""
    q = space.basis
    return q @ q.T


@dataclass(frozen=True, eq=False)
class PrincipalFrame:
    """Principal coordinates of a pair: the basis in which every projection
    scheme is block diagonal (Halmos' two-subspace theorem).

    ``u`` (n x p) holds the principal vectors of U; its first ``s`` columns
    span U ∩ V, which every scheme fixes.  For each of the ``K = p - s``
    nonzero angles theta_k, the plane of u_k and w_k (column k of ``w``, the
    unit vector along the U-perp part of v_k) carries ``P_U = [[1, 0], [0, 0]]``
    and ``P_V = [[c^2, cs], [cs, s^2]]`` with ``c, s = cos, sin theta_k``.
    ``e`` (n x (q - p)) is an orthonormal basis of V ∩ U-perp (P_U = 0,
    P_V = 1); what is left of a point lies in (U + V)-perp (P_U = P_V = 0).
    Together ``u``, ``w`` and ``e`` are an orthonormal basis of U + V.
    """

    s: int
    u: np.ndarray  # n x p: the principal vectors of U
    w: np.ndarray  # n x K: w_k for each nonzero angle
    e: np.ndarray  # n x (q - p): a basis of V ∩ U-perp
    cos: np.ndarray  # K cosines of the nonzero angles
    sin: np.ndarray  # K sines of the nonzero angles
    # the bytes and the memo of the last start (``start``), replaced as one pair
    _last: list = field(default_factory=lambda: [(None, None)], init=False, repr=False)

    def split(self, x: np.ndarray) -> tuple:
        """Principal coordinates of ``x``: along ``u``, ``w`` and ``e``, and
        the remainder in (U + V)-perp as a vector."""
        along_u, along_w, in_extra = self.u.T @ x, self.w.T @ x, self.e.T @ x
        return along_u, along_w, in_extra, x - self.join(along_u, along_w, in_extra, 0.0)

    def start(self, x: np.ndarray) -> dict:
        """The memo of the float64 start ``x``: ``split(x)`` under "parts",
        each part read-only, and room for what callers derive from those
        parts alone.  The frame keeps the memo of the last start it was
        given, keyed by the bytes of ``x`` and not by its identity, so a
        start changed in place is split again, and the methods run one
        after the other from one start split it once."""
        key = x.tobytes()
        last, memo = self._last[0]
        if last != key:
            parts = self.split(x)
            for part in parts:
                part.flags.writeable = False
            memo = {"parts": parts}
            self._last[0] = key, memo
        return memo

    def join(self, along_u, along_w, in_extra, rest) -> np.ndarray:
        """Inverse of ``split``."""
        return self.u @ along_u + self.w @ along_w + self.e @ in_extra + rest


@dataclass(frozen=True, eq=False)
class PairGeometry:
    """Everything the projection methods need about one subspace pair.

    Conventions: ``U`` is the smaller subspace (inputs are swapped if
    needed), both are proper and nontrivial, and ``angles`` are the
    ``p = dim U`` principal angles in ascending order, of which the ``s``
    at most ``zero_tol`` count as zero.  ``theta_F`` is None exactly when U
    is contained in V; it and ``theta_p`` are read off the angles once.  The
    bases and the angles are the whole pair: ``frame``, the intersection
    ``M`` it decides, and the projectors ``P_U``, ``P_V`` and ``P_M`` (onto
    ``M``, the zero matrix when it is trivial) are built from them on first
    use.
    """

    U: Subspace
    V: Subspace
    angles: np.ndarray
    s: int
    zero_tol: float = 1e-8

    @cached_property
    def theta_F(self) -> float | None:
        return float(self.angles[self.s]) if self.s < self.p else None

    @cached_property
    def theta_p(self) -> float:
        return float(self.angles[-1])

    @property
    def p(self) -> int:
        return self.U.dim

    @property
    def q(self) -> int:
        return self.V.dim

    @property
    def ambient_dim(self) -> int:
        return self.U.ambient_dim

    @cached_property
    def P_U(self) -> np.ndarray:
        return projector(self.U)

    @cached_property
    def P_V(self) -> np.ndarray:
        return projector(self.V)

    @cached_property
    def M(self) -> Subspace:
        """U ∩ V: the first s principal vectors of U in ``frame``."""
        return Subspace(self.frame.u[:, : self.s])

    @cached_property
    def P_M(self) -> np.ndarray:
        return projector(self.M)

    @cached_property
    def frame(self) -> PrincipalFrame:
        """The pair's principal coordinates, built on first use from the SVD
        of Q_U^T Q_V.  U ∩ V is decided here and nowhere else: ``M`` is the
        span of the first s columns of ``frame.u``.

        That SVD gives u_k and v_k, and w_k = (v_k - c u_k) / s is exact to
        about EPS / s^2, which is enough for sin(theta) >= 1/8.  Below that
        the cosines cluster near 1, and the SVD pairs u_k with v_k too
        loosely; next to such an angle it also tilts U ∩ V, since it cannot
        tell cos 0 from cos theta_F.  So when k nonzero angles have
        sin(theta) < 1/8, the whole cluster, the s zero angles and those k,
        is re-paired from the SVD of the U-perp parts of its v's (n x
        (s + k)), as ``pair_geometry`` measures small angles from the sines:
        the s directions of zero sine span U ∩ V, the next k give the
        w_k.
        """
        qu, qv = self.U.basis, self.V.basis
        left, _, right_t = np.linalg.svd(qu.T @ qv)
        p, s = self.p, self.s
        cos, sin = np.cos(self.angles[s:]), np.sin(self.angles[s:])
        k = int(np.count_nonzero(sin < 0.125))
        u, e = qu @ left, qv @ right_t[p:].T
        w = (qv @ right_t[s + k : p].T - u[:, s + k :] * cos[k:]) / sin[k:]
        if k:
            r = s + k  # the re-paired cluster
            y = qv @ right_t[:r].T
            for _ in range(2):  # the U-perp parts, orthogonal to U to working precision
                y -= qu @ (qu.T @ y)
            # and to the other w's and V ∩ U-perp, whose rounding is large
            # next to sin(theta)
            y -= w @ (w.T @ y) + e @ (e.T @ y)
            y, _, zt = np.linalg.svd(y, full_matrices=False)
            w = np.hstack([y[:, ::-1][:, s:], w])  # ascending sines, like the angles
            u[:, :r] = qu @ (left[:, :r] @ zt[::-1].T)
        return PrincipalFrame(s=s, u=u, w=w, e=e, cos=cos, sin=sin)


def pair_geometry(u: Subspace, v: Subspace, zero_tol: float = 1e-8) -> PairGeometry:
    """Measure a pair of subspaces into a PairGeometry.

    The p = min(dim U, dim V) principal angles come out ascending.  Their
    cosines are the singular values of Q_U^T Q_V.  Angles below pi/4 are
    recovered from the sines (singular values of (I - P_U) Q_V) instead of
    from arccos, which cannot resolve small angles in double precision.
    """
    # every principal angle is at most pi/2: a tolerance that large would
    # call every pair nested
    if not 0.0 <= zero_tol < np.pi / 2:
        raise ValueError(f"zero_tol must be >= 0 and below pi/2, got {zero_tol!r}")
    if u.ambient_dim != v.ambient_dim:
        raise ValueError(f"ambient dimensions differ: {u.ambient_dim} vs {v.ambient_dim}")
    for name, space in (("first", u), ("second", v)):
        if space.dim == 0:
            raise ValueError(f"{name} subspace is the zero subspace; angles undefined")
        if space.dim == space.ambient_dim:
            raise ValueError(f"{name} subspace is the full space; angles undefined")
    if u.dim > v.dim:
        u, v = v, u
    qu, qv = u.basis, v.basis
    overlap = qu.T @ qv
    cosines = np.clip(np.linalg.svd(overlap, compute_uv=False), 0.0, 1.0)  # descending
    sines = np.sort(np.linalg.svd(qv - qu @ overlap, compute_uv=False))[: u.dim]
    sines = np.clip(sines, 0.0, 1.0)
    angles = np.where(cosines**2 >= 0.5, np.arcsin(sines), np.arccos(cosines))
    s = int(np.count_nonzero(angles <= zero_tol))
    return PairGeometry(U=u, V=v, angles=angles, s=s, zero_tol=zero_tol)


def haar_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix (QR of a Gaussian, signs fixed)."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    return q * d


def canonical_pair(
    n: int,
    angles,
    q: int | None = None,
    seed: int | np.random.Generator = 0,
) -> tuple[Subspace, Subspace]:
    """Construct a pair of subspaces with prescribed principal angles.

    Inside a Haar-random orthonormal frame ``d_1, ..., d_n`` the pair is

        U = span(d_1, ..., d_p)
        V = span(cos(t_k) d_k + sin(t_k) d_{p+k} for k <= p,
                 d_{2p+1}, ..., d_{p+q})

    which realizes exactly the requested angles ``t_1 <= ... <= t_p``
    (zeros allowed, pi/2 allowed) between U and V; the corresponding
    projectors are 2x2 block rotations in the (d_k, d_{p+k}) planes.

    Requires ``p <= q`` and ``p + q <= n``.
    """
    angles = np.asarray(angles, dtype=float)
    p = angles.size
    if q is None:
        q = p
    if p < 1:
        raise ValueError("need at least one angle")
    if not np.all((angles >= 0) & (angles <= np.pi / 2 + 1e-15)):  # NaN fails too
        raise ValueError("angles must lie in [0, pi/2]")
    if np.any(np.diff(angles) < 0):
        raise ValueError("angles must be ascending")
    if not p <= q:
        raise ValueError(f"need p <= q, got p={p}, q={q}")
    if p + q > n:
        raise ValueError(f"need p + q <= n, got p={p}, q={q}, n={n}")

    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    frame = haar_orthogonal(n, rng)
    qu = frame[:, :p]
    qv = np.hstack(
        [qu * np.cos(angles) + frame[:, p : 2 * p] * np.sin(angles), frame[:, 2 * p : p + q]]
    )
    return Subspace(qu), Subspace(qv)


# ---------------------------------------------------------------------------
# serialization


def geometry_to_dict(geom: PairGeometry) -> dict:
    return {
        "p": geom.p,
        "q": geom.q,
        "angles": [float(a) for a in geom.angles],
        "s": geom.s,
        "zero_tol": geom.zero_tol,
        "theta_F": geom.theta_F,
        "theta_p": geom.theta_p,
        "U": geom.U.basis.tolist(),
        "V": geom.V.basis.tolist(),
    }
