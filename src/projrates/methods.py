"""Projection methods for finding the intersection of two subspaces.

Seven schemes built from the projectors P_U, P_V of a measured pair:

    T:mu   relaxed alternating projections   (1-mu) I + mu P_U P_V
    S:mu   partial relaxed variant           (1-mu) P_U + mu P_U P_V
    R:mu   relaxed Douglas-Rachford          (1-mu) I + mu (P_U P_V + P_Uc P_Vc)
    MAP    alternating projections, T at mu=1
    DR     Douglas-Rachford, R at mu=1 (monitored through its P_V shadow)
    BT     S with the step size chosen by exact line search at each iterate
    AT     T with the step size chosen by exact line search at each iterate

Each linear scheme converges to the orthogonal projection onto U ∩ V for
mu inside an interval determined by the principal angles, at a linear rate
given in closed form by the subdominant eigenvalue of the iteration matrix.
``predict_rate`` evaluates those formulas; ``iterate`` runs the scheme with
the stopping rule "distance of the monitored point to U ∩ V <= eps".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .subspaces import PairGeometry, subspace_from_spanning

EPS = float(np.finfo(float).eps)

RELAXED_KINDS = ("T", "S", "R")
FIXED_KINDS = ("MAP", "DR", "BT", "AT")
KINDS = RELAXED_KINDS + FIXED_KINDS

#: kinds whose monitored sequence is the P_V shadow of the orbit
SHADOW_KINDS = ("R", "DR")


class DivergenceError(RuntimeError):
    """The monitored distance blew up; the scheme is not convergent here."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class MethodSpec:
    """A method selection: kind plus (for T/S/R) a relaxation parameter.

    ``mu=None, best=True`` defers the parameter to the measured angles of
    the pair the method is run on.
    """

    kind: str
    mu: float | None = None
    best: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown method kind {self.kind!r}; expected one of {KINDS}")
        if self.kind in RELAXED_KINDS:
            if self.best == (self.mu is not None):
                raise ValueError(
                    f"{self.kind} needs exactly one of a numeric mu or 'best'"
                )
        elif self.mu is not None or self.best:
            raise ValueError(f"{self.kind} does not take a relaxation parameter")

    @property
    def label(self) -> str:
        if self.kind in FIXED_KINDS:
            return self.kind
        return f"{self.kind}:best" if self.best else f"{self.kind}:{self.mu:g}"


def parse_method(text: str) -> MethodSpec:
    """Parse a method string such as "MAP", "T:0.8", or "S:best"."""
    head, sep, arg = text.strip().partition(":")
    kind = head.upper()
    if kind not in KINDS:
        raise ValueError(f"unknown method {text!r}; expected one of {', '.join(KINDS)}")
    if not sep:
        if kind in RELAXED_KINDS:
            raise ValueError(f"{kind} needs a parameter: {kind}:MU or {kind}:best")
        return MethodSpec(kind)
    if kind in FIXED_KINDS:
        raise ValueError(f"{kind} does not take a parameter (got {text!r})")
    if arg.lower() == "best":
        return MethodSpec(kind, best=True)
    try:
        mu = float(arg)
    except ValueError:
        raise ValueError(f"could not parse relaxation parameter {arg!r} in {text!r}")
    return MethodSpec(kind, mu=mu)


def _require_angle(geom: PairGeometry):
    if geom.theta_F is None:
        raise ValueError(
            "one subspace is contained in the other (all principal angles zero); "
            "a single projection reaches the intersection, no iteration is needed"
        )


def best_parameter(kind: str, geom: PairGeometry) -> tuple[float | None, float]:
    """Optimal relaxation parameter and the rate it attains.

    For MAP/DR (no free parameter) returns (None, own rate); BT/AT match
    the best rate of S without knowing the angles.
    """
    _require_angle(geom)
    t_f = math.sin(geom.theta_F) ** 2
    t_p = math.sin(geom.theta_p) ** 2
    if kind == "T":
        return 2.0 / (1.0 + t_f), (1.0 - t_f) / (1.0 + t_f)
    if kind == "S":
        return 2.0 / (t_f + t_p), (t_p - t_f) / (t_f + t_p)
    if kind == "R":
        return 1.0, math.cos(geom.theta_F)
    if kind == "MAP":
        return None, math.cos(geom.theta_F) ** 2
    if kind == "DR":
        return None, math.cos(geom.theta_F)
    if kind in ("BT", "AT"):
        return None, (t_p - t_f) / (t_f + t_p)
    raise ValueError(f"unknown method kind {kind!r}")


def resolve_mu(spec: MethodSpec, geom: PairGeometry) -> float | None:
    """The numeric relaxation parameter this spec uses on this pair."""
    if spec.kind in ("MAP", "DR"):
        return 1.0
    if spec.kind in ("BT", "AT"):
        return None
    if spec.best:
        return best_parameter(spec.kind, geom)[0]
    return spec.mu


def _subdominant_modulus(kind: str, mu: float, geom: PairGeometry) -> float:
    """Largest non-unit eigenvalue modulus of the iteration matrix.

    Exact for every mu >= 0: the eigenvalues are monotone images of
    sin^2(theta) over [theta_F, theta_p] plus structural constants, so the
    maximum modulus is always attained at an endpoint.
    """
    _require_angle(geom)
    if mu == 0.0:
        # T_0 = R_0 = I and S_0 = P_U; no eigenvalue besides 1 and 0
        return 0.0
    t_f = math.sin(geom.theta_F) ** 2
    t_p = math.sin(geom.theta_p) ** 2
    if kind == "T":
        return max(abs(1.0 - mu * t_f), abs(1.0 - mu))
    if kind == "S":
        return max(abs(1.0 - mu * t_f), abs(1.0 - mu * t_p))
    if kind == "R":
        candidates = [
            math.sqrt(max(mu * (2.0 - mu) * (1.0 - t) + (1.0 - mu) ** 2, 0.0))
            for t in (t_f, t_p)
        ]
        if geom.q > geom.p:
            candidates.append(abs(1.0 - mu))
        return max(candidates)
    raise ValueError(f"no linear iteration matrix for kind {kind!r}")


def convergence_interval(kind: str, geom: PairGeometry) -> tuple[float, float]:
    """Mu-interval [lo, hi) on which the scheme's matrix powers converge.

    Convergence to the intersection needs mu strictly inside; at mu = 0 the
    map is the identity (or P_U for S) and goes nowhere useful.  BT and AT
    choose their own step and always converge.
    """
    if kind in ("T", "R", "MAP", "DR"):
        return 0.0, 2.0
    if kind == "S":
        t_p = math.sin(geom.theta_p) ** 2
        return 0.0, (2.0 / t_p if t_p > 0 else math.inf)
    if kind in ("BT", "AT"):
        return 0.0, math.inf
    raise ValueError(f"unknown method kind {kind!r}")


def perp_intersection_projector(geom: PairGeometry) -> np.ndarray:
    """Orthogonal projector onto (U + V)-perp, i.e. U-perp ∩ V-perp."""
    q = subspace_from_spanning(np.hstack([geom.U.basis, geom.V.basis])).basis
    return np.eye(geom.ambient_dim) - q @ q.T


def build_operator(spec: MethodSpec, geom: PairGeometry) -> np.ndarray:
    """Iteration matrix of a linear scheme (BT/AT have none)."""
    if spec.kind in ("BT", "AT"):
        raise ValueError(f"{spec.kind} is nonlinear; it has no fixed iteration matrix")
    mu = resolve_mu(spec, geom)
    eye = np.eye(geom.ambient_dim)
    puv = geom.P_U @ geom.P_V
    if spec.kind in ("T", "MAP"):
        return (1.0 - mu) * eye + mu * puv
    if spec.kind == "S":
        return (1.0 - mu) * geom.P_U + mu * puv
    dr = puv + (eye - geom.P_U) @ (eye - geom.P_V)
    return (1.0 - mu) * eye + mu * dr


def limit_projector(spec: MethodSpec, geom: PairGeometry) -> np.ndarray:
    """Limit of the scheme's matrix powers on its convergence interval.

    T and S converge to the intersection projector; R and DR fix the
    larger space (U ∩ V) + (U-perp ∩ V-perp), and it is their P_V shadow
    that lands on the intersection.
    """
    if spec.kind in SHADOW_KINDS:
        return geom.P_M + perp_intersection_projector(geom)
    return geom.P_M


@dataclass(frozen=True)
class RatePrediction:
    """Closed-form convergence facts for one method on one pair."""

    method: str
    mu: float | None
    gamma: float
    convergent: bool  # matrix powers converge (always for BT/AT)
    solves: bool  # monitored sequence reaches the intersection projection
    best_mu: float | None
    best_rate: float
    limit: np.ndarray | None = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "mu": self.mu,
            "gamma": self.gamma,
            "convergent": self.convergent,
            "solves": self.solves,
            "best_mu": self.best_mu,
            "best_rate": self.best_rate,
            "limit": None if self.limit is None else self.limit.tolist(),
        }


def predict_rate(spec: MethodSpec, geom: PairGeometry) -> RatePrediction:
    """Predicted rate, convergence verdict, and limit for a method on a pair."""
    _require_angle(geom)
    best_mu, best_rate = best_parameter(spec.kind, geom)
    if spec.kind in ("BT", "AT"):
        return RatePrediction(
            method=spec.label,
            mu=None,
            gamma=best_rate,
            convergent=True,
            solves=True,
            best_mu=best_mu,
            best_rate=best_rate,
            limit=geom.P_M,
        )
    base_kind = {"MAP": "T", "DR": "R"}.get(spec.kind, spec.kind)
    mu = resolve_mu(spec, geom)
    gamma = _subdominant_modulus(base_kind, mu, geom)
    lo, hi = convergence_interval(base_kind, geom)
    convergent = lo <= mu < hi
    solves = lo < mu < hi
    if not convergent:
        limit = None
    elif mu == 0.0:
        limit = geom.P_U.copy() if base_kind == "S" else np.eye(geom.ambient_dim)
    else:
        limit = limit_projector(spec, geom)
    return RatePrediction(
        method=spec.label,
        mu=mu,
        gamma=gamma,
        convergent=convergent,
        solves=solves,
        best_mu=best_mu,
        best_rate=best_rate,
        limit=limit,
    )


# ---------------------------------------------------------------------------
# iteration


def adaptive_step(spec: MethodSpec, geom: PairGeometry, x: np.ndarray) -> tuple[np.ndarray, float]:
    """One BT or AT step: move along the scheme's line to the point nearest
    the intersection.

    The search direction w is orthogonal to U ∩ V, so the minimizing step
    is <w, x>/||w||^2 even though the intersection is unknown.  When w
    vanishes the iterate is already optimal on its line and the plain
    mu = 1 step is taken.
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


@dataclass(frozen=True)
class IterationTrace:
    """Record of one run: monitored distances and the stopping outcome.

    ``distances[n]`` is the distance of the n-th monitored point to the
    intersection (n = 0 is the starting point, before any step).
    ``iterations`` is the first n meeting the tolerance, or None.
    """

    method: str
    mu: float | None
    distances: np.ndarray
    mu_history: tuple
    solved: bool
    iterations: int | None
    x_final: np.ndarray = field(repr=False)

    def write_csv(self, fh) -> None:
        fh.write("n,distance,mu\n")
        for n, d in enumerate(self.distances):
            if n == 0:
                mu = ""
            elif self.mu_history:
                mu = repr(float(self.mu_history[n - 1]))
            else:
                mu = "" if self.mu is None else repr(float(self.mu))
            fh.write(f"{n},{float(d)!r},{mu}\n")


def iterate(
    spec: MethodSpec,
    geom: PairGeometry,
    x0: np.ndarray,
    eps: float = 0.01,
    max_iter: int = 100000,
) -> IterationTrace:
    """Run a method until the monitored point is within eps of U ∩ V.

    R and DR monitor the P_V shadow of the orbit; all other schemes monitor
    the orbit itself.  The starting point counts as iteration 0.  Raises
    DivergenceError if the monitored distance grows past 1e12 times its
    starting value.
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
        if d > blowup:
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


def fit_rate(distances: np.ndarray, floor: float = 1e-13) -> float | None:
    """Least-squares slope of log(distance): the empirical contraction factor.

    Returns None when fewer than three distances sit above the noise floor.
    """
    d = np.asarray(distances, dtype=float)
    mask = d > floor
    if int(mask.sum()) < 3:
        return None
    idx = np.nonzero(mask)[0]
    slope = np.polyfit(idx.astype(float), np.log(d[idx]), 1)[0]
    return float(math.exp(slope))


# ---------------------------------------------------------------------------
# guarantee checks for the adaptive schemes


def _adaptive_bound_ratio(
    kind: str, geom: PairGeometry, x0: np.ndarray, n_max: int
) -> float:
    """Worst observed ratio of distance to its guaranteed envelope.

    BT from any start contracts at least by gamma_s per step after a first
    step bounded by cos(theta_F) (by gamma_s itself when the start lies in
    U); AT enjoys the same envelope once seeded with one plain alternating
    projection.  The envelope carries an additive allowance for the
    round-off floor of the line-search step size, which stalls the orbit
    near sqrt(eps) relative accuracy.
    """
    _require_angle(geom)
    t_f = math.sin(geom.theta_F) ** 2
    t_p = math.sin(geom.theta_p) ** 2
    gamma = (t_p - t_f) / (t_f + t_p)
    cos_f = math.cos(geom.theta_F)

    x0 = np.asarray(x0, dtype=float).ravel()
    d0 = float(np.linalg.norm(x0 - geom.P_M @ x0))
    # The step size <w,x>/||w||^2 loses all digits once the orbit is within
    # ~sqrt(eps/((1-gamma) sin^2 theta_F)) of the intersection, relative to
    # ||x0||; below that the orbit random-walks instead of contracting.  The
    # 64x margin covers the walk's excursion peaks while staying orders of
    # magnitude under the envelope wherever the guarantee has content.
    floor = 64.0 * math.sqrt(EPS / ((1.0 - gamma) * t_f)) * max(1.0, float(np.linalg.norm(x0)))

    if kind == "BT":
        in_u = float(np.linalg.norm(x0 - geom.P_U @ x0)) <= 1e-12 * max(
            1.0, float(np.linalg.norm(x0))
        )
        first_factor = gamma if in_u else cos_f
        x = x0
    else:  # AT started from one alternating-projection step
        x = geom.P_U @ (geom.P_V @ x0)
        first_factor = cos_f

    spec = MethodSpec(kind)
    worst = 0.0
    for n in range(1, n_max + 1):
        x, _ = adaptive_step(spec, geom, x)
        lhs = float(np.linalg.norm(x - geom.P_M @ x0))
        # BT: step n is within gamma^(n-1) * first_factor of the start's
        # distance; AT gains one extra contraction from the seeding step.
        exponent = n - 1 if kind == "BT" else n
        envelope = (gamma ** exponent) * first_factor * d0
        worst = max(worst, lhs / (envelope + floor))
    return worst


def verify_bt_bound(geom: PairGeometry, x0: np.ndarray, n_max: int = 50) -> tuple[bool, float]:
    """Check the BT distance guarantee along one orbit.

    Returns (passed, worst ratio of observed distance to the envelope);
    passes when the worst ratio is at most 1 + 1e-9.
    """
    worst = _adaptive_bound_ratio("BT", geom, x0, n_max)
    return worst <= 1.0 + 1e-9, worst


def verify_at_bound(geom: PairGeometry, x0: np.ndarray, n_max: int = 50) -> tuple[bool, float]:
    """Check the AT guarantee for an orbit seeded with one MAP step."""
    worst = _adaptive_bound_ratio("AT", geom, x0, n_max)
    return worst <= 1.0 + 1e-9, worst
