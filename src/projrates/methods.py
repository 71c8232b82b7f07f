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
from array import array
from dataclasses import dataclass, field

import numpy as np

from .subspaces import EPS, PairGeometry

RELAXED_KINDS = ("T", "S", "R")
FIXED_KINDS = ("MAP", "DR", "BT", "AT")
KINDS = RELAXED_KINDS + FIXED_KINDS

#: kinds whose monitored sequence is the P_V shadow of the orbit
SHADOW_KINDS = ("R", "DR")
#: the relaxed family each fixed linear kind is the mu = 1 member of
_RELAXED_OF = {"MAP": "T", "DR": "R"}


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
        kind = self.kind
        if kind not in KINDS:
            raise ValueError(f"unknown method {kind!r}; expected one of {', '.join(KINDS)}")
        if kind in FIXED_KINDS:
            if self.mu is not None or self.best:
                raise ValueError(f"{kind} does not take a parameter")
        elif self.mu is None and not self.best:
            raise ValueError(f"{kind} needs a parameter: {kind}:MU or {kind}:best")
        elif self.best and self.mu is not None:
            raise ValueError(f"{kind} takes a numeric mu or 'best', not both")
        elif self.mu is not None and not math.isfinite(self.mu):
            raise ValueError(f"{kind} needs a finite mu, got mu={self.mu!r}")

    @property
    def label(self) -> str:
        if self.kind in FIXED_KINDS:
            return self.kind
        return f"{self.kind}:best" if self.best else f"{self.kind}:{self.mu:g}"


def parse_method(text: str) -> MethodSpec:
    """Parse a method string such as "MAP", "T:0.8", or "S:best"."""
    head, sep, arg = text.strip().partition(":")
    if not sep or arg.lower() == "best":
        return MethodSpec(head.upper(), best=bool(sep))
    try:
        mu = float(arg)
    except ValueError:
        raise ValueError(f"could not parse relaxation parameter {arg!r} in {text!r}")
    return MethodSpec(head.upper(), mu=mu)


def _sines_squared(geom: PairGeometry) -> tuple[float, float]:
    """sin^2 of the Friedrichs angle and of the largest principal angle.
    A nested pair has no nonzero angle and no closed form: ValueError."""
    if geom.theta_F is None:
        raise ValueError(
            "one subspace is contained in the other (all principal angles zero); "
            "a single projection reaches the intersection, no iteration is needed"
        )
    return math.sin(geom.theta_F) ** 2, math.sin(geom.theta_p) ** 2


def best_parameter(kind: str, geom: PairGeometry) -> tuple[float | None, float]:
    """Optimal relaxation parameter and the rate it attains.

    For MAP/DR (no free parameter) returns (None, own rate); BT/AT match
    the best rate of S without knowing the angles.
    """
    t_f, t_p = _sines_squared(geom)
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
    t_f, t_p = _sines_squared(geom)
    if mu == 0.0:
        # T_0 = R_0 = I and S_0 = P_U; no eigenvalue besides 1 and 0
        return 0.0
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
    """Orthogonal projector onto (U + V)-perp, i.e. U-perp ∩ V-perp: I - B B^T
    for the orthonormal basis B = [u, w, e] of U + V in ``geom.frame``, so
    U + V has the dimension p + q - s the frame decided."""
    f = geom.frame
    b = np.hstack([f.u, f.w, f.e])
    return np.eye(geom.ambient_dim) - b @ b.T


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


def limit_projector(spec: MethodSpec, geom: PairGeometry) -> np.ndarray | None:
    """Limit of the scheme's matrix powers, None where they do not converge.

    Inside the convergence interval T and S converge to the intersection
    projector; R and DR fix the larger space (U ∩ V) + (U-perp ∩ V-perp),
    and it is their P_V shadow that lands on the intersection.  At mu = 0
    the map is the identity (P_U for S).
    """
    if spec.kind in ("BT", "AT"):
        return geom.P_M
    base_kind = _RELAXED_OF.get(spec.kind, spec.kind)
    mu = resolve_mu(spec, geom)
    lo, hi = convergence_interval(base_kind, geom)
    if not lo <= mu < hi:
        return None
    if mu == 0.0:
        return geom.P_U.copy() if base_kind == "S" else np.eye(geom.ambient_dim)
    if spec.kind in SHADOW_KINDS:
        return geom.P_M + perp_intersection_projector(geom)
    return geom.P_M


@dataclass(frozen=True)
class RatePrediction:
    """Closed-form convergence facts for one method on one pair; the limit
    is ``limit_projector``."""

    method: str
    mu: float | None
    gamma: float
    convergent: bool  # matrix powers converge (always for BT/AT)
    solves: bool  # monitored sequence reaches the intersection projection
    best_mu: float | None
    best_rate: float


def predict_rate(spec: MethodSpec, geom: PairGeometry) -> RatePrediction:
    """Predicted rate and convergence verdict for a method on a pair."""
    best_mu, best_rate = best_parameter(spec.kind, geom)
    mu = resolve_mu(spec, geom)
    if mu is None:  # BT/AT choose their own step and always converge
        gamma, convergent, solves = best_rate, True, True
    else:
        kind = _RELAXED_OF.get(spec.kind, spec.kind)
        lo, hi = convergence_interval(kind, geom)
        gamma, convergent, solves = _subdominant_modulus(kind, mu, geom), lo <= mu < hi, lo < mu < hi
    return RatePrediction(spec.label, mu, gamma, convergent, solves, best_mu, best_rate)


# ---------------------------------------------------------------------------
# iteration


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
    DivergenceError if the monitored distance grows past 1e12 times
    max(1, its starting value).

    The orbit runs in the pair's principal coordinates (``geom.frame``):
    every scheme acts on one 2x2 block per nonzero angle and as a scalar on
    V ∩ U-perp and on (U + V)-perp, and fixes U ∩ V.  A step costs O(p)
    instead of a dense O(n^2) matrix-vector product; the linear schemes
    advance whole chunks of steps at once (``_linear_orbit``).
    """
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and >= 0, got {eps!r}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter!r}")
    x = np.asarray(x0, dtype=float).ravel()
    if x.size != geom.ambient_dim:
        raise ValueError(f"x0 has dimension {x.size}, expected {geom.ambient_dim}")
    if not np.all(np.isfinite(x)):
        bad = int(np.flatnonzero(~np.isfinite(x))[0])
        raise ValueError(f"x0 has a non-finite entry {float(x[bad])} at index {bad}")
    mu = resolve_mu(spec, geom)
    frame = geom.frame
    parts = frame.split(x)
    if spec.kind in ("BT", "AT"):
        orbit, mu_history, coords = _adaptive_orbit(spec, frame, parts, eps, max_iter)
    else:
        orbit, coords = _linear_orbit(spec, mu, frame, parts, eps, max_iter)
        mu_history = ()
    return IterationTrace(
        method=spec.label,
        mu=mu,
        distances=np.frombuffer(orbit.distances),
        mu_history=mu_history,
        solved=orbit.solved,
        iterations=len(orbit.distances) - 1 if orbit.solved else None,
        x_final=frame.join(*coords),
    )


class _Orbit:
    """The monitored distances of one run and its stopping rule: stop at
    the first step within eps, raise DivergenceError past 1e12 times
    max(1, the starting distance), give up after max_iter steps."""

    def __init__(self, label: str, d0: float, eps: float, max_iter: int):
        self.label, self.eps, self.max_iter = label, eps, max_iter
        self.blowup = 1e12 * max(1.0, d0)
        self.distances = array("d", [d0])

    def stops(self, d: float) -> bool:
        return d > self.blowup or d <= self.eps

    def left(self) -> int:
        """How many more steps the run may take."""
        return 0 if self.stops(self.distances[-1]) else self.max_iter + 1 - len(self.distances)

    def extend(self, d: np.ndarray) -> int:
        """Record the distances of the next steps up to the first that
        ``stops`` the run; returns how many steps were taken."""
        hit = np.flatnonzero((d > self.blowup) | (d <= self.eps))
        taken = int(hit[0]) + 1 if hit.size else d.size
        self.distances.frombytes(d[:taken].tobytes())
        return taken

    def settle(self) -> None:
        """Raise DivergenceError if the last distance blew up, else record
        whether the run ended within eps."""
        steps, d = len(self.distances) - 1, self.distances[-1]
        if d > self.blowup:
            raise DivergenceError(
                f"{self.label}: distance to the intersection reached {d:.3e} "
                f"at iteration {steps}; the scheme does not converge here",
                step=steps,
            )
        self.solved = d <= self.eps


#: a chunk of linear steps holds at most this many block-step states
_CHUNK_ELEMENTS = 1 << 16
#: steps in the first chunk of a linear run; later chunks double
_FIRST_CHUNK = 16


def _linear_orbit(spec, mu, frame, parts, eps, max_iter):
    """T/S/R/MAP/DR in principal coordinates.

    Row k < K holds the (u_k, w_k) coordinates of plane k, on which the
    scheme is the 2x2 block [[1 - mu s^2, mu c s], [b21, b22]]: b21, b22 are
    0, 1 - mu for T, 0, 0 for S and -mu c s, 1 - mu s^2 for R (a scaled
    rotation).  The last row holds the norms of the V ∩ U-perp part and of
    the (U + V)-perp remainder, which the scheme scales by (1 - mu, 1 - mu),
    (0, 0) and (1 - mu, 1) respectively.  A chunk of m steps is filled by
    doubling: the states at steps h..2h-1 are B^h times those at 0..h-1, with
    B^h from repeated squaring, so a chunk costs O(K m) multiplications in
    log2(m) batched 2x2 products.
    """
    along_u, along_w, in_extra, rest = parts
    s, c, sn = frame.s, frame.cos, frame.sin
    e_norm, r_norm = math.sqrt(in_extra @ in_extra), math.sqrt(rest @ rest)
    kind = _RELAXED_OF.get(spec.kind, spec.kind)
    rows = c.size + 1
    block = np.zeros((rows, 2, 2))
    block[:-1, 0, 0] = 1.0 - mu * sn * sn
    block[:-1, 0, 1] = mu * c * sn
    if kind == "T":
        block[:, 1, 1] = block[-1, 0, 0] = 1.0 - mu
    elif kind == "R":
        block[:-1, 1, 0] = -block[:-1, 0, 1]
        block[:-1, 1, 1] = block[:-1, 0, 0]
        block[-1, 0, 0], block[-1, 1, 1] = 1.0 - mu, 1.0
    powers = [block]  # B^(2^i)
    state = np.empty((rows, 2))
    state[:-1, 0], state[:-1, 1], state[-1] = along_u[s:], along_w, (e_norm, r_norm)

    if kind == "R":  # the P_V shadow: (c, s) . (u, w) in each plane, the V ∩ U-perp part
        weights = np.append(np.stack([c, sn], axis=1), [[1.0, 0.0]], axis=0)

        def monitored(states):
            shadow = np.einsum("rc,rct->rt", weights, states)
            return np.sqrt(np.einsum("rt,rt->t", shadow, shadow))
    else:

        def monitored(states):
            return np.sqrt(np.einsum("rct,rct->t", states, states))

    orbit = _Orbit(spec.label, float(monitored(state[:, :, None])[0]), eps, max_iter)
    size = _FIRST_CHUNK
    with np.errstate(over="ignore", invalid="ignore"):
        while m := min(size, orbit.left()):
            states = np.empty((rows, 2, m + 1))
            states[:, :, 0] = state
            h, i = 1, 0
            while h <= m:
                if i == len(powers):
                    powers.append(powers[-1] @ powers[-1])
                k = min(h, m + 1 - h)
                np.matmul(powers[i], states[:, :, :k], out=states[:, :, h : h + k])
                h, i = h + k, i + 1
            state = states[:, :, orbit.extend(monitored(states[:, :, 1:]))]
            size = min(2 * size, max(_FIRST_CHUNK, _CHUNK_ELEMENTS // rows))
    orbit.settle()

    along_u = along_u.copy()
    along_u[s:] = state[:-1, 0]
    e_end, r_end = state[-1]
    coords = (along_u, state[:-1, 1],
              in_extra * (e_end / e_norm if e_norm else 0.0),
              rest * (r_end / r_norm if r_norm else 0.0))
    return orbit, coords


def _adaptive_orbit(spec, frame, parts, eps, max_iter):
    """BT and AT in principal coordinates: the exact line-search step, to
    the point of the scheme's line nearest U ∩ V, on the (u_k, w_k)
    coordinates (a, b) of each plane and on the norm of the rest.

    In plane k the search direction of BT, P_U x - P_U P_V x, has u_k
    coordinate s (s a - c b) and no w_k part; AT's, x - P_U P_V x, adds the
    w_k coordinate b and the whole V ∩ U-perp and (U + V)-perp parts, which
    its step scales by 1 - mu.  BT's first step lands in U.  From then on
    its direction is t a with t = s^2, so a step only scales a by 1 - mu t,
    and mu comes from the moments sum(t^i a^2), i = 0, 1, 2.
    """
    along_u, along_w, in_extra, rest = parts
    s, c, sn = frame.s, frame.cos, frame.sin
    a, b = along_u[s:].copy(), along_w.copy()
    fixed = float(along_u[:s] @ along_u[:s])  # squared norm of the U ∩ V part
    other = float(in_extra @ in_extra + rest @ rest)
    scale = 1.0  # factor on the V ∩ U-perp part and the (U + V)-perp remainder
    bt = spec.kind == "BT"
    orbit = _Orbit(spec.label, math.sqrt(float(a @ a + b @ b) + other), eps, max_iter)
    mus = array("d")
    for _ in range(orbit.left()):
        wu = sn * (sn * a - c * b)
        bb = float(b @ b)
        ww, wx = float(wu @ wu), float(wu @ a)
        if not bt:
            ww, wx = ww + bb + other, wx + bb + other
        if ww <= (1e-14 * math.sqrt(float(a @ a) + bb + other + fixed)) ** 2:
            mu, a, b, other, scale = 1.0, c * (c * a + sn * b), np.zeros_like(b), 0.0, 0.0
        elif bt:
            mu = wx / ww
            a, b, other, scale = a - mu * wu, np.zeros_like(b), 0.0, 0.0
        else:
            mu = wx / ww
            a, b = a - mu * wu, (1.0 - mu) * b
            other, scale = other * (1.0 - mu) ** 2, scale * (1.0 - mu)
        mus.append(mu)
        orbit.distances.append(d := math.sqrt(float(a @ a + b @ b) + other))
        if bt or orbit.stops(d):  # BT takes its later steps in the moment loop
            break
    if bt:
        moment_loop = _bt_float_loop if a.size <= _FLOAT_LOOP_MAX_K else _bt_array_loop
        a = moment_loop(a, sn, c, fixed, orbit, mus)
    orbit.settle()
    along_u = along_u.copy()
    along_u[s:] = a
    return orbit, tuple(mus), (along_u, b, in_extra * scale, rest * scale)


#: BT's moment loop runs on Python floats while a pair has at most this many
#: nonzero angles.  There numpy's fixed cost per call outweighs the work on
#: K floats.  The float loop stays ahead up to K = 22 (BENCH_bt.json), but
#: by only 4-10 % from K = 20 on; at 16 its lead is 15 %.
_FLOAT_LOOP_MAX_K = 16


def _bt_float_loop(a, sn, c, fixed, orbit, mus):
    """BT's steps after the first, on Python floats: a step scales a_k by
    1 - mu t_k, t_k = sin^2(theta_k), with mu = m1 / m2 from the moments
    m_i = sum(t^i a^2) summed in index order, or by cos^2(theta_k) with
    mu = 1 when the search direction is negligible.  Returns the final a."""
    t = (sn * sn).tolist()
    rows = list(zip(t, [tk * tk for tk in t], (c * c).tolist()))
    a = a.tolist()
    m0 = m1 = m2 = 0.0
    for ak, (tk, ttk, _) in zip(a, rows):
        sq = ak * ak
        m0 += sq
        m1 += tk * sq
        m2 += ttk * sq
    distances, stops = orbit.distances, orbit.stops
    for _ in range(orbit.left()):
        small = m2 <= (1e-14 * math.sqrt(m0 + fixed)) ** 2
        mu = 1.0 if small else m1 / m2
        m0 = m1 = m2 = 0.0
        scaled = []
        for ak, (tk, ttk, c2k) in zip(a, rows):
            ak *= c2k if small else 1.0 - tk * mu
            scaled.append(ak)
            sq = ak * ak
            m0 += sq
            m1 += tk * sq
            m2 += ttk * sq
        a = scaled
        d = math.sqrt(m0)
        mus.append(mu)
        distances.append(d)
        if stops(d):
            break
    return np.array(a)


def _bt_array_loop(a, sn, c, fixed, orbit, mus):
    """``_bt_float_loop`` on numpy arrays, for many planes; the moments are
    one matrix-vector product."""
    t = sn * sn
    c2, neg_t = c * c, -t
    moments = np.stack([np.ones_like(t), t, t * t])
    g, sq, out = np.empty_like(t), a * a, np.empty(3)
    m0, m1, m2 = (moments @ sq).tolist()
    distances, stops = orbit.distances, orbit.stops
    for _ in range(orbit.left()):
        if m2 <= (1e-14 * math.sqrt(m0 + fixed)) ** 2:
            mu = 1.0
            a *= c2
        else:
            mu = m1 / m2
            np.multiply(neg_t, mu, out=g)
            g += 1.0
            a *= g
        np.multiply(a, a, out=sq)
        m0, m1, m2 = np.dot(moments, sq, out=out).tolist()
        d = math.sqrt(m0)
        mus.append(mu)
        distances.append(d)
        if stops(d):
            break
    return a


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
    t_f, t_p = _sines_squared(geom)
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

    # the steps keep the U ∩ V part of the start, so the distance of step n
    # to P_M x0 is its monitored distance; eps = 0 runs all n_max steps
    # unless the orbit lands exactly on the intersection
    lhs = iterate(MethodSpec(kind), geom, x, eps=0.0, max_iter=n_max).distances[1:]
    n = np.arange(1, lhs.size + 1)
    # BT: step n is within gamma^(n-1) * first_factor of the start's
    # distance; AT gains one extra contraction from the seeding step.
    exponent = n - 1 if kind == "BT" else n
    envelope = (gamma ** exponent) * first_factor * d0
    return float(np.max(lhs / (envelope + floor), initial=0.0))


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
