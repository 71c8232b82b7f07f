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

import functools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .subspaces import EPS, PairGeometry

RELAXED_KINDS = ("T", "S", "R")
FIXED_KINDS = ("MAP", "DR", "BT", "AT")
KINDS = RELAXED_KINDS + FIXED_KINDS

#: kinds whose monitored sequence is the P_V shadow of the orbit
SHADOW_KINDS = ("R", "DR")

#: starts must have entries below this in magnitude: squared norms then stay
#: finite, and the counts equal those of the same start scaled to norm 1
X0_BOUND = 1e150

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
        try:
            candidates = [
                math.sqrt(max(mu * (2.0 - mu) * (1.0 - t) + (1.0 - mu) ** 2, 0.0))
                for t in (t_f, t_p)
            ]
        except OverflowError:  # |1 - mu| above ~1.34e154: sqrt(1 - t + t (1 - mu)^2), the same modulus
            candidates = [math.hypot(math.sqrt(1.0 - t), math.sqrt(t) * abs(1.0 - mu)) for t in (t_f, t_p)]
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
        # plus the projector onto (U + V)-perp: I - B B^T for the orthonormal
        # basis B = [u, w, e] of U + V the frame decided
        f = geom.frame
        b = np.hstack([f.u, f.w, f.e])
        return geom.P_M + (np.eye(geom.ambient_dim) - b @ b.T)
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


class IterationTrace:
    """Record of one run: monitored distances and the stopping outcome.

    ``distances[n]`` is the distance of the n-th monitored point to the
    intersection (n = 0 is the starting point, before any step).
    ``iterations`` is the first n meeting the tolerance, or None.
    ``x_final``, the last point of the orbit, is given as an array or as a
    function of no arguments that builds it the first time it is read:
    ``iterate`` gives the join of the final principal coordinates, which
    most callers never read.
    """

    def __init__(self, method: str, mu: float | None, distances: np.ndarray,
                 mu_history: tuple, solved: bool, iterations: int | None, x_final):
        self.method, self.mu, self.distances = method, mu, distances
        self.mu_history, self.solved, self.iterations = mu_history, solved, iterations
        self._x_final = x_final

    @property
    def x_final(self) -> np.ndarray:
        if callable(self._x_final):
            self._x_final = self._x_final()
        return self._x_final

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
    advance whole chunks of steps at once (``_linear_orbit``), sized from
    the closed-form rate.  The methods run one after another from one
    start split it once (``PrincipalFrame.start``), and the trace joins
    ``x_final`` the first time it is read.
    """
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and >= 0, got {eps!r}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer)):
        raise ValueError(f"max_iter must be an integer, got {max_iter!r}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter!r}")
    x = np.asarray(x0, dtype=float).ravel()
    if x.size != geom.ambient_dim:
        raise ValueError(f"x0 has dimension {x.size}, expected {geom.ambient_dim}")
    if not np.abs(x).max() < X0_BOUND:  # NaN too
        bad = np.flatnonzero(~(np.abs(x) < X0_BOUND))
        kind = "an entry" if math.isfinite(x[bad[0]]) else "a non-finite entry"
        raise ValueError(
            f"x0 has {kind} {float(x[bad[0]])} at index {bad[0]}; "
            f"entries must be finite and below {X0_BOUND:g} in magnitude"
        )
    mu = resolve_mu(spec, geom)
    frame = geom.frame
    start = frame.start(x)
    if spec.kind in ("BT", "AT"):
        orbit, mu_history, final = _adaptive_orbit(spec, frame, start["parts"], eps, max_iter)
    else:
        kind = _RELAXED_OF.get(spec.kind, spec.kind)
        gamma = None if geom.theta_F is None else _subdominant_modulus(kind, mu, geom)
        orbit, final = _linear_orbit(spec, mu, gamma, frame, start, eps, max_iter)
        mu_history = ()

    def x_final():
        """The last point: the start's U ∩ V coordinates and the orbit's
        final ones, with its V ∩ U-perp part and remainder scaled."""
        along_u, _, in_extra, rest = start["parts"]
        a, b, e_scale, r_scale = final
        return frame.join(np.concatenate([along_u[: frame.s], a]), b, in_extra * e_scale, rest * r_scale)

    return IterationTrace(
        method=spec.label,
        mu=mu,
        distances=np.frombuffer(orbit.distances),
        mu_history=mu_history,
        solved=orbit.solved,
        iterations=len(orbit.distances) - 1 if orbit.solved else None,
        x_final=x_final,
    )


class _Orbit:
    """The monitored distances of one run and its stopping rule: stop at
    the first step within eps, raise DivergenceError past 1e12 times
    max(1, the starting distance) or at a NaN distance, give up after
    max_iter steps."""

    def __init__(self, label: str, d0: float, eps: float, max_iter: int):
        self.label, self.eps, self.max_iter = label, eps, max_iter
        self.blowup = 1e12 * max(1.0, d0)
        self.distances = array("d", [d0])

    def stops(self, d: float) -> bool:
        """The stopping rule: d <= eps, or d past the blow-up bound or NaN
        (not d <= blowup).  ``extend`` applies it to an array as one mask,
        and BT's kernel (``_BT_KERNEL``) to m0 = d^2 (``_square_bound``),
        a sum of squares that is never NaN: it stops at the first m0 past
        the bound, and up to there every a_k and mu is finite."""
        return not d <= self.blowup or d <= self.eps

    def left(self) -> int:
        """How many more steps the run may take."""
        return 0 if self.stops(self.distances[-1]) else self.max_iter + 1 - len(self.distances)

    def extend(self, d: np.ndarray) -> int:
        """Record the distances of the next steps up to the first that
        ``stops`` the run; returns how many steps were taken.  The steps
        that go on are one mask built in place, eps < d <= blowup (false
        for a NaN d), its first miss is its ``argmin``, and the distances
        are appended from the buffer of ``d`` (C-contiguous)."""
        going = d > self.eps
        going &= d <= self.blowup
        first = int(going.argmin())
        taken = d.size if going[first] else first + 1
        self.distances.frombytes(memoryview(d[:taken]).cast("B"))
        return taken

    def settle(self) -> None:
        """Raise DivergenceError if the last distance blew up or is NaN,
        else record whether the run ended within eps."""
        steps, d = len(self.distances) - 1, self.distances[-1]
        if not d <= self.blowup:
            raise DivergenceError(
                f"{self.label}: distance to the intersection reached {d:.3e} "
                f"at iteration {steps}; the scheme does not converge here",
                step=steps,
            )
        self.solved = d <= self.eps


#: a chunk of linear steps holds at most this many block-step states (2 MB):
#: on long runs each chunk's numpy calls cost more than its arithmetic, and
#: of the caps 1 << 15 ... 1 << 19 this one ran the desk's long runs fastest
#: (BENCH_linear.json, chunk_cap)
_CHUNK_ELEMENTS = 1 << 17
#: steps in the first chunk of a linear run without a plan, and the fewest in
#: any chunk
_FIRST_CHUNK = 16


def _chunk_steps(gamma, d, eps, previous, most):
    """Steps in the next chunk of a linear run that stands at distance d,
    where ``previous`` were in the chunk before (0 before the first).

    Each chunk takes as many steps as the closed-form rate gamma
    (``_subdominant_modulus``) needs from d to eps, ceil(log(eps/d) /
    log(gamma)), within [``_FIRST_CHUNK``, ``most``].  Without a plan (gamma
    None for a nested pair, gamma outside (0, 1), eps = 0 or d <= eps) the
    first chunk takes ``_FIRST_CHUNK`` steps and each later one doubles.
    Only sizes follow from it: each step is still tested against eps.
    """
    if gamma is not None and 0.0 < gamma < 1.0 and 0.0 < eps < d < math.inf:
        planned = math.ceil((math.log(eps) - math.log(d)) / math.log(gamma))
        return min(max(planned, _FIRST_CHUNK), most)
    return min(2 * previous, most) if previous else _FIRST_CHUNK


def _linear_orbit(spec, mu, gamma, frame, start, eps, max_iter):
    """T/S/R/MAP/DR in principal coordinates.

    Row k < K holds two coordinates of plane k, on which the scheme is the
    2x2 block [[1 - mu s^2, mu c s], [b21, b22]]: b21, b22 are 0, 1 - mu for
    T, 0, 0 for S and -mu c s, 1 - mu s^2 for R.  T and S hold (u_k, w_k).
    R is a scaled rotation, so it commutes with the rotation that takes
    (u_k, w_k) to the V-aligned (c u_k + s w_k, c w_k - s u_k), and R holds
    those: its block is the same, and column 0 is the P_V shadow.  The last
    row holds the norms of the V ∩ U-perp part and of the (U + V)-perp
    remainder, which the scheme scales by (1 - mu, 1 - mu), (0, 0) and
    (1 - mu, 1) respectively.  The monitored distance is the norm of the
    first ``cols`` columns: 2 for T and S, 1 (the shadow) for R.  A chunk of
    m steps is filled by doubling: the states at steps h..2h-1 are B^h times
    those at 0..h-1, with B^h from repeated squaring, so a chunk costs
    O(K m) multiplications in log2(m) batched 2x2 products.
    ``_chunk_steps`` sizes each chunk from the closed-form rate gamma (None
    on a nested pair), so that most runs that stop take one or two chunks.
    Every chunk is a view of a prefix of the run's one flat chunk array,
    filled from column 0 (the state the chunk before stopped at); a new
    array is made only when a chunk needs more room.  The start's rows and
    distance depend on the start and the monitor alone: they are kept in
    its memo (``start``, from ``PrincipalFrame.start``) under ``cols`` for
    the next method run from it.
    """
    along_u, along_w, in_extra, rest = start["parts"]
    s, c, sn = frame.s, frame.cos, frame.sin
    kind = _RELAXED_OF.get(spec.kind, spec.kind)
    rows, cols = c.size + 1, 1 if kind == "R" else 2

    def monitored(states):
        d = np.einsum("rct,rct->t", states[:, :cols], states[:, :cols])
        return np.sqrt(d, out=d)

    if cols not in start:
        state = np.empty((rows, 2))
        u, w = along_u[s:], along_w
        state[:-1, 0], state[:-1, 1] = (c * u + sn * w, c * w - sn * u) if kind == "R" else (u, w)
        state[-1] = math.sqrt(in_extra @ in_extra), math.sqrt(rest @ rest)
        state.flags.writeable = False
        start[cols] = state, float(monitored(state[:, :, None])[0])
    state, d0 = start[cols]
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
    orbit = _Orbit(spec.label, d0, eps, max_iter)
    size, most = 0, max(_FIRST_CHUNK, _CHUNK_ELEMENTS // rows)
    chunk = np.empty(0)
    with np.errstate(over="ignore", invalid="ignore"):
        while left := orbit.left():
            size = _chunk_steps(gamma, orbit.distances[-1], eps, size, most)
            m = min(size, left)
            need = rows * 2 * (m + 1)
            if chunk.size < need:
                chunk = np.empty(need)
            states = chunk[:need].reshape(rows, 2, m + 1)
            states[:, :, 0] = state
            h, i = 1, 0
            while h <= m:
                if i == len(powers):
                    powers.append(np.matmul(powers[-1], powers[-1]))
                k = min(h, m + 1 - h)
                np.matmul(powers[i], states[:, :, :k], out=states[:, :, h : h + k])
                h, i = h + k, i + 1
            state = states[:, :, orbit.extend(monitored(states[:, :, 1:]))]
    orbit.settle()
    end = state.copy()  # not a view that holds the last chunk
    a, b = end[:-1, 0], end[:-1, 1]
    if kind == "R":  # back from the V-aligned coordinates
        a, b = c * a - sn * b, sn * a + c * b
    (e_norm, r_norm), (e_end, r_end) = start[cols][0][-1], end[-1]
    return orbit, (a, b, e_end / e_norm if e_norm else 0.0, r_end / r_norm if r_norm else 0.0)


def _adaptive_orbit(spec, frame, parts, eps, max_iter):
    """BT and AT in principal coordinates: the exact line-search step, to
    the point of the scheme's line nearest U ∩ V, on the (u_k, w_k)
    coordinates (a, b) of each plane and on the norm of the rest.

    In plane k the search direction of BT, P_U x - P_U P_V x, has u_k
    coordinate s (s a - c b) and no w_k part; AT's, x - P_U P_V x, adds the
    w_k coordinate b and the whole V ∩ U-perp and (U + V)-perp parts, which
    its step scales by 1 - mu.  BT's first step lands in U.  From then on
    its direction is t a with t = s^2, so a step only scales a by 1 - mu t,
    and mu comes from the moments sum(t^i a^2), i = 0, 1, 2.  Those later
    steps run in ``_bt_float_loop`` while K <= ``_FLOAT_LOOP_MAX_K``, and
    in this loop above.
    """
    along_u, along_w, in_extra, rest = parts
    s, c, sn = frame.s, frame.cos, frame.sin
    a, b = along_u[s:].copy(), along_w.copy()
    fixed = float(along_u[:s] @ along_u[:s])  # squared norm of the U ∩ V part
    other = float(in_extra @ in_extra + rest @ rest)
    scale = 1.0  # factor on the V ∩ U-perp part and the (U + V)-perp remainder
    bt = spec.kind == "BT"
    float_loop = bt and a.size <= _FLOAT_LOOP_MAX_K
    zero = np.zeros_like(b)  # b after a BT step or a small-direction step; never written
    aa, bb = float(a @ a), float(b @ b)  # carried from each distance to the next step
    orbit = _Orbit(spec.label, math.sqrt(aa + bb + other), eps, max_iter)
    mus = []
    for _ in range(orbit.left()):
        wu = sn * (sn * a - c * b)
        ww, wx = float(wu @ wu), float(wu @ a)
        if not bt:
            ww, wx = ww + bb + other, wx + bb + other
        if ww <= (1e-14 * math.sqrt(aa + bb + other + fixed)) ** 2:
            mu, a, b, other, scale = 1.0, c * (c * a + sn * b), zero, 0.0, 0.0
        elif bt:
            mu = wx / ww
            a, b, other, scale = a - mu * wu, zero, 0.0, 0.0
        else:
            mu = wx / ww
            a, b = a - mu * wu, (1.0 - mu) * b
            other, scale = other * (1.0 - mu) ** 2, scale * (1.0 - mu)
        mus.append(mu)
        aa, bb = float(a @ a), float(b @ b)
        orbit.distances.append(d := math.sqrt(aa + bb + other))
        if orbit.stops(d) or float_loop:
            break
    if float_loop:
        a = _bt_float_loop(a, sn, c, fixed, orbit, mus)
    orbit.settle()
    return orbit, tuple(mus), (a, b, scale, scale)


#: BT's steps after the first run in the generated kernel while a pair has
#: at most this many nonzero angles, because compiling ``_bt_kernel(K)``
#: costs little up to here: about 6 ms and 0.3 MB of retained memory at
#: K = 64, against 100 ms and 16 MB at K = 1000 (BENCH_bt.json).  Above it,
#: BT stays in ``_adaptive_orbit``'s line-search loop, whose step costs
#: more but no compile.
_FLOAT_LOOP_MAX_K = 64
#: steps per call of BT's kernel, planes leave and re-enter it between calls;
#: the first call takes fewer, so that a short run allocates short lists
_SEGMENT, _FIRST_SEGMENT = 1024, 64
#: the kernel's cheap pre-test: m2 above this times m0 + fixed is above the
#: small-direction bound (1e-14 sqrt(m0 + fixed))^2 too, for that rounds to
#: at most 1e-28 (1 + 8 u) (m0 + fixed), u = 2^-53, subnormals included
_SMALL = 1e-28 * (1 + 1e-12)


@functools.lru_cache(maxsize=64)  # eps repeats from run to run; blowup follows d0
def _square_bound(r: float) -> float:
    """The largest double m with sqrt(m) <= r (r >= 0); sqrt rounds correctly
    and is monotone, so m0 <= m exactly where sqrt(m0) <= r, inf and NaN too."""
    m = r * r
    while math.sqrt(m) > r:
        m = math.nextafter(m, -math.inf)
    while m < math.inf and math.sqrt(up := math.nextafter(m, math.inf)) <= r:
        m = up
    return m


def _bt_float_loop(a, sn, c, fixed, orbit, mus):
    """BT's steps after the first, on Python floats: a step scales a_k by
    1 - mu t_k, t_k = sin^2(theta_k), with mu = m1 / m2 from the moments
    m_i = sum(t^i a^2) summed in index order, or by cos^2(theta_k) with
    mu = 1 when the search direction is negligible.  The steps run in the
    straight-line kernel (``_bt_kernel``) for the live planes, a segment at
    a time.  A plane with a_k * a_k == 0.0 adds +0.0 to every moment, so it
    sits out without changing a bit; after each segment it is replayed with
    ``np.multiply.accumulate``, the kernel's products in its order.  If its
    square turns nonzero, the segment is run again with it live."""
    t = sn * sn
    rows = np.stack([t, t * t, c * c])
    lo, hi = _square_bound(orbit.eps), _square_bound(orbit.blowup)
    size = _FIRST_SEGMENT
    while True:
        steps, size = min(size, orbit.left()), min(4 * size, _SEGMENT)
        live = (a * a).nonzero()[0]
        while True:
            new, seg, m0s, shrunk = _bt_kernel(live.size)(
                a.take(live).tolist(), *rows.take(live, axis=1).tolist(), fixed, steps, lo, hi)
            if live.size == a.size or not seg:
                break
            dead = np.delete(np.arange(a.size), live)
            f = 1.0 - np.multiply.outer(t[dead], np.fromiter(seg, float, len(seg)))
            if shrunk:
                f[:, shrunk] = rows[2, dead, None]
            f[:, 0] *= a[dead]
            with np.errstate(over="ignore", invalid="ignore"):  # past a plane that grows back
                path = np.multiply.accumulate(f, axis=1)
                back = dead[np.any(path * path != 0.0, axis=1)]
            if not back.size:
                a[dead] = path[:, -1]
                break
            live = np.union1d(live, back)  # it grew back: run the segment again with it live
        a.put(live, new)
        mus.extend(seg)
        orbit.distances.frombytes(np.sqrt(np.fromiter(m0s, float, len(m0s))).tobytes())
        if not orbit.left():
            return a


#: the float loop for K planes unrolled into straight-line code on locals:
#: per plane k, a{k}, its square s{k}, t{k}, tt{k} = t{k}^2 and cc{k} = cos^2.
#: A step stores mu and m0 by index and calls nothing; see ``_square_bound``.
_BT_KERNEL = """\
def kernel(a, t, tt, cc, fixed, steps, lo, hi):
    [{a}] = a
    [{t}] = t
    [{tt}] = tt
    [{cc}] = cc
    {square}
    m0 = {m0}
    m1 = {m1}
    m2 = {m2}
    mus, m0s, shrunk = [0.0] * steps, [0.0] * steps, []
    for i in range(steps):
        if m2 <= {small!r} * (m0 + fixed) and m2 <= (1e-14 * sqrt(m0 + fixed)) ** 2:
            mu = 1.0
            shrunk.append(i)
            {shrink}
        else:
            mu = m1 / m2
            {step}
        {square}
        m0 = {m0}
        m1 = {m1}
        m2 = {m2}
        mus[i] = mu
        m0s[i] = m0
        if m0 > hi or m0 <= lo:
            del mus[i + 1:], m0s[i + 1:]
            break
    return [{a}], mus, m0s, shrunk
"""


@functools.cache
def _bt_kernel(k: int):
    """``_BT_KERNEL`` for k planes, compiled on first use (at most
    ``_FLOAT_LOOP_MAX_K`` + 1 of them), returning a, the mus, the m0s and the
    small-direction steps.  Each moment is a left-to-right sum in index order
    of terms never negative, so it equals the same sum started from 0.0."""
    def each(template, sep="; "):
        return sep.join(template.format(k=i) for i in range(k))

    source = _BT_KERNEL.format(
        a=each("a{k}", ", "), t=each("t{k}", ", "), tt=each("tt{k}", ", "), cc=each("cc{k}", ", "),
        square=each("s{k} = a{k} * a{k}") or "pass",
        m0=each("s{k}", " + ") or "0.0",
        m1=each("t{k} * s{k}", " + ") or "0.0",
        m2=each("tt{k} * s{k}", " + ") or "0.0",
        shrink=each("a{k} *= cc{k}") or "pass",
        step=each("a{k} *= 1.0 - t{k} * mu") or "pass",
        small=_SMALL,
    )
    namespace = {"sqrt": math.sqrt}
    exec(compile(source, f"<BT kernel, K = {k}>", "exec"), namespace)
    return namespace["kernel"]


def fit_rate(distances: np.ndarray) -> float | None:
    """Least-squares slope of log(distance): the empirical contraction factor.

    Returns None when fewer than three distances sit above the noise floor
    of 1e-13.
    """
    d = np.asarray(distances, dtype=float)
    mask = d > 1e-13
    if int(mask.sum()) < 3:
        return None
    idx = np.nonzero(mask)[0]
    slope = np.polyfit(idx.astype(float), np.log(d[idx]), 1)[0]
    return float(math.exp(slope))


# ---------------------------------------------------------------------------
# guarantee checks for the adaptive schemes


def _adaptive_bound_ratio(kind: str, geom: PairGeometry, x0: np.ndarray) -> float:
    """Worst observed ratio of distance to its guaranteed envelope over the
    first 50 steps.

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
    # to P_M x0 is its monitored distance; eps = 0 runs all 50 steps unless
    # the orbit lands exactly on the intersection
    lhs = iterate(MethodSpec(kind), geom, x, eps=0.0, max_iter=50).distances[1:]
    n = np.arange(1, lhs.size + 1)
    # BT: step n is within gamma^(n-1) * first_factor of the start's
    # distance; AT gains one extra contraction from the seeding step.
    exponent = n - 1 if kind == "BT" else n
    envelope = (gamma ** exponent) * first_factor * d0
    return float(np.max(lhs / (envelope + floor), initial=0.0))


def verify_bt_bound(geom: PairGeometry, x0: np.ndarray) -> tuple[bool, float]:
    """Check the BT distance guarantee along the first 50 steps of one orbit.

    Returns (passed, worst ratio of observed distance to the envelope);
    passes when the worst ratio is at most 1 + 1e-9.
    """
    worst = _adaptive_bound_ratio("BT", geom, x0)
    return worst <= 1.0 + 1e-9, worst


def verify_at_bound(geom: PairGeometry, x0: np.ndarray) -> tuple[bool, float]:
    """Check the AT guarantee along the first 50 steps of an orbit seeded
    with one MAP step."""
    worst = _adaptive_bound_ratio("AT", geom, x0)
    return worst <= 1.0 + 1e-9, worst
