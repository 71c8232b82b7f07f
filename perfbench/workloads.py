"""The three seeded workloads of the projrates benchmark.

Each workload is a closed loop with one client: the benchmark runs whole
*passes* over a fixed, seeded set of items, one item after the other, and
times every item.  The seed draws the inputs; the composition of a pass (how
many items of each size and kind) is fixed, so that runs on different seeds
do the same amount of work and their figures can be compared.  README.md in
this directory says why each workload was chosen and which layer metric
should move which end-to-end metric.

An item is:

- ``desk-grid``: one (pair, start, method) instance of the paper's table at
  n = 30, i.e. one ``iterate`` call;
- ``large-pairs``: one pair at n = 100, 300 or 1000, built, measured and
  solved by all five methods;
- ``analyze``: one in-process ``projrates analyze FILE --json`` call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import projrates.cli
import projrates.methods
from projrates.bench import (
    BenchmarkTable,
    CategoryGrid,
    InstanceRecord,
    _derive_seed,
    sample_pair,
    start_vector,
)
from projrates.matio import write_matrix
from projrates.methods import (
    SHADOW_KINDS,
    DivergenceError,
    MethodSpec,
    build_operator,
    iterate,
    parse_method,
    predict_rate,
)
from projrates.subspaces import canonical_pair, haar_orthogonal, pair_geometry

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

METHODS = ("BT", "S:best", "T:best", "MAP", "DR")
SPECS = tuple(parse_method(m) for m in METHODS)
EPS = 0.01

#: the paper's table: default grid, master seed of acceptance criterion 08
GRID = CategoryGrid()
REFERENCE_SEED = 2025

#: NumPy entry points counted in traced passes, keyed by the kind of call
NUMPY_COUNTS = (
    (np.linalg, "svd", "svd"),
    (np.linalg, "eig", "eig"),
    (np.linalg, "eigvals", "eig"),
    (np.linalg, "qr", "qr"),
)


@dataclass
class Run:
    """One ``iterate`` call inside an item."""

    method: str
    cls: str
    steps: int
    outcome: str  # solved, capped or diverged
    seconds: float


@dataclass
class ItemResult:
    item: int
    cls: str
    latency_s: float
    failure: str | None = None
    runs: list = field(default_factory=list)
    out_bytes: int = 0  # bytes the item printed (analyze: the JSON report)


def _iterate(spec, geom, x0, tracer, item, cls, max_iter):
    """Run one method; returns (trace or None, Run)."""
    t0 = perf_counter()
    with tracer.span("methods.iterate", item):
        try:
            trace = iterate(spec, geom, x0, eps=EPS, max_iter=max_iter)
        except DivergenceError as exc:
            return None, Run(spec.label, cls, exc.step, "diverged", perf_counter() - t0)
    outcome = "solved" if trace.solved else "capped"
    return trace, Run(spec.label, cls, len(trace.distances) - 1, outcome, perf_counter() - t0)


def pass_order(seed: int, index: int, count: int) -> np.ndarray:
    """Seeded order in which pass ``index`` runs its items.  Shuffling keeps
    the items of one cost class (the capped W1 runs, the n1000 pairs, the
    n100 matrices) from being timed in one stretch, so a slow spell on a
    shared machine does not land on a whole class at once."""
    return np.random.default_rng([seed, index, 3]).permutation(count)


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else repr(c).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# desk-grid


@dataclass(frozen=True)
class DeskSlot:
    cell: tuple
    pair_index: int
    angles: np.ndarray
    q: int
    s: int
    frame_seed: int


@dataclass(frozen=True)
class DeskInputs:
    seed: int
    halves: tuple  # two tuples of slots, one per half-pass
    digest: str
    out_dir: Path


def write_exports(table: BenchmarkTable, out_dir: Path) -> None:
    """The three CSV exports of a benchmark table, as ``projrates bench``
    writes them."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "summary.csv", "w") as fh:
        table.write_summary_csv(fh)
    with open(out_dir / "records.csv", "w") as fh:
        table.write_records_csv(fh)
    table.write_profile_csvs(out_dir)


class DeskGrid:
    """The paper's categorized table (n = 30, 20 cells x 3 pairs, five
    methods, eps 0.01, cap 100000).

    The 60 angle profiles (dimensions and principal angles) are those of the
    reference table, ``run_grid(CategoryGrid(), METHODS, 2025)``, so every
    seed meets the same capped W1 instances and does the same work.  The seed
    draws each pair's random frame and its starts.

    A pass runs half of the pairs (31 or 29) from one start: 155 or 145
    items.  The halves are balanced by the pairs' step counts in the
    reference table, so that each holds one of the two pairs that take two
    thirds of the table's steps.  Passes 2m and 2m + 1 run the two halves
    from start seed ``1000 + m``, as ``run_grid`` numbers its starts, so two
    passes cover a fifth of the table.  A pass ends with the three CSV
    exports of its records.
    """

    name = "desk-grid"
    tail_pct = 98.0
    min_passes = 6
    default_cls = "n30"

    def params(self) -> dict:
        return {
            "grid": GRID.to_dict(),
            "methods": list(METHODS),
            "profile_seed": REFERENCE_SEED,
            "pass": "31 or 29 of the table's 60 pairs x 1 start x 5 methods = 155 or 145 items",
        }

    def generate(self, seed, workdir) -> DeskInputs:
        slots = []
        for i in range(len(GRID.primary_bins)):
            for j in range(GRID.secondary_bins):
                for k in range(GRID.pairs_per_cell):
                    ref = sample_pair(GRID, (i, j), _derive_seed(REFERENCE_SEED, i, j, k))
                    angles = ref.angles.copy()
                    angles[: ref.s] = 0.0
                    slots.append(DeskSlot((i, j), k, angles, ref.q, ref.s, _derive_seed(seed, i, j, k)))
        digest = _sha(*((s.angles.tobytes(), s.q, s.frame_seed) for s in slots))
        return DeskInputs(seed, _balanced_halves(slots), digest,
                          Path(workdir) / f"desk-grid-tables-{seed}")

    def patches(self):
        return [(projrates.methods, "build_operator", "methods.build_operator")], NUMPY_COUNTS

    def run_pass(self, inputs: DeskInputs, index: int, tracer, ids) -> list:
        n = GRID.ambient_dim
        pairs = []
        start_index = index // 2
        for slot in inputs.halves[index % 2]:
            with tracer.span("subspaces.canonical_pair"):
                u, v = canonical_pair(n, slot.angles, slot.q, seed=slot.frame_seed)
            with tracer.span("subspaces.pair_geometry"):
                geom = pair_geometry(u, v)
            i, j = slot.cell
            start_seed = _derive_seed(inputs.seed, i, j, slot.pair_index, 1000 + start_index)
            with tracer.span("bench.start_vector"):
                x0 = start_vector(n, start_seed, norm=GRID.start_norm)
            pairs.append((slot, geom, start_seed, x0, _cell_failure(slot, geom)))
        work = [(pair, spec) for pair in pairs for spec in SPECS]
        results, records = [], [None] * len(work)
        for k in pass_order(inputs.seed, index, len(work)):
            (slot, geom, start_seed, x0, failure), spec = work[k]
            item = next(ids)
            t0 = perf_counter()
            try:
                trace, run = _iterate(spec, geom, x0, tracer, item, "n30", GRID.max_iter)
            except Exception as exc:  # an item that raises is counted as failed
                results.append(ItemResult(item, "n30", perf_counter() - t0, f"{spec.label}: {exc!r}"))
                continue
            latency = perf_counter() - t0
            solved = run.outcome == "solved"
            if failure is None and solved and trace.distances[-1] > EPS:
                failure = f"{spec.label}: solved with final distance {trace.distances[-1]!r} > eps"
            results.append(ItemResult(item, "n30", latency, failure, [run]))
            i, j = slot.cell
            records[k] = InstanceRecord(
                cell=GRID.cell_label(i, j), primary_index=i, pair_index=slot.pair_index,
                start_index=start_index, pair_seed=slot.frame_seed, start_seed=start_seed,
                theta_F=geom.theta_F, theta_p=geom.theta_p, method=spec.label,
                iterations=run.steps if solved else GRID.max_iter, solved=solved,
            )
        with tracer.span("bench.export"):
            done = tuple(r for r in records if r is not None)
            write_exports(BenchmarkTable(grid=GRID, methods=METHODS, master_seed=inputs.seed, records=done),
                          inputs.out_dir)
        if len(results) != len(inputs.halves[index % 2]) * len(SPECS):
            raise AssertionError("desk-grid pass lost items")
        return results

    def final_checks(self, inputs: DeskInputs) -> list:
        """Replay one pair of each primary row of the reference table through
        the documented replay path and compare its records.csv rows, and so
        its 25 iteration counts, with the rows ``run_grid`` wrote for seed
        2025 (stored in reference.json).  The seed picks the pair among those
        whose 25 runs total fewer than ``max_iter`` steps, so none of them is
        capped; in rows 0 and 1 (W1, W2) such pairs take 5k to 85k steps."""
        reference = json.loads(REFERENCE_FILE.read_text())
        rng = np.random.default_rng(inputs.seed)
        failures = []
        for row in range(len(GRID.primary_bins)):
            uncapped = [p for p in reference["pairs"] if p["cell"][0] == row and p["steps"] < GRID.max_iter]
            entry = uncapped[int(rng.integers(len(uncapped)))]
            rows = replay_pair_rows(tuple(entry["cell"]), entry["pair_index"], REFERENCE_SEED)
            if _sha(rows.encode()) != entry["rows_sha256"]:
                failures.append(
                    f"replayed pair {entry['cell']}/{entry['pair_index']} of seed "
                    f"{REFERENCE_SEED} differs from run_grid's records.csv rows"
                )
        return failures


def _balanced_halves(slots) -> tuple:
    """Split the slots into two halves of near-equal reference step count,
    costliest pair first into the lighter half, each half in slot order."""
    reference = json.loads(REFERENCE_FILE.read_text())
    steps = {(tuple(p["cell"]), p["pair_index"]): p["steps"] for p in reference["pairs"]}
    cost = [steps[(slot.cell, slot.pair_index)] for slot in slots]
    halves, load = ([], []), [0, 0]
    for k in sorted(range(len(slots)), key=lambda k: -cost[k]):
        h = int(load[1] < load[0])
        halves[h].append(k)
        load[h] += cost[k]
    return tuple(tuple(slots[k] for k in sorted(half)) for half in halves)


def _cell_failure(slot: DeskSlot, geom) -> str | None:
    """The re-measured pair must land in its cell, as ``sample_pair`` requires."""
    i, j = slot.cell
    lo, hi = GRID.primary_bins[i]
    g_lo, g_hi = j / GRID.secondary_bins, (j + 1) / GRID.secondary_bins
    gap = (geom.theta_p - geom.theta_F) / (math.pi / 2 - geom.theta_F)
    if lo <= geom.theta_F < hi and g_lo <= gap < g_hi and geom.s == slot.s:
        return None
    return (
        f"pair {GRID.cell_label(i, j)}/{slot.pair_index} left its cell: "
        f"theta_F={geom.theta_F!r}, gap={gap!r}, s={geom.s}"
    )


def replay_pair_rows(cell: tuple, pair_index: int, master_seed: int) -> str:
    """records.csv rows (no header) of one grid pair, rebuilt with
    ``sample_pair``, ``start_vector`` and ``iterate`` as the docstrings of
    ``run_grid`` and ``start_vector`` describe."""
    i, j = cell
    n = GRID.ambient_dim
    pair_seed = _derive_seed(master_seed, i, j, pair_index)
    geom = sample_pair(GRID, cell, pair_seed)
    records = []
    for m in range(GRID.starts_per_pair):
        start_seed = _derive_seed(master_seed, i, j, pair_index, 1000 + m)
        x0 = start_vector(n, start_seed, norm=GRID.start_norm)
        for spec in SPECS:
            try:
                trace = iterate(spec, geom, x0, eps=GRID.eps, max_iter=GRID.max_iter)
                solved = trace.solved
            except DivergenceError:
                solved = False
            records.append(InstanceRecord(
                cell=GRID.cell_label(i, j), primary_index=i, pair_index=pair_index,
                start_index=m, pair_seed=pair_seed, start_seed=start_seed,
                theta_F=geom.theta_F, theta_p=geom.theta_p, method=spec.label,
                iterations=trace.iterations if solved else GRID.max_iter, solved=solved,
            ))
    return _records_rows(records)


def _records_rows(records) -> str:
    table = BenchmarkTable(grid=GRID, methods=METHODS, master_seed=REFERENCE_SEED, records=tuple(records))
    buf = io.StringIO()
    table.write_records_csv(buf)
    return buf.getvalue().split("\n", 1)[1]


# ---------------------------------------------------------------------------
# large-pairs


@dataclass(frozen=True)
class PairSpec:
    n: int
    angles: np.ndarray
    q: int
    s: int
    frame_seed: int
    start_seed: int


@dataclass(frozen=True)
class PoolInputs:
    seed: int
    passes: tuple  # tuple of tuples of per-item inputs
    digest: str


#: sizes of the items of one large-pairs pass
LARGE_PASS = (1000, 300, 300, 300, 300, 300, 100, 100, 100, 100)
#: distinct passes drawn per seed; later passes repeat them
LARGE_POOL = 64


class LargePairs:
    """Pairs at n = 100, 300 and 1000 with p = n/4, q in [p, n/2], an
    intersection of dimension 1 to p/10 + 1 and all nonzero angles in
    [0.5, 1.2].  Each item builds the pair (``canonical_pair``), measures it
    (``pair_geometry``) and solves it with the five methods from one seeded
    start at eps 0.01: few steps, each O(n^2), after costly set-up."""

    name = "large-pairs"
    tail_pct = 95.0
    min_passes = 20
    default_cls = None

    def params(self) -> dict:
        return {
            "pass_sizes": list(LARGE_PASS),
            "distinct_passes": LARGE_POOL,
            "methods": list(METHODS),
            "eps": EPS,
            "p": "n/4",
            "angles": "theta_F in [0.5, 1.0], theta_p in [theta_F, 1.2]",
        }

    def generate(self, seed, workdir) -> PoolInputs:
        rng = np.random.default_rng([seed, 1])
        passes = []
        for _ in range(LARGE_POOL):
            items = []
            for n in LARGE_PASS:
                p = n // 4
                q = int(rng.integers(p, n // 2 + 1))
                s = int(rng.integers(1, p // 10 + 2))
                theta_f = float(rng.uniform(0.5, 1.0))
                theta_p = float(rng.uniform(theta_f, 1.2))
                interior = np.sort(rng.uniform(theta_f, theta_p, p - s - 2))
                angles = np.concatenate([np.zeros(s), [theta_f], interior, [theta_p]])
                items.append(PairSpec(n, angles, q, s, int(rng.integers(2**63)), int(rng.integers(2**63))))
            passes.append(tuple(items))
        digest = _sha(*((it.angles.tobytes(), it.q, it.frame_seed, it.start_seed) for ps in passes for it in ps))
        return PoolInputs(seed, tuple(passes), digest)

    def patches(self):
        return [(projrates.methods, "build_operator", "methods.build_operator")], NUMPY_COUNTS

    def run_pass(self, inputs: PoolInputs, index: int, tracer, ids) -> list:
        results = []
        specs = inputs.passes[index % len(inputs.passes)]
        for k in pass_order(inputs.seed, index, len(specs)):
            spec_in = specs[k]
            item = next(ids)
            cls = f"n{spec_in.n}"
            t0 = perf_counter()
            try:
                with tracer.span("bench.item", item):
                    with tracer.span("subspaces.canonical_pair"):
                        u, v = canonical_pair(spec_in.n, spec_in.angles, spec_in.q, seed=spec_in.frame_seed)
                    with tracer.span("subspaces.pair_geometry"):
                        geom = pair_geometry(u, v)
                    with tracer.span("bench.start_vector"):
                        x0 = start_vector(spec_in.n, spec_in.start_seed)
                    solved = [_iterate(spec, geom, x0, tracer, None, cls, 100000) for spec in SPECS]
            except Exception as exc:  # an item that raises is counted as failed
                results.append(ItemResult(item, cls, perf_counter() - t0, repr(exc)))
                continue
            latency = perf_counter() - t0
            results.append(ItemResult(
                item, cls, latency, _large_failure(spec_in, u, v, geom, solved), [r for _, r in solved]
            ))
        return results

    def final_checks(self, inputs) -> list:
        return []


def _large_failure(spec_in: PairSpec, u, v, geom, solved) -> str | None:
    """Angles and s recovered; every run solved, with its final distance to
    the constructed intersection basis (not P_M) at most eps."""
    if geom.s != spec_in.s:
        return f"pair_geometry found s={geom.s}, constructed {spec_in.s}"
    err = float(np.max(np.abs(geom.angles - spec_in.angles)))
    if err > 1e-9:
        return f"pair_geometry angles off by {err:.3e}"
    m = u.basis[:, : spec_in.s]  # the first s frame directions span U and V in common
    qv = v.basis
    for trace, run in solved:
        if run.outcome != "solved":
            return f"{run.method} {run.outcome} after {run.steps} steps"
        z = trace.x_final
        if parse_method(run.method).kind in SHADOW_KINDS:
            z = qv @ (qv.T @ z)
        dist = float(np.linalg.norm(z - m @ (m.T @ z)))
        # 1e-9 relative: rounding between P_M and the basis, not slack in eps
        if dist > EPS * (1 + 1e-9):
            return f"{run.method} stopped at distance {dist!r} > eps from U and V's common basis"
    return None


# ---------------------------------------------------------------------------
# analyze


@dataclass(frozen=True)
class MatrixCase:
    path: str
    size: int
    cls: str
    exit_code: int
    status: str
    gamma: float
    attained: bool


@dataclass(frozen=True)
class CorpusInputs:
    seed: int
    cases: tuple
    digest: str


#: one analyze pass: (n, kind, mu inside the convergence interval); "jordan"
#: rows are small non-normal matrices with a planted subdominant eigenvalue
ANALYZE_PASS = (
    (300, "T", True),
    (100, "T", True), (100, "S", False), (100, "R", True), (100, "DR", True),
    (30, "T", True), (30, "S", True), (30, "R", True), (30, "DR", True), (30, "T", False),
    (30, "S", False), (30, "R", False), (30, "T", True), (30, "S", True), (30, "R", True),
    ("jordan", True, None), ("jordan", False, None), ("jordan", True, None),
    ("jordan", False, None), ("jordan", True, None), ("jordan", False, None),
)


class Analyze:
    """``projrates analyze FILE --json`` in-process over a seeded corpus.

    Iteration matrices of T/S/R/DR from pairs at n = 30, 100, 300 (some with
    mu outside the convergence interval: exit 2), plus small matrices with a
    planted subdominant eigenvalue of modulus g, defective on every other
    one, under a random orthogonal similarity.  The files are written during
    set-up; a pass analyzes each once."""

    name = "analyze"
    tail_pct = 88.0
    min_passes = 5
    default_cls = None

    def params(self) -> dict:
        return {"pass": [list(map(str, row)) for row in ANALYZE_PASS]}

    def generate(self, seed, workdir) -> CorpusInputs:
        rng = np.random.default_rng([seed, 2])
        out_dir = Path(workdir) / f"analyze-corpus-{seed}"
        out_dir.mkdir(parents=True, exist_ok=True)
        cases = []
        h = hashlib.sha256()
        for index, row in enumerate(ANALYZE_PASS):
            if row[0] == "jordan":
                a, case = _planted_matrix(rng, defective=row[1])
            else:
                a, case = _pair_operator(rng, *row)
            path = out_dir / f"{index:02d}-{case['cls']}.mat"
            write_matrix(path, a)
            data = path.read_bytes()
            h.update(data)
            cases.append(MatrixCase(path=str(path), size=len(data), **case))
        return CorpusInputs(seed, tuple(cases), h.hexdigest())

    def patches(self):
        spans = [
            (projrates.cli, "read_matrix", "matio.read_matrix"),
            (projrates.cli, "classify_convergence", "spectral.classify_convergence"),
            (projrates.cli, "report_to_dict", "spectral.report_to_dict"),
        ]
        return spans, NUMPY_COUNTS

    def run_pass(self, inputs: CorpusInputs, index: int, tracer, ids) -> list:
        results = []
        for k in pass_order(inputs.seed, index, len(inputs.cases)):
            case = inputs.cases[k]
            item = next(ids)
            buf = io.StringIO()
            t0 = perf_counter()
            try:
                with tracer.span("cli.main", item), contextlib.redirect_stdout(buf):
                    code = projrates.cli.main(["analyze", case.path, "--json"])
            except Exception as exc:  # an item that raises is counted as failed
                results.append(ItemResult(item, case.cls, perf_counter() - t0, repr(exc)))
                continue
            latency = perf_counter() - t0
            out = buf.getvalue()
            results.append(ItemResult(item, case.cls, latency, _analyze_failure(case, code, out), out_bytes=len(out)))
        return results

    def final_checks(self, inputs) -> list:
        return []


def _spaced_angles(rng, count, lo, hi, min_gap=1e-4):
    """Sorted uniform draws with no two closer than min_gap, so that no two
    eigenvalues of the iteration matrix fall inside one cluster tolerance."""
    while True:
        x = np.sort(rng.uniform(lo, hi, count))
        if count < 2 or np.min(np.diff(x)) >= min_gap:
            return x


def _pair_operator(rng, n, kind, inside):
    p, q = max(3, n // 4), n // 3
    s = max(1, p // 8)
    theta_f = float(rng.uniform(0.3, 1.0))
    theta_p = float(rng.uniform(theta_f + 0.05, 1.3))
    interior = _spaced_angles(rng, p - s - 2, theta_f + 1e-3, theta_p - 1e-3)
    angles = np.concatenate([np.zeros(s), [theta_f], interior, [theta_p]])
    geom = pair_geometry(*canonical_pair(n, angles, q, seed=rng))
    if kind == "DR":
        spec = MethodSpec("DR")
    else:
        hi = 2.0 / math.sin(geom.theta_p) ** 2 if kind == "S" else 2.0
        mu = hi * float(rng.uniform(0.1, 0.95) if inside else rng.uniform(1.05, 1.3))
        spec = MethodSpec(kind, mu=mu)
    pred = predict_rate(spec, geom)
    return build_operator(spec, geom), {
        "cls": f"n{n}",
        "exit_code": 0 if pred.convergent else 2,
        "status": "convergent" if pred.convergent else "not_convergent",
        "gamma": pred.gamma,
        "attained": pred.convergent,  # iteration matrices are diagonalizable
    }


def _planted_matrix(rng, defective):
    """Block matrix with eigenvalue 1, a subdominant modulus g (a 2x2 Jordan
    block at g when defective) and small noise eigenvalues, conjugated by a
    Haar orthogonal matrix."""
    g = float(rng.uniform(0.9, 0.97))
    blocks = [np.eye(int(rng.integers(1, 3)))]
    if defective:
        blocks.append(np.array([[g, 1.0], [0.0, g]]))
    if rng.random() < 0.5:
        blocks.append(np.diag([g] * int(rng.integers(1, 3))))
    else:
        t = float(rng.uniform(0.3, 2.8))
        blocks.append(g * np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]))
    blocks.append(np.diag(rng.uniform(-0.25, 0.25, size=2)))
    size = sum(b.shape[0] for b in blocks)
    a = np.zeros((size, size))
    at = 0
    for b in blocks:
        a[at : at + b.shape[0], at : at + b.shape[0]] = b
        at += b.shape[0]
    frame = haar_orthogonal(size, rng)
    return frame @ a @ frame.T, {
        "cls": "jordan",
        "exit_code": 0,
        "status": "convergent",
        "gamma": g,
        "attained": not defective,
    }


def _analyze_failure(case: MatrixCase, code: int, out: str) -> str | None:
    if code != case.exit_code:
        return f"{case.path}: exit {code}, expected {case.exit_code}"
    report = json.loads(out)
    if report["status"] != case.status:
        return f"{case.path}: status {report['status']}, expected {case.status}"
    if abs(report["gamma"] - case.gamma) > 1e-8:
        return f"{case.path}: gamma {report['gamma']!r}, expected {case.gamma!r}"
    if report["optimal_rate_attained"] != case.attained:
        return f"{case.path}: optimal_rate_attained {report['optimal_rate_attained']}"
    return None


WORKLOADS = {w.name: w for w in (DeskGrid(), LargePairs(), Analyze())}
