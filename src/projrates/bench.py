"""Benchmark harness: iteration counts of projection methods over a
categorized random corpus of subspace pairs.

Pairs are binned by Friedrichs angle (primary bins W1, W2, ...) and by the
normalized gap (theta_p - theta_F)/(pi/2 - theta_F) (secondary bins Z1..Zm).
Each cell gets a fixed number of seeded random pairs, each pair a fixed
number of seeded starting points on a sphere, and every method runs on the
identical instances until the monitored point is within eps of the
intersection or max_iter is hit (the instance then counts as unsolved, with
the count clamped at max_iter).

Everything is a pure function of (grid, methods, master_seed): rerunning
with the same inputs reproduces the records and all exported files byte for
byte.
"""

from __future__ import annotations

import csv
import itertools
import math
import numbers
import pathlib
import re
import statistics
from dataclasses import asdict, dataclass, fields
from functools import cached_property

import numpy as np

from .methods import X0_BOUND, MethodSpec, DivergenceError, iterate, parse_method
from .subspaces import PairGeometry, canonical_pair, pair_geometry

DEFAULT_PRIMARY_BINS = ((0.0, 0.05), (0.05, 0.1), (0.1, 0.5), (0.5, 1.0))

#: floor keeping sampled Friedrichs angles strictly positive
MIN_ANGLE = 1e-6
#: keep draws this far from bin edges so re-measured angles stay inside
EDGE_MARGIN = 1e-9


@dataclass(frozen=True)
class CategoryGrid:
    """Benchmark configuration: category bins and per-cell instance counts."""

    primary_bins: tuple = DEFAULT_PRIMARY_BINS
    secondary_bins: int = 5
    ambient_dim: int = 30
    pairs_per_cell: int = 3
    starts_per_pair: int = 5
    start_norm: float = 10.0
    eps: float = 0.01
    max_iter: int = 100000

    def __post_init__(self):
        for f in fields(self):
            kind = {"int": numbers.Integral, "float": numbers.Real}.get(f.type)
            value = getattr(self, f.name)
            if kind is not None and (isinstance(value, bool) or not isinstance(value, kind)):
                noun = "an integer" if f.type == "int" else "a real number"
                raise ValueError(f"{f.name} must be {noun}, got {value!r}")
        try:
            bins = tuple((float(lo), float(hi)) for lo, hi in self.primary_bins)
        except (TypeError, ValueError):
            raise ValueError(
                f"primary_bins must be a list of [lo, hi] pairs, got {self.primary_bins!r}"
            ) from None
        object.__setattr__(self, "primary_bins", bins)
        if not bins:
            raise ValueError("need at least one primary bin")
        for lo, hi in bins:
            if not 0.0 <= lo < hi <= math.pi / 2:
                raise ValueError(f"bad primary bin [{lo}, {hi})")
            if hi <= MIN_ANGLE + 2 * EDGE_MARGIN:
                raise ValueError(
                    f"primary bin [{lo}, {hi}) ends at or below the smallest sampled "
                    f"Friedrichs angle {MIN_ANGLE + 2 * EDGE_MARGIN!r}"
                )
        for (_, hi), (lo, _) in zip(bins, bins[1:]):
            if lo < hi:
                raise ValueError("primary bins must be disjoint and ascending")
        if self.secondary_bins < 1:
            raise ValueError("need at least one secondary bin")
        if min(self.pairs_per_cell, self.starts_per_pair, self.max_iter) < 1:
            raise ValueError("counts must be at least 1")
        if self.ambient_dim < 2:
            raise ValueError("ambient dimension must be at least 2")
        for name in ("eps", "start_norm"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)!r}")
        if self.start_norm >= X0_BOUND:
            raise ValueError(f"start_norm must be below {X0_BOUND:g}, got {self.start_norm!r}")

    @staticmethod
    def primary_label(i: int) -> str:
        return f"W{i + 1}"

    def cell_label(self, i: int, j: int) -> str:
        return f"W{i + 1}Z{j + 1}"

    def to_dict(self) -> dict:
        d = asdict(self)
        d["primary_bins"] = [list(b) for b in self.primary_bins]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CategoryGrid":
        if not isinstance(d, dict):
            raise ValueError(f"grid config must be a JSON object, got {d!r}")
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown grid config keys: {sorted(unknown)}")
        return cls(**d)


#: the desk protocol's methods on the default grid, ``bench``'s default
DESK_METHODS = ("BT", "S:best", "T:best", "MAP", "DR")
#: the large protocol of ``bench --full``: n = 100, 5 pairs x 10 starts per
#: cell, and three parameter variants next to the desk methods.  The two
#: S variants take mu = 1/sin^2(theta_p) and 1/2 + 1/sin^2(theta_p) from
#: each sampled pair, on the instances the other methods see.
FULL_GRID = CategoryGrid(ambient_dim=100, pairs_per_cell=5, starts_per_pair=10)
FULL_METHODS = (
    "BT", "S:best",
    ("S[1/tp]", lambda geom: MethodSpec("S", mu=1.0 / math.sin(geom.theta_p) ** 2)),
    ("S[0.5+1/tp]", lambda geom: MethodSpec("S", mu=0.5 + 1.0 / math.sin(geom.theta_p) ** 2)),
    "T:best", "T:1.5", "MAP", "DR",
)


def _derive_seed(master_seed: int, *path: int) -> int:
    """Stable per-instance integer seed from the master seed and an index path."""
    ss = np.random.SeedSequence([int(master_seed), *map(int, path)])
    return int(ss.generate_state(1, np.uint64)[0])


def sample_pair(grid: CategoryGrid, cell: tuple, seed: int) -> PairGeometry:
    """Draw one random subspace pair landing in the given (primary, secondary)
    cell.

    Dimensions are drawn uniformly with 3 <= p <= n/2, p <= q <= n - p and
    intersection dimension 1 <= s <= p - 2 (two distinct nonzero angles are
    needed for a strict gap).  The Friedrichs angle is uniform in the
    primary bin, theta_p is placed via a uniform normalized gap inside the
    secondary bin, interior angles are uniform in between.
    """
    i, j = cell
    lo, hi = grid.primary_bins[i]
    n = grid.ambient_dim
    if n < 6 or n // 2 < 3:
        raise ValueError(
            f"cell {grid.cell_label(i, j)}: ambient dimension {n} cannot host "
            "p >= 3 with q >= p and p + q <= n"
        )
    rng = np.random.default_rng(seed)

    p = int(rng.integers(3, n // 2 + 1))
    q = int(rng.integers(p, n - p + 1))
    s = int(rng.integers(1, p - 1))

    lo_eff = max(lo, MIN_ANGLE)
    theta_f = float(np.clip(rng.uniform(lo_eff, hi), lo_eff + EDGE_MARGIN, hi - EDGE_MARGIN))
    g_lo = j / grid.secondary_bins
    g_hi = (j + 1) / grid.secondary_bins
    gap = float(
        np.clip(
            rng.uniform(g_lo, g_hi),
            max(g_lo, MIN_ANGLE) + EDGE_MARGIN,
            g_hi - EDGE_MARGIN,
        )
    )
    theta_p = theta_f + gap * (math.pi / 2 - theta_f)
    interior = np.sort(rng.uniform(theta_f, theta_p, p - s - 2))
    angles = np.concatenate([np.zeros(s), [theta_f], interior, [theta_p]])

    u, v = canonical_pair(n, angles, q, seed=rng)
    geom = pair_geometry(u, v)

    measured_gap = (geom.theta_p - geom.theta_F) / (math.pi / 2 - geom.theta_F)
    if not (lo <= geom.theta_F < hi and g_lo <= measured_gap < g_hi and geom.s == s):
        raise RuntimeError(
            f"cell {grid.cell_label(i, j)}: re-measured pair fell outside its "
            f"cell (theta_F={geom.theta_F}, gap={measured_gap}, s={geom.s})"
        )
    return geom


def start_vector(ambient_dim: int, seed: int, norm: float = 10.0) -> np.ndarray:
    """The seeded random starting point used for one benchmark instance.

    Gaussian direction scaled to ``norm``.  Records store the seed, so any
    instance can be replayed exactly: rebuild the pair with ``sample_pair``
    and the start with this function.
    """
    if not 0.0 < norm < math.inf:
        raise ValueError(f"start norm must be finite and > 0, got {norm!r}")
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(ambient_dim)
    x0 *= norm / np.linalg.norm(x0)
    return x0


@dataclass(frozen=True)
class InstanceRecord:
    """One (pair, start, method) benchmark outcome."""

    cell: str
    primary_index: int
    pair_index: int
    start_index: int
    pair_seed: int
    start_seed: int
    theta_F: float
    theta_p: float
    method: str
    iterations: int
    solved: bool


#: the columns of records.csv: the InstanceRecord fields but primary_index,
#: which the cell name carries
RECORD_COLUMNS = ("cell", "pair_index", "start_index", "pair_seed", "start_seed",
                  "theta_F", "theta_p", "method", "iterations", "solved")
#: the integer columns of records.csv, none of which may be negative
_COUNT_COLUMNS = ("pair_index", "start_index", "pair_seed", "start_seed", "iterations")


@dataclass(frozen=True)
class BenchmarkTable:
    """All instance outcomes of one grid run plus the aggregation logic.

    ``grid`` is None for a table rebuilt from records alone: its bins are
    W1 up to the highest one a record names, and it has no bin edges."""

    grid: CategoryGrid | None
    methods: tuple
    master_seed: int
    records: tuple

    @cached_property
    def bin_labels(self) -> tuple:
        """W1, W2, ...: one label per primary bin."""
        n_bins = (len(self.grid.primary_bins) if self.grid is not None
                  else 1 + max(r.primary_index for r in self.records))
        return tuple(map(CategoryGrid.primary_label, range(n_bins)))

    @cached_property
    def _pairs(self) -> dict:
        """Per method, its records by pair: (primary bin index, cell, pair
        index, theta_F) -> records, from one scan."""
        pairs = {}
        for r in self.records:
            key = (r.primary_index, r.cell, r.pair_index, r.theta_F)
            pairs.setdefault(r.method, {}).setdefault(key, []).append(r)
        return pairs

    @cached_property
    def bin_stats(self) -> dict:
        """Per method, per bin label: median, mean and sample std of the
        iteration counts, the unsolved and the instance count.  The summary,
        its CSV and ``--json`` all read this mapping."""
        n_bins = len(self.bin_labels)
        stats = {}
        for method in self.methods:
            counts, unsolved = [[] for _ in range(n_bins)], [0] * n_bins
            for (i, *_), group in self._pairs.get(method, {}).items():
                if i < n_bins:
                    counts[i] += (r.iterations for r in group)
                    unsolved[i] += sum(not r.solved for r in group)
            stats[method] = {
                label: {
                    "median": statistics.median(c) if c else math.nan,
                    "mean": statistics.fmean(c) if c else math.nan,
                    "std": statistics.stdev(c) if len(c) > 1 else 0.0,
                    "unsolved": u,
                    "instances": len(c),
                }
                for label, c, u in zip(self.bin_labels, map(sorted, counts), unsolved)
            }
        return stats

    def summary_rows(self) -> list:
        """Summary table: a header, the instance counts, then one row per
        method and statistic, one column per primary bin.  Values are left
        unformatted."""
        first = self.bin_stats[self.methods[0]].values()
        rows = [
            ["method", "statistic", *self.bin_labels],
            ["", "instances"] + [b["instances"] for b in first],
        ]
        for method in self.methods:
            per_bin = self.bin_stats[method].values()
            for stat in ("median", "mean", "std", "unsolved"):
                rows.append([method, stat] + [b[stat] for b in per_bin])
        return rows

    def format_summary(self) -> str:
        """The summary table as aligned text columns."""
        header, *rows = self.summary_rows()
        cells = [header] + [row[:2] + [f"{v:g}" for v in row[2:]] for row in rows]
        widths = [max(len(r[c]) for r in cells) for c in range(len(header))]
        return "\n".join(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in cells
        )

    # -- exports ------------------------------------------------------------

    def export(self, out_dir) -> None:
        """Write summary.csv, records.csv and the per-method profiles into
        ``out_dir``, creating it if needed, and remove the profiles there
        of methods this table does not hold (an earlier run's)."""
        out_dir = pathlib.Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "summary.csv", "w") as fh:
            self.write_summary_csv(fh)
        with open(out_dir / "records.csv", "w") as fh:
            self.write_records_csv(fh)
        for stale in set(out_dir.glob("profile_*.csv")) - set(self.write_profile_csvs(out_dir)):
            stale.unlink()

    def write_summary_csv(self, fh) -> None:
        """``summary_rows`` as CSV, values written with ``repr``."""
        header, *rows = self.summary_rows()
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(row[:2] + [repr(v) for v in row[2:]] for row in rows)

    def write_records_csv(self, fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RECORD_COLUMNS)
        for r in self.records:
            writer.writerow(
                [r.cell, r.pair_index, r.start_index, r.pair_seed, r.start_seed,
                 repr(r.theta_F), repr(r.theta_p), r.method, r.iterations,
                 "true" if r.solved else "false"]
            )

    def write_profile_csvs(self, out_dir) -> list:
        """Per-method files of (theta_F, median iterations over the pair's
        starts), sorted by angle: the raw data behind an iterations-vs-angle
        plot."""
        out_dir = pathlib.Path(out_dir)
        written = []
        for method in self.methods:
            rows = sorted(
                (theta_f, float(statistics.median(r.iterations for r in group)))
                for (*_, theta_f), group in self._pairs.get(method, {}).items()
            )
            path = out_dir / f"profile_{method.replace(':', '_').replace('/', '_')}.csv"
            with open(path, "w") as fh:  # csv writes a float as its repr
                csv.writer(fh, lineterminator="\n").writerows([("theta_F", "median_iterations"), *rows])
            written.append(path)
        return written


def method_rules(methods) -> list:
    """``run_grid``'s methods as ``(label, rule)`` pairs, validated before
    any pair is sampled: ValueError for an unknown method, none at all, or a
    label given twice (``T:0.5`` and ``T:0.5000001`` share one), whose
    records would merge."""
    rules = []
    for m in methods:
        if isinstance(m, tuple):
            rules.append(m)
        else:
            spec = m if isinstance(m, MethodSpec) else parse_method(m)
            rules.append((spec.label, lambda geom, spec=spec: spec))
        if rules[-1][0] in (label for label, _ in rules[:-1]):
            raise ValueError(f"method label {rules[-1][0]!r} is repeated")
    if not rules:
        raise ValueError("need at least one method")
    return rules


def table_pairs(grid: CategoryGrid, master_seed: int):
    """Yield each seeded pair of a table, cell by cell, as ``((i, j), k,
    pair_seed, geom, starts)``: its cell, its index in the cell, its seed,
    the measured pair (``sample_pair``) and its starts as ``(m, start_seed,
    x0)``.  ``run_grid`` and ``tests/check_tables.py`` walk a table through
    this one order and these seeds."""
    for i, j, k in itertools.product(
            range(len(grid.primary_bins)), range(grid.secondary_bins), range(grid.pairs_per_cell)):
        pair_seed = _derive_seed(master_seed, i, j, k)
        geom = sample_pair(grid, (i, j), pair_seed)  # before the starts: it fails first on a huge grid
        seeds = [_derive_seed(master_seed, i, j, k, 1000 + m) for m in range(grid.starts_per_pair)]
        yield (i, j), k, pair_seed, geom, [
            (m, seed, start_vector(grid.ambient_dim, seed, norm=grid.start_norm)) for m, seed in enumerate(seeds)]


def run_grid(grid: CategoryGrid, methods, master_seed: int) -> BenchmarkTable:
    """Run every method on every seeded (cell, pair, start) instance.

    ``methods`` may hold MethodSpec objects, method strings, or
    ``(label, rule)`` pairs whose ``rule(geom)`` returns the MethodSpec to
    run on each sampled pair; records carry the label.  All methods see
    identical pairs and starts.  A method whose iteration diverges or hits
    max_iter records the instance as unsolved at max_iter.
    """
    rules = method_rules(methods)
    records = []
    for (i, j), k, pair_seed, geom, starts in table_pairs(grid, master_seed):
        specs = [(label, rule(geom)) for label, rule in rules]
        for m, start_seed, x0 in starts:
            for label, spec in specs:
                try:
                    trace = iterate(spec, geom, x0, eps=grid.eps, max_iter=grid.max_iter)
                except DivergenceError:
                    trace = None
                solved = trace is not None and trace.solved
                records.append(InstanceRecord(
                    cell=grid.cell_label(i, j), primary_index=i, pair_index=k, start_index=m,
                    pair_seed=pair_seed, start_seed=start_seed, theta_F=geom.theta_F,
                    theta_p=geom.theta_p, method=label,
                    iterations=trace.iterations if solved else grid.max_iter, solved=solved))
    return BenchmarkTable(grid=grid, methods=tuple(label for label, _ in rules),
                          master_seed=int(master_seed), records=tuple(records))


# ---------------------------------------------------------------------------
# re-aggregation from a records file


def read_records_csv(fh) -> list:
    """Parse a records.csv back into InstanceRecord rows.  Raises ValueError
    naming the missing columns, or the line of a row that does not parse or
    holds an impossible value: a negative count, index or seed, a theta that
    is not in [0, pi/2], theta_F above theta_p, or a (cell, pair_index,
    start_index, method) that an earlier line already holds."""
    reader = csv.DictReader(fh)
    missing = [c for c in RECORD_COLUMNS if c not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"not a records.csv: missing column(s) {', '.join(missing)}")
    records, first_line = [], {}
    for row in reader:
        try:
            if None in row.values():
                raise ValueError(f"expected {len(RECORD_COLUMNS)} fields")
            cell = row["cell"]
            label = re.fullmatch(r"W([1-9][0-9]*)Z[1-9][0-9]*", cell)
            if label is None:
                raise ValueError(f"cell must be W<i>Z<j> with i, j >= 1, got {cell!r}")
            if row["solved"] not in ("true", "false"):
                raise ValueError(f"solved must be true or false, got {row['solved']!r}")
            counts = {name: int(row[name]) for name in _COUNT_COLUMNS}
            for name, value in counts.items():
                if value < 0:
                    raise ValueError(f"{name} must be >= 0, got {value}")
            thetas = {name: float(row[name]) for name in ("theta_F", "theta_p")}
            for name, value in thetas.items():
                if not 0.0 <= value <= math.pi / 2:
                    raise ValueError(f"{name} must lie in [0, pi/2], got {row[name]!r}")
            if thetas["theta_F"] > thetas["theta_p"]:
                raise ValueError(f"theta_F={row['theta_F']} exceeds theta_p={row['theta_p']}")
            key = (cell, counts["pair_index"], counts["start_index"], row["method"])
            first = first_line.setdefault(key, reader.line_num)
            if first != reader.line_num:
                raise ValueError(
                    f"repeats the instance of line {first} (cell {cell}, pair_index "
                    f"{key[1]}, start_index {key[2]}, method {key[3]})")
            records.append(InstanceRecord(
                cell=cell, primary_index=int(label[1]) - 1, **counts, **thetas,
                method=row["method"], solved=row["solved"] == "true"))
        except ValueError as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None
    return records


def table_from_records(records, grid: CategoryGrid | None = None) -> BenchmarkTable:
    """Reassemble a BenchmarkTable (methods in first-appearance order).

    Without ``grid`` the table has no bin edges: its bins run from W1 to the
    highest one a record names.  Statistics recomputed this way agree
    exactly with the original run; seeds are carried in the records
    themselves.
    """
    methods = tuple(dict.fromkeys(r.method for r in records))
    return BenchmarkTable(grid=grid, methods=methods, master_seed=-1, records=tuple(records))
