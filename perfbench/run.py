#!/usr/bin/env python3
"""Performance benchmark of projrates: one workload, one seed, one run.

    python3 perfbench/run.py --workload desk-grid --seed 7 --seconds 30 --trace 0

Runs whole passes of the workload until ``--seconds`` have elapsed (and at
least the workload's minimum number of passes), checks every item's output,
prints every metric by name with its unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
each pass is run twice, untraced and then traced on the same inputs, and the
metrics are the per-layer ones (see BENCHMARK.json and README.md).  A full
report, the provenance block and, when traced, the spans are written under
``perfbench/out/``.

``--fingerprint`` instead runs ``run_grid`` on the paper's table for seed
2025 with the three CSV exports and checks records.csv byte for byte against
``reference.json``, which is committed data and is never written here.

The package is imported from ``src/`` of the checkout this file sits in; the
run exits with status 2, without a result line, when there is none.
"""

import os

#: BLAS threads of this process and of the processes it starts
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import itertools
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: fresh-interpreter imports timed per run; setup_s is their median
SETUP_REPEATS = 5
LAYERS = ("bench", "subspaces", "methods", "spectral", "matio", "cli")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("desk-grid", "large-pairs", "analyze"))
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fingerprint", action="store_true",
                        help="check records.csv of the seed-2025 table against reference.json")
    args = parser.parse_args(argv)
    if not args.fingerprint and args.workload is None:
        parser.error("--workload is required")
    return args


# ---------------------------------------------------------------------------
# provenance


def provenance(args, workload) -> dict:
    import numpy as np

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            commit = "unknown (git not available)"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload_params": workload.params(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
    }


# ---------------------------------------------------------------------------
# measurement


def measure_setup(workload, seed):
    """Median over SETUP_REPEATS of (fresh interpreter importing projrates +
    generating and writing the inputs).  Returns (seconds, inputs, ok) where
    ok says that every repeat produced identical inputs."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import projrates"
    times, digests = [], set()
    inputs = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(SRC)], check=True, timeout=120)
        inputs = workload.generate(seed, OUT)
        times.append(time.perf_counter() - t0)
        digests.add(inputs.digest)
    return statistics.median(times), inputs, len(digests) == 1


def run_passes(workload, inputs, seconds, trace):
    """Whole passes until ``seconds`` elapsed and the minimum is met.  Returns
    (untraced passes, traced passes, tracer); a pass is (wall, items)."""
    from tracing import NullTracer, Tracer

    ids = itertools.count()
    untraced, traced = [], []
    tracer = Tracer() if trace else None
    null = NullTracer()
    # a traced run covers at least two passes: both halves of desk-grid's table
    minimum = 2 if trace else workload.min_passes
    start = time.perf_counter()
    index = 0
    while index < minimum or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        items = workload.run_pass(inputs, index, null, ids)
        untraced.append((time.perf_counter() - t0, items))
        if trace:
            spans, counts = workload.patches()
            with tracer.patched(spans, counts):
                t0 = time.perf_counter()
                with tracer.span("bench.pass"):
                    items = workload.run_pass(inputs, index, tracer, ids)
                traced.append((time.perf_counter() - t0, items))
        index += 1
    return untraced, traced, tracer


def percentile(values, pct):
    """Nearest-rank percentile and the number of values above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(workload, setup_s, passes, failed):
    """End-to-end values of untraced passes; ``failed`` counts failed items
    and failed run-level checks."""
    items = [it for _, batch in passes for it in batch]
    latencies = [it.latency_s for it in items]
    tail, beyond = percentile(latencies, workload.tail_pct)
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(wall for wall, _ in passes),
        "items_per_s": len(items) / sum(wall for wall, _ in passes),
        "item_p50_ms": 1000.0 * statistics.median(latencies),
        "item_tail_ms": 1000.0 * tail,
        "ok_share": (len(items) - failed) / len(items),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "item_tail_ms": f"p{workload.tail_pct:g} of {len(items)} items, {beyond} beyond it",
        "wall_s": f"median of {len(passes)} passes",
    }
    return values, notes


def _item_spans(tracer, name):
    """(span record, item id) for spans called ``name``; a span opened
    without an item takes the item of its nearest ancestor that has one."""
    for rec in tracer.spans:
        if rec[0] != name:
            continue
        item, parent = rec[4], rec[3]
        while item is None and parent is not None:
            item, parent = tracer.spans[parent][4], tracer.spans[parent][3]
        yield rec, item


def _ms_per_class(tracer, name, cls_of, default_cls):
    """Mean milliseconds per call of span ``name`` by item class."""
    calls, secs = Counter(), defaultdict(float)
    for rec, item in _item_spans(tracer, name):
        cls = cls_of.get(item, default_cls)
        calls[cls] += 1
        secs[cls] += rec[2] - rec[1]
    return {cls: 1000.0 * secs[cls] / calls[cls] for cls in sorted(calls)}


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(workload, inputs, untraced, traced, tracer):
    """Returns (metrics for the result line, detailed per-layer figures);
    both map a name to (value, unit)."""
    summary = tracer.summary()
    traced_wall = sum(wall for wall, _ in traced)
    # totals grow with the number of passes a run fits in; report them per pass
    per_pass = 1.0 / len(traced)
    layer_self = tracer.layer_self_s()
    items = [it for _, batch in traced for it in batch]
    cls_of = {it.item: it.cls for it in items}
    runs = [run for it in items for run in it.runs]
    steps = sum(r.steps for r in runs)
    outcomes = Counter(r.outcome for r in runs)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def total_s(name):
        return summary.get(name, {}).get("total_s", 0.0)

    geometries = calls("subspaces.pair_geometry")
    classifies = calls("spectral.classify_convergence")
    projector_bytes = sum(
        3 * 8 * int(cls_of.get(item, workload.default_cls)[1:]) ** 2
        for _, item in _item_spans(tracer, "subspaces.pair_geometry")
    )
    size_of = {case.path: case.size for case in getattr(inputs, "cases", ())}
    bytes_read = sum(size_of.values()) * len(traced)

    metrics = {
        "bench.self_s": (layer_self.get("bench", 0.0) * per_pass, "s"),
        "trace.overhead_s": (
            statistics.median(t - u for (t, _), (u, _) in zip(traced, untraced)), "s"),
        "trace.spans": (len(tracer.spans) * per_pass, "count"),
        **{f"layer_share.{layer}": (_ratio(layer_self.get(layer, 0.0), traced_wall), "share")
           for layer in LAYERS},
        "pair_setup_share": (
            _ratio(layer_self.get("subspaces", 0.0) + total_s("methods.build_operator"), traced_wall),
            "share"),
        "methods.steps_per_run": (_ratio(steps, len(runs)), "count"),
        "methods.solved_share": (_ratio(outcomes["solved"], len(runs)), "share"),
        "methods.capped_share": (_ratio(outcomes["capped"], len(runs)), "share"),
        "methods.diverged_share": (_ratio(outcomes["diverged"], len(runs)), "share"),
        "methods.capped_steps_share": (
            _ratio(sum(r.steps for r in runs if r.outcome == "capped"), steps), "share"),
        "subspaces.svd_calls_per_geometry": (
            _ratio(tracer.counts[("subspaces.pair_geometry", "svd")], geometries), "count"),
        "subspaces.projector_mb": (_ratio(projector_bytes, geometries) / 1e6, "MB"),
        "spectral.svd_calls_per_classify": (
            _ratio(tracer.counts[("spectral.classify_convergence", "svd")], classifies), "count"),
        "spectral.eig_calls_per_classify": (
            _ratio(tracer.counts[("spectral.classify_convergence", "eig")], classifies), "count"),
        "matio.bytes_per_read": (_ratio(bytes_read, calls("matio.read_matrix")), "bytes"),
        "cli.json_bytes_per_call": (_ratio(sum(it.out_bytes for it in items), calls("cli.main")), "bytes"),
    }

    # detailed figures: printed and written to the report, not in the result line
    details = {}
    # runs and methods.iterate spans are created in the same order; a step's
    # cost is the span's self time, without the build_operator inside it
    own = tracer.self_s()
    iterate_self = [own[i] for i, rec in enumerate(tracer.spans) if rec[0] == "methods.iterate"]
    by_method = defaultdict(lambda: [0, 0.0])
    step_cost = defaultdict(lambda: [0, 0.0])
    for r, secs in zip(runs, iterate_self, strict=True):
        by_method[r.method][0] += r.steps
        by_method[r.method][1] += r.seconds
        step_cost[(r.method, r.cls)][0] += r.steps
        step_cost[(r.method, r.cls)][1] += secs
    for method, (n_steps, secs) in by_method.items():
        label = method.replace(":", "-")
        details[f"methods.iterate_s.{label}"] = (secs * per_pass, "s")
        details[f"methods.steps.{label}"] = (n_steps * per_pass, "count")
    for (method, cls), (n_steps, secs) in sorted(step_cost.items()):
        label = method.replace(":", "-")
        details[f"methods.us_per_step.{label}.{cls}"] = (1e6 * _ratio(secs, n_steps), "us")
    for name, prefix in (
        ("methods.build_operator", "methods.build_operator_ms"),
        ("subspaces.canonical_pair", "subspaces.canonical_pair_ms"),
        ("subspaces.pair_geometry", "subspaces.pair_geometry_ms"),
        ("spectral.classify_convergence", "spectral.classify_ms"),
    ):
        for cls, ms in _ms_per_class(tracer, name, cls_of, workload.default_cls).items():
            details[f"{prefix}.{cls}"] = (ms, "ms")
    for name in ("spectral.report_to_dict", "matio.read_matrix"):
        if calls(name):
            details[f"{name}_ms"] = (1000.0 * total_s(name) / calls(name), "ms")
    if calls("cli.main"):
        details["cli.self_ms"] = (1000.0 * summary["cli.main"]["self_s"] / calls("cli.main"), "ms")
    for name in ("bench.start_vector", "bench.export"):
        details[f"{name}_s"] = (total_s(name) * per_pass, "s")
    for cls in sorted({cls_of.get(item, workload.default_cls)
                       for _, item in _item_spans(tracer, "subspaces.pair_geometry")}):
        details[f"subspaces.projector_mb.{cls}"] = (3 * 8 * int(cls[1:]) ** 2 / 1e6, "MB")
    for layer in LAYERS:
        details[f"{layer}.self_s"] = (layer_self.get(layer, 0.0) * per_pass, "s")
    details["trace.traced_wall_s"] = (statistics.median(w for w, _ in traced), "s")
    details["trace.untraced_wall_s"] = (statistics.median(w for w, _ in untraced), "s")
    return metrics, details


def rationale(workload_name, metrics) -> str:
    """Whether the traced figures support the reason the workload exists."""
    share = {layer: metrics[f"layer_share.{layer}"][0] for layer in LAYERS}
    setup = metrics["pair_setup_share"][0]
    if workload_name == "desk-grid":
        verdict = "holds" if share["methods"] > 0.5 else "FAILS"
        return (f"methods takes {share['methods']:.1%} of traced wall, pair set-up "
                f"{setup:.2%} (rationale: methods most): {verdict}")
    if workload_name == "analyze":
        verdict = "holds" if share["spectral"] > 0.5 else "FAILS"
        return f"spectral takes {share['spectral']:.1%} of traced wall (rationale: most): {verdict}"
    verdict = "holds" if setup > 0.05 else "FAILS"
    return (f"pair set-up (subspaces + build_operator) takes {setup:.1%} of traced wall "
            f"(rationale: far more than on desk-grid, where it is under 1 %): {verdict}")


# ---------------------------------------------------------------------------
# fingerprint of the paper's table


def fingerprint() -> int:
    import hashlib

    from projrates.bench import run_grid
    from workloads import GRID, METHODS, REFERENCE_FILE, REFERENCE_SEED, write_exports

    out_dir = OUT / "fingerprint"
    t0 = time.perf_counter()
    table = run_grid(GRID, list(METHODS), REFERENCE_SEED)
    write_exports(table, out_dir)
    wall = time.perf_counter() - t0
    data = (out_dir / "records.csv").read_bytes()
    rows = data.decode().split("\n", 1)[1].splitlines(keepends=True)
    per_pair = len(METHODS) * GRID.starts_per_pair
    pairs = []
    for at in range(0, len(rows), per_pair):
        chunk = rows[at : at + per_pair]
        first = table.records[at]
        pairs.append({
            "cell": [first.primary_index, int(first.cell.split("Z")[1]) - 1],
            "pair_index": first.pair_index,
            "rows_sha256": hashlib.sha256("".join(chunk).encode()).hexdigest(),
            "steps": sum(r.iterations for r in table.records[at : at + per_pair]),
        })
    current = {
        "seed": REFERENCE_SEED,
        "methods": list(METHODS),
        "records": len(table.records),
        "records_sha256": hashlib.sha256(data).hexdigest(),
        "pairs": pairs,
    }
    print(f"run_grid seed {REFERENCE_SEED}: {len(table.records)} records in {wall:.1f} s")
    print(f"records.csv sha256 {current['records_sha256']}")
    stored = json.loads(REFERENCE_FILE.read_text())
    if stored != current:
        print(f"records.csv DIFFERS from {REFERENCE_FILE.name}", file=sys.stderr)
        return 1
    print(f"records.csv matches {REFERENCE_FILE.name} byte for byte")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "projrates" / "__init__.py").is_file():
        print(f"error: no projrates package under {SRC}; run from a projrates checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.fingerprint:
        return fingerprint()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    prov = provenance(args, workload)
    setup_s, inputs, deterministic = measure_setup(workload, args.seed)
    untraced, traced, tracer = run_passes(workload, inputs, args.seconds, args.trace)

    measured = untraced + traced
    items = [it for _, batch in measured for it in batch]
    failures = [it.failure for it in items if it.failure]
    if not deterministic:
        failures.append("set-up produced different inputs from the same seed")
    failures += workload.final_checks(inputs)

    if args.trace:
        metrics, details = per_layer(workload, inputs, untraced, traced, tracer)
        notes = {}
    else:
        values, notes = end_to_end(workload, setup_s, untraced, len(failures))
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        details = {}

    print(f"projrates benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(untraced)} passes{' (+ traced twins)' if args.trace else ''}, "
          f"{len(items)} items")
    for name, (value, unit) in {**metrics, **details}.items():
        note = f"   ({notes[name]})" if name in notes else ""
        print(f"  {name} = {value:.6g} {unit}{note}")
    if args.trace:
        print(f"rationale: {rationale(args.workload, metrics)}")
    for failure in failures[:10]:
        print(f"FAILED: {failure}")
    print("provenance " + json.dumps(prov, sort_keys=True))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "provenance": prov,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": {k: {"value": v, "unit": u} for k, (v, u) in details.items()},
        "notes": notes,
        "failures": failures,
        "pass_walls_s": [w for w, _ in untraced],
    }
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(tracer.to_json()) + "\n")

    result = {
        "correct": not failures,
        "attempted": len(items),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
