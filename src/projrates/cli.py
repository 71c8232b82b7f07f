"""Command-line interface.

Subcommands:
    analyze   classify whether powers of a matrix converge, report the rate
    angles    principal angles and intersection data for two subspaces
    solve     run one projection method on a pair until the stopping rule
    bench     seeded benchmark grid, CSV exports, summary table
    report    re-aggregate a records.csv into the summary table

Exit codes: 0 success (and "convergent"/"solved" where applicable);
1 input, parse, or configuration error; 2 matrix not convergent;
3 iteration did not reach the tolerance (max_iter or divergence);
141 stdout was closed early (``| head``), with nothing on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .bench import (
    DESK_METHODS,
    FULL_GRID,
    FULL_METHODS,
    CategoryGrid,
    method_rules,
    read_records_csv,
    run_grid,
    start_vector,
    table_from_records,
)
from .matio import read_matrix, read_vector
from .methods import (
    X0_BOUND,
    DivergenceError,
    convergence_interval,
    fit_rate,
    iterate,
    parse_method,
    predict_rate,
)
from .spectral import classify_convergence, report_to_dict
from .subspaces import geometry_to_dict, pair_geometry, subspace_from_spanning

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CONVERGENT = 2
EXIT_NOT_SOLVED = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a filter that signal stopped


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fmt_eig(z: complex) -> str:
    if z.imag == 0.0:
        return _fmt(z.real)
    return f"{z:.12g}"


def _load_geometry(u_file: str, v_file: str, zero_tol: float):
    u = subspace_from_spanning(read_matrix(u_file))
    v = subspace_from_spanning(read_matrix(v_file))
    return pair_geometry(u, v, zero_tol=zero_tol)


#: encodes one row of a matrix as ``json.dumps(indent=2)`` lays out the
#: entries of a row nested two levels under a top-level key, but in C
_MATRIX_ROW = json.JSONEncoder(separators=(",\n      ", ": "), allow_nan=False)


def _json_dumps(d: dict) -> str:
    """``json.dumps(d, indent=2, allow_nan=False)``, byte for byte, so a
    non-finite float raises ValueError: JSON has no NaN.  With ``indent``
    set, ``json`` encodes in pure Python, so each top-level matrix, a
    nonempty list of nonempty rows of scalars (the limit of ``analyze``, the
    bases of ``angles``), is written row by row with the C encoder, which
    formats floats with the same ``float.__repr__``, and spliced in."""
    matrices = {
        key: value for key, value in d.items()
        if isinstance(value, list) and value
        and all(isinstance(row, list) and row for row in value)
    }
    text = json.dumps(
        {key: None if key in matrices else value for key, value in d.items()}, indent=2, allow_nan=False
    )
    for key, rows in matrices.items():
        body = ",\n    ".join("[\n      " + _MATRIX_ROW.encode(row)[1:-1] + "\n    ]" for row in rows)
        quoted = json.dumps(key)
        text = text.replace(f"\n  {quoted}: null", f"\n  {quoted}: [\n    {body}\n  ]", 1)
    return text


def _json_stats(table) -> dict:
    """``table.bin_stats`` with null for the median and mean of an empty
    bin, which the summary writes as nan."""
    return {method: {label: b if b["instances"] else {**b, "median": None, "mean": None}
                     for label, b in bins.items()} for method, bins in table.bin_stats.items()}


def cmd_analyze(args) -> int:
    a = read_matrix(args.matrix)
    report = classify_convergence(a)
    if args.json:
        print(_json_dumps(report_to_dict(report)))
    else:
        print(f"status: {report.status}")
        print(f"spectral radius: {_fmt(report.spectral_radius)}")
        print(f"gamma (subdominant modulus): {_fmt(report.gamma)}")
        for c in report.subdominant_clusters:
            print(
                f"  subdominant eigenvalue {_fmt_eig(c.value)}: multiplicity "
                f"{c.algebraic_multiplicity}, index {c.index}, "
                f"{'semisimple' if c.semisimple else 'defective'}"
            )
        if report.status == "convergent":
            attained = "attained" if report.optimal_rate_attained else "NOT attained"
            print(f"optimal rate gamma^k: {attained}")
            print(
                "limit is an orthogonal projector: "
                f"{'yes' if report.limit_is_orthogonal_projector else 'no'}"
            )
        for w in report.warnings:
            print(f"warning: {w}")
    return EXIT_OK if report.status == "convergent" else EXIT_NOT_CONVERGENT


def cmd_angles(args) -> int:
    geom = _load_geometry(args.u_file, args.v_file, args.zero_tol)
    if args.json:
        print(_json_dumps(geometry_to_dict(geom)))
        return EXIT_OK
    print(f"dim U = {geom.p}, dim V = {geom.q}, ambient dim = {geom.ambient_dim}")
    print(f"angles: {' '.join(_fmt(a) for a in geom.angles)}")
    print(f"dim(U intersect V) = {geom.s}")
    if geom.theta_F is None:
        print("theta_F: undefined (U contained in V)")
    else:
        print(f"theta_F = {_fmt(geom.theta_F)}")
    print(f"theta_p = {_fmt(geom.theta_p)}")
    return EXIT_OK


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {seed}")


def cmd_solve(args) -> int:
    _check_seed(args.seed)
    if not 0.0 < args.x0_norm < X0_BOUND:
        raise ValueError(f"--x0-norm must be > 0 and below {X0_BOUND:g}, got {args.x0_norm!r}")
    if args.trace and not os.path.isdir(os.path.dirname(args.trace) or "."):  # fails before the run
        raise ValueError(f"--trace {args.trace}: no such directory")
    geom = _load_geometry(args.u_file, args.v_file, args.zero_tol)
    spec = parse_method(args.method)
    prediction = predict_rate(spec, geom)

    warnings = []
    if not prediction.solves:
        lo, hi = convergence_interval(spec.kind, geom)
        hi_txt = "inf" if math.isinf(hi) else _fmt(hi)
        warnings.append(
            f"mu={_fmt(prediction.mu)} is outside the convergent range "
            f"({_fmt(lo)}, {hi_txt}) of {spec.kind}; running anyway"
        )

    if args.x0 is not None:
        x0 = read_vector(args.x0)
    else:
        x0 = start_vector(geom.ambient_dim, args.seed, args.x0_norm)

    diverged_at = None
    try:
        trace = iterate(spec, geom, x0, eps=args.eps, max_iter=args.max_iter)
    except DivergenceError as exc:
        warnings.append(str(exc))
        diverged_at = exc.step
        trace = None

    fitted = None
    if trace is not None and len(trace.distances) > 1:
        fitted = fit_rate(trace.distances[1:])
    if args.trace and trace is not None:
        with open(args.trace, "w") as fh:
            trace.write_csv(fh)

    solved = trace is not None and trace.solved
    result = {
        "method": spec.label,
        "mu": prediction.mu,
        "predicted_gamma": prediction.gamma,
        "best_mu": prediction.best_mu,
        "best_rate": prediction.best_rate,
        "solved": solved,
        "iterations": trace.iterations if solved else None,
        "final_distance": float(trace.distances[-1]) if trace is not None else None,
        "fitted_rate": fitted,
        "diverged_at": diverged_at,
        "warnings": warnings,
    }
    if args.json:
        print(_json_dumps(result))
    else:
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        print(f"method: {spec.label}" + ("" if prediction.mu is None else f" (mu={_fmt(prediction.mu)})"))
        print(f"predicted gamma: {_fmt(prediction.gamma)}")
        if solved:
            print(f"solved in {trace.iterations} iterations (distance <= {_fmt(args.eps)})")
        elif diverged_at is not None:
            print(f"diverged at iteration {diverged_at}")
        else:
            print(f"not solved within {args.max_iter} iterations")
        if trace is not None:
            print(f"final distance: {_fmt(float(trace.distances[-1]))}")
        print(f"fitted rate: {'n/a' if fitted is None else _fmt(fitted)}")
    return EXIT_OK if solved else EXIT_NOT_SOLVED


def cmd_bench(args) -> int:
    _check_seed(args.seed)
    for flag, value in (("--config", args.config), ("--methods", args.methods)):
        if args.full and value is not None:
            raise ValueError(f"--full fixes the grid and the methods; it cannot be combined with {flag}")
    grid, methods = (FULL_GRID, FULL_METHODS) if args.full else (CategoryGrid(), DESK_METHODS)
    if args.config:
        with open(args.config) as fh:
            try:
                config = json.load(fh)
            except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
                raise ValueError(f"{args.config}: not valid JSON: {exc}") from None
        grid = CategoryGrid.from_dict(config)
    if args.methods is not None:
        methods = [m for m in args.methods.split(",") if m.strip()]
    rules = method_rules(methods)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)  # fails before the grid runs
    try:
        table = run_grid(grid, rules, master_seed=args.seed)
    except RuntimeError as exc:  # sample_pair: a re-measured pair left its cell
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:  # numpy's message is a traceback away from the grid value behind it
        print(f"error: the grid does not fit in memory at ambient_dim={grid.ambient_dim}", file=sys.stderr)
        return EXIT_INPUT
    table.export(out_dir)

    if args.json:
        print(_json_dumps({"master_seed": args.seed, "out": str(out_dir), "stats": _json_stats(table)}))
    else:
        print(table.format_summary())
        print(f"\nwrote {out_dir}/summary.csv, records.csv, and per-method profiles")
    return EXIT_OK


def cmd_report(args) -> int:
    with open(args.records, encoding="utf-8") as fh:
        try:
            records = read_records_csv(fh)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{args.records}: not UTF-8 text: {exc}") from None
        except ValueError as exc:  # a bad row or header, named by its line
            raise ValueError(f"{args.records}: {exc}") from None
    if not records:
        raise ValueError(f"{args.records}: no records found")
    table = table_from_records(records)
    if args.out:
        with open(args.out, "w") as fh:
            table.write_summary_csv(fh)
    if args.json:
        print(_json_dumps({"stats": _json_stats(table)}))
    else:
        print(table.format_summary())
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use.  ``main`` reuses
    it for every call, so callers must not mutate it."""
    parser = argparse.ArgumentParser(
        prog="projrates",
        description=(
            "Convergence analysis of matrix powers and projection methods "
            "for intersecting two subspaces."
        ),
        epilog=(
            "exit codes: 0 ok/convergent/solved, 1 input error, "
            "2 not convergent, 3 tolerance not reached"
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("analyze", help="classify convergence of matrix powers")
    p.add_argument("matrix", help="matrix file ('rows cols' header, one row per line)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("angles", help="principal angles between two subspaces")
    p.add_argument("u_file", help="file whose columns span the first subspace")
    p.add_argument("v_file", help="file whose columns span the second subspace")
    p.add_argument("--zero-tol", type=float, default=1e-8,
                   help="angles at most this count as zero (default 1e-8)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_angles)

    p = sub.add_parser("solve", help="iterate a projection method on a pair")
    p.add_argument("u_file")
    p.add_argument("v_file")
    p.add_argument("--method", required=True,
                   help="one of MAP, DR, BT, AT, T:MU, S:MU, R:MU, T:best, S:best, R:best")
    p.add_argument("--x0", help="starting vector file (default: seeded random)")
    p.add_argument("--seed", type=int, default=0, help="seed for the random start")
    p.add_argument("--x0-norm", type=float, default=10.0,
                   help="norm of the random start (default 10)")
    p.add_argument("--eps", type=float, default=0.01,
                   help="stop when the monitored distance is at most this (default 0.01)")
    p.add_argument("--max-iter", type=int, default=100000)
    p.add_argument("--trace", help="write per-iteration distances to this CSV")
    p.add_argument("--zero-tol", type=float, default=1e-8)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="run the categorized benchmark grid")
    p.add_argument("--config", help="grid configuration JSON file")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", default="bench_out", help="output directory")
    p.add_argument("--methods", help=f"comma-separated method list (default {','.join(DESK_METHODS)})")
    p.add_argument("--full", action="store_true",
                   help="the large protocol: n=100, 5 pairs x 10 starts per cell, 8 methods; "
                        "excludes --config and --methods")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="summarize an existing records.csv")
    p.add_argument("records", help="records.csv from a bench run")
    p.add_argument("--out", help="also write the summary CSV here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader of stdout went away (``| head``): stop quietly, as a Unix
        # filter does, and let the exit-time flush write to /dev/null
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (OSError, ValueError) as exc:  # MatrixFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
