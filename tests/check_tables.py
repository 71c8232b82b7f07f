"""Check every run of a benchmark table against a slow path, for each
master seed given (2025 when none is): the desk table, with R:0.5 next to
its methods, or with ``--full`` the ``bench --full`` protocol's.  One walk
over the table (``bench.table_pairs``, in ``run_grid``'s order) makes four
checks:

- each BT run against ``oracles.bt_moment_loop``, byte for byte in all it
  returns and in the principal coordinates of its final point, which
  hold the bits of planes that underflow until their square is 0.0 and
  leave BT's kernel, and which ``x_final`` rounds away;
- each linear run of more than one chunk at 1/32 of ``_CHUNK_ELEMENTS``
  against the shipped cap: the same count, outcome, divergence step and
  length, and each distance within a relative 1e-12 (plus 1e-12 gamma^n
  |x0| for DR, as in ``test_a_chunk_plan_never_changes_an_answer``);
- each linear run that does not diverge against the dense projectors: its
  first and last distances are those of x0 and ``x_final`` (of their P_V
  shadows for R and DR) within 1e-12 |x0|, which no chunk cap can show of
  a wrong coordinate change into the principal frame or out of it;
- on the desk table, each linear run against ``oracles.dense_iterate``:
  the same count, ``solved`` flag and divergence step, with the smallest
  |d_n/eps - 1| at a crossing of eps printed as the margin.  ``--full``
  skips it: its runs would take about 40M dense steps at n = 100.

    PYTHONPATH=src python tests/check_tables.py [--full] [SEED ...]

It prints each run that differs and a summary per seed and check, with
BT's planes at ±0.0 and out of the kernel, and exits 1 if any run differs.
"""

import argparse
import collections
import sys
from unittest import mock

import numpy as np

import oracles
import projrates.methods
from projrates.bench import DESK_METHODS, FULL_GRID, FULL_METHODS, CategoryGrid, method_rules, table_pairs
from projrates.methods import SHADOW_KINDS, DivergenceError, iterate, predict_rate
from projrates.subspaces import PrincipalFrame

#: the desk methods and R away from mu = 1, which DR alone leaves unchecked
DESK_CHECKED = (*DESK_METHODS, "R:0.5")


def inert(v: np.ndarray) -> int:
    """Nonzero values whose square is 0.0."""
    return int(np.count_nonzero((v != 0.0) & (v * v == 0.0)))


def outcome(run, spec, geom, x0, grid):
    """The trace of a run, or the step at which it diverged."""
    try:
        return run(spec, geom, x0, eps=grid.eps, max_iter=grid.max_iter)
    except DivergenceError as exc:
        return exc.step


def at_cap(cap, spec, geom, x0, grid):
    """``outcome`` of ``iterate`` at chunk cap ``cap``, and its number of chunks."""
    with mock.patch.object(projrates.methods, "_CHUNK_ELEMENTS", cap), mock.patch.object(
            projrates.methods, "_chunk_steps", wraps=projrates.methods._chunk_steps) as chunk_steps:
        return outcome(iterate, spec, geom, x0, grid), chunk_steps.call_count


def answer(run):
    """A run's divergence step, or its count and outcome."""
    return run if isinstance(run, int) else (run.solved, run.iterations)


def agree(got, ref, spec, geom, x0) -> bool:
    """The answers of two runs that group their products differently."""
    if isinstance(got, int) or isinstance(ref, int):
        return got == ref
    if (answer(got), len(got.distances)) != (answer(ref), len(ref.distances)):
        return False
    tol = 1e-12 * ref.distances
    if spec.kind in SHADOW_KINDS:
        tol += 1e-12 * predict_rate(spec, geom).gamma ** np.arange(len(tol)) * np.linalg.norm(x0)
    return bool(np.all(np.abs(got.distances - ref.distances) <= tol))


def dense_distance(spec, geom, x) -> float:
    """The distance of x to U ∩ V, of its P_V shadow for R and DR, from
    the n x n projectors."""
    if spec.kind in SHADOW_KINDS:
        x = geom.P_V @ x
    return float(np.linalg.norm(x - geom.P_M @ x))


def ends_agree(run, spec, geom, x0) -> bool:
    """The first and last distances of a run that did not diverge are the
    dense ones of its start and its final point."""
    dense = [dense_distance(spec, geom, x) for x in (x0, run.x_final)]
    return bool(np.all(np.abs(run.distances[[0, -1]] - dense) <= 1e-12 * np.linalg.norm(x0)))


def check(grid, methods, master_seed: int, full: bool = False) -> int:
    """Walk the seed's table of ``methods`` on ``grid`` once and check each
    run, against the dense loop too unless it is the ``full`` protocol's;
    returns the number of runs that differ."""
    name, shipped = "--full" if full else "desk", projrates.methods._CHUNK_ELEMENTS
    small = shipped // 32
    rules = method_rules(methods)
    linear = ", ".join(label for label, _ in rules if label != "BT")
    # per BT float loop its start, end and kernel calls; the parts of the last two final points
    runs, joined = [], collections.deque(maxlen=2)
    loop, kernel, join = projrates.methods._bt_float_loop, projrates.methods._bt_kernel, PrincipalFrame.join

    def spy_loop(a, *args):
        runs.append([a.copy(), None, []])
        runs[-1][1] = loop(a, *args)
        return runs[-1][1]

    def spy_kernel(k):
        def call(*args):
            out = kernel(k)(*args)
            runs[-1][2].append((k, np.array(out[0])))  # plane count, values returned
            return out
        return call

    def spy_join(frame, *parts):
        joined.append(b"".join(np.asarray(part).tobytes() for part in parts))
        return join(frame, *parts)

    bt = bt_bad = chunked = capped = chunk_bad = ended = end_bad = dense_runs = dense_bad = 0
    margin = float("inf")
    with mock.patch.multiple(projrates.methods, _bt_float_loop=spy_loop, _bt_kernel=spy_kernel), \
            mock.patch.object(PrincipalFrame, "join", spy_join):
        for (i, j), k, _, geom, starts in table_pairs(grid, master_seed):
            specs = [(label, rule(geom)) for label, rule in rules]
            for m, _, x0 in starts:
                where = f"seed {master_seed}, {grid.cell_label(i, j)}/{k} start {m}"
                for label, spec in specs:
                    if spec.kind == "BT":
                        got = iterate(spec, geom, x0, eps=grid.eps, max_iter=grid.max_iter)
                        ref = oracles.bt_moment_loop(geom, x0, eps=grid.eps, max_iter=grid.max_iter)
                        bt += 1
                        # reading got.x_final joins the engine's point, after the oracle's
                        if (answer(got), got.mu_history, got.distances.tobytes(), got.x_final.tobytes(), joined[-1]) != (
                                answer(ref), ref.mu_history, ref.distances.tobytes(), ref.x_final.tobytes(), joined[-2]):
                            bt_bad += 1
                            print(f"{where}: BT differs from the oracle ({len(got.distances) - 1} against "
                                  f"{len(ref.distances) - 1} steps)")
                        continue
                    got = outcome(iterate, spec, geom, x0, grid)
                    if not isinstance(got, int):
                        ended += 1
                        if not ends_agree(got, spec, geom, x0):
                            end_bad += 1
                            print(f"{where}: {label}'s first or last distance is not the dense one")
                    small_run, chunks = at_cap(small, spec, geom, x0, grid)
                    if chunks > 1:
                        chunked += 1
                        capped += answer(small_run) == (False, None)
                        if not agree(small_run, got, spec, geom, x0):
                            chunk_bad += 1
                            print(f"{where}: {label} differs between chunk caps {small} and {shipped}")
                    if full:
                        continue
                    dense_runs += 1
                    ref = outcome(oracles.dense_iterate, spec, geom, x0, grid)
                    if answer(got) != answer(ref):
                        dense_bad += 1
                        print(f"{where}: {label} gives {answer(got)}, the dense loop {answer(ref)}")
                    if not isinstance(got, int) and got.solved and got.iterations:
                        margin = min(margin, *abs(got.distances[-2:] / grid.eps - 1.0))
    left = rerun = 0
    for start, _, calls in runs:
        left += inert(start)  # never asked of the kernel
        for (k, out), (k_next, _) in zip(calls, calls[1:]):
            if k_next > k:  # a plane comes back only when its segment is run again
                rerun += 1
            else:
                left += inert(out)
    zeros = np.concatenate([np.empty(0)] + [end for _, end, _ in runs])
    zeros = zeros[zeros == 0.0]
    print(f"seed {master_seed}: {bt - bt_bad} of {bt} {name} BT runs equal oracles.bt_moment_loop byte for byte; "
          f"{len(zeros)} planes end at 0.0 ({np.count_nonzero(np.signbit(zeros))} of them -0.0); {left} planes "
          f"left the kernel at a nonzero value whose square is 0.0; {rerun} segments were run again")
    print(f"seed {master_seed}: {chunked - chunk_bad} of {chunked} {name} {linear} runs of more than one "
          f"chunk at cap {small} ({capped} capped at {grid.max_iter} steps) agree with cap {shipped}")
    print(f"seed {master_seed}: {ended - end_bad} of {ended} {name} {linear} runs that do not diverge start "
          f"and end at the dense distance of x0 and x_final, within 1e-12 |x0|")
    print(f"seed {master_seed}: {name} skips oracles.dense_iterate (about 40M dense steps at n = 100)" if full
          else f"seed {master_seed}: {dense_runs - dense_bad} of {dense_runs} {name} {linear} runs give oracles."
          f"dense_iterate's count, solved flag and divergence step; smallest |d_n/eps - 1| at a crossing {margin:.2e}")
    return bt_bad + chunk_bad + end_bad + dense_bad


def main() -> int:
    parser = argparse.ArgumentParser(description="every run of a benchmark table against a slow path")
    parser.add_argument("seeds", nargs="*", type=int, default=[2025], help="master seeds")
    parser.add_argument("--full", action="store_true", help="the bench --full protocol, not the desk table")
    args = parser.parse_args()
    grid, methods = (FULL_GRID, FULL_METHODS) if args.full else (CategoryGrid(), DESK_CHECKED)
    return 1 if sum(check(grid, methods, seed, args.full) for seed in args.seeds) else 0


if __name__ == "__main__":
    sys.exit(main())
