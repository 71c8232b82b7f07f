"""Check every BT run of the desk table against ``oracles.bt_moment_loop``
byte for byte, for each master seed given (2025 when none is); with
``--full``, every BT run of the ``bench --full`` protocol
(``bench.FULL_GRID``) instead.

The desk table's capped W1 runs take 100000 steps, and in them interior
planes underflow until their square is 0.0 and leave BT's kernel.  The
property tests stop long before that, so this script is the check that
covers those planes over whole runs: on the desk pairs (K <= 13) and, with
``--full``, on the n = 100 pairs (K up to 42 at seed 0).  Run it from the
repository root:

    PYTHONPATH=src python tests/check_desk_bt.py [--full] [SEED ...]

It prints one line per mismatching run and, per seed, a summary: how many
planes end at 0.0, how many planes left the kernel at a nonzero value whose
square is 0.0, and how many segments were run again because such a plane
grew.  It exits 1 if any run differs from the oracle in its distances, mus,
final point, count or outcome.
"""

import argparse
import sys

import numpy as np

import oracles
import projrates.methods
from projrates.bench import FULL_GRID, CategoryGrid, _derive_seed, sample_pair, start_vector
from projrates.methods import MethodSpec, iterate


def inert(values) -> int:
    """Nonzero values whose square is 0.0."""
    v = np.asarray(values)
    return int(np.count_nonzero((v != 0.0) & (v * v == 0.0)))


def check(master_seed: int, full: bool = False) -> int:
    """Compare the seed's BT runs of the desk table, or with ``full`` of the
    ``bench --full`` protocol, with the oracle; returns the number of runs
    that differ."""
    grid = FULL_GRID if full else CategoryGrid()
    runs = []  # per float loop: its start, its end and its kernel calls
    loop, kernel = projrates.methods._bt_float_loop, projrates.methods._bt_kernel

    def spy_loop(a, *args):
        runs.append([a.copy(), None, []])
        runs[-1][1] = loop(a, *args)
        return runs[-1][1]

    def spy_kernel(k):
        def call(*args):
            out = kernel(k)(*args)
            runs[-1][2].append((k, out[0]))  # plane count, values returned
            return out
        return call

    projrates.methods._bt_float_loop, projrates.methods._bt_kernel = spy_loop, spy_kernel
    total = bad = 0
    try:
        for i in range(len(grid.primary_bins)):
            for j in range(grid.secondary_bins):
                for k in range(grid.pairs_per_cell):
                    geom = sample_pair(grid, (i, j), _derive_seed(master_seed, i, j, k))
                    for m in range(grid.starts_per_pair):
                        x0 = start_vector(grid.ambient_dim, _derive_seed(master_seed, i, j, k, 1000 + m),
                                          norm=grid.start_norm)
                        got = iterate(MethodSpec("BT"), geom, x0, eps=grid.eps, max_iter=grid.max_iter)
                        ref = oracles.bt_moment_loop(geom, x0, eps=grid.eps, max_iter=grid.max_iter)
                        total += 1
                        if not (got.solved == ref.solved and got.iterations == ref.iterations
                                and got.distances.tobytes() == ref.distances.tobytes()
                                and got.mu_history == ref.mu_history
                                and got.x_final.tobytes() == ref.x_final.tobytes()):
                            bad += 1
                            print(f"seed {master_seed}, {grid.cell_label(i, j)}/{k} start {m}: BT differs "
                                  f"from the oracle ({len(got.distances) - 1} against "
                                  f"{len(ref.distances) - 1} steps)")
    finally:
        projrates.methods._bt_float_loop, projrates.methods._bt_kernel = loop, kernel
    left = rerun = 0
    for start, _, calls in runs:
        left += inert(start)  # never asked of the kernel
        for (k, out), (k_next, _) in zip(calls, calls[1:]):
            if k_next > k:  # a plane comes back only when its segment is run again
                rerun += 1
            else:
                left += inert(out)
    zeros = np.concatenate([end for _, end, _ in runs])
    zeros = zeros[zeros == 0.0]
    print(f"seed {master_seed}: {total - bad} of {total} {'--full' if full else 'desk'} BT runs "
          f"equal oracles.bt_moment_loop byte for byte; {len(zeros)} planes end at 0.0 "
          f"({np.count_nonzero(np.signbit(zeros))} of them -0.0); {left} planes left the kernel at a "
          f"nonzero value whose square is 0.0; {rerun} segments were run again")
    return bad


def main() -> int:
    parser = argparse.ArgumentParser(description="BT runs of a benchmark table against the oracle")
    parser.add_argument("seeds", nargs="*", type=int, default=[2025], help="master seeds")
    parser.add_argument("--full", action="store_true", help="the bench --full protocol, not the desk table")
    args = parser.parse_args()
    bad = sum(check(seed, args.full) for seed in args.seeds)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
