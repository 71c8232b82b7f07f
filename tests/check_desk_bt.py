"""Check every BT run of the seed-2025 desk table against
``oracles.bt_moment_loop`` byte for byte.

The desk table's capped W1 runs take 100000 steps, and in them interior
planes underflow to 0.0 and drop out of BT's float loop.  The property
tests stop long before that, so this script is the check that covers
dropped planes over whole runs.  Run it from the repository root:

    PYTHONPATH=src python tests/check_desk_bt.py

It prints one line per mismatching run and a summary, and exits 1 if any
run differs from the oracle in its distances, mus, final point, count or
outcome.
"""

import sys

import numpy as np

import oracles
import projrates.methods
from projrates.bench import CategoryGrid, _derive_seed, sample_pair, start_vector
from projrates.methods import MethodSpec, iterate

MASTER_SEED = 2025


def main() -> int:
    grid = CategoryGrid()
    finals = []  # the plane coordinates each float loop returns
    loop = projrates.methods._bt_float_loop
    projrates.methods._bt_float_loop = lambda *args: finals.append(loop(*args)) or finals[-1]
    runs = bad = 0
    for i in range(len(grid.primary_bins)):
        for j in range(grid.secondary_bins):
            for k in range(grid.pairs_per_cell):
                geom = sample_pair(grid, (i, j), _derive_seed(MASTER_SEED, i, j, k))
                for m in range(grid.starts_per_pair):
                    x0 = start_vector(grid.ambient_dim, _derive_seed(MASTER_SEED, i, j, k, 1000 + m),
                                      norm=grid.start_norm)
                    got = iterate(MethodSpec("BT"), geom, x0, eps=grid.eps, max_iter=grid.max_iter)
                    ref = oracles.bt_moment_loop(geom, x0, eps=grid.eps, max_iter=grid.max_iter)
                    runs += 1
                    same = (got.solved == ref.solved and got.iterations == ref.iterations
                            and got.distances.tobytes() == ref.distances.tobytes()
                            and got.mu_history == ref.mu_history
                            and got.x_final.tobytes() == ref.x_final.tobytes())
                    if not same:
                        bad += 1
                        print(f"{grid.cell_label(i, j)}/{k} start {m}: BT differs from the oracle "
                              f"({len(got.distances) - 1} against {len(ref.distances) - 1} steps)")
    zeros = np.concatenate(finals)
    zeros = zeros[zeros == 0.0]
    print(f"{runs - bad} of {runs} desk BT runs equal oracles.bt_moment_loop byte for byte; "
          f"{len(zeros)} planes end at 0.0 ({np.count_nonzero(np.signbit(zeros))} of them -0.0)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
