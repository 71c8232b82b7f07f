"""Check every S:best and MAP run of the desk table that takes more than
one chunk, narrowed and kept at width 2, byte for byte, for each master
seed given (2025 when none is).

After their first chunk, S and MAP carry the u_k coordinates of each plane
alone (``methods._narrows``).  The property test of that stops at 20000
steps; the desk table's capped runs take 100000, with the planes of a
fast angle underflowing to 0.0 on the way, so this script is the check on
whole capped runs.  Run it from the repository root:

    PYTHONPATH=src python tests/check_desk_linear.py [SEED ...]

It prints one line per mismatching run and, per seed, a summary: how many
runs took more than one chunk, how many of them narrowed and how many
were capped.  It exits 1 if any run differs from its width-2 twin in its
distances, count, outcome, divergence step or final point.
"""

import argparse
import sys
from unittest import mock

import projrates.methods
from projrates.bench import CategoryGrid, _derive_seed, sample_pair, start_vector
from projrates.methods import DivergenceError, iterate, parse_method

LABELS = ("S:best", "MAP")


def run_bytes(spec, geom, x0, grid):
    """What a run answers, as bytes, or the step at which it diverged."""
    try:
        trace = iterate(spec, geom, x0, eps=grid.eps, max_iter=grid.max_iter)
    except DivergenceError as exc:
        return exc.step
    return trace.distances.tobytes(), trace.iterations, trace.solved, trace.x_final.tobytes()


def check(master_seed: int) -> int:
    """Compare the seed's long S:best and MAP runs with their width-2
    twins; returns the number of runs that differ."""
    grid = CategoryGrid()
    narrows, chunk_steps = projrates.methods._narrows, projrates.methods._chunk_steps
    chunks, narrowed = [], []

    def count_chunks(*args):
        chunks[-1] += 1
        return chunk_steps(*args)

    def spy_narrows(*args):
        narrowed[-1] = narrows(*args)
        return narrowed[-1]

    long_runs = capped = bad = 0
    for i in range(len(grid.primary_bins)):
        for j in range(grid.secondary_bins):
            for k in range(grid.pairs_per_cell):
                geom = sample_pair(grid, (i, j), _derive_seed(master_seed, i, j, k))
                for m in range(grid.starts_per_pair):
                    x0 = start_vector(grid.ambient_dim, _derive_seed(master_seed, i, j, k, 1000 + m),
                                      norm=grid.start_norm)
                    for label in LABELS:
                        spec = parse_method(label)
                        chunks.append(0)
                        narrowed.append(False)
                        with mock.patch.object(projrates.methods, "_chunk_steps", count_chunks), \
                                mock.patch.object(projrates.methods, "_narrows", spy_narrows):
                            got = run_bytes(spec, geom, x0, grid)
                        if chunks[-1] < 2:
                            continue
                        long_runs += 1
                        capped += not isinstance(got, int) and got[1] is None
                        with mock.patch.object(projrates.methods, "_narrows", lambda *args: False):
                            ref = run_bytes(spec, geom, x0, grid)
                        if got != ref:
                            bad += 1
                            print(f"seed {master_seed}, {grid.cell_label(i, j)}/{k} start {m}: {label} "
                                  f"narrowed differs from width 2")
    print(f"seed {master_seed}: {long_runs - bad} of {long_runs} desk S:best and MAP runs of more than "
          f"one chunk ({sum(narrowed)} narrowed, {capped} capped at {grid.max_iter} steps) equal their "
          f"width-2 twins byte for byte")
    return bad


def main() -> int:
    parser = argparse.ArgumentParser(description="narrowed S and MAP desk runs against width 2")
    parser.add_argument("seeds", nargs="*", type=int, default=[2025], help="master seeds")
    args = parser.parse_args()
    bad = sum(check(seed) for seed in args.seeds)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
