"""Check the chunk boundaries of whole linear runs: every T:best, S:best,
MAP and DR run of the desk table that spans more than one chunk at a
chunk cap 32 times smaller than the shipped ``_CHUNK_ELEMENTS``, run at
both caps, for each master seed given (2025 when none is).

A linear run advances in chunks of at most ``_CHUNK_ELEMENTS // rows``
steps, so a chunk edge moves only how the steps' products are grouped.
The property test of that stops at 20000 steps; the desk table's capped
runs take 100000, with the planes of a fast angle underflowing to 0.0 on
the way, so this script is the check on whole capped runs.  Run it from
the repository root:

    PYTHONPATH=src python tests/check_desk_linear.py [SEED ...]

It prints one line per mismatching run and, per seed, a summary: how many
runs spanned more than one small chunk and how many of them were capped.
It exits 1 if any run at the small cap differs from the shipped one in its
count, outcome, divergence step or length, or in a distance by more than
a relative 1e-12 (plus, for DR, 1e-12 gamma^n |x0|, as in
``test_a_chunk_plan_never_changes_an_answer``).
"""

import argparse
import sys
from unittest import mock

import numpy as np

import projrates.methods
from projrates.bench import CategoryGrid, _derive_seed, sample_pair, start_vector
from projrates.methods import SHADOW_KINDS, DivergenceError, iterate, parse_method, predict_rate

LABELS = ("T:best", "S:best", "MAP", "DR")
SHIPPED = projrates.methods._CHUNK_ELEMENTS
SMALL = SHIPPED // 32


def run(spec, geom, x0, grid, cap):
    """The trace of a run at chunk cap ``cap`` and how many chunks it took,
    or the step at which it diverged."""
    chunk_steps, chunks = projrates.methods._chunk_steps, [0]

    def count_chunks(*args):
        chunks[0] += 1
        return chunk_steps(*args)

    with mock.patch.object(projrates.methods, "_CHUNK_ELEMENTS", cap), \
            mock.patch.object(projrates.methods, "_chunk_steps", count_chunks):
        try:
            return iterate(spec, geom, x0, eps=grid.eps, max_iter=grid.max_iter), chunks[0]
        except DivergenceError as exc:
            return exc.step, chunks[0]


def agree(got, ref, spec, geom, x0) -> bool:
    """The answers of two runs that group their products differently."""
    if isinstance(got, int) or isinstance(ref, int):
        return got == ref
    if (got.solved, got.iterations, len(got.distances)) != (ref.solved, ref.iterations, len(ref.distances)):
        return False
    tol = 1e-12 * ref.distances
    if spec.kind in SHADOW_KINDS:
        tol += 1e-12 * predict_rate(spec, geom).gamma ** np.arange(len(tol)) * np.linalg.norm(x0)
    return bool(np.all(np.abs(got.distances - ref.distances) <= tol))


def check(master_seed: int) -> int:
    """Compare the seed's runs of more than one small chunk at both caps;
    returns the number of runs that differ."""
    grid = CategoryGrid()
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
                        got, chunks = run(spec, geom, x0, grid, SMALL)
                        if chunks < 2:
                            continue
                        long_runs += 1
                        capped += not isinstance(got, int) and got.iterations is None
                        if not agree(got, run(spec, geom, x0, grid, SHIPPED)[0], spec, geom, x0):
                            bad += 1
                            print(f"seed {master_seed}, {grid.cell_label(i, j)}/{k} start {m}: {label} "
                                  f"differs between chunk caps {SMALL} and {SHIPPED}")
    print(f"seed {master_seed}: {long_runs - bad} of {long_runs} desk {', '.join(LABELS)} runs of more "
          f"than one chunk at cap {SMALL} ({capped} capped at {grid.max_iter} steps) agree with cap "
          f"{SHIPPED}")
    return bad


def main() -> int:
    parser = argparse.ArgumentParser(description="desk linear runs at the shipped and a 32 times smaller chunk cap")
    parser.add_argument("seeds", nargs="*", type=int, default=[2025], help="master seeds")
    args = parser.parse_args()
    bad = sum(check(seed) for seed in args.seeds)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
