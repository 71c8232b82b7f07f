#!/usr/bin/env python3
"""Run the categorized projection-method benchmark and write its tables.

Default is the desk-scale protocol (ambient dimension 30, 3 pairs and
5 starts per cell) with the five headline methods.  --full switches to
the large protocol (dimension 100, 5 pairs, 10 starts) and adds three
parameter variants: S at mu = 1/sin^2(theta_p), S at mu = 1/2 +
1/sin^2(theta_p), and T at mu = 1.5.  The S variants resolve their mu
from each sampled pair inside the same run, on the instances the other
methods see.

Outputs summary.csv, records.csv, and per-method (theta_F, median
iterations) profiles under --out.
"""

import argparse
import math
import sys
from pathlib import Path

from projrates import CategoryGrid, MethodSpec, run_grid

DESK_METHODS = ["BT", "S:best", "T:best", "MAP", "DR"]
FULL_METHODS = [
    "BT",
    "S:best",
    ("S[1/tp]", lambda geom: MethodSpec("S", mu=1.0 / math.sin(geom.theta_p) ** 2)),
    ("S[0.5+1/tp]", lambda geom: MethodSpec("S", mu=0.5 + 1.0 / math.sin(geom.theta_p) ** 2)),
    "T:best",
    "T:1.5",
    "MAP",
    "DR",
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help="large protocol: n=100, 5 pairs, 10 starts, 8 methods")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None,
                        help="output directory (default bench_desk or bench_full)")
    args = parser.parse_args(argv)

    if args.full:
        grid = CategoryGrid(ambient_dim=100, pairs_per_cell=5, starts_per_pair=10)
        methods = FULL_METHODS
        out_dir = Path(args.out or "bench_full")
    else:
        grid = CategoryGrid()
        methods = DESK_METHODS
        out_dir = Path(args.out or "bench_desk")

    print(f"grid: n={grid.ambient_dim}, {grid.pairs_per_cell} pairs x "
          f"{grid.starts_per_pair} starts per cell, seed={args.seed}")
    table = run_grid(grid, methods, master_seed=args.seed)
    table.export(out_dir)
    print("\n" + table.format_summary())
    print(f"\nwrote {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
