"""Convergence rates of matrix powers and of projection methods for
intersecting a pair of linear subspaces.

The package has six layers:

- ``spectral``: does A^k converge, to what limit, and how fast.
- ``subspaces``: principal angles, Friedrichs angle, projectors, and a
  constructive generator for pairs with prescribed angles.
- ``methods``: relaxed alternating projections, partial relaxations,
  generalized averaged reflections, and their adaptively accelerated
  variants, with predicted rates and a common iteration driver.
- ``bench``: a seeded, categorized benchmark harness with CSV exports.
- ``matio``: the text matrix format that the command line reads and writes.
- ``cli``: the ``projrates`` command line (``analyze``, ``angles``,
  ``solve``, ``bench``, ``report``).
"""

from .bench import (
    BenchmarkTable,
    CategoryGrid,
    InstanceRecord,
    read_records_csv,
    run_grid,
    sample_pair,
    start_vector,
    table_from_records,
)
from .matio import (
    MatrixFormatError,
    format_matrix,
    parse_matrix,
    read_matrix,
    read_vector,
    write_matrix,
)
from .methods import (
    DivergenceError,
    IterationTrace,
    MethodSpec,
    RatePrediction,
    best_parameter,
    build_operator,
    convergence_interval,
    fit_rate,
    iterate,
    limit_projector,
    parse_method,
    predict_rate,
    resolve_mu,
    verify_at_bound,
    verify_bt_bound,
)
from .spectral import (
    ConvergenceReport,
    EigenCluster,
    EigenStructure,
    classify_convergence,
    eigen_structure,
    report_to_dict,
    spectral_projectors,
)
from .subspaces import (
    PairGeometry,
    Subspace,
    canonical_pair,
    geometry_to_dict,
    haar_orthogonal,
    pair_geometry,
    projector,
    subspace_from_spanning,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkTable",
    "CategoryGrid",
    "ConvergenceReport",
    "DivergenceError",
    "EigenCluster",
    "EigenStructure",
    "InstanceRecord",
    "IterationTrace",
    "MatrixFormatError",
    "MethodSpec",
    "PairGeometry",
    "RatePrediction",
    "Subspace",
    "best_parameter",
    "build_operator",
    "canonical_pair",
    "classify_convergence",
    "convergence_interval",
    "eigen_structure",
    "fit_rate",
    "format_matrix",
    "geometry_to_dict",
    "haar_orthogonal",
    "iterate",
    "limit_projector",
    "pair_geometry",
    "parse_matrix",
    "parse_method",
    "predict_rate",
    "projector",
    "read_matrix",
    "read_records_csv",
    "read_vector",
    "report_to_dict",
    "resolve_mu",
    "run_grid",
    "sample_pair",
    "spectral_projectors",
    "start_vector",
    "subspace_from_spanning",
    "table_from_records",
    "verify_at_bound",
    "verify_bt_bound",
    "write_matrix",
]
