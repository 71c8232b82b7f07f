"""Convergence rates of matrix powers and of projection methods for
intersecting a pair of linear subspaces.

The package has four layers:

- ``spectral``: does A^k converge, to what limit, and how fast.
- ``subspaces``: principal angles, Friedrichs angle, projectors, and a
  constructive generator for pairs with prescribed angles.
- ``methods``: relaxed alternating projections, partial relaxations,
  generalized averaged reflections, and their adaptively accelerated
  variants, with predicted rates and a common iteration driver.
- ``bench``: a seeded, categorized benchmark harness with CSV exports.
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
    empirical_rate,
    power_limit,
    report_from_dict,
    report_to_dict,
    spectral_projectors,
    subdominant_modulus,
)
from .subspaces import (
    PairGeometry,
    Subspace,
    canonical_pair,
    complement,
    friedrichs,
    geometry_from_dict,
    geometry_to_dict,
    haar_orthogonal,
    intersection,
    pair_geometry,
    principal_angles,
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
    "complement",
    "convergence_interval",
    "eigen_structure",
    "empirical_rate",
    "fit_rate",
    "format_matrix",
    "friedrichs",
    "geometry_from_dict",
    "geometry_to_dict",
    "haar_orthogonal",
    "intersection",
    "iterate",
    "limit_projector",
    "pair_geometry",
    "parse_matrix",
    "parse_method",
    "power_limit",
    "predict_rate",
    "principal_angles",
    "projector",
    "read_matrix",
    "read_records_csv",
    "read_vector",
    "report_from_dict",
    "report_to_dict",
    "resolve_mu",
    "run_grid",
    "sample_pair",
    "spectral_projectors",
    "start_vector",
    "subdominant_modulus",
    "subspace_from_spanning",
    "table_from_records",
    "verify_at_bound",
    "verify_bt_bound",
    "write_matrix",
]
