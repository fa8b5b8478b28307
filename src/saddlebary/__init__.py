"""Wasserstein barycenter solvers with exact duality-gap certificates.

Two saddle-point algorithms (extragradient mirror prox on an
entropy/Euclidean geometry, and dual extrapolation with an area-convex
regularizer solved by alternating minimization), an iterative Bregman
projections baseline, exact 1-D squared-distance oracles, and CSV reports.
The command-line front end lives in :mod:`saddlebary.cli` and is not
imported here.
"""

from .area_convex import (
    DEConfig,
    am_inner_iterations,
    de_config,
    de_initial_error_bound,
    run_dual_extrapolation,
    theta,
)
from .core import (
    BarycenterProblem,
    ConfigError,
    CostData,
    DomainError,
    DualPoint,
    InvalidCostError,
    NumericalFailure,
    ParseError,
    PrimalPoint,
    SaddlebaryError,
    ShapeError,
    certificate_values,
    duality_gap,
    validate_histogram,
    vectorize_cost,
)
from .data import GaussianSuiteSpec, gaussian_suite, load_cost_csv, load_histograms
from .ibp import IBPConfig, ibp_barycenter
from .mirror_prox import MPConfig, mp_config, run_mirror_prox
from .oracles_1d import (
    Grid1D,
    barycenter_1d_quantile,
    grid_cost,
    optimality_gap,
)
from .report import (
    RunRecord,
    RunReport,
    read_iterates_csv,
    run_certified,
    write_barycenter_csv,
    write_iterates_csv,
    write_report_csv,
)

__version__ = "0.1.0"
