"""Wasserstein barycenter solvers with exact duality-gap certificates.

Two saddle-point algorithms (extragradient mirror prox on an
entropy/Euclidean geometry, and dual extrapolation with an area-convex
regularizer solved by alternating minimization), an iterative Bregman
projections baseline, exact 1-D transport oracles, and CSV reports.  The
command-line front end lives in :mod:`saddlebary.cli` and is not imported
here.
"""

from .area_convex import (
    AMProblem,
    DEConfig,
    DEState,
    am_inner_iterations,
    am_objective,
    am_prox,
    area_convexity_residual,
    de_config,
    de_initial_error_bound,
    hessian_forms,
    regularizer,
    regularizer_grad_at_min,
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
    ProxGeometry,
    SaddlebaryError,
    ShapeError,
    UnsupportedError,
    apply_marginals,
    apply_marginals_adjoint,
    big_operator_apply,
    bregman_divergences,
    certificate_values,
    duality_gap,
    gradient_operator,
    objective_f,
    prox_geometry,
    uniform_primal,
    validate_histogram,
    vectorize_cost,
    zero_dual,
)
from .data import GaussianSuiteSpec, gaussian_suite, load_histograms
from .ibp import IBPConfig, ibp_barycenter
from .mirror_prox import (
    MPConfig,
    MPState,
    mp_config,
    mp_initial_state,
    mp_iteration,
    run_mirror_prox,
)
from .oracles_1d import (
    Grid1D,
    barycenter_1d_quantile,
    grid_cost,
    optimality_gap,
    ot_1d_monotone,
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
