"""Numerical toolkit for Schrodinger systems on discrete supports.

Solves the two-marginal Schrodinger system by log-domain iterative
proportional fitting, evaluates entropic control values and their dual
identities, simulates h-path diffusion bridges, probes weak-topology
stability of plans and potentials, and constructs moment measures of
convex potentials through a zero-noise fixed-point scheme.
"""

__version__ = "0.1.0"

from .core import (
    DenseKernel,
    Density,
    DiscreteMeasure,
    GaussianHeatKernel,
    KernelSpec,
    NonConvergenceError,
    OracleTooLargeError,
    Support,
    bl_distance,
    entropy,
    log_eval_kernel,
    make_grid,
    product_bl_distance,
    product_support,
    relative_entropy,
    tv_distance,
    w2_distance,
    w2_distance_1d,
)
from .solver import (
    SchroedingerSolution,
    plan_matrix,
    solve_schrodinger,
    truncated_potentials,
)
from .control import (
    ControlValueReport,
    control_value,
    dual_variables,
)
from .hpath import PathEnsemble, drift, endpoint_diagnostics, sample_density, simulate
from .moment import (
    FixedPointTrace,
    MomentMeasureResult,
    check_convexity,
    solve_fixed_point,
    verify_moment_measure,
    zero_noise_continuation,
)
from .stability import (
    ConvergenceReport,
    make_family,
    run_convergence,
    semiconvexity_constant,
)
