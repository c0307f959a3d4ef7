"""Weighted fractional critical Sobolev minimization at desk scale.

Quadrature for the weighted Gagliardo seminorm, bubble test-function
asymptotics, discrete ground-state and eigenvalue solvers, fiber/mountain-pass
analysis, and the verification battery behind the ``fracvar`` command.
"""

from .asymptotics import (
    DEFAULT_EPS_GRID,
    DeltaLemmaResult,
    SweepReport,
    check_delta_lemma,
    fit_rate,
    sweep_A,
    sweep_bubble_norms,
    sweep_energy,
    sweep_weighted_seminorm,
)
from .bubble import Bubble, TruncatedBubble, lq_norm, truncated_bubble
from .constants import (
    ConstantSet,
    bubble_constants,
    lebesgue_power_integral,
    lebesgue_power_quadrature,
    sphere_surface,
)
from .mountainpass import (
    FiberResult,
    MountainPassError,
    PathState,
    PSReport,
    fiber_sweep,
    level_bound,
    mp_geometry,
    mp_level,
    phi_gradient,
    phi_value,
    ps_diagnostics,
)
from .problem import (
    ConfigError,
    ProblemParams,
    RunConfig,
    ValidityReport,
    WeightModel,
    critical_exponent,
    load_config,
    ns_admissible,
    parse_config_text,
    validate,
    weight_from_params,
)
from .quad import (
    SeminormEstimate,
    bilinear_radial,
    mc_reference_ks,
    radial_power_integral,
    seminorm_mc,
    seminorm_radial,
)
from .solver import (
    MinimizeResult,
    RadialField,
    SolverError,
    StiffnessOperator,
    assemble,
    euler_residual,
    first_eigenvalue,
    interpolate_field,
    make_grid,
    minimize_S,
    power_gradient,
    power_integral,
    refinement_check,
)
from .verifysuite import VERSION, CheckResult, VerifyReport, run_all

__version__ = VERSION

__all__ = [
    "__version__",
    "VERSION",
    # problem
    "ConfigError", "ProblemParams", "RunConfig", "ValidityReport",
    "WeightModel", "critical_exponent", "load_config", "ns_admissible",
    "parse_config_text", "validate", "weight_from_params",
    # constants
    "ConstantSet", "bubble_constants", "lebesgue_power_integral",
    "lebesgue_power_quadrature", "sphere_surface",
    # bubble
    "Bubble", "TruncatedBubble", "lq_norm", "truncated_bubble",
    # quad
    "SeminormEstimate", "bilinear_radial", "mc_reference_ks",
    "radial_power_integral", "seminorm_mc", "seminorm_radial",
    # asymptotics
    "DEFAULT_EPS_GRID", "DeltaLemmaResult", "SweepReport", "check_delta_lemma",
    "fit_rate", "sweep_A", "sweep_bubble_norms", "sweep_energy",
    "sweep_weighted_seminorm",
    # solver
    "MinimizeResult", "RadialField", "SolverError", "StiffnessOperator",
    "assemble", "euler_residual", "first_eigenvalue", "interpolate_field",
    "make_grid", "minimize_S", "power_gradient", "power_integral",
    "refinement_check",
    # mountainpass
    "FiberResult", "MountainPassError", "PathState", "PSReport",
    "fiber_sweep", "level_bound", "mp_geometry", "mp_level",
    "phi_gradient", "phi_value", "ps_diagnostics",
    # verify
    "CheckResult", "VerifyReport", "run_all",
]
