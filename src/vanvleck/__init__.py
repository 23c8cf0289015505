"""Semiclassical fluctuation factors of quantum time evolution amplitudes.

The package solves classical two-point boundary problems for Lagrangians
quadratic in velocity, differentiates their action with respect to the
endpoints, and assembles the complex Gaussian prefactor of the
semiclassical amplitude by several independent routes (endpoint Hessian,
energy Hessian, boundary Jacobi determinants, closed forms).  It also
verifies the finite-time splitting identity that ties the routes together.
"""

from .analytic import (
    AnalyticResult,
    free_particle_factor,
    harmonic_constant_factor,
    magnetic_factor,
    magnetic_orbit_center,
    one_dim_dalembert_factor,
)
from .composition import (
    CompositionReport,
    compose,
    verify_composition,
)
from .dynamics import (
    ClassicalPath,
    Trajectory,
    el_linearization,
    integrate_ivp,
    solve_bvp,
    state_at,
)
from .errors import (
    CausticRegion,
    ConfigError,
    ConjugatePoint,
    FocalPoint,
    NoConvergence,
    NonConstantMetric,
    NonFiniteResult,
    NonSPDMass,
    NotQuadraticModel,
    SeriesDivergence,
    SingularMetric,
    SingularShootingJacobian,
    TurningPoint,
    VanVleckError,
    VectorPotentialPresent,
)
from .expressions import compile_potential, parse_expression
from .fluctuation import (
    FluctuationFactor,
    energy_hessian_factor,
    general_factor,
    prefactor,
    short_time_factor,
    vvpm_factor,
)
from .gelfand_yaglom import (
    gy_fluctuation_factor,
    solve_B_direct,
    solve_B_neumann,
    solve_B_time_ordered,
)
from .hessian import (
    ActionHessian,
    action_hessian_jacobi,
    frequency_matrix_along_path,
    variational_blocks,
)
from .models import (
    BUILTIN_TAGS,
    LagrangianModel,
    builtin_model,
    evaluate_hamiltonian,
    evaluate_lagrangian,
    free_particle,
    harmonic_oscillator,
    legendre_momentum,
    magnetic_field,
    one_dim_potential,
    velocity_from_momentum,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticResult",
    "ActionHessian",
    "BUILTIN_TAGS",
    "CausticRegion",
    "ClassicalPath",
    "CompositionReport",
    "ConfigError",
    "ConjugatePoint",
    "FluctuationFactor",
    "FocalPoint",
    "LagrangianModel",
    "NoConvergence",
    "NonConstantMetric",
    "NonFiniteResult",
    "NonSPDMass",
    "NotQuadraticModel",
    "SeriesDivergence",
    "SingularMetric",
    "SingularShootingJacobian",
    "Trajectory",
    "TurningPoint",
    "VanVleckError",
    "VectorPotentialPresent",
    "action_hessian_jacobi",
    "builtin_model",
    "compile_potential",
    "compose",
    "el_linearization",
    "energy_hessian_factor",
    "evaluate_hamiltonian",
    "evaluate_lagrangian",
    "free_particle",
    "free_particle_factor",
    "frequency_matrix_along_path",
    "general_factor",
    "gy_fluctuation_factor",
    "harmonic_constant_factor",
    "harmonic_oscillator",
    "integrate_ivp",
    "legendre_momentum",
    "magnetic_factor",
    "magnetic_field",
    "magnetic_orbit_center",
    "one_dim_dalembert_factor",
    "one_dim_potential",
    "parse_expression",
    "prefactor",
    "short_time_factor",
    "solve_B_direct",
    "solve_B_neumann",
    "solve_B_time_ordered",
    "solve_bvp",
    "state_at",
    "variational_blocks",
    "velocity_from_momentum",
    "verify_composition",
    "vvpm_factor",
]
