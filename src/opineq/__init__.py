"""Refinements of the triangle, Cauchy-Schwarz, mixed Schwarz, and
numerical-radius inequalities for complex scalars, vectors, and
finite-dimensional operators, with a seeded property-check harness."""

from .linalg import (
    EigSystem,
    PolarFrame,
    frac_power,
    geometric_mean,
    hermitian_eig,
    is_unitary,
    load_matrix,
    matrix_from_json,
    numerical_radius,
    polar,
    spectral_norm,
    svd,
)
from .harness import (
    CheckStats,
    SuiteSummary,
    SweepConfig,
    gen_instance,
    run_suite,
    summary_to_dict,
    write_report,
)
from .operators import (
    AngleProfile,
    angle_profile,
    check_geomean_lower,
    check_mixed_schwarz,
    check_radius_chain,
    check_reverse_cs,
    kittaneh_bound,
)
from .quadrature import gauss_legendre, gauss_legendre_01
from .scalars import (
    ChainReport,
    check_log_bound,
    check_reverse_triangle,
    check_triangle_refinement,
    gamma,
    mu,
    mu_derivative,
    nu,
    segment_mean_abs,
    segment_mean_abs_quadrature,
)

__version__ = "0.1.0"

__all__ = [
    "AngleProfile",
    "ChainReport",
    "CheckStats",
    "EigSystem",
    "PolarFrame",
    "SuiteSummary",
    "SweepConfig",
    "angle_profile",
    "check_geomean_lower",
    "check_log_bound",
    "check_mixed_schwarz",
    "check_radius_chain",
    "check_reverse_cs",
    "check_reverse_triangle",
    "check_triangle_refinement",
    "frac_power",
    "gamma",
    "gauss_legendre",
    "gauss_legendre_01",
    "gen_instance",
    "geometric_mean",
    "hermitian_eig",
    "is_unitary",
    "kittaneh_bound",
    "load_matrix",
    "matrix_from_json",
    "mu",
    "mu_derivative",
    "nu",
    "numerical_radius",
    "polar",
    "run_suite",
    "segment_mean_abs",
    "segment_mean_abs_quadrature",
    "spectral_norm",
    "summary_to_dict",
    "svd",
    "write_report",
]
