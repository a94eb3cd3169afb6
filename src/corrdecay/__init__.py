"""Bounds, relaxations and exact checks for the maximal correlated decay rate
of dipole-coupled emitter arrays in free space."""

from .bounds import (
    BoundsReport,
    DrivenReport,
    bounds_report,
    burst_slope,
    burst_time,
    crossover_n_crit,
    driven_report,
    markov_limit,
    observable_rate_bounds,
    optimal_m,
    product_state_rate,
    spin_wave_rate,
    typical_rate,
)
from .coupling import CouplingMatrices, build_coupling_matrices, validate_psd
from .errors import (
    CertificateError,
    ConfigError,
    CorrdecayError,
    DivergentModeError,
    PhysicsValidationError,
    SolverConvergenceError,
)
from .exactdiag import ExactResult, SectorBasis, exact_rstar, haar_rate_samples, sector_matvec
from .kspace import (
    asymptotic_prefactors,
    gamma_k,
    gamma_max_finite_grid,
    scaling_exponent_general,
)
from .lattice import AtomArray, LatticeSpec, apply_position_disorder, build_array, generate_lattice
from .rydberg import RydbergInput, RydbergReport, rydberg_report, thermal_nbar
from .sdp import (
    SdpProblem,
    SdpSolution,
    round_to_product_state,
    sdp_certificates,
    solve_low_rank,
    solve_projection,
)
from .spectral import SpectralSummary, decompose, delocalization_delta, momentum_distribution
from .sweep import ScalingFit, SweepPlan, fit_power_law, run_sweep

__version__ = "0.1.0"

__all__ = [
    "AtomArray",
    "BoundsReport",
    "CertificateError",
    "ConfigError",
    "CorrdecayError",
    "CouplingMatrices",
    "DivergentModeError",
    "DrivenReport",
    "ExactResult",
    "LatticeSpec",
    "PhysicsValidationError",
    "RydbergInput",
    "RydbergReport",
    "ScalingFit",
    "SdpProblem",
    "SdpSolution",
    "SectorBasis",
    "SolverConvergenceError",
    "SpectralSummary",
    "SweepPlan",
    "apply_position_disorder",
    "asymptotic_prefactors",
    "bounds_report",
    "build_array",
    "build_coupling_matrices",
    "burst_slope",
    "burst_time",
    "crossover_n_crit",
    "decompose",
    "delocalization_delta",
    "driven_report",
    "exact_rstar",
    "fit_power_law",
    "gamma_k",
    "gamma_max_finite_grid",
    "generate_lattice",
    "haar_rate_samples",
    "markov_limit",
    "momentum_distribution",
    "observable_rate_bounds",
    "optimal_m",
    "product_state_rate",
    "round_to_product_state",
    "run_sweep",
    "rydberg_report",
    "scaling_exponent_general",
    "sdp_certificates",
    "sector_matvec",
    "solve_low_rank",
    "solve_projection",
    "spin_wave_rate",
    "thermal_nbar",
    "typical_rate",
    "validate_psd",
]
