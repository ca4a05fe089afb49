"""Spectral toolkit for Couette-type shear flows under Coriolis forcing.

Computes the Rayleigh-Kuo eigenvalue landscape lambda_n(beta, c), the
traveling-wave phase diagram over (alpha, beta), modified shear flows with
tunable principal eigenvalues, first-order bifurcated waves, and the decay
rates of the linearized vorticity dynamics in sheared coordinates.
"""

from .grid import Grid1D, TridiagOperator, assemble, build_grid
from .eigen import eigenvector, extrapolate, nth_eigenvalue
from .rayleigh_kuo import (
    EigenPair,
    ShearProfile,
    couette,
    lambda_n_couette,
    lambda_n_general,
    scaled_couette,
)
from .atlas import (
    RegionVerdict,
    alpha_beta,
    alpha_beta_curve,
    beta_T,
    classify,
    find_beta_star,
    speed_for_eigenvalue,
)
from .modified_flow import (
    CutoffConstants,
    ModifiedFlowParams,
    b0,
    cutoff_I,
    cutoff_constants,
    erf,
    lambda_n_modified,
    level_set_a,
    profile,
)
from .bifurcation import WaveApproximation, construct, period_estimate, residual_norm
from .damping import (
    ModeEnsemble,
    ModeState,
    evolve_rk4,
    phase_closed_form,
    run_damping_experiment,
    velocity_norms,
)
from .tables import CurveTable

__version__ = "0.1.0"

__all__ = [
    "Grid1D",
    "TridiagOperator",
    "assemble",
    "build_grid",
    "EigenPair",
    "eigenvector",
    "extrapolate",
    "nth_eigenvalue",
    "ShearProfile",
    "couette",
    "scaled_couette",
    "lambda_n_couette",
    "lambda_n_general",
    "RegionVerdict",
    "alpha_beta",
    "alpha_beta_curve",
    "beta_T",
    "classify",
    "find_beta_star",
    "speed_for_eigenvalue",
    "CutoffConstants",
    "ModifiedFlowParams",
    "b0",
    "cutoff_I",
    "cutoff_constants",
    "erf",
    "lambda_n_modified",
    "level_set_a",
    "profile",
    "WaveApproximation",
    "construct",
    "period_estimate",
    "residual_norm",
    "ModeEnsemble",
    "ModeState",
    "evolve_rk4",
    "phase_closed_form",
    "run_damping_experiment",
    "velocity_norms",
    "CurveTable",
    "__version__",
]
