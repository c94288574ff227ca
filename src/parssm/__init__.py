"""Parallel-in-time evaluation of nonlinear state space models.

Fixed-point solvers (full Newton, diagonal quasi-Newton, Picard, Jacobi,
scaled identity) that linearize the dynamics and evaluate the resulting
linear system with a parallel associative scan; a Kalman trust-region solver
for unstable dynamics; and diagnostics linking predictability (largest
Lyapunov exponent) to conditioning and convergence rates.
"""

from .core import (ContractError, DynamicsSystem, NumericalFailure, Trajectory,
                   max_abs_diff, merit, residual, rollout_sequential)
from .fixedpoint import (JACOBI, NEWTON, PICARD, QUASI_DIAGONAL, Damping,
                         SolveReport, SolverConfig, SolverMethod,
                         fixed_point_solve, jacobi_init, linearize,
                         prefix_lock_check)
from .jacutils import DiagEstimate, hutchinson_diag
from .pscan import (AffineOp, ComposeCounter, Transition, affine_compose,
                    evaluate_lds, parallel_scan)
from .trustregion import (TrustRegionConfig, attenuation, kalman_solve,
                          kalman_step, lm_step_dense)
from .diagnostics import (LleEstimate, PlBounds, assemble_big_j,
                          asymptotic_rate, basin_radius, estimate_lle,
                          jacobian_mismatch, min_singular_value,
                          picard_inverse_norm, pl_bounds)
from . import models

__version__ = "0.1.0"

__all__ = [
    "AffineOp", "ComposeCounter", "ContractError", "Damping", "DiagEstimate",
    "DynamicsSystem", "JACOBI", "LleEstimate", "NEWTON",
    "NumericalFailure", "PICARD", "PlBounds", "QUASI_DIAGONAL", "SolveReport",
    "SolverConfig", "SolverMethod", "Trajectory", "Transition",
    "TrustRegionConfig", "affine_compose", "assemble_big_j", "asymptotic_rate",
    "attenuation", "basin_radius", "estimate_lle", "evaluate_lds",
    "fixed_point_solve", "hutchinson_diag", "jacobi_init",
    "jacobian_mismatch", "kalman_solve", "kalman_step", "linearize",
    "lm_step_dense", "max_abs_diff", "merit", "min_singular_value", "models",
    "parallel_scan", "picard_inverse_norm", "pl_bounds", "prefix_lock_check",
    "residual", "rollout_sequential",
]
