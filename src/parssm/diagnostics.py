"""Theory-validation instruments.

Connects dynamical predictability (largest Lyapunov exponent of the Jacobian
chain) to the conditioning of the trajectory-fitting objective (the smallest
singular value of the block-bidiagonal residual Jacobian) and to the
asymptotic linear rate of each fixed-point method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (ContractError, DynamicsSystem, NumericalFailure, Trajectory, require_finite,
                   require_int, require_real)
from .fixedpoint import NO_DAMPING, SolverMethod, _method_transitions
from .pscan import IDENTITY, ZERO, lane_matrices

DENSE_GUARD = 4096  # largest T*D the cubic-cost oracle paths accept
LLE_BLOCK = 512  # Jacobians evaluated at once by estimate_lle, to bound memory


def _check_dense_guard(T: int, D: int, what: str):
    if T * D > DENSE_GUARD:
        raise ContractError(f"{what} is a desk-scale oracle; needs T*D <= {DENSE_GUARD}, got {T * D}")


@dataclass
class LleEstimate:
    """Largest Lyapunov exponent estimate, in nats per step."""

    lam: float
    horizon: int
    probes: int

    def __post_init__(self):
        if not np.isfinite(self.lam):
            raise NumericalFailure("LLE estimate is not finite")
        if self.probes < 1:
            raise ContractError("LLE estimate needs probes >= 1")


def estimate_lle(sys: DynamicsSystem, traj: Trajectory, probes: int = 3,
                 seed: int = 0) -> LleEstimate:
    """Average log stretch of the Jacobian chain along a trajectory.

    For each random unit vector u0: iterate u <- A_t u, accumulate log||u||
    and renormalize each step; the exponent is the accumulated log stretch
    divided by T, averaged over probes. Renormalizing every step keeps the
    computation stable for both contracting and expanding chains. Jacobians
    are evaluated at the trajectory's predecessor states in blocks to bound
    memory, under one numpy error state. A zero, infinite or NaN norm leaves
    its probe's sum non-finite for good, so ``LleEstimate`` refuses the chain.
    """
    require_int("probes", probes, 1)
    require_int("the probe seed", seed, 0)
    ts, prev = sys._check_traj(traj)
    T, D = traj.horizon, traj.dim
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((D, probes))
    U /= np.linalg.norm(U, axis=0, keepdims=True)
    acc = np.zeros(probes)
    with np.errstate(all="ignore"):
        for start in range(0, T, LLE_BLOCK):
            stop = min(start + LLE_BLOCK, T)
            for j in sys.jacobian_batch(ts[start:stop], prev[start:stop]):
                U = j @ U
                norms = np.linalg.norm(U, axis=0)
                acc += np.log(norms)
                U /= norms
        return LleEstimate(float(np.mean(acc) / T), horizon=T, probes=probes)


def assemble_blocks(blocks: np.ndarray) -> np.ndarray:
    """Dense TD x TD matrix with identity diagonal blocks and -blocks[t] on
    the first block subdiagonal (blocks[0] is unused by convention: the first
    block row of the residual Jacobian is just I)."""
    T, D = blocks.shape[0], blocks.shape[1]
    out = np.eye(T * D)
    t = np.arange(1, T)
    out.reshape(T, D, T, D)[t, :, t - 1, :] = -blocks[1:]
    return out


def assemble_big_j(sys: DynamicsSystem, traj: Trajectory) -> np.ndarray:
    """Dense residual Jacobian: unit block diagonal, -A_t(s_{t-1}) below.

    Unit lower triangular, hence always invertible with every eigenvalue one;
    its inverse collects the Jacobian chain products A_t ... A_{tau+1} in
    block (t, tau). Guarded to T*D <= 4096; holds one numpy error state.
    """
    ts, prev = sys._check_traj(traj)
    T, D = traj.horizon, traj.dim
    _check_dense_guard(T, D, "assemble_big_j")
    with np.errstate(all="ignore"):
        return assemble_blocks(sys.jacobian_batch(ts, prev))


def min_singular_value(M: np.ndarray) -> float:
    """Smallest singular value via a dense SVD."""
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.size == 0:
        raise ContractError(f"min_singular_value needs a nonempty 2-D matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ContractError("min_singular_value needs a finite matrix")
    return float(np.linalg.svd(M, compute_uv=False).min())


@dataclass
class PlBounds:
    """Two-sided bounds on sqrt(mu), the root of the gradient-dominance
    constant of the trajectory objective, from the chain's Lyapunov exponent."""

    lower: float
    upper: float
    lle: float
    a_burn: float
    b_burn: float
    T: int
    D: int

    def __post_init__(self):
        if not (0.0 < self.lower <= self.upper <= 1.0 + 1e-12):
            raise NumericalFailure(
                f"PL bounds out of order: lower={self.lower}, upper={self.upper} "
                "(extreme lle*T underflows float64)"
            )


def pl_bounds(lle: float, a_burn: float = 1.0, b_burn: float = 1.0,
              T: int = 1, D: int = 1) -> PlBounds:
    """Sandwich sqrt(mu) given the chain exponent and burn-in constants.

    For lam != 0: (1/a)(e^lam - 1)/(e^(lam T) - 1) <= sqrt(mu)
    <= min(1, (1/b) e^(-lam (T-1))). For lam = 0 the bounds sharpen to
    1/(a T) <= sqrt(mu) <= min(1, (1/b) sqrt(2 D / (T + 1))). A negative
    exponent makes the lower bound asymptotically independent of T; a
    positive one collapses conditioning exponentially.
    """
    require_finite("the exponent", lle)
    require_real("burn-in constant a", a_burn)
    if not 1.0 <= a_burn < np.inf:
        raise ContractError("burn-in constant a must be finite and >= 1")
    require_real("burn-in constant b", b_burn)
    if not (0.0 < b_burn <= 1.0):
        raise ContractError("burn-in constant b must lie in (0, 1]")
    require_int("T", T, 1)
    require_int("D", D, 1)
    lam = float(lle)
    if lam == 0.0:
        lower = 1.0 / (a_burn * T)
        upper = min(1.0, np.sqrt(2.0 * D / (T + 1.0)) / b_burn)
    else:
        with np.errstate(over="ignore"):
            denom = np.expm1(lam * T)
            lower = float(np.expm1(lam) / denom) / a_burn if np.isfinite(denom) else float(
                np.exp(np.log(np.expm1(lam)) - lam * T)
            ) / a_burn
            upper = min(1.0, float(np.exp(-lam * (T - 1))) / b_burn)
    return PlBounds(lower=lower, upper=upper, lle=lam, a_burn=a_burn,
                    b_burn=b_burn, T=int(T), D=int(D))


def jacobian_mismatch(sys: DynamicsSystem, traj: Trajectory,
                      method: SolverMethod) -> float:
    """max over t >= 2 of ||A~_t - A_t||_2 at the trajectory's states.

    Equals the spectral-norm distance between the assembled approximate and
    true residual Jacobians, because the block difference sits on a single
    subdiagonal. Newton's mismatch is 0. Holds one numpy error state.
    """
    ts, prev = sys._check_traj(traj)
    if method.kind == "newton":
        return 0.0
    T, D = prev.shape
    with np.errstate(all="ignore"):
        lane, A = _method_transitions(sys, ts, prev, method, NO_DAMPING)
        true = sys.jacobian_batch(ts, prev)
        diffs = lane_matrices(lane, A, T, D)[1:] - true[1:]  # block t = 1 never enters J
        return float(np.linalg.norm(diffs, ord=2, axis=(1, 2)).max(initial=0.0))


def picard_inverse_norm(T: int) -> float:
    """||J~^{-1}||_2 for identity transitions: 1 / (2 sin(pi / (2 (2T + 1)))).

    Grows linearly in T (small-angle regime), which is why identity-transition
    iterations pay a sequence-length factor in their rate.
    """
    require_int("T", T, 1)
    return float(1.0 / (2.0 * np.sin(np.pi / (2.0 * (2.0 * T + 1.0)))))


def rate_factor(sys: DynamicsSystem, traj_star: Trajectory,
                method: SolverMethod) -> float:
    """||J~(s*)^{-1}||_2, the factor that turns the mismatch into the rate: 1
    for zero transitions (Jacobi, or scaled by 0), the closed form above for
    identity ones (Picard, or scaled by 1). Diagonal and scaled transitions,
    both on the diagonal lane, decouple coordinatewise into T x T bidiagonal
    blocks, so their factor needs only T <= 4096; it is the largest over the
    bitwise-distinct coordinate chains, each solved once. Newton's factor is
    0, as its rate is. Holds one numpy error state."""
    ts, prev = sys._check_traj(traj_star)
    if method.kind == "newton":
        return 0.0
    T = traj_star.horizon
    with np.errstate(all="ignore"):
        lane, A = _method_transitions(sys, ts, prev, method, NO_DAMPING)
        if lane == ZERO:
            return 1.0
        if lane == IDENTITY:
            return picard_inverse_norm(T)
        # the diagonal lane, the only other a non-Newton method gives
        _check_dense_guard(T, 1, "rate_factor (per-coordinate path)")
        chains = np.unique(A.T.view(np.int64), axis=0).view(np.float64)
        return float(max(1.0 / min_singular_value(assemble_blocks(c[:, None, None]))
                         for c in chains))


def asymptotic_rate(sys: DynamicsSystem, traj_star: Trajectory,
                    method: SolverMethod) -> float:
    """gamma = ||J~(s*)^{-1}||_2 * max_t ||A~_t - A_t||_2 at the solution:
    ``rate_factor`` times ``jacobian_mismatch``. Newton's rate is 0."""
    return rate_factor(sys, traj_star, method) * jacobian_mismatch(sys, traj_star, method)


def basin_radius(mu: float, L: float) -> float:
    """Lower bound 2 mu / L on the radius of the fast-convergence basin.

    L = 0 (affine dynamics) makes the basin infinite.
    """
    require_real("mu", mu)
    if not mu > 0:
        raise ContractError(f"mu must be positive, got {mu!r}")
    require_real("L", L)
    if not L >= 0:
        raise ContractError(f"L must be nonnegative, got {L!r}")
    if L == 0.0:
        return float("inf")
    return 2.0 * mu / L
