"""Trust-region (Levenberg-Marquardt) steps as posterior inference.

With a penalty lam on the squared step size, the damped linearized update is
the MAP trajectory of a linear-Gaussian state space model whose dynamics are
the per-step Newton linearization (process noise I), and whose emissions are
the current iterate with covariance (1/lam) I. A Kalman filter pass computes
the causal variant used in production; the RTS smoother computes the exact
MAP and exists as the oracle path. The filter damps every transition to
Gamma_t A_t with ||Gamma_t||_2 <= 1/(1 + lam), which is what stabilizes the
iteration on locally expanding dynamics.

Neither pass loops over time: the filtered covariances are the prefixes of a
tree scan over filtering elements (Sarkka & Garcia-Fernandez 2021), the means
an affine scan, and the smoother an affine scan run backward in time. One code
path serves full (matrix) and diagonal (elementwise) Jacobians.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (ContractError, DynamicsSystem, NumericalFailure, Trajectory,
                   as_state, residual)
from .fixedpoint import (NEWTON, NO_DAMPING, QUASI_DIAGONAL, SolveReport, SolverConfig,
                         _linearize_stacked, solve_loop)
from .pscan import DENSE, evaluate_stacked, lane_apply, tree_schedule


@dataclass
class GaussianBelief:
    """Filtered marginal N(mean, cov) at one time step."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = as_state(self.mean)
        self.cov = np.asarray(self.cov, dtype=np.float64)
        d = self.mean.shape[0]
        if self.cov.shape != (d, d):
            raise ContractError("covariance shape does not match mean")
        scale = max(1.0, float(np.max(np.abs(self.cov))))
        if np.max(np.abs(self.cov - self.cov.T)) > 1e-10 * scale:
            raise NumericalFailure("belief covariance is not symmetric")
        if float(np.linalg.eigvalsh(self.cov).min()) < -1e-10 * scale:
            raise NumericalFailure("belief covariance has a negative eigenvalue")


@dataclass
class TrustRegionConfig:
    """Solver configuration: penalty lam >= 0 (trust-region precision), pass
    mode ("filter" is the production path, "smoother" the MAP oracle), and
    whether the linearization uses full or diagonal Jacobians.

    lam = 0 turns the step into the undamped linearized update and is
    permitted only in smoother-oracle comparisons.
    """

    lam: float = 1.0
    mode: str = "filter"
    jacobian: str = "full"  # "full" | "diagonal"
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.lam < 0:
            raise ContractError("lam must be >= 0")
        if self.mode not in ("filter", "smoother"):
            raise ContractError(f"unknown mode {self.mode!r}")
        if self.jacobian not in ("full", "diagonal"):
            raise ContractError(f"unknown jacobian variant {self.jacobian!r}")
        if self.lam == 0.0 and self.mode != "smoother":
            raise ContractError("lam = 0 is permitted only in smoother-oracle comparisons")


def attenuation(A: np.ndarray, Sigma: np.ndarray, sigma2: float) -> np.ndarray:
    """Gamma = sigma^2 (A Sigma A^T + (sigma^2 + 1) I)^{-1}.

    Symmetric positive definite with ||Gamma||_2 <= sigma^2/(1 + sigma^2)
    = 1/(1 + lam); consequently ||Gamma A||_2 <= ||A||_2 / (1 + lam). The
    solve cannot be singular: the bracketed matrix dominates (sigma^2 + 1) I.
    """
    A = np.asarray(A, dtype=np.float64)
    Sigma = np.asarray(Sigma, dtype=np.float64)
    if sigma2 <= 0:
        raise ContractError("sigma2 must be positive")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(Sigma))):
        raise ContractError("attenuation inputs must be finite")
    d = A.shape[0]
    m = A @ Sigma @ A.T + (sigma2 + 1.0) * np.eye(d)
    gamma = sigma2 * np.linalg.solve(m, np.eye(d))
    gamma = 0.5 * (gamma + gamma.T)
    return gamma


def _algebra(lane: str, D: int):
    """(product, transpose, inverse, identity) on the lane's stacks: matrix
    algebra on "dense" (T, D, D) stacks, elementwise on "diagonal" (T, D)."""
    if lane == DENSE:
        return np.matmul, lambda X: np.swapaxes(X, -1, -2), np.linalg.inv, np.eye(D)
    return np.multiply, lambda X: X, np.reciprocal, 1.0


def _filter_covariances(lane, A, lam):
    """Filtered covariances Sigma_post_t: the C of each prefix of a tree scan.

    With process noise I and emission covariance I/lam, element t is
    Abar_t = A_t/(1 + lam), C_t = I/(1 + lam), J_t = lam/(1 + lam) A_t^T A_t,
    and Abar_1 = J_1 = 0 since s_0 is known. Element i then j combines to
    M = (I + C_i J_j)^-1, Abar = Abar_j M Abar_i, C = Abar_j M C_i Abar_j^T
    + C_j, J = Abar_i^T M^T J_j Abar_i + J_i. The data never enter.
    """
    mul, tr, inv, one = _algebra(lane, A.shape[1])
    Ab = A / (1.0 + lam)
    C = np.broadcast_to(one / (1.0 + lam), A.shape).copy()
    J = (lam / (1.0 + lam)) * mul(tr(A), A)
    Ab[0] = 0.0
    J[0] = 0.0
    up, down = tree_schedule(len(A))
    for hi, lo in up + down:
        M = inv(one + mul(C[lo], J[hi]))
        AM = mul(Ab[hi], M)
        C[hi] = mul(mul(AM, C[lo]), tr(Ab[hi])) + C[hi]
        J[hi] = mul(mul(tr(Ab[lo]), mul(tr(M), J[hi])), Ab[lo]) + J[lo]
        Ab[hi] = mul(AM, Ab[lo])
    return C


def _raise_at_first(bad, message):
    first = np.flatnonzero(bad)
    if first.size:
        raise NumericalFailure(message, t=int(first[0]) + 1)


def _check_covariances(lane, sig):
    """Raise NumericalFailure at the first step with a non-finite or asymmetric
    covariance, else at the first indefinite (full) or negative (diagonal) one."""
    T = len(sig)
    flat = sig.reshape(T, -1)
    broken = ~np.all(np.isfinite(flat), axis=1)
    if lane != DENSE:
        _raise_at_first(broken | (flat.min(axis=1) < 0.0), "covariance update went negative")
        return
    scale = np.maximum(1.0, np.abs(flat).max(axis=1))
    asym = np.abs(sig - np.swapaxes(sig, 1, 2)).reshape(T, -1).max(axis=1)
    _raise_at_first(broken | (asym > 1e-8 * scale), "covariance update lost symmetry")
    min_eigs = np.linalg.eigvalsh(0.5 * (sig + np.swapaxes(sig, 1, 2)))[:, 0]
    _raise_at_first(min_eigs < -1e-8 * scale, "covariance update went indefinite")


def _forward(lane, A, b, emissions, s_left, lam):
    """Kalman filter pass over a "dense" or "diagonal" linearization.

    Returns (filtered_means, Sigma_post, Sigma_pred), stacked over t. The
    filtered means solve the affine recursion mu_t = Gamma_t A_t mu_{t-1}
    + Gamma_t b_t + (I - Gamma_t) y_t, with Gamma_t = (lam Sigma_pred_t + I)^-1
    and the current iterate y_t as emission.
    """
    mul, tr, inv, one = _algebra(lane, b.shape[1])
    with np.errstate(all="ignore"):
        sig_post = _filter_covariances(lane, A, lam)
        _check_covariances(lane, sig_post)
    sig_post = 0.5 * (sig_post + tr(sig_post))
    sig_pred = np.broadcast_to(one, sig_post.shape).copy()
    sig_pred[1:] += mul(mul(A[1:], sig_post[:-1]), tr(A[1:]))
    gamma = inv(lam * sig_pred + one)
    gamma = 0.5 * (gamma + tr(gamma))
    A_eff = mul(gamma, A)
    bias = lane_apply(lane, gamma, b) + lane_apply(lane, one - gamma, emissions)
    means = evaluate_stacked(lane, A_eff, bias, s_left)
    return means, sig_post, sig_pred


def _smooth(lane, A, b, means, sig_post, sig_pred):
    """RTS smoother as a backward affine scan.

    With gains G_t = Sigma_post_t A_{t+1}^T Sigma_pred_{t+1}^-1 the smoothed
    means obey out_t = G_t out_{t+1} + (mu_t - G_t (A_{t+1} mu_t + b_{t+1}))
    from out_T = mu_T, which the scan runs on the reversed arrays (the last
    step enters as the map x -> mu_T).
    """
    mul, tr, inv, _ = _algebra(lane, b.shape[1])
    G = np.zeros_like(sig_post)
    G[:-1] = mul(mul(sig_post[:-1], tr(A[1:])), inv(sig_pred[1:]))
    offset = means.copy()
    offset[:-1] -= lane_apply(lane, G[:-1], lane_apply(lane, A[1:], means[:-1]) + b[1:])
    return evaluate_stacked(lane, G[::-1], offset[::-1], np.zeros(b.shape[1]))[::-1]


def _kalman_chunk(sys, chunk, t0, s_left, cfg: TrustRegionConfig,
                  collect_beliefs: bool = False, fvals=None):
    prev = np.vstack([s_left[None, :], chunk[:-1]])
    ts = np.arange(t0 + 1, t0 + len(chunk) + 1)
    method = QUASI_DIAGONAL if cfg.jacobian == "diagonal" else NEWTON
    lane, A, b = _linearize_stacked(sys, prev, ts, method, NO_DAMPING, fvals)
    emissions = np.where(np.isfinite(chunk), chunk, 0.0)
    means, sig_post, sig_pred = _forward(lane, A, b, emissions, s_left, cfg.lam)
    out = _smooth(lane, A, b, means, sig_post, sig_pred) if cfg.mode == "smoother" else means
    if collect_beliefs:
        covs = list(sig_post) if lane == DENSE else [np.diag(s) for s in sig_post]
        beliefs = [GaussianBelief(m, c) for m, c in zip(means, covs)]
        return out, beliefs
    return out


def kalman_step(sys: DynamicsSystem, traj: Trajectory, cfg: TrustRegionConfig,
                return_beliefs: bool = False):
    """One trust-region update of the whole trajectory.

    Builds the per-step Newton linearization about ``traj``, runs the Kalman
    pass on the constructed LGSSM (process noise I, emissions = current
    iterate with covariance (1/lam) I), and returns filtered means (mode
    "filter") or RTS-smoothed means (mode "smoother"). With
    jacobian="diagonal" all matrix algebra specializes elementwise.
    """
    sys._check_traj(traj)
    s0 = as_state(sys.initial_state, sys.dim)
    result = _kalman_chunk(sys, traj.states, 0, s0, cfg, collect_beliefs=return_beliefs)
    if return_beliefs:
        out, beliefs = result
        return Trajectory(s0, out), beliefs
    return Trajectory(s0, result)


def kalman_solve(sys: DynamicsSystem, cfg: TrustRegionConfig) -> SolveReport:
    """Fixed-point loop around ``kalman_step``; same stopping and reporting
    contract as ``fixed_point_solve`` (metric, reset heuristic, windowing).

    Unlike the undamped family, the trust region pins each update toward the
    previous iterate (the already-correct coordinate contracts by
    lam/(1 + lam) per pass), so a default iteration budget of T is not
    enough; when ``max_iters`` is unset it resolves to T plus the extra
    passes that contraction needs to reach the tolerance.
    """
    solver = cfg.solver
    if solver.max_iters is None:
        extra = 0
        if cfg.lam > 0.0:
            shrink = np.log1p(1.0 / cfg.lam)  # log((1 + lam)/lam)
            budget = np.log(1.0 / solver.tol) + np.log1p(sys.horizon)
            extra = int(np.ceil(budget / shrink)) + 8
        from dataclasses import replace

        solver = replace(solver, max_iters=sys.horizon + extra)

    def chunk_step(chunk, t0, s_left, fvals):
        return _kalman_chunk(sys, chunk, t0, s_left, cfg, fvals=fvals)

    return solve_loop(sys, solver, chunk_step)


def lm_step_dense(sys: DynamicsSystem, traj: Trajectory, lam: float) -> Trajectory:
    """Dense damped update s - (J^T J + lam I)^{-1} J^T r. Oracle only.

    Assembles the full block-bidiagonal residual Jacobian, so it is guarded
    to T*D <= 4096.
    """
    from .diagnostics import assemble_big_j

    J = assemble_big_j(sys, traj)
    r = residual(sys, traj).ravel()
    n = J.shape[0]
    delta = np.linalg.solve(J.T @ J + lam * np.eye(n), J.T @ r)
    return Trajectory(sys.initial_state, traj.states - delta.reshape(traj.states.shape))


def select_lambda(sys: DynamicsSystem, cfg: TrustRegionConfig, grid=None):
    """Grid-search lam on a validation solve; smallest iteration count wins.

    Default grid: 8 log-spaced points in [1e0, 1e7]. Returns (best_lam,
    records) where records holds (lam, converged, iterations, final_diff).
    """
    if grid is None:
        grid = np.logspace(0.0, 7.0, 8)
    records = []
    for lam in grid:
        trial = TrustRegionConfig(lam=float(lam), mode=cfg.mode,
                                  jacobian=cfg.jacobian, solver=cfg.solver)
        report = kalman_solve(sys, trial)
        records.append((float(lam), report.converged, report.iterations, report.final_diff))
    def rank(rec):
        lam, converged, iters, diff = rec
        return (0 if converged else 1, iters, diff)
    best = min(records, key=rank)
    return best[0], records
