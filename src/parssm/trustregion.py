"""Trust-region (Levenberg-Marquardt) steps as posterior inference.

With a penalty lam on the squared step size, the damped linearized update is
the MAP trajectory of a linear-Gaussian state space model whose dynamics are
the per-step Newton linearization (process noise I), and whose emissions are
the current iterate with covariance (1/lam) I. A Kalman filter pass computes
the causal variant used in production; the RTS smoother computes the exact
MAP and exists as the oracle path. The filter damps every transition to
Gamma_t A_t with ||Gamma_t||_2 <= 1/(1 + lam), which is what stabilizes the
iteration on locally expanding dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (ContractError, DynamicsSystem, NumericalFailure, Trajectory,
                   as_state, residual)
from .fixedpoint import (NEWTON, NO_DAMPING, QUASI_DIAGONAL, SolveReport, SolverConfig,
                         _linearize_stacked, solve_loop)
from .pscan import evaluate_stacked


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


def _forward_full(A, b, emissions, s_left, lam):
    """Covariance/gain recursion plus filtered means via the scan.

    Returns (filtered_means, Sigma_post (T,D,D), Sigma_pred (T,D,D),
    A_eff, bias) where the filtered means solve the affine recursion
    mu_t = Gamma_t A_t mu_{t-1} + bias_t. The covariance pass depends only
    on {A_t} and lam, never on the data.
    """
    T, D = b.shape
    eye = np.eye(D)
    sig = np.zeros((D, D))
    A_eff = np.empty((T, D, D))
    bias = np.empty((T, D))
    sig_post = np.empty((T, D, D))
    sig_pred = np.empty((T, D, D))
    for t in range(T):
        x = A[t] @ sig @ A[t].T
        pred = x + eye
        m = lam * pred + eye
        gamma = np.linalg.solve(m, eye)
        gamma = 0.5 * (gamma + gamma.T)
        k = eye - gamma
        A_eff[t] = gamma @ A[t]
        bias[t] = gamma @ b[t] + k @ emissions[t]
        if lam > 0.0:
            sig = gamma @ pred @ gamma.T + (1.0 / lam) * (k @ k.T)
        else:
            sig = pred
        asym = float(np.max(np.abs(sig - sig.T)))
        scale = max(1.0, float(np.max(np.abs(sig)))) if np.all(np.isfinite(sig)) else 1.0
        if not np.all(np.isfinite(sig)) or asym > 1e-8 * scale:
            raise NumericalFailure("covariance update lost symmetry", t=t + 1)
        sig = 0.5 * (sig + sig.T)
        sig_post[t] = sig
        sig_pred[t] = pred
    # PSD check batched over the pass; report the first offending index
    scales = np.maximum(1.0, np.abs(sig_post).max(axis=(1, 2)))
    min_eigs = np.linalg.eigvalsh(sig_post)[:, 0]
    bad = np.nonzero(min_eigs < -1e-8 * scales)[0]
    if bad.size:
        raise NumericalFailure("covariance update went indefinite", t=int(bad[0]) + 1)
    means = evaluate_stacked("dense", A_eff, bias, s_left)
    return means, sig_post, sig_pred, A_eff, bias


def _forward_diag(A, b, emissions, s_left, lam):
    """Elementwise covariance/gain recursion for diagonal linearizations."""
    T, D = b.shape
    sig = np.zeros(D)
    A_eff = np.empty((T, D))
    bias = np.empty((T, D))
    sig_post = np.empty((T, D))
    sig_pred = np.empty((T, D))
    for t in range(T):
        pred = A[t] * sig * A[t] + 1.0
        gamma = 1.0 / (lam * pred + 1.0)
        k = 1.0 - gamma
        A_eff[t] = gamma * A[t]
        bias[t] = gamma * b[t] + k * emissions[t]
        if lam > 0.0:
            sig = gamma * pred * gamma + k * k / lam
        else:
            sig = pred
        if not np.all(np.isfinite(sig)) or np.min(sig) < 0.0:
            raise NumericalFailure("covariance update went negative", t=t + 1)
        sig_post[t] = sig
        sig_pred[t] = pred
    means = evaluate_stacked("diagonal", A_eff, bias, s_left)
    return means, sig_post, sig_pred, A_eff, bias


def _smooth_full(A, b, means, sig_post, sig_pred):
    T, D = means.shape
    out = means.copy()
    for t in range(T - 2, -1, -1):
        gain = sig_post[t] @ A[t + 1].T @ np.linalg.inv(sig_pred[t + 1])
        pred_mean = A[t + 1] @ means[t] + b[t + 1]
        out[t] = means[t] + gain @ (out[t + 1] - pred_mean)
    return out


def _smooth_diag(A, b, means, sig_post, sig_pred):
    T, D = means.shape
    out = means.copy()
    for t in range(T - 2, -1, -1):
        gain = sig_post[t] * A[t + 1] / sig_pred[t + 1]
        pred_mean = A[t + 1] * means[t] + b[t + 1]
        out[t] = means[t] + gain * (out[t + 1] - pred_mean)
    return out


def _kalman_chunk(sys, chunk, t0, s_left, cfg: TrustRegionConfig,
                  collect_beliefs: bool = False):
    prev = np.vstack([s_left[None, :], chunk[:-1]])
    ts = np.arange(t0 + 1, t0 + len(chunk) + 1)
    diagonal = cfg.jacobian == "diagonal"
    _, A, b = _linearize_stacked(sys, prev, ts, QUASI_DIAGONAL if diagonal else NEWTON, NO_DAMPING)
    emissions = np.where(np.isfinite(chunk), chunk, 0.0)
    forward = _forward_diag if diagonal else _forward_full
    means, sig_post, sig_pred, A_eff, bias = forward(A, b, emissions, s_left, cfg.lam)
    if cfg.mode == "smoother":
        smooth = _smooth_diag if diagonal else _smooth_full
        out = smooth(A, b, means, sig_post, sig_pred)
    else:
        out = means
    if collect_beliefs:
        covs = [np.diag(s) for s in sig_post] if diagonal else list(sig_post)
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

    def chunk_step(chunk, t0, s_left):
        return _kalman_chunk(sys, chunk, t0, s_left, cfg)

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
