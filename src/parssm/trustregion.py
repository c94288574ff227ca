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

from dataclasses import dataclass, field, replace

import numpy as np

from .core import (ContractError, DynamicsSystem, NumericalFailure, Trajectory,
                   as_state, require_real, residual)
from .diagnostics import assemble_big_j
from .fixedpoint import (NEWTON, NO_DAMPING, QUASI_DIAGONAL, SolveReport, SolverConfig,
                         _linearize_stacked, solve_loop)
from .pscan import DENSE, evaluate_stacked, lane_algebra, lane_apply, tree_scan


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
        require_real("lam", self.lam)
        if not 0 <= self.lam < np.inf:
            raise ContractError(f"lam must be >= 0 and finite, got {self.lam!r}")
        if self.mode not in ("filter", "smoother"):
            raise ContractError(f"unknown mode {self.mode!r}")
        if self.jacobian not in ("full", "diagonal"):
            raise ContractError(f"unknown jacobian variant {self.jacobian!r}")
        if self.lam == 0.0 and self.mode != "smoother":
            raise ContractError("lam = 0 is permitted only in smoother-oracle comparisons")
        if not isinstance(self.solver, SolverConfig):
            raise ContractError(f"solver must be a SolverConfig, got {self.solver!r}")
        if self.solver.damping.kind != "none":
            raise ContractError("the trust region takes no damping: lam sets its step")


def _gain(lane, sig_pred, lam):
    """Gamma = 0.5 (G + G^T) with G = (lam Sigma_pred + I)^-1, on a lane's stack."""
    _, tr, inv, one = lane_algebra(lane, sig_pred.shape[1])
    gamma = inv(lam * sig_pred + one)
    return 0.5 * (gamma + tr(gamma))


def attenuation(A: np.ndarray, Sigma: np.ndarray, sigma2: float) -> np.ndarray:
    """Gamma = sigma^2 (A Sigma A^T + (sigma^2 + 1) I)^{-1}: the filter's
    ``_gain`` on one dense step, with lam = 1/sigma^2.

    Symmetric positive definite with ||Gamma||_2 <= sigma^2/(1 + sigma^2)
    = 1/(1 + lam); consequently ||Gamma A||_2 <= ||A||_2 / (1 + lam). The
    inverse cannot be singular: the bracketed matrix dominates (sigma^2 + 1) I.
    sigma^2 = inf gives I; a bool, a NaN sigma^2, or one whose reciprocal
    overflows, is refused.
    """
    A = np.asarray(A, dtype=np.float64)
    Sigma = np.asarray(Sigma, dtype=np.float64)
    require_real("sigma2", sigma2)
    if not sigma2 > 0:  # NaN > 0 is False
        raise ContractError("sigma2 must be positive")
    lam = 1.0 / float(sigma2)
    if not np.isfinite(lam):
        raise ContractError(f"1/sigma2 must be a finite float, got sigma2={sigma2!r}")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(Sigma))):
        raise ContractError("attenuation inputs must be finite")
    mul, tr, _, one = lane_algebra(DENSE, A.shape[0])
    sig_pred = one + mul(mul(A[None], Sigma[None]), tr(A[None]))
    return _gain(DENSE, sig_pred, lam)[0]


def _filter_covariances(lane, A, lam):
    """Filtered covariances Sigma_post_t: the C of each ``tree_scan`` prefix.

    With process noise I and emission covariance I/lam, element t is
    Abar_t = A_t/(1 + lam), C_t = I/(1 + lam), J_t = lam/(1 + lam) A_t^T A_t,
    and Abar_1 = J_1 = 0 since s_0 is known. Element i then j combines to
    M = (I + C_i J_j)^-1, Abar = Abar_j M Abar_i, C = Abar_j M C_i Abar_j^T
    + C_j, J = Abar_i^T M^T J_j Abar_i + J_i. The data never enter. No level
    reads the Abar and J a closing level would write, so those compute C alone.
    """
    mul, tr, inv, one = lane_algebra(lane, A.shape[1])
    Ab = A / (1.0 + lam)
    C = np.broadcast_to(one / (1.0 + lam), A.shape).copy()
    J = (lam / (1.0 + lam)) * mul(tr(A), A)
    Ab[0] = 0.0
    J[0] = 0.0

    def combine(hi, lo, closing):
        M = inv(one + mul(C[lo], J[hi]))
        AM = mul(Ab[hi], M)
        C[hi] = mul(mul(AM, C[lo]), tr(Ab[hi])) + C[hi]
        if not closing:
            J[hi] = mul(mul(tr(Ab[lo]), mul(tr(M), J[hi])), Ab[lo]) + J[lo]
            Ab[hi] = mul(AM, Ab[lo])

    tree_scan(len(A), combine)
    return C


def _raise_at_first(bad, message):
    first = np.flatnonzero(bad)
    if first.size:
        raise NumericalFailure(message, t=int(first[0]) + 1)


def _check_covariances(lane, sig):
    """Raise NumericalFailure at the first step with a non-finite or asymmetric
    covariance, else at the first indefinite (full) or negative (diagonal) one.
    Otherwise return the stack symmetrized, 0.5 (Sigma + Sigma^T) (a diagonal
    stack is its own transpose and comes back as it is).

    A full stack is first offered to one batched Cholesky factorization, which
    certifies the common case: when it succeeds every covariance is positive
    definite, so none can fail the eigenvalue test. Only when it fails does
    ``eigvalsh`` decide, with the smallest eigenvalue against -1e-8 * scale,
    whether any step is indefinite, and locate the first.
    """
    T = len(sig)
    flat = sig.reshape(T, -1)
    broken = ~np.all(np.isfinite(flat), axis=1)
    if lane != DENSE:
        _raise_at_first(broken | (flat.min(axis=1) < 0.0), "covariance update went negative")
        return sig
    scale = np.maximum(1.0, np.abs(flat).max(axis=1))
    asym = np.abs(sig - np.swapaxes(sig, 1, 2)).reshape(T, -1).max(axis=1)
    _raise_at_first(broken | (asym > 1e-8 * scale), "covariance update lost symmetry")
    sym = 0.5 * (sig + np.swapaxes(sig, 1, 2))
    try:
        np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        min_eigs = np.linalg.eigvalsh(sym)[:, 0]
        _raise_at_first(min_eigs < -1e-8 * scale, "covariance update went indefinite")
    return sym


def _forward(lane, A, b, emissions, s_left, lam):
    """Kalman filter pass over a "dense" or "diagonal" linearization.

    Returns (filtered_means, Sigma_post, Sigma_pred), stacked over t. The
    filtered means solve the affine recursion mu_t = Gamma_t A_t mu_{t-1}
    + Gamma_t b_t + (I - Gamma_t) y_t, with Gamma_t = (lam Sigma_pred_t + I)^-1
    and the current iterate y_t as emission, under the caller's numpy error state.
    """
    mul, tr, _, one = lane_algebra(lane, b.shape[1])
    sig_post = _check_covariances(lane, _filter_covariances(lane, A, lam))
    sig_pred = np.broadcast_to(one, sig_post.shape).copy()
    sig_pred[1:] += mul(mul(A[1:], sig_post[:-1]), tr(A[1:]))
    gamma = _gain(lane, sig_pred, lam)
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
    mul, tr, inv, _ = lane_algebra(lane, b.shape[1])
    G = np.zeros_like(sig_post)
    G[:-1] = mul(mul(sig_post[:-1], tr(A[1:])), inv(sig_pred[1:]))
    offset = means.copy()
    offset[:-1] -= lane_apply(lane, G[:-1], lane_apply(lane, A[1:], means[:-1]) + b[1:])
    return evaluate_stacked(lane, G[::-1], offset[::-1], np.zeros(b.shape[1]))[::-1]


def _kalman_chunk(sys, window, ts, cfg: TrustRegionConfig, fvals=None, reset=None):
    """Trust-region update of rows ``window[1:]`` (steps ``ts``) from boundary ``window[0]``
    toward those rows as emissions, a non-finite entry read as 0, under the caller's
    numpy error state."""
    method = QUASI_DIAGONAL if cfg.jacobian == "diagonal" else NEWTON
    lane, A, b = _linearize_stacked(sys, window[:-1], ts, method, NO_DAMPING, fvals, reset)
    emissions = np.where(np.isfinite(window[1:]), window[1:], 0.0)
    means, sig_post, sig_pred = _forward(lane, A, b, emissions, window[0], cfg.lam)
    return _smooth(lane, A, b, means, sig_post, sig_pred) if cfg.mode == "smoother" else means


def kalman_step(sys: DynamicsSystem, traj: Trajectory, cfg: TrustRegionConfig) -> Trajectory:
    """One trust-region update of the whole trajectory.

    Builds the per-step Newton linearization about ``traj``, runs the Kalman pass on
    the constructed LGSSM (process noise I, emissions = current iterate, its
    non-finite entries as 0, with covariance (1/lam) I), and returns filtered means
    (mode "filter") or RTS-smoothed means (mode "smoother"). With jacobian="diagonal"
    all matrix algebra specializes elementwise. Holds one numpy error state for the call,
    and runs the same chunk ``kalman_solve`` runs on each pass.
    """
    with np.errstate(all="ignore"):
        sys._check_traj(traj)
        window = np.vstack([as_state(sys.initial_state, sys.dim), traj.states])
        means = _kalman_chunk(sys, window, np.arange(1, sys.horizon + 1), cfg)
        return Trajectory(window[0], means)


def _default_max_iters(T: int, lam: float, tol: float) -> int:
    """``kalman_solve``'s iteration budget when ``max_iters`` is unset."""
    if lam == 0.0:
        return T
    with np.errstate(over="ignore"):
        passes = (1.0 + lam) * (2 * T + np.log(1.0 / tol) / np.log1p(1.0 / lam))
    if not np.isfinite(passes):
        raise ContractError(f"no finite default pass budget at lam={lam!r}: set max_iters")
    return int(np.ceil(passes)) + 8


def kalman_solve(sys: DynamicsSystem, cfg: TrustRegionConfig) -> SolveReport:
    """The pass of ``kalman_step``, run on the rows past the causal front to the
    stopping and reporting contract of ``fixed_point_solve`` (metric, reset heuristic).

    Unlike the undamped family, the trust region pins each update toward the
    previous iterate (the already-correct coordinate contracts by
    lam/(1 + lam) per pass), so a default iteration budget of T is not
    enough. When ``max_iters`` is unset it resolves to
    ceil((1 + lam)(2T + ln(1/tol)/ln(1 + 1/lam))) + 8 passes, and to T when
    lam = 0: the damping slows both the sweep along the horizon and that
    contraction by about 1 + lam, and 2T covers solves whose converged
    prefix grows by less than one row per pass.

    Known false stop (lorenz96 T=16, seed 0): at lam = 1e10 the difference stop
    reports converged after pass 1 (update 8.6e-10, merit 159; the merit stop
    runs on), and at lam = 1e300 an unchanged iterate ends either stop.
    """
    solver = cfg.solver
    if solver.max_iters is None:
        solver = replace(solver, max_iters=_default_max_iters(sys.horizon, cfg.lam, solver.tol))

    def chunk_step(window, ts, fvals, reset):
        return _kalman_chunk(sys, window, ts, cfg, fvals, reset)

    return solve_loop(sys, solver, chunk_step)


def lm_step_dense(sys: DynamicsSystem, traj: Trajectory, lam: float) -> Trajectory:
    """Dense damped update s - (J^T J + lam I)^{-1} J^T r. Oracle only.

    Assembles the full block-bidiagonal residual Jacobian, so it is guarded
    to T*D <= 4096. Holds one numpy error state around the whole step.
    """
    with np.errstate(all="ignore"):
        J = assemble_big_j(sys, traj)
        r = residual(sys, traj).ravel()
        n = J.shape[0]
        delta = np.linalg.solve(J.T @ J + lam * np.eye(n), J.T @ r)
        return Trajectory(sys.initial_state, traj.states - delta.reshape(traj.states.shape))
