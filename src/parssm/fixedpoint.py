"""Unified fixed-point solver loop for parallel evaluation of nonlinear SSMs.

One iteration linearizes the dynamics according to the chosen method
(full-Jacobian Newton, diagonal quasi-Newton, Picard's identity transition,
Jacobi's zero transition, or a user-scaled identity), evaluates the resulting
linear dynamical system with the parallel scan, and repeats to a fixed point.
Any transition choice converges in at most T iterations because the fixed
initial state propagates at least one newly correct step per iteration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (ContractError, DynamicsSystem, Trajectory, as_state,
                   exact_rows_and_merit, max_abs_diff)
from .core import merit  # noqa: F401  (tracing tools patch fixedpoint.merit by name)
from .pscan import ZERO, AffineOp, evaluate_stacked, lane_apply, lane_transitions


@dataclass(frozen=True)
class SolverMethod:
    """Which transition representation the linearization uses per step."""

    kind: str  # "newton" | "quasi" | "picard" | "jacobi" | "scaled"
    coeff: float | None = None  # scale factor for "scaled"

    def __post_init__(self):
        if self.kind not in ("newton", "quasi", "picard", "jacobi", "scaled"):
            raise ContractError(f"unknown solver method {self.kind!r}")
        if self.kind == "scaled":
            if self.coeff is None or not np.isfinite(self.coeff):
                raise ContractError("scaled-identity method needs a finite coefficient")
        elif self.coeff is not None:
            raise ContractError(f"method {self.kind!r} takes no coefficient")

    @staticmethod
    def parse(text: str) -> "SolverMethod":
        """Parse "newton", "quasi", ..., or "scaled:<a>"."""
        if ":" in text:
            kind, _, arg = text.partition(":")
            if kind != "scaled":
                raise ContractError(f"only the scaled method takes an argument, got {text!r}")
            return SolverMethod("scaled", float(arg))
        return SolverMethod(text)


NEWTON = SolverMethod("newton")
QUASI_DIAGONAL = SolverMethod("quasi")
PICARD = SolverMethod("picard")
JACOBI = SolverMethod("jacobi")


def scaled_identity(a: float) -> SolverMethod:
    return SolverMethod("scaled", float(a))


@dataclass(frozen=True)
class Damping:
    """Transition damping: none, uniform scaling by (1-k), or diagonal clipping."""

    kind: str = "none"  # "none" | "scale" | "clip"
    k: float = 0.0
    lo: float = -1.0
    hi: float = 1.0

    def __post_init__(self):
        if self.kind not in ("none", "scale", "clip"):
            raise ContractError(f"unknown damping {self.kind!r}")
        if self.kind == "scale" and not (0.0 <= self.k <= 1.0):
            raise ContractError("scale damping needs k in [0, 1]")
        if self.kind == "clip" and not (self.lo <= 0.0 <= self.hi):
            raise ContractError("clip damping needs lo <= 0 <= hi")

    @staticmethod
    def none() -> "Damping":
        return Damping()

    @staticmethod
    def scale(k: float) -> "Damping":
        return Damping("scale", k=float(k))

    @staticmethod
    def clip(lo: float = -1.0, hi: float = 1.0) -> "Damping":
        return Damping("clip", lo=float(lo), hi=float(hi))

    @staticmethod
    def parse(text: str) -> "Damping":
        """Parse "none", "scale:<k>", or "clip:<lo>:<hi>"."""
        parts = text.split(":")
        if parts[0] == "none":
            return Damping()
        if parts[0] == "scale":
            return Damping.scale(float(parts[1]))
        if parts[0] == "clip":
            lo, hi = (float(parts[1]), float(parts[2])) if len(parts) > 2 else (-1.0, 1.0)
            return Damping.clip(lo, hi)
        raise ContractError(f"cannot parse damping {text!r}")


NO_DAMPING = Damping()


@dataclass
class SolverConfig:
    """Knobs shared by every fixed-point style solver.

    ``tol`` applies to the successive-iterate infinity norm by default;
    setting ``metric="merit"`` instead stops when merit/T <= tol, which
    registers one-step-exact solves as a single iteration. ``max_iters``
    defaults to the horizon T, making the worst-case global-convergence
    guarantee the stopping point rather than a failure mode.
    """

    tol: float = 1e-4
    max_iters: int | None = None
    init: str = "jacobi"  # "jacobi" | "zeros" | "normal"
    seed: int = 0
    window: int | None = None
    damping: Damping = field(default_factory=Damping)
    record_history: bool = True
    record_iterates: bool = False
    metric: str = "diff"  # "diff" | "merit"

    def __post_init__(self):
        if self.tol <= 0:
            raise ContractError("tolerance must be positive")
        if self.max_iters is not None and self.max_iters < 1:
            raise ContractError("max_iters must be >= 1")
        if self.init not in ("jacobi", "zeros", "normal"):
            raise ContractError(f"unknown init {self.init!r}")
        if self.metric not in ("diff", "merit"):
            raise ContractError(f"unknown metric {self.metric!r}")

    def resolved(self, T: int) -> "SolverConfig":
        if self.window is not None and not (1 <= self.window <= T):
            raise ContractError(f"window must lie in [1, {T}]")
        return replace(self, max_iters=self.max_iters if self.max_iters is not None else T)


@dataclass
class SolveReport:
    """Outcome of one solve: the iterate, counters, and optional histories."""

    trajectory: Trajectory
    converged: bool
    iterations: int
    merit_history: list
    diff_history: list
    resets: int
    elapsed: float
    iterates: list | None = None

    @property
    def final_diff(self) -> float:
        return self.diff_history[-1] if self.diff_history else float("nan")


OVERFLOW_GUARD = 1e100  # iterate entries beyond this are treated as overflowed

# The frozen prefix grows in whole blocks of this many rows. numpy keeps freed
# arrays under 1 KiB in caches keyed by exact byte size and never returns them,
# so a front moving one row per pass would strand per-row arrays (n-byte masks)
# at every length from T down: about 3 MB more peak memory at T=1000.
FRONT_BLOCK = 16


def _method_transitions(sys, ts, prev, method: SolverMethod, damping: Damping):
    """Stacked transition lane and array for the given method and damping."""
    if damping.kind == "clip" and method.kind != "quasi":
        raise ContractError("clip damping is defined for diagonal transitions only")
    scale = 1.0 - damping.k if damping.kind == "scale" else 1.0
    if method.kind == "newton":
        with np.errstate(all="ignore"):
            A = sys.jacobian_batch(ts, prev)
        return ("dense", A if scale == 1.0 else scale * A)
    if method.kind == "quasi":
        with np.errstate(all="ignore"):
            d = sys.diag_jacobian_batch(ts, prev)
        if scale != 1.0:
            d = scale * d
        if damping.kind == "clip":
            d = np.clip(d, damping.lo, damping.hi)
        return ("diagonal", d)
    if method.kind == "jacobi":
        return ("zero", None)
    a = 1.0 if method.kind == "picard" else method.coeff
    a = a * scale
    if a == 1.0:
        return ("identity", None)
    return ("scalar", np.full(len(ts), a))


def _linearize_stacked(sys, states_prev, ts, method, damping, fvals=None):
    """(lane, A, b) with op_t = (A_t, f_t(s_{t-1}) - A_t s_{t-1}).

    ``fvals``, when given, holds f_t(s_{t-1}) at these rows already, and is
    read but never written. Rows whose predecessor state has overflowed
    (non-finite step value or magnitude beyond the overflow guard) are
    linearized at the reset value 0 instead, with f evaluated afresh there,
    so the returned operators are the method transition at a point the
    dynamics can actually evaluate.
    """
    prev = np.asarray(states_prev, dtype=np.float64)
    with np.errstate(all="ignore"):
        fvals = sys.step_batch(ts, prev) if fvals is None else fvals
        bad = ~np.all(np.isfinite(fvals), axis=1)
        bad |= np.max(np.abs(prev), axis=1) > OVERFLOW_GUARD
        if bad.any():
            prev = np.where(bad[:, None], 0.0, prev)
            fvals = fvals.copy()
            fvals[bad] = sys.step_batch(np.asarray(ts)[bad], np.zeros((int(bad.sum()), prev.shape[1])))
        lane, A = _method_transitions(sys, ts, prev, method, damping)
        if A is not None:
            flat = A.reshape(len(ts), -1)
            abad = ~np.all(np.isfinite(flat), axis=1)
            if abad.any():
                sub_ts = np.asarray(ts)[abad]
                zeros = np.zeros((int(abad.sum()), prev.shape[1]))
                _, A_sub = _method_transitions(sys, sub_ts, zeros, method, damping)
                A[abad] = A_sub
        # zero transitions: the update is a pure map, with nothing to subtract
        b = fvals if lane == ZERO else fvals - lane_apply(lane, A, prev)
    return lane, A, b


def linearize(sys: DynamicsSystem, traj: Trajectory, method: SolverMethod,
              damping: Damping = NO_DAMPING):
    """Per-step affine surrogates of the dynamics about ``traj``.

    Returns T AffineOps with op_t = (A~_t, f_t(s_{t-1}) - A~_t s_{t-1}), where
    A~_t is the method's transition at s_{t-1}. Scale damping multiplies A~_t
    by (1 - k); clip damping clips diagonal entries into [lo, hi] and is
    rejected for non-diagonal methods. Non-finite iterate entries are
    substituted with the reset value 0 before linearizing.
    """
    sys._check_traj(traj)
    ts = np.arange(1, sys.horizon + 1)
    lane, A, b = _linearize_stacked(sys, traj.prev_states(), ts, method, damping)
    return [AffineOp(A_t, b_t) for A_t, b_t in zip(lane_transitions(lane, A, sys.horizon), b)]


def jacobi_init(sys: DynamicsSystem) -> Trajectory:
    """Initial guess s_t = f_t(0): one zero-transition step, fully parallel."""
    ts = np.arange(1, sys.horizon + 1)
    with np.errstate(all="ignore"):
        states = sys.step_batch(ts, np.zeros((sys.horizon, sys.dim)))
    return Trajectory(sys.initial_state, states)


def initial_guess(sys: DynamicsSystem, cfg: SolverConfig) -> np.ndarray:
    if cfg.init == "zeros":
        return np.zeros((sys.horizon, sys.dim))
    if cfg.init == "normal":
        return np.random.default_rng(cfg.seed).standard_normal((sys.horizon, sys.dim))
    return jacobi_init(sys).states


def solve_loop(sys: DynamicsSystem, cfg: SolverConfig, chunk_step) -> SolveReport:
    """Generic driver shared by the scan solvers and the Kalman solver.

    ``chunk_step(states_chunk, t_start, s_left, fvals) -> new_chunk`` produces
    the next iterate of the active chunk, whose steps are t_start+1 ..
    t_start+Tc and whose left boundary state is ``s_left``. ``fvals`` holds
    f_t(s_{t-1}) at the chunk's current rows, or None when the chunk step must
    evaluate f itself.

    The causal front is the number of leading rows whose residual
    s_t - f_t(s_{t-1}) is exactly zero. By induction from the fixed s_0 those
    rows solve the recurrence, so they are final, and in exact arithmetic every
    pass makes at least one more row exact. The loop freezes the front rounded
    down to whole blocks of ``FRONT_BLOCK`` rows (all T rows once every one is
    exact), and a pass works on the rows past the frozen prefix only: the chunk
    is [front, T), or with a window [max(front, t_done), +window), where t_done
    advances to the chunk's end once its tail's successive difference meets
    the tolerance.

    After the chunk step, f is evaluated once, on rows [front, T). Those values
    give the merit (the frozen prefix adds 0), the new front, and the next
    pass's ``fvals``. When neither the history nor the stopping metric needs
    the merit, f is evaluated on the chunk's rows only, and the front advances
    only from a chunk that starts at it. Non-finite iterate entries are reset
    to 0 before a pass (one reset event per pass where that happens), and the
    chunk step of that pass evaluates f afresh.

    Once the front reaches T the next pass has no rows. It still counts as an
    iteration, observes difference and merit 0, and does no work.

    A pass whose chunk starts at the front, ends at T and comes back bitwise
    unchanged (successive difference exactly zero) stops the loop as converged
    regardless of the metric: the prefix is final and the iteration map is
    deterministic, so nothing can change on any later pass. Chaotic chains can
    floor the merit above any tolerance while still being exact fixed points
    of the float map; this handles them soundly.
    """
    cfg = cfg.resolved(sys.horizon)
    T = sys.horizon
    tc = cfg.window or T
    ts = np.arange(1, T + 1)
    s0 = as_state(sys.initial_state, sys.dim)
    states = initial_guess(sys, cfg)
    front = 0     # frozen prefix: leading rows with zero residual
    fvals = None  # f_t(s_{t-1}) on rows f_lo+1 .. f_lo+len(fvals) of the current states
    f_lo = 0
    t_done = 0
    resets = 0
    merit_hist: list = []
    diff_hist: list = []
    iterates: list = [] if cfg.record_iterates else None
    converged = False
    iters = 0
    want_merit = cfg.record_history or cfg.metric == "merit"
    start = time.perf_counter()
    while iters < cfg.max_iters:
        bad = ~np.isfinite(states)
        if bad.any():
            states[bad] = 0.0
            resets += 1
            fvals = None
        iters += 1
        lo = max(front, t_done)
        hi = min(lo + tc, T)
        diff, current_merit, stationary = 0.0, 0.0, True  # the empty pass
        if lo < T:
            s_left = states[lo - 1] if lo > 0 else s0
            old_tail = states[hi - 1].copy()
            reuse = fvals is not None and f_lo <= lo and hi <= f_lo + len(fvals)
            new_chunk = chunk_step(states[lo:hi], lo, s_left,
                                   fvals[lo - f_lo:hi - f_lo] if reuse else None)
            diff = max_abs_diff(new_chunk, states[lo:hi])
            stationary = diff == 0.0 and lo == front and hi == T
            states[lo:hi] = new_chunk
            f_lo, f_hi = (front, T) if want_merit else (lo, hi)
            prev = states[f_lo - 1:f_hi - 1] if f_lo > 0 else np.vstack([s0, states[:f_hi - 1]])
            with np.errstate(all="ignore"):
                fvals = sys.step_batch(ts[f_lo:f_hi], prev)
                r = states[f_lo:f_hi] - fvals
            exact, current_merit = exact_rows_and_merit(r)
            if f_lo == front:  # rows exact from the front on extend it
                front = T if front + exact == T else (front + exact) // FRONT_BLOCK * FRONT_BLOCK
        if cfg.record_history:
            diff_hist.append(diff)
            merit_hist.append(current_merit)
        if iterates is not None:
            iterates.append(states.copy())
        if hi < T:
            # middle chunk: advance once the tail stops moving
            if max_abs_diff(new_chunk[-1:], old_tail[None, :]) <= cfg.tol:
                t_done = hi
            continue
        if cfg.metric == "merit":
            done = current_merit / T <= cfg.tol
        else:
            done = diff <= cfg.tol
        if done or stationary:
            converged = True
            break
    elapsed = time.perf_counter() - start
    return SolveReport(
        trajectory=Trajectory(sys.initial_state, states),
        converged=converged,
        iterations=iters,
        merit_history=merit_hist,
        diff_history=diff_hist,
        resets=resets,
        elapsed=elapsed,
        iterates=iterates,
    )


def fixed_point_solve(sys: DynamicsSystem, cfg: SolverConfig,
                      method: SolverMethod) -> SolveReport:
    """Iterate linearize -> evaluate-LDS until the stopping metric is met.

    Each iteration has O(log T) scan depth; convergence is guaranteed within
    T iterations regardless of the initial guess or transition choice.
    """

    def chunk_step(chunk, t0, s_left, fvals):
        prev = np.vstack([s_left[None, :], chunk[:-1]])
        ts = np.arange(t0 + 1, t0 + len(chunk) + 1)
        lane, A, b = _linearize_stacked(sys, prev, ts, method, cfg.damping, fvals)
        with np.errstate(all="ignore"):
            return evaluate_stacked(lane, A, b, s_left)

    return solve_loop(sys, cfg, chunk_step)


def prefix_lock_check(iterates, oracle: Trajectory, tol: float = 1e-8):
    """Per-iteration count of leading steps already within ``tol`` of s*.

    Test instrumentation for the causal-convergence guarantee: the count is
    nondecreasing across iterations and at least the iteration index.
    """
    target = oracle.states
    counts = []
    for it in iterates:
        x = it.states if isinstance(it, Trajectory) else np.asarray(it)
        with np.errstate(invalid="ignore"):
            row_err = np.max(np.abs(x - target), axis=1)
        row_err = np.where(np.isnan(row_err), np.inf, row_err)
        ok = row_err <= tol
        counts.append(int(np.argmin(ok)) if not ok.all() else len(ok))
    return counts
