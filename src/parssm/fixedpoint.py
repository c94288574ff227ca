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
from dataclasses import dataclass, field

import numpy as np

from .core import (ContractError, DynamicsSystem, Trajectory, as_state,
                   exact_rows_and_merit, max_abs_diff, require_int, require_positive,
                   require_real)
from .core import merit  # noqa: F401  (tracing tools patch fixedpoint.merit by name)
from .pscan import (DENSE, DIAGONAL, IDENTITY, SCALED, ZERO, AffineOp, evaluate_stacked,
                    lane_apply, row_transition)


@dataclass(frozen=True)
class SolverMethod:
    """Which transition representation the linearization uses per step."""

    kind: str  # "newton" | "quasi" | "picard" | "jacobi" | "scaled"
    coeff: float | None = None  # scale factor for "scaled"

    def __post_init__(self):
        if self.kind not in ("newton", "quasi", "picard", "jacobi", "scaled"):
            raise ContractError(f"unknown solver method {self.kind!r}")
        if self.kind == "scaled":
            require_real("the scaled method's coefficient", self.coeff)
            if not np.isfinite(self.coeff):
                raise ContractError("scaled-identity method needs a finite coefficient")
        elif self.coeff is not None:
            raise ContractError(f"method {self.kind!r} takes no coefficient")

    @staticmethod
    def parse(text: str) -> "SolverMethod":
        """Parse "newton", "quasi", ..., or "scaled:<a>"."""
        kind, sep, arg = text.partition(":")
        if sep and kind != "scaled":
            raise ContractError(f"only the scaled method takes an argument, got {text!r}")
        return SolverMethod(kind, _parse_number(arg, text)) if sep else SolverMethod(kind)


def _parse_number(arg: str, text: str) -> float:
    try:
        return float(arg)
    except ValueError:
        raise ContractError(f"in {text!r}, {arg!r} is not a number") from None


NEWTON = SolverMethod("newton")
QUASI_DIAGONAL = SolverMethod("quasi")
PICARD = SolverMethod("picard")
JACOBI = SolverMethod("jacobi")


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
        for name in ("k", "lo", "hi"):
            require_real(f"damping {name}", getattr(self, name))
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
        """Parse "none", "scale:<k>", "clip" (lo, hi = -1, 1) or "clip:<lo>:<hi>"."""
        kind, *args = text.split(":")
        if len(args) not in {"none": (0,), "scale": (1,), "clip": (0, 2)}.get(kind, ()):
            raise ContractError(f"cannot parse damping {text!r}: expected none, "
                                "scale:<k>, clip or clip:<lo>:<hi>")
        return getattr(Damping, kind)(*(_parse_number(arg, text) for arg in args))


NO_DAMPING = Damping()


@dataclass
class SolverConfig:
    """Knobs shared by every fixed-point style solver.

    ``tol`` applies to the successive-iterate infinity norm by default;
    setting ``metric="merit"`` instead stops when merit/T <= tol, which
    registers one-step-exact solves as a single iteration. ``max_iters``
    defaults to the horizon T, making the worst-case global-convergence
    guarantee the stopping point rather than a failure mode; ``kalman_solve``
    sets its own default.
    """

    tol: float = 1e-4
    max_iters: int | None = None
    init: str = "jacobi"  # "jacobi" | "zeros" | "normal"
    seed: int = 0
    damping: Damping = field(default_factory=Damping)
    record_history: bool = True
    record_iterates: bool = False
    metric: str = "diff"  # "diff" | "merit"

    def __post_init__(self):
        require_positive("tolerance", self.tol)
        if self.max_iters is not None:
            require_int("max_iters", self.max_iters, 1)
        require_int("seed", self.seed, 0)
        if self.init not in ("jacobi", "zeros", "normal"):
            raise ContractError(f"unknown init {self.init!r}")
        if self.metric not in ("diff", "merit"):
            raise ContractError(f"unknown metric {self.metric!r}")
        if not isinstance(self.damping, Damping):
            raise ContractError(f"damping must be a Damping, got {self.damping!r}")
        for flag in ("record_history", "record_iterates"):
            if not isinstance(getattr(self, flag), bool):
                raise ContractError(f"{flag} must be true or false, got {getattr(self, flag)!r}")


@dataclass
class SolveReport:
    """Outcome of one solve: the iterate, counters, and optional histories.

    ``resets`` counts the passes that zeroed non-finite entries before they
    ran. ``guard_rows`` counts the rows the overflow guard linearized at 0
    (f not finite, or a predecessor entry past ``OVERFLOW_GUARD`` or NaN),
    summed over passes; a row whose transition alone was taken at 0 is not
    among them.
    """

    trajectory: Trajectory
    converged: bool
    iterations: int
    merit_history: list
    diff_history: list
    resets: int
    guard_rows: int
    elapsed: float
    # the last pass's successive difference, recorded or not; it can be above
    # tol when the pass that froze every row stopped the solve
    final_diff: float
    iterates: list | None = None
    front_history: list = field(default_factory=list)  # the frozen front after each pass


OVERFLOW_GUARD = 1e100  # iterate entries beyond this are treated as overflowed

# The frozen prefix grows in whole blocks of this many rows. numpy keeps freed
# arrays under 1 KiB in caches keyed by exact byte size and never returns them,
# so a front moving one row per pass would strand per-row arrays (n-byte masks)
# at every length from T down: about 3 MB more peak memory at T=1000.
FRONT_BLOCK = 16


def front_tolerance(cfg: SolverConfig) -> float:
    """eps_front: the largest row residual max_i |r_t,i| that freezes a row.

    A millionth of the scale the stop reads: of ``tol`` itself under the
    difference metric, and of sqrt(2 tol), the size of an entry whose square
    alone meets merit/T <= tol, under the merit metric.
    """
    return 1e-6 * (np.sqrt(2.0 * cfg.tol) if cfg.metric == "merit" else cfg.tol)


def check_damping(method: SolverMethod, damping: Damping):
    """Clip damping clips diagonal entries, so only the quasi method takes it."""
    if damping.kind == "clip" and method.kind != "quasi":
        raise ContractError("clip damping is defined for diagonal transitions only")


def _method_transitions(sys, ts, prev, method: SolverMethod, damping: Damping):
    """Stacked transition lane and array for the given method and damping.

    Picard, Jacobi and ``scaled:<a>`` all scan a scaled identity, a = 1, 0 or
    the coefficient, times the damping scale: the zero map when a = 0, the
    prefix sum when a = 1, and otherwise the constant diagonal a 1, all
    under the caller's numpy error state."""
    check_damping(method, damping)
    scale = 1.0 - damping.k if damping.kind == "scale" else 1.0
    if method.kind == "newton":
        A = sys.jacobian_batch(ts, prev)
        return (DENSE, A if scale == 1.0 else scale * A)
    if method.kind == "quasi":
        d = sys.diag_jacobian_batch(ts, prev)
        if scale != 1.0:
            d = scale * d
        if damping.kind == "clip":
            d = np.clip(d, damping.lo, damping.hi)
        return (DIAGONAL, d)
    a = {"picard": 1.0, "jacobi": 0.0}.get(method.kind, method.coeff) * scale
    if a == 0.0:
        return (ZERO, None)
    if a == 1.0:
        return (IDENTITY, None)
    return (DIAGONAL, np.full(prev.shape, a))


class ResetTable:
    """f_t at the reset value 0 for t = 1..T, and the rows linearized there.

    ``step_batch`` is a pure function of each row's (t, s), so f_t(0) is a
    constant of the solve. ``values`` is given when the caller already holds
    it (the Jacobi guess is f_t(0) on every row); otherwise the first call to
    ``take`` fills it with one evaluation of all T rows, and a table never
    asked is never filled. ``rows`` sums the flagged rows over the calls.
    """

    def __init__(self, sys: DynamicsSystem, values: np.ndarray | None = None):
        self.sys = sys
        self.values = values
        self.rows = 0

    def take(self, ts, flagged: np.ndarray) -> np.ndarray:
        """f_t(0) at steps ``ts``, counting the rows ``flagged`` marks."""
        self.rows += int(np.count_nonzero(flagged))
        if self.values is None:
            self.values = jacobi_init(self.sys).states
        # the gather rule of the models module: take, not a fancy index
        return self.values.take(np.asarray(ts) - 1, axis=0)


def _linearize_stacked(sys, states_prev, ts, method, damping, fvals=None, reset=None):
    """(lane, A, b) with op_t = (A_t, f_t(s_{t-1}) - A_t s_{t-1}).

    ``fvals``, when given, holds f_t(s_{t-1}) at these rows already, and is
    read but never written. A row whose f is not finite, or whose predecessor
    has an entry past the overflow guard or NaN, is linearized at the reset
    value 0 instead, so the operators are the method transition at a point
    the dynamics can evaluate; f there comes from ``reset``, the solve's
    ``ResetTable``, or, when none is given, from a fresh table, which
    evaluates all T rows at 0. A row whose transition alone is not finite
    takes that transition at 0. Each check reads its verdict and its rows
    from one elementwise mask. Runs under the caller's numpy error state.
    """
    prev = np.asarray(states_prev, dtype=np.float64)
    fvals = sys.step_batch(ts, prev) if fvals is None else fvals
    usable = np.isfinite(fvals) & (np.abs(prev) <= OVERFLOW_GUARD)  # False at NaN
    if not usable.all():
        # reduced along the rows of its transpose, the mask is ANDed
        # elementwise, several times faster than along each short row
        bad = ~usable.T.copy().all(axis=0)[:, None]
        f_zero = (ResetTable(sys) if reset is None else reset).take(ts, bad)
        prev = np.where(bad, 0.0, prev)
        fvals = np.where(bad, f_zero, fvals)
    lane, A = _method_transitions(sys, ts, prev, method, damping)
    if A is not None and not (finite := np.isfinite(A).reshape(len(ts), -1)).all():
        abad = ~finite.all(axis=1)
        zeros = np.zeros((int(abad.sum()), prev.shape[1]))
        A = A.copy()  # A may be the system's own array, which the library never writes
        A[abad] = _method_transitions(sys, np.asarray(ts)[abad], zeros, method, damping)[1]
    # zero transitions: the update is a pure map, with nothing to subtract
    b = fvals if lane == ZERO else fvals - lane_apply(lane, A, prev)
    return lane, A, b


def linearize(sys: DynamicsSystem, traj: Trajectory, method: SolverMethod,
              damping: Damping = NO_DAMPING):
    """Per-step affine surrogates of the dynamics about ``traj``.

    Returns T AffineOps with op_t = (A~_t, f_t(s_{t-1}) - A~_t s_{t-1}), where
    A~_t is the method's transition at s_{t-1}. Scale damping multiplies A~_t
    by (1 - k); clip damping clips diagonal entries into [lo, hi] and is
    rejected for non-diagonal methods. A row whose predecessor has an entry
    past ``OVERFLOW_GUARD`` or NaN, or whose f is not finite, is linearized at
    the reset value 0. Newton's A~_t is Dense and quasi-Newton's Diagonal;
    Picard, Jacobi and ``scaled:<a>`` give the ScaledIdentity of their
    coefficient a, as Zero when a = 0 and as Identity when a = 1. Holds one numpy error state.
    """
    with np.errstate(all="ignore"):
        sys._check_traj(traj)
        ts = np.arange(1, sys.horizon + 1)
        lane, A, b = _linearize_stacked(sys, traj.prev_states(), ts, method, damping)
        kind = SCALED if lane == DIAGONAL and method.kind != "quasi" else lane
        rows = [None] * sys.horizon if A is None else A
        return [AffineOp(row_transition(kind, a), b_t) for a, b_t in zip(rows, b)]


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

    One (T+1) x D array holds s_0 in row 0 and the iterate s_1..s_T in rows
    1..T. Each pass calls ``chunk_step(window, ts, fvals, reset) -> new rows``
    with ``window`` = rows front..T and ``ts`` = steps front+1..T:
    ``window[0]`` is the fixed left boundary, ``window[:-1]`` the predecessors
    and ``window[1:]`` the rows to update, which the chunk step does not
    write. ``fvals`` holds f_t(s_{t-1}) at those rows, or None when the chunk
    step must evaluate f. ``reset`` is the solve's one ``ResetTable``: the
    overflow guard reads f_t(0) from it, and its row count becomes
    ``guard_rows``.

    The causal front is the number of leading rows whose residual
    max_i |s_t,i - f_t(s_{t-1})_i| is at most eps_front (``front_tolerance``);
    a NaN or infinite residual never is. The loop freezes the front rounded
    down to whole blocks of ``FRONT_BLOCK`` rows (all T rows once every one is
    within eps_front). A frozen row and its predecessor never change again, so
    neither does its residual. With eps_front = 0 the frozen rows are those
    that solve the recurrence exactly, which in exact arithmetic every pass
    extends by at least one row; the tolerance front advances at least as fast.

    After the new rows are written, f is evaluated once, on ``window[:-1]``,
    giving the new front, the next pass's ``fvals`` and the merit. A row's
    merit is added to a running ``frozen_merit`` once, when it freezes, so each
    pass's merit, that sum plus the merit of the rows past the front, is the
    whole trajectory's. Frozen rows report a difference of 0. Non-finite
    entries past the front are reset to 0 before a pass (one reset event per
    pass where that happens), and that pass's chunk step evaluates f afresh.
    Only the first pass, and a pass after one whose merit came back +inf,
    look for them: a finite merit makes every residual finite, so every row
    it covers, and the next pass works on some of those rows.

    The loop stops as converged when the stopping metric is met, when a pass
    freezes all T rows (the trajectory is then final), or when a pass comes
    back bitwise unchanged (successive difference exactly zero): the iteration
    map is deterministic, so nothing can change on a later pass. Chaotic
    chains can floor the merit above any tolerance while still being exact
    fixed points of the float map; this handles them soundly.
    """
    T = sys.horizon
    max_iters = cfg.max_iters or T
    eps_front = front_tolerance(cfg)
    ts = np.arange(1, T + 1)
    guess = initial_guess(sys, cfg)
    path = np.vstack([as_state(sys.initial_state, sys.dim), guess])
    front = 0           # frozen prefix: leading rows with residual within eps_front
    frozen_merit = 0.0  # merit of the frozen rows
    fvals = None  # f_t(s_{t-1}) on rows front+1 .. T of the current iterate
    reset = ResetTable(sys, guess if cfg.init == "jacobi" else None)
    resets = 0
    scan = True  # whether the active rows may hold a non-finite entry
    merit_hist: list = []
    diff_hist: list = []
    front_hist: list = []
    iterates: list = [] if cfg.record_iterates else None
    converged = False
    iters = 0
    start = time.perf_counter()
    with np.errstate(all="ignore"):  # once per solve: the passes overflow by design
        while iters < max_iters:
            window = path[front:]
            active = window[1:]
            if scan:
                bad = ~np.isfinite(active)
                if bad.any():
                    active[bad] = 0.0
                    resets += 1
                    fvals = None
            iters += 1
            new_rows = chunk_step(window, ts[front:], fvals, reset)
            diff = max_abs_diff(new_rows, active)
            active[:] = new_rows
            fvals = sys.step_batch(ts[front:], window[:-1])
            r = active - fvals
            settled, active_merit = exact_rows_and_merit(r, eps_front)
            # a finite merit needs every r = active - f finite, so every
            # active entry, and the next pass's rows are a part of these
            scan = active_merit == np.inf
            current_merit = frozen_merit + active_merit
            settled += front  # rows within eps_front from the front on extend it
            new_front = T if settled == T else settled // FRONT_BLOCK * FRONT_BLOCK
            if new_front > front:
                frozen = r[:new_front - front].ravel()
                frozen_merit += 0.5 * float(np.dot(frozen, frozen))
                fvals = fvals[new_front - front:]
                front = new_front
            if cfg.record_history:
                diff_hist.append(diff)
                merit_hist.append(current_merit)
                front_hist.append(front)
            if iterates is not None:
                iterates.append(path[1:].copy())
            measured = current_merit / T if cfg.metric == "merit" else diff
            if measured <= cfg.tol or diff == 0.0 or front == T:
                converged = True
                break
    elapsed = time.perf_counter() - start
    return SolveReport(
        trajectory=Trajectory(sys.initial_state, path[1:]),
        converged=converged,
        iterations=iters,
        merit_history=merit_hist,
        diff_history=diff_hist,
        resets=resets,
        guard_rows=reset.rows,
        elapsed=elapsed,
        final_diff=diff,
        iterates=iterates,
        front_history=front_hist,
    )


def fixed_point_solve(sys: DynamicsSystem, cfg: SolverConfig,
                      method: SolverMethod) -> SolveReport:
    """Iterate linearize -> evaluate-LDS until the stopping metric is met.

    Each iteration has O(log T) scan depth; convergence is guaranteed within
    T iterations regardless of the initial guess or transition choice.
    """

    def chunk_step(window, ts, fvals, reset):
        lane, A, b = _linearize_stacked(sys, window[:-1], ts, method, cfg.damping, fvals, reset)
        return evaluate_stacked(lane, A, b, window[0])

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
