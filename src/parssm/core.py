"""Core types for nonlinear state space models and the sequential oracle.

A system evolves as s_{t+1} = f_t(s_t) from a fixed, known initial state s_0.
Everything downstream (parallel solvers, diagnostics) is validated against
``rollout_sequential``, the plain left-to-right evaluation implemented here.
"""

from __future__ import annotations

import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np


class ContractError(ValueError):
    """An interface contract was violated (shape, range, or mode)."""


class NumericalFailure(RuntimeError):
    """A numerical invariant broke down mid-computation.

    Carries the time index at which the failure was detected, when known.
    """

    def __init__(self, message: str, t: int | None = None):
        if t is not None:
            message = f"{message} (at time index t={t})"
        super().__init__(message)
        self.t = t


def require_real(name: str, value) -> None:
    """Raise ContractError unless ``value`` is a real number (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ContractError(f"{name} must be a real number, got {value!r}")


def require_int(name: str, value, least: int) -> None:
    """Raise ContractError unless ``value`` is an integer >= ``least`` (a bool is not)."""
    require_real(name, value)
    if not isinstance(value, numbers.Integral) or value < least:
        raise ContractError(f"{name} must be an integer >= {least}, got {value!r}")


def require_finite(name: str, value) -> None:
    """Raise ContractError unless ``value`` is a finite real number (a bool is not)."""
    require_real(name, value)
    if not np.isfinite(value):
        raise ContractError(f"{name} must be finite, got {value!r}")


def require_positive(name: str, value) -> None:
    """Raise ContractError unless ``value`` is a positive, finite real (a bool is not)."""
    require_real(name, value)
    if not 0 < value < np.inf:
        raise ContractError(f"{name} must be positive and finite, got {value!r}")


def as_state(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x``, integers or floats, to a float64 state vector, optionally
    checking its length; a bool, string or other non-numeric entry is refused."""
    s = np.asarray(x)
    if s.dtype.kind not in "iuf":
        raise ContractError(f"state vector must hold integers or floats, got dtype {s.dtype}")
    s = s.astype(np.float64, copy=False)
    if s.ndim != 1:
        raise ContractError(f"state vector must be 1-D, got shape {s.shape}")
    if dim is not None and s.shape[0] != dim:
        raise ContractError(f"state vector has length {s.shape[0]}, expected {dim}")
    return s


@dataclass
class Trajectory:
    """A full state sequence s_{1:T} together with the fixed initial state s_0.

    ``states`` is a T x D matrix, row t-1 holding s_t. Finiteness of the rows
    is deliberately NOT an invariant: intermediate solver iterates may
    overflow, and the reset heuristic relies on detecting that.
    """

    initial: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        self.initial = as_state(self.initial)
        self.states = np.asarray(self.states, dtype=np.float64)
        if not np.all(np.isfinite(self.initial)):
            raise ContractError("initial state must be finite")
        if self.states.ndim != 2:
            raise ContractError(f"states must be a T x D matrix, got shape {self.states.shape}")
        if self.states.shape[0] < 1:
            raise ContractError("trajectory needs horizon T >= 1")
        if self.states.shape[1] != self.initial.shape[0]:
            raise ContractError(
                f"state size mismatch: rows have D={self.states.shape[1]}, "
                f"initial has D={self.initial.shape[0]}"
            )

    @property
    def horizon(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def prev_states(self) -> np.ndarray:
        """Predecessor matrix: row t-1 holds s_{t-1} (row 0 is s_0)."""
        return np.vstack([self.initial[None, :], self.states[:-1]])


class DynamicsSystem(ABC):
    """Interface for a discrete-time system s_{t+1} = f_t(s_t), t = 1..T.

    Batch-first: a row i of a batch pairs the 1-based time index ts[i] with
    the state S[i], and every method is a pure, deterministic function of
    those pairs. Any stochastic ingredient (noise, data, weights) is drawn
    once at construction from an explicit 64-bit seed and curried into the
    per-step maps. ``step(1, s0)`` produces s_1.

    A subclass sets ``dim``, ``horizon`` and ``initial_state`` itself and
    implements ``step_batch``; the library's own systems set their sizes
    through ``_set_sizes``, which refuses any but integers >= 1.
    ``jacobian_batch`` defaults to finite differences,
    ``diag_jacobian_batch`` to a one-probe Hutchinson estimate seeded
    ``(0, t)`` for row t, and ``jvp_batch`` to a finite difference;
    override any of them with analytic forms. The single-row ``step``,
    ``jacobian``, ``diag_jacobian`` and ``jvp`` are the batch forms applied
    to one row, so both paths share one code path.

    Each of the three takes an optional keyword ``F``: f_t at exactly the
    rows of S, which a solver pass already holds and passes on. The defaults
    then take forward differences at half the f rows; called without it they
    stay central, the oracle the single-row forms and the diagnostics use.
    An override must accept ``F`` and may ignore it.

    A step index lies in 1..T and a state has length D: the single-row forms
    check both, and the batch forms, on every solver pass, check neither. A
    trajectory handed to any library entry point must have the system's T, D
    and initial state s_0: ``_check_traj`` refuses any other with
    ContractError and hands out its batch of steps and predecessors. A
    system may return read-only, shared or cached arrays; the library never
    writes an array a system returned. A model keeps only what its step reads.

    A system's methods, the zoo's and the finite-difference and Hutchinson
    defaults alike, set no numpy error state: they run under their caller's.
    Every library call into a system holds one that ignores every error.
    """

    dim: int
    horizon: int
    initial_state: np.ndarray

    @abstractmethod
    def step_batch(self, ts: np.ndarray, S: np.ndarray) -> np.ndarray:
        """Apply f_{ts[i]} to each row S[i] of an (n, D) batch."""

    def jacobian_batch(self, ts: np.ndarray, S: np.ndarray, F=None) -> np.ndarray:
        """(n, D, D) Jacobians of f_t at each row; ``F`` is f_t at the rows, or None."""
        from . import jacutils

        return jacutils.fd_jacobian_batch(self, np.asarray(ts), np.asarray(S), F=F)

    def diag_jacobian_batch(self, ts: np.ndarray, S: np.ndarray, F=None) -> np.ndarray:
        """(n, D) Jacobian diagonals of f_t at each row; ``F`` is f_t at the rows, or None."""
        from . import jacutils

        return jacutils.hutchinson_diag_batch(self, np.asarray(ts), np.asarray(S), F=F)

    def jvp_batch(self, ts: np.ndarray, S: np.ndarray, V: np.ndarray, F=None) -> np.ndarray:
        """(n, D) Jacobian-vector products A_t(S[i]) V[i]; ``F`` is f_t at the rows, or None."""
        from . import jacutils

        V = np.asarray(V, dtype=np.float64)
        return jacutils._diff(self, ts, np.asarray(S, dtype=np.float64), V[:, None, :], F)[:, 0]

    def _set_sizes(self, dim, horizon):
        require_int("state size dim", dim, 1)
        require_int("horizon T", horizon, 1)
        self.dim, self.horizon = int(dim), int(horizon)

    def _check_step(self, t):
        """Raise ContractError unless ``t`` is an integer step from 1 to the horizon T."""
        require_int("step t", t, 1)
        if t > self.horizon:
            raise ContractError(f"step t must be at most the horizon T={self.horizon}, got {t!r}")

    def _check_row(self, t, *vectors):
        """The one-row batches of step ``t`` and of ``vectors``; raise ContractError
        unless ``t`` is a step from 1 to T and each vector is a D-vector."""
        self._check_step(t)
        return (np.array([t]), *(as_state(v, self.dim)[None, :] for v in vectors))

    # -- single-row forms: the batch forms on one row, at a checked step and state

    def step(self, t: int, s: np.ndarray) -> np.ndarray:
        # _check_row's verdict for a Python int and a float64 D-vector, inline:
        # the rollout calls step T times
        if (type(t) is not int or not 0 < t <= self.horizon or type(s) is not np.ndarray
                or s.dtype is not _FLOAT64 or s.shape != (self.dim,)):
            return self.step_batch(*self._check_row(t, s))[0]
        return self.step_batch(np.array([t]), s[None, :])[0]

    def jacobian(self, t: int, s: np.ndarray) -> np.ndarray:
        return self.jacobian_batch(*self._check_row(t, s))[0]

    def diag_jacobian(self, t: int, s: np.ndarray) -> np.ndarray:
        return self.diag_jacobian_batch(*self._check_row(t, s))[0]

    def jvp(self, t: int, s: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.jvp_batch(*self._check_row(t, s, v))[0]

    def _check_traj(self, traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
        """Steps 1..T and predecessors s_0..s_{T-1} of ``traj``; raise ContractError
        unless it has the system's T, D and initial state s_0."""
        if traj.dim != self.dim or traj.horizon != self.horizon:
            raise ContractError(
                f"trajectory shape (T={traj.horizon}, D={traj.dim}) does not match "
                f"system (T={self.horizon}, D={self.dim})"
            )
        if not np.array_equal(traj.initial, self.initial_state):
            raise ContractError("trajectory's initial state is not the system's s_0")
        return np.arange(1, self.horizon + 1), traj.prev_states()


def rollout_sequential(sys: DynamicsSystem) -> Trajectory:
    """Evaluate s_{1:T} left to right. This is the ground-truth oracle s*.

    Non-finite states are propagated, not masked: a diverging system reports
    its divergence through the returned rows, under one numpy error state.
    """
    states = np.empty((sys.horizon, sys.dim))
    s = as_state(sys.initial_state, sys.dim)
    with np.errstate(all="ignore"):
        for t in range(1, sys.horizon + 1):
            s = sys.step(t, s)
            states[t - 1] = s
    return Trajectory(sys.initial_state, states)


def residual(sys: DynamicsSystem, traj: Trajectory) -> np.ndarray:
    """One-step prediction error r_t = s_t - f_t(s_{t-1}) as a T x D matrix."""
    ts, prev = sys._check_traj(traj)
    with np.errstate(all="ignore"):
        pred = sys.step_batch(ts, prev)
        return traj.states - pred


def merit(sys: DynamicsSystem, traj: Trajectory) -> float:
    """Half the squared Frobenius norm of the residual; +inf if non-finite.

    Zero exactly where each row equals ``step_batch`` of its predecessor; the
    ``step`` rollout reads ~1e-31 where gemv rounds apart from gemm (GRU, RNN).
    Holds one numpy error state, so an overflowing residual reads +inf quietly.
    """
    with np.errstate(all="ignore"):
        return exact_rows_and_merit(residual(sys, traj))[1]


_FLOAT_MAX = float(np.finfo(np.float64).max)
_FLOAT64 = np.dtype(np.float64)


def exact_rows_and_merit(r: np.ndarray, eps: float = 0.0) -> tuple[int, float]:
    """(k, m) for a residual block r: the k leading rows have max_i |r_t,i| at
    most ``eps``, and m is half the squared Frobenius norm, summed from the
    first row with a nonzero entry on. A NaN or infinite entry is never within
    ``eps``, so k stops at its row. With eps = 0 the k rows are exactly zero.

    Skipping the zero rows makes m bitwise independent of how many of them
    precede the rest, so a block's merit equals the merit of any longer block
    that extends it by exact rows. m is +inf when an entry is non-finite or
    the sum of squares overflows.

    One flat ``argmax`` finds the first nonzero entry, and its row z starts
    the sum. Only when that entry is itself within ``eps`` does a second flat
    scan, from it on, find the first entry past ``eps``, whose row is k. The
    sum of squares is finite exactly when every entry is finite and nothing
    overflows, so the dot product itself is the finiteness test. Runs under
    the caller's numpy error state: ``solve_loop`` and ``merit`` each hold one.
    """
    d = r.shape[1]
    flat = r.ravel()
    moved = flat != 0.0
    first = int(np.argmax(moved)) if flat.size else 0
    z = k = first // d if flat.size and moved[first] else len(r)
    if k < len(r) and abs(flat[first]) <= eps:  # False at NaN
        within = np.abs(flat[first:]) <= min(eps, _FLOAT_MAX)  # False at NaN and +-inf
        past = int(np.argmin(within))
        k = (first + past) // d if not within[past] else len(r)
    flat = flat[z * d:]
    m = 0.5 * float(np.dot(flat, flat))
    return k, m if np.isfinite(m) else float("inf")


def max_abs_diff(a, b) -> float:
    """Infinity norm of the elementwise difference of two trajectories.

    The default convergence metric for successive solver iterates. Accepts
    Trajectory objects or raw T x D arrays of matching shape.
    """
    xa = a.states if isinstance(a, Trajectory) else np.asarray(a)
    xb = b.states if isinstance(b, Trajectory) else np.asarray(b)
    if xa.shape != xb.shape:
        raise ContractError(f"shape mismatch: {xa.shape} vs {xb.shape}")
    with np.errstate(invalid="ignore"):
        d = xa - xb
        m = float(np.abs(d, out=d).max(initial=0.0))  # NaN propagates through the max
    return float("inf") if np.isnan(m) else m
