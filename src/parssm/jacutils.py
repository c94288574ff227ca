"""Jacobian access when analytic forms are absent.

One central-difference kernel, the only home of the step rule, serves the
finite-difference Jacobians and the default ``DynamicsSystem.jvp_batch``; one
Hutchinson core (Rademacher probes, one JVP per probe through ``jvp_batch``)
serves the stochastic diagonal estimates. Both are a system's defaults and
set no numpy error state. Under the caller's error state the ``_batch`` forms
return overflowed rows as non-finite values for the solvers' reset
heuristic; the single-row ``hutchinson_diag`` holds one state and raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import ContractError, NumericalFailure, require_int


def _central_diff(sys, ts: np.ndarray, S: np.ndarray, V: np.ndarray) -> np.ndarray:
    """(f_t(s + h v) - f_t(s - h v)) / 2h along k tangents per row.

    S is (n, D) and V broadcasts to (n, k, D); the 2 n k perturbed states go
    through one ``step_batch`` call, the +h rows first. Each row takes the
    step h = 1e-6 (1 + ||s||_inf) / max(||v||_inf, 1) over its tangents.
    Under a solve's error state, non-finite results are returned, not raised.
    """
    n, d = S.shape
    k = V.shape[-2]
    hs = 1e-6 * (1.0 + np.max(np.abs(S), axis=1)) / np.abs(V).max(axis=(1, 2), initial=1.0)
    h = hs[:, None, None]
    ts_rep = np.tile(np.repeat(np.asarray(ts), k), 2)
    delta = h * V
    both = np.stack([S[:, None, :] + delta, S[:, None, :] - delta]).reshape(2 * n * k, d)
    fp, fm = sys.step_batch(ts_rep, both).reshape(2, n, k, d)
    return (fp - fm) / (2.0 * h)


def fd_jacobian_batch(sys, ts: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Non-strict central-difference Jacobians for a batch of (t, s) pairs.

    The D unit tangents of ``_central_diff`` give the columns, so the step is
    h = 1e-6 (1 + ||s||_inf), and all 2 n D perturbed evaluations go through
    one ``step_batch`` call instead of n D loop steps.
    """
    S = np.asarray(S, dtype=np.float64)
    # axis 1 of the differences indexes the perturbed coordinate, i.e. the Jacobian column
    return np.swapaxes(_central_diff(sys, ts, S, np.eye(S.shape[1])[None, :, :]), 1, 2)


@dataclass
class DiagEstimate:
    """A stochastic estimate of diag(A_t) with its sampling provenance."""

    values: np.ndarray
    samples: int
    seed: object

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.samples < 1:
            raise ContractError("DiagEstimate needs samples >= 1")
        if not np.all(np.isfinite(self.values)):
            raise NumericalFailure("non-finite diagonal estimate")


def _rademacher(rng, n, d):
    return rng.integers(0, 2, size=(n, d)).astype(np.float64) * 2.0 - 1.0


@lru_cache(maxsize=16)
def _probe_table(d: int, tmax: int) -> np.ndarray:
    """(tmax, 1, d) probes, row t-1 from default_rng((0, t)); shared, so read-only."""
    table = np.stack([_rademacher(np.random.default_rng((0, t)), 1, d)
                      for t in range(1, tmax + 1)])
    table.flags.writeable = False
    return table


def _hutchinson(sys, ts: np.ndarray, S: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Mean over the (m, k, D) probes of v * (A_t v), one ``jvp_batch`` call for all m k."""
    m, k, d = probes.shape
    jvps = sys.jvp_batch(np.repeat(np.asarray(ts), k), np.repeat(S, k, axis=0),
                         probes.reshape(m * k, d))
    return np.mean(probes * np.asarray(jvps).reshape(m, k, d), axis=1)


def hutchinson_diag(sys, t: int, s: np.ndarray, n: int = 1, seed=0) -> DiagEstimate:
    """Unbiased diagonal estimate: mean over n Rademacher probes of v * (A_t v).

    Exact whenever A_t is diagonal, for any n and any seed. Holds one numpy
    error state. The probes are drawn from ``numpy.random.default_rng(seed)``.
    The step t is an integer from 1 to the horizon T.
    """
    require_int("n", n, 1)
    sys._check_step(t)
    s = np.asarray(s, dtype=np.float64)
    probes = _rademacher(np.random.default_rng(seed), n, s.shape[0])
    with np.errstate(all="ignore"):
        values = _hutchinson(sys, np.array([t]), s[None, :], probes[None, :, :])[0]
    return DiagEstimate(values, samples=n, seed=seed)


def hutchinson_diag_batch(sys, ts: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Non-strict one-probe Hutchinson estimates for a batch of (t, s) pairs.

    The probe for row t is drawn from default_rng((0, t)), so row t equals
    ``hutchinson_diag(..., n=1, seed=(0, t))``. The probes are drawn once, as
    one table over t = 1 .. T per state size and horizon, and every later
    call gathers its rows from it. Used by the default ``diag_jacobian_batch``.
    """
    ts = np.asarray(ts)
    S = np.asarray(S, dtype=np.float64)
    return _hutchinson(sys, ts, S, _probe_table(S.shape[1], sys.horizon).take(ts - 1, axis=0))
