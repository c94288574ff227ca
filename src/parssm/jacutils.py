"""Jacobian access when analytic forms are absent.

One difference kernel, ``_diff``, is the only home of the two step rules and
serves the finite-difference Jacobians and the default
``DynamicsSystem.jvp_batch``; one Hutchinson core (Rademacher probes, one JVP
per probe through ``jvp_batch``) serves the stochastic diagonal estimates.
Without ``F`` the kernel takes central differences, (f(s + h v) - f(s - h v))
/ 2h with h = 1e-6 (1 + ||s||_inf) / max(||v||_inf, 1); given ``F``, f_t at
exactly the rows of S, it takes forward differences, (f(s + h v) - F) / h
with h = sqrt(eps) (1 + ||s||_inf) / max(||v||_inf, 1), eps the float64
machine epsilon (Dennis & Schnabel 1983, 5.4), at half the f rows. The
solvers pass the f each pass already holds; every other caller leaves ``F``
out and gets the central oracle. Both are a system's defaults and set no
numpy error state. Under the caller's error state the ``_batch`` forms
return overflowed rows as non-finite values for the solvers' reset
heuristic; the single-row ``hutchinson_diag`` holds one state and raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import ContractError, NumericalFailure, require_int


def _diff(sys, ts: np.ndarray, S: np.ndarray, V: np.ndarray, F=None) -> np.ndarray:
    """A_t(s) v along k tangents per row, by central or, given ``F``, forward differences.

    S is (n, D), V broadcasts to (n, k, D) and ``F``, when given, is f_t at
    the n rows of S. Each row takes its step over its tangents by the rule of
    the module docstring. The perturbed states go through one ``step_batch``
    call: 2 n k of them, the +h rows first, without ``F``; n k with it.
    Under a solve's error state, non-finite results are returned, not raised.
    """
    n, d = S.shape
    k = V.shape[-2]
    rule = 1e-6 if F is None else 2.0 ** -26  # sqrt(eps), eps = 2**-52 for float64
    hs = rule * (1.0 + np.max(np.abs(S), axis=1)) / np.abs(V).max(axis=(1, 2), initial=1.0)
    h = hs[:, None, None]
    ts_rep = np.repeat(np.asarray(ts), k)
    delta = h * V
    if F is not None:
        fp = sys.step_batch(ts_rep, (S[:, None, :] + delta).reshape(n * k, d))
        return (fp.reshape(n, k, d) - np.asarray(F)[:, None, :]) / h
    both = np.stack([S[:, None, :] + delta, S[:, None, :] - delta]).reshape(2 * n * k, d)
    fp, fm = sys.step_batch(np.tile(ts_rep, 2), both).reshape(2, n, k, d)
    return (fp - fm) / (2.0 * h)


def fd_jacobian_batch(sys, ts: np.ndarray, S: np.ndarray, F=None) -> np.ndarray:
    """Non-strict finite-difference Jacobians for a batch of (t, s) pairs.

    The D unit tangents of ``_diff`` give the columns, and all perturbed
    evaluations go through one ``step_batch`` call instead of n D loop steps:
    2 n D central ones, or n D forward ones when ``F`` holds f_t at the rows.
    """
    S = np.asarray(S, dtype=np.float64)
    # axis 1 of the differences indexes the perturbed coordinate, i.e. the Jacobian column
    return np.swapaxes(_diff(sys, ts, S, np.eye(S.shape[1])[None, :, :], F), 1, 2)


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


def _hutchinson(sys, ts: np.ndarray, S: np.ndarray, probes: np.ndarray, F=None) -> np.ndarray:
    """Mean over the (m, k, D) probes of v * (A_t v), one ``jvp_batch`` call for all m k,
    forward when ``F`` holds f_t at the m rows."""
    m, k, d = probes.shape
    F = None if F is None else np.repeat(F, k, axis=0)
    jvps = sys.jvp_batch(np.repeat(np.asarray(ts), k), np.repeat(S, k, axis=0),
                         probes.reshape(m * k, d), F=F)
    return np.mean(probes * np.asarray(jvps).reshape(m, k, d), axis=1)


def hutchinson_diag(sys, t: int, s: np.ndarray, n: int = 1, seed=0) -> DiagEstimate:
    """Unbiased diagonal estimate: mean over n Rademacher probes of v * (A_t v).

    Exact whenever A_t is diagonal, for any n and any seed. Holds one numpy
    error state. The probes are drawn from ``numpy.random.default_rng(seed)``.
    The step t is an integer from 1 to the horizon T, and s a state of length D.
    """
    require_int("n", n, 1)
    ts, S = sys._check_row(t, s)
    probes = _rademacher(np.random.default_rng(seed), n, sys.dim)
    with np.errstate(all="ignore"):
        values = _hutchinson(sys, ts, S, probes[None, :, :])[0]
    return DiagEstimate(values, samples=n, seed=seed)


def hutchinson_diag_batch(sys, ts: np.ndarray, S: np.ndarray, F=None) -> np.ndarray:
    """Non-strict one-probe Hutchinson estimates for a batch of (t, s) pairs.

    The probe for row t is drawn from default_rng((0, t)), so row t equals
    ``hutchinson_diag(..., n=1, seed=(0, t))``. The probes are drawn once, as
    one table over t = 1 .. T per state size and horizon, and every later
    call gathers its rows from it. Used by the default ``diag_jacobian_batch``;
    given ``F``, f_t at the rows, each probe's JVP is a forward difference.
    """
    ts = np.asarray(ts)
    S = np.asarray(S, dtype=np.float64)
    return _hutchinson(sys, ts, S, _probe_table(S.shape[1], sys.horizon).take(ts - 1, axis=0), F)
