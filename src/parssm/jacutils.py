"""Jacobian access when analytic forms are absent.

One central-difference kernel serves the finite-difference Jacobians and the
default ``DynamicsSystem.jvp_batch``; one Hutchinson core (Rademacher probes,
one JVP per probe through ``jvp_batch``) serves the stochastic diagonal
estimates. The ``_batch`` forms return overflowed rows as non-finite values
for the solvers' reset heuristic; the single-row public forms raise instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import ContractError, NumericalFailure


def _central_diff(sys, ts: np.ndarray, S: np.ndarray, V: np.ndarray,
                  hs: np.ndarray | None = None) -> np.ndarray:
    """(f_t(s + h v) - f_t(s - h v)) / 2h along k tangents per row.

    S is (n, D) and V broadcasts to (n, k, D); the 2 n k perturbed states go
    through two ``step_batch`` calls. ``hs`` holds one step per row and
    defaults to h = 1e-6 (1 + ||s||_inf) / max(||v||_inf, 1) over the row's
    tangents. Non-finite results are returned, not raised.
    """
    n, d = S.shape
    k = V.shape[-2]
    if hs is None:
        hs = 1e-6 * (1.0 + np.max(np.abs(S), axis=1)) / np.abs(V).max(axis=(1, 2), initial=1.0)
    h = hs[:, None, None]
    ts_rep = np.repeat(np.asarray(ts), k)
    with np.errstate(all="ignore"):
        delta = h * V
        fp = sys.step_batch(ts_rep, (S[:, None, :] + delta).reshape(n * k, d))
        fm = sys.step_batch(ts_rep, (S[:, None, :] - delta).reshape(n * k, d))
        return (fp - fm).reshape(n, k, d) / (2.0 * h)


def jvp(sys, t: int, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A_t(s) v through the system's ``jvp_batch`` (central difference by default)."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (sys.dim,):
        raise ContractError(f"jvp vector has shape {v.shape}, expected ({sys.dim},)")
    out = np.asarray(sys.jvp(t, s, v), dtype=np.float64)
    if not np.all(np.isfinite(out)):
        raise NumericalFailure("non-finite jvp evaluation", t=t)
    return out


def fd_jacobian(sys, t: int, s: np.ndarray, h: float | None = None) -> np.ndarray:
    """Dense Jacobian by central differences, one column per basis vector."""
    s = np.asarray(s, dtype=np.float64)
    jac = fd_jacobian_batch(sys, np.array([t]), s[None, :], h)[0]
    if not np.all(np.isfinite(jac)):
        raise NumericalFailure("non-finite finite-difference Jacobian", t=t)
    return jac


def fd_jacobian_batch(sys, ts: np.ndarray, S: np.ndarray, h: float | None = None) -> np.ndarray:
    """Non-strict central-difference Jacobians for a batch of (t, s) pairs.

    Routes all 2 n D perturbed evaluations through ``step_batch`` so systems
    with vectorized dynamics pay one batched pass instead of n D loop steps.
    """
    if h is not None and h <= 0:
        raise ContractError("finite-difference step h must be positive")
    S = np.asarray(S, dtype=np.float64)
    n, d = S.shape
    if h is None:
        hs = 1e-6 * (1.0 + np.max(np.abs(S), axis=1))  # unit basis probes: ||v||_inf = 1
    else:
        hs = np.full(n, float(h))
    # axis 1 of the differences indexes the perturbed coordinate, i.e. the Jacobian column
    return np.swapaxes(_central_diff(sys, ts, S, np.eye(d)[None, :, :], hs), 1, 2)


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
def _probe_table(seed_base, n: int, d: int, tmax: int) -> np.ndarray:
    """(tmax, n, d) probes, row t-1 from default_rng((seed_base, t)); shared, so read-only."""
    table = np.stack([_rademacher(np.random.default_rng((seed_base, t)), n, d)
                      for t in range(1, tmax + 1)])
    table.flags.writeable = False
    return table


def _hutchinson(sys, ts: np.ndarray, S: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Mean over the (m, k, D) probes of v * (A_t v), one ``jvp_batch`` call for all m k."""
    m, k, d = probes.shape
    with np.errstate(all="ignore"):
        jvps = sys.jvp_batch(np.repeat(np.asarray(ts), k), np.repeat(S, k, axis=0),
                             probes.reshape(m * k, d))
        return np.mean(probes * np.asarray(jvps).reshape(m, k, d), axis=1)


def hutchinson_diag(sys, t: int, s: np.ndarray, n: int = 1, seed=0,
                    probes: np.ndarray | None = None) -> DiagEstimate:
    """Unbiased diagonal estimate: mean over n Rademacher probes of v * (A_t v).

    Exact whenever A_t is diagonal, for any n and any probes. ``probes`` may
    supply an explicit (n, D) matrix of +-1 vectors, overriding sampling;
    otherwise probes are drawn from ``numpy.random.default_rng(seed)``.
    """
    if n < 1:
        raise ContractError("hutchinson_diag needs n >= 1")
    s = np.asarray(s, dtype=np.float64)
    d = s.shape[0]
    if probes is None:
        probes = _rademacher(np.random.default_rng(seed), n, d)
    else:
        probes = np.asarray(probes, dtype=np.float64)
        if probes.shape != (n, d):
            raise ContractError(f"probes must have shape ({n}, {d})")
    values = _hutchinson(sys, np.array([t]), s[None, :], probes[None, :, :])[0]
    return DiagEstimate(values, samples=n, seed=seed)


def hutchinson_diag_batch(sys, ts: np.ndarray, S: np.ndarray, n: int = 1,
                          seed_base=0) -> np.ndarray:
    """Non-strict Hutchinson estimates for a batch of (t, s) pairs.

    Probes for row t are drawn from default_rng((seed_base, t)), so row t
    equals ``hutchinson_diag(..., seed=(seed_base, t))``. They are drawn once,
    as one table over t = 1 .. max(horizon, max ts) per (seed_base, n, d),
    and every later call gathers its rows from it. Used by the default
    ``diag_jacobian_batch``.
    """
    ts = np.asarray(ts)
    S = np.asarray(S, dtype=np.float64)
    n, d = max(1, n), S.shape[1]
    tmax = max(sys.horizon, int(ts.max(initial=0)))
    return _hutchinson(sys, ts, S, _probe_table(seed_base, n, d, tmax)[ts - 1])
