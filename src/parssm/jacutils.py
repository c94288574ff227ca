"""Jacobian access when analytic forms are absent.

Finite-difference oracle, Jacobian-vector products, and the Hutchinson
stochastic diagonal estimator (Rademacher probes, one JVP per probe).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import ContractError, NumericalFailure


def _fd_step(s: np.ndarray, v: np.ndarray) -> float:
    """Step size h = 1e-6 (1 + ||s||_inf) / max(||v||_inf, 1)."""
    s_norm = float(np.max(np.abs(s))) if s.size else 0.0
    v_norm = float(np.max(np.abs(v))) if v.size else 0.0
    return 1e-6 * (1.0 + s_norm) / max(v_norm, 1.0)


def fd_jvp(sys, t: int, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian-vector product (f(s + hv) - f(s - hv)) / 2h."""
    s = np.asarray(s, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    h = _fd_step(s, v)
    out = (np.asarray(sys.step(t, s + h * v)) - np.asarray(sys.step(t, s - h * v))) / (2.0 * h)
    if not np.all(np.isfinite(out)):
        raise NumericalFailure("non-finite jvp evaluation", t=t)
    return out


def jvp(sys, t: int, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A_t(s) v, via the system's analytic override when present.

    Falls back to the central finite difference with the standard step size.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (sys.dim,):
        raise ContractError(f"jvp vector has shape {v.shape}, expected ({sys.dim},)")
    return np.asarray(sys.jvp(t, np.asarray(s, dtype=np.float64), v), dtype=np.float64)


def fd_jacobian(sys, t: int, s: np.ndarray, h: float | None = None) -> np.ndarray:
    """Dense Jacobian by central differences, one column per basis vector."""
    s = np.asarray(s, dtype=np.float64)
    d = s.shape[0]
    if h is not None and h <= 0:
        raise ContractError("finite-difference step h must be positive")
    cols = np.empty((d, d))
    eye = np.eye(d)
    for k in range(d):
        hk = h if h is not None else _fd_step(s, eye[k])
        cols[:, k] = (np.asarray(sys.step(t, s + hk * eye[k])) - np.asarray(sys.step(t, s - hk * eye[k]))) / (
            2.0 * hk
        )
    if not np.all(np.isfinite(cols)):
        raise NumericalFailure("non-finite finite-difference Jacobian", t=t)
    return cols


def fd_jacobian_batch(sys, ts: np.ndarray, S: np.ndarray, h: float | None = None,
                      strict: bool = True) -> np.ndarray:
    """Central-difference Jacobians for a batch of (t, s) pairs.

    Routes all 2 n D perturbed evaluations through ``step_batch`` so systems
    with vectorized dynamics pay one batched pass instead of n D loop steps.
    With ``strict=False`` non-finite results are returned rather than raised
    (solver paths scrub them through the reset heuristic).
    """
    S = np.asarray(S, dtype=np.float64)
    n, d = S.shape
    eye = np.eye(d)
    if h is None:
        hs = 1e-6 * (1.0 + np.max(np.abs(S), axis=1))  # unit basis probes: ||v||_inf = 1
    else:
        hs = np.full(n, float(h))
    with np.errstate(all="ignore"):
        plus = S[:, None, :] + hs[:, None, None] * eye[None, :, :]
        minus = S[:, None, :] - hs[:, None, None] * eye[None, :, :]
        ts_rep = np.repeat(np.asarray(ts), d)
        fp = sys.step_batch(ts_rep, plus.reshape(n * d, d)).reshape(n, d, d)
        fm = sys.step_batch(ts_rep, minus.reshape(n * d, d)).reshape(n, d, d)
        # axis 1 indexes the perturbed coordinate, i.e. the Jacobian column
        jac = np.swapaxes(fp - fm, 1, 2) / (2.0 * hs[:, None, None])
    if strict and not np.all(np.isfinite(jac)):
        raise NumericalFailure("non-finite finite-difference Jacobian batch")
    return jac


def diag_fd_jacobian(sys, t: int, s: np.ndarray, h: float | None = None) -> np.ndarray:
    """Diagonal of the finite-difference Jacobian. Test-only acquisition route."""
    return np.diag(fd_jacobian(sys, t, s, h))


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


@lru_cache(maxsize=4096)
def _row_probes(seed_base, t: int, n: int, d: int) -> np.ndarray:
    """Row t's (n, d) probes from default_rng((seed_base, t)); shared, so read-only."""
    probes = _rademacher(np.random.default_rng((seed_base, t)), n, d)
    probes.flags.writeable = False
    return probes


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
    acc = np.zeros(d)
    for v in probes:
        acc += v * jvp(sys, t, s, v)
    return DiagEstimate(acc / n, samples=n, seed=seed)


def hutchinson_diag_values(sys, t: int, s: np.ndarray, n: int = 1, seed=0) -> np.ndarray:
    """Non-strict Hutchinson estimate for solver internals.

    Same estimator as ``hutchinson_diag`` but overflowed probes come back as
    non-finite entries instead of raising; callers scrub them through the
    reset heuristic.
    """
    s = np.asarray(s, dtype=np.float64)
    d = s.shape[0]
    probes = _rademacher(np.random.default_rng(seed), max(1, n), d)
    acc = np.zeros(d)
    with np.errstate(all="ignore"):
        for v in probes:
            try:
                acc += v * np.asarray(sys.jvp(t, s, v), dtype=np.float64)
            except NumericalFailure:
                acc += np.nan
    return acc / len(probes)


def hutchinson_diag_batch(sys, ts: np.ndarray, S: np.ndarray, n: int = 1,
                          seed_base=0) -> np.ndarray:
    """Batched non-strict Hutchinson estimates via finite-difference JVPs.

    Probes for row t are drawn from default_rng((seed_base, t)), matching the
    per-row estimator's stream, and drawn once per (seed_base, t, n, d) for
    every later call; all 2 n probes per row go through one ``step_batch``
    pass. Used by the default ``diag_jacobian_batch``.
    """
    S = np.asarray(S, dtype=np.float64)
    m, d = S.shape
    ts = np.asarray(ts)
    n = max(1, n)
    probes = np.stack([_row_probes(seed_base, int(t), n, d) for t in ts])  # (m, n, d)
    hs = 1e-6 * (1.0 + np.max(np.abs(S), axis=1))  # Rademacher probes: ||v||_inf = 1
    with np.errstate(all="ignore"):
        plus = S[:, None, :] + hs[:, None, None] * probes
        minus = S[:, None, :] - hs[:, None, None] * probes
        ts_rep = np.repeat(ts, n)
        fp = sys.step_batch(ts_rep, plus.reshape(m * n, d)).reshape(m, n, d)
        fm = sys.step_batch(ts_rep, minus.reshape(m * n, d)).reshape(m, n, d)
        jvps = (fp - fm) / (2.0 * hs[:, None, None])
        return np.mean(probes * jvps, axis=1)
