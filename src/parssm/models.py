"""Test-system zoo: each model implements DynamicsSystem's vectorized
``step_batch``, with analytic ``jacobian_batch``/``diag_jacobian_batch``
where tractable; the rest falls to the base class's finite-difference and
Hutchinson defaults, and the single-row forms come from the base class.
No method sets numpy's error state: each runs under its caller's.

Every stochastic ingredient (weights, noise, inputs) is drawn once at
construction from an explicit seed and curried into the step maps, so all
per-step functions are pure in (t, s).

Gather rule: a time-indexed table is read with ``table.take(ts - 1, axis=0)``,
the same rows as the fancy index ``table[ts - 1]`` in less time on every pass,
and a model holds no per-model array that its step does not need.
"""

from __future__ import annotations

import numpy as np

from .core import (ContractError, DynamicsSystem, as_state, require_finite, require_int,
                   require_positive, require_real)


def _seed(seed) -> int:
    """A model's seed, checked to be an integer >= 0 (a bool is not). Every zoo
    model takes one, whether it draws from it or not."""
    require_int("seed", seed, 0)
    return seed


def _map_rows(fn, ts, *rows):
    """Apply a per-row callable fn(t, *row) over the rows of a batch."""
    return np.stack([np.asarray(fn(int(t), *r), dtype=np.float64) for t, *r in zip(ts, *rows)])


class FunctionSystem(DynamicsSystem):
    """Ad-hoc system from per-row callables; handy for curried or synthetic
    dynamics. Each callable takes (t, s) (``jvp_fn`` takes (t, s, v)) and is
    mapped over the rows of every batch. A form without its callable is the
    base class's default, which gets ``F``; the callables never see it. The
    system keeps its own copy of ``initial_state``."""

    def __init__(self, dim, horizon, initial_state, step_fn, jac_fn=None,
                 diag_fn=None, jvp_fn=None):
        self._set_sizes(dim, horizon)
        self.initial_state = as_state(initial_state, self.dim).copy()  # not the caller's array
        if not np.all(np.isfinite(self.initial_state)):
            raise ContractError("initial state must be finite")
        self._step_fn = step_fn
        self._jac_fn = jac_fn
        self._diag_fn = diag_fn
        self._jvp_fn = jvp_fn

    def step_batch(self, ts, S):
        return _map_rows(self._step_fn, ts, S)

    def jacobian_batch(self, ts, S, F=None):
        if self._jac_fn is not None:
            return _map_rows(self._jac_fn, ts, S)
        return super().jacobian_batch(ts, S, F=F)

    def diag_jacobian_batch(self, ts, S, F=None):
        if self._diag_fn is not None:
            return _map_rows(self._diag_fn, ts, S)
        if self._jac_fn is not None:
            return np.diagonal(self.jacobian_batch(ts, S), axis1=1, axis2=2)
        return super().diag_jacobian_batch(ts, S, F=F)

    def jvp_batch(self, ts, S, V, F=None):
        if self._jvp_fn is not None:
            return _map_rows(self._jvp_fn, ts, S, V)
        return super().jvp_batch(ts, S, V, F=F)


class ScalarAffine(DynamicsSystem):
    """s_{t+1} = alpha s_t (+ u_t), one-dimensional; Jacobian alpha."""

    def __init__(self, alpha, T, inputs=None, s0=1.0, seed=0):
        require_finite("alpha", alpha)
        self.alpha = float(alpha)
        self._set_sizes(1, T)
        require_finite("s0", s0)
        self.initial_state = np.array([float(s0)])
        _seed(seed)
        if inputs is None:
            self.inputs = np.zeros(self.horizon)
        else:
            u = np.asarray(inputs)
            if u.shape != (self.horizon,):
                raise ContractError(f"inputs must have length T, got shape {u.shape}")
            if u.dtype.kind not in "iuf" or not np.all(np.isfinite(u)):
                raise ContractError("inputs must be finite integers or floats")
            self.inputs = u.astype(np.float64)

    def step_batch(self, ts, S):
        return self.alpha * S + self.inputs.take(np.asarray(ts) - 1, axis=0)[:, None]

    def jacobian_batch(self, ts, S, F=None):
        return np.broadcast_to(np.array([[self.alpha]]), (len(ts), 1, 1))

    def diag_jacobian_batch(self, ts, S, F=None):
        return np.full((len(ts), 1), self.alpha)


class MeanFieldRNN(DynamicsSystem):
    """s_{t+1} = W tanh(s_t) + u_t with W_ij ~ N(0, g^2/D), zero self-coupling.

    The gain g sweeps the system from predictable to chaotic. Inputs are mild
    sinusoids u_t = 0.1 sin(2 pi t / T) 1, of fixed amplitude. Draw order
    from the seed: W, then the initial state.
    """

    def __init__(self, D, g, T, seed=0):
        require_positive("gain g", g)
        self._set_sizes(D, T)
        self.g = float(g)
        rng = np.random.default_rng(_seed(seed))
        self.W = rng.standard_normal((self.dim, self.dim)) * (self.g / np.sqrt(self.dim))
        np.fill_diagonal(self.W, 0.0)
        self.initial_state = rng.standard_normal(self.dim)
        t = np.arange(1, self.horizon + 1)
        self.inputs = 0.1 * np.sin(2.0 * np.pi * t / self.horizon)

    def step_batch(self, ts, S):
        return np.tanh(S) @ self.W.T + self.inputs.take(np.asarray(ts) - 1, axis=0)[:, None]

    def jacobian_batch(self, ts, S, F=None):
        return self.W[None, :, :] * (1.0 - np.tanh(S) ** 2)[:, None, :]

    def diag_jacobian_batch(self, ts, S, F=None):
        return np.zeros((len(ts), self.dim))  # W_ii = 0 exactly


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class Gru(DynamicsSystem):
    """Gated recurrent unit with curried random-normal inputs x_t of size D.

    z = sig(Wz [h, x]), r = sig(Wr [h, x]), htil = tanh(Wh [r*h, x]),
    h+ = (1 - z)*h + z*htil. Weights are N(0, 1/D); biases zero; h_0 = 0.
    Draw order from the seed: Wz, Wr, Wh, inputs.
    """

    def __init__(self, D, T, seed=0):
        self._set_sizes(D, T)
        rng = np.random.default_rng(_seed(seed))
        scale = 1.0 / np.sqrt(self.dim)
        weights = [rng.standard_normal((self.dim, 2 * self.dim)) * scale for _ in range(3)]
        self.Wz_h, self.Wr_h, self.Wh_h = (np.ascontiguousarray(w[:, : self.dim]) for w in weights)
        inputs = rng.standard_normal((self.horizon, self.dim))
        self.initial_state = np.zeros(self.dim)
        # the input drives Wz_x x_t, Wr_x x_t, Wh_x x_t, each from one matmul
        # over all T steps, so a row's drive does not depend on the batch it
        # is evaluated in: numpy sends a one-row product to gemv, which
        # rounds differently from the multi-row gemm
        self._drives = [inputs @ w[:, self.dim:].T for w in weights]

    def _gates(self, ts, H):
        i = np.asarray(ts) - 1
        xz, xr, xh = (drive.take(i, axis=0) for drive in self._drives)
        Z = _sigmoid(H @ self.Wz_h.T + xz)
        R = _sigmoid(H @ self.Wr_h.T + xr)
        Htil = np.tanh((R * H) @ self.Wh_h.T + xh)
        return Z, R, Htil

    def step_batch(self, ts, S):
        Z, _, Htil = self._gates(ts, S)
        return (1.0 - Z) * S + Z * Htil

    def jacobian_batch(self, ts, S, F=None):
        n, d = S.shape
        Z, R, Htil = self._gates(ts, S)
        eye = np.eye(d)
        dz = (Z * (1.0 - Z))[:, :, None] * self.Wz_h[None, :, :]
        dr = (R * (1.0 - R))[:, :, None] * self.Wr_h[None, :, :]
        # d(r*h)/dh = diag(r) + diag(h) dr
        inner = R[:, :, None] * eye[None, :, :] + S[:, :, None] * dr
        dhtil = (1.0 - Htil**2)[:, :, None] * np.einsum("ij,njk->nik", self.Wh_h, inner)
        return (
            (1.0 - Z)[:, :, None] * eye[None, :, :]
            + (Htil - S)[:, :, None] * dz
            + Z[:, :, None] * dhtil
        )

    def diag_jacobian_batch(self, ts, S, F=None):
        Z, R, Htil = self._gates(ts, S)
        dz_diag = Z * (1.0 - Z) * np.diag(self.Wz_h)[None, :]
        # diag of Wh_h (diag(r) + diag(h) diag(r(1-r)) Wr_h)
        inner_diag = np.diag(self.Wh_h)[None, :] * R + np.einsum(
            "ij,nj,ji->ni", self.Wh_h, S * R * (1.0 - R), self.Wr_h
        )
        dhtil_diag = (1.0 - Htil**2) * inner_diag
        return (1.0 - Z) + (Htil - S) * dz_diag + Z * dhtil_diag


class Lorenz96(DynamicsSystem):
    """Cyclic Lorenz-96 field advanced by one four-stage RK4 step of size dt per step.

    dx_k/dt = (x_{k+1} - x_{k-2}) x_{k-1} - x_k + F. With F = 8 the flow is
    chaotic. The Jacobian and its diagonal are left to the finite-difference
    and Hutchinson defaults: forward differences from the f a solver pass
    holds, central ones elsewhere. The sequential rollout of this fixed-step
    discretization is the only oracle.

    The field reads its three neighbours from one gather along the ring:
    column j of ``X[..., ring]`` is x_{(j-2) mod D}, so three slices of it
    are x_{k+1}, x_{k-2} and x_{k-1}, the operands three ``np.roll`` calls
    would give, in the same float operations.
    """

    def __init__(self, D=5, F=8.0, dt=0.01, T=1000, seed=0):
        require_positive("dt", dt)
        require_finite("forcing F", F)
        require_int("Lorenz-96's state size D", D, 4)
        self._set_sizes(D, T)
        self.F = float(F)
        self.dt = float(dt)
        rng = np.random.default_rng(_seed(seed))
        self.initial_state = self.F + rng.standard_normal(self.dim)
        self._ring = np.arange(-2, self.dim + 1) % self.dim  # D-2, D-1, 0, ..., D-1, 0

    def _field(self, X):
        D = self.dim
        P = X[..., self._ring]
        return (P[..., 3:] - P[..., :D]) * P[..., 1:D + 1] - X + self.F

    def step_batch(self, ts, S):
        dt = self.dt
        k1 = self._field(S)
        k2 = self._field(S + 0.5 * dt * k1)
        k3 = self._field(S + 0.5 * dt * k2)
        k4 = self._field(S + dt * k3)
        return S + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class LangevinTwoWell(DynamicsSystem):
    """Discretized Langevin diffusion in a two-well potential in the plane.

    phi is the negative log density of an equal mixture of two Gaussians
    centered at (0, -1.4) and (0, 1.6) with shared diagonal covariance
    diag(0.8, 0.6); the saddle between the wells has negative curvature in y,
    so the dynamics are locally unstable there but contracting inside the
    wells. s_{t+1} = s_t - eps grad phi(s_t) + sqrt(2 eps) w_t with the noise
    w_{1:T} pre-drawn from the seed and curried. Jacobian: I - eps hess phi.

    The trajectory starts just off the saddle, so every rollout passes through
    the locally unstable region before settling into a well: predictable on
    average (negative exponent) despite pointwise instability.
    """

    centers = np.array([[0.0, -1.4], [0.0, 1.6]])
    cov_diag = np.array([0.8, 0.6])
    saddle = np.array([0.0, 0.1])

    def __init__(self, eps=0.01, T=1000, seed=0):
        require_positive("step size eps", eps)
        self._set_sizes(2, T)
        self.eps = float(eps)
        rng = np.random.default_rng(_seed(seed))
        self.noise = rng.standard_normal((self.horizon, 2))
        self.initial_state = self.saddle + 0.2 * rng.standard_normal(2)

    def _responsibilities(self, S):
        # log of each mixture component's density, up to the shared constant
        inv = 1.0 / self.cov_diag
        d = S[:, None, :] - self.centers[None, :, :]  # (n, 2, D)
        logs = -0.5 * np.einsum("ncd,d,ncd->nc", d, inv, d)
        logs -= logs.max(axis=1, keepdims=True)
        w = np.exp(logs)
        w /= w.sum(axis=1, keepdims=True)
        return w, d, inv

    def potential(self, s):
        """phi(s) = -log( mean_i N(s; m_i, C) )."""
        s = np.asarray(s, dtype=np.float64)
        inv = 1.0 / self.cov_diag
        d = s[None, :] - self.centers
        logs = -0.5 * np.einsum("cd,d,cd->c", d, inv, d)
        logs = logs - 0.5 * np.log((2.0 * np.pi) ** 2 * np.prod(self.cov_diag)) + np.log(0.5)
        m = logs.max()
        return float(-(m + np.log(np.exp(logs - m).sum())))

    def grad_potential_batch(self, S):
        w, d, inv = self._responsibilities(S)
        return np.einsum("nc,ncd,d->nd", w, d, inv)

    def hess_potential_batch(self, S):
        w, d, inv = self._responsibilities(S)
        u = d * inv[None, None, :]  # C^{-1} (s - m_c)
        g = np.einsum("nc,ncd->nd", w, u)
        base = np.sum(w, axis=1)[:, None, None] * np.diag(inv)[None, :, :]
        spread = -np.einsum("nc,nci,ncj->nij", w, u, u)
        return base + spread + g[:, :, None] * g[:, None, :]

    def step_batch(self, ts, S):
        drift = S - self.eps * self.grad_potential_batch(S)
        return drift + np.sqrt(2.0 * self.eps) * self.noise.take(np.asarray(ts) - 1, axis=0)

    def jacobian_batch(self, ts, S, F=None):
        return np.eye(2)[None, :, :] - self.eps * self.hess_potential_batch(S)

    def diag_jacobian_batch(self, ts, S, F=None):
        return np.diagonal(self.jacobian_batch(ts, S), axis1=1, axis2=2)


class S5WordProblem(DynamicsSystem):
    """Running product of uniformly random S_5 permutations as a linear system.

    f_t(s) = A_t s with A_t the permutation matrix of a random group element;
    s_0 = (1, 2, 3, 4, 5), so s_t tabulates the composed permutation.
    """

    def __init__(self, T, seed=0):
        self._set_sizes(5, T)
        rng = np.random.default_rng(_seed(seed))
        self.perms = np.stack([rng.permutation(5) for _ in range(self.horizon)])
        self.initial_state = np.arange(1.0, 6.0)

    def permutation_matrix(self, t):
        return np.eye(5)[self.perms[t - 1]]

    def step_batch(self, ts, S):
        # one flat gather: row i's permutation, offset to row i of S in C order
        S = np.asarray(S)
        flat = self.perms.take(np.asarray(ts) - 1, axis=0) + np.arange(0, S.size, 5)[:, None]
        return S.take(flat)

    def jacobian_batch(self, ts, S, F=None):
        return np.eye(5)[self.perms.take(np.asarray(ts) - 1, axis=0)]

    def diag_jacobian_batch(self, ts, S, F=None):
        return (self.perms.take(np.asarray(ts) - 1, axis=0) == np.arange(5)).astype(np.float64)


class LogisticMap(DynamicsSystem):
    """s_{t+1} = r s_t (1 - s_t) on the unit interval; Jacobian r (1 - 2 s)."""

    def __init__(self, r, T, s0=0.3, seed=0):
        require_real("logistic parameter r", r)
        if not (0.0 < r <= 4.0):
            raise ContractError("logistic parameter r must lie in (0, 4]")
        self.r = float(r)
        self._set_sizes(1, T)
        require_finite("s0", s0)
        self.initial_state = np.array([float(s0)])
        _seed(seed)

    def step_batch(self, ts, S):
        return self.r * S * (1.0 - S)

    def jacobian_batch(self, ts, S, F=None):
        return (self.r * (1.0 - 2.0 * S))[:, :, None]

    def diag_jacobian_batch(self, ts, S, F=None):
        return self.r * (1.0 - 2.0 * S)


MODEL_KINDS = {
    "affine": ScalarAffine,
    "rnn": MeanFieldRNN,
    "gru": Gru,
    "lorenz96": Lorenz96,
    "twowell": LangevinTwoWell,
    "s5": S5WordProblem,
    "logistic": LogisticMap,
}


def build(kind: str, T: int, **params) -> DynamicsSystem:
    """Construct a zoo model by kind name; each model checks its own sizes and parameters."""
    if kind not in MODEL_KINDS:
        raise ContractError(f"unknown model kind {kind!r}; choose from {sorted(MODEL_KINDS)}")
    cls = MODEL_KINDS[kind]
    try:
        return cls(T=T, **params)
    except TypeError as e:
        raise ContractError(f"bad parameters for model {kind!r}: {e}") from None
