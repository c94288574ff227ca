"""Test-system zoo: each model implements DynamicsSystem's vectorized
``step_batch``, with analytic ``jacobian_batch``/``diag_jacobian_batch``
where tractable; the rest falls to the base class's finite-difference and
Hutchinson defaults, and the single-row forms come from the base class.

Every stochastic ingredient (weights, noise, inputs) is drawn once at
construction from an explicit seed and curried into the step maps, so all
per-step functions are pure in (t, s).
"""

from __future__ import annotations

import numpy as np

from .core import ContractError, DynamicsSystem, as_state


def _map_rows(fn, ts, *rows):
    """Apply a per-row callable fn(t, *row) over the rows of a batch."""
    return np.stack([np.asarray(fn(int(t), *r), dtype=np.float64) for t, *r in zip(ts, *rows)])


class FunctionSystem(DynamicsSystem):
    """Ad-hoc system from per-row callables; handy for curried or synthetic
    dynamics. Each callable takes (t, s) (``jvp_fn`` takes (t, s, v)) and is
    mapped over the rows of every batch."""

    def __init__(self, dim, horizon, initial_state, step_fn, jac_fn=None,
                 diag_fn=None, jvp_fn=None):
        self.dim = int(dim)
        self.horizon = int(horizon)
        self.initial_state = as_state(initial_state, self.dim)
        self._step_fn = step_fn
        self._jac_fn = jac_fn
        self._diag_fn = diag_fn
        self._jvp_fn = jvp_fn

    def step_batch(self, ts, S):
        return _map_rows(self._step_fn, ts, S)

    def jacobian_batch(self, ts, S):
        if self._jac_fn is not None:
            return _map_rows(self._jac_fn, ts, S)
        return super().jacobian_batch(ts, S)

    def diag_jacobian_batch(self, ts, S):
        if self._diag_fn is not None:
            return _map_rows(self._diag_fn, ts, S)
        if self._jac_fn is not None:
            return np.diagonal(self.jacobian_batch(ts, S), axis1=1, axis2=2).copy()
        return super().diag_jacobian_batch(ts, S)

    def jvp_batch(self, ts, S, V):
        if self._jvp_fn is not None:
            return _map_rows(self._jvp_fn, ts, S, V)
        return super().jvp_batch(ts, S, V)


class ScalarAffine(DynamicsSystem):
    """s_{t+1} = alpha s_t (+ u_t), one-dimensional; Jacobian alpha."""

    def __init__(self, alpha, T, inputs=None, s0=1.0, seed=0):
        if not np.isfinite(alpha):
            raise ContractError("alpha must be finite")
        self.alpha = float(alpha)
        self.dim = 1
        self.horizon = int(T)
        self.initial_state = np.array([float(s0)])
        if inputs is None:
            self.inputs = np.zeros(self.horizon)
        else:
            self.inputs = np.asarray(inputs, dtype=np.float64).reshape(-1)
            if self.inputs.shape[0] != self.horizon:
                raise ContractError("inputs must have length T")

    def step_batch(self, ts, S):
        with np.errstate(all="ignore"):
            return self.alpha * S + self.inputs[np.asarray(ts) - 1][:, None]

    def jacobian_batch(self, ts, S):
        return np.broadcast_to(np.array([[self.alpha]]), (len(ts), 1, 1)).copy()

    def diag_jacobian_batch(self, ts, S):
        return np.full((len(ts), 1), self.alpha)


class MeanFieldRNN(DynamicsSystem):
    """s_{t+1} = W tanh(s_t) + u_t with W_ij ~ N(0, g^2/D), zero self-coupling.

    The gain g sweeps the system from predictable to chaotic. Inputs are mild
    sinusoids u_t = 0.1 sin(2 pi t / T) 1. Draw order from the seed: W, then
    the initial state.
    """

    def __init__(self, D, g, T, seed=0, input_amplitude=0.1):
        if g <= 0:
            raise ContractError("gain g must be positive")
        if D < 1:
            raise ContractError("state size D must be >= 1")
        self.dim = int(D)
        self.horizon = int(T)
        self.g = float(g)
        rng = np.random.default_rng(seed)
        self.W = rng.standard_normal((self.dim, self.dim)) * (self.g / np.sqrt(self.dim))
        np.fill_diagonal(self.W, 0.0)
        self.initial_state = rng.standard_normal(self.dim)
        t = np.arange(1, self.horizon + 1)
        self.inputs = input_amplitude * np.sin(2.0 * np.pi * t / self.horizon)

    def step_batch(self, ts, S):
        with np.errstate(over="ignore", invalid="ignore"):
            return np.tanh(S) @ self.W.T + self.inputs[np.asarray(ts) - 1][:, None]

    def jacobian_batch(self, ts, S):
        with np.errstate(over="ignore", invalid="ignore"):
            gain = 1.0 - np.tanh(S) ** 2
        return self.W[None, :, :] * gain[:, None, :]

    def diag_jacobian_batch(self, ts, S):
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
        if D < 1:
            raise ContractError("state size D must be >= 1")
        self.dim = int(D)
        self.horizon = int(T)
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(self.dim)
        wz = rng.standard_normal((self.dim, 2 * self.dim)) * scale
        wr = rng.standard_normal((self.dim, 2 * self.dim)) * scale
        wh = rng.standard_normal((self.dim, 2 * self.dim)) * scale
        self.Wz_h, self.Wz_x = wz[:, : self.dim], wz[:, self.dim:]
        self.Wr_h, self.Wr_x = wr[:, : self.dim], wr[:, self.dim:]
        self.Wh_h, self.Wh_x = wh[:, : self.dim], wh[:, self.dim:]
        self.inputs = rng.standard_normal((self.horizon, self.dim))
        self.initial_state = np.zeros(self.dim)

    def _gates(self, ts, H):
        X = self.inputs[np.asarray(ts) - 1]
        with np.errstate(over="ignore", invalid="ignore"):
            Z = _sigmoid(H @ self.Wz_h.T + X @ self.Wz_x.T)
            R = _sigmoid(H @ self.Wr_h.T + X @ self.Wr_x.T)
            Htil = np.tanh((R * H) @ self.Wh_h.T + X @ self.Wh_x.T)
        return Z, R, Htil

    def step_batch(self, ts, S):
        Z, _, Htil = self._gates(ts, S)
        return (1.0 - Z) * S + Z * Htil

    def jacobian_batch(self, ts, S):
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

    def diag_jacobian_batch(self, ts, S):
        Z, R, Htil = self._gates(ts, S)
        dz_diag = Z * (1.0 - Z) * np.diag(self.Wz_h)[None, :]
        # diag of Wh_h (diag(r) + diag(h) diag(r(1-r)) Wr_h)
        inner_diag = np.diag(self.Wh_h)[None, :] * R + np.einsum(
            "ij,nj,ji->ni", self.Wh_h, S * R * (1.0 - R), self.Wr_h
        )
        dhtil_diag = (1.0 - Htil**2) * inner_diag
        return (1.0 - Z) + (Htil - S) * dz_diag + Z * dhtil_diag


class Lorenz96(DynamicsSystem):
    """Cyclic Lorenz-96 field advanced by one fixed-step RK4 stage per step.

    dx_k/dt = (x_{k+1} - x_{k-2}) x_{k-1} - x_k + F. With F = 8 the flow is
    chaotic. The Jacobian is left to the finite-difference default; the
    sequential rollout of this fixed-step discretization is the only oracle.
    """

    def __init__(self, D=5, F=8.0, dt=0.01, T=1000, seed=0):
        if dt <= 0:
            raise ContractError("dt must be positive")
        if D < 4:
            raise ContractError("Lorenz-96 needs D >= 4")
        self.dim = int(D)
        self.horizon = int(T)
        self.F = float(F)
        self.dt = float(dt)
        rng = np.random.default_rng(seed)
        self.initial_state = self.F + rng.standard_normal(self.dim)

    def _field(self, X):
        return (np.roll(X, -1, axis=-1) - np.roll(X, 2, axis=-1)) * np.roll(X, 1, axis=-1) - X + self.F

    def step_batch(self, ts, S):
        dt = self.dt
        with np.errstate(all="ignore"):
            k1 = self._field(S)
            k2 = self._field(S + 0.5 * dt * k1)
            k3 = self._field(S + 0.5 * dt * k2)
            k4 = self._field(S + dt * k3)
            return S + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class LangevinTwoWell(DynamicsSystem):
    """Discretized Langevin diffusion in a two-well potential in the plane.

    phi is the negative log density of an equal mixture of two Gaussians
    centered at (0, -1.4) and (0, 1.6) with shared diagonal covariance
    diag(0.8, 0.4); the saddle between the wells has negative curvature in y,
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
        if eps <= 0:
            raise ContractError("step size eps must be positive")
        self.dim = 2
        self.horizon = int(T)
        self.eps = float(eps)
        rng = np.random.default_rng(seed)
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
        with np.errstate(all="ignore"):
            drift = S - self.eps * self.grad_potential_batch(S)
        return drift + np.sqrt(2.0 * self.eps) * self.noise[np.asarray(ts) - 1]

    def jacobian_batch(self, ts, S):
        with np.errstate(all="ignore"):
            return np.eye(2)[None, :, :] - self.eps * self.hess_potential_batch(S)

    def diag_jacobian_batch(self, ts, S):
        return np.diagonal(self.jacobian_batch(ts, S), axis1=1, axis2=2).copy()


class S5WordProblem(DynamicsSystem):
    """Running product of uniformly random S_5 permutations as a linear system.

    f_t(s) = A_t s with A_t the permutation matrix of a random group element;
    s_0 = (1, 2, 3, 4, 5), so s_t tabulates the composed permutation.
    """

    def __init__(self, T, seed=0):
        self.dim = 5
        self.horizon = int(T)
        rng = np.random.default_rng(seed)
        self.perms = np.stack([rng.permutation(5) for _ in range(self.horizon)])
        self.initial_state = np.arange(1.0, 6.0)

    def permutation_matrix(self, t):
        return np.eye(5)[self.perms[t - 1]]

    def step_batch(self, ts, S):
        S = np.asarray(S)
        return S[np.arange(len(S))[:, None], self.perms[np.asarray(ts) - 1]]

    def jacobian_batch(self, ts, S):
        return np.eye(5)[self.perms[np.asarray(ts) - 1]]

    def diag_jacobian_batch(self, ts, S):
        return (self.perms[np.asarray(ts) - 1] == np.arange(5)[None, :]).astype(np.float64)


class LogisticMap(DynamicsSystem):
    """s_{t+1} = r s_t (1 - s_t) on the unit interval; Jacobian r (1 - 2 s)."""

    def __init__(self, r, T, s0=0.3, seed=0):
        if not (0.0 < r <= 4.0):
            raise ContractError("logistic parameter r must lie in (0, 4]")
        self.r = float(r)
        self.dim = 1
        self.horizon = int(T)
        self.initial_state = np.array([float(s0)])

    def step_batch(self, ts, S):
        with np.errstate(all="ignore"):
            return self.r * S * (1.0 - S)

    def jacobian_batch(self, ts, S):
        return (self.r * (1.0 - 2.0 * S))[:, :, None]

    def diag_jacobian_batch(self, ts, S):
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

_REQUIRED = {"affine": ("alpha",), "rnn": ("D", "g"), "gru": ("D",),
             "lorenz96": (), "twowell": (), "s5": (), "logistic": ("r",)}


def build(kind: str, T: int, **params) -> DynamicsSystem:
    """Construct a zoo model by kind name; parameter ranges are validated."""
    if kind not in MODEL_KINDS:
        raise ContractError(f"unknown model kind {kind!r}; choose from {sorted(MODEL_KINDS)}")
    if T < 1:
        raise ContractError("horizon T must be >= 1")
    missing = [p for p in _REQUIRED[kind] if p not in params]
    if missing:
        raise ContractError(f"model {kind!r} requires parameters {missing}")
    cls = MODEL_KINDS[kind]
    try:
        return cls(T=T, **params)
    except TypeError as e:
        raise ContractError(f"bad parameters for model {kind!r}: {e}") from None
