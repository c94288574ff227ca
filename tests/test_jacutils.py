"""Finite-difference oracles, JVPs, and the Hutchinson diagonal estimator."""

import numpy as np
import pytest

import parssm as P
from parssm.jacutils import (DiagEstimate, _central_diff, fd_jacobian_batch, hutchinson_diag,
                             hutchinson_diag_batch)
from parssm.models import FunctionSystem


def _linear_system(A, T=8):
    """f(s) = A s with analytic jacobian and jvp."""
    d = A.shape[0]
    return FunctionSystem(
        dim=d, horizon=T, initial_state=np.zeros(d),
        step_fn=lambda t, s: A @ s,
        jac_fn=lambda t, s: A,
        jvp_fn=lambda t, s, v: A @ v,
    )


def _diag_system(dvec, T=8):
    d = len(dvec)
    return FunctionSystem(
        dim=d, horizon=T, initial_state=np.zeros(d),
        step_fn=lambda t, s: dvec * s,
        jac_fn=lambda t, s: np.diag(dvec),
        jvp_fn=lambda t, s, v: dvec * v,
    )


class TestJvp:
    def test_linear_analytic_exact(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 4))
        sys_ = _linear_system(A)
        v = rng.standard_normal(4)
        np.testing.assert_array_equal(sys_.jvp(1, rng.standard_normal(4), v), A @ v)

    def test_basis_vector_matches_fd_column(self):
        sys_ = P.models.build("gru", 8, D=5, seed=1)
        rng = np.random.default_rng(2)
        s = rng.standard_normal(5)
        full = fd_jacobian_batch(sys_, [3], s[None])[0]
        for k in range(5):
            col = sys_.jvp(3, s, np.eye(5)[k])
            assert np.max(np.abs(col - full[:, k])) <= 1e-5

    def test_linearity_within_fd_tolerance(self):
        sys_ = P.models.build("rnn", 8, D=4, g=1.0, seed=3)
        rng = np.random.default_rng(4)
        s = rng.standard_normal(4)
        v1, v2 = rng.standard_normal(4), rng.standard_normal(4)
        lhs = sys_.jvp(2, s, v1 + v2)
        rhs = sys_.jvp(2, s, v1) + sys_.jvp(2, s, v2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-6


class TestFdJacobian:
    def test_identity_map(self):
        sys_ = FunctionSystem(dim=3, horizon=4, initial_state=np.zeros(3),
                              step_fn=lambda t, s: s)
        np.testing.assert_allclose(fd_jacobian_batch(sys_, [1], np.ones((1, 3)))[0], np.eye(3),
                                   atol=1e-9)

    def test_scalar_affine(self):
        sys_ = P.models.build("affine", 4, alpha=0.37)
        np.testing.assert_allclose(fd_jacobian_batch(sys_, [2], np.array([[1.3]]))[0], [[0.37]],
                                   atol=1e-9)

    def test_matches_analytic_gru(self):
        sys_ = P.models.build("gru", 8, D=6, seed=5)
        rng = np.random.default_rng(6)
        s = rng.standard_normal(6)
        a = sys_.jacobian(4, s)
        fd = fd_jacobian_batch(sys_, [4], s[None])[0]
        assert np.max(np.abs(a - fd)) / max(1.0, np.max(np.abs(a))) <= 1e-5


class TestHutchinson:
    def test_exact_on_diagonal_any_n_any_seed(self):
        """Exact up to the final mean's rounding (sum of n copies over n)."""
        dvec = np.array([0.5, -1.2, 3.0, 0.0])
        sys_ = _diag_system(dvec)
        for n in (1, 3, 17):
            for seed in (0, 1, 12345):
                est = hutchinson_diag(sys_, 1, np.ones(4), n=n, seed=seed)
                np.testing.assert_allclose(est.values, dvec, rtol=5e-16, atol=0)
                assert est.samples == n

    def test_monte_carlo_deviation_bound(self):
        """Dense symmetric A, n=1e4: deviation within 4 sigma of the truth."""
        rng = np.random.default_rng(8)
        A = rng.standard_normal((6, 6))
        A = 0.5 * (A + A.T)
        sys_ = _linear_system(A)
        n = 10_000
        est = hutchinson_diag(sys_, 1, np.zeros(6), n=n, seed=42)
        off = A - np.diag(np.diag(A))
        sigma = np.sqrt(np.sum(off**2, axis=1) / n)
        assert np.all(np.abs(est.values - np.diag(A)) <= 4.0 * sigma + 1e-12)

    def test_unbiasedness_at_1e5(self):
        """Empirical mean within 5 standard errors of the true diagonal."""
        rng = np.random.default_rng(9)
        A = rng.standard_normal((16, 16))
        sys_ = _linear_system(A)
        n = 100_000
        est = hutchinson_diag(sys_, 1, np.zeros(16), n=n, seed=7)
        off = A - np.diag(np.diag(A))
        se = np.sqrt(np.sum(off**2, axis=1) / n)
        assert np.all(np.abs(est.values - np.diag(A)) <= 5.0 * se)

    def test_variance_scales_inverse_n(self):
        """Sample variance of the estimator decays like 1/n: log-log slope
        -1 +- 0.1 over n in {10 .. 10^4}."""
        rng = np.random.default_rng(10)
        A = rng.standard_normal((8, 8))
        sys_ = _linear_system(A)
        ns = [10, 100, 1000, 10_000]
        variances = []
        repeats = 64
        for n in ns:
            ests = np.stack([
                hutchinson_diag(sys_, 1, np.zeros(8), n=n, seed=(11, n, rep)).values
                for rep in range(repeats)
            ])
            variances.append(float(np.mean(np.var(ests, axis=0))))
        slope = np.polyfit(np.log10(ns), np.log10(variances), 1)[0]
        assert abs(slope + 1.0) <= 0.1

    def test_validation(self):
        sys_ = _diag_system(np.ones(2))
        for n in (0, 2.5, True, "2"):
            with pytest.raises(P.ContractError, match="^n must be"):
                hutchinson_diag(sys_, 1, np.zeros(2), n=n)
        with pytest.raises(P.NumericalFailure):
            DiagEstimate(np.array([np.nan]), samples=1, seed=0)
        with pytest.raises(P.ContractError, match="samples >= 1"):
            DiagEstimate(np.zeros(2), samples=0, seed=0)

    @pytest.mark.parametrize("t, message", [
        (0, "integer >= 1, got 0"), (9, "at most the horizon T=8, got 9"),
        (2.0, "integer >= 1, got 2.0"), (True, "real number, got True"),
    ], ids=["zero", "past-T", "float", "boolean"])
    def test_step_must_lie_in_the_horizon(self, t, message):
        """t = 0 would gather the input drive of step T, and t = T + 1 none."""
        sys_ = P.models.build("gru", 8, D=3)
        with pytest.raises(P.ContractError, match=f"step t must be .*{message}"):
            hutchinson_diag(sys_, t, np.ones(3))


class TestHutchinsonBatch:
    def test_rows_equal_per_row_stream_bitwise(self):
        """Row t of the batch is the one-probe estimator seeded (0, t), bit
        for bit, and a repeated call returns an identical array."""
        sys_ = P.models.build("lorenz96", 12, seed=3)
        ts = np.array([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 5, 1])
        S = np.random.default_rng(4).standard_normal((len(ts), sys_.dim)) + 8.0
        got = hutchinson_diag_batch(sys_, ts, S)
        want = np.stack([hutchinson_diag(sys_, int(t), s, n=1, seed=(0, int(t))).values
                         for t, s in zip(ts, S)])
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(hutchinson_diag_batch(sys_, ts, S), got)


class TestDiagResolutionOrder:
    def test_analytic_override_wins(self):
        sys_ = P.models.build("gru", 8, D=4, seed=0)
        s = np.random.default_rng(0).standard_normal(4)
        np.testing.assert_allclose(sys_.diag_jacobian(2, s), np.diag(sys_.jacobian(2, s)),
                                   rtol=1e-12, atol=1e-14)

    def test_default_falls_back_to_hutchinson(self):
        """Without an analytic override the single-probe estimate is used;
        on axes-aligned dynamics it is exact regardless."""
        dvec = np.array([2.0, -0.5, 0.25])
        sys_ = FunctionSystem(dim=3, horizon=4, initial_state=np.zeros(3),
                              step_fn=lambda t, s: dvec * s,
                              jvp_fn=lambda t, s, v: dvec * v)
        np.testing.assert_array_equal(sys_.diag_jacobian(1, np.ones(3)), dvec)


def _central_diff_two_calls(sys_, ts, S, V, hs):
    """The central difference with its +h and -h rows in separate calls."""
    n, d = S.shape
    k = V.shape[-2]
    h = hs[:, None, None]
    ts_rep = np.repeat(np.asarray(ts), k)
    with np.errstate(all="ignore"):
        delta = h * V
        fp = sys_.step_batch(ts_rep, (S[:, None, :] + delta).reshape(n * k, d))
        fm = sys_.step_batch(ts_rep, (S[:, None, :] - delta).reshape(n * k, d))
        return (fp - fm).reshape(n, k, d) / (2.0 * h)


def _no_jacobian_system(T):
    """A coupled map with no analytic Jacobian, diagonal or JVP."""
    return FunctionSystem(dim=3, horizon=T, initial_state=np.ones(3),
                          step_fn=lambda t, s: np.tanh(np.roll(s, 1) * s) + 0.01 * t * s)


class TestCentralDiffOneCall:
    """Both sides of the difference go through one ``step_batch`` call, with
    the bits of two separate calls."""

    @pytest.mark.parametrize("make", [lambda: P.models.build("lorenz96", 128, seed=7),
                                      lambda: _no_jacobian_system(40)],
                             ids=["lorenz96", "function-system"])
    def test_bit_identical_to_two_calls(self, make):
        sys_ = make()
        n, d = sys_.horizon, sys_.dim
        rng = np.random.default_rng(8)
        ts = np.arange(1, n + 1)
        S = 3.0 * rng.standard_normal((n, d))

        def step(V):
            """h = 1e-6 (1 + ||s||_inf) / max(||v||_inf, 1) over each row's tangents."""
            vmax = np.abs(np.broadcast_to(V, (n,) + V.shape[1:])).max(axis=(1, 2))
            return 1e-6 * (1.0 + np.max(np.abs(S), axis=1)) / np.maximum(vmax, 1.0)

        calls = []
        inner = sys_.step_batch
        sys_.step_batch = lambda ts_, S_: calls.append(len(ts_)) or inner(ts_, S_)
        for V in (np.eye(d)[None, :, :], rng.standard_normal((n, 1, d)),
                  rng.choice([-1.0, 1.0], (n, 4, d))):
            calls.clear()
            got = _central_diff(sys_, ts, S, V)
            assert calls == [2 * n * V.shape[1]]
            np.testing.assert_array_equal(got, _central_diff_two_calls(sys_, ts, S, V, step(V)))
        # the public forms built on it: the FD Jacobian and the Hutchinson JVPs
        E = np.eye(d)[None]
        jac = np.swapaxes(_central_diff_two_calls(sys_, ts, S, E, step(E)), 1, 2)
        np.testing.assert_array_equal(fd_jacobian_batch(sys_, ts, S), jac)
        V = rng.standard_normal((n, 1, d))
        np.testing.assert_array_equal(sys_.jvp_batch(ts, S, V[:, 0]),
                                      _central_diff_two_calls(sys_, ts, S, V, step(V))[:, 0])
