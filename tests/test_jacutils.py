"""Finite-difference oracles, JVPs, and the Hutchinson diagonal estimator."""

import numpy as np
import pytest

import parssm as P
from parssm.jacutils import (DiagEstimate, fd_jacobian, hutchinson_diag,
                             hutchinson_diag_batch, jvp)
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
        np.testing.assert_array_equal(jvp(sys_, 1, rng.standard_normal(4), v), A @ v)

    def test_basis_vector_matches_fd_column(self):
        sys_ = P.models.build("gru", 8, D=5, seed=1)
        rng = np.random.default_rng(2)
        s = rng.standard_normal(5)
        full = fd_jacobian(sys_, 3, s, h=1e-6)
        for k in range(5):
            col = jvp(sys_, 3, s, np.eye(5)[k])
            assert np.max(np.abs(col - full[:, k])) <= 1e-5

    def test_linearity_within_fd_tolerance(self):
        sys_ = P.models.build("rnn", 8, D=4, g=1.0, seed=3)
        rng = np.random.default_rng(4)
        s = rng.standard_normal(4)
        v1, v2 = rng.standard_normal(4), rng.standard_normal(4)
        lhs = jvp(sys_, 2, s, v1 + v2)
        rhs = jvp(sys_, 2, s, v1) + jvp(sys_, 2, s, v2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-6

    def test_bad_shape(self):
        sys_ = P.models.build("gru", 4, D=3, seed=0)
        with pytest.raises(P.ContractError):
            jvp(sys_, 1, np.zeros(3), np.zeros(2))


class TestFdJacobian:
    def test_identity_map(self):
        sys_ = FunctionSystem(dim=3, horizon=4, initial_state=np.zeros(3),
                              step_fn=lambda t, s: s)
        np.testing.assert_allclose(fd_jacobian(sys_, 1, np.ones(3)), np.eye(3), atol=1e-9)

    def test_scalar_affine(self):
        sys_ = P.models.build("affine", 4, alpha=0.37)
        np.testing.assert_allclose(fd_jacobian(sys_, 2, np.array([1.3])), [[0.37]], atol=1e-9)

    def test_matches_analytic_gru(self):
        sys_ = P.models.build("gru", 8, D=6, seed=5)
        rng = np.random.default_rng(6)
        s = rng.standard_normal(6)
        a = sys_.jacobian(4, s)
        fd = fd_jacobian(sys_, 4, s, h=1e-6)
        assert np.max(np.abs(a - fd)) / max(1.0, np.max(np.abs(a))) <= 1e-5

    def test_rejects_nonpositive_h(self):
        sys_ = P.models.build("affine", 4, alpha=1.0)
        with pytest.raises(P.ContractError):
            fd_jacobian(sys_, 1, np.zeros(1), h=0.0)


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

    def test_all_ones_probe_degenerates_to_row_sum(self):
        """n=1 with v fixed to ones returns A @ 1 elementwise (v * A v)."""
        rng = np.random.default_rng(7)
        A = rng.standard_normal((5, 5))
        sys_ = _linear_system(A)
        est = hutchinson_diag(sys_, 1, np.zeros(5), n=1, probes=np.ones((1, 5)))
        np.testing.assert_allclose(est.values, A @ np.ones(5), rtol=1e-12)

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
        with pytest.raises(P.ContractError):
            hutchinson_diag(sys_, 1, np.zeros(2), n=0)
        with pytest.raises(P.ContractError):
            hutchinson_diag(sys_, 1, np.zeros(2), n=2, probes=np.ones((1, 2)))
        with pytest.raises(P.NumericalFailure):
            DiagEstimate(np.array([np.nan]), samples=1, seed=0)


class TestHutchinsonBatch:
    @pytest.mark.parametrize("samples", [1, 3])
    def test_rows_equal_per_row_stream_bitwise(self, samples):
        """Row t of the batch is the per-row estimator seeded (seed_base, t),
        bit for bit, and a repeated call returns an identical array."""
        sys_ = P.models.build("lorenz96", 12, seed=3)
        ts = np.array([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 5, 1])
        S = np.random.default_rng(4).standard_normal((len(ts), sys_.dim)) + 8.0
        got = hutchinson_diag_batch(sys_, ts, S, n=samples, seed_base=5)
        want = np.stack([hutchinson_diag(sys_, int(t), s, n=samples, seed=(5, int(t))).values
                         for t, s in zip(ts, S)])
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(hutchinson_diag_batch(sys_, ts, S, n=samples, seed_base=5), got)


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
