"""Kalman trust-region steps: attenuation bound, MAP oracle, solve loop."""

from functools import lru_cache

import numpy as np
import pytest

import parssm as P
from parssm.fixedpoint import NEWTON, SolverConfig, linearize
from parssm.pscan import evaluate_lds, evaluate_stacked, lane_algebra, tree_scan
from parssm.trustregion import (TrustRegionConfig, _check_covariances, _default_max_iters,
                                _filter_covariances, _forward, _smooth, attenuation,
                                kalman_solve, kalman_step, lm_step_dense)


def _noisy_guess(sys_, scale=1.0, seed=0):
    rng = np.random.default_rng(seed)
    base = P.rollout_sequential(sys_).states
    return P.Trajectory(sys_.initial_state, base + scale * rng.standard_normal(base.shape))


def _sequential_filter_full(A, b, emissions, s_left, lam):
    """Oracle: the step-by-step covariance/gain recursion (Joseph form), then
    the filtered means from the affine recursion it defines."""
    T, D = b.shape
    eye = np.eye(D)
    sig = np.zeros((D, D))
    A_eff = np.empty((T, D, D))
    bias = np.empty((T, D))
    sig_post = np.empty((T, D, D))
    sig_pred = np.empty((T, D, D))
    for t in range(T):
        pred = A[t] @ sig @ A[t].T + eye
        gamma = np.linalg.solve(lam * pred + eye, eye)
        gamma = 0.5 * (gamma + gamma.T)
        k = eye - gamma
        A_eff[t] = gamma @ A[t]
        bias[t] = gamma @ b[t] + k @ emissions[t]
        sig = gamma @ pred @ gamma.T + (1.0 / lam) * (k @ k.T) if lam > 0.0 else pred
        sig = 0.5 * (sig + sig.T)
        sig_post[t] = sig
        sig_pred[t] = pred
    return evaluate_stacked("dense", A_eff, bias, s_left), sig_post, sig_pred


def _sequential_filter_diag(A, b, emissions, s_left, lam):
    """Oracle: the elementwise form of ``_sequential_filter_full``."""
    T, D = b.shape
    sig = np.zeros(D)
    A_eff = np.empty((T, D))
    bias = np.empty((T, D))
    sig_post = np.empty((T, D))
    sig_pred = np.empty((T, D))
    for t in range(T):
        pred = A[t] * sig * A[t] + 1.0
        gamma = 1.0 / (lam * pred + 1.0)
        k = 1.0 - gamma
        A_eff[t] = gamma * A[t]
        bias[t] = gamma * b[t] + k * emissions[t]
        sig = gamma * pred * gamma + k * k / lam if lam > 0.0 else pred
        sig_post[t] = sig
        sig_pred[t] = pred
    return evaluate_stacked("diagonal", A_eff, bias, s_left), sig_post, sig_pred


def _sequential_rts(lane, A, b, means, sig_post, sig_pred):
    """Oracle: the step-by-step RTS backward pass."""
    out = means.copy()
    for t in range(len(means) - 2, -1, -1):
        if lane == "dense":
            gain = sig_post[t] @ A[t + 1].T @ np.linalg.inv(sig_pred[t + 1])
            out[t] = means[t] + gain @ (out[t + 1] - (A[t + 1] @ means[t] + b[t + 1]))
        else:
            gain = sig_post[t] * A[t + 1] / sig_pred[t + 1]
            out[t] = means[t] + gain * (out[t + 1] - (A[t + 1] * means[t] + b[t + 1]))
    return out


@lru_cache(maxsize=None)
def _lorenz96_linearization(T, lane):
    """(A, b, emissions, s0) of Lorenz-96 linearized about a perturbed rollout."""
    sys_ = P.models.build("lorenz96", T, seed=0)
    guess = _noisy_guess(sys_, seed=T).states
    prev = np.vstack([sys_.initial_state[None, :], guess[:-1]])
    ts = np.arange(1, T + 1)
    if lane == "dense":
        A = sys_.jacobian_batch(ts, prev)
        b = sys_.step_batch(ts, prev) - np.einsum("tij,tj->ti", A, prev)
    else:
        A = sys_.diag_jacobian_batch(ts, prev)
        b = sys_.step_batch(ts, prev) - A * prev
    return A, b, guess, sys_.initial_state


def _step_relative_error(got, want):
    """Largest over t of max|got_t - want_t| / max|want_t|."""
    T = len(want)
    err = np.abs(got - want).reshape(T, -1).max(axis=1)
    return float(np.max(err / np.abs(want).reshape(T, -1).max(axis=1)))


class TestScanEqualsSequentialOracle:
    @pytest.mark.parametrize("lane", ["dense", "diagonal"])
    @pytest.mark.parametrize("lam", [0.0, 1e-12, 0.01, 1.0, 1e12])
    @pytest.mark.parametrize("T", [16, 128, 400, 1000])
    def test_filter_and_smoother(self, T, lam, lane):
        """The tree scan over filtering elements gives the sequential
        recursion's means and covariances, and the backward-scan smoother the
        sequential RTS pass on the same filter output, to 1e-10 relative at
        every step. (At lam = 1e-12 and T = 1000 the RTS pass amplifies the
        filters' 1e-13 differences past 1e-4, so each smoother gets one input.)"""
        A, b, emissions, s0 = _lorenz96_linearization(T, lane)
        oracle = _sequential_filter_full if lane == "dense" else _sequential_filter_diag
        want = oracle(A, b, emissions, s0, lam)
        got = _forward(lane, A, b, emissions, s0, lam)
        for g, w in zip(got, want):
            assert _step_relative_error(g, w) <= 1e-10
        smoothed = _smooth(lane, A, b, *got)
        assert _step_relative_error(smoothed, _sequential_rts(lane, A, b, *got)) <= 1e-10


def _filter_covariances_every_level(lane, A, lam):
    """The covariance scan with the full element combine (Abar, C and J) on
    every level, ignoring ``closing``: the form ``_filter_covariances`` cuts to
    C alone on the closing levels, whose Abar and J are never read."""
    mul, tr, inv, one = lane_algebra(lane, A.shape[1])
    Ab = A / (1.0 + lam)
    C = np.broadcast_to(one / (1.0 + lam), A.shape).copy()
    J = (lam / (1.0 + lam)) * mul(tr(A), A)
    Ab[0] = 0.0
    J[0] = 0.0

    def combine(hi, lo, closing):
        M = inv(one + mul(C[lo], J[hi]))
        AM = mul(Ab[hi], M)
        C[hi] = mul(mul(AM, C[lo]), tr(Ab[hi])) + C[hi]
        J[hi] = mul(mul(tr(Ab[lo]), mul(tr(M), J[hi])), Ab[lo]) + J[lo]
        Ab[hi] = mul(AM, Ab[lo])

    tree_scan(len(A), combine)
    return C


class TestCovarianceScanCut:
    @pytest.mark.parametrize("lane", ["dense", "diagonal"])
    @pytest.mark.parametrize("lam", [0.01, 1.0])
    @pytest.mark.parametrize("T", [1, 2, 3, 5, 8, 100, 128, 129])
    def test_bit_identical_to_the_full_combine(self, T, lam, lane):
        A = _lorenz96_linearization(T, lane)[0]
        got = _filter_covariances(lane, A, lam)
        assert np.array_equal(got, _filter_covariances_every_level(lane, A, lam))


class TestConfig:
    def test_lam_zero_needs_smoother(self):
        TrustRegionConfig(lam=0.0, mode="smoother")
        with pytest.raises(P.ContractError):
            TrustRegionConfig(lam=0.0, mode="filter")
        with pytest.raises(P.ContractError):
            TrustRegionConfig(lam=-1.0)

    def test_lam_must_be_a_number(self):
        with pytest.raises(P.ContractError, match="must be a real number"):
            TrustRegionConfig(lam="0.5")

    def test_damping_rejected(self):
        """The trust region never reads the damping; lam sets its step."""
        with pytest.raises(P.ContractError):
            TrustRegionConfig(solver=SolverConfig(damping=P.Damping.scale(0.9)))


class TestAttenuation:
    def test_zero_inputs(self):
        """A = 0, Sigma = 0 gives sigma^2/(sigma^2+1) I."""
        sigma2 = 0.7
        g = attenuation(np.zeros((3, 3)), np.zeros((3, 3)), sigma2)
        np.testing.assert_allclose(g, sigma2 / (sigma2 + 1.0) * np.eye(3), rtol=1e-14)

    def test_spectral_bound_via_svd(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = int(rng.choice([1, 2, 4, 8]))
            A = rng.standard_normal((d, d)) * rng.uniform(0.1, 3.0)
            B = rng.standard_normal((d, d))
            lam = 10.0 ** rng.uniform(-3.0, 4.0)
            g = attenuation(A, B @ B.T, 1.0 / lam)
            top = float(np.linalg.svd(g, compute_uv=False)[0])
            assert top <= 1.0 / (1.0 + lam) + 1e-12

    def test_eigenvalues_positive_and_bounded(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 4))
        sigma2 = 0.5
        eig = np.linalg.eigvalsh(attenuation(A, B @ B.T, sigma2))
        assert np.all(eig > 0.0)
        assert np.all(eig <= sigma2 / (1.0 + sigma2) + 1e-12)


class TestKalmanStep:
    def test_smoother_equals_dense_lm(self):
        rng = np.random.default_rng(2)
        for k in range(25):
            T, D = int(rng.integers(3, 32)), int(rng.integers(1, 5))
            sys_ = P.models.build("rnn", T, D=D, g=1.0, seed=k)
            guess = _noisy_guess(sys_, seed=k)
            lam = 10.0 ** rng.uniform(-3, 3)
            sm = kalman_step(sys_, guess, TrustRegionConfig(lam=lam, mode="smoother"))
            dn = lm_step_dense(sys_, guess, lam)
            assert P.max_abs_diff(sm, dn) <= 1e-8

    def test_lam_to_zero_recovers_undamped_step(self):
        sys_ = P.models.build("gru", 24, D=3, seed=3)
        guess = _noisy_guess(sys_, seed=3)
        sm = kalman_step(sys_, guess, TrustRegionConfig(lam=1e-12, mode="smoother"))
        undamped = evaluate_lds(linearize(sys_, guess, NEWTON), sys_.initial_state)
        assert P.max_abs_diff(sm, undamped) <= 1e-6

    def test_huge_lam_pins_iterate(self):
        sys_ = P.models.build("gru", 16, D=3, seed=4)
        guess = _noisy_guess(sys_, seed=4)
        for mode in ("filter", "smoother"):
            out = kalman_step(sys_, guess, TrustRegionConfig(lam=1e12, mode=mode))
            assert P.max_abs_diff(out, guess) <= 1e-6

    def test_filter_matches_textbook_predict_update(self):
        """Independent oracle: classical gain-form predict/update recursion."""
        rng = np.random.default_rng(5)
        sys_ = P.models.build("rnn", 20, D=3, g=0.9, seed=5)
        guess = _noisy_guess(sys_, seed=5)
        lam = 0.7
        got = kalman_step(sys_, guess, TrustRegionConfig(lam=lam, mode="filter"))

        ts = np.arange(1, 21)
        prev = guess.prev_states()
        A = sys_.jacobian_batch(ts, prev)
        fvals = sys_.step_batch(ts, prev)
        b = fvals - np.einsum("tij,tj->ti", A, prev)
        mu = sys_.initial_state.copy()
        Sigma = np.zeros((3, 3))
        R = (1.0 / lam) * np.eye(3)
        for t in range(20):
            mu_pred = A[t] @ mu + b[t]
            S_pred = A[t] @ Sigma @ A[t].T + np.eye(3)
            K = S_pred @ np.linalg.inv(S_pred + R)
            mu = mu_pred + K @ (guess.states[t] - mu_pred)
            Sigma = (np.eye(3) - K) @ S_pred @ (np.eye(3) - K).T + K @ R @ K.T
            assert np.max(np.abs(got.states[t] - mu)) <= 1e-10

    def test_effective_transition_damping(self):
        """Every step's filtered transition satisfies
        ||Gamma A||_2 <= ||A||_2 / (1 + lam)."""
        sys_ = P.models.build("rnn", 16, D=4, g=1.5, seed=6)
        guess = _noisy_guess(sys_, seed=6)
        lam = 2.0
        ts = np.arange(1, 17)
        prev = guess.prev_states()
        A = sys_.jacobian_batch(ts, prev)
        b = sys_.step_batch(ts, prev) - np.einsum("tij,tj->ti", A, prev)
        _, sig_post, _ = _forward("dense", A, b, guess.states, sys_.initial_state, lam)
        Sigma = np.zeros((4, 4))
        for t in range(16):
            gamma = attenuation(A[t], Sigma, 1.0 / lam)
            lhs = np.linalg.norm(gamma @ A[t], 2)
            assert lhs <= np.linalg.norm(A[t], 2) / (1.0 + lam) + 1e-10
            Sigma = sig_post[t]

    def test_filter_gain_is_attenuation(self, monkeypatch):
        """On the dense lane at lam = 0.5, whose reciprocal 2 is exact, the
        Gamma_t that ``_forward`` applies equals attenuation(A_t,
        Sigma_post_{t-1}, 1/lam) bit for bit, with Sigma_post_0 = 0. Both come
        from the one ``_gain``: the filter calls it once for its whole stack,
        and attenuation once per step."""
        import parssm.trustregion as tr_mod

        gains, real_gain = [], tr_mod._gain

        def spy(lane, sig_pred, lam):
            gains.append(real_gain(lane, sig_pred, lam))
            return gains[-1]

        monkeypatch.setattr(tr_mod, "_gain", spy)
        lam, T = 0.5, 40
        A, b, emissions, s0 = _lorenz96_linearization(T, "dense")
        _, sig_post, _ = _forward("dense", A, b, emissions, s0, lam)
        [gamma] = gains
        assert gamma.shape == A.shape
        sig_prev = np.concatenate([np.zeros_like(sig_post[:1]), sig_post[:-1]])
        for t in range(T):
            assert np.array_equal(attenuation(A[t], sig_prev[t], 1.0 / lam), gamma[t]), t
        assert len(gains) == 1 + T

    def test_covariance_pass_is_data_independent(self):
        """Permuting the emissions leaves every filtered covariance bitwise
        unchanged: the covariance recursion never touches the data."""
        sys_ = P.models.build("gru", 12, D=3, seed=7)
        guess = _noisy_guess(sys_, seed=7)
        # permute emissions but keep the linearization point identical by
        # permuting only the emission targets, not the expansion trajectory
        ts = np.arange(1, 13)
        prev = guess.prev_states()
        A = sys_.jacobian_batch(ts, prev)
        fvals = sys_.step_batch(ts, prev)
        b = fvals - np.einsum("tij,tj->ti", A, prev)
        means_a, sig_a, _ = _forward("dense", A, b, guess.states, sys_.initial_state, 1.3)
        shuffled = guess.states[::-1].copy()
        _, sig_b, _ = _forward("dense", A, b, shuffled, sys_.initial_state, 1.3)
        np.testing.assert_array_equal(sig_a, sig_b)
        # the filter step is this forward pass
        step = kalman_step(sys_, guess, TrustRegionConfig(lam=1.3))
        np.testing.assert_array_equal(step.states, means_a)

    def test_diagonal_variant_matches_full_on_diagonal_system(self):
        from parssm.models import FunctionSystem

        dvec = np.array([0.6, -0.4])
        sys_ = FunctionSystem(dim=2, horizon=10, initial_state=np.ones(2),
                              step_fn=lambda t, s: dvec * s,
                              jac_fn=lambda t, s: np.diag(dvec),
                              diag_fn=lambda t, s: dvec)
        guess = _noisy_guess(sys_, seed=8)
        full = kalman_step(sys_, guess, TrustRegionConfig(lam=0.9, jacobian="full"))
        diag = kalman_step(sys_, guess, TrustRegionConfig(lam=0.9, jacobian="diagonal"))
        assert P.max_abs_diff(full, diag) <= 1e-12

    @pytest.mark.parametrize("jacobian", ["full", "diagonal"])
    def test_failure_reports_first_bad_step(self, jacobian):
        """A 1e200 I Jacobian at step 6 breaks the covariance pass there, and
        the failure names t = 6, as the sequential recursion did."""
        from parssm.models import FunctionSystem

        W = np.array([[0.5, -0.3, 0.2], [0.1, 0.4, -0.6], [-0.2, 0.3, 0.7]])

        def jac(t, s):
            return 1e200 * np.eye(3) if t == 6 else (1.0 - np.tanh(W @ s) ** 2)[:, None] * W

        sys_ = FunctionSystem(dim=3, horizon=16, initial_state=np.ones(3),
                              step_fn=lambda t, s: np.tanh(W @ s), jac_fn=jac,
                              diag_fn=lambda t, s: np.diag(jac(t, s)).copy())
        guess = P.rollout_sequential(sys_)
        with np.errstate(all="ignore"), pytest.raises(P.NumericalFailure) as err:
            kalman_step(sys_, guess, TrustRegionConfig(lam=1.0, jacobian=jacobian))
        assert err.value.t == 6


def _covariance_stack(steps=(), T=12, D=5):
    """T positive definite D x D covariances, with each (t, M) of ``steps``
    putting M at step t (row t - 1)."""
    M = np.random.default_rng(0).standard_normal((T, D, D))
    sig = np.einsum("tij,tkj->tik", M, M) + np.eye(D)
    for t, mat in steps:
        sig[t - 1] = mat
    return sig


INDEFINITE = np.diag([1.0, 1.0, -1.0, 1.0, 1.0])


class TestCovarianceCheck:
    def test_indefinite_step_is_located(self):
        sig = _covariance_stack([(6, INDEFINITE)])
        with pytest.raises(P.NumericalFailure, match="covariance update went indefinite") as err:
            _check_covariances("dense", sig)
        assert err.value.t == 6

    def test_first_of_two_indefinite_steps(self):
        with pytest.raises(P.NumericalFailure) as err:
            _check_covariances("dense", _covariance_stack([(9, INDEFINITE), (4, -INDEFINITE)]))
        assert err.value.t == 4

    @pytest.mark.parametrize("smallest", [0.0, -1e-12])
    def test_semidefinite_within_tolerance_passes(self, smallest):
        """A Cholesky failure alone is no verdict: eigenvalues at or just
        under zero, within -1e-8 * scale, still pass."""
        _check_covariances("dense", _covariance_stack([(6, np.diag([1.0, 1.0, smallest, 1.0, 1.0]))]))

    def test_eigvalsh_runs_only_when_cholesky_fails(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a):
            calls.append(len(a))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        _check_covariances("dense", _covariance_stack())
        assert calls == []
        with pytest.raises(P.NumericalFailure):
            _check_covariances("dense", _covariance_stack([(6, INDEFINITE)]))
        assert calls == [12]


class TestKalmanSolve:
    def test_converges_on_contracting_system(self):
        """On a contracting system the damped and undamped solvers converge in
        comparable iteration counts."""
        sys_ = P.models.build("rnn", 128, D=8, g=0.7, seed=8)
        oracle = P.rollout_sequential(sys_)
        cfg = SolverConfig(tol=1e-8, init="normal", seed=0, record_history=False)
        damped = kalman_solve(sys_, TrustRegionConfig(lam=0.1, solver=cfg))
        undamped = P.fixed_point_solve(sys_, cfg, NEWTON)
        assert damped.converged
        assert P.max_abs_diff(damped.trajectory, oracle) <= 1e-6
        assert damped.iterations <= 6 * max(1, undamped.iterations)

    def test_lorenz96_tuned_lambda_zero_resets(self):
        """Chaotic rollout: a tuned small lam converges to the sequential
        trajectory with stable iterates (no resets)."""
        sys_ = P.models.build("lorenz96", 400, seed=0)
        oracle = P.rollout_sequential(sys_)
        cfg = TrustRegionConfig(lam=0.01, solver=SolverConfig(
            tol=1e-6, init="normal", seed=0, max_iters=1200, record_history=False))
        rep = kalman_solve(sys_, cfg)
        mad = float(np.mean(np.abs(rep.trajectory.states - oracle.states)))
        assert rep.converged and rep.resets == 0
        assert mad <= 1e-4

    def test_oversized_lambda_slows_convergence(self):
        """Needlessly small trust regions take needlessly small steps."""
        sys_ = P.models.build("gru", 64, D=4, seed=9)
        base = SolverConfig(tol=1e-8, init="normal", seed=1, max_iters=2000,
                            record_history=False)
        fast = kalman_solve(sys_, TrustRegionConfig(lam=0.01, solver=base))
        slow = kalman_solve(sys_, TrustRegionConfig(lam=100.0, solver=base))
        assert fast.converged
        assert slow.iterations > 5 * fast.iterations


    @pytest.mark.parametrize("lam", [0.5, 1.0, 10.0])
    def test_default_budget_covers_lorenz96(self, lam):
        """With ``max_iters`` unset, Lorenz-96 at T=8 converges at every lam
        (it needs 41, 60 and 320 passes). The budget never falls below the
        earlier T + ceil((ln(1/tol) + ln(1 + T)) / ln(1 + 1/lam)) + 8, which
        gave 31, 40 and 185 here, so a solve that converged under that
        budget takes the same passes under this one."""
        sys_ = P.models.build("lorenz96", 8, seed=1)
        rep = kalman_solve(sys_, TrustRegionConfig(lam=lam, solver=SolverConfig(
            tol=1e-6, init="normal", seed=1, record_history=False)))
        assert rep.converged
        # the pass difference understates the error by about 1 + lam
        assert P.max_abs_diff(rep.trajectory, P.rollout_sequential(sys_)) <= 20 * (1 + lam) * 1e-6
        T = np.arange(1, 1001)
        for grid_lam in (0.01, 0.1, 0.5, 1.0, 10.0):
            for tol in (1e-4, 1e-6, 1e-8):
                old = T + np.ceil((np.log(1.0 / tol) + np.log1p(T)) / np.log1p(1.0 / grid_lam)) + 8
                new = [_default_max_iters(int(t), grid_lam, tol) for t in T]
                assert np.all(new >= old), (grid_lam, tol)

    def test_default_budget_without_damping_is_T(self):
        assert _default_max_iters(37, 0.0, 1e-8) == 37


class TestLmStepDense:
    def test_guard(self):
        sys_ = P.models.build("rnn", 3000, D=2, g=0.8, seed=0)
        with pytest.raises(P.ContractError):
            lm_step_dense(sys_, P.rollout_sequential(sys_), 1.0)
