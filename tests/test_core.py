"""Core types, the sequential oracle, and objective plumbing."""

import numpy as np
import pytest

import parssm as P
from parssm.models import FunctionSystem, ScalarAffine


class TestTrajectory:
    def test_shape_validation(self):
        with pytest.raises(P.ContractError):
            P.Trajectory(np.zeros(2), np.zeros((4, 3)))
        with pytest.raises(P.ContractError):
            P.Trajectory(np.zeros(2), np.zeros((0, 2)))

    def test_nonfinite_rows_allowed(self):
        """Intermediate iterates may overflow; finiteness is not an invariant."""
        tr = P.Trajectory(np.zeros(2), np.array([[np.inf, 1.0], [0.0, np.nan]]))
        assert tr.horizon == 2

    def test_nonfinite_initial_rejected(self):
        with pytest.raises(P.ContractError):
            P.Trajectory(np.array([np.nan]), np.zeros((2, 1)))

    def test_prev_states(self):
        tr = P.Trajectory(np.array([9.0]), np.array([[1.0], [2.0], [3.0]]))
        np.testing.assert_array_equal(tr.prev_states().ravel(), [9.0, 1.0, 2.0])


class TestRolloutSequential:
    def test_scalar_affine_geometric(self):
        sys_ = ScalarAffine(alpha=0.5, T=3, s0=1.0)
        tr = P.rollout_sequential(sys_)
        np.testing.assert_allclose(tr.states.ravel(), [0.5, 0.25, 0.125])

    def test_s5_matches_permutation_fold(self):
        """Rollout equals a brute-force left fold of the permutations."""
        sys_ = P.models.build("s5", 40, seed=3)
        tr = P.rollout_sequential(sys_)
        s = sys_.initial_state.copy()
        for t in range(1, 41):
            s = sys_.permutation_matrix(t) @ s
            np.testing.assert_array_equal(tr.states[t - 1], s)

    def test_divergence_propagates(self):
        sys_ = ScalarAffine(alpha=1e200, T=4, s0=1.0)
        tr = P.rollout_sequential(sys_)
        assert not np.isfinite(tr.states[-1, 0])


class TestResidual:
    def test_zero_at_rollout(self):
        for kind, params in [("affine", dict(alpha=0.7)), ("gru", dict(D=4)),
                             ("twowell", {}), ("s5", {})]:
            sys_ = P.models.build(kind, 64, seed=1, **params)
            r = P.residual(sys_, P.rollout_sequential(sys_))
            assert np.max(np.abs(r)) <= 1e-12 * max(1.0, np.max(np.abs(P.rollout_sequential(sys_).states)))

    def test_hand_computed(self):
        """alpha=2, all-ones trajectory, s0=1: r_t = 1 - 2 = -1 for all t."""
        sys_ = ScalarAffine(alpha=2.0, T=5, s0=1.0)
        tr = P.Trajectory(sys_.initial_state, np.ones((5, 1)))
        np.testing.assert_allclose(P.residual(sys_, tr), -1.0)

    def test_matches_entrywise_loop(self):
        rng = np.random.default_rng(0)
        sys_ = P.models.build("rnn", 20, D=5, g=0.9, seed=2)
        tr = P.Trajectory(sys_.initial_state, rng.standard_normal((20, 5)))
        r = P.residual(sys_, tr)
        prev = sys_.initial_state
        for t in range(1, 21):
            np.testing.assert_allclose(r[t - 1], tr.states[t - 1] - sys_.step(t, prev), atol=0)
            prev = tr.states[t - 1]

    def test_dim_mismatch(self):
        sys_ = ScalarAffine(alpha=1.0, T=4)
        with pytest.raises(P.ContractError):
            P.residual(sys_, P.Trajectory(np.zeros(2), np.zeros((4, 2))))


class TestMerit:
    def test_zero_at_solution(self):
        sys_ = P.models.build("gru", 32, D=4, seed=0)
        scale = max(1.0, float(np.max(np.abs(P.rollout_sequential(sys_).states))) ** 2)
        assert P.merit(sys_, P.rollout_sequential(sys_)) <= 1e-20 * scale

    def test_hand_computed(self):
        sys_ = ScalarAffine(alpha=2.0, T=4, s0=1.0)
        tr = P.Trajectory(sys_.initial_state, np.ones((4, 1)))
        assert P.merit(sys_, tr) == pytest.approx(2.0)

    def test_equals_flatten_dot_oracle(self):
        rng = np.random.default_rng(5)
        sys_ = P.models.build("rnn", 16, D=3, g=1.1, seed=5)
        tr = P.Trajectory(sys_.initial_state, rng.standard_normal((16, 3)))
        r = P.residual(sys_, tr).ravel()
        assert P.merit(sys_, tr) == pytest.approx(0.5 * float(r @ r), rel=1e-14)

    def test_nonfinite_gives_inf(self):
        sys_ = ScalarAffine(alpha=1.0, T=3)
        tr = P.Trajectory(sys_.initial_state, np.array([[1.0], [np.inf], [0.0]]))
        assert P.merit(sys_, tr) == float("inf")


class TestMaxAbsDiff:
    def test_identical(self):
        tr = P.rollout_sequential(ScalarAffine(alpha=0.3, T=8))
        assert P.max_abs_diff(tr, tr) == 0.0

    def test_single_entry(self):
        a = P.Trajectory(np.zeros(2), np.zeros((3, 2)))
        b = a.copy()
        b.states[1, 0] = 0.3
        assert P.max_abs_diff(a, b) == pytest.approx(0.3)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal((6, 4)), rng.standard_normal((6, 4))
        expected = max(abs(x[i, j] - y[i, j]) for i in range(6) for j in range(4))
        assert P.max_abs_diff(x, y) == pytest.approx(expected)

    def test_shape_mismatch(self):
        with pytest.raises(P.ContractError):
            P.max_abs_diff(np.zeros((3, 2)), np.zeros((2, 3)))


class TestJacobianConsistency:
    """Analytic Jacobians agree with the central-difference oracle."""

    @pytest.mark.parametrize("kind,params", [
        ("affine", dict(alpha=0.8)), ("rnn", dict(D=6, g=1.2)),
        ("gru", dict(D=5)), ("twowell", {}), ("s5", {}), ("logistic", dict(r=3.7)),
    ])
    def test_fd_agreement(self, kind, params):
        from parssm.jacutils import fd_jacobian

        sys_ = P.models.build(kind, 50, seed=7, **params)
        rng = np.random.default_rng(11)
        for _ in range(100):
            t = int(rng.integers(1, 51))
            s = rng.uniform(-1.5, 1.5, sys_.dim)
            if kind == "logistic":
                s = rng.uniform(0.05, 0.95, 1)
            a = sys_.jacobian(t, s)
            fd = fd_jacobian(sys_, t, s, h=1e-6)
            scale = max(1.0, float(np.max(np.abs(a))))
            assert np.max(np.abs(a - fd)) <= 1e-5 * scale


class TestCurrying:
    def test_curried_inputs_bitwise(self):
        """A system over inputs u and the pre-curried f_t roll out identically."""
        rng = np.random.default_rng(4)
        u = rng.standard_normal(30)
        with_inputs = ScalarAffine(alpha=0.9, T=30, inputs=u, s0=0.5)
        curried = FunctionSystem(
            dim=1, horizon=30, initial_state=[0.5],
            step_fn=lambda t, s: 0.9 * s + u[t - 1],
        )
        a = P.rollout_sequential(with_inputs).states
        b = P.rollout_sequential(curried).states
        np.testing.assert_array_equal(a, b)

    def test_batch_and_scalar_step_agree(self):
        """Batched and single-row paths agree to the last few ulps (BLAS may
        pick different kernels per shape, so exact bit equality is not
        guaranteed; the residual-at-rollout invariant covers what matters).
        Covers step, jacobian and diag_jacobian over every zoo kind."""
        for kind, params in [("affine", dict(alpha=0.7)), ("gru", dict(D=4)),
                             ("rnn", dict(D=4, g=1.0)), ("lorenz96", {}), ("twowell", {}),
                             ("s5", {}), ("logistic", dict(r=3.7))]:
            sys_ = P.models.build(kind, 12, seed=2, **params)
            rng = np.random.default_rng(9)
            S = rng.standard_normal((12, sys_.dim))
            ts = np.arange(1, 13)
            for single, batched in [(sys_.step, sys_.step_batch),
                                    (sys_.jacobian, sys_.jacobian_batch),
                                    (sys_.diag_jacobian, sys_.diag_jacobian_batch)]:
                batch = batched(ts, S)
                rows = np.stack([single(int(t), s) for t, s in zip(ts, S)])
                np.testing.assert_allclose(batch, rows, rtol=1e-13, atol=1e-13,
                                           err_msg=f"{kind}.{single.__name__}")


class TanhMap(P.DynamicsSystem):
    """s_{t+1} = tanh(W s_t + b_t), defining nothing but step_batch."""

    diag_seed = 17

    def __init__(self, D=4, T=64, seed=0):
        rng = np.random.default_rng(seed)
        self.dim, self.horizon = D, T
        self.W = 0.5 * rng.standard_normal((D, D)) / np.sqrt(D)
        self.b = 0.1 * rng.standard_normal((T, D))
        self.initial_state = rng.standard_normal(D)

    def step_batch(self, ts, S):
        return np.tanh(S @ self.W.T + self.b[np.asarray(ts) - 1])


class TestBatchFirstContract:
    """A subclass that implements only step_batch gets every other form."""

    def test_single_row_jacobian_is_the_fd_oracle(self):
        from parssm.jacutils import fd_jacobian

        sys_ = TanhMap()
        rng = np.random.default_rng(1)
        for t in (1, 7, 64):
            s = rng.standard_normal(sys_.dim)
            np.testing.assert_array_equal(sys_.jacobian(t, s), fd_jacobian(sys_, t, s))
            np.testing.assert_array_equal(sys_.step(t, s), np.tanh(sys_.W @ s + sys_.b[t - 1]))

    def test_diag_default_is_hutchinson_seeded_by_diag_seed(self):
        from parssm.jacutils import hutchinson_diag_batch

        sys_ = TanhMap()
        ts = np.arange(1, 65)
        S = np.random.default_rng(2).standard_normal((64, sys_.dim))
        np.testing.assert_array_equal(
            sys_.diag_jacobian_batch(ts, S),
            hutchinson_diag_batch(sys_, ts, S, n=sys_.diag_samples, seed_base=sys_.diag_seed))

    @pytest.mark.parametrize("method", [P.NEWTON, P.QUASI_DIAGONAL])
    def test_solvers_converge_to_rollout(self, method):
        sys_ = TanhMap()
        oracle = P.rollout_sequential(sys_)
        rep = P.fixed_point_solve(sys_, P.SolverConfig(tol=1e-10), method)
        assert rep.converged
        assert P.max_abs_diff(rep.trajectory, oracle) <= 1e-8

    def test_defaults_and_rollout_resolve_at_call_time(self, monkeypatch):
        """Tracing wraps jacutils' batch functions as module attributes and a
        system's step as an instance attribute; the defaults and the rollout
        must look them up per call, not bind them at import."""
        from parssm import jacutils

        calls = []

        def spy(name):
            real = getattr(jacutils, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("fd_jacobian_batch", "hutchinson_diag_batch"):
            monkeypatch.setattr(jacutils, name, spy(name))
        sys_ = P.models.build("lorenz96", 8, seed=0)
        ts = np.arange(1, 9)
        S = np.random.default_rng(3).standard_normal((8, sys_.dim))
        sys_.jacobian_batch(ts, S)
        sys_.diag_jacobian_batch(ts, S)
        assert calls == ["fd_jacobian_batch", "hutchinson_diag_batch"]

        steps = []
        real_step = sys_.step
        sys_.step = lambda t, s: steps.append(t) or real_step(t, s)
        P.rollout_sequential(sys_)
        assert steps == list(range(1, 9))
