"""Fixed-point solver loop: linearization, convergence, damping, windowing."""

import numpy as np
import pytest

import parssm as P
from parssm.fixedpoint import (FRONT_BLOCK, JACOBI, NEWTON, PICARD, QUASI_DIAGONAL,
                               Damping, SolverConfig, SolverMethod, fixed_point_solve,
                               jacobi_init, linearize, prefix_lock_check,
                               scaled_identity)
from parssm.pscan import evaluate_lds


class TestMethodAndDampingTypes:
    def test_method_parse(self):
        assert SolverMethod.parse("newton") == NEWTON
        assert SolverMethod.parse("scaled:0.4").coeff == pytest.approx(0.4)
        with pytest.raises(P.ContractError):
            SolverMethod.parse("newton:1.0")
        with pytest.raises(P.ContractError):
            SolverMethod("scaled")

    def test_damping_validation(self):
        with pytest.raises(P.ContractError):
            Damping.scale(1.5)
        with pytest.raises(P.ContractError):
            Damping.clip(0.5, 1.0)  # needs lo <= 0
        assert Damping.parse("clip:-0.8:0.8").hi == pytest.approx(0.8)


class TestLinearize:
    def test_newton_exact_on_linear_dynamics(self):
        """For affine f the linearization is exact: one LDS evaluation
        reproduces the rollout from any expansion point."""
        sys_ = P.models.build("s5", 32, seed=0)
        rng = np.random.default_rng(1)
        guess = P.Trajectory(sys_.initial_state, rng.standard_normal((32, 5)))
        ops = linearize(sys_, guess, NEWTON)
        tr = evaluate_lds(ops, sys_.initial_state)
        np.testing.assert_allclose(tr.states, P.rollout_sequential(sys_).states, atol=1e-12)

    def test_picard_reduces_to_cumulative_form(self):
        """Identity transitions turn the update into a prefix sum of
        increments, the cumulative form of the derivative-free iteration."""
        sys_ = P.models.build("twowell", 16, seed=2)
        rng = np.random.default_rng(3)
        guess = P.Trajectory(sys_.initial_state, rng.standard_normal((16, 2)))
        ops = linearize(sys_, guess, PICARD)
        assert all(op.A.kind == "identity" for op in ops)
        got = evaluate_lds(ops, sys_.initial_state).states
        prev = guess.prev_states()
        increments = sys_.step_batch(np.arange(1, 17), prev) - prev
        expected = sys_.initial_state[None, :] + np.cumsum(increments, axis=0)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_jacobi_is_direct_map(self):
        sys_ = P.models.build("gru", 12, D=3, seed=4)
        rng = np.random.default_rng(5)
        guess = P.Trajectory(sys_.initial_state, rng.standard_normal((12, 3)))
        ops = linearize(sys_, guess, JACOBI)
        assert all(op.A.kind == "zero" for op in ops)
        got = evaluate_lds(ops, sys_.initial_state).states
        expected = sys_.step_batch(np.arange(1, 13), guess.prev_states())
        np.testing.assert_array_equal(got, expected)

    def test_scale_damping_shrinks_transitions(self):
        sys_ = P.models.build("rnn", 10, D=4, g=1.2, seed=0)
        tr = P.rollout_sequential(sys_)
        plain = linearize(sys_, tr, NEWTON)
        damped = linearize(sys_, tr, NEWTON, Damping.scale(0.3))
        for p, d in zip(plain, damped):
            np.testing.assert_allclose(d.A.matrix(4), 0.7 * p.A.matrix(4), rtol=1e-14)
            assert np.linalg.norm(d.A.matrix(4), 2) <= np.linalg.norm(p.A.matrix(4), 2) + 1e-14

    def test_clip_damping_diagonal_only(self):
        sys_ = P.models.build("gru", 10, D=4, seed=1)
        tr = P.rollout_sequential(sys_)
        clipped = linearize(sys_, tr, QUASI_DIAGONAL, Damping.clip(-0.5, 0.5))
        for op in clipped:
            assert np.all(op.A.value >= -0.5) and np.all(op.A.value <= 0.5)
        for bad_method in (NEWTON, PICARD, JACOBI, scaled_identity(0.3)):
            with pytest.raises(P.ContractError):
                linearize(sys_, tr, bad_method, Damping.clip())

    def test_overflowed_rows_linearized_at_reset_value(self):
        sys_ = P.models.build("lorenz96", 6, seed=0)
        states = np.ones((6, 5))
        states[3] = np.inf
        states[4] = 1e200  # finite but squares overflow
        ops = linearize(sys_, P.Trajectory(sys_.initial_state, states), NEWTON)
        for op in ops:
            assert np.all(np.isfinite(op.A.matrix(5)))
            assert np.all(np.isfinite(op.b))


class TestJacobiInit:
    def test_equals_one_zero_transition_step(self):
        sys_ = P.models.build("gru", 20, D=4, seed=6)
        warm = jacobi_init(sys_)
        expected = sys_.step_batch(np.arange(1, 21), np.zeros((20, 4)))
        np.testing.assert_array_equal(warm.states, expected)

    def test_affine_with_inputs_returns_inputs(self):
        u = np.arange(1.0, 9.0)
        sys_ = P.models.build("affine", 8, alpha=0.5, inputs=u)
        np.testing.assert_array_equal(jacobi_init(sys_).states.ravel(), u)


class TestFixedPointSolve:
    def test_one_newton_iteration_on_linear_dynamics(self):
        for T in (10, 100):
            sys_ = P.models.build("s5", T, seed=7)
            rep = fixed_point_solve(sys_, SolverConfig(tol=1e-18, metric="merit"), NEWTON)
            assert rep.converged and rep.iterations == 1

    def test_jacobi_error_contracts_at_alpha(self):
        """Scalar geometric dynamics: the error norm shrinks by alpha per
        iteration (up to an O(1/T) shift effect), i.e. the log10 error decays
        with slope log10(alpha)."""
        alpha = 0.5
        sys_ = P.models.build("affine", 300, alpha=alpha)
        cfg = SolverConfig(tol=1e-12, init="normal", seed=0, record_iterates=True)
        rep = fixed_point_solve(sys_, cfg, JACOBI)
        oracle = P.rollout_sequential(sys_)
        errs = np.array([np.linalg.norm(it - oracle.states) for it in rep.iterates])
        errs = errs[errs > 1e-10]
        ratios = errs[1:] / errs[:-1]
        np.testing.assert_allclose(ratios, alpha, rtol=0.02)
        slope = np.polyfit(np.arange(len(errs)), np.log10(errs), 1)[0]
        assert slope == pytest.approx(np.log10(alpha), rel=0.005)

    @pytest.mark.parametrize("method", [NEWTON, QUASI_DIAGONAL, PICARD, JACOBI,
                                        scaled_identity(0.2)])
    def test_global_convergence_from_random_init(self, method):
        sys_ = P.models.build("gru", 96, D=6, seed=8)
        cfg = SolverConfig(tol=1e-10, init="normal", seed=1)
        rep = fixed_point_solve(sys_, cfg, method)
        assert rep.converged and rep.iterations <= 96
        assert P.max_abs_diff(rep.trajectory, P.rollout_sequential(sys_)) <= 1e-8

    def test_merit_metric_flag(self):
        sys_ = P.models.build("gru", 32, D=4, seed=9)
        rep = fixed_point_solve(sys_, SolverConfig(tol=1e-18, metric="merit"), NEWTON)
        assert rep.converged
        assert P.merit(sys_, rep.trajectory) / 32 <= 1e-18

    def test_reset_heuristic_counts_and_recovers(self):
        """A chaotic rollout overflows intermediate Newton iterates; resets
        keep the solve alive and it still lands on the oracle."""
        sys_ = P.models.build("lorenz96", 128, seed=1)
        rep = fixed_point_solve(sys_, SolverConfig(tol=1e-10, init="normal", seed=0), NEWTON)
        assert rep.converged
        assert rep.resets > 0
        assert P.max_abs_diff(rep.trajectory, P.rollout_sequential(sys_)) <= 1e-7

    def test_histories_recorded(self):
        sys_ = P.models.build("gru", 16, D=3, seed=2)
        rep = fixed_point_solve(sys_, SolverConfig(tol=1e-8, record_history=True), QUASI_DIAGONAL)
        assert len(rep.diff_history) == rep.iterations
        assert len(rep.merit_history) == rep.iterations
        assert rep.diff_history[-1] <= 1e-8
        assert rep.merit_history[-1] <= rep.merit_history[0]

    def test_window_matches_full_solve(self):
        """A sliding window converges to the same trajectory, left to right."""
        sys_ = P.models.build("gru", 60, D=4, seed=3)
        full = fixed_point_solve(sys_, SolverConfig(tol=1e-10), NEWTON)
        windowed = fixed_point_solve(sys_, SolverConfig(tol=1e-10, window=16, max_iters=600), NEWTON)
        assert windowed.converged
        assert P.max_abs_diff(windowed.trajectory, full.trajectory) <= 1e-8

    def test_window_validation(self):
        sys_ = P.models.build("affine", 8, alpha=0.5)
        with pytest.raises(P.ContractError):
            fixed_point_solve(sys_, SolverConfig(window=9), NEWTON)

    def test_quasi_diagonal_equals_diag_embedded_in_dense(self):
        """The diagonal-lane iteration equals the same iteration with the
        diagonal embedded in a dense transition."""
        sys_ = P.models.build("gru", 24, D=4, seed=5)
        rng = np.random.default_rng(6)
        guess = P.Trajectory(sys_.initial_state, rng.standard_normal((24, 4)))
        ops = linearize(sys_, guess, QUASI_DIAGONAL)
        via_diag = evaluate_lds(ops, sys_.initial_state)
        dense_ops = [P.AffineOp(P.Transition.dense(np.diag(op.A.value)), op.b) for op in ops]
        via_dense = evaluate_lds(dense_ops, sys_.initial_state)
        assert P.max_abs_diff(via_diag, via_dense) <= 1e-10


class TestPrefixLocking:
    def test_counts_nondecreasing_and_at_least_iteration(self):
        sys_ = P.models.build("gru", 48, D=4, seed=10)
        oracle = P.rollout_sequential(sys_)
        cfg = SolverConfig(tol=1e-12, init="normal", seed=2, record_iterates=True)
        for method in (NEWTON, JACOBI, QUASI_DIAGONAL):
            rep = fixed_point_solve(sys_, cfg, method)
            counts = prefix_lock_check(rep.iterates, oracle, tol=1e-8)
            assert all(b >= a for a, b in zip(counts, counts[1:]))
            for i, c in enumerate(counts, start=1):
                assert c >= min(i, 48)

    def test_maximally_sensitive_chain_locks_one_per_iteration(self):
        """A three-step chain whose dynamics forget nothing locks exactly one
        new step per zero-transition iteration."""
        sys_ = P.models.build("s5", 3, seed=11)
        oracle = P.rollout_sequential(sys_)
        cfg = SolverConfig(tol=1e-18, metric="merit", init="normal", seed=3,
                           record_iterates=True)
        rep = fixed_point_solve(sys_, cfg, JACOBI)
        counts = prefix_lock_check(rep.iterates, oracle, tol=1e-8)
        assert counts == [1, 2, 3]

    def test_iteration_T_gives_full_agreement(self):
        sys_ = P.models.build("s5", 40, seed=12)
        cfg = SolverConfig(tol=1e-18, metric="merit", init="normal", seed=4)
        rep = fixed_point_solve(sys_, cfg, PICARD)
        assert rep.converged and rep.iterations <= 40
        assert P.max_abs_diff(rep.trajectory, P.rollout_sequential(sys_)) == 0.0


def _spy_step_batch(sys_):
    """Record the row count of every ``step_batch`` call on this instance."""
    calls = []
    inner = sys_.step_batch

    def spy(ts, S):
        calls.append(len(ts))
        return inner(ts, S)

    sys_.step_batch = spy
    return calls


class TestCausalFront:
    """The exact prefix leaves the active set, and f is evaluated once per pass."""

    @pytest.mark.parametrize("method", [JACOBI, PICARD, QUASI_DIAGONAL])
    def test_suffix_merit_equals_full_merit(self, method):
        for seed in range(3):
            sys_ = P.models.build("s5", 200, seed=seed)
            cfg = SolverConfig(tol=1e-18, metric="merit", record_iterates=True)
            rep = fixed_point_solve(sys_, cfg, method)
            assert rep.converged
            assert len(rep.merit_history) == len(rep.iterates) == rep.iterations
            for m, it in zip(rep.merit_history, rep.iterates):
                assert m == P.merit(sys_, P.Trajectory(sys_.initial_state, it))

    @pytest.mark.parametrize("method", [JACOBI, PICARD, QUASI_DIAGONAL, NEWTON])
    def test_each_pass_evaluates_f_once_on_rows_past_the_front(self, method):
        T = 120
        sys_ = P.models.build("s5", T, seed=4)
        oracle = P.rollout_sequential(sys_)
        calls = _spy_step_batch(sys_)
        cfg = SolverConfig(tol=1e-18, metric="merit", init="normal", seed=5,
                           record_iterates=True)
        rep = fixed_point_solve(sys_, cfg, method)
        assert rep.converged
        np.testing.assert_array_equal(rep.trajectory.states, oracle.states)
        # on S5 the zero-residual prefix is the prefix equal to the rollout
        fronts = prefix_lock_check(rep.iterates, oracle, tol=0.0)
        frozen = [c if c == T else c - c % FRONT_BLOCK for c in fronts]
        # pass 1 linearizes and takes the residual; every later pass only
        # takes the residual, on the rows past the prefix frozen before it
        assert calls == [T, T] + [T - f for f in frozen[:-1]]
        for i, c in enumerate(fronts):
            for later in rep.iterates[i + 1:]:
                np.testing.assert_array_equal(later[:c], rep.iterates[i][:c])

    @pytest.mark.parametrize("method", [NEWTON, QUASI_DIAGONAL])
    def test_empty_pass_counts_and_evaluates_nothing(self, method):
        sys_ = P.models.build("affine", 16, alpha=0.5)
        calls = _spy_step_batch(sys_)
        rep = fixed_point_solve(sys_, SolverConfig(), method)
        assert rep.converged and rep.iterations == 2
        assert rep.diff_history[1] == 0.0 and rep.merit_history[1] == 0.0
        assert calls == [16, 16, 16]  # the Jacobi guess, then pass 1; pass 2 has no rows

    def test_reset_pass_evaluates_f_afresh(self, monkeypatch):
        """Pass 1 and every pass after a reset linearize without reused
        values; every other pass reuses f at exactly its current rows."""
        import parssm.fixedpoint as fp

        sys_ = P.models.build("lorenz96", 128, seed=1)
        seen = []
        inner = fp._linearize_stacked

        def spy(system, prev, ts, method, damping, fvals=None):
            if fvals is not None:
                np.testing.assert_array_equal(fvals, system.step_batch(ts, prev))
            seen.append(fvals is None)
            return inner(system, prev, ts, method, damping, fvals)

        monkeypatch.setattr(fp, "_linearize_stacked", spy)
        cfg = SolverConfig(tol=1e-10, init="normal", seed=0, record_iterates=True)
        rep = fixed_point_solve(sys_, cfg, NEWTON)
        assert rep.converged and rep.resets > 0
        after_reset = [not np.all(np.isfinite(it)) for it in rep.iterates[:-1]]
        assert sum(after_reset) == rep.resets
        assert seen == [True] + after_reset[:len(seen) - 1]

    def test_reused_values_skip_rows_sent_to_reset(self):
        from parssm.fixedpoint import _linearize_stacked

        sys_ = P.models.build("lorenz96", 6, seed=0)
        ts = np.arange(1, 7)
        prev = np.ones((6, 5))
        prev[2] = 1e200
        fvals = sys_.step_batch(ts, prev)
        fvals[2] = 7.0  # finite, so only the overflow guard can catch the row
        given = fvals.copy()
        _, A, b = _linearize_stacked(sys_, prev, ts, NEWTON, Damping.none(), fvals)
        _, A_fresh, b_fresh = _linearize_stacked(sys_, prev, ts, NEWTON, Damping.none())
        np.testing.assert_array_equal(A, A_fresh)
        np.testing.assert_array_equal(b, b_fresh)
        np.testing.assert_array_equal(fvals, given)  # the caller's array is not written

    def test_windowed_solve_without_history_evaluates_f_on_its_chunk(self):
        sys_ = P.models.build("gru", 200, D=4, seed=3)
        calls = _spy_step_batch(sys_)
        cfg = SolverConfig(tol=1e-10, window=20, record_history=False, max_iters=2000)
        rep = fixed_point_solve(sys_, cfg, NEWTON)
        assert rep.converged
        assert calls[0] == 200 and max(calls[1:]) <= 20  # after the Jacobi guess

    @pytest.mark.parametrize("method", [QUASI_DIAGONAL, PICARD, JACOBI, NEWTON])
    def test_windowed_s5_matches_oracle(self, method):
        sys_ = P.models.build("s5", 200, seed=1)
        cfg = SolverConfig(tol=1e-18, metric="merit", window=32, init="normal", seed=1)
        rep = fixed_point_solve(sys_, cfg, method)
        assert rep.converged and rep.iterations <= 200
        np.testing.assert_array_equal(rep.trajectory.states, P.rollout_sequential(sys_).states)

