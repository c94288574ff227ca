"""Fixed-point solver loop: linearization, convergence, damping, causal front."""

import numpy as np
import pytest

import parssm as P
import parssm.fixedpoint as fp
from parssm.fixedpoint import (FRONT_BLOCK, JACOBI, NEWTON, NO_DAMPING, OVERFLOW_GUARD,
                               PICARD, QUASI_DIAGONAL, Damping, SolverConfig, SolverMethod,
                               _linearize_stacked, _method_transitions, fixed_point_solve,
                               jacobi_init, linearize, prefix_lock_check)
from parssm.pscan import ZERO, evaluate_lds, lane_apply


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

    @pytest.mark.parametrize("make, kwargs", [
        (SolverConfig, dict(tol="1e-8")), (SolverConfig, dict(tol=True)),
        (SolverConfig, dict(max_iters="100")), (SolverMethod, dict(kind="scaled", coeff="0.5")),
        (Damping, dict(kind="scale", k="0.3")), (Damping, dict(kind="clip", lo="a")),
    ])
    def test_settings_must_be_numbers(self, make, kwargs):
        with pytest.raises(P.ContractError, match="must be a real number"):
            make(**kwargs)

    @pytest.mark.parametrize("make, args", [
        (Damping.scale, (True,)), (Damping.scale, ("0.3",)), (Damping.clip, ("-1", 1)),
        (Damping.clip, (-1.0, True)),
    ], ids=["scale-true", "scale-string", "clip-string", "clip-true"])
    def test_shortcuts_check_what_they_are_given(self, make, args):
        """A shortcut hands its numbers to ``Damping`` as given: True is not
        k = 1.0, which would zero every transition, and "0.3" is not 0.3."""
        with pytest.raises(P.ContractError, match="must be a real number"):
            make(*args)

    @pytest.mark.parametrize("make, args, message", [
        (SolverMethod, ("bogus",), "unknown solver method 'bogus'"),
        (SolverMethod, ("scaled", float("nan")), "coefficient must be finite, got nan"),
        (SolverMethod, ("newton", 0.5), "method 'newton' takes no coefficient"),
        (Damping, ("bogus",), "unknown damping 'bogus'"),
    ], ids=["unknown-method", "nan-coefficient", "stray-coefficient", "unknown-damping"])
    def test_kinds_and_coefficients(self, make, args, message):
        with pytest.raises(P.ContractError, match=message):
            make(*args)

    @pytest.mark.parametrize("flag", ["record_history", "record_iterates"])
    @pytest.mark.parametrize("value", ["false", "no", 0, 1, None])
    def test_record_flags_must_be_booleans(self, flag, value):
        with pytest.raises(P.ContractError, match=f"{flag} must be true or false"):
            SolverConfig(**{flag: value})

    @pytest.mark.parametrize("damping", ["scale:0.3", None, 0.3])
    def test_damping_must_be_a_damping(self, damping):
        """A damping string is parsed by ``Damping.parse``, not read by a pass."""
        with pytest.raises(P.ContractError, match="damping must be a Damping"):
            SolverConfig(damping=damping)

    @pytest.mark.parametrize("seed", [1.5, -1, True])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(P.ContractError, match="seed"):
            SolverConfig(seed=seed, init="normal")


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

    @pytest.mark.parametrize("method,damping,kind,coeff", [
        (SolverMethod("scaled", 0.5), NO_DAMPING, "scaled", 0.5),
        (PICARD, Damping.scale(0.3), "scaled", 1.0 * (1.0 - 0.3)),
        (SolverMethod("scaled", 0.0), NO_DAMPING, "zero", None),
        (PICARD, NO_DAMPING, "identity", None),
        (QUASI_DIAGONAL, NO_DAMPING, "diagonal", None),
        (NEWTON, NO_DAMPING, "dense", None),
    ], ids=["scaled:0.5", "picard+scale:0.3", "scaled:0", "picard", "quasi", "newton"])
    def test_transition_class_per_method(self, method, damping, kind, coeff):
        """Each method's A~_t comes back in its own class: the scaled family
        as ScaledIdentity of its coefficient, Zero at 0 and Identity at 1."""
        sys_ = P.models.build("gru", 8, D=3, seed=1)
        ops = linearize(sys_, P.rollout_sequential(sys_), method, damping)
        assert {op.A.kind for op in ops} == {kind}
        if coeff is not None:
            assert all(type(op.A.value) is float and op.A.value == coeff for op in ops)

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
        for bad_method in (NEWTON, PICARD, JACOBI, SolverMethod("scaled", 0.3)):
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


class MarkedExp(P.DynamicsSystem):
    """f_t(s) = exp(s)/2 + t/10 elementwise. f overflows past s = 710, and the
    Jacobian (and its diagonal) reads NaN on rows with s_2 < -50, where f is
    finite, so each of the three per-row guards can be set off on its own."""

    def __init__(self, T):
        self.dim, self.horizon, self.initial_state = 2, T, np.zeros(2)

    def step_batch(self, ts, S):
        return 0.5 * np.exp(S) + 0.1 * np.asarray(ts)[:, None]

    def diag_jacobian_batch(self, ts, S, F=None):
        d = 0.5 * np.exp(S)
        d[S[:, 1] < -50.0] = np.nan
        return d

    def jacobian_batch(self, ts, S, F=None):
        out = np.zeros((len(S), 2, 2))
        out[:, [0, 1], [0, 1]] = self.diag_jacobian_batch(ts, S)
        return out


def _flagged_rows(prev, fvals):
    """Reference row rule: f is not finite, or the predecessor has an entry
    past the guard or NaN."""
    return ~np.all(np.isfinite(fvals), axis=1) | ~np.all(np.abs(prev) <= OVERFLOW_GUARD, axis=1)


def _linearize_per_row(sys_, prev, ts, method, damping, fvals=None):
    """Reference guards, each reckoned per row."""
    with np.errstate(all="ignore"):
        fvals = sys_.step_batch(ts, prev) if fvals is None else fvals
        bad = _flagged_rows(prev, fvals)
        if bad.any():
            prev = np.where(bad[:, None], 0.0, prev)
            fvals = fvals.copy()
            fvals[bad] = sys_.step_batch(ts[bad], np.zeros((int(bad.sum()), prev.shape[1])))
        lane, A = _method_transitions(sys_, ts, prev, method, damping, F=fvals)
        if A is not None:
            abad = ~np.all(np.isfinite(A.reshape(len(ts), -1)), axis=1)
            if abad.any():
                zeros = np.zeros((int(abad.sum()), prev.shape[1]))
                A[abad] = _method_transitions(sys_, ts[abad], zeros, method, damping)[1]
        b = fvals if lane == ZERO else fvals - lane_apply(lane, A, prev)
    return lane, A, b


# row of prev -> what it sets off: |s| past the guard (with f finite or not),
# non-finite f, a non-finite Jacobian row, and a NaN state
MARKS = {"guard": (3, [-2e100, 0.5]), "guard-and-f": (5, [1e101, 0.5]),
         "f-overflow": (7, [800.0, 0.5]), "f-inf": (8, [np.inf, 0.0]),
         "-inf": (9, [-np.inf, 0.0]), "nan": (10, [0.0, np.nan]),
         "jacobian": (12, [0.3, -60.0])}


ZOO = [("affine", dict(alpha=0.9)), ("rnn", dict(D=8, g=1.5)), ("gru", dict(D=8)),
       ("lorenz96", {}), ("twowell", {}), ("s5", {}), ("logistic", dict(r=3.7))]


class TestResetTable:
    """f_t(0) from one evaluation of all T rows equals f_t(0) evaluated on
    any subset of them: the table may stand in for a fresh evaluation."""

    @pytest.mark.parametrize("kind, params", ZOO, ids=[k for k, _ in ZOO])
    def test_rows_equal_a_fresh_evaluation(self, kind, params):
        T = 300
        sys_ = P.models.build(kind, T, seed=4, **params)
        self._check(sys_, T)

    def test_function_system(self):
        T = 64
        sys_ = P.models.FunctionSystem(3, T, np.ones(3), lambda t, s: np.cos(s + 0.1 * t) - 0.5)
        self._check(sys_, T)

    @staticmethod
    def _check(sys_, T):
        table = fp.ResetTable(sys_)
        for ts in ([1], [T], [2, 7, 8, 30, T - 1], np.arange(3, T, 11)):
            ts = np.asarray(ts)
            fresh = sys_.step_batch(ts, np.zeros((len(ts), sys_.dim)))
            taken = table.take(ts, np.zeros((len(ts), 1), dtype=bool))
            assert taken.tobytes() == fresh.tobytes()  # bit for bit, signed zeros too

    def test_fills_once_and_counts_flagged_rows(self):
        T = 40
        sys_ = P.models.build("lorenz96", T, seed=0)
        calls = _spy_step_batch(sys_)
        table = fp.ResetTable(sys_)
        flagged = np.zeros((30, 1), dtype=bool)
        flagged[[2, 5, 19]] = True
        run = table.take(np.arange(11, 41), flagged)
        again = table.take(np.arange(21, 41), flagged[10:])
        assert calls == [T] and table.rows == 4
        np.testing.assert_array_equal(run[10:], again)
        np.testing.assert_array_equal(run, sys_.step_batch(np.arange(11, 41), np.zeros((30, 5))))


class TestWholeArrayGuards:
    """``_linearize_stacked`` reads each guard's verdict and rows from one
    elementwise mask, and returns what the per-row guards return."""

    @pytest.mark.parametrize("method", [NEWTON, QUASI_DIAGONAL, PICARD, JACOBI,
                                        SolverMethod("scaled", 0.5)], ids=lambda m: m.kind)
    @pytest.mark.parametrize("marks", [(), ("guard",), ("f-overflow",), ("jacobian",),
                                       tuple(MARKS)], ids=lambda m: "+".join(m) or "clean")
    @pytest.mark.parametrize("given_f", [False, True])
    def test_matches_per_row_guards(self, method, marks, given_f):
        T = 16
        sys_ = MarkedExp(T)
        ts = np.arange(1, T + 1)
        prev = np.random.default_rng(0).uniform(-1.0, 1.0, (T, 2))
        for name in marks:
            row, value = MARKS[name]
            prev[row] = value
        with np.errstate(all="ignore"):  # the pass runs under its solve's error state
            fvals = sys_.step_batch(ts, prev) if given_f else None
            got = _linearize_stacked(sys_, prev, ts, method, NO_DAMPING, fvals)
        want = _linearize_per_row(sys_, prev, ts, method, NO_DAMPING, fvals)
        assert got[0] == want[0]
        for g, w in zip(got[1:], want[1:]):
            assert (g is None and w is None) or np.array_equal(g, w, equal_nan=True)

    def test_flagged_rows_are_linearized_at_zero(self):
        """Rows past the guard or with non-finite f are reset: A_t and b_t are
        taken at s = 0. A row whose Jacobian alone is non-finite keeps its
        point, and only its A_t is taken at 0."""
        T = 16
        sys_ = MarkedExp(T)
        ts = np.arange(1, T + 1)
        prev = np.full((T, 2), 0.25)
        for row, value in MARKS.values():
            prev[row] = value
        with np.errstate(all="ignore"):  # as a solve holds it
            lane, A, b = _linearize_stacked(sys_, prev, ts, NEWTON, NO_DAMPING)
        at_zero = 0.5 * np.eye(2)
        for name, (row, _) in MARKS.items():
            np.testing.assert_array_equal(A[row], at_zero)
            if name != "jacobian":
                np.testing.assert_array_equal(b[row], 0.5 + 0.1 * ts[row])
        row = MARKS["jacobian"][0]
        np.testing.assert_array_equal(
            b[row], sys_.step_batch(ts[row:row + 1], prev[row:row + 1])[0] - at_zero @ prev[row])
        clean = np.setdiff1d(np.arange(T), [r for r, _ in MARKS.values()])
        np.testing.assert_array_equal(A[clean], np.broadcast_to(0.5 * np.exp(0.25) * np.eye(2),
                                                                (len(clean), 2, 2)))


class TestGuardedRowsTakeTheirOwnF:
    """A system without Jacobians linearizes a guarded row at 0 by forward
    differences from f_t(0), the reset table's value, and repairs a row whose
    transition alone is not finite by central differences at 0."""

    # exp overflows past s = 709.78; just below that edge f = exp(s)/2 + t/10 is
    # finite but its +h rows (h > 1e-5 there) overflow, so only the transition is not
    EDGE = float(np.log(np.finfo(np.float64).max)) - 1e-6

    @pytest.mark.parametrize("method", [NEWTON, QUASI_DIAGONAL], ids=lambda m: m.kind)
    def test_rows_at_zero(self, method):
        T = 12
        sys_ = P.models.FunctionSystem(2, T, np.zeros(2),
                                       lambda t, s: 0.5 * np.exp(s) + 0.1 * t)
        ts = np.arange(1, T + 1)
        prev = np.random.default_rng(0).uniform(-1.0, 1.0, (T, 2))
        guarded, repaired = [3, 8], [4]
        prev[3] = [800.0, 0.5]  # f overflows
        prev[8] = [0.5, 1e101]  # past the overflow guard
        prev[4] = [self.EDGE, 0.5]  # step 5's Hutchinson probe is +1 on the first entry
        transitions = (sys_.jacobian_batch if method is NEWTON else sys_.diag_jacobian_batch)
        with np.errstate(all="ignore"):
            f = sys_.step_batch(ts, prev)
            assert np.isfinite(f[4]).all() and not np.isfinite(f[3]).all()
            lane, A, b = _linearize_stacked(sys_, prev, ts, method, NO_DAMPING, f)
            zeros = np.zeros((len(guarded), 2))
            f_zero = sys_.step_batch(ts[guarded], zeros)
            forward_at_zero = transitions(ts[guarded], zeros, F=f_zero)
            central_at_zero = transitions(ts[guarded], zeros)
            clean = np.setdiff1d(np.arange(T), guarded + repaired)
            forward_clean = transitions(ts[clean], prev[clean], F=f[clean])
            repair = transitions(ts[repaired], np.zeros((1, 2)))
        assert not np.array_equal(forward_at_zero, central_at_zero)
        np.testing.assert_array_equal(A[guarded], forward_at_zero)
        np.testing.assert_array_equal(b[guarded], f_zero)
        np.testing.assert_array_equal(A[clean], forward_clean)
        np.testing.assert_array_equal(A[repaired], repair)


def _fmin_system(T=8):
    """f_t(s) = min(s, 1)/2 elementwise: ``fmin`` skips NaN, so f is finite
    at a NaN entry and only the predecessor guard can flag the row."""
    return P.models.FunctionSystem(2, T, np.zeros(2), lambda t, s: 0.5 * np.fmin(s, 1.0))


def _states_with(row, T=8, k=3):
    """A T-step trajectory of 0.25s whose state s_{k+1} is ``row``."""
    states = np.full((T, 2), 0.25)
    states[k] = row
    return P.Trajectory(np.zeros(2), states)


class TestNanPredecessor:
    """A predecessor with a NaN entry is a flagged row even where f stays
    finite: it is linearized at 0, exactly as if that state were 0."""

    @pytest.mark.parametrize("method", [NEWTON, QUASI_DIAGONAL, PICARD], ids=lambda m: m.kind)
    def test_linearize(self, method):
        sys_ = _fmin_system()
        got = linearize(sys_, _states_with([np.nan, 0.5]), method)
        want = linearize(sys_, _states_with([0.0, 0.0]), method)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.A.matrix(2), w.A.matrix(2))
            np.testing.assert_array_equal(g.b, w.b)
            assert np.all(np.isfinite(g.b))
        np.testing.assert_array_equal(got[4].b, [0.0, 0.0])  # f(0) - A 0

    @pytest.mark.parametrize("jacobian", ["full", "diagonal"])
    def test_kalman_step(self, jacobian):
        """The step linearizes through the same guard, and reads the NaN
        emission as 0, so every filtered mean is finite."""
        sys_ = _fmin_system()
        cfg = P.TrustRegionConfig(lam=1.0, jacobian=jacobian)
        assert np.all(np.isfinite(P.kalman_step(sys_, _states_with([np.nan, 0.5]), cfg).states))


class TestJacobiInit:
    def test_equals_one_zero_transition_step(self):
        sys_ = P.models.build("gru", 20, D=4, seed=6)
        warm = jacobi_init(sys_)
        expected = sys_.step_batch(np.arange(1, 21), np.zeros((20, 4)))
        np.testing.assert_array_equal(warm.states, expected)

    def test_one_jacobi_pass_from_zeros(self):
        """init="zeros" starts from the zero trajectory: one Jacobi pass from
        it gives jacobi_init's states (the GRU starts at s_0 = 0)."""
        sys_ = P.models.build("gru", 20, D=4, seed=6)
        rep = fixed_point_solve(sys_, SolverConfig(init="zeros", max_iters=1), JACOBI)
        assert rep.iterations == 1
        np.testing.assert_array_equal(rep.trajectory.states, jacobi_init(sys_).states)

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
                                        SolverMethod("scaled", 0.2)])
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

    @pytest.mark.parametrize("shape", [(4, 1), (4, 3), (3, 2), (8,)],
                             ids=["narrower", "wider", "shorter", "flat"])
    def test_refuses_an_iterate_of_another_shape(self, shape):
        """An iterate that would broadcast against the oracle is not read as a lock."""
        sys_ = P.models.FunctionSystem(2, 4, np.zeros(2), lambda t, s: 0.5 * s + 1.0)
        oracle = P.rollout_sequential(sys_)
        with pytest.raises(P.ContractError, match="is not the oracle's"):
            prefix_lock_check([oracle.states, np.zeros(shape)], oracle)


def _spy_step_batch(sys_):
    """Record the row count of every ``step_batch`` call on this instance."""
    calls = []
    inner = sys_.step_batch

    def spy(ts, S):
        calls.append(len(ts))
        return inner(ts, S)

    sys_.step_batch = spy
    return calls


class TestGuardedSolve:
    """Solves whose iterates overflow: the guard's rows and the error state."""

    def test_s5_picard_through_the_guard_is_exact(self, monkeypatch):
        """Picard's iterates on the S5 word problem pass 1e100 before they
        lock, so most passes linearize rows at 0. The solve still returns the
        sequential rollout exactly. ``resets`` counts only the passes where
        the loop zeroed non-finite entries, so it reads 0 here, and
        ``guard_rows`` counts every flagged row."""
        sys_ = P.models.build("s5", 1000, seed=3)
        flagged = []
        inner = fp._linearize_stacked

        def spy(system, prev, ts, method, damping, fvals=None, reset=None):
            with np.errstate(all="ignore"):
                f = system.step_batch(ts, prev) if fvals is None else fvals
            flagged.append(int(_flagged_rows(prev, f).sum()))
            return inner(system, prev, ts, method, damping, fvals, reset)

        monkeypatch.setattr(fp, "_linearize_stacked", spy)
        rep = fixed_point_solve(sys_, SolverConfig(tol=1e-18, metric="merit"), PICARD)
        assert rep.converged
        np.testing.assert_array_equal(rep.trajectory.states, P.rollout_sequential(sys_).states)
        assert sum(n > 0 for n in flagged) > len(flagged) / 2
        assert rep.resets == 0
        assert rep.guard_rows == sum(flagged)

    def test_one_table_fill_per_solve(self):
        """f at the reset value comes from one ``step_batch`` call per solve,
        however many passes the guard trips on: the default Jacobi guess,
        which is f_t(0) on every row and so fills the table."""
        T = 1000
        sys_ = P.models.build("s5", T, seed=3)
        inner = sys_.step_batch
        at_zero = []

        def spy(ts, S):
            if not np.any(S):
                at_zero.append(len(ts))
            return inner(ts, S)

        sys_.step_batch = spy
        rep = fixed_point_solve(sys_, SolverConfig(tol=1e-18, metric="merit"), PICARD)
        assert rep.converged and rep.guard_rows > 0
        assert at_zero == [T]

    def test_kalman_through_the_guard_matches_fresh_evaluation(self, monkeypatch):
        """A Kalman solve whose f overflows returns, bit for bit, the
        trajectory of the reference guards, which evaluate f at 0 afresh on
        the flagged rows of every pass."""
        from parssm import trustregion

        def solve():
            sys_ = P.models.FunctionSystem(2, 64, np.zeros(2),
                                           lambda t, s: 1e-300 * np.exp(800.0 * s))
            cfg = P.TrustRegionConfig(lam=1.0, solver=SolverConfig(tol=1e-10, init="normal"))
            return P.kalman_solve(sys_, cfg)

        rep = solve()
        monkeypatch.setattr(trustregion, "_linearize_stacked",
                            lambda *args: _linearize_per_row(*args[:6]))
        want = solve()
        assert rep.converged and rep.guard_rows > 0 and rep.iterations == want.iterations
        assert rep.trajectory.states.tobytes() == want.trajectory.states.tobytes()

    @pytest.mark.parametrize("solve, c, k", [
        (lambda s, cfg: fixed_point_solve(s, cfg, QUASI_DIAGONAL), 0.05, 5.0),
        (lambda s, cfg: fixed_point_solve(s, cfg, NEWTON), 0.05, 5.0),
        (lambda s, cfg: P.kalman_solve(s, P.TrustRegionConfig(lam=1.0, solver=cfg)), 1e-300, 800.0),
    ], ids=["quasi", "newton", "kalman"])
    def test_overflowing_f_under_warnings_as_errors(self, solve, c, k):
        """f = c exp(k s) handles no error state itself, and overflows on rows
        the solve evaluates after a pass: Newton-type passes step to entries
        where it overflows, and the Kalman filter, which keeps its means near
        the iterate, keeps some of the normal guess's overflowing entries. The
        suite turns RuntimeWarning into an error, so these solves pass only
        if one error state covers the whole solve loop."""
        finite = []

        def step(t, s):
            out = c * np.exp(k * s)
            finite.append(bool(np.all(np.isfinite(out))))
            return out

        sys_ = P.models.FunctionSystem(2, 64, np.zeros(2), step)
        oracle = P.rollout_sequential(sys_)
        rep = solve(sys_, SolverConfig(tol=1e-10, init="normal", seed=0))
        assert not all(finite)
        assert rep.converged and P.max_abs_diff(rep.trajectory, oracle) <= 1e-9


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
        assert rep.front_history == frozen
        for i, c in enumerate(fronts):
            for later in rep.iterates[i + 1:]:
                np.testing.assert_array_equal(later[:c], rep.iterates[i][:c])

    @pytest.mark.parametrize("method", [NEWTON, QUASI_DIAGONAL])
    def test_front_reaching_T_stops_the_loop(self, method):
        """Pass 1 solves the affine chain exactly and freezes all 16 rows. Its
        difference from the guess is above tol, but the trajectory is final,
        so the loop stops there as converged."""
        sys_ = P.models.build("affine", 16, alpha=0.5)
        calls = _spy_step_batch(sys_)
        rep = fixed_point_solve(sys_, SolverConfig(), method)
        assert rep.converged and rep.iterations == 1
        assert rep.front_history == [16] and rep.final_diff > SolverConfig().tol
        assert calls == [16, 16, 16]  # the Jacobi guess, then pass 1's linearization and residual
        np.testing.assert_array_equal(rep.trajectory.states, P.rollout_sequential(sys_).states)

    def test_one_pass_budget_that_freezes_every_row_converges(self):
        sys_ = P.models.build("affine", 16, alpha=0.5)
        rep = fixed_point_solve(sys_, SolverConfig(max_iters=1), NEWTON)
        assert rep.converged and rep.iterations == 1

    def test_reset_pass_evaluates_f_afresh(self, monkeypatch):
        """Pass 1 and every pass after a reset linearize without reused
        values; every other pass reuses f at exactly its current rows."""
        sys_ = P.models.build("lorenz96", 128, seed=1)
        seen = []
        inner = fp._linearize_stacked

        def spy(system, prev, ts, method, damping, fvals=None, reset=None):
            if fvals is not None:
                np.testing.assert_array_equal(fvals, system.step_batch(ts, prev))
            seen.append(fvals is None)
            return inner(system, prev, ts, method, damping, fvals, reset)

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

    @pytest.mark.parametrize("method", [QUASI_DIAGONAL, NEWTON])
    def test_history_flag_changes_no_f_row(self, method):
        """Turning the histories off only stops recording: every pass
        evaluates f on the same rows, and the iterates are the same."""
        runs = []
        for record in (True, False):
            sys_ = P.models.build("gru", 200, D=4, seed=3)
            calls = _spy_step_batch(sys_)
            rep = fixed_point_solve(sys_, SolverConfig(tol=1e-10, record_history=record), method)
            assert rep.converged
            runs.append((calls, rep))
        (calls_on, on), (calls_off, off) = runs
        assert calls_off == calls_on
        assert off.iterations == on.iterations and off.diff_history == []
        np.testing.assert_array_equal(off.trajectory.states, on.trajectory.states)


def _exact_front(monkeypatch):
    """Run the loop under the exact rule, eps_front = 0."""
    monkeypatch.setattr(fp, "front_tolerance", lambda cfg: 0.0)


def _kalman(T, seed, jac):
    solver = SolverConfig(tol=1e-6, init="normal", seed=seed, max_iters=2 * T,
                          record_iterates=True)
    return P.TrustRegionConfig(lam=0.01, jacobian=jac, solver=solver)


# (label, system, solve) on float models, where residuals below eps_front
# but not exactly zero make the tolerance front move
FLOAT_SOLVES = [
    ("lorenz96/kalman-full", lambda: P.models.build("lorenz96", 128, seed=51),
     lambda s: P.kalman_solve(s, _kalman(128, 51, "full"))),
    ("lorenz96/kalman-diagonal", lambda: P.models.build("lorenz96", 128, seed=801),
     lambda s: P.kalman_solve(s, _kalman(128, 801, "diagonal"))),
    ("rnn-g0.8/newton", lambda: P.models.build("rnn", 256, D=16, g=0.8, seed=2),
     lambda s: fixed_point_solve(s, SolverConfig(tol=1e-8, init="normal", seed=3,
                                                 record_iterates=True), NEWTON)),
    # pass 5 freezes all 128 rows while its difference is still above tol
    ("rnn-g0.8-T128/newton", lambda: P.models.build("rnn", 128, D=8, g=0.8, seed=1),
     lambda s: fixed_point_solve(s, SolverConfig(tol=1e-8, init="normal", seed=2,
                                                 record_iterates=True), NEWTON)),
]


class TestToleranceFront:
    """The front freezes the leading rows whose residual is within eps_front."""

    def test_eps_front_derives_from_the_stop(self):
        assert fp.front_tolerance(SolverConfig(tol=1e-6)) == pytest.approx(1e-12, abs=0.0)
        assert fp.front_tolerance(SolverConfig(tol=1e-18, metric="merit")) == \
            pytest.approx(1.414e-15, rel=1e-3, abs=0.0)

    @pytest.mark.parametrize("method", [JACOBI, PICARD, QUASI_DIAGONAL, NEWTON])
    def test_s5_is_bit_identical_to_the_exact_rule(self, method, monkeypatch):
        """S5's residuals are exact integers, so eps_front (1.4e-15 at tol
        1e-18) freezes exactly the rows the exact rule freezes."""
        runs = []
        for exact in (False, True):
            if exact:
                _exact_front(monkeypatch)
            sys_ = P.models.build("s5", 200, seed=6)
            cfg = SolverConfig(tol=1e-18, metric="merit", init="normal", seed=7,
                               record_iterates=True)
            runs.append(fixed_point_solve(sys_, cfg, method))
        tol_rep, exact_rep = runs
        assert tol_rep.converged and tol_rep.iterations == exact_rep.iterations
        assert tol_rep.merit_history == exact_rep.merit_history
        assert tol_rep.diff_history == exact_rep.diff_history
        assert tol_rep.front_history == exact_rep.front_history
        for a, b in zip(tol_rep.iterates, exact_rep.iterates):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("jac", ["full", "diagonal"])
    def test_exact_rule_on_lorenz96_keeps_every_row_active(self, jac, monkeypatch):
        """Under eps_front = 0 the front never leaves row 0 on Lorenz-96, and
        every pass is the whole-trajectory ``kalman_step``, bit for bit."""
        _exact_front(monkeypatch)
        sys_ = P.models.build("lorenz96", 128, seed=51)
        cfg = _kalman(128, 51, jac)
        rep = P.kalman_solve(sys_, cfg)
        assert rep.converged and rep.resets == 0
        assert set(rep.front_history) == {0}
        traj = P.Trajectory(sys_.initial_state, fp.initial_guess(sys_, cfg.solver))
        for it in rep.iterates:
            traj = P.kalman_step(sys_, traj, cfg)
            np.testing.assert_array_equal(it, traj.states)

    @pytest.mark.parametrize("label, build, solve", FLOAT_SOLVES, ids=[c[0] for c in FLOAT_SOLVES])
    def test_merit_history_is_the_whole_trajectory_merit(self, label, build, solve):
        sys_ = build()
        rep = solve(sys_)
        assert rep.converged
        assert len(rep.front_history) == rep.iterations
        # rows freeze while the merit is still positive, so frozen rows with
        # nonzero residuals count in it
        assert any(f > 0 and m > 0.0 for f, m in zip(rep.front_history, rep.merit_history))
        for m, it in zip(rep.merit_history, rep.iterates):
            want = P.merit(sys_, P.Trajectory(sys_.initial_state, it))
            assert m == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("label, build, solve", FLOAT_SOLVES, ids=[c[0] for c in FLOAT_SOLVES])
    def test_frozen_rows_never_change_and_match_the_oracle(self, label, build, solve):
        sys_ = build()
        rep = solve(sys_)
        oracle = P.rollout_sequential(sys_)
        assert rep.front_history == sorted(rep.front_history)
        locked = prefix_lock_check(rep.iterates, oracle, tol=1e-8)
        for i, front in enumerate(rep.front_history):
            assert locked[i] >= front
            for later in rep.iterates[i + 1:]:
                np.testing.assert_array_equal(later[:front], rep.iterates[i][:front])

    @pytest.mark.parametrize("label, build, solve", FLOAT_SOLVES, ids=[c[0] for c in FLOAT_SOLVES])
    def test_no_pass_follows_the_front_reaching_T(self, label, build, solve):
        sys_ = build()
        rep = solve(sys_)
        assert rep.converged
        assert sys_.horizon not in rep.front_history[:-1]

    @pytest.mark.parametrize("method", [JACOBI, NEWTON])
    def test_nan_residual_never_freezes(self, method):
        """f_20 is NaN everywhere, so row 20's residual is never finite: the
        front stops at the block boundary below it, whatever the tolerance."""
        T, bad_t = 48, 20

        def step(t, s):
            return np.full(2, np.nan) if t == bad_t else 0.5 * s + 1.0

        sys_ = P.models.FunctionSystem(2, T, np.zeros(2), step,
                                       jac_fn=lambda t, s: 0.5 * np.eye(2))
        rep = fixed_point_solve(sys_, SolverConfig(tol=1e-4, max_iters=30), method)
        assert not rep.converged and rep.iterations == 30
        assert max(rep.front_history) == (bad_t - 1) // FRONT_BLOCK * FRONT_BLOCK
