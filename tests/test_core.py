"""Core types, the sequential oracle, and objective plumbing."""

import functools

import numpy as np
import pytest

import parssm as P
from parssm.core import as_state, exact_rows_and_merit
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

    def test_states_must_be_a_matrix(self):
        with pytest.raises(P.ContractError, match="states must be a T x D matrix"):
            P.Trajectory(np.zeros(2), np.zeros(4))

    def test_as_state_checks_shape_and_length(self):
        with pytest.raises(P.ContractError, match="state vector must be 1-D"):
            as_state(np.zeros((2, 2)))
        with pytest.raises(P.ContractError, match="state vector has length 3, expected 2"):
            as_state(np.zeros(3), 2)

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

    def test_helper_runs_under_the_callers_error_state(self):
        """``exact_rows_and_merit`` enters no error state of its own, so an
        overflowing block raises under ``raise``; ``merit`` holds one, and
        reads the same residual as +inf without a word."""
        r = EDGE_BLOCKS["overflow@17"]
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            exact_rows_and_merit(r)
        sys_ = FunctionSystem(5, len(r), np.zeros(5), lambda t, s: np.zeros(5))
        tr = P.Trajectory(np.zeros(5), r)
        with np.errstate(all="raise"):
            np.testing.assert_array_equal(P.residual(sys_, tr), r)
            assert P.merit(sys_, tr) == float("inf")


class TestMaxAbsDiff:
    def test_identical(self):
        tr = P.rollout_sequential(ScalarAffine(alpha=0.3, T=8))
        assert P.max_abs_diff(tr, tr) == 0.0

    def test_single_entry(self):
        a = P.Trajectory(np.zeros(2), np.zeros((3, 2)))
        b = P.Trajectory(np.zeros(2), np.zeros((3, 2)))
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


def _rows_and_merit_per_row(r, eps=0.0):
    """The per-row form ``exact_rows_and_merit``'s whole-array path replaces."""
    with np.errstate(invalid="ignore"):
        past = np.flatnonzero(~np.all(np.isfinite(r) & (np.abs(r) <= eps), axis=1))
    k = int(past[0]) if past.size else len(r)
    moved = np.flatnonzero(np.any(r[:k] != 0.0, axis=1))
    rest = r[int(moved[0]) if moved.size else k:]
    if not np.all(np.isfinite(rest)):
        return k, float("inf")
    flat = rest.ravel()
    with np.errstate(over="ignore"):
        return k, 0.5 * float(np.dot(flat, flat))


def _max_abs_diff_masked(x, y):
    """The NaN-mask form ``max_abs_diff``'s single max replaces."""
    with np.errstate(invalid="ignore"):
        d = np.abs(x - y)
    if np.isnan(d).any():
        return float("inf")
    return float(d.max()) if d.size else 0.0


def _edge_blocks():
    """Residual-like blocks: leading exact zeros (some -0.0), all-zero and
    empty blocks, NaN, +-inf, inf - inf, and entries whose squares overflow."""
    rng = np.random.default_rng(11)
    blocks = {"random": rng.standard_normal((40, 5)),
              "all-zero": np.zeros((40, 5)), "empty": np.zeros((0, 5)),
              "no-columns": np.zeros((3, 0)), "one-row": np.array([[0.0, 2.0]])}
    lead = rng.standard_normal((40, 5))
    lead[:17] = 0.0
    lead[3, 1] = -0.0
    blocks["leading-zeros"] = lead
    blocks["last-entry-only"] = np.zeros((40, 5))
    blocks["last-entry-only"][-1, -1] = 1e-300
    for name, value in (("nan", np.nan), ("+inf", np.inf), ("-inf", -np.inf),
                        ("overflow", 1e200)):
        for row in (0, 17, 39):
            r = lead.copy()
            r[row, 2] = value
            blocks[f"{name}@{row}"] = r
    with np.errstate(invalid="ignore"):
        inf = np.where(lead != 0.0, np.inf, 0.0)
        blocks["inf-inf"] = lead + inf - inf  # NaN past the leading zeros
    return blocks


EDGE_BLOCKS = _edge_blocks()


class TestWholeArrayPaths:
    """The whole-array tests of ``exact_rows_and_merit`` and ``max_abs_diff``
    give what the per-row forms give, on every edge case."""

    @pytest.mark.parametrize("name", sorted(EDGE_BLOCKS))
    def test_exact_rows_and_merit(self, name):
        r = EDGE_BLOCKS[name]
        with np.errstate(all="ignore"):  # as a solve holds it
            got = exact_rows_and_merit(r)
        assert got == _rows_and_merit_per_row(r)

    @pytest.mark.parametrize("eps", [1e-300, 1e-12, 0.5, 2.0, np.inf])
    @pytest.mark.parametrize("name", sorted(EDGE_BLOCKS))
    def test_rows_within_a_tolerance(self, name, eps):
        """k counts the leading rows within eps, and m still starts at the
        first nonzero row, which may come before row k."""
        r = EDGE_BLOCKS[name].copy()
        if r.shape == (40, 5):
            r[17:20] *= 1e-13  # small rows right after the leading zeros
        with np.errstate(all="ignore"):  # as a solve holds it
            got = exact_rows_and_merit(r, eps)
        assert got == _rows_and_merit_per_row(r, eps)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_is_never_within_eps(self, value):
        r = np.zeros((8, 3))
        r[5, 1] = value
        assert exact_rows_and_merit(r, np.inf) == (5, float("inf"))

    @pytest.mark.parametrize("name", sorted(EDGE_BLOCKS))
    def test_max_abs_diff(self, name):
        x = EDGE_BLOCKS[name]
        y = EDGE_BLOCKS["leading-zeros" if x.shape == (40, 5) else name].copy()
        if y.size:
            y.flat[-1] = np.inf  # inf against inf, and inf against a finite entry
        for a, b in ((x, y), (y, x), (x, x), (x, np.zeros_like(x))):
            assert P.max_abs_diff(a, b) == _max_abs_diff_masked(a, b)


class TestJacobianConsistency:
    """Analytic Jacobians agree with the central-difference oracle."""

    @pytest.mark.parametrize("kind,params", [
        ("affine", dict(alpha=0.8)), ("rnn", dict(D=6, g=1.2)),
        ("gru", dict(D=5)), ("twowell", {}), ("s5", {}), ("logistic", dict(r=3.7)),
    ])
    def test_fd_agreement(self, kind, params):
        from parssm.jacutils import fd_jacobian_batch

        sys_ = P.models.build(kind, 50, seed=7, **params)
        rng = np.random.default_rng(11)
        for _ in range(100):
            t = int(rng.integers(1, 51))
            s = rng.uniform(-1.5, 1.5, sys_.dim)
            if kind == "logistic":
                s = rng.uniform(0.05, 0.95, 1)
            a = sys_.jacobian(t, s)
            fd = fd_jacobian_batch(sys_, [t], s[None])[0]
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
        from parssm.jacutils import fd_jacobian_batch

        sys_ = TanhMap()
        rng = np.random.default_rng(1)
        for t in (1, 7, 64):
            s = rng.standard_normal(sys_.dim)
            np.testing.assert_array_equal(sys_.jacobian(t, s),
                                          fd_jacobian_batch(sys_, [t], s[None])[0])
            np.testing.assert_array_equal(sys_.step(t, s), np.tanh(sys_.W @ s + sys_.b[t - 1]))

    def test_diag_default_is_hutchinson(self):
        from parssm.jacutils import hutchinson_diag_batch

        sys_ = TanhMap()
        ts = np.arange(1, 65)
        S = np.random.default_rng(2).standard_normal((64, sys_.dim))
        np.testing.assert_array_equal(
            sys_.diag_jacobian_batch(ts, S),
            hutchinson_diag_batch(sys_, ts, S))

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

    @pytest.mark.parametrize("t, message", [
        (0, "integer >= 1, got 0"), (9, "at most the horizon T=8, got 9"),
        (2.0, "integer >= 1, got 2.0"), (True, "real number, got True"),
    ], ids=["zero", "past-T", "float", "boolean"])
    @pytest.mark.parametrize("form", ["step", "jacobian", "diag_jacobian", "jvp"])
    @pytest.mark.parametrize("kind, params", [("gru", dict(D=3)),
                                              ("affine", dict(alpha=0.5, inputs=np.arange(8.0)))])
    def test_single_row_step_must_lie_in_the_horizon(self, kind, params, form, t, message):
        """t = 0 would gather step T's inputs, and t = T + 1 none."""
        sys_ = P.models.build(kind, 8, **params)
        s = np.ones(sys_.dim)
        with pytest.raises(P.ContractError, match=f"step t must be .*{message}"):
            getattr(sys_, form)(t, *([s, s] if form == "jvp" else [s]))

    def test_single_row_step_takes_any_integer_type(self):
        sys_ = P.models.build("affine", 8, alpha=0.5, inputs=np.arange(8.0))
        for t in (1, 8, np.int64(8), np.int32(3)):
            assert sys_.step(t, [2.0])[0] == 1.0 + (t - 1)

    SINGLE_ROW = {
        "step": lambda sys_, bad, ok: sys_.step(1, bad),
        "jacobian": lambda sys_, bad, ok: sys_.jacobian(1, bad),
        "diag_jacobian": lambda sys_, bad, ok: sys_.diag_jacobian(1, bad),
        "jvp-state": lambda sys_, bad, ok: sys_.jvp(1, bad, ok),
        "jvp-tangent": lambda sys_, bad, ok: sys_.jvp(1, ok, bad),
        "hutchinson_diag": lambda sys_, bad, ok: P.hutchinson_diag(sys_, 1, bad),
    }

    @pytest.mark.parametrize("shape", ["D+1", "D-1", "2xD"])
    @pytest.mark.parametrize("form", sorted(SINGLE_ROW))
    @pytest.mark.parametrize("kind, params", [("s5", {}), ("rnn", dict(D=3, g=0.8)),
                                              ("gru", dict(D=3)), ("lorenz96", {})])
    def test_single_row_state_must_have_length_D(self, kind, params, form, shape):
        """s5 gave a 5 x 5 Jacobian at a 6-vector and rnn a zero diagonal at a
        4-vector; each form now refuses a state that is not a D-vector."""
        sys_ = P.models.build(kind, 8, **params)
        D = sys_.dim
        bad = {"D+1": np.ones(D + 1), "D-1": np.ones(D - 1), "2xD": np.ones((2, D))}[shape]
        with pytest.raises(P.ContractError, match="^state vector (has length|must be 1-D)"):
            self.SINGLE_ROW[form](sys_, bad, np.ones(D))

    NON_NUMERIC = {"bool": [True, False], "numeric-string": ["1.5", "2"],
                   "word": ["a", "b"], "complex": [1j, 0.0], "object": [None, 1.0]}

    @pytest.mark.parametrize("entries", sorted(NON_NUMERIC))
    @pytest.mark.parametrize("form", sorted(SINGLE_ROW))
    def test_single_row_state_must_be_numbers(self, form, entries):
        """A bool or a numeric string was taken as a number, and a word
        raised numpy's own ValueError."""
        sys_ = P.models.build("rnn", 8, D=2, g=0.8)
        with pytest.raises(P.ContractError, match="^state vector must hold integers or floats"):
            self.SINGLE_ROW[form](sys_, self.NON_NUMERIC[entries], np.ones(2))

    @pytest.mark.parametrize("form", ["step", "jacobian"])
    def test_single_row_takes_integers_and_floats(self, form):
        """Integer and float32 states are read as the float64 state of the same values."""
        sys_ = P.models.build("rnn", 8, D=2, g=0.8)
        want = self.SINGLE_ROW[form](sys_, np.array([1.0, -2.0]), None)
        for s in ([1, -2], np.array([1, -2], dtype=np.int32), np.array([1, -2], dtype=np.float32)):
            np.testing.assert_array_equal(self.SINGLE_ROW[form](sys_, s, None), want)


def _door_system():
    return P.models.build("gru", 8, D=3, seed=0)


def _door_trajectory(sys_):
    """A trajectory of the system off its solution, so every residual row moves."""
    rng = np.random.default_rng(1)
    states = P.rollout_sequential(sys_).states
    return P.Trajectory(sys_.initial_state, states + 0.1 * rng.standard_normal(states.shape))


def _mismatched(sys_, how):
    T, D = sys_.horizon, sys_.dim
    s0 = sys_.initial_state
    return {"T+1": P.Trajectory(s0, np.zeros((T + 1, D))),
            "T-1": P.Trajectory(s0, np.zeros((T - 1, D))),
            "D+1": P.Trajectory(np.append(s0, 0.0), np.zeros((T, D + 1))),
            "s0+1": P.Trajectory(s0 + 1.0, _door_trajectory(sys_).states)}[how]


_FILTER = P.TrustRegionConfig(lam=0.5)
_SMOOTHER = P.TrustRegionConfig(lam=0.5, mode="smoother")

TRAJECTORY_ENTRIES = {
    "residual": P.residual,
    "merit": P.merit,
    "linearize-newton": lambda s, tr: P.linearize(s, tr, P.NEWTON),
    "linearize-quasi": lambda s, tr: P.linearize(s, tr, P.QUASI_DIAGONAL),
    "kalman_step-filter": lambda s, tr: P.kalman_step(s, tr, _FILTER),
    "kalman_step-smoother": lambda s, tr: P.kalman_step(s, tr, _SMOOTHER),
    "lm_step_dense": lambda s, tr: P.lm_step_dense(s, tr, 0.5),
    "estimate_lle": P.estimate_lle,
    "assemble_big_j": P.assemble_big_j,
    **{f"{name}-{m.kind}": functools.partial(fn, method=m)
       for name, fn in [("jacobian_mismatch", P.jacobian_mismatch),
                        ("rate_factor", P.diagnostics.rate_factor),
                        ("asymptotic_rate", P.asymptotic_rate)]
       for m in (P.NEWTON, P.QUASI_DIAGONAL, P.PICARD)},
}


class TestOneDoorForTrajectories:
    """Every trajectory entry point takes its batch from ``_check_traj``,
    which refuses a trajectory whose T, D or s_0 is not the system's."""

    def test_door_hands_out_the_steps_and_predecessors(self):
        sys_ = _door_system()
        tr = _door_trajectory(sys_)
        ts, prev = sys_._check_traj(tr)
        np.testing.assert_array_equal(ts, np.arange(1, 9))
        assert ts.dtype == np.arange(1, 9).dtype
        np.testing.assert_array_equal(prev, tr.prev_states())

    @pytest.mark.parametrize("how", ["T+1", "T-1", "D+1", "s0+1"])
    @pytest.mark.parametrize("entry", sorted(TRAJECTORY_ENTRIES))
    def test_refuses_a_trajectory_of_another_system(self, entry, how):
        """The rate diagnostics raised IndexError at T+1 and a matmul
        ValueError at D+1, answered for the shorter system at T-1, and every
        entry point but ``kalman_step`` answered from a shifted s_0."""
        sys_ = _door_system()
        message = "initial state is not the system's" if how == "s0+1" else "does not match system"
        with pytest.raises(P.ContractError, match=message):
            TRAJECTORY_ENTRIES[entry](sys_, _mismatched(sys_, how))

    def test_an_equal_initial_state_is_admitted(self):
        """The door compares values: a list or a fresh copy of s_0 passes."""
        sys_ = _door_system()
        tr = _door_trajectory(sys_)
        same = P.Trajectory(list(sys_.initial_state), tr.states.copy())
        np.testing.assert_array_equal(P.residual(sys_, same), P.residual(sys_, tr))


def _lle_walk(J, probes=3, seed=0):
    """``estimate_lle``'s walk over a given Jacobian stack."""
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((J.shape[1], probes))
    U /= np.linalg.norm(U, axis=0, keepdims=True)
    acc = np.zeros(probes)
    for j in J:
        U = j @ U
        norms = np.linalg.norm(U, axis=0)
        acc += np.log(norms)
        U /= norms
    return float(np.mean(acc) / len(J))


class TestDoorKeepsTheBits:
    """On a matching trajectory each entry point returns what the batch
    built by hand, steps ``np.arange(1, T + 1)`` and predecessors
    ``prev_states()``, gives through direct system calls, bit for bit."""

    sys_ = _door_system()
    tr = _door_trajectory(sys_)
    T, D = tr.states.shape
    ts = np.arange(1, T + 1)
    prev = tr.prev_states()

    def f(self):
        return self.sys_.step_batch(self.ts, self.prev)

    def jac(self):
        return self.sys_.jacobian_batch(self.ts, self.prev)

    def diag(self):
        return self.sys_.diag_jacobian_batch(self.ts, self.prev)

    def test_residual_and_merit(self):
        r = self.tr.states - self.f()
        np.testing.assert_array_equal(P.residual(self.sys_, self.tr), r)
        assert P.merit(self.sys_, self.tr) == exact_rows_and_merit(r)[1]

    @pytest.mark.parametrize("method", [P.NEWTON, P.QUASI_DIAGONAL], ids=lambda m: m.kind)
    def test_linearize(self, method):
        from parssm.pscan import DENSE, DIAGONAL, lane_apply

        newton = method.kind == "newton"
        A = self.jac() if newton else self.diag()
        b = self.f() - lane_apply(DENSE if newton else DIAGONAL, A, self.prev)
        ops = P.linearize(self.sys_, self.tr, method)
        np.testing.assert_array_equal([op.A.value for op in ops], A)
        np.testing.assert_array_equal([op.b for op in ops], b)

    @pytest.mark.parametrize("cfg", [_FILTER, _SMOOTHER], ids=lambda c: c.mode)
    def test_kalman_step(self, cfg):
        from parssm.trustregion import _kalman_chunk

        window = np.vstack([self.sys_.initial_state, self.tr.states])
        got = P.kalman_step(self.sys_, self.tr, cfg)
        np.testing.assert_array_equal(got.states, _kalman_chunk(self.sys_, window, self.ts, cfg))
        np.testing.assert_array_equal(got.initial, self.sys_.initial_state)

    def test_lm_step_dense(self):
        J = P.diagnostics.assemble_blocks(self.jac())
        r = (self.tr.states - self.f()).ravel()
        delta = np.linalg.solve(J.T @ J + 0.5 * np.eye(len(r)), J.T @ r)
        got = P.lm_step_dense(self.sys_, self.tr, 0.5)
        np.testing.assert_array_equal(got.states, self.tr.states - delta.reshape(self.T, self.D))

    def test_assemble_big_j_and_estimate_lle(self):
        np.testing.assert_array_equal(P.assemble_big_j(self.sys_, self.tr),
                                      P.diagnostics.assemble_blocks(self.jac()))
        assert P.estimate_lle(self.sys_, self.tr).lam == _lle_walk(self.jac())

    def test_rate_diagnostics(self):
        from parssm.pscan import DIAGONAL, lane_matrices

        dg = P.diagnostics
        d = self.diag()
        mismatch = float(np.linalg.norm(lane_matrices(DIAGONAL, d, self.T, self.D)[1:]
                                        - self.jac()[1:], ord=2, axis=(1, 2)).max())
        factor = max(1.0 / dg.min_singular_value(dg.assemble_blocks(d[:, i, None, None]))
                     for i in range(self.D))
        q = P.QUASI_DIAGONAL
        assert P.jacobian_mismatch(self.sys_, self.tr, q) == mismatch
        assert dg.rate_factor(self.sys_, self.tr, q) == factor
        assert P.asymptotic_rate(self.sys_, self.tr, q) == factor * mismatch
        assert dg.rate_factor(self.sys_, self.tr, P.PICARD) == dg.picard_inverse_norm(self.T)
        assert P.asymptotic_rate(self.sys_, self.tr, P.NEWTON) == 0.0


class Frozen(P.DynamicsSystem):
    """``inner`` with every method returning a non-writeable array, kept with
    a copy of its contents; with ``frozen=False``, a fresh writeable copy (the
    copying twin). At step ``bad_t`` the Jacobians overflow at every state
    but 0, where the library's transition guard reads them."""

    def __init__(self, inner, frozen=True, bad_t=None):
        self.inner, self.frozen, self.bad_t = inner, frozen, bad_t
        self.dim, self.horizon, self.initial_state = inner.dim, inner.horizon, inner.initial_state
        self.returned = []

    def _out(self, x, ts=None, S=None):
        x = np.array(x, dtype=np.float64)
        if ts is not None and self.bad_t is not None:
            x[(np.asarray(ts) == self.bad_t) & np.any(np.asarray(S) != 0.0, axis=1)] = np.inf
        if self.frozen:
            x.flags.writeable = False
            self.returned.append((x, x.copy()))
        return x

    def step_batch(self, ts, S):
        return self._out(self.inner.step_batch(ts, S))

    def jacobian_batch(self, ts, S, F=None):
        return self._out(self.inner.jacobian_batch(ts, S, F=F), ts, S)

    def diag_jacobian_batch(self, ts, S, F=None):
        return self._out(self.inner.diag_jacobian_batch(ts, S, F=F), ts, S)

    def jvp_batch(self, ts, S, V, F=None):
        return self._out(self.inner.jvp_batch(ts, S, V, F=F))


def _as_arrays(out):
    """The arrays of a library result, for a bitwise comparison."""
    if isinstance(out, list):  # linearize's AffineOps
        return [a for op in out for a in (op.A.matrix(op.dim), op.b)]
    if isinstance(out, P.Trajectory):
        return [out.states]
    if isinstance(out, P.SolveReport):
        return [out.trajectory.states, np.array([out.iterations, out.guard_rows])]
    return [np.asarray(out)]


GRU_TRAJ = P.rollout_sequential(P.models.build("gru", 12, D=3, seed=4))
FULL, DIAG = P.TrustRegionConfig(), P.TrustRegionConfig(jacobian="diagonal")


class TestSystemArraysAreReadOnly:
    """The library never writes an array a system returned: a system whose
    every array is read-only runs every entry point, including the guard that
    repairs a non-finite transition row, to the bits of a copying twin."""

    CALLS = {
        **{f"linearize-{m.kind}": lambda s, m=m: P.linearize(s, GRU_TRAJ, m)
           for m in (P.NEWTON, P.QUASI_DIAGONAL)},
        **{f"fixed_point_solve-{m.kind}": lambda s, m=m: P.fixed_point_solve(
            s, P.SolverConfig(tol=1e-10), m)
           for m in (P.NEWTON, P.QUASI_DIAGONAL, P.PICARD, P.JACOBI)},
        "kalman_step-full": lambda s: P.kalman_step(s, GRU_TRAJ, FULL),
        "kalman_step-diagonal": lambda s: P.kalman_step(s, GRU_TRAJ, DIAG),
        "kalman_solve-full": lambda s: P.kalman_solve(s, FULL),
        "kalman_solve-diagonal": lambda s: P.kalman_solve(s, DIAG),
    }

    @staticmethod
    def run(call, bad_t):
        inner = P.models.build("gru", 12, D=3, seed=4)
        frozen, twin = Frozen(inner, True, bad_t), Frozen(inner, False, bad_t)
        got, want = _as_arrays(call(frozen)), _as_arrays(call(twin))
        assert frozen.returned
        for x, contents in frozen.returned:
            assert not x.flags.writeable
            assert np.array_equal(x, contents, equal_nan=True)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("name", CALLS)
    def test_with_a_non_finite_transition_row(self, name):
        self.run(self.CALLS[name], bad_t=5)

    @pytest.mark.parametrize("method", [P.QUASI_DIAGONAL, P.PICARD, P.JACOBI],
                             ids=lambda m: m.kind)
    def test_asymptotic_rate(self, method):
        self.run(lambda s: P.asymptotic_rate(s, GRU_TRAJ, method), bad_t=None)


def _outcome(call):
    """("ok", the result as an array) or (exception type, message); a warning
    is not caught."""
    try:
        out = call()
    except (P.ContractError, P.NumericalFailure, np.linalg.LinAlgError) as e:
        return type(e), str(e)
    return "ok", np.asarray(out.states if isinstance(out, P.Trajectory) else out)


class TestLibraryHoldsTheErrorState:
    """A system a user writes sets no numpy error state, as the zoo's models
    do not; every library call into it holds one, so its overflow is as quiet
    as a zoo model's. The suite's filter turns a RuntimeWarning into an
    error, so a warning fails these tests."""

    ITERATE = P.Trajectory([1.0], [[1e200], [1e300], [1.0], [1.0]])
    JAC = dict(jac_fn=lambda t, s: np.array([[1e200 * s[0]]]))
    CALLS = {
        "assemble_big_j": (JAC, P.assemble_big_j),
        "jacobian_mismatch": (JAC, lambda s, tr: P.jacobian_mismatch(s, tr, P.PICARD)),
        "lm_step_dense": (JAC, lambda s, tr: P.lm_step_dense(s, tr, 1.0)),
        "rate_factor": (dict(diag_fn=lambda t, s: 1e200 * s),
                        lambda s, tr: P.diagnostics.rate_factor(s, tr, P.QUASI_DIAGONAL)),
    }

    @staticmethod
    def system(**fns):
        return FunctionSystem(1, 4, [1.0], lambda t, s: 1e200 * s, **fns)

    def jac_system(self):
        return self.system(**self.JAC)

    def test_rollout(self):
        states = P.rollout_sequential(self.jac_system()).states
        np.testing.assert_array_equal(states[:, 0], [1e200, np.inf, np.inf, np.inf])

    def test_estimate_lle_raises_numerical_failure(self):
        with pytest.raises(P.NumericalFailure):
            P.estimate_lle(self.jac_system(), self.ITERATE)

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_same_outcome_as_under_ignore(self, name):
        fns, call = self.CALLS[name]
        with np.errstate(all="ignore"):
            want = _outcome(lambda: call(self.system(**fns), self.ITERATE))
        got = _outcome(lambda: call(self.system(**fns), self.ITERATE))
        assert got[0] == want[0]
        np.testing.assert_array_equal(got[1], want[1])

    def test_hutchinson_diag_through_jvp_fn(self):
        sys_ = self.system(jvp_fn=lambda t, s, v: 1e200 * s * v)
        with pytest.raises(P.NumericalFailure, match="non-finite diagonal estimate"):
            P.hutchinson_diag(sys_, 2, np.array([1e200]))


def test_exports_resolve_once():
    """Every name in ``parssm.__all__`` resolves, and none is listed twice
    (``import parssm`` alone never reads ``__all__``)."""
    assert sorted(set(P.__all__)) == sorted(P.__all__)
    assert [name for name in P.__all__ if not hasattr(P, name)] == []
