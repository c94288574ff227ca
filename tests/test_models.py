"""Model zoo contracts: parameter validation, Jacobians, model-specific facts."""

import hashlib

import numpy as np
import pytest

import parssm as P
from parssm import jacutils, models
from parssm.jacutils import fd_jacobian_batch


class TestBuildValidation:
    def test_unknown_kind(self):
        with pytest.raises(P.ContractError):
            models.build("nope", 8)

    @pytest.mark.parametrize("kind,params", [
        ("rnn", dict(D=8, g=0.0)), ("rnn", dict(D=8, g=-1.0)),
        ("lorenz96", dict(dt=0.0)), ("twowell", dict(eps=-0.1)),
        ("logistic", dict(r=0.0)), ("logistic", dict(r=4.5)),
        ("rnn", dict(D=4, g=float("nan"))), ("rnn", dict(D=4, g=float("inf"))),
        ("lorenz96", dict(dt=float("inf"))), ("lorenz96", dict(dt=float("nan"))),
        ("twowell", dict(eps=float("inf"))), ("twowell", dict(eps=float("nan"))),
        ("logistic", dict(r=float("nan"))),
        ("rnn", dict(D=4.5, g=1.0)), ("rnn", dict(D="4", g=1.0)), ("rnn", dict(D=0, g=1.0)),
        ("gru", dict(D=2.5)), ("gru", dict(D=True)), ("lorenz96", dict(D=3)),
        ("lorenz96", dict(D=5.0)),
        ("rnn", dict(D=4, g=True)), ("twowell", dict(eps=True)), ("lorenz96", dict(dt=True)),
        ("lorenz96", dict(F=True)), ("affine", dict(alpha=True)), ("logistic", dict(r=True)),
    ])
    def test_parameter_ranges(self, kind, params):
        with pytest.raises(P.ContractError):
            models.build(kind, 8, **params)

    @pytest.mark.parametrize("kind,T,params", [
        ("rnn", 8.7, dict(D=4, g=0.5)), ("affine", True, dict(alpha=0.5)),
        ("affine", 0, dict(alpha=0.5)),
    ], ids=["fractional", "boolean", "zero"])
    def test_horizon_must_be_an_integer_at_least_1(self, kind, T, params):
        with pytest.raises(P.ContractError, match="horizon T"):
            models.build(kind, T, **params)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(P.ContractError, match="seed"):
            models.build("rnn", 8, D=4, g=0.5, seed=seed)

    def test_numpy_integer_horizon(self):
        assert models.build("affine", np.int64(5), alpha=0.5).horizon == 5

    def test_missing_required(self):
        with pytest.raises(P.ContractError):
            models.build("rnn", 8, D=4)  # no g

    def test_seeded_construction_is_reproducible(self):
        a = models.build("gru", 16, D=4, seed=9)
        b = models.build("gru", 16, D=4, seed=9)
        np.testing.assert_array_equal(P.rollout_sequential(a).states,
                                      P.rollout_sequential(b).states)


# every zoo model with the arguments it needs besides its horizon
ZOO = [(models.ScalarAffine, dict(alpha=0.5)), (models.MeanFieldRNN, dict(D=4, g=0.5)),
       (models.Gru, dict(D=3)), (models.Lorenz96, {}), (models.LangevinTwoWell, {}),
       (models.S5WordProblem, {}), (models.LogisticMap, dict(r=3.5))]


class TestDirectConstruction:
    """Each zoo model checks its own sizes and parameters, so building it
    without ``models.build`` refuses what ``build`` refuses."""

    @pytest.mark.parametrize("T", [2.7, 0, True], ids=["fractional", "zero", "boolean"])
    @pytest.mark.parametrize("cls,params", ZOO, ids=[c.__name__ for c, _ in ZOO])
    def test_horizon_must_be_an_integer_at_least_1(self, cls, params, T):
        with pytest.raises(P.ContractError, match="horizon T"):
            cls(T=T, **params)

    @pytest.mark.parametrize("F", [np.nan, np.inf, -np.inf])
    def test_lorenz96_forcing_must_be_finite(self, F):
        """A non-finite F is refused by name, not later as a non-finite s_0."""
        with pytest.raises(P.ContractError, match="forcing F must be finite"):
            models.Lorenz96(F=F, T=8)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_affine_alpha_must_be_finite(self, alpha):
        with pytest.raises(P.ContractError, match="alpha must be finite"):
            models.ScalarAffine(alpha, 8)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "0"])
    @pytest.mark.parametrize("cls,params", ZOO, ids=[c.__name__ for c, _ in ZOO])
    def test_seed_must_be_a_nonnegative_integer(self, cls, params, seed):
        """Every zoo model takes a seed and checks it, whether it draws from
        it or not: True is not seed 1."""
        with pytest.raises(P.ContractError, match="^seed must be"):
            cls(T=8, seed=seed, **params)

    @pytest.mark.parametrize("s0, message", [
        (True, "s0 must be a real number"), ("0.3", "s0 must be a real number"),
        (np.nan, "s0 must be finite"), (np.inf, "s0 must be finite"),
    ], ids=["bool", "string", "nan", "inf"])
    @pytest.mark.parametrize("cls,params", [(models.ScalarAffine, dict(alpha=0.5)),
                                            (models.LogisticMap, dict(r=3.5))],
                             ids=["ScalarAffine", "LogisticMap"])
    def test_scalar_initial_state_must_be_a_finite_real(self, cls, params, s0, message):
        with pytest.raises(P.ContractError, match=message):
            cls(T=8, s0=s0, **params)

    def test_affine_inputs_must_have_length_T(self):
        with pytest.raises(P.ContractError, match="inputs must have length T"):
            models.ScalarAffine(0.5, 8, inputs=np.zeros(7))

    @pytest.mark.parametrize("inputs, message", [
        (np.zeros((2, 2)), "inputs must have length T"),
        (np.zeros((4, 1)), "inputs must have length T"),
        ([True, False, True, False], "finite integers or floats"),
        (["1.5", "2", "0", "0"], "finite integers or floats"),
        ([1j, 0, 0, 0], "finite integers or floats"),
        ([0.0, np.nan, 0.0, 0.0], "finite integers or floats"),
        ([0.0, 0.0, -np.inf, 0.0], "finite integers or floats"),
    ], ids=["2x2", "column", "bool", "string", "complex", "nan", "inf"])
    def test_affine_inputs_are_T_finite_numbers(self, inputs, message):
        with pytest.raises(P.ContractError, match=message):
            models.ScalarAffine(0.5, 4, inputs=inputs)

    def test_affine_inputs_take_integers_and_floats(self):
        ints = models.ScalarAffine(0.5, 4, inputs=[1, 0, 2, 0])
        floats = models.ScalarAffine(0.5, 4, inputs=np.array([1.0, 0.0, 2.0, 0.0], np.float32))
        for m in (ints, floats):
            assert m.inputs.dtype == np.float64
            np.testing.assert_array_equal(m.inputs, [1.0, 0.0, 2.0, 0.0])


class TestMeanFieldRNN:
    def test_zero_self_coupling(self):
        m = models.build("rnn", 8, D=12, g=1.5, seed=0)
        assert np.all(np.diag(m.W) == 0.0)
        assert np.all(m.diag_jacobian(1, np.ones(12)) == 0.0)

    def test_lle_sign_flips_with_gain(self):
        """g = 0.5 is predictable (negative exponent), g = 2.0 is not."""
        lo = models.build("rnn", 2000, D=32, g=0.5, seed=0)
        hi = models.build("rnn", 2000, D=32, g=2.0, seed=0)
        lle_lo = P.estimate_lle(lo, P.rollout_sequential(lo), probes=3, seed=0).lam
        lle_hi = P.estimate_lle(hi, P.rollout_sequential(hi), probes=3, seed=0).lam
        assert lle_lo < 0.0 < lle_hi


class TestGru:
    def test_jacobian_entries_small_at_init(self):
        """Random-init GRU Jacobians are mild: the largest absolute entry has
        median below one over 100 probes."""
        m = models.build("gru", 100, D=8, seed=0)
        tr = P.rollout_sequential(m)
        jacs = m.jacobian_batch(np.arange(1, 101), tr.prev_states())
        assert float(np.median(np.max(np.abs(jacs), axis=(1, 2)))) < 1.0

    def test_jacobi_init_reduces_merit_vs_zeros(self):
        m = models.build("gru", 64, D=8, seed=2)
        zeros = P.Trajectory(m.initial_state, np.zeros((64, 8)))
        warm = P.jacobi_init(m)
        assert P.merit(m, warm) < P.merit(m, zeros)

    def test_rollout_digest(self):
        """The T=256, D=8 seed-0 rollout keeps its digest."""
        m = models.build("gru", 256, D=8, seed=0)
        states = P.rollout_sequential(m).states
        assert hashlib.sha1(states.tobytes()).hexdigest() == "80b0e069d1d966311df0a5a452721d771de82459"

    def test_holds_only_what_its_step_reads(self):
        """The recurrent weights, the input drives and s_0: what the step
        reads, and no more. Each recurrent weight owns its data, so the input
        halves of the (D, 2D) draws are not kept alive through a slice."""
        m = models.build("gru", 16, D=4, seed=1)
        arrays = {k for k, v in vars(m).items() if isinstance(v, (np.ndarray, list))}
        assert arrays == {"Wz_h", "Wr_h", "Wh_h", "_drives", "initial_state"}
        for w in (m.Wz_h, m.Wr_h, m.Wh_h):
            assert w.shape == (4, 4) and w.flags.owndata


def _rolled_field(X, F):
    """Lorenz-96 field written with three np.roll calls (oracle for the gather)."""
    return (np.roll(X, -1, axis=-1) - np.roll(X, 2, axis=-1)) * np.roll(X, 1, axis=-1) - X + F


def _rolled_rk4(X, F, dt):
    k1 = _rolled_field(X, F)
    k2 = _rolled_field(X + 0.5 * dt * k1, F)
    k3 = _rolled_field(X + 0.5 * dt * k2, F)
    k4 = _rolled_field(X + dt * k3, F)
    return X + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class TestLorenz96:
    @pytest.mark.parametrize("D", [4, 5, 8, 40])
    @pytest.mark.parametrize("rows", [1, 7, 640])
    def test_ring_gather_equals_rolls_bitwise(self, D, rows):
        """The field and the RK4 step equal the np.roll formula bit for bit."""
        m = models.build("lorenz96", rows, D=D, seed=D)
        X = 8.0 + 3.0 * np.random.default_rng(rows).standard_normal((rows, D))
        assert np.array_equal(m._field(X), _rolled_field(X, m.F))
        assert np.array_equal(m._field(X[0]), _rolled_field(X[0], m.F))
        ts = np.arange(1, rows + 1)
        assert np.array_equal(m.step_batch(ts, X), _rolled_rk4(X, m.F, m.dt))

    def test_rollout_digest(self):
        """The T=256 seed-0 rollout keeps the digest of the np.roll field."""
        m = models.build("lorenz96", 256, seed=0)
        states = P.rollout_sequential(m).states
        assert hashlib.sha1(states.tobytes()).hexdigest() == "30ae7dcff57aa9d54a55c580eae01cb58158f7f6"

    def test_is_rk4_of_cyclic_field(self):
        """One step equals a hand-rolled RK4 stage of the cyclic field."""
        m = models.build("lorenz96", 4, D=5, F=8.0, dt=0.01, seed=1)
        s = m.initial_state

        def field(x):
            return (np.roll(x, -1) - np.roll(x, 2)) * np.roll(x, 1) - x + 8.0

        k1 = field(s)
        k2 = field(s + 0.005 * k1)
        k3 = field(s + 0.005 * k2)
        k4 = field(s + 0.01 * k3)
        np.testing.assert_allclose(m.step(1, s), s + (0.01 / 6) * (k1 + 2 * k2 + 2 * k3 + k4),
                                   rtol=1e-14)

    def test_chaotic_at_standard_forcing(self):
        m = models.build("lorenz96", 4000, seed=0)
        lle = P.estimate_lle(m, P.rollout_sequential(m), probes=2, seed=0).lam
        assert lle > 0.0


class TestLangevinTwoWell:
    def test_jacobian_is_identity_minus_eps_hessian(self):
        """Analytic Jacobian matches I - eps * (FD Hessian of the potential)."""
        m = models.build("twowell", 8, eps=0.01, seed=0)
        rng = np.random.default_rng(1)
        h = 1e-5
        for _ in range(20):
            s = rng.uniform(-1.5, 2.0, 2)
            hess = np.empty((2, 2))
            for i in range(2):
                for j in range(2):
                    ei, ej = np.eye(2)[i] * h, np.eye(2)[j] * h
                    hess[i, j] = (m.potential(s + ei + ej) - m.potential(s + ei - ej)
                                  - m.potential(s - ei + ej) + m.potential(s - ei - ej)) / (4 * h * h)
            np.testing.assert_allclose(m.jacobian(1, s), np.eye(2) - 0.01 * hess, atol=1e-4)

    def test_negative_lle_despite_saddle(self):
        """The saddle region is locally expanding, but rollouts spend most of
        their time inside the wells: the exponent comes out negative."""
        m = models.build("twowell", 10_000, eps=0.01, seed=0)
        tr = P.rollout_sequential(m)
        assert P.estimate_lle(m, tr, probes=3, seed=0).lam < 0.0
        # and the saddle really is locally unstable in y
        saddle_jac = m.jacobian(1, np.array([0.0, 0.1]))
        assert np.max(np.abs(np.linalg.eigvals(saddle_jac))) > 1.0

    def test_noise_is_curried(self):
        m = models.build("twowell", 8, seed=3)
        s = np.array([0.1, -0.2])
        np.testing.assert_array_equal(m.step(4, s), m.step(4, s))
        assert not np.array_equal(m.step(4, s), m.step(5, s))


class TestS5WordProblem:
    def test_transitions_are_doubly_stochastic_01(self):
        m = models.build("s5", 50, seed=0)
        for t in range(1, 51):
            A = m.permutation_matrix(t)
            assert set(np.unique(A)) <= {0.0, 1.0}
            np.testing.assert_array_equal(A.sum(axis=0), np.ones(5))
            np.testing.assert_array_equal(A.sum(axis=1), np.ones(5))

    def test_states_stay_permutations(self):
        m = models.build("s5", 200, seed=4)
        tr = P.rollout_sequential(m)
        for row in tr.states:
            assert sorted(row.tolist()) == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_rollout_digest(self):
        """The T=256 seed-0 rollout keeps the digest of the fancy-index step."""
        m = models.build("s5", 256, seed=0)
        states = P.rollout_sequential(m).states
        assert hashlib.sha1(states.tobytes()).hexdigest() == "7c00b68f94316b3ce2eae8b18d74b1257df41db2"


class TestLogisticMap:
    def test_step_and_jacobian(self):
        m = models.build("logistic", 4, r=3.5, s0=0.2)
        assert m.step(1, np.array([0.2]))[0] == pytest.approx(3.5 * 0.2 * 0.8)
        assert m.jacobian(1, np.array([0.2]))[0, 0] == pytest.approx(3.5 * 0.6)


def _fancy_gru_gates(m, ts, H):
    i = np.asarray(ts) - 1
    xz, xr, xh = (drive[i] for drive in m._drives)
    Z = models._sigmoid(H @ m.Wz_h.T + xz)
    R = models._sigmoid(H @ m.Wr_h.T + xr)
    return Z, R, np.tanh((R * H) @ m.Wh_h.T + xh)


def _fancy_hutchinson(m, ts, S):
    ts = np.asarray(ts)
    table = jacutils._probe_table(S.shape[1], max(m.horizon, int(ts.max())))
    return jacutils._hutchinson(m, ts, np.asarray(S, dtype=np.float64), table[ts - 1])


# each time-indexed gather with the fancy index that ``take`` replaced, as
# (kind, params, the method that gathers, the fancy-index oracle of it)
GATHERS = [
    ("affine", dict(alpha=0.7, inputs=np.arange(1.0, 13.0)), "step_batch",
     lambda m, ts, S: m.alpha * S + m.inputs[np.asarray(ts) - 1][:, None]),
    ("rnn", dict(D=4, g=0.9), "step_batch",
     lambda m, ts, S: np.tanh(S) @ m.W.T + m.inputs[np.asarray(ts) - 1][:, None]),
    ("gru", dict(D=3), "_gates", _fancy_gru_gates),
    ("twowell", {}, "step_batch",
     lambda m, ts, S: (S - m.eps * m.grad_potential_batch(S)
                       + np.sqrt(2.0 * m.eps) * m.noise[np.asarray(ts) - 1])),
    ("s5", {}, "step_batch",
     lambda m, ts, S: S[np.arange(len(S))[:, None], m.perms[np.asarray(ts) - 1]]),
    ("s5", {}, "jacobian_batch", lambda m, ts, S: np.eye(5)[m.perms[np.asarray(ts) - 1]]),
    ("s5", {}, "diag_jacobian_batch",
     lambda m, ts, S: (m.perms[np.asarray(ts) - 1] == np.arange(5)[None, :]).astype(np.float64)),
    ("lorenz96", {}, "diag_jacobian_batch", _fancy_hutchinson),
]

# one row, all T rows, and repeated, out-of-order steps, at the horizon T = 12
STEPS = {"one": [7], "all": list(range(1, 13)), "shuffled": [12, 3, 3, 1, 12, 5, 2]}

# a C-ordered batch, every other row or column of a larger one, and a Fortran-ordered copy
LAYOUTS = {"c": lambda B: B, "row-strided": lambda B: np.repeat(B, 2, axis=0)[::2],
           "column-strided": lambda B: np.repeat(B, 2, axis=1)[:, ::2],
           "fortran": np.asfortranarray}


class TestTakeGathers:
    """Each time-indexed table is gathered with ``take``, bit for bit the
    fancy index it replaced, whatever the order of the steps or the layout
    of the batch."""

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("steps", STEPS)
    @pytest.mark.parametrize("kind,params,method,fancy", GATHERS,
                             ids=[f"{k}-{m}" for k, _, m, _ in GATHERS])
    def test_equals_the_fancy_index(self, kind, params, method, fancy, steps, layout):
        m = models.build(kind, 12, seed=1, **params)
        ts = np.array(STEPS[steps])
        B = 1.0 + np.random.default_rng(len(ts)).standard_normal((len(ts), m.dim))
        S = LAYOUTS[layout](B)
        assert np.array_equal(S, B)
        got, want = getattr(m, method)(ts, S), fancy(m, ts, B)
        if method != "_gates":  # the gates are a tuple of three arrays
            got, want = (got,), (want,)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)


class TestFdFallbacks:
    def test_lorenz96_fd_jacobian_consistency(self):
        """The FD default agrees with a central difference at ten times its
        step (no analytic form is shipped for this model)."""
        m = models.build("lorenz96", 8, seed=0)
        s = m.initial_state
        a = fd_jacobian_batch(m, [1], s[None])[0]
        h = 1e-5 * (1.0 + np.max(np.abs(s)))
        cols = m.step_batch(np.ones(2 * m.dim, dtype=int),
                            np.concatenate([s + h * np.eye(m.dim), s - h * np.eye(m.dim)]))
        b = ((cols[:m.dim] - cols[m.dim:]) / (2.0 * h)).T
        assert np.max(np.abs(a - b)) <= 1e-5 * max(1.0, np.max(np.abs(a)))


def _pm(n, d):
    """An (n, d) batch alternating +-1e200 along each row, so no field cancels."""
    return 1e200 * np.where(np.arange(n * d).reshape(n, d) % 2, -1.0, 1.0)


class TestMethodsRunUnderCallersErrorState:
    """A zoo method sets no numpy error state of its own: under a caller's
    state that raises on everything but underflow (which numpy's default
    ignores too), an overflowing batch raises. rnn (tanh is bounded) and s5
    (a gather) cannot overflow, so they are left out."""

    CASES = [
        ("affine", dict(alpha=2.0), "step_batch", np.array([[1e308]])),
        ("gru", dict(D=3), "step_batch", np.array([[1e200] * 3, [-1e200] * 3])),
        ("gru", dict(D=3), "jacobian_batch", np.array([[1e200] * 3, [-1e200] * 3])),
        ("gru", dict(D=3), "diag_jacobian_batch", np.array([[1e200] * 3, [-1e200] * 3])),
        ("lorenz96", dict(D=5), "step_batch", _pm(2, 5)),
        ("lorenz96", dict(D=5), "jacobian_batch", _pm(2, 5)),  # finite differences
        ("lorenz96", dict(D=5), "diag_jacobian_batch", _pm(2, 5)),  # Hutchinson
        ("twowell", {}, "step_batch", _pm(2, 2)),
        ("twowell", {}, "jacobian_batch", _pm(2, 2)),
        ("logistic", dict(r=3.5), "step_batch", np.array([[1e200]])),
    ]

    @pytest.mark.parametrize("kind,params,method,S", CASES,
                             ids=[f"{c[0]}-{c[2]}" for c in CASES])
    def test_overflow_raises_under_raise(self, kind, params, method, S):
        m = models.build(kind, 4, **params)
        ts = np.arange(1, len(S) + 1)
        with np.errstate(all="raise", under="ignore"), pytest.raises(FloatingPointError):
            getattr(m, method)(ts, S)


class TestFunctionSystem:
    @pytest.mark.parametrize("dim,horizon", [
        (2.5, 4), (True, 4), (0, 4), (2, 2.7), (2, "3"), (2, 0),
    ], ids=["dim-fractional", "dim-boolean", "dim-zero", "horizon-fractional",
            "horizon-string", "horizon-zero"])
    def test_sizes_must_be_integers_at_least_1(self, dim, horizon):
        with pytest.raises(P.ContractError, match="dim|horizon"):
            models.FunctionSystem(dim, horizon, np.zeros(2), lambda t, s: s)

    @pytest.mark.parametrize("s0", [[0.0, np.nan], [np.inf, 0.0]], ids=["nan", "inf"])
    def test_initial_state_must_be_finite(self, s0):
        """A non-finite s_0 is refused at construction, as the zoo refuses it,
        not later by the rollout."""
        with pytest.raises(P.ContractError, match="initial state must be finite"):
            models.FunctionSystem(2, 4, s0, lambda t, s: s)

    @pytest.mark.parametrize("s0", [[True, False], ["1.5", "2"], [1j, 0.0]],
                             ids=["bool", "numeric-string", "complex"])
    def test_initial_state_must_be_numbers(self, s0):
        """Bools and numeric strings were read as numbers."""
        with pytest.raises(P.ContractError, match="^state vector must hold integers or floats"):
            models.FunctionSystem(2, 4, s0, lambda t, s: s)

    def test_initial_state_takes_integers(self):
        m = models.FunctionSystem(2, 4, np.array([1, 2]), lambda t, s: s)
        assert m.initial_state.dtype == np.float64
        np.testing.assert_array_equal(m.initial_state, [1.0, 2.0])

    def test_keeps_its_own_initial_state(self):
        """Writing to the caller's array after construction moved s_0."""
        s0 = np.zeros(2)
        m = models.FunctionSystem(2, 4, s0, lambda t, s: s + 1.0)
        s0[0] = 5.0
        np.testing.assert_array_equal(m.initial_state, [0.0, 0.0])
        np.testing.assert_array_equal(P.rollout_sequential(m).states[0], [1.0, 1.0])

    def test_diagonal_read_off_jac_fn(self, monkeypatch):
        """With a jac_fn and no diag_fn, the Jacobian diagonals are those of
        jac_fn's matrices; no Hutchinson estimate is made."""
        def no_estimate(*args, **kwargs):
            raise AssertionError("Hutchinson estimate made")

        monkeypatch.setattr(jacutils, "hutchinson_diag_batch", no_estimate)
        W = np.arange(9.0).reshape(3, 3) / 10.0
        m = models.FunctionSystem(
            3, 4, np.zeros(3), lambda t, s: np.tanh(W @ s + t),
            jac_fn=lambda t, s: (1.0 - np.tanh(W @ s + t) ** 2)[:, None] * W)
        ts, S = np.arange(1, 5), np.random.default_rng(0).standard_normal((4, 3))
        want = np.diagonal(m.jacobian_batch(ts, S), axis1=1, axis2=2)
        np.testing.assert_array_equal(m.diag_jacobian_batch(ts, S), want)
