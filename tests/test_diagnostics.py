"""Conditioning instruments: exponent estimation, dense Jacobian assembly,
gradient-dominance bounds, mismatch and rate formulas."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parssm as P
from parssm import bench
from parssm import diagnostics as dg
from parssm.fixedpoint import JACOBI, NEWTON, PICARD, QUASI_DIAGONAL, SolverMethod
from parssm.models import FunctionSystem
from parssm.pscan import lane_apply, lane_matrices


def _assemble_approx_j(sys_, traj, method):
    """Rate oracle: ``assemble_big_j`` with the method's transitions A~_t."""
    lane, A = dg._transitions_at(sys_, traj, method)
    return dg.assemble_blocks(lane_matrices(lane, A, traj.horizon, traj.dim))


class TestEstimateLle:
    def test_constant_contraction_exact(self):
        """A = 0.5 I stretches every probe by exactly 0.5 per step."""
        sys_ = P.models.build("affine", 64, alpha=0.5)
        est = P.estimate_lle(sys_, P.rollout_sequential(sys_), probes=4, seed=0)
        assert est.lam == pytest.approx(np.log(0.5), abs=1e-12)

    def test_logistic_map_ln2(self):
        """Fully chaotic logistic map: exponent ln 2, oracle = the ergodic
        average of log |f'| along the same orbit."""
        sys_ = P.models.build("logistic", 100_000, r=4.0, s0=0.3)
        tr = P.rollout_sequential(sys_)
        est = P.estimate_lle(sys_, tr, probes=1, seed=0)
        orbit = tr.prev_states().ravel()
        oracle = float(np.mean(np.log(np.abs(4.0 * (1.0 - 2.0 * orbit)))))
        assert est.lam == pytest.approx(oracle, abs=1e-9)
        assert abs(est.lam - np.log(2.0)) <= 0.01

    def test_probe_stability(self):
        """Estimates from different probe vectors differ by < 1e-3 at long T."""
        sys_ = P.models.build("rnn", 10_000, D=16, g=1.5, seed=0)
        tr = P.rollout_sequential(sys_)
        singles = [P.estimate_lle(sys_, tr, probes=1, seed=s).lam for s in range(3)]
        assert max(singles) - min(singles) < 1e-3

    def test_zero_norm_chain_errors(self):
        sys_ = FunctionSystem(dim=1, horizon=4, initial_state=np.zeros(1),
                              step_fn=lambda t, s: 0.0 * s,
                              jac_fn=lambda t, s: np.zeros((1, 1)))
        with pytest.raises(P.NumericalFailure):
            P.estimate_lle(sys_, P.rollout_sequential(sys_), probes=1, seed=0)


class TestAssembleBigJ:
    def test_T1_is_identity(self):
        sys_ = P.models.build("affine", 1, alpha=3.0)
        np.testing.assert_array_equal(dg.assemble_big_j(sys_, P.rollout_sequential(sys_)),
                                      np.eye(1))

    def test_unit_triangular_eigenvalues(self):
        sys_ = P.models.build("gru", 12, D=3, seed=0)
        J = dg.assemble_big_j(sys_, P.rollout_sequential(sys_))
        np.testing.assert_allclose(np.linalg.eigvals(J), np.ones(36))

    def test_inverse_blocks_are_chain_products(self):
        """Block (t, tau) of J^{-1} equals A_t ... A_{tau+1} at T = 4."""
        sys_ = P.models.build("rnn", 4, D=3, g=1.0, seed=1)
        tr = P.rollout_sequential(sys_)
        J = dg.assemble_big_j(sys_, tr)
        Jinv = np.linalg.inv(J)
        jacs = sys_.jacobian_batch(np.arange(1, 5), tr.prev_states())
        D = 3
        for t in range(4):
            prod = np.eye(D)
            for tau in range(t, -1, -1):
                block = Jinv[t * D:(t + 1) * D, tau * D:(tau + 1) * D]
                np.testing.assert_allclose(block, prod, atol=1e-12)
                if tau > 0:
                    prod = prod @ jacs[tau]

    def test_scale_guard(self):
        sys_ = P.models.build("rnn", 1400, D=3, g=0.8, seed=0)
        with pytest.raises(P.ContractError):
            dg.assemble_big_j(sys_, P.rollout_sequential(sys_))


def _assemble_blocks_loop(blocks):
    """The block-by-block form of ``assemble_blocks``."""
    T, D = blocks.shape[0], blocks.shape[1]
    out = np.eye(T * D)
    for t in range(1, T):
        out[t * D:(t + 1) * D, (t - 1) * D:t * D] = -blocks[t]
    return out


class TestAssembleBlocks:
    @pytest.mark.parametrize("T", [1, 2, 50])
    @pytest.mark.parametrize("D", [1, 3])
    def test_equals_loop_form_bitwise(self, T, D):
        """Signed zeros included: +0 and -0 blocks land as -0 and +0."""
        rng = np.random.default_rng(T * 10 + D)
        blocks = rng.standard_normal((T, D, D))
        blocks[rng.random((T, D, D)) < 0.2] = 0.0
        blocks[rng.random((T, D, D)) < 0.2] = -0.0
        got = dg.assemble_blocks(blocks)
        assert got.shape == (T * D, T * D)
        np.testing.assert_array_equal(got.view(np.int64),
                                      _assemble_blocks_loop(blocks).view(np.int64))


class TestMinSingularValue:
    def test_identity(self):
        assert dg.min_singular_value(np.eye(5)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert dg.min_singular_value(np.diag([3.0, 0.2])) == pytest.approx(0.2)

    def test_two_step_chain_golden_ratio(self):
        """J = [[1, 0], [-1, 1]]: smallest singular value
        sqrt((3 - sqrt(5))/2) ~= 0.618 (eigenvalues of J J^T hand-computed)."""
        J = np.array([[1.0, 0.0], [-1.0, 1.0]])
        expected = np.sqrt((3.0 - np.sqrt(5.0)) / 2.0)
        assert dg.min_singular_value(J) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.6180339887498949, abs=1e-12)


class TestPlBounds:
    def test_lambda_zero_reference_point(self):
        """T=2, D=1, a=b=1: bounds [0.5, sqrt(2/3)] bracket the true 0.618."""
        b = dg.pl_bounds(0.0, T=2, D=1)
        assert b.lower == pytest.approx(0.5)
        assert b.upper == pytest.approx(np.sqrt(2.0 / 3.0))
        true = dg.min_singular_value(np.array([[1.0, 0.0], [-1.0, 1.0]]))
        assert b.lower <= true <= b.upper

    def test_negative_lle_asymptote(self):
        """lambda = -2: the lower bound approaches (1 - e^lambda)/a and stops
        depending on T."""
        lo_10 = dg.pl_bounds(-2.0, T=10, D=1).lower
        lo_100 = dg.pl_bounds(-2.0, T=100, D=1).lower
        assert abs(lo_10 - lo_100) < 1e-8
        assert lo_10 == pytest.approx(-np.expm1(-2.0), abs=1e-8)

    def test_chaotic_upper_bound_collapses(self):
        """lambda = ln 2, T = 10: upper bound 2^{-9}, conditioning collapse."""
        b = dg.pl_bounds(np.log(2.0), T=10, D=1)
        assert b.upper == pytest.approx(2.0 ** -9, rel=1e-12)
        assert b.lower == pytest.approx(1.0 / 1023.0, rel=1e-12)

    def test_pl_sandwich_constant_chains(self):
        """Constant-coefficient scalar chains: the true smallest singular
        value sits inside the bounds for every a in {0.5, 1, 2}."""
        for a in (0.5, 1.0, 2.0):
            lam = np.log(a)
            for T in (2, 4, 8, 16):
                sys_ = P.models.build("affine", T, alpha=a)
                J = dg.assemble_big_j(sys_, P.rollout_sequential(sys_))
                smin = dg.min_singular_value(J)
                b = dg.pl_bounds(lam, T=T, D=1)
                assert b.lower - 1e-12 <= smin <= b.upper + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-3.0, 3.0), st.integers(1, 64), st.integers(1, 16),
           st.floats(1.0, 5.0), st.floats(0.2, 1.0))
    def test_bounds_ordered(self, lam, T, D, a_burn, b_burn):
        b = dg.pl_bounds(lam, a_burn=a_burn, b_burn=b_burn, T=T, D=D)
        assert 0.0 < b.lower <= b.upper <= 1.0 + 1e-12

    def test_validation(self):
        with pytest.raises(P.ContractError):
            dg.pl_bounds(0.0, a_burn=0.5, T=2, D=1)
        with pytest.raises(P.ContractError):
            dg.pl_bounds(0.0, b_burn=1.5, T=2, D=1)


class TestJacobianMismatch:
    def test_newton_zero(self):
        sys_ = P.models.build("gru", 16, D=3, seed=2)
        assert dg.jacobian_mismatch(sys_, P.rollout_sequential(sys_), NEWTON) == 0.0

    def test_s5_jacobi_is_one(self):
        """Permutation transitions have unit spectral norm, so the
        zero-transition approximation is off by exactly one."""
        sys_ = P.models.build("s5", 64, seed=0)
        tr = P.rollout_sequential(sys_)
        assert dg.jacobian_mismatch(sys_, tr, JACOBI) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("method", [JACOBI, PICARD, QUASI_DIAGONAL,
                                        SolverMethod("scaled", 0.5)])
    def test_equals_dense_assembled_norm(self, method):
        """Block-structure shortcut equals the dense spectral norm of the
        assembled difference at small scale."""
        sys_ = P.models.build("rnn", 24, D=4, g=1.1, seed=3)
        tr = P.rollout_sequential(sys_)
        direct = dg.jacobian_mismatch(sys_, tr, method)
        dense = np.linalg.norm(_assemble_approx_j(sys_, tr, method)
                               - dg.assemble_big_j(sys_, tr), 2)
        assert direct == pytest.approx(dense, rel=1e-10, abs=1e-12)


class TestPicardInverseNorm:
    def test_T1(self):
        assert dg.picard_inverse_norm(1) == pytest.approx(1.0, abs=1e-12)

    def test_T2_golden_ratio(self):
        """(1 + sqrt 5)/2, the root of the largest eigenvalue of the 2x2
        min(i, j) matrix [[1, 1], [1, 2]]."""
        expected = np.sqrt(np.linalg.eigvalsh(np.array([[1.0, 1.0], [1.0, 2.0]]))[-1])
        assert dg.picard_inverse_norm(2) == pytest.approx(expected, abs=1e-12)
        assert dg.picard_inverse_norm(2) == pytest.approx((1 + np.sqrt(5)) / 2, abs=1e-12)

    @pytest.mark.parametrize("T", list(range(1, 65)))
    def test_matches_min_matrix_eigenvalue(self, T):
        """Formula equals sqrt(lambda_max) of the min(i, j) Gram matrix."""
        M = np.minimum.outer(np.arange(1, T + 1), np.arange(1, T + 1)).astype(float)
        expected = float(np.sqrt(np.linalg.eigvalsh(M)[-1]))
        assert dg.picard_inverse_norm(T) == pytest.approx(expected, abs=1e-10)

    def test_linear_scaling(self):
        for T in (100, 400, 1000):
            assert 0.6 <= dg.picard_inverse_norm(T) / T <= 0.7


class TestAsymptoticRate:
    def test_scalar_affine_jacobi_rate_is_alpha(self):
        for alpha in (0.1, 0.5, 0.9):
            sys_ = P.models.build("affine", 32, alpha=alpha)
            tr = P.rollout_sequential(sys_)
            assert dg.asymptotic_rate(sys_, tr, JACOBI) == pytest.approx(alpha, abs=1e-12)

    def test_newton_rate_zero(self):
        sys_ = P.models.build("gru", 16, D=3, seed=4)
        assert dg.asymptotic_rate(sys_, P.rollout_sequential(sys_), NEWTON) == 0.0

    def test_gamma_ordering_predicts_zeroth_order_gap(self):
        """gamma for the zero-transition scheme stays below the
        identity-transition scheme on the GRU, whose Jacobian is nowhere near
        the identity; the iteration counts respect that ordering."""
        sys_ = P.models.build("gru", 200, D=8, seed=0)
        tr = P.rollout_sequential(sys_)
        g_j = dg.asymptotic_rate(sys_, tr, JACOBI)
        g_p = dg.asymptotic_rate(sys_, tr, PICARD)
        assert g_j < g_p
        cfg = P.SolverConfig(tol=1e-9, record_history=False)
        it_j = P.fixed_point_solve(sys_, cfg, JACOBI).iterations
        it_p = P.fixed_point_solve(sys_, cfg, PICARD).iterations
        assert it_j < it_p

    def test_quasi_rate_uses_per_coordinate_inverse(self):
        """Diagonal transitions decouple; the dense small-scale assembly and
        the per-coordinate path agree."""
        sys_ = P.models.build("gru", 20, D=4, seed=5)
        tr = P.rollout_sequential(sys_)
        got = dg.asymptotic_rate(sys_, tr, QUASI_DIAGONAL)
        dense_inv = 1.0 / dg.min_singular_value(_assemble_approx_j(sys_, tr, QUASI_DIAGONAL))
        expected = dense_inv * dg.jacobian_mismatch(sys_, tr, QUASI_DIAGONAL)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_unit_scaled_identity_is_picard(self):
        """A scaled identity with coefficient 1 has identity transitions: every
        instrument accepts it and gives Picard's figures, and a sweep row with
        it records no diagnostic failure."""
        sys_ = P.models.build("rnn", 32, D=3, g=0.5, seed=0)
        tr = P.rollout_sequential(sys_)
        unit = SolverMethod("scaled", 1.0)
        rate = dg.asymptotic_rate(sys_, tr, unit)
        assert rate == pytest.approx(dg.asymptotic_rate(sys_, tr, PICARD), rel=1e-12)
        assert dg.jacobian_mismatch(sys_, tr, unit) == dg.jacobian_mismatch(sys_, tr, PICARD)
        np.testing.assert_array_equal(_assemble_approx_j(sys_, tr, unit),
                                      _assemble_approx_j(sys_, tr, PICARD))
        cfg = bench.ExperimentConfig.from_dict({
            "schema": 1, "model": {"kind": "rnn", "D": 3, "g": 0.5, "T": 32},
            "methods": [{"method": "scaled:1.0"}]})
        [row] = bench.run_experiment(cfg)
        assert row.error == "" and row.diag_error == ""
        assert row.gamma == pytest.approx(rate, rel=1e-12)


def _per_coordinate_rate(sys_, tr, method):
    """gamma with one bidiagonal SVD per coordinate, built entry by entry."""
    T, D = tr.horizon, tr.dim
    lane, A = dg._transitions_at(sys_, tr, method)
    diag = lane_apply(lane, A, np.ones((T, D)))
    inv_norms = []
    for j in range(D):
        B = np.eye(T)
        idx = np.arange(1, T)
        B[idx, idx - 1] = -diag[1:, j]
        inv_norms.append(1.0 / dg.min_singular_value(B))
    return float(max(inv_norms) * dg.jacobian_mismatch(sys_, tr, method))


_ZOO_AT_64 = [("affine", dict(alpha=0.7)), ("rnn", dict(D=8, g=1.5)), ("gru", dict(D=4)),
              ("lorenz96", dict(D=5)), ("twowell", {}), ("s5", {}), ("logistic", dict(r=3.5))]


class TestRatePerDistinctChain:
    @pytest.mark.parametrize("kind,params", _ZOO_AT_64, ids=[k for k, _ in _ZOO_AT_64])
    @pytest.mark.parametrize("method", [QUASI_DIAGONAL, SolverMethod("scaled", 0.5)],
                             ids=["quasi", "scaled:0.5"])
    def test_equals_per_coordinate_reference(self, kind, params, method):
        sys_ = P.models.build(kind, 64, seed=3, **params)
        tr = P.rollout_sequential(sys_)
        assert dg.asymptotic_rate(sys_, tr, method) == _per_coordinate_rate(sys_, tr, method)

    def _count_svds(self, monkeypatch):
        calls = []
        inner = dg.min_singular_value

        def counted(M):
            calls.append(M.shape)
            return inner(M)

        monkeypatch.setattr(dg, "min_singular_value", counted)
        return calls

    def test_identical_chains_solved_once(self, monkeypatch):
        """The mean-field RNN's diagonal is exactly 0 in all 8 coordinates."""
        sys_ = P.models.build("rnn", 64, D=8, g=1.5, seed=0)
        tr = P.rollout_sequential(sys_)
        calls = self._count_svds(monkeypatch)
        dg.asymptotic_rate(sys_, tr, QUASI_DIAGONAL)
        assert calls == [(64, 64)]

    def test_chains_apart_by_a_signed_zero_stay_apart(self, monkeypatch):
        """Dedupe is on the bit pattern: a +0 and a -0 chain are two chains,
        while two equal chains are one."""
        sys_ = FunctionSystem(dim=4, horizon=16, initial_state=np.zeros(4),
                              step_fn=lambda t, s: 0.5 * s,
                              diag_fn=lambda t, s: np.array([0.0, -0.0, 0.5, 0.5]))
        tr = P.rollout_sequential(sys_)
        calls = self._count_svds(monkeypatch)
        dg.asymptotic_rate(sys_, tr, QUASI_DIAGONAL)
        assert len(calls) == 3


class TestBasinRadius:
    def test_affine_dynamics_infinite(self):
        assert dg.basin_radius(0.5, 0.0) == float("inf")

    def test_plain_ratio(self):
        assert dg.basin_radius(1.0, 4.0) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(P.ContractError):
            dg.basin_radius(0.0, 1.0)

    def test_residual_halving_on_cubic_testbed(self):
        """Scalar root-finding r(s) = (s - 0.4)^3 + 0.45 (s - 0.4): inside the
        measured basin 2 mu / L, one undamped linearized step contracts the
        residual quadratically, hence below itself."""

        def r(s):
            return (s - 0.4) ** 3 + 0.45 * (s - 0.4)

        def dr(s):
            return 3.0 * (s - 0.4) ** 2 + 0.45

        # measured constants on the working interval
        grid = np.linspace(0.0, 0.8, 4001)
        mu = float(np.min(np.abs(dr(grid)))) ** 2  # sigma_min^2 of the 1x1 Jacobian
        L = float(np.max(np.abs(6.0 * (grid - 0.4))))  # Lipschitz constant of dr
        radius = dg.basin_radius(np.sqrt(mu) ** 2, L)
        s = 0.4 + 0.21  # |r| below the basin radius, inside the grid
        assert abs(r(s)) < radius
        while abs(r(s)) > 1e-12:
            s_next = s - r(s) / dr(s)
            assert abs(r(s_next)) <= (L / (2.0 * mu)) * r(s) ** 2 + 1e-15
            assert abs(r(s_next)) < abs(r(s))
            s = s_next


class TestMeritIsGradientDominated:
    def test_gradient_dominance_on_random_instances(self):
        """(1/2) ||J^T r||^2 >= sigma_min(J)^2 * merit on random small cases."""
        rng = np.random.default_rng(6)
        for k in range(20):
            T, D = int(rng.integers(2, 12)), int(rng.integers(1, 4))
            sys_ = P.models.build("rnn", T, D=D, g=1.2, seed=k)
            tr = P.Trajectory(sys_.initial_state, rng.standard_normal((T, D)))
            J = dg.assemble_big_j(sys_, tr)
            r = P.residual(sys_, tr).ravel()
            grad = J.T @ r
            lhs = 0.5 * float(grad @ grad)
            rhs = dg.min_singular_value(J) ** 2 * P.merit(sys_, tr)
            assert lhs >= rhs - 1e-10 * max(1.0, abs(rhs))


class TestLipschitzInheritance:
    def test_residual_jacobian_inherits_step_lipschitz(self):
        """||J(s') - J(s)||_2 <= L ||s' - s||_2 with L the per-step Jacobian
        Lipschitz bound, measured on the mean-field RNN."""
        sys_ = P.models.build("rnn", 12, D=4, g=1.3, seed=7)
        rng = np.random.default_rng(8)
        # measured per-step bound: tanh'' peaks at 0.7699; ||W||_2 scales it
        L = float(np.linalg.norm(sys_.W, 2)) * 0.7699026
        for _ in range(100):
            x = P.Trajectory(sys_.initial_state, rng.standard_normal((12, 4)))
            y = P.Trajectory(sys_.initial_state, rng.standard_normal((12, 4)))
            dJ = np.linalg.norm(dg.assemble_big_j(sys_, x) - dg.assemble_big_j(sys_, y), 2)
            ds = np.linalg.norm(x.states - y.states)
            assert dJ <= L * ds + 1e-10
