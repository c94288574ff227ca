"""Parallel scan: closure, associativity, tree structure, lane algebra."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parssm as P
from parssm import pscan
from parssm.pscan import (AffineOp, ComposeCounter, Transition, affine_compose,
                          doubling_scan, evaluate_lds, evaluate_stacked, lane_apply,
                          lane_matrices, parallel_scan, row_transition, scan_stacked,
                          tree_scan)


def _rand_dense(rng, d, scale=0.6):
    return AffineOp(Transition.dense(rng.standard_normal((d, d)) * scale), rng.standard_normal(d))


def _transition(kind, rng, d):
    if kind == "scaled":
        return Transition.scaled(rng.uniform(-1.2, 1.2))
    if kind == "diagonal":
        return Transition.diagonal(rng.uniform(-1.2, 1.2, d))
    if kind == "dense":
        return Transition.dense(rng.standard_normal((d, d)) * 0.6)
    return Transition(kind)


def _tree_counts(T):
    """(compositions, up levels, down levels) of ``tree_scan`` over T slots,
    in closed form: floor(log2 T) up-sweep levels with T - popcount(T)
    compositions; down-sweep level l runs for l <= ceil(log2 T) - 2 with
    3 2^l <= T and composes floor((T - 3 2^l) / 2^(l+1)) + 1 slots."""
    down = [lv for lv in range(max(0, (T - 1).bit_length() - 1)) if 3 * 2 ** lv <= T]
    return ((T - bin(T).count("1")) + sum((T - 3 * 2 ** lv) // 2 ** (lv + 1) + 1 for lv in down),
            T.bit_length() - 1, len(down))


def _full_prefix_scan(lane, A, b):
    """Every inclusive prefix (A_{1:t}, b_{1:t}) by the full affine composition
    on each ``tree_scan`` level: the reference the object API must match."""
    A = np.array(A, dtype=np.float64)
    b = np.array(b, dtype=np.float64)
    tree_scan(b.shape[0], lambda hi, lo, closing: pscan._compose_into(lane, A, b, hi, lo))
    return A, b


def _fold(ops):
    acc = ops[0]
    out = [acc]
    for op in ops[1:]:
        acc = affine_compose(acc, op)
        out.append(acc)
    return out


class TestConstructorChecks:
    @pytest.mark.parametrize("make, message", [
        (lambda: Transition.diagonal(np.eye(2)), "needs a 1-D vector"),
        (lambda: Transition.dense(np.ones((2, 3))), "needs a square matrix"),
        (lambda: Transition.dense(np.eye(2)).diag_vector(2), "has no diagonal form"),
        (lambda: AffineOp(Transition.diagonal(np.ones(2)), np.ones(3)),
         "transition dim 2 does not match offset dim 3"),
    ], ids=["diagonal-not-1d", "dense-not-square", "dense-diag-vector", "affine-dims"])
    def test_refuses(self, make, message):
        with pytest.raises(P.ContractError, match=message):
            make()


class TestAffineCompose:
    def test_identity_element(self):
        rng = np.random.default_rng(0)
        x = _rand_dense(rng, 3)
        e = AffineOp(Transition.identity(), np.zeros(3))
        for composed in (affine_compose(e, x), affine_compose(x, e)):
            np.testing.assert_allclose(composed.A.matrix(3), x.A.matrix(3))
            np.testing.assert_allclose(composed.b, x.b)

    def test_matches_hand_expansion(self):
        """Second applied after first: A_j (A_i x + b_i) + b_j at D=2."""
        rng = np.random.default_rng(1)
        first, second = _rand_dense(rng, 2), _rand_dense(rng, 2)
        composed = affine_compose(first, second)
        x = rng.standard_normal(2)
        np.testing.assert_allclose(composed.apply(x), second.apply(first.apply(x)), rtol=1e-13)
        np.testing.assert_allclose(composed.A.matrix(2),
                                   second.A.matrix(2) @ first.A.matrix(2))
        np.testing.assert_allclose(composed.b, second.b + second.A.matrix(2) @ first.b)

    def test_diagonal_closure(self):
        rng = np.random.default_rng(2)
        a = AffineOp(Transition.diagonal(rng.standard_normal(4)), rng.standard_normal(4))
        b = AffineOp(Transition.diagonal(rng.standard_normal(4)), rng.standard_normal(4))
        composed = affine_compose(a, b)
        assert composed.A.kind == "diagonal"
        np.testing.assert_allclose(composed.A.value, b.A.value * a.A.value)

    def test_scaled_closure_and_promotion(self):
        s = AffineOp(Transition.scaled(0.5), np.ones(2))
        d = AffineOp(Transition.diagonal(np.array([2.0, 3.0])), np.zeros(2))
        assert affine_compose(s, s).A.kind == "scaled"
        assert affine_compose(s, d).A.kind == "diagonal"
        dense = AffineOp(Transition.dense(np.eye(2)), np.zeros(2))
        assert affine_compose(s, dense).A.kind == "dense"

    def test_zero_annihilates(self):
        rng = np.random.default_rng(3)
        x = _rand_dense(rng, 3)
        z = AffineOp(Transition.zero(), rng.standard_normal(3))
        out = affine_compose(x, z)
        assert out.A.kind == "zero"
        np.testing.assert_array_equal(out.b, z.b)

    def test_dim_mismatch(self):
        rng = np.random.default_rng(4)
        with pytest.raises(P.ContractError):
            affine_compose(_rand_dense(rng, 2), _rand_dense(rng, 3))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 8))
    def test_associativity(self, seed, d):
        """(x o y) o z == x o (y o z) for random dense triples, 1e-12 relative."""
        rng = np.random.default_rng(seed)
        x, y, z = (_rand_dense(rng, d) for _ in range(3))
        left = affine_compose(affine_compose(x, y), z)
        right = affine_compose(x, affine_compose(y, z))
        scale = max(1.0, np.max(np.abs(left.A.matrix(d))), np.max(np.abs(left.b)))
        assert np.max(np.abs(left.A.matrix(d) - right.A.matrix(d))) <= 1e-12 * scale
        assert np.max(np.abs(left.b - right.b)) <= 1e-12 * scale


class TestParallelScan:
    @pytest.mark.parametrize("T", [1, 2, 3, 5, 7, 8, 13, 29, 64, 100])
    def test_matches_sequential_fold_dense(self, T):
        rng = np.random.default_rng(T)
        ops = [_rand_dense(rng, 3) for _ in range(T)]
        scanned = parallel_scan(ops)
        for got, ref in zip(scanned, _fold(ops)):
            scale = max(1.0, float(np.max(np.abs(ref.A.matrix(3)))), float(np.max(np.abs(ref.b))))
            assert np.max(np.abs(got.A.matrix(3) - ref.A.matrix(3))) <= 1e-10 * scale
            assert np.max(np.abs(got.b - ref.b)) <= 1e-10 * scale

    def test_all_identity_prefixes_stay_identity(self):
        ops = [AffineOp(Transition.identity(), np.zeros(2)) for _ in range(9)]
        for pre in parallel_scan(ops):
            assert pre.A.kind == "identity"

    def test_prefix_class_is_that_of_its_own_elements(self):
        """Zero once a Zero has entered, otherwise the greatest kind seen so
        far in the order identity < scaled < diagonal < dense."""
        rng = np.random.default_rng(6)
        kinds = ["identity", "scaled", "identity", "diagonal", "dense", "zero", "dense"]
        ops = [AffineOp(_transition(k, rng, 3), rng.standard_normal(3)) for k in kinds]
        assert [p.A.kind for p in parallel_scan(ops)] == \
            ["identity", "scaled", "scaled", "diagonal", "dense", "zero", "zero"]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(["zero", "identity", "scaled", "diagonal", "dense"]),
                    min_size=1, max_size=12),
           st.integers(1, 4), st.integers(0, 10_000))
    def test_scan_and_fold_agree(self, kinds, d, seed):
        """Every prefix equals the affine_compose fold in kind, matrix and
        offset (1e-10 relative), over sequences of all five kinds."""
        rng = np.random.default_rng(seed)
        ops = [AffineOp(_transition(k, rng, d), rng.standard_normal(d)) for k in kinds]
        for got, ref in zip(parallel_scan(ops), _fold(ops)):
            assert got.A.kind == ref.A.kind
            scale = max(1.0, np.max(np.abs(ref.A.matrix(d))), np.max(np.abs(ref.b)))
            assert np.max(np.abs(got.A.matrix(d) - ref.A.matrix(d))) <= 1e-10 * scale
            assert np.max(np.abs(got.b - ref.b)) <= 1e-10 * scale

    def test_upsweep_table_walkthrough(self):
        """T=8: after the up-sweep, positions 2, 4, 8 hold the products
        A_{1:2}, A_{1:4}, A_{1:8} exactly as in the tree schedule that
        ``parallel_scan`` walks."""
        rng = np.random.default_rng(8)
        A = rng.standard_normal((8, 2, 2)) * 0.7
        b = rng.standard_normal((8, 2))

        recorded = {}
        import parssm.pscan as pscan_mod

        orig = pscan_mod._compose_into

        def spy(lane, Aarr, barr, hi, lo):
            orig(lane, Aarr, barr, hi, lo)
            for h in range(*hi.indices(len(Aarr))):
                recorded[int(h)] = Aarr[h].copy()

        pscan_mod._compose_into = spy
        try:
            parallel_scan([AffineOp(Transition.dense(a), b_t) for a, b_t in zip(A, b)])
        finally:
            pscan_mod._compose_into = orig

        def chain(lo, hi):
            prod = np.eye(2)
            for t in range(lo, hi + 1):
                prod = A[t - 1] @ prod
            return prod

        # up-sweep targets (0-based positions 1, 3, 7 = time steps 2, 4, 8)
        np.testing.assert_allclose(recorded[1], chain(1, 2), rtol=1e-12)
        np.testing.assert_allclose(recorded[3], chain(1, 4), rtol=1e-12)
        np.testing.assert_allclose(recorded[7], chain(1, 8), rtol=1e-12)
        # down-sweep fills position 6 (time step 6) with A_{1:6}
        np.testing.assert_allclose(recorded[5], chain(1, 6), rtol=1e-12)

    @pytest.mark.parametrize("T", [2, 3, 8, 13, 64, 100, 500])
    def test_compose_budget_and_depth(self, T):
        """On the dense lane: at most 2T element compositions and up-sweep
        depth <= ceil(log2 T)."""
        rng = np.random.default_rng(T)
        counter = ComposeCounter()
        scan_stacked("dense", rng.standard_normal((T, 2, 2)), rng.standard_normal((T, 2)),
                     counter=counter)
        assert counter.compositions <= 2 * T
        assert counter.up_levels <= int(np.ceil(np.log2(T)))
        if T & (T - 1) == 0:
            assert counter.up_levels == int(np.log2(T))

    def test_schedule_is_exact(self):
        """Levels and compositions of ``tree_scan`` equal ``_tree_counts``'s
        closed form for every T in 1..1100. The top up-sweep level and every
        down-sweep level are closing. The counts hold for ``tree_scan`` alone
        and through ``scan_stacked``'s counter."""
        seen = {}
        for T in range(1, 1101):
            want = _tree_counts(T)
            up, down = want[1], want[2]
            closing, counter = [], ComposeCounter()
            tree_scan(T, lambda hi, lo, flag: closing.append(flag), counter)
            assert (counter.compositions, counter.up_levels, counter.down_levels) == want, T
            assert closing == ([False] * (up - 1) + [True] * (1 + down) if up else []), T
            counter = ComposeCounter()
            scan_stacked("diagonal", np.ones((T, 1)), np.zeros((T, 1)), counter=counter)
            seen[T] = (counter.compositions, counter.up_levels, counter.down_levels)
            assert seen[T] == want, T
        assert (seen[8], seen[100], seen[1000]) == ((11, 3, 2), (190, 6, 6), (1984, 9, 9))

    def test_empty_rejected(self):
        with pytest.raises(P.ContractError):
            parallel_scan([])
        with pytest.raises(P.ContractError, match="at least one element"):
            tree_scan(0, lambda hi, lo, closing: None)

    @pytest.mark.parametrize("make", [lambda: Transition.dense(2.0 * np.eye(2)),
                                      lambda: Transition.diagonal(2.0 * np.ones(2))])
    def test_overflowed_prefix_propagates(self, make):
        """2^1100 overflows: the last prefix comes back non-finite in either
        lane (NaN on the dense lane, where inf * 0 enters the product)."""
        ops = [AffineOp(make(), np.zeros(2)) for _ in range(1100)]
        with np.errstate(over="ignore", invalid="ignore"):
            last = parallel_scan(ops)[-1]
        assert not np.all(np.isfinite(last.A.value))
        with pytest.raises(P.ContractError):
            Transition.dense([[np.inf]])

    @pytest.mark.parametrize("scan", [parallel_scan, lambda ops: [affine_compose(*ops)]],
                             ids=["parallel_scan", "affine_compose"])
    def test_overflow_is_quiet(self, scan):
        """An entry of 1e200 squared overflows: like ``evaluate_lds``, the
        scan returns the inf prefix under its own error state, and warns
        nothing."""
        ops = [AffineOp(Transition.dense(np.full((2, 2), 1e200)), np.ones(2))] * 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            last = scan(ops)[-1]
            states = evaluate_lds(ops, np.ones(2)).states
        assert np.all(np.isinf(last.A.value)) and np.all(np.isinf(states[-1]))

    def test_scan_runs_on_one_worker(self):
        with pytest.raises(P.ContractError):
            scan_stacked("diagonal", np.ones((4, 1)), np.zeros((4, 1)), workers=2)

    @pytest.mark.parametrize("kinds", [
        ["zero"], ["identity"], ["scaled"], ["diagonal"], ["dense"],
        ["identity", "scaled"], ["scaled", "diagonal", "identity"], ["zero", "diagonal"],
        ["zero", "identity", "scaled", "diagonal"], ["dense", "identity", "scaled"],
        ["zero", "identity", "scaled", "diagonal", "dense"]])
    @pytest.mark.parametrize("T", [1, 2, 7, 8, 29, 100])
    def test_prefixes_equal_full_prefix_tree_walk(self, kinds, T):
        """Every prefix of ``parallel_scan`` is, bit for bit, the reference
        full-prefix tree walk's on the lane ``_stack`` picks."""
        rng = np.random.default_rng(T * 31 + len(kinds))
        ops = [AffineOp(_transition(kinds[t % len(kinds)], rng, 3), rng.standard_normal(3))
               for t in range(T)]
        lane, A, b = pscan._stack(ops)
        ref_A, ref_b = _full_prefix_scan(lane, A, b)
        for got, a, b_t in zip(parallel_scan(ops), ref_A, ref_b):
            np.testing.assert_array_equal(got.b, b_t)
            np.testing.assert_array_equal(got.A.value, row_transition(got.A.kind, a).value)

    def test_mixed_promotes_and_matches_dense(self):
        """Mixed zero/identity/scaled/diagonal sequences, all on the diagonal
        lane, equal the dense-promoted scan."""
        rng = np.random.default_rng(5)
        D = 3
        ops = []
        for t in range(17):
            r = t % 4
            if r == 0:
                ops.append(AffineOp(Transition.diagonal(rng.standard_normal(D)), rng.standard_normal(D)))
            elif r == 1:
                ops.append(AffineOp(Transition.scaled(float(rng.standard_normal())), rng.standard_normal(D)))
            elif r == 2:
                ops.append(AffineOp(Transition.identity(), rng.standard_normal(D)))
            else:
                ops.append(AffineOp(Transition.zero(), rng.standard_normal(D)))
        mixed = parallel_scan(ops)
        densified = parallel_scan([AffineOp(Transition.dense(op.A.matrix(D)), op.b) for op in ops])
        for got, ref in zip(mixed, densified):
            assert got.A.kind in ("diagonal", "zero")
            np.testing.assert_allclose(got.A.matrix(D), ref.A.matrix(D), atol=1e-10)
            np.testing.assert_allclose(got.b, ref.b, atol=1e-10)


@pytest.mark.parametrize("lane", ["zero", "identity", "diagonal", "dense"])
def test_lane_helpers_match_transitions(lane):
    """Per row, the lane helpers agree with the Transition they stand for."""
    rng = np.random.default_rng(21)
    T, D = 6, 3
    shape = {"diagonal": (T, D), "dense": (T, D, D)}.get(lane)
    A = rng.standard_normal(shape) if shape else None
    X = rng.standard_normal((T, D))
    trans = [row_transition(lane, a) for a in (A if shape else [None] * T)]
    applied = lane_apply(lane, A, X)
    mats = lane_matrices(lane, A, T, D)
    assert len(trans) == T and mats.shape == (T, D, D)
    for t, tr in enumerate(trans):
        assert tr.kind == lane
        np.testing.assert_allclose(applied[t], tr.apply(X[t]), rtol=1e-15, atol=1e-15)
        np.testing.assert_array_equal(mats[t], tr.matrix(D))


@pytest.mark.parametrize("row,kind,value", [
    (np.diag([0.5, -2.0]), "diagonal", np.array([0.5, -2.0])),
    (0.7 * np.eye(2), "scaled", 0.7),
    (np.full(2, 0.7), "scaled", 0.7),
    (np.full(2, np.inf), "scaled", np.inf),
])
def test_row_transition_narrows(row, kind, value):
    """A row in a class below its lane comes back in that class: a dense row
    as its diagonal, a constant diagonal as the scaled identity, unchecked."""
    tr = row_transition(kind, row)
    assert tr.kind == kind and type(tr.value) is type(value)
    np.testing.assert_array_equal(tr.value, value)


class TestEvaluateLds:
    def test_prefix_sum_case(self):
        """Identity transitions with unit offsets: s_t = s0 + t."""
        ones = np.ones(3)
        ops = [AffineOp(Transition.identity(), ones) for _ in range(10)]
        tr = evaluate_lds(ops, np.array([2.0, 0.0, -1.0]))
        for t in range(10):
            np.testing.assert_allclose(tr.states[t], np.array([2.0, 0.0, -1.0]) + (t + 1))

    def test_matches_sequential_recurrence(self):
        rng = np.random.default_rng(12)
        T, D = 64, 4
        ops = [_rand_dense(rng, D, scale=0.5) for _ in range(T)]
        s0 = rng.standard_normal(D)
        tr = evaluate_lds(ops, s0)
        s = s0
        for t in range(T):
            s = ops[t].apply(s)
            scale = max(1.0, float(np.max(np.abs(s))))
            assert np.max(np.abs(tr.states[t] - s)) <= 1e-10 * scale

    def test_s5_permutation_lds(self):
        """The group word problem evaluated as a time-varying linear system."""
        sys_ = P.models.build("s5", 60, seed=9)
        ops = [AffineOp(Transition.dense(sys_.permutation_matrix(t)), np.zeros(5))
               for t in range(1, 61)]
        tr = evaluate_lds(ops, sys_.initial_state)
        np.testing.assert_array_equal(tr.states, P.rollout_sequential(sys_).states)

    def test_mixed_state_sizes_are_a_contract_error(self):
        ops = [AffineOp(Transition.dense(np.eye(2)), np.zeros(2)),
               AffineOp(Transition.dense(np.eye(3)), np.zeros(3))]
        with pytest.raises(P.ContractError):
            evaluate_lds(ops, np.zeros(2))
        with pytest.raises(P.ContractError):
            parallel_scan(ops)

    def test_zero_transitions_are_a_map(self):
        rng = np.random.default_rng(13)
        bvals = rng.standard_normal((7, 2))
        ops = [AffineOp(Transition.zero(), b) for b in bvals]
        tr = evaluate_lds(ops, rng.standard_normal(2))
        np.testing.assert_array_equal(tr.states, bvals)


def _sequential_states(lane, A, b, s0):
    """The recursion s_t = A_t s_{t-1} + b_t, one step at a time."""
    out, s = np.empty_like(b), s0
    for t in range(len(b)):
        s = (A[t] * s if lane == "diagonal" else A[t] @ s) + b[t]
        out[t] = s
    return out


def _random_lds(lane, T, D, seed):
    rng = np.random.default_rng(seed)
    if lane == "diagonal":
        A = rng.uniform(-1.1, 1.1, (T, D))
    else:
        A = rng.standard_normal((T, D, D)) * (0.9 / np.sqrt(D))
    return A, rng.standard_normal((T, D)), rng.standard_normal(D)


# T = 4097 at D >= 4 exceeds DOUBLING_MAX_ELEMENTS: the diagonal lane walks
# the tree there and recursive doubling at the smaller T.
EVAL_T = [1, 2, 3, 5, 8, 100, 128, 129, 1000, 4097]


class TestStatesOnlyEvaluation:
    """``evaluate_stacked`` folds s0 into the first element and scans the
    states alone on every lane that scans: small diagonal stacks by doubling,
    dense and large diagonal ones on the tree, through ``scan_stacked``."""

    @pytest.mark.parametrize("lane", ["diagonal", "dense"])
    @pytest.mark.parametrize("T", EVAL_T)
    def test_matches_sequential_recursion(self, T, lane):
        A, b, s0 = _random_lds(lane, T, 4, T)
        got = evaluate_stacked(lane, A, b, s0)
        want = _sequential_states(lane, A, b, s0)
        scale = np.maximum(1.0, np.abs(want).max(axis=1))
        assert np.all(np.abs(got - want).max(axis=1) <= 1e-10 * scale)

    @pytest.mark.parametrize("lane", ["diagonal", "dense"])
    @pytest.mark.parametrize("T", EVAL_T)
    def test_exact_on_integer_inputs(self, T, lane):
        """0/1 diagonals and permutation matrices with integer offsets: every
        product and sum is an integer below 2^53, so the scan is exact."""
        rng = np.random.default_rng(T + 1)
        D = 5
        if lane == "diagonal":
            A = rng.integers(0, 2, (T, D)).astype(float)
        else:
            A = np.eye(D)[np.array([rng.permutation(D) for _ in range(T)])]
        b = rng.integers(-3, 4, (T, D)).astype(float)
        s0 = rng.integers(-9, 10, D).astype(float)
        np.testing.assert_array_equal(evaluate_stacked(lane, A, b, s0),
                                      _sequential_states(lane, A, b, s0))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("lane", ["diagonal", "dense"])
    @pytest.mark.parametrize("T,k", [(1, 0), (8, 0), (8, 5), (129, 64), (129, 128), (1000, 337),
                                     (6000, 2500)])
    def test_non_finite_offset_leaves_earlier_states(self, T, k, lane, bad):
        """A non-finite b_k leaves every state before k bitwise as it was,
        and every state from k on holds a non-finite entry."""
        A, b, s0 = _random_lds(lane, T, 3, T + k)
        clean = evaluate_stacked(lane, A, b, s0)
        b[k, 1] = bad
        with np.errstate(all="ignore"):
            got = evaluate_stacked(lane, A, b, s0)
        np.testing.assert_array_equal(got[:k], clean[:k])
        assert not np.any(np.all(np.isfinite(got[k:]), axis=1))

    @pytest.mark.parametrize("lane", ["identity", "diagonal", "dense"])
    @pytest.mark.parametrize("T", [9, 1000])
    def test_inputs_are_not_written(self, lane, T):
        """Writeable, read-only and broadcast inputs are all left as they
        were, and a read-only or broadcast input gives the states of its
        writeable, C-ordered copy, bit for bit."""
        A, b, s0 = _random_lds(lane, T, 2, 0)
        A = None if lane == "identity" else A
        copies = [None if x is None else x.copy() for x in (A, b, s0)]
        want = evaluate_stacked(lane, A, b, s0)
        for x, c in zip((A, b, s0), copies):
            np.testing.assert_array_equal(x, c)
        for x in (A, b, s0):
            if x is not None:
                x.flags.writeable = False
        np.testing.assert_array_equal(evaluate_stacked(lane, A, b, s0), want)
        if A is not None:
            shared = np.broadcast_to(A[0], A.shape)
            np.testing.assert_array_equal(evaluate_stacked(lane, shared, b, s0),
                                          evaluate_stacked(lane, shared.copy(), b, s0))

    @pytest.mark.parametrize("D", [1, 5])
    @pytest.mark.parametrize("T", [1, 2, 3, 100, 1000, 4097])
    def test_identity_lane_is_a_prefix_sum(self, T, D):
        """The identity lane is s0 + cumsum(b), bit for bit."""
        _, b, s0 = _random_lds("diagonal", T, D, T + D)
        got = evaluate_stacked("identity", None, b, s0)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, s0[None, :] + np.cumsum(b, axis=0))

    @pytest.mark.parametrize("values", ["real", "binary"])
    @pytest.mark.parametrize("T,D", [(T, D) for D in (1, 5) for T in EVAL_T
                                     if T * D <= pscan.DOUBLING_MAX_ELEMENTS])
    def test_doubling_matches_the_overlapping_combine(self, T, D, values):
        """The scratch-block doubling equals, bit for bit, the combine that
        writes A[hi] A[lo] and b[hi] + A[hi] b[lo] straight into the
        overlapping slices (``_compose_into``), on every doubled size."""
        rng = np.random.default_rng(7 * T + D)
        if values == "real":
            A = rng.uniform(-1.0, 1.0, (T, D))
        else:
            A = rng.integers(0, 2, (T, D)).astype(float)
        b, s0 = rng.standard_normal((T, D)), rng.standard_normal(D)
        want_A, want = A.copy(), b.copy()
        want[0] += want_A[0] * s0
        doubling_scan(T, lambda hi, lo, closing: pscan._compose_into(
            "diagonal", want_A, want, hi, lo, transitions=not closing))
        np.testing.assert_array_equal(evaluate_stacked("diagonal", A, b, s0), want)

    def test_doubling_levels(self):
        """ceil(log2 T) calls for every T in 1..1100: level s combines slots
        s..T-1 with slots 0..T-1-s, and only the last call is closing."""
        for T in range(1, 1101):
            calls = []
            doubling_scan(T, lambda hi, lo, closing: calls.append((hi, lo, closing)))
            levels = (T - 1).bit_length()
            assert len(calls) == levels, T
            assert [c[2] for c in calls] == [False] * (levels - 1) + [True] * (levels > 0), T
            for i, (hi, lo, _) in enumerate(calls):
                assert (hi, lo) == (slice(2 ** i, T), slice(0, T - 2 ** i)), T

    @pytest.mark.parametrize("T,D,driver", [(1000, 5, "doubling_scan"), (4096, 4, "doubling_scan"),
                                            (4097, 4, "tree_scan"), (4096, 8, "tree_scan")])
    def test_diagonal_schedule_by_size(self, T, D, driver, monkeypatch):
        """Doubling up to DOUBLING_MAX_ELEMENTS stacked entries, the tree above."""
        used = []
        for name in ("doubling_scan", "tree_scan"):
            real = getattr(pscan, name)
            monkeypatch.setattr(pscan, name, lambda T, combine, *rest, name=name, real=real:
                                (used.append(name), real(T, combine, *rest))[1])
        evaluate_stacked("diagonal", *_random_lds("diagonal", T, D, 0))
        assert used == [driver]

    @pytest.mark.parametrize("lane,T,D,calls", [("dense", 9, 3, 1), ("diagonal", 4097, 4, 1),
                                                ("diagonal", 4096, 4, 0)])
    def test_tree_runs_scan_stacked(self, lane, T, D, calls, monkeypatch):
        """Every tree walk goes through ``scan_stacked``, the module attribute
        a tracer wraps to count its compositions; doubling does not."""
        seen = []
        real = pscan.scan_stacked
        monkeypatch.setattr(pscan, "scan_stacked", lambda *a, **k: (seen.append(1), real(*a, **k))[1])
        evaluate_stacked(lane, *_random_lds(lane, T, D, 0))
        assert len(seen) == calls

    @pytest.mark.parametrize("T", [1, 2, 3, 8, 13, 100, 128])
    def test_dense_skips_transitions_on_closing_levels(self, T, monkeypatch):
        """A dense evaluation forms A[hi] A[lo] on exactly the levels of
        ``tree_scan`` that are not closing."""
        closing, flags = [], []
        tree_scan(T, lambda hi, lo, flag: closing.append(flag))
        real = pscan._compose_into

        def spy(lane, A, b, hi, lo, transitions=True):
            flags.append(transitions)
            real(lane, A, b, hi, lo, transitions)

        monkeypatch.setattr(pscan, "_compose_into", spy)
        evaluate_stacked("dense", *_random_lds("dense", T, 2, T))
        assert flags == [not c for c in closing]

    def test_dense_counts_survive_the_tracer(self, monkeypatch):
        """A ``ComposeCounter`` injected into ``scan_stacked`` the way the
        benchmark's tracer does it reads ``tree_scan``'s closed-form counts
        for a dense evaluation at every T in 1..300."""
        counters = []
        real = pscan.scan_stacked

        def traced(lane, A, b, workers=1, counter=None):
            counters.append(ComposeCounter())
            return real(lane, A, b, workers=1, counter=counters[-1])

        monkeypatch.setattr(pscan, "scan_stacked", traced)
        for T in range(1, 301):
            evaluate_stacked("dense", *_random_lds("dense", T, 2, T))
            c = counters[-1]
            assert (c.compositions, c.up_levels, c.down_levels) == _tree_counts(T), T
        assert len(counters) == 300

    def test_empty_rejected(self):
        with pytest.raises(P.ContractError, match="at least one element"):
            doubling_scan(0, lambda hi, lo, closing: None)
        for lane, shape in (("diagonal", (0, 2)), ("dense", (0, 2, 2))):
            with pytest.raises(P.ContractError, match="at least one element"):
                evaluate_stacked(lane, np.zeros(shape), np.zeros((0, 2)), np.zeros(2))
