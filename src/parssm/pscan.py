"""Parallel associative scan over closed classes of affine maps x -> A x + b.

The transition slot carries one of five representations. Composition promotes
upward through the lattice

    Zero / Identity / ScaledIdentity  <  Diagonal  <  Dense

so per-element cost stays O(D) for the structured classes and O(D^3) only for
Dense. Whole sequences are scanned as stacked arrays in one lane, and this
module alone converts lanes to matrices, Transitions and products A_t x_t.
The scan itself is a two-phase tree (up-sweep building power-of-two partial
products, down-sweep filling in the remaining inclusive prefixes). Each level
composes two strided slice views of the sequence, so nothing is padded,
gathered or scattered. It performs fewer than 2T element compositions in
floor(log2 T) up-sweep and at most ceil(log2 T) - 1 down-sweep levels, on one
worker: ``scan_stacked`` keeps a ``workers`` keyword that accepts only 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractError, Trajectory, as_state

ZERO = "zero"
IDENTITY = "identity"
SCALED = "scaled"
DIAGONAL = "diagonal"
DENSE = "dense"

_RANK = {IDENTITY: 0, SCALED: 1, DIAGONAL: 2, DENSE: 3}


@dataclass(frozen=True)
class Transition:
    """One linear-map representation: Dense | Diagonal | ScaledIdentity | Identity | Zero."""

    kind: str
    value: object = None

    @staticmethod
    def zero() -> "Transition":
        return Transition(ZERO)

    @staticmethod
    def identity() -> "Transition":
        return Transition(IDENTITY)

    @staticmethod
    def scaled(a: float) -> "Transition":
        return Transition(SCALED, float(a))

    @staticmethod
    def diagonal(d) -> "Transition":
        d = np.asarray(d, dtype=np.float64)
        if d.ndim != 1:
            raise ContractError("diagonal transition needs a 1-D vector")
        return Transition(DIAGONAL, d)

    @staticmethod
    def dense(m) -> "Transition":
        m = np.asarray(m, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ContractError("dense transition needs a square matrix")
        if not np.all(np.isfinite(m)):
            raise ContractError("dense transition entries must be finite")
        return Transition(DENSE, m)

    @property
    def dim(self) -> int | None:
        """Intrinsic dimension, or None for the dimension-free scalar kinds."""
        if self.kind in (DIAGONAL, DENSE):
            return self.value.shape[0]
        return None

    def scalar(self) -> float:
        if self.kind == ZERO:
            return 0.0
        if self.kind == IDENTITY:
            return 1.0
        if self.kind == SCALED:
            return self.value
        raise ContractError(f"{self.kind} transition has no scalar form")

    def diag_vector(self, dim: int) -> np.ndarray:
        if self.kind == DIAGONAL:
            return self.value
        if self.kind == DENSE:
            raise ContractError("dense transition has no diagonal form")
        return np.full(dim, self.scalar())

    def matrix(self, dim: int) -> np.ndarray:
        """Materialize as a dense D x D matrix."""
        if self.kind == DENSE:
            return self.value
        return np.diag(self.diag_vector(dim))

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self.kind == ZERO:
            return np.zeros_like(x)
        if self.kind == IDENTITY:
            return x
        if self.kind in (SCALED, DIAGONAL):
            return self.value * x
        return self.value @ x


@dataclass(frozen=True)
class AffineOp:
    """One step of a linear dynamical system: x -> A x + b."""

    A: Transition
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", as_state(self.b))
        d = self.A.dim
        if d is not None and d != self.b.shape[0]:
            raise ContractError(f"transition dim {d} does not match offset dim {self.b.shape[0]}")

    @property
    def dim(self) -> int:
        return self.b.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.A.apply(x) + self.b


def compose_transitions(first: Transition, second: Transition) -> Transition:
    """Transition of second o first, i.e. A_second A_first, in the join class."""
    if first.kind == ZERO or second.kind == ZERO:
        return Transition.zero()
    rank = max(_RANK[first.kind], _RANK[second.kind])
    if rank == 0:
        return Transition.identity()
    if rank == 1:
        return Transition.scaled(second.scalar() * first.scalar())
    dim = first.dim if first.dim is not None else second.dim
    if rank == 2:
        return Transition.diagonal(second.diag_vector(dim) * first.diag_vector(dim))
    return Transition.dense(second.matrix(dim) @ first.matrix(dim))


def affine_compose(first: AffineOp, second: AffineOp) -> AffineOp:
    """Compose two affine maps, ``second`` applied after ``first``.

    Returns (A_second A_first, b_second + A_second b_first). The representation
    is the join of the two variants; a Zero transition in the second slot
    annihilates the product (result A = Zero, b = b_second).
    """
    if first.dim != second.dim:
        raise ContractError(f"dimension mismatch: {first.dim} vs {second.dim}")
    return AffineOp(
        compose_transitions(first.A, second.A),
        second.b + second.A.apply(first.b),
    )


class ComposeCounter:
    """Instrumentation: counts element compositions and synchronized levels."""

    def __init__(self):
        self.compositions = 0
        self.up_levels = 0
        self.down_levels = 0

    def add(self, n: int):
        self.compositions += int(n)


# ---------------------------------------------------------------------------
# stacked-array engine
#
# A lane is the promoted representation of a whole sequence:
#   "zero"     -> every transition is Zero      A is None or (T,) zeros
#   "identity" -> every transition is Identity  A is None or (T,) ones
#   "scalar"   -> A has shape (T,)        covers Zero/Identity/ScaledIdentity
#   "diagonal" -> A has shape (T, D)
#   "dense"    -> A has shape (T, D, D)
# b always has shape (T, D). The lane_* helpers are the only code that turns
# a lane into matrices, Transitions or products A_t x_t.
# ---------------------------------------------------------------------------

SCALAR = "scalar"


def lane_apply(lane: str, A, X: np.ndarray) -> np.ndarray:
    """Row-wise products A_t x_t of the lane's transitions with the rows of X."""
    if lane == ZERO:
        return np.zeros_like(X)
    if lane == IDENTITY:
        return X
    if lane == SCALAR:
        return A[:, None] * X
    if lane == DIAGONAL:
        return A * X
    return np.einsum("tij,tj->ti", A, X)


def lane_matrices(lane: str, A, T: int, D: int) -> np.ndarray:
    """The lane's transitions as a (T, D, D) stack of dense matrices."""
    if lane == DENSE:
        return A
    out = np.zeros((T, D, D))
    i = np.arange(D)
    out[:, i, i] = lane_apply(lane, A, np.ones((T, D)))  # the diagonal is A_t applied to ones
    return out


def lane_transitions(lane: str, A, T: int) -> list:
    """The lane's transitions as T ``Transition`` objects."""
    if lane == ZERO:
        return [Transition.zero()] * T
    if lane == IDENTITY:
        return [Transition.identity()] * T
    make = {SCALAR: Transition.scaled, DIAGONAL: Transition.diagonal, DENSE: Transition.dense}[lane]
    return [make(a) for a in A]


def _compose_into(lane: str, A, b, hi: slice, lo: slice):
    """Overwrite slots ``hi`` with op[hi] o op[lo] (op[lo] acting first)."""
    b[hi] += lane_apply(lane, A[hi], b[lo])
    if lane == DENSE:
        A[hi] = A[hi] @ A[lo]
    else:
        A[hi] *= A[lo]


def scan_stacked(lane: str, A: np.ndarray, b: np.ndarray, workers: int = 1,
                 counter: ComposeCounter | None = None) -> tuple[np.ndarray, np.ndarray]:
    """All inclusive prefix compositions of a stacked affine sequence.

    Two-phase tree scan on strided views of the sequence itself. Up-sweep
    level l composes slots m 2^(l+1) - 1 (0-based) with the slot 2^l to
    their left; down-sweep level l, coarse to fine, does the same for slots
    m 2^(l+1) + 3 2^l - 1. Each level is one batched composition of two
    disjoint slices, so every node is computed exactly once, fewer than 2T
    compositions in all.

    ``workers`` must be 1: the scan runs on one worker. The keyword remains
    because the benchmark's span tracer (``perfbench/spans.py``) still passes
    it by name; any other value raises ContractError.
    """
    if workers != 1:
        raise ContractError(f"scan_stacked runs on one worker, got workers={workers}")
    T = b.shape[0]
    if T == 0:
        raise ContractError("parallel scan needs at least one element")
    A = np.array(A, dtype=np.float64)
    b = np.array(b, dtype=np.float64)
    levels = (T - 1).bit_length()  # ceil(log2 T)
    up = [(lv, (2 << lv) - 1) for lv in range(levels) if (2 << lv) <= T]
    down = [(lv, (3 << lv) - 1) for lv in range(levels - 2, -1, -1) if (3 << lv) <= T]
    for lv, first in up + down:
        step, half = 2 << lv, 1 << lv
        _compose_into(lane, A, b, slice(first, T, step), slice(first - half, T - half, step))
        if counter is not None:
            counter.add(len(range(first, T, step)))
    if counter is not None:
        counter.up_levels += len(up)
        counter.down_levels += len(down)
    return A, b


def evaluate_stacked(lane: str, A: np.ndarray, b: np.ndarray, s0: np.ndarray) -> np.ndarray:
    """States of the LDS s_t = A_t s_{t-1} + b_t, from stacked arrays.

    Zero transitions bypass the scan (embarrassingly parallel map); identity
    transitions reduce to a prefix sum. Other lanes run the tree scan and
    apply the prefix operators to s0.
    """
    if lane == ZERO:
        return b.copy()
    if lane == IDENTITY:
        return s0[None, :] + np.cumsum(b, axis=0)
    pA, pb = scan_stacked(lane, A, b)
    return lane_apply(lane, pA, np.broadcast_to(s0, pb.shape)) + pb


# ---------------------------------------------------------------------------
# AffineOp-level API
# ---------------------------------------------------------------------------


def _stack(ops):
    """(lane, A, b) of an op list, in the least lane holding every transition.

    The zero, identity and scalar lanes carry the per-step scalars as A.
    """
    kinds = {op.A.kind for op in ops}
    D = ops[0].dim
    b = np.stack([op.b for op in ops])
    if DENSE in kinds:
        return DENSE, np.stack([op.A.matrix(D) for op in ops]), b
    if DIAGONAL in kinds:
        return DIAGONAL, np.stack([op.A.diag_vector(D) for op in ops]), b
    lane = ZERO if kinds == {ZERO} else IDENTITY if kinds == {IDENTITY} else SCALAR
    return lane, np.array([op.A.scalar() for op in ops]), b


def parallel_scan(ops, counter: ComposeCounter | None = None):
    """All inclusive prefixes: element t is ops_t o ... o ops_1.

    Mixed sequences are promoted to the least representation class containing
    every variant before scanning ({Dense} or {Diagonal u ScaledIdentity u
    Identity u Zero}); scalar-kind sequences keep their exact variant
    bookkeeping (all-identity prefixes stay Identity, a Zero annihilates).
    """
    ops = list(ops)
    if len(ops) == 0:
        raise ContractError("parallel scan needs at least one element")
    D = ops[0].dim
    for op in ops:
        if op.dim != D:
            raise ContractError("all scan elements must share one state size")
    lane, A, b = _stack(ops)
    pA, pb = scan_stacked(lane, A, b, counter=counter)
    if lane != SCALAR:
        return [AffineOp(A_t, b_t) for A_t, b_t in zip(lane_transitions(lane, pA, len(ops)), pb)]
    out = []
    saw_zero = False
    all_identity = True
    for t, op in enumerate(ops):
        saw_zero = saw_zero or op.A.kind == ZERO
        all_identity = all_identity and op.A.kind == IDENTITY
        if saw_zero:
            A_t = Transition.zero()
        elif all_identity:
            A_t = Transition.identity()
        else:
            A_t = Transition.scaled(pA[t])
        out.append(AffineOp(A_t, pb[t]))
    return out


def evaluate_lds(ops, s0) -> Trajectory:
    """Roll out the LDS defined by ``ops`` from s0, in O(log T) scan depth.

    Equals the sequential recurrence s_t = A_t s_{t-1} + b_t up to tree
    reassociation (relative infinity norm ~1e-10 at desk scale). Non-finite
    values propagate; callers detect them.
    """
    ops = list(ops)
    if len(ops) == 0:
        raise ContractError("evaluate_lds needs at least one element")
    s0 = as_state(s0, ops[0].dim)
    lane, A, b = _stack(ops)
    with np.errstate(all="ignore"):
        states = evaluate_stacked(lane, A, b, s0)
    return Trajectory(s0, states)
