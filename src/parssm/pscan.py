"""Parallel associative scan over closed classes of affine maps x -> A x + b.

The transition slot carries one of five representations. A whole sequence is
scanned as stacked arrays in one lane, the least of

    zero / identity  <  scalar (Zero, Identity, ScaledIdentity)  <  diagonal  <  dense

that holds every element, so per-element cost stays O(D) for the structured
classes and O(D^3) only for dense. This module alone converts lanes to
matrices, Transitions and products A_t x_t and holds their algebra
(``lane_algebra``: product, transpose, inverse). The object API
(``Transition``, ``affine_compose``, ``parallel_scan``) runs on the same lane
code. Each prefix keeps the class of its own elements: Zero absorbs (a prefix
is Zero once a Zero has entered it), Identity holds while every element so
far is Identity, and otherwise the prefix is in the least lane holding the
kinds seen so far. Scan and pairwise fold therefore agree on every class.

The scan is a two-phase tree (up-sweep, then down-sweep) that one driver,
``tree_scan``, walks for any associative combine: the affine one here, the
Kalman filtering-element one in ``trustregion``. Each level combines two
strided slice views, so nothing is padded, gathered or scattered: fewer than
2T combines in floor(log2 T) up-sweep and at most ceil(log2 T) - 1 down-sweep
levels, on one worker (``scan_stacked``'s ``workers`` keyword accepts only 1).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import ContractError, Trajectory, as_state

ZERO = "zero"
IDENTITY = "identity"
SCALED = "scaled"
DIAGONAL = "diagonal"
DENSE = "dense"
SCALAR = "scalar"

_LANE = {ZERO: ZERO, IDENTITY: IDENTITY, SCALED: SCALAR, DIAGONAL: DIAGONAL, DENSE: DENSE}


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
        return None if np.ndim(self.value) == 0 else self.value.shape[0]

    def _row(self):
        """(lane, A) of the one-row lane stack holding this transition."""
        return _LANE[self.kind], None if self.value is None else np.asarray(self.value)[None]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return lane_apply(*self._row(), x[None])[0]

    def matrix(self, dim: int) -> np.ndarray:
        """Materialize as a dense D x D matrix."""
        return lane_matrices(*self._row(), 1, dim)[0]

    def diag_vector(self, dim: int) -> np.ndarray:
        if self.kind == DENSE:
            raise ContractError("dense transition has no diagonal form")
        return self.apply(np.ones(dim))


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


def affine_compose(first: AffineOp, second: AffineOp) -> AffineOp:
    """Compose two affine maps, ``second`` applied after ``first``.

    Returns (A_second A_first, b_second + A_second b_first): the last prefix
    of ``parallel_scan([first, second])``, in the class that scan gives it.
    """
    return parallel_scan([first, second])[-1]


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
# a lane into matrices, Transitions or products A_t x_t, or does its algebra.
# ---------------------------------------------------------------------------


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
    """The lane's transitions as T ``Transition`` objects. The rows are computed,
    so they skip the constructors' input checks: an overflow stays non-finite."""
    if lane == ZERO:
        return [Transition.zero()] * T
    if lane == IDENTITY:
        return [Transition.identity()] * T
    kind = {SCALAR: SCALED, DIAGONAL: DIAGONAL, DENSE: DENSE}[lane]
    return [Transition(kind, float(a) if lane == SCALAR else a) for a in A]


@functools.lru_cache(maxsize=64)
def lane_algebra(lane: str, D: int):
    """(product, transpose, inverse, identity) on the lane's stacks: matrix
    algebra on "dense" (T, D, D) stacks, elementwise on the others. Memoized
    per (lane, D), so the dense identity is built once and is read-only."""
    if lane == DENSE:
        eye = np.eye(D)
        eye.flags.writeable = False
        return np.matmul, lambda X: np.swapaxes(X, -1, -2), np.linalg.inv, eye
    return np.multiply, lambda X: X, np.reciprocal, 1.0


def _compose_into(lane: str, A, b, hi: slice, lo: slice):
    """Overwrite slots ``hi`` with op[hi] o op[lo] (op[lo] acting first)."""
    b[hi] += lane_apply(lane, A[hi], b[lo])
    mul = lane_algebra(lane, b.shape[1])[0]
    mul(A[hi], A[lo], out=A[hi])


def tree_scan(T: int, combine, counter: ComposeCounter | None = None):
    """Run the tree scan over T slots as one ``combine(hi, lo, closing)`` per
    level, which overwrites slots ``hi`` (a strided slice) with their
    combination with the slots ``lo`` 2^l to their left, which act first.
    Up-sweep level l writes slots m 2^(l+1) - 1 (0-based); down-sweep level l,
    coarse to fine, slots m 2^(l+1) + 3 2^l - 1. In order, the levels leave
    every slot holding its inclusive prefix, after fewer than 2T combines.
    ``closing`` marks the top up-sweep level and every down-sweep level: they
    come last, and no later level passes a slot they write as ``hi``."""
    if T == 0:
        raise ContractError("parallel scan needs at least one element")
    levels = (T - 1).bit_length()  # ceil(log2 T)

    def level(lv, first):
        return slice(first, T, 2 << lv), slice(first - (1 << lv), T - (1 << lv), 2 << lv)

    up = [level(lv, (2 << lv) - 1) for lv in range(levels) if (2 << lv) <= T]
    down = [level(lv, (3 << lv) - 1) for lv in range(levels - 2, -1, -1) if (3 << lv) <= T]
    for i, (hi, lo) in enumerate(up + down):
        combine(hi, lo, i >= len(up) - 1)
        if counter is not None:
            counter.add(len(range(T)[hi]))
    if counter is not None:
        counter.up_levels += len(up)
        counter.down_levels += len(down)


def scan_stacked(lane: str, A: np.ndarray, b: np.ndarray, workers: int = 1,
                 counter: ComposeCounter | None = None) -> tuple[np.ndarray, np.ndarray]:
    """All inclusive prefix compositions of a stacked affine sequence: the
    affine composition of two slices on each level of ``tree_scan``.

    ``workers`` must be 1: the scan runs on one worker. The keyword remains
    because the benchmark's span tracer (``perfbench/spans.py``) still passes
    it by name; any other value raises ContractError.
    """
    if workers != 1:
        raise ContractError(f"scan_stacked runs on one worker, got workers={workers}")
    A = np.array(A, dtype=np.float64)
    b = np.array(b, dtype=np.float64)
    tree_scan(b.shape[0], lambda hi, lo, closing: _compose_into(lane, A, b, hi, lo), counter)
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


def _join(kinds) -> str:
    """The least lane holding transitions of every kind in ``kinds``."""
    lanes = {_LANE[k] for k in kinds}
    if len(lanes) == 1:
        return lanes.pop()
    return DENSE if DENSE in lanes else DIAGONAL if DIAGONAL in lanes else SCALAR


def _stack(ops):
    """(lane, A, b) of an op list, in the least lane holding every transition.

    The zero, identity and scalar lanes carry the per-step scalars as A.
    """
    if len(ops) == 0:
        raise ContractError("a scan needs at least one element")
    D = ops[0].dim
    if any(op.dim != D for op in ops):
        raise ContractError("all scan elements must share one state size")
    lane = _join({op.A.kind for op in ops})
    b = np.stack([op.b for op in ops])
    if lane == DENSE:
        return lane, np.stack([op.A.matrix(D) for op in ops]), b
    # a diagonal is the transition applied to ones; a scalar, to a single one
    A = np.stack([op.A.diag_vector(D if lane == DIAGONAL else 1) for op in ops])
    return lane, A if lane == DIAGONAL else A[:, 0], b


def _narrow(lane: str, A, to: str):
    """Stack ``A`` of ``lane`` re-expressed in the lane ``to`` below it, for
    rows that already lie in that class (off-diagonals and spread are zero)."""
    if lane == DENSE and to != DENSE:
        lane, A = DIAGONAL, np.diagonal(A, axis1=1, axis2=2)
    return A[:, 0] if lane == DIAGONAL and to != DIAGONAL else A


def parallel_scan(ops):
    """All inclusive prefixes: element t is ops_t o ... o ops_1.

    The sequence is scanned in the least lane holding every element. Prefix t
    is returned in the class of ops_1 .. ops_t: Zero once a Zero has entered
    it, Identity while every element so far is Identity, and otherwise the
    least lane holding the kinds seen so far.
    """
    ops = list(ops)
    lane, A, b = _stack(ops)
    pA, pb = scan_stacked(lane, A, b)
    out, seen = [], set()
    for t, op in enumerate(ops):
        seen.add(op.A.kind)
        cls = ZERO if ZERO in seen else _join(seen)
        out.append(AffineOp(lane_transitions(cls, _narrow(lane, pA[t:t + 1], cls), 1)[0], pb[t]))
    return out


def evaluate_lds(ops, s0) -> Trajectory:
    """Roll out the LDS defined by ``ops`` from s0, in O(log T) scan depth.

    Equals the sequential recurrence s_t = A_t s_{t-1} + b_t up to tree
    reassociation (relative infinity norm ~1e-10 at desk scale). Non-finite
    values propagate; callers detect them.
    """
    lane, A, b = _stack(list(ops))
    s0 = as_state(s0, b.shape[1])
    with np.errstate(all="ignore"):
        states = evaluate_stacked(lane, A, b, s0)
    return Trajectory(s0, states)
