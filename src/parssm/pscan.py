"""Parallel associative scan over closed classes of affine maps x -> A x + b.

A transition is one of five kinds (Zero, Identity, ScaledIdentity, Diagonal,
Dense), and a whole sequence is scanned as stacked arrays in one of four
lanes: zero or identity when every element is that kind, dense when any
element is dense, and diagonal otherwise. The diagonal lane holds every
elementwise kind as its diagonal (a scaled identity a as the constant a 1),
so per-element cost stays O(D) for the structured kinds and O(D^3) only for
dense. This module alone converts lanes to matrices, Transitions and
products A_t x_t and holds their algebra (``lane_algebra``: product,
transpose, inverse). The object API (``Transition``, ``affine_compose``,
``parallel_scan``) runs on the same lane code. Each prefix keeps the class
of its own elements: Zero once a Zero has entered it, and otherwise the
greatest kind seen so far in the order identity < scaled < diagonal < dense.
Scan and pairwise fold therefore agree on every class.

Two drivers walk a scan's levels for any associative ``combine(hi, lo,
closing)``: the affine one here, the Kalman filtering-element one in
``trustregion``. ``tree_scan`` is the work-efficient two-phase tree: fewer
than 2T combines over at most 2 ceil(log2 T) - 1 levels of strided slices.
``doubling_scan`` is recursive doubling: at most T ceil(log2 T) combines over
ceil(log2 T) levels of contiguous slices. Nothing is padded or gathered, and
all runs on one worker. ``evaluate_stacked`` folds s0 into the first element
and scans the states alone: by doubling on small diagonal stacks, whose
combine writes through one scratch block per call, and on the tree
(``scan_stacked``) otherwise. Only ``parallel_scan`` forms every prefix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import ContractError, Trajectory, as_state, require_finite

ZERO = "zero"
IDENTITY = "identity"
SCALED = "scaled"
DIAGONAL = "diagonal"
DENSE = "dense"

_LANE = {ZERO: ZERO, IDENTITY: IDENTITY, SCALED: DIAGONAL, DIAGONAL: DIAGONAL, DENSE: DENSE}
_ORDER = (IDENTITY, SCALED, DIAGONAL, DENSE)  # a prefix's kind is the greatest it has seen


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
        require_finite("a scaled identity's coefficient", a)
        return Transition(SCALED, float(a))

    @staticmethod
    def diagonal(d) -> "Transition":
        d = np.asarray(d, dtype=np.float64)
        if d.ndim != 1:
            raise ContractError("diagonal transition needs a 1-D vector")
        if not np.all(np.isfinite(d)):
            raise ContractError("diagonal transition entries must be finite")
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
        """Intrinsic dimension, or None for Zero, Identity and ScaledIdentity."""
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
#   "zero"     -> every transition is Zero      A is None or zeros
#   "identity" -> every transition is Identity  A is None or ones
#   "diagonal" -> A has shape (T, D)    covers every kind but Dense
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


def row_transition(kind: str, row) -> Transition:
    """One row of a lane stack as a Transition of ``kind``, a class the row
    lies in (its off-diagonals, and for "scaled" the spread of its diagonal,
    are zero): a dense row is narrowed to its diagonal, and Zero and Identity
    read nothing. The row is computed, so it skips the constructors' input
    checks: an overflow stays non-finite."""
    if kind in (ZERO, IDENTITY):
        return Transition(kind)
    if kind != DENSE and np.ndim(row) == 2:
        row = np.diagonal(row)
    return Transition(kind, float(row[0]) if kind == SCALED else row)


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


def _compose_into(lane: str, A, b, hi: slice, lo: slice, transitions: bool = True):
    """Overwrite slots ``hi`` with op[hi] o op[lo] (op[lo] acting first), or
    only their offsets when ``transitions`` is False. The slices may overlap."""
    b[hi] += lane_apply(lane, A[hi], b[lo])
    if transitions:
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


def doubling_scan(T: int, combine):
    """Run recursive doubling over T slots: level s = 1, 2, 4, ... < T calls
    ``combine(slice(s, T), slice(0, T - s), closing)``, combining each slot
    t >= s with slot t - s, which acts first. ``closing`` marks the last
    level. The slices overlap, so a combine must read ``lo`` before it writes
    ``hi``. A ufunc's ``out=`` copies overlapping inputs first, which costs a
    copy per level; ``evaluate_stacked``'s combine instead forms each product
    in one scratch block per call and then writes it into ``hi``."""
    if T == 0:
        raise ContractError("parallel scan needs at least one element")
    s = 1
    while s < T:
        combine(slice(s, T), slice(0, T - s), 2 * s >= T)
        s *= 2


# Doubling does T ceil(log2 T) elementwise compositions to the tree's fewer
# than 2T, but in half the levels and on contiguous slices, so it is faster
# while numpy's per-call cost outweighs the extra work. The crossover depends
# on T, not on T D alone. Diagonal evaluate_stacked, one BLAS thread on a
# 2-core Xeon VM, medians of 15 rotating rounds, the scratch-block doubling's
# time over the tree's: at T D = 2^14, 0.56-0.58 at T=8192 (D=2) and T=2048
# (D=8), 0.70-0.74 at T=256 (D=64) and T=4096 (D=4), 0.97 at T=3276 (D=5),
# and 1.61 at T=16384 (D=1); above it, 0.54 at T=4096 (D=5) and 0.71 at
# T=8192 (D=4), but 1.06 at T=10000 (D=5) and 1.42 at T=4096 (D=8). At
# T=1000, D=5, s5-merit's size, it reads 0.62. No one bound on T D fits
# every cell, and moving it would change which driver gru-long's windows
# take, so it stays.
DOUBLING_MAX_ELEMENTS = 1 << 14


def scan_stacked(lane: str, A: np.ndarray, b: np.ndarray, workers: int = 1,
                 counter: ComposeCounter | None = None) -> np.ndarray:
    """States of s_t = A_t s_{t-1} + b_t from s_0 = 0, on ``tree_scan``.

    Every level runs b[hi] += A[hi] b[lo], and A[hi] A[lo] is formed only on
    levels that are not closing, since no later level reads it. Works in
    place: b is returned holding the states, and A holds partial products.

    ``workers`` must be 1; the benchmark's span tracer still passes it.
    """
    if workers != 1:
        raise ContractError(f"scan_stacked runs on one worker, got workers={workers}")
    tree_scan(len(b), lambda hi, lo, closing: _compose_into(
        lane, A, b, hi, lo, transitions=not closing), counter)
    return b


def evaluate_stacked(lane: str, A: np.ndarray, b: np.ndarray, s0: np.ndarray) -> np.ndarray:
    """States of the LDS s_t = A_t s_{t-1} + b_t, from stacked arrays.

    Zero transitions bypass the scan (embarrassingly parallel map); identity
    transitions reduce to a prefix sum, s0 added in place. The others scan
    the states alone, on C-ordered copies with s0 folded into the first
    element (b_1 <- A_1 s0 + b_1): diagonal stacks of up to
    ``DOUBLING_MAX_ELEMENTS`` entries by ``doubling_scan``, whose levels form
    A[hi] b[lo] and A[hi] A[lo] in one scratch block shaped like b, so none
    allocates or overlaps a ufunc's output with an input; the rest by
    ``scan_stacked``, which the tracer counts.
    """
    if lane == ZERO:
        return b.copy()
    if lane == IDENTITY:
        states = np.cumsum(b, axis=0)
        states += s0
        return states
    A = np.array(A, dtype=np.float64, order="C")
    b = np.array(b, dtype=np.float64, order="C")
    if len(b) == 0:
        raise ContractError("parallel scan needs at least one element")
    b[0] += A[0] @ s0 if lane == DENSE else A[0] * s0
    if lane == DENSE or b.size > DOUBLING_MAX_ELEMENTS:
        return scan_stacked(lane, A, b)
    scratch = np.empty_like(b)

    def combine(hi, lo, closing):
        out = scratch[lo]
        np.multiply(A[hi], b[lo], out=out)
        b[hi] += out
        if not closing:
            np.multiply(A[hi], A[lo], out=out)
            A[hi] = out

    doubling_scan(len(b), combine)
    return b


# ---------------------------------------------------------------------------
# AffineOp-level API
# ---------------------------------------------------------------------------


def _stack(ops):
    """(lane, A, b) of an op list: the zero or identity lane when every
    transition is that kind, the dense lane when any is dense, and otherwise
    the diagonal lane. Below dense, A stacks each transition's diagonal."""
    if len(ops) == 0:
        raise ContractError("a scan needs at least one element")
    D = ops[0].dim
    if any(op.dim != D for op in ops):
        raise ContractError("all scan elements must share one state size")
    kinds = {op.A.kind for op in ops}
    lane = kinds.pop() if kinds in ({ZERO}, {IDENTITY}) else DENSE if DENSE in kinds else DIAGONAL
    b = np.stack([op.b for op in ops])
    if lane == DENSE:
        return lane, np.stack([op.A.matrix(D) for op in ops]), b
    return lane, np.stack([op.A.diag_vector(D) for op in ops]), b


def parallel_scan(ops):
    """All inclusive prefixes: element t is ops_t o ... o ops_1.

    The sequence is scanned in the lane ``_stack`` picks. Prefix t is returned
    in the class of ops_1 .. ops_t: Zero once a Zero has entered it, and
    otherwise the greatest kind among them, in the order identity < scaled <
    diagonal < dense. Holds one numpy error state for the call.
    """
    with np.errstate(all="ignore"):
        ops = list(ops)
        lane, A, b = _stack(ops)
        tree_scan(len(b), lambda hi, lo, closing: _compose_into(lane, A, b, hi, lo))
        out, kind = [], IDENTITY
        for op, a, b_t in zip(ops, A, b):
            kind = ZERO if ZERO in (kind, op.A.kind) else max(kind, op.A.kind, key=_ORDER.index)
            out.append(AffineOp(row_transition(kind, a), b_t))
        return out


def evaluate_lds(ops, s0) -> Trajectory:
    """Roll out the LDS defined by ``ops`` from s0, in O(log T) scan depth.

    Equals the sequential recurrence s_t = A_t s_{t-1} + b_t up to scan
    reassociation (relative infinity norm ~1e-10 at desk scale). Non-finite
    values propagate; callers detect them.
    """
    lane, A, b = _stack(list(ops))
    s0 = as_state(s0, b.shape[1])
    with np.errstate(all="ignore"):
        states = evaluate_stacked(lane, A, b, s0)
    return Trajectory(s0, states)
