"""Seed-generated problem sets for the four benchmark workloads.

A workload is a list of models (built from the workload seed) and a list of
solves; each solve names one model, one solver setting, and the error bound
its trajectory must meet against that model's sequential rollout. The library
sees only the built models and the solver configs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import parssm as P

KALMAN = "kalman"  # solve family of the Kalman trust region


@dataclass(frozen=True)
class Solve:
    """One solver run on one model of the workload."""

    label: str          # e.g. "g=1.1/newton"
    model: int          # index into the workload's model list
    lane: str           # scan lane one iteration uses: dense|diagonal|scalar|identity|zero
    family: str         # "fixed" or KALMAN
    run: Callable       # run(system) -> parssm.SolveReport
    bound: float        # max abs error allowed against the sequential rollout


@dataclass(frozen=True)
class Spec:
    """How to build one workload at one size."""

    name: str
    make_models: Callable  # (seed) -> list of systems
    make_solves: Callable  # (seed, n_models) -> list[Solve]
    warmup: Callable       # () -> None, exercises every code path on a tiny model


def instance_seeds(workload: str, seed: int, n: int) -> list[int]:
    """n independent 32-bit seeds derived from (workload name, --seed)."""
    key = [ord(c) for c in workload] + [int(seed)]
    return [int(x) for x in np.random.SeedSequence(key).generate_state(n)]


def _fixed(method: str, cfg: P.SolverConfig):
    m = P.SolverMethod.parse(method)
    return lambda system: P.fixed_point_solve(system, cfg, m)


def _kalman(cfg: P.TrustRegionConfig):
    return lambda system: P.kalman_solve(system, cfg)


LANE = {"newton": "dense", "quasi": "diagonal", "picard": "identity", "jacobi": "zero"}


# --- rnn-newton: D=32, T=512, Newton from a normal guess, gains swept --------

def rnn_newton(T=512, D=32, per_gain=14, gains=(0.5, 0.8, 1.1)) -> Spec:
    name = "rnn-newton"

    def make_models(seed):
        seeds = instance_seeds(name, seed, per_gain * len(gains))
        return [P.models.build("rnn", T, D=D, g=g, seed=seeds[i * per_gain + j])
                for i, g in enumerate(gains) for j in range(per_gain)]

    def make_solves(seed, n_models):
        init_seeds = instance_seeds(name + "/init", seed, n_models)
        out = []
        for k in range(n_models):
            cfg = P.SolverConfig(tol=1e-8, init="normal", seed=init_seeds[k])
            g = gains[k // per_gain]
            out.append(Solve(f"g={g}/m{k % per_gain}/newton", k, "dense", "fixed",
                             _fixed("newton", cfg), 1e-6))
        return out

    def warmup():
        s = P.models.build("rnn", 16, D=D, g=0.8, seed=0)
        P.fixed_point_solve(s, P.SolverConfig(tol=1e-8, init="normal"), P.NEWTON)

    return Spec(name, make_models, make_solves, warmup)


# --- s5-merit: permutation word problem, the cheap fixed-point methods -----

# Newton is left out: on S5 it is exact in one pass (about 3 ms), and as a
# fourth cluster below the others it put every median in the gap between the
# jacobi and picard times, where solve_s_p50 spread 0.05-0.075 over five seeds.

def s5_merit(T=1000, n_models=3, methods=("quasi", "picard", "jacobi")) -> Spec:
    name = "s5-merit"

    def make_models(seed):
        return [P.models.build("s5", T, seed=s)
                for s in instance_seeds(name, seed, n_models)]

    def make_solves(seed, n):
        cfg = P.SolverConfig(tol=1e-18, metric="merit")
        return [Solve(f"m{k}/{m}", k, LANE[m], "fixed", _fixed(m, cfg), 1e-9)
                for k in range(n) for m in methods]

    def warmup():
        s = P.models.build("s5", 16, seed=0)
        cfg = P.SolverConfig(tol=1e-18, metric="merit")
        for m in methods:
            P.fixed_point_solve(s, cfg, P.SolverMethod.parse(m))

    return Spec(name, make_models, make_solves, warmup)


# --- gru-long: D=8, T=4096, quasi and newton near break-even ----------------

def gru_long(T=4096, D=8, n_models=8, methods=("quasi", "newton")) -> Spec:
    name = "gru-long"

    def make_models(seed):
        return [P.models.build("gru", T, D=D, seed=s)
                for s in instance_seeds(name, seed, n_models)]

    def make_solves(seed, n):
        cfg = P.SolverConfig(tol=1e-8)
        return [Solve(f"m{k}/{m}", k, LANE[m], "fixed", _fixed(m, cfg), 1e-6)
                for k in range(n) for m in methods]

    def warmup():
        s = P.models.build("gru", 16, D=D, seed=0)
        for m in methods:
            P.fixed_point_solve(s, P.SolverConfig(tol=1e-8), P.SolverMethod.parse(m))

    return Spec(name, make_models, make_solves, warmup)


# --- lorenz96-kalman: chaotic flow, Kalman trust region, full and diagonal --

def lorenz96_kalman(T=128, n_models=36, jacobians=("full", "diagonal"), lam=0.01) -> Spec:
    name = "lorenz96-kalman"

    def make_models(seed):
        return [P.models.build("lorenz96", T, seed=s)
                for s in instance_seeds(name, seed, n_models)]

    def make_solves(seed, n):
        init_seeds = instance_seeds(name + "/init", seed, n)
        out = []
        for k in range(n):
            # Every model gets a full-Jacobian solve, every other model a
            # diagonal one. The two families' iteration counts barely overlap
            # (about 56-68 against 69-106); with an even mix every median
            # fell in the gap, the mean of the largest full and the smallest
            # diagonal count, and iters_p50 spread 0.07 over five seeds.
            for jac in jacobians[:1] if k % 2 else jacobians:
                # An explicit budget: kalman_solve's default, T plus the
                # passes its contraction bound needs (141 at T=128), is short
                # for some diagonal solves (seed 51, m30 converges at 147).
                solver = P.SolverConfig(tol=1e-6, init="normal", seed=init_seeds[k],
                                        max_iters=2 * T)
                cfg = P.TrustRegionConfig(lam=lam, jacobian=jac, solver=solver)
                lane = "dense" if jac == "full" else "diagonal"
                out.append(Solve(f"m{k}/kalman-{jac}", k, lane, KALMAN, _kalman(cfg), 1e-4))
        return out

    def warmup():
        s = P.models.build("lorenz96", 16, seed=0)
        for jac in jacobians:
            solver = P.SolverConfig(tol=1e-6, init="normal")
            P.kalman_solve(s, P.TrustRegionConfig(lam=lam, jacobian=jac, solver=solver))

    return Spec(name, make_models, make_solves, warmup)


# BENCHMARK.json gates s5-merit and lorenz96-kalman only; METRICS.md says why
# rnn-newton and gru-long stay out.
WORKLOADS = {
    "rnn-newton": rnn_newton,
    "s5-merit": s5_merit,
    "gru-long": gru_long,
    "lorenz96-kalman": lorenz96_kalman,
}

# Sizes small enough for the smoke test to run every workload in seconds.
TINY = {
    "rnn-newton": dict(T=32, D=4, per_gain=1),
    "s5-merit": dict(T=24, n_models=1),
    "gru-long": dict(T=48, D=3, n_models=1),
    "lorenz96-kalman": dict(T=16, n_models=1),
}


def scan_levels(T: int) -> int:
    """Synchronized levels of ``pscan.scan_stacked`` on T elements.

    Mirrors the up-sweep/down-sweep loops there, which skip levels whose
    nodes all fall in the power-of-two padding.
    """
    if T <= 1:
        return 0
    levels = max(1, math.ceil(math.log2(T)))
    up = sum(1 for lv in range(levels) if (1 << (lv + 1)) - 1 < T)
    down = sum(1 for lv in range(levels - 1) if 3 * (1 << lv) - 1 < T)
    return up + down


def lane_levels(lane: str, T: int) -> int:
    """Scan levels one linear solve takes in a lane (computed, not timed).

    The zero lane is a pure map; the identity lane is a prefix sum, charged
    the same tree depth as the scan.
    """
    return 0 if lane == "zero" else scan_levels(T)


def solve_depth(solve: Solve, T: int, iterations: int) -> int:
    """Computed parallel depth: per iteration 1 + scan levels, plus T for the
    sequential covariance pass of a Kalman iteration."""
    per_iter = 1 + lane_levels(solve.lane, T)
    if solve.family == KALMAN:
        per_iter += T
    return iterations * per_iter


# Flops and bytes of one element composition in each scan lane, from (lane, D):
# the minimal arithmetic of A_hi @ A_lo and b_hi + A_hi b_lo, and the float64
# words of reading both operands and writing the result. Computed, not measured.

def composition_flops(lane: str, D: int) -> int:
    if lane == "dense":
        return 2 * D ** 3 + 2 * D ** 2
    if lane == "diagonal":
        return 3 * D
    return 2 * D + 1


def composition_bytes(lane: str, D: int) -> int:
    if lane == "dense":
        return 8 * (3 * D * D + 3 * D)
    if lane == "diagonal":
        return 8 * 6 * D
    return 8 * (3 + 3 * D)
