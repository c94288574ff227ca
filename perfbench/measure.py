"""Set-up, timed rounds, the correctness gate and the metrics of one run.

A pass solves every instance of the workload once, one problem at a time (a
closed loop with one client). Untraced runs repeat set-up and a pass for
several rounds and report the end-to-end metrics, with every time scaled to
the reference speed of ``speed.py``; traced runs make one untraced and one
traced pass over the same instances and report per-layer self times (wall
seconds, unscaled) and counts from the spans.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

import parssm as P

import spans
from speed import Clock
from workloads import KALMAN, WORKLOADS, scan_levels, solve_depth

MIN_SETUPS = 5  # set-ups per untraced run, at the least

LANES = ("dense", "diagonal", "scalar", "identity", "zero")

END_TO_END = {
    "solve_s_p50": "s", "solve_s_tail": "s", "steps_per_s": "steps/s",
    "rollout_s_p50": "s", "iters_p50": "count", "depth_p50": "count",
    "ok_frac": "ratio", "setup_s": "s", "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"pscan.{lane}.self_s": "s" for lane in LANES},
    "pscan.compositions": "count", "pscan.levels": "count",
    "pscan.flops_computed": "flop", "pscan.bytes_computed": "byte",
    "models.step_batch.calls": "count", "models.step_batch.rows": "count",
    "models.step_batch.self_s": "s",
    "models.jacobian_batch.rows": "count", "models.jacobian_batch.self_s": "s",
    "models.diag_jacobian_batch.rows": "count", "models.diag_jacobian_batch.self_s": "s",
    "models.step.self_s": "s",
    "jacutils.fd_jacobian_batch.rows": "count", "jacutils.fd_jacobian_batch.self_s": "s",
    "jacutils.hutchinson_diag_batch.rows": "count", "jacutils.hutchinson_diag_batch.self_s": "s",
    "fixedpoint.self_s": "s", "fixedpoint.iterations": "count", "fixedpoint.resets": "count",
    "fixedpoint.f_rows_per_step": "ratio",
    "core.merit.calls": "count", "core.merit.self_s": "s", "core.max_abs_diff.self_s": "s",
    "core.rollout_sequential.self_s": "s",
    "trustregion.self_s": "s", "trustregion.iterations": "count",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Outcome:
    """One attempted solve."""

    label: str
    seconds: float
    T: int
    iterations: int = 0
    resets: int = 0
    error: float = float("nan")
    failure: str | None = None
    anchor: int = -1   # calibration sample taken just before the solve


@dataclass
class Prepared:
    systems: list
    solves: list
    oracles: list
    pieces: list       # (wall seconds, anchor) of each timed step of the set-up

    @property
    def setup_s(self) -> float:
        return sum(seconds for seconds, _ in self.pieces)


def setup(spec, seed: int, clock: Clock | None = None) -> Prepared:
    """Build the models, roll out each oracle and warm up.

    Each step is timed on its own, after a calibration sample when ``clock``
    is given, so that each is scaled by the host speed next to it.
    """
    pieces = []

    def timed(fn, *args):
        anchor = clock.tick() if clock else -1
        t0 = time.perf_counter()
        out = fn(*args)
        pieces.append((time.perf_counter() - t0, anchor))
        return out

    systems = timed(spec.make_models, seed)
    oracles = [timed(P.rollout_sequential, system) for system in systems]
    timed(spec.warmup)
    return Prepared(systems, spec.make_solves(seed, len(systems)), oracles, pieces)


def attempt(solve, system, oracle, span=None) -> Outcome:
    """Run one solve and hold it to the correctness gate against the oracle.

    ``span``, when given, opens the traced root span around the solve alone.
    """
    root = "trustregion" if solve.family == KALMAN else "fixedpoint"
    t0 = time.perf_counter()
    try:
        with span(root) if span else contextlib.nullcontext():
            report = solve.run(system)
    except Exception as exc:  # a failed solve is recorded and the run goes on
        return Outcome(solve.label, time.perf_counter() - t0, system.horizon,
                       failure=f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    out = Outcome(solve.label, seconds, system.horizon, report.iterations, report.resets)
    out.error = P.max_abs_diff(report.trajectory, oracle)
    if not report.converged:
        out.failure = f"NotConverged: stopped after {report.iterations} iterations"
    elif not out.error <= solve.bound:
        out.failure = f"OverBound: error {out.error:.3e} against the oracle exceeds {solve.bound:.0e}"
    return out


def run_pass(prep: Prepared, span=None, rollouts: list | None = None,
             clock: Clock | None = None) -> list[Outcome]:
    """Solve every instance once, in order.

    With ``rollouts``, the model's sequential rollout is timed just before
    each solve and appended there as (seconds, anchor), so rollout timings
    sample the same stretch of the run as the solves. With ``clock``, a
    calibration sample precedes every timed rollout and solve.
    """
    gc.collect()
    out = []
    for s in prep.solves:
        system = prep.systems[s.model]
        if rollouts is not None:
            anchor = clock.tick() if clock else -1
            r0 = time.perf_counter()
            with span("core.rollout_sequential") if span else contextlib.nullcontext():
                P.rollout_sequential(system)
            rollouts.append((time.perf_counter() - r0, anchor))
        anchor = clock.tick() if clock else -1
        out.append(attempt(s, system, prep.oracles[s.model], span))
        out[-1].anchor = anchor
    return out


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 samples beyond it,
    100 (1 - 10/n); the minimum when there are 10 samples or fewer."""
    pct = max(0.0, 100.0 * (1.0 - 10.0 / len(samples)))
    return pct, float(np.percentile(samples, pct))


def counts_digest(outcomes) -> str:
    rows = [(o.label, o.iterations, o.resets) for o in outcomes]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(spec, seed: int, seconds: float) -> dict:
    """Untraced run: rounds of set-up plus a timed pass over every instance.

    Rounds go on while the next one is expected to end within ``seconds``;
    there is always at least one. Each round sets up afresh and then times
    every solve, each preceded by a timed rollout of its model. Every time is
    scaled to the reference speed by the calibration samples around it. An
    instance's time is the median of its rounds, and set-up time the median
    set-up; the tail is taken over every timed solve. With fewer than
    ``MIN_SETUPS`` rounds, set-up alone is repeated after the last round, so
    ``setup_s`` is always a median.
    """
    clock = Clock()
    preps, runs, rollouts = [], [], []
    t_end = time.perf_counter() + seconds
    round_s = 0.0
    while not runs or time.perf_counter() + round_s <= t_end:
        t0 = time.perf_counter()
        preps.append(setup(spec, seed, clock))
        runs.append(run_pass(preps[-1], rollouts=rollouts, clock=clock))
        round_s = time.perf_counter() - t0
    while len(preps) < MIN_SETUPS:
        preps.append(setup(spec, seed, clock))
    clock.tick()
    rounds = len(runs)
    prep, first = preps[0], runs[0]
    for p, outcomes in enumerate(runs[1:], start=1):
        for a, b in zip(first, outcomes):
            if (a.iterations, a.resets) != (b.iterations, b.resets) and b.failure is None:
                b.failure = (f"Nondeterministic: round {p} took {b.iterations} iterations, "
                             f"round 0 took {a.iterations}")
    samples = [o for outcomes in runs for o in outcomes]
    failed = [o for o in samples if o.failure]
    per_instance = [statistics.median(clock.scale(o.seconds, o.anchor) for o in timings)
                    for timings in zip(*runs)]
    pct, tail_s = tail([clock.scale(o.seconds, o.anchor) for o in samples])
    depths = [solve_depth(s, o.T, o.iterations) for s, o in zip(prep.solves, first)]
    metrics = {
        "solve_s_p50": statistics.median(per_instance),
        "solve_s_tail": tail_s,
        "steps_per_s": sum(o.T for o in first) / sum(per_instance),
        "rollout_s_p50": statistics.median(clock.scale(s, a) for s, a in rollouts),
        "iters_p50": statistics.median(o.iterations for o in first),
        "depth_p50": statistics.median(depths),
        "ok_frac": 1.0 - len(failed) / len(samples),
        "setup_s": statistics.median(sum(clock.scale(t, a) for t, a in q.pieces)
                                     for q in preps),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {
        "rounds": rounds, "kernel_ms": [1e3 * min(clock.samples),
                                        1e3 * statistics.median(clock.samples),
                                        1e3 * max(clock.samples)],
        "wall_solve_s_p50": statistics.median(
            statistics.median(o.seconds for o in timings) for timings in zip(*runs)),
        "wall_rollout_s_p50": statistics.median(s for s, _ in rollouts),
        "wall_setup_s": [q.setup_s for q in preps],
        "solves_per_round": len(prep.solves), "samples": len(samples),
        "solve_s_tail_percentile": pct, "fail_frac": len(failed) / len(samples),
        "depth_p50_is": "computed", "counts_sha": counts_digest(first),
        "max_error": max((o.error for o in first if o.error == o.error), default=None),
    }
    return {"metrics": {k: _metric(v, END_TO_END[k]) for k, v in metrics.items()},
            "attempted": len(samples), "failed": failed, "detail": detail}


def per_layer(spec, seed: int) -> dict:
    """Traced run: one untraced and one traced pass over the same instances,
    each solve preceded by a rollout of its model. Self times are wall
    seconds; the tracing overhead compares the two passes at the reference
    speed, since the host may change speed between them."""
    prep = setup(spec, seed)
    clock = Clock()
    rollout_u = []
    plain = run_pass(prep, rollouts=rollout_u, clock=clock)

    rec = spans.Recorder()
    rollout_t = []
    with spans.instrument(rec, prep.systems):
        traced = run_pass(prep, span=rec.span, rollouts=rollout_t, clock=clock)
    clock.tick()
    leftover = spans.leftover_wrappers(prep.systems)

    failed = [o for o in plain + traced if o.failure]
    for a, b in zip(plain, traced):
        if (a.iterations, a.resets) != (b.iterations, b.resets) and b.failure is None:
            b.failure = (f"TracePerturbed: traced solve took {b.iterations} iterations, "
                         f"untraced took {a.iterations}")
            failed.append(b)
    if leftover:
        failed.append(Outcome("wrappers", 0.0, 0, failure=f"WrappersLeft: {leftover}"))
    bad_levels = [c for c in rec.scan_calls if c[4] != scan_levels(c[1])]
    if bad_levels:
        failed.append(Outcome("pscan", 0.0, 0,
                              failure=f"LevelsMismatch: counted != computed for {bad_levels[:3]}"))

    wall_u = sum(o.seconds for o in plain) + sum(s for s, _ in rollout_u)
    wall_t = sum(o.seconds for o in traced) + sum(s for s, _ in rollout_t)
    ref_u, ref_t = (sum(clock.scale(o.seconds, o.anchor) for o in outcomes)
                    + sum(clock.scale(s, a) for s, a in rollouts)
                    for outcomes, rollouts in ((plain, rollout_u), (traced, rollout_t)))
    st = rec.stats
    kc = rec.kernel_counts()
    step_rows = sum(o.iterations * o.T for o in traced)
    fixed = [o for s, o in zip(prep.solves, traced) if s.family != KALMAN]
    kalman = [o for s, o in zip(prep.solves, traced) if s.family == KALMAN]
    metrics = {
        **{f"pscan.{lane}.self_s": st[f"pscan.{lane}"].self_s for lane in LANES},
        "pscan.compositions": kc["compositions"], "pscan.levels": kc["levels"],
        "pscan.flops_computed": kc["flops"], "pscan.bytes_computed": kc["bytes"],
        "models.step_batch.calls": st["models.step_batch"].calls,
        "models.step_batch.rows": st["models.step_batch"].rows,
        "models.step_batch.self_s": st["models.step_batch"].self_s,
        "models.jacobian_batch.rows": st["models.jacobian_batch"].rows,
        "models.jacobian_batch.self_s": st["models.jacobian_batch"].self_s,
        "models.diag_jacobian_batch.rows": st["models.diag_jacobian_batch"].rows,
        "models.diag_jacobian_batch.self_s": st["models.diag_jacobian_batch"].self_s,
        "models.step.self_s": st["models.step"].self_s,
        "jacutils.fd_jacobian_batch.rows": st["jacutils.fd_jacobian_batch"].rows,
        "jacutils.fd_jacobian_batch.self_s": st["jacutils.fd_jacobian_batch"].self_s,
        "jacutils.hutchinson_diag_batch.rows": st["jacutils.hutchinson_diag_batch"].rows,
        "jacutils.hutchinson_diag_batch.self_s": st["jacutils.hutchinson_diag_batch"].self_s,
        "fixedpoint.self_s": st["fixedpoint"].self_s,
        "fixedpoint.iterations": sum(o.iterations for o in fixed),
        "fixedpoint.resets": sum(o.resets for o in traced),
        "fixedpoint.f_rows_per_step": rec.solver_f_rows / step_rows if step_rows else 0.0,
        "core.merit.calls": st["core.merit"].calls,
        "core.merit.self_s": st["core.merit"].self_s,
        "core.max_abs_diff.self_s": st["core.max_abs_diff"].self_s,
        "core.rollout_sequential.self_s": st["core.rollout_sequential"].self_s,
        "trustregion.self_s": st["trustregion"].self_s,
        "trustregion.iterations": sum(o.iterations for o in kalman),
        "trace.overhead_frac": (ref_t - ref_u) / ref_u,
    }
    self_total = sum(s.self_s for s in st.values())
    detail = {
        "solves": len(prep.solves), "wall_untraced_s": wall_u, "wall_traced_s": wall_t,
        "accounted_frac": self_total / wall_t, "spans": len(rec.spans),
        "counts_sha": counts_digest(traced), "computed": ["pscan.flops_computed",
                                                          "pscan.bytes_computed"],
        "wrappers_left": leftover,
    }
    return {"metrics": {k: _metric(v, PER_LAYER[k]) for k, v in metrics.items()},
            "attempted": len(plain) + len(traced), "failed": failed, "detail": detail,
            "spans": rec.spans}


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None) -> dict:
    spec = WORKLOADS[workload](**(sizes or {}))
    return per_layer(spec, seed) if trace else end_to_end(spec, seed, seconds)
