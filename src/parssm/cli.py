"""Command-line interface.

Subcommands: solve (one model + method), bench (sweep from a JSON config),
lle (exponent estimate), diagnose (conditioning quantities), oracle (the
dense small-scale check of the Kalman smoother step). Exit codes: 0 success,
2 usage error, 3 runtime failure (with a machine-readable JSON error on
stderr).
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
from dataclasses import asdict, replace

import numpy as np

from . import bench, diagnostics, models
from .core import ContractError, Trajectory, max_abs_diff, merit, rollout_sequential
from .fixedpoint import SolverConfig, SolverMethod
from .trustregion import TrustRegionConfig, kalman_step, lm_step_dense

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3

_MODEL_PARAM_FLAGS = {"alpha": float, "g": float, "D": int, "eps": float, "r": float,
                      "F": float, "dt": float, "s0": float}


def _add_model_args(p: argparse.ArgumentParser):
    p.add_argument("--model", "-m", required=True, choices=sorted(models.MODEL_KINDS))
    p.add_argument("-T", type=int, default=256, help="horizon (default 256)")
    p.add_argument("--seed", type=int, default=0)
    for name, kind in _MODEL_PARAM_FLAGS.items():
        p.add_argument(f"--{name}", type=kind)


def _build_model(args):
    params = {k: getattr(args, k) for k in _MODEL_PARAM_FLAGS if getattr(args, k, None) is not None}
    params["seed"] = args.seed
    return models.build(args.model, args.T, **params)


def _add_solver_args(p: argparse.ArgumentParser):
    """Solver flags; one left unset takes the library's default."""
    p.add_argument("--method", default="newton",
                   help="newton | quasi | picard | jacobi | scaled:<a> | kalman")
    p.add_argument("--damping", help="none | scale:<k> | clip:<lo>:<hi> (fixed-point methods)")
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--init", choices=("jacobi", "zeros", "normal"))
    p.add_argument("--metric", choices=("diff", "merit"))
    p.add_argument("--lambda", dest="lam", type=float,
                   help="trust-region precision (kalman method only)")
    p.add_argument("--mode", choices=("filter", "smoother"), help="kalman method only")
    p.add_argument("--jac", choices=("full", "diagonal"),
                   help="jacobian variant for the kalman method")


def _rows_worked_frac(report, T: int) -> float:
    """Share of the T rows each pass worked on, sum(T - front) / (iterations T),
    with the front each pass started from read off ``front_history``."""
    started = [0] + report.front_history[:-1]
    return sum(T - f for f in started) / (report.iterations * T)


def _cmd_solve(args) -> int:
    sys_ = _build_model(args)
    entry = bench.MethodEntry.from_dict({key: v for key, v in (
        ("method", args.method), ("damping", args.damping), ("lambda", args.lam),
        ("mode", args.mode), ("jacobian", args.jac)) if v is not None})
    given = {k: getattr(args, k) for k in ("tol", "max_iters", "init", "metric")
             if getattr(args, k) is not None}
    report = entry.solve(sys_, SolverConfig(seed=args.seed, **given))
    oracle = rollout_sequential(sys_)
    err = max_abs_diff(report.trajectory, oracle)
    payload = {
        "model": args.model, "method": args.method, "T": sys_.horizon, "D": sys_.dim,
        "converged": report.converged, "iterations": report.iterations,
        "resets": report.resets, "guard_rows": report.guard_rows, "final_diff": report.final_diff,
        "final_err_vs_oracle": err, "merit": merit(sys_, report.trajectory),
        "rows_worked_frac": _rows_worked_frac(report, sys_.horizon),
        "elapsed_s": report.elapsed,
    }
    if args.json:
        print(json.dumps(payload))
    else:
        for k, v in payload.items():
            print(f"{k}: {v}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    cfg = bench.ExperimentConfig.from_json(args.config)
    if args.workers is not None:
        cfg = replace(cfg, workers=args.workers)  # checked as the config's own key is
    records, out, sidecar = bench.run_and_write(cfg, args.output)
    n_fail = sum(1 for r in records if r.error)
    print(f"wrote {len(records)} rows to {out}" + (f" (+ {sidecar})" if sidecar else ""))
    if n_fail:
        print(f"{n_fail} runs recorded errors (see the error column)")
    return EXIT_OK


def _cmd_lle(args) -> int:
    sys_ = _build_model(args)
    traj = rollout_sequential(sys_)
    est = diagnostics.estimate_lle(sys_, traj, probes=args.probes, seed=args.probe_seed)
    print(json.dumps({"model": args.model, "T": sys_.horizon, "probes": est.probes,
                      "lle": est.lam}))
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    if args.what == "picard-norm":
        print(diagnostics.picard_inverse_norm(args.T))
        return EXIT_OK
    if args.what == "basin":
        print(diagnostics.basin_radius(args.mu, args.L))
        return EXIT_OK
    if args.what == "pl-bounds":
        b = diagnostics.pl_bounds(args.lle, a_burn=args.a_burn, b_burn=args.b_burn,
                                  T=args.T, D=args.D)
        print(json.dumps(asdict(b)))
        return EXIT_OK
    # gamma / mismatch need a model rollout
    sys_ = _build_model(args)
    traj = rollout_sequential(sys_)
    method = SolverMethod.parse(args.method)
    if args.what == "mismatch":
        print(diagnostics.jacobian_mismatch(sys_, traj, method))
    else:
        print(diagnostics.asymptotic_rate(sys_, traj, method))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    """lm-smoother: the Kalman smoother step equals the dense damped LM step."""
    rng = np.random.default_rng(args.seed)
    sys_ = models.build("rnn", args.T, D=args.D, g=0.8, seed=args.seed)
    guess = rollout_sequential(sys_).states + rng.standard_normal((args.T, args.D))
    traj = Trajectory(sys_.initial_state, guess)
    cfg = TrustRegionConfig(lam=args.lam, mode="smoother", jacobian="full")
    smoothed = kalman_step(sys_, traj, cfg)
    dense = lm_step_dense(sys_, traj, args.lam)
    dev = max_abs_diff(smoothed, dense)
    print(json.dumps({"max_deviation": dev, "tolerance": 1e-8, "ok": dev <= 1e-8}))
    return EXIT_OK if dev <= 1e-8 else EXIT_RUNTIME


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="parssm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one model + method, print the report")
    _add_model_args(p)
    _add_solver_args(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("bench", help="run a sweep from a JSON config, write CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("lle", help="estimate the largest Lyapunov exponent")
    _add_model_args(p)
    p.add_argument("--probes", type=int, default=3)
    p.add_argument("--probe-seed", type=int, default=0)
    p.set_defaults(fn=_cmd_lle)

    p = sub.add_parser("diagnose", help="conditioning and rate quantities")
    dsub = p.add_subparsers(dest="what", required=True)
    d = dsub.add_parser("picard-norm")
    d.add_argument("-T", type=int, required=True)
    d.set_defaults(fn=_cmd_diagnose)
    d = dsub.add_parser("pl-bounds")
    d.add_argument("--lle", type=float, required=True)
    d.add_argument("-T", type=int, required=True)
    d.add_argument("-D", type=int, default=1)
    d.add_argument("--a-burn", type=float, default=1.0)
    d.add_argument("--b-burn", type=float, default=1.0)
    d.set_defaults(fn=_cmd_diagnose)
    d = dsub.add_parser("basin")
    d.add_argument("--mu", type=float, required=True)
    d.add_argument("--L", type=float, required=True)
    d.set_defaults(fn=_cmd_diagnose)
    for name in ("gamma", "mismatch"):
        d = dsub.add_parser(name)
        _add_model_args(d)
        d.add_argument("--method", default="jacobi")
        d.set_defaults(fn=_cmd_diagnose)

    p = sub.add_parser("oracle", help="dense small-scale equivalence checks")
    osub = p.add_subparsers(dest="what", required=True)
    o = osub.add_parser("lm-smoother")
    o.add_argument("-T", type=int, default=16)
    o.add_argument("-D", type=int, default=3)
    o.add_argument("--lambda", dest="lam", type=float, default=0.5)
    o.add_argument("--seed", type=int, default=0)
    o.set_defaults(fn=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ContractError as e:
        print(json.dumps({"error": str(e), "type": "usage"}), file=_sys.stderr)
        return EXIT_USAGE
    except Exception as e:  # runtime failure, machine-readable
        print(json.dumps({"error": str(e), "type": type(e).__name__}), file=_sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
